"""Denormalization of cochain complexes into cosimplicial vector spaces.

A cochain complex C (degrees 0..N, d raising degree) denormalizes to the
cosimplicial vector space

    D(C)^n = direct sum over order-preserving surjections eta: [n] ->> [k]
             of a copy of C^k,

with summands ordered lexicographically by eta.  A monotone map
alpha: [m] -> [n] acts by the epi-mono rule: the component into the target
summand eta comes from the summand indexed by the epi part of eta o alpha,
and is the identity when the mono part is the identity, (-1)^k d when the
mono part is the top-missing inclusion [k-1] -> [k], and zero otherwise.
The sign is forced by requiring normalize(denormalize(c)) = c on the nose.

normalize recovers the complex as the joint kernel of the codegeneracies
with the alternating sum of cofaces as differential.  Every call first
checks all the cosimplicial identities on the stored levels, none skipped
and none trusted to denormalize: each side is one raw sparse product of
the stored matrices (the kernel of RationalMatrix.matmul, without its
normal form), and the two sides are compared by value.

For a commutative differential graded algebra the levelwise product is the
transpose of the Eilenberg-Zilber coproduct on the dual simplicial side:
faces and degeneracies of K = D^T are the transposed cofaces/codegeneracies,
the dual multiplication gives a chain coproduct, and the shuffle map turns
it into a simplicial coproduct on K; transposing back yields a product on
D(A) for which every structure map is an algebra morphism and each level is
unital, associative and commutative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import (
    DSquaredNonzeroError,
    InvalidInputError,
    NotACdgaError,
    SimplicialIdentityError,
)
from .exactlin import (
    Frozen,
    RationalMatrix,
    Record,
    SubspaceBasis,
    combine,
    coordinates_in_span,
    kernel_basis,
)


class CochainComplex(Frozen):
    """dims[i] is the dimension in degree i; differentials[i] maps i to i+1."""

    _fields = ("dims", "differentials")

    def __init__(self, dims: tuple[int, ...], differentials: tuple[RationalMatrix, ...] = ()):
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "differentials", differentials)
        if any(d < 0 for d in dims):
            raise InvalidInputError("negative dimension")
        if len(differentials) > max(len(dims) - 1, 0):
            raise InvalidInputError("more differentials than adjacent degree pairs")
        for i, m in enumerate(differentials):
            if (m.rows, m.cols) != (self.dim(i + 1), self.dim(i)):
                raise InvalidInputError(f"differential {i} has the wrong shape")
        for i in range(len(differentials) - 1):
            if not differentials[i + 1].matmul(differentials[i]).is_zero():
                raise DSquaredNonzeroError(
                    f"d squared is nonzero out of degree {i}", witness=i
                )

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, i: int) -> int:
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def d(self, i: int) -> RationalMatrix:
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return RationalMatrix.zero(self.dim(i + 1), self.dim(i))


@lru_cache(maxsize=None)
def surjections(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Order-preserving surjections [n] ->> [k] as value tuples, lex order."""
    if k > n or k < 0 or n < 0:
        return ()
    out = []
    # nondecreasing onto sequences: choose the k positions (of n steps) that rise
    for rises in combinations(range(n), k):
        seq = [0] * (n + 1)
        level = 0
        rise_set = set(rises)
        for t in range(n):
            if t in rise_set:
                level += 1
            seq[t + 1] = level
        out.append(tuple(seq))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...], n: int):
    """Summand layout of level n: ordered (eta, k, offset) plus lookup."""
    entries = []
    for k in range(0, min(n, len(dims) - 1) + 1):
        if dims[k] == 0:
            continue
        for eta in surjections(n, k):
            entries.append((eta, k))
    entries.sort(key=lambda e: e[0])
    placed = []
    lookup = {}
    at = 0
    for eta, k in entries:
        placed.append((eta, k, at))
        lookup[eta] = (k, at)
        at += dims[k]
    return at, tuple(placed), lookup


def _epi_mono(phi: tuple[int, ...]):
    image = sorted(set(phi))
    rank = {v: i for i, v in enumerate(image)}
    return tuple(rank[v] for v in phi), tuple(image)


@lru_cache(maxsize=None)
def _plan(dims: tuple[int, ...], alpha: tuple[int, ...], src_level: int, tgt_level: int):
    """Where D(alpha) has nonzero blocks; depends on dims and alpha, never on d.

    Returns (src_dim, tgt_dim, identity, diff): identity holds
    (row_off, col_off, size) for each identity block and diff holds
    (row_off, col_off, k, sign) for each block sign * d^k.
    """
    src_dim, _, src_lookup = _layout(dims, src_level)
    tgt_dim, tgt_entries, _ = _layout(dims, tgt_level)
    identity, diff = [], []
    for eta, k, row_off in tgt_entries:
        epi, image = _epi_mono(tuple(eta[a] for a in alpha))
        hit = src_lookup.get(epi)
        if hit is None:
            continue
        if image == tuple(range(k + 1)):
            identity.append((row_off, hit[1], dims[k]))
        elif image == tuple(range(k)):
            diff.append((row_off, hit[1], k - 1, -1 if k % 2 else 1))
    return src_dim, tgt_dim, tuple(identity), tuple(diff)


def structure_matrix(
    c: CochainComplex, alpha: tuple[int, ...], src_level: int, tgt_level: int
) -> RationalMatrix:
    """Matrix of D(alpha): D(c)^src -> D(c)^tgt for monotone alpha: [src] -> [tgt]."""
    if len(alpha) != src_level + 1:
        raise ValueError("alpha has the wrong arity")
    if any(alpha[i] > alpha[i + 1] for i in range(src_level)):
        raise ValueError("alpha is not order-preserving")
    if alpha and not (0 <= alpha[0] and alpha[-1] <= tgt_level):
        raise ValueError("alpha is out of range")
    src_dim, tgt_dim, identity, diff = _plan(c.dims, alpha, src_level, tgt_level)
    entries = {}
    for row_off, col_off, size in identity:
        for t in range(size):
            entries[(row_off + t, col_off + t)] = 1
    for row_off, col_off, k, sign in diff:
        for (i, j), val in c.d(k).entries.items():
            entries[(row_off + i, col_off + j)] = sign * val
    return RationalMatrix._canonical(tgt_dim, src_dim, entries)


def _delta(i: int, n: int) -> tuple[int, ...]:
    """The injection [n] -> [n+1] missing i."""
    return tuple(t if t < i else t + 1 for t in range(n + 1))


def _sigma(i: int, n: int) -> tuple[int, ...]:
    """The surjection [n] -> [n-1] repeating i."""
    return tuple(t if t <= i else t - 1 for t in range(n + 1))


class CosimplicialVS(Record):
    """Levels 0..level_count with coface and codegeneracy matrices.

    cofaces[(n, i)]: level n -> n+1 for 0 <= i <= n+1;
    codegeneracies[(n, i)]: level n -> n-1 for 0 <= i <= n-1.
    """

    _fields = ("dims", "cofaces", "codegeneracies")

    def __init__(
        self,
        dims: tuple[int, ...],
        cofaces: dict[tuple[int, int], RationalMatrix],
        codegeneracies: dict[tuple[int, int], RationalMatrix],
    ):
        self.dims = dims
        self.cofaces = cofaces
        self.codegeneracies = codegeneracies
        for (n, i), m in cofaces.items():
            if (m.rows, m.cols) != (self.dim(n + 1), self.dim(n)):
                raise InvalidInputError(f"coface d^{i} at level {n}: wrong shape")
        for (n, i), m in codegeneracies.items():
            if (m.rows, m.cols) != (self.dim(n - 1), self.dim(n)):
                raise InvalidInputError(f"codegeneracy s^{i} at level {n}: wrong shape")

    @property
    def level_count(self) -> int:
        return len(self.dims) - 1

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n < len(self.dims) else 0

    def coface(self, n: int, i: int) -> RationalMatrix:
        return self.cofaces[(n, i)]

    def codegeneracy(self, n: int, i: int) -> RationalMatrix:
        return self.codegeneracies[(n, i)]


def denormalize(c: CochainComplex, m: int) -> CosimplicialVS:
    """Cosimplicial vector space with levels 0..m realizing the complex."""
    if m < 0:
        raise InvalidInputError("truncation level must be >= 0")
    dims = tuple(_layout(c.dims, n)[0] for n in range(m + 1))
    cofaces = {}
    codegens = {}
    for n in range(m):
        for i in range(n + 2):
            cofaces[(n, i)] = structure_matrix(c, _delta(i, n), n, n + 1)
    for n in range(1, m + 1):
        for i in range(n):
            codegens[(n, i)] = structure_matrix(c, _sigma(i, n), n, n - 1)
    return CosimplicialVS(dims, cofaces, codegens)


def check_cosimplicial_identities(v: CosimplicialVS) -> list[str]:
    """All violated identities on the stored levels, empty when consistent.

    Each side is one sparse product, compared by value and shape to the
    other side; no matrix object is built.
    """
    bad = []
    m = v.level_count
    d, s = v.cofaces, v.codegeneracies

    def product(a: RationalMatrix, b: RationalMatrix):
        return a.rows, b.cols, a._product(b)

    for n in range(m - 1):
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                if product(d[n + 1, j], d[n, i]) != product(d[n + 1, i], d[n, j - 1]):
                    bad.append(f"d^{j} d^{i} != d^{i} d^{j-1} at level {n}")
    for n in range(2, m + 1):
        for i in range(n - 1):
            for j in range(i, n - 1):
                if product(s[n - 1, j], s[n, i]) != product(s[n - 1, i], s[n, j + 1]):
                    bad.append(f"s^{j} s^{i} != s^{i} s^{j+1} at level {n}")
    for n in range(m):
        size = v.dim(n)
        identity = (size, size, {(t, t): 1 for t in range(size)})
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = product(s[n + 1, j], d[n, i])
                if i < j:
                    if lhs != product(d[n - 1, i], s[n, j - 1]):
                        bad.append(f"s^{j} d^{i} != d^{i} s^{j-1} at level {n}")
                elif i in (j, j + 1):
                    if lhs != identity:
                        bad.append(f"s^{j} d^{i} != id at level {n}")
                elif lhs != product(d[n - 1, i - 1], s[n, j]):
                    bad.append(f"s^{j} d^{i} != d^{i-1} s^{j} at level {n}")
    return bad


def normalize(v: CosimplicialVS) -> CochainComplex:
    """Joint kernel of codegeneracies with the alternating coface sum.

    Raises SimplicialIdentityError naming the first violated identity when
    the input is not cosimplicial.
    """
    bad = check_cosimplicial_identities(v)
    if bad:
        raise SimplicialIdentityError(bad[0])
    m = v.level_count
    bases: list[SubspaceBasis] = []
    for n in range(m + 1):
        if n == 0:
            bases.append(SubspaceBasis.full(v.dim(0)))
            continue
        stacked = {}
        row_at = 0
        for i in range(n):
            s = v.codegeneracy(n, i)
            for (r, cidx), val in s.entries.items():
                stacked[(row_at + r, cidx)] = val
            row_at += s.rows
        bases.append(kernel_basis(RationalMatrix._canonical(row_at, v.dim(n), stacked)))
    dims = tuple(b.dim for b in bases)
    diffs = []
    for n in range(m):
        cols = {}
        total = combine(v.dim(n + 1), v.dim(n), [((-1) ** i, v.coface(n, i)) for i in range(n + 2)])
        span = bases[n + 1].monic_rows()
        images = [total.matvec(vec) for vec in bases[n].monic_rows()]
        for j, coords in enumerate(coordinates_in_span(span, images)):
            for i, val in coords.items():
                cols[(i, j)] = val
        diffs.append(RationalMatrix(dims[n + 1], dims[n], cols))
    return CochainComplex(dims, tuple(diffs))


def complexes_agree(a: CochainComplex, b: CochainComplex, up_to: int) -> bool:
    for i in range(up_to + 1):
        if a.dim(i) != b.dim(i):
            return False
    return all(a.d(i) == b.d(i) for i in range(up_to))


# ---------------------------------------------------------------------------
# algebras


def _tensor(x, y) -> list[Fraction]:
    """x (x) y as one vector: entry i * len(y) + j is x[i] * y[j]."""
    out = [Fraction(0)] * (len(x) * len(y))
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i * len(y) + j] = Fraction(a) * Fraction(b)
    return out


class CochainAlgebra(Frozen):
    """CDGA data: a complex, products per degree pair, and a unit in degree 0.

    products[(p, q)] maps basis pairs to degree p+q, columns indexed by
    i * dim(q) + j; missing pairs mean the zero product.
    """

    _fields = ("complex", "products", "unit")

    def __init__(
        self,
        complex: CochainComplex,
        products: dict[tuple[int, int], RationalMatrix],
        unit: tuple[Fraction, ...],
    ):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "unit", unit)

    def product(self, p: int, q: int) -> RationalMatrix:
        m = self.products.get((p, q))
        if m is not None:
            return m
        c = self.complex
        return RationalMatrix.zero(c.dim(p + q), c.dim(p) * c.dim(q))

    def multiply(self, p: int, x, q: int, y):
        return self.product(p, q).apply(_tensor(x, y))


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    entries = {}
    for (i, j), x in a.entries.items():
        for (k, l), y in b.entries.items():
            entries[(i * b.rows + k, j * b.cols + l)] = x * y
    return RationalMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def _column(vec) -> RationalMatrix:
    """A vector as a one-column matrix."""
    return RationalMatrix(len(vec), 1, {(i, 0): x for i, x in enumerate(vec)})


def _swap(p: int, q: int) -> RationalMatrix:
    """tau: Q^p (x) Q^q -> Q^q (x) Q^p, e_i (x) e_j -> e_j (x) e_i."""
    return RationalMatrix._canonical(
        p * q, p * q, {(j * p + i, i * q + j): 1 for i in range(p) for j in range(q)}
    )


def _differing_columns(a: RationalMatrix, b: RationalMatrix) -> list[int]:
    """The sorted indices of the columns in which a and b (of one shape) differ."""
    return sorted({j for _, j in combine(a.rows, a.cols, [(1, a), (-1, b)]).entries})


def _unit_failures(left: RationalMatrix, right: RationalMatrix, unit) -> tuple[set[int], set[int]]:
    """The indices j with left(u (x) e_j) != e_j, and those with right(e_j (x) u) != e_j."""
    u, one = _column(unit), RationalMatrix.identity(left.rows)
    return (
        set(_differing_columns(left.matmul(kron(u, one)), one)),
        set(_differing_columns(right.matmul(kron(one, u)), one)),
    )


def validate_cdga(a: CochainAlgebra) -> None:
    c = a.complex
    if c.dim(0) == 0:
        raise NotACdgaError("no degree-0 part to host a unit")
    if len(a.unit) != c.dim(0):
        raise NotACdgaError("unit vector has the wrong length")
    if any(x for x in c.d(0).apply(a.unit)):
        raise NotACdgaError("unit is not a cocycle")
    top = c.top_degree
    # a missing product is the zero matrix of the right shape; the laws below
    # read stored products past the top degree too, where the shape is empty
    for p, q in sorted(a.products):
        m = a.products[p, q]
        shape = (c.dim(p + q), c.dim(p) * c.dim(q))
        if p >= 0 and q >= 0 and (m.rows, m.cols) != shape:
            raise NotACdgaError(f"product ({p},{q}) has the wrong shape")
    # every law below compares maps out of a tensor product of degrees, which
    # has no columns when a factor has dimension 0: only live degrees can fail
    live = [p for p in range(top + 1) if c.dim(p)]
    one = {p: RationalMatrix.identity(c.dim(p)) for p in live}
    pairs = [(p, q) for p in live for q in live if p + q <= top]
    # unit acts as identity; the first failing basis index names the side
    for p in live:
        left, right = _unit_failures(a.product(0, p), a.product(p, 0), a.unit)
        if left or right:
            side = "left" if min(left | right) in left else "right"
            raise NotACdgaError(f"unit fails on the {side} in degree {p}")
    for p, q in pairs:
        # d(xy) - (dx)y - (-1)^p x(dy)
        lhs = c.d(p + q).matmul(a.product(p, q))
        rhs = a.product(p + 1, q).matmul(kron(c.d(p), one[q]))
        second = a.product(p, q + 1).matmul(kron(one[p], c.d(q)))
        terms = [(1, lhs), (-1, rhs), (-((-1) ** p), second)]
        if not combine(lhs.rows, lhs.cols, terms).is_zero():
            raise NotACdgaError(f"Leibniz fails on degrees ({p},{q})")
    # mu_pq = (-1)^(pq) mu_qp tau
    for p, q in pairs:
        mpq, sgn = a.product(p, q), -1 if (p % 2 and q % 2) else 1
        swapped = a.product(q, p).matmul(_swap(c.dim(p), c.dim(q)))
        if swapped != combine(mpq.rows, mpq.cols, [(sgn, mpq)]):
            raise NotACdgaError(f"commutativity fails on degrees ({p},{q})")
    # mu (mu (x) 1) = mu (1 (x) mu)
    for p, q in pairs:
        for s in live:
            if p + q + s > top:
                break
            left = a.product(p + q, s).matmul(kron(a.product(p, q), one[s]))
            right = a.product(p, q + s).matmul(kron(one[p], a.product(q, s)))
            if left != right:
                raise NotACdgaError(f"associativity fails on degrees ({p},{q},{s})")


class CosimplicialAlgebra(Record):
    """A cosimplicial vector space with a product and unit at every level."""

    _fields = ("vs", "level_products", "level_units")

    def __init__(
        self,
        vs: CosimplicialVS,
        level_products: tuple[RationalMatrix, ...],  # level n: D^n (x) D^n -> D^n
        level_units: tuple[tuple[Fraction, ...], ...],
    ):
        self.vs = vs
        self.level_products = level_products
        self.level_units = level_units


def _shuffles(p: int, q: int):
    """(p,q)-shuffles as (mu, nu, sign) with mu, nu ascending index tuples."""
    out = []
    for mu in combinations(range(p + q), p):
        nu = tuple(t for t in range(p + q) if t not in mu)
        inv = sum(1 for a in mu for b in nu if a > b)
        out.append((mu, nu, -1 if inv % 2 else 1))
    return out


def _identity_inclusion(c: CochainComplex, k: int) -> RationalMatrix:
    """C^k into level k of D as the identity-surjection summand."""
    total, _, lookup = _layout(c.dims, k)
    _, off = lookup[tuple(range(k + 1))]
    return RationalMatrix(
        total, c.dim(k), {(off + t, t): Fraction(1) for t in range(c.dim(k))}
    )


def denormalize_algebra(a: CochainAlgebra, m: int) -> CosimplicialAlgebra:
    """Cosimplicial algebra on D(A) through level m via shuffle transposition."""
    validate_cdga(a)
    c = a.complex
    vs = denormalize(c, m)

    def degeneracy(t: int, j: int) -> RationalMatrix:
        # simplicial degeneracy on the dual side: K_t -> K_(t+1)
        return vs.codegeneracy(t + 1, j).transpose()

    # f_k : dual of C^k -> K_k (x) K_k, the shuffle coproduct payload
    payload: list[RationalMatrix] = []
    for k in range(m + 1):
        dk = _layout(c.dims, k)[0]
        terms = []
        for p in range(k + 1):
            q = k - p
            if c.dim(p) == 0 or c.dim(q) == 0:
                continue
            delta_pq = a.product(p, q).transpose()  # dual C_k -> C_p (x) C_q
            if delta_pq.is_zero():
                continue
            for mu, nu, sign in _shuffles(p, q):
                lhs = _identity_inclusion(c, p)
                lvl = p
                for j in nu:
                    lhs = degeneracy(lvl, j).matmul(lhs)
                    lvl += 1
                rhs = _identity_inclusion(c, q)
                lvl = q
                for j in mu:
                    rhs = degeneracy(lvl, j).matmul(rhs)
                    lvl += 1
                terms.append((sign, kron(lhs, rhs).matmul(delta_pq)))
        payload.append(combine(dk * dk, c.dim(k), terms))

    products = []
    units = []
    for n in range(m + 1):
        dn, entries_n, _ = _layout(c.dims, n)
        psi = {}
        for eta, k, off in entries_n:
            # K(eta) = transpose of D(eta): level k of K into level n
            k_eta = structure_matrix(c, eta, n, k).transpose()
            block = kron(k_eta, k_eta).matmul(payload[k])
            for (i, j), val in block.entries.items():
                psi[(i, off + j)] = val
        psi_matrix = RationalMatrix(dn * dn, dn, psi)
        products.append(psi_matrix.transpose())
        unit_vec = [Fraction(0)] * dn
        _, _, lookup = _layout(c.dims, n)
        _, u_off = lookup[tuple([0] * (n + 1))]
        for t, val in enumerate(a.unit):
            unit_vec[u_off + t] = Fraction(val)
        units.append(tuple(unit_vec))
    return CosimplicialAlgebra(vs, tuple(products), tuple(units))


def levelwise_algebra_violations(ca: CosimplicialAlgebra) -> list[str]:
    """Unit, commutativity and associativity per level, each one matrix identity
    whose failing columns name the basis elements."""
    bad = []
    for n in range(ca.vs.level_count + 1):
        d, mu = ca.vs.dim(n), ca.level_products[n]
        one = RationalMatrix.identity(d)
        left, right = _unit_failures(mu, mu, ca.level_units[n])
        bad += [f"unit fails at level {n} on basis {i}" for i in sorted(left | right)]
        for col in _differing_columns(mu, mu.matmul(_swap(d, d))):
            i, j = divmod(col, d)
            if i < j:
                bad.append(f"commutativity fails at level {n} on ({i},{j})")
        for col in _differing_columns(mu.matmul(kron(mu, one)), mu.matmul(kron(one, mu))):
            i, j, t = col // (d * d), col // d % d, col % d
            bad.append(f"associativity fails at level {n} on ({i},{j},{t})")
    return bad


def structure_map_violations(ca: CosimplicialAlgebra) -> list[str]:
    """Cofaces and codegeneracies must be unital algebra morphisms."""
    bad = []
    vs = ca.vs

    def check(label, n_src, n_tgt, f):
        # f(u) = u' and f mu = mu' (f (x) f)
        if f.matmul(_column(ca.level_units[n_src])) != _column(ca.level_units[n_tgt]):
            bad.append(f"{label} does not preserve the unit")
        lhs = f.matmul(ca.level_products[n_src])
        rhs = ca.level_products[n_tgt].matmul(kron(f, f))
        d = vs.dim(n_src)
        for col in _differing_columns(lhs, rhs):
            i, j = divmod(col, d)
            if i <= j:
                bad.append(f"{label} is not multiplicative on ({i},{j})")
    for (n, i), mat in sorted(vs.cofaces.items()):
        check(f"coface d^{i} at level {n}", n, n + 1, mat)
    for (n, i), mat in sorted(vs.codegeneracies.items()):
        check(f"codegeneracy s^{i} at level {n}", n, n - 1, mat)
    return bad


def algebra_from_presentation(p) -> CochainAlgebra:
    """Zero-differential CDGA on the basis of a validated presentation."""
    from .graded_core import require_valid

    require_valid(p)
    ids = p.ids_by_degree
    dims = [len(ids.get(n, ())) for n in range(max(ids) + 1)]
    slot = {x: i for row in ids.values() for i, x in enumerate(row)}  # position within its degree
    products: dict[tuple[int, int], dict] = {}  # entries by degree pair, then the matrices
    for a, row in p.table.items():
        for b, ab in row.items():
            dp, dq = p.degree(a), p.degree(b)
            block = products.setdefault((dp, dq), {})
            for t, coeff in ab.items():
                block[(slot[t], slot[a] * dims[dq] + slot[b])] = coeff
    for (dp, dq), block in products.items():
        products[(dp, dq)] = RationalMatrix(dims[dp + dq], dims[dp] * dims[dq], block)
    return CochainAlgebra(CochainComplex(tuple(dims)), products, (Fraction(1),))


# ---------------------------------------------------------------------------
# random complexes for fuzzing


def random_cochain_complex(rng, max_degree: int = 4, max_dim: int = 4) -> CochainComplex:
    """A random valid complex: a matching differential conjugated generically."""
    n_deg = rng.randint(1, max_degree + 1)
    dims = [rng.randint(0, max_dim) for _ in range(n_deg)]
    matching: dict[int, dict] = {i: {} for i in range(n_deg - 1)}
    used_src: dict[int, set] = {i: set() for i in range(n_deg)}
    used_tgt: dict[int, set] = {i: set() for i in range(n_deg)}
    for i in range(n_deg - 1):
        for s in range(dims[i]):
            if s in used_tgt[i] or rng.random() < 0.4:
                continue
            free = [t for t in range(dims[i + 1]) if t not in used_src[i + 1]]
            if not free:
                continue
            t = rng.choice(free)
            used_src[i].add(s)
            used_tgt[i + 1].add(t)
            matching[i][(t, s)] = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))

    def unipotent(k):
        entries = {(a, a): Fraction(1) for a in range(k)}
        for a in range(k):
            for b in range(a + 1, k):
                if rng.random() < 0.4:
                    entries[(a, b)] = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2]))
        return RationalMatrix(k, k, entries)

    def inverse(p: RationalMatrix) -> RationalMatrix:
        # back substitution: row a of P^-1 is e_a - sum over b > a of P[a, b] (row b of P^-1)
        k, rows = p.rows, p.row_dicts()
        inv: list[dict] = [{}] * k
        for a in reversed(range(k)):
            out = {a: 1}
            for b, x in rows[a].items():
                if b != a:
                    for t, y in inv[b].items():
                        out[t] = out.get(t, 0) - x * y
            inv[a] = out
        entries = {(a, t): y for a, out in enumerate(inv) for t, y in out.items()}
        return RationalMatrix(k, k, entries)

    basis_change = [unipotent(k) for k in dims]
    diffs = []
    for i in range(n_deg - 1):
        d = RationalMatrix(dims[i + 1], dims[i], matching[i])
        diffs.append(basis_change[i + 1].matmul(d).matmul(inverse(basis_change[i])))
    return CochainComplex(tuple(dims), tuple(diffs))
