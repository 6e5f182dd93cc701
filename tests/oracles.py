"""Independent reference computations used to freeze expected test values.

Everything in here is deliberately naive and self-contained: dense Gaussian
elimination, direct Moebius sums, and exhaustive enumeration of bracketings
with a hand-rolled associative expansion.  Nothing imports the package's own
linear algebra or Lie machinery, so agreement is meaningful.  The exceptions
are earlier designs kept as references for the code that replaced them
(``cosimplicial_identity_violations``, ``per_degree_minimal_model``): they
run on the package's matrices, and what they pin is that the new design
makes the same choices.  ``model_violations`` checks a minimal model against
its defining invariants on the package's own truncation, and ``from_rows``
builds a package matrix from dense rows for the tests.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial


def gauss_rank(rows):
    """Rank by textbook elimination with first-nonzero pivoting."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < cols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                for j in range(col, cols):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
        col += 1
    return rank


def dense_inverse(rows):
    """Inverse of an invertible square matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def from_rows(rows):
    """The RationalMatrix with these dense rows, through its checked constructor."""
    from formalpi.exactlin import RationalMatrix

    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return RationalMatrix(len(rows), cols, entries)


def dense_rows(m):
    """The rows of a RationalMatrix as dense lists of Fractions."""
    return [[m.entries.get((i, j), Fraction(0)) for j in range(m.cols)] for i in range(m.rows)]


def dense_matmul(a, b):
    """The product of dense matrices a (n x k) and b (k x m, k >= 1) as rows of Fractions."""
    return [
        [sum((Fraction(x) * Fraction(b[t][j]) for t, x in enumerate(row)), Fraction(0))
         for j in range(len(b[0]))]
        for row in a
    ]


def gauss_jordan_rref(rows, n):
    """Nonzero rows of the reduced row echelon form, pivot entries 1, as tuples."""
    rows = [[Fraction(x) for x in row] for row in rows]
    done = []
    for col in range(n):
        piv = next((row for row in rows if row[col] != 0), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[col] for x in piv]
        rows = [[a - row[col] * b for a, b in zip(row, piv)] for row in rows]
        done = [[a - row[col] * b for a, b in zip(row, piv)] for row in done] + [piv]
    return [tuple(row) for row in done]


def dense_null_space(rows, n):
    """A basis of {x in Q^n : r . x = 0 for every row r}, one vector per free column."""
    reduced = gauss_jordan_rref(rows, n)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    out = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for p, row in zip(pivots, reduced):
            x[p] = -row[f]
        out.append(x)
    return out


def dense_preimage(m, cols, s, within):
    """The RREF rows of {x in span(within) : m x in span(s)}.

    m is a list of dense rows (cols columns each); s and within are lists of
    dense vectors.  Solves sum a_i m w_i = sum c_j s_j for (a, c) and returns
    the reduced span of the vectors sum a_i w_i.
    """
    def dot(u, v):
        return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))

    if not within:
        return []
    images = [[dot(row, w) for row in m] for w in within]
    equations = [[img[i] for img in images] + [-Fraction(v[i]) for v in s] for i in range(len(m))]
    solutions = dense_null_space(equations, len(within) + len(s))
    xs = [[dot(a, col) for col in zip(*within)] for a in solutions]
    return gauss_jordan_rref(xs, cols)


def mobius(n):
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def surface_group_ranks(genus, max_w):
    """Ranks phi_1..phi_max_w of the lower central series quotients of the
    genus-g surface group, from Labute's product formula
    prod_n (1 - t^n)^phi_n = 1 - 2g t + t^2.

    Writing 1 - 2g t + t^2 = (1 - a t)(1 - b t), taking logarithms gives
    sum_(d | m) d phi_d = a^m + b^m = p_m, whose power sums obey
    p_m = 2g p_(m-1) - p_(m-2); Moebius inversion then gives phi_m.
    """
    p = [2, 2 * genus]
    while len(p) <= max_w:
        p.append(2 * genus * p[-1] - p[-2])
    return [sum(mobius(m // d) * p[d] for d in divisors(m)) // m for m in range(1, max_w + 1)]


def torus_pi1_weights(k, max_w):
    """Weights of pi_1 of the torus T^k: the abelian group Z^k sits in
    weight 1, and T^k is a K(pi, 1), so nothing else survives."""
    return [k] + [0] * (max_w - 1)


def polynomial_ext_dims(k, max_s):
    """dim Ext^s_A(Q, Q), s = 1..max_s, when Ext is a polynomial algebra on k
    classes of homological degree 1: C(s + k - 1, k - 1).  That is the
    Koszul dual of an exterior algebra on k odd classes (T^k, at t = s) and of
    a tensor power of k copies of Q[x]/x^2 with |x| = 2 ((S^2)^k, at t = 2s)."""
    return [comb(s + k - 1, k - 1) for s in range(1, max_s + 1)]


def surface_ext_dims(genus, max_s):
    """dim Ext^s_A(Q, Q), s = 1..max_s, for A = H*(Sigma_g), all at t = s.

    A is Koszul with Hilbert series 1 + 2g x + x^2, so Ext has the series
    1 / (1 - 2g x + x^2): c_s = 2g c_(s-1) - c_(s-2), c_0 = 1, c_(-1) = 0.
    """
    c = [0, 1]
    while len(c) < max_s + 2:
        c.append(2 * genus * c[-1] - c[-2])
    return c[2:]


def necklace_numbers(k, max_w):
    """Witt's formula (1/n) sum_(d | n) mu(d) k^(n/d), n = 1..max_w: the ranks
    of the lower central series quotients of the free group on k letters,
    which is pi_1 of a wedge of k circles."""
    return [sum(mobius(d) * k ** (n // d) for d in divisors(n)) // n for n in range(1, max_w + 1)]


def multinomial(counts):
    total = sum(counts)
    out = factorial(total)
    for c in counts:
        out //= factorial(c)
    return out


def lyndon_count_multidegree(alpha):
    """Number of Lyndon words containing alpha[i] copies of letter i."""
    alpha = tuple(alpha)
    n = sum(alpha)
    if n == 0:
        return 0
    g = 0
    for a in alpha:
        g = gcd(g, a)
    total = 0
    for d in divisors(g):
        total += mobius(d) * multinomial(tuple(a // d for a in alpha))
    return total // n


def gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def super_witt_slot_dims(reduced_degrees, max_r, max_w, characters=None, lattice_add=None):
    """Slot dimensions (r, w, char) -> dim from the Lyndon count formula.

    Counts Lyndon words per letter multidegree, then adds one square for every
    odd-parity Lyndon word at doubled degree and weight.
    """
    k = len(reduced_degrees)
    if characters is None:
        characters = [()] * k

        def lattice_add(a, b):
            return ()

    dims = {}
    lyndon_by_profile = {}
    for w in range(1, max_w + 1):
        for alpha in _compositions(w, k):
            cnt = lyndon_count_multidegree(alpha)
            if cnt == 0:
                continue
            r = sum(a * d for a, d in zip(alpha, reduced_degrees))
            char = ()
            if characters is not None:
                char = _char_multiple(characters, alpha, lattice_add)
            if r <= max_r:
                key = (r, w, char)
                dims[key] = dims.get(key, 0) + cnt
            lyndon_by_profile[(r, w, char)] = lyndon_by_profile.get((r, w, char), 0) + cnt
    for (r, w, char), cnt in lyndon_by_profile.items():
        if r % 2 == 1 and 2 * r <= max_r and 2 * w <= max_w:
            char2 = lattice_add(char, char)
            key = (2 * r, 2 * w, char2)
            dims[key] = dims.get(key, 0) + cnt
    return dims


def _char_multiple(characters, alpha, lattice_add):
    out = None
    for char, count in zip(characters, alpha):
        for _ in range(count):
            out = char if out is None else lattice_add(out, char)
    if out is None:
        ln = len(characters[0]) if characters else 0
        out = lattice_add(tuple([0] * ln), tuple([0] * ln)) if characters else ()
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# brute-force free Lie superalgebra spans


def embed_bracketing(tree, parities):
    """Expand a bracketing tree into the free associative algebra.

    tree: either an int (letter) or a pair (left, right).  Returns
    ({word: coeff}, parity).
    """
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}, parities[tree] % 2
    lhs, pl = embed_bracketing(tree[0], parities)
    rhs, pr = embed_bracketing(tree[1], parities)
    sign = -1 if (pl and pr) else 1
    out = {}
    for wa, ca in lhs.items():
        for wb, cb in rhs.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
            out[wb + wa] = out.get(wb + wa, Fraction(0)) - sign * ca * cb
    return {k: v for k, v in out.items() if v}, (pl + pr) % 2


def all_bracketings(seq):
    if len(seq) == 1:
        yield seq[0]
        return
    for cut in range(1, len(seq)):
        for lt in all_bracketings(seq[:cut]):
            for rt in all_bracketings(seq[cut:]):
                yield (lt, rt)


def brute_lie_slot_rank(reduced_degrees, r, w, char=None, characters=None, lattice_add=None):
    """Rank of the span of every bracketing of every length-w letter sequence
    whose degrees sum to r (and character matches, when given).

    Rows are absorbed into a sparse echelon incrementally so large bracketing
    counts stay cheap: each new vector is reduced against the pivots found so
    far and either dies or contributes one more pivot.
    """
    k = len(reduced_degrees)
    echelon = {}  # leading word -> {word: coeff} with leading coeff 1
    for seq in product(range(k), repeat=w):
        if sum(reduced_degrees[i] for i in seq) != r:
            continue
        if char is not None:
            c = None
            for i in seq:
                c = characters[i] if c is None else lattice_add(c, characters[i])
            if c != char:
                continue
        for tree in all_bracketings(seq):
            vec, _ = embed_bracketing(tree, reduced_degrees)
            while vec:
                lead = min(vec)
                pivot = echelon.get(lead)
                if pivot is None:
                    lc = vec[lead]
                    echelon[lead] = {word: coeff / lc for word, coeff in vec.items()}
                    break
                f = vec[lead]
                for word, coeff in pivot.items():
                    val = vec.get(word, Fraction(0)) - f * coeff
                    if val:
                        vec[word] = val
                    else:
                        vec.pop(word, None)
    return len(echelon)


def naive_associativity(p):
    """Every ordered triple (a, b, c) of basis ids, repeats included, with (ab)c != a(bc).

    Visits all n^3 triples in basis order and multiplies through
    ``p.product`` term by term, so it shares nothing with the package's
    own associativity check but the product itself.
    """

    def times(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for t, c in p.product(a, b).items():
                    out[t] = out.get(t, 0) + ca * cb * c
        return {t: c for t, c in out.items() if c}

    ids = [e.ident for e in p.basis]
    return [
        (a, b, c)
        for a in ids
        for b in ids
        for c in ids
        if times(p.product(a, b), {c: 1}) != times({a: 1}, p.product(b, c))
    ]


def reference_product(p, a, b):
    """a*b derived pair by pair from the stored half of p's product table.

    The unit acts as the identity, a stored pair counts only when it is
    listed in basis order (index[a] <= index[b]), and the other order takes
    the Koszul sign (-1)^(|a||b|).  A zero product is {}.
    """
    if a == p.unit_id:
        return {b: 1}
    if b == p.unit_id:
        return {a: 1}
    if p.index[a] <= p.index[b]:
        return dict(p.products.get((a, b), {}))
    sign = (-1) ** (p.degree(a) * p.degree(b))
    return {t: sign * c for t, c in p.products.get((b, a), {}).items()}


def reference_table(p):
    """{x: {y: x*y}} over the distinct basis ids, nonzero products only."""
    ids = list(p.index)
    return {x: {y: xy for y in ids if (xy := reference_product(p, x, y))} for x in ids}


def koszul_sort(t, parities):
    """(sign, sorted t) in the free graded-commutative algebra, or None.

    Bubble sort, one adjacent swap at a time; a swap of two odd indices
    flips the sign.  A repeated odd index squares to zero: None.
    """
    t, sign = list(t), 1
    for end in range(len(t) - 1, 0, -1):
        for i in range(end):
            if t[i] > t[i + 1]:
                t[i], t[i + 1] = t[i + 1], t[i]
                if parities[t[i]] and parities[t[i + 1]]:
                    sign = -sign
    if any(a == b and parities[a] for a, b in zip(t, t[1:])):
        return None
    return sign, tuple(t)


def reference_structure_matrix(c, alpha, src_level, tgt_level):
    """D(alpha) for the denormalization of c, summand by summand.

    Level n is the direct sum, in lex order of eta, of one copy of C^k for
    each surjection eta: [n] ->> [k] with dim C^k > 0.  For every target
    summand eta the epi-mono factorization of eta o alpha is taken afresh:
    with mono part the identity of [k] the block is the identity from the
    source summand named by the epi part, with mono part [k-1] -> [k] it is
    (-1)^k d^(k-1), and otherwise it is zero.  Reads only c.dims and
    c.d(i).entries; returns (rows, cols, entries).
    """

    def layout(n):
        summands = []
        for steps in product((0, 1), repeat=n):
            eta = [0]
            for s in steps:
                eta.append(eta[-1] + s)
            k = eta[-1]
            if k < len(c.dims) and c.dims[k]:
                summands.append((tuple(eta), k))
        summands.sort()
        offsets, at = {}, 0
        for eta, k in summands:
            offsets[eta] = at
            at += c.dims[k]
        return at, summands, offsets

    src_dim, _, src_offsets = layout(src_level)
    tgt_dim, tgt_summands, tgt_offsets = layout(tgt_level)
    entries = {}
    for eta, k in tgt_summands:
        row_off = tgt_offsets[eta]
        phi = [eta[a] for a in alpha]
        image = sorted(set(phi))
        epi = tuple(image.index(v) for v in phi)
        if epi not in src_offsets:
            continue
        col_off = src_offsets[epi]
        if image == list(range(k + 1)):
            for t in range(c.dims[k]):
                entries[(row_off + t, col_off + t)] = 1
        elif image == list(range(k)):
            for (i, j), val in c.d(k - 1).entries.items():
                entries[(row_off + i, col_off + j)] = (-1) ** k * val
    return tgt_dim, src_dim, entries


def cosimplicial_identity_violations(v):
    """The violated cosimplicial identities of v, by whole matrix products.

    The check that dold_kan ran before it compared raw sparse products: each
    side of each identity is a matrix from ``matmul``, compared with ``==``
    (shape and entries), and s^j d^i = id is compared with the identity
    matrix of the level.  Labels and their order are those of
    ``check_cosimplicial_identities``.  The products themselves are held to
    ``dense_matmul`` in test_exactlin.
    """
    bad = []
    m = v.level_count

    def eq(a, b, label):
        if a != b:
            bad.append(label)

    def is_identity(a, n):
        return (a.rows, a.cols) == (n, n) and a.entries == {(t, t): 1 for t in range(n)}

    for n in range(m - 1):
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                lhs = v.coface(n + 1, j).matmul(v.coface(n, i))
                rhs = v.coface(n + 1, i).matmul(v.coface(n, j - 1))
                eq(lhs, rhs, f"d^{j} d^{i} != d^{i} d^{j-1} at level {n}")
    for n in range(2, m + 1):
        for i in range(n - 1):
            for j in range(i, n - 1):
                lhs = v.codegeneracy(n - 1, j).matmul(v.codegeneracy(n, i))
                rhs = v.codegeneracy(n - 1, i).matmul(v.codegeneracy(n, j + 1))
                eq(lhs, rhs, f"s^{j} s^{i} != s^{i} s^{j+1} at level {n}")
    for n in range(m):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = v.codegeneracy(n + 1, j).matmul(v.coface(n, i))
                if i < j:
                    rhs = v.coface(n - 1, i).matmul(v.codegeneracy(n, j - 1))
                    eq(lhs, rhs, f"s^{j} d^{i} != d^{i} s^{j-1} at level {n}")
                elif i in (j, j + 1):
                    if not is_identity(lhs, v.dim(n)):
                        bad.append(f"s^{j} d^{i} != id at level {n}")
                else:
                    rhs = v.coface(n - 1, i - 1).matmul(v.codegeneracy(n, j))
                    eq(lhs, rhs, f"s^{j} d^{i} != d^{i-1} s^{j} at level {n}")
    return bad


def per_degree_minimal_model(p, cutoff):
    """The generators of the Sullivan minimal model, one truncation per degree.

    The construction that ``sullivan_oracle.minimal_model`` ran before it
    grew one truncation for the whole run: at each degree n it enumerates
    every monomial through degree n + 2 afresh and assembles every d, image
    and cycle space again.  Products of generators are signed by
    ``koszul_sort``.  The linear algebra is the package's own, so the two
    agree on every first-in-basis-order choice and the generators must be
    equal name by name.
    """
    from formalpi.exactlin import (
        RationalMatrix,
        SubspaceBasis,
        exact,
        extend_to_complement,
        image_subspace,
        kernel_basis,
    )
    from formalpi.sullivan_oracle import ModelGenerator

    ids_by_degree = {}
    for e in p.basis:
        ids_by_degree.setdefault(e.degree, []).append(e.ident)

    class Truncation:
        def __init__(self, gens, top):
            self.gens = gens
            self.parities = tuple(g.degree % 2 for g in gens)
            by_deg = {n: [] for n in range(top + 1)}

            def rec(start, mono, deg):
                by_deg[deg].append(tuple(mono))
                for i in range(start, len(gens)):
                    nd = deg + gens[i].degree
                    if nd > top:
                        break
                    if self.parities[i] and mono and mono[-1] == i:
                        continue
                    mono.append(i)
                    rec(i, mono, nd)
                    mono.pop()

            rec(0, [], 0)
            self.monomials = {n: tuple(sorted(by_deg[n])) for n in range(top + 1)}
            self.index = {n: {m: i for i, m in enumerate(ms)} for n, ms in self.monomials.items()}
            self.d = {}

        def d_of_monomial(self, mono):
            out = {}
            odd = 0
            for j, gi in enumerate(mono):
                base = -1 if odd else 1
                odd ^= self.parities[gi]
                for dm, coeff in self.gens[gi].differential:
                    signed = koszul_sort(mono[:j] + dm + mono[j + 1 :], self.parities)
                    if signed is not None:
                        sign, m2 = signed
                        out[m2] = out.get(m2, 0) + base * sign * coeff
            return out

        def d_matrix(self, n):
            if n not in self.d:
                entries = {}
                for j, mono in enumerate(self.monomials[n]):
                    for m2, c in self.d_of_monomial(mono).items():
                        entries[(self.index[n + 1][m2], j)] = c
                self.d[n] = RationalMatrix(len(self.monomials[n + 1]), len(self.monomials[n]), entries)
            return self.d[n]

        def comparison_matrix(self, n):
            ids = ids_by_degree.get(n, [])
            pos = {ident: i for i, ident in enumerate(ids)}
            entries = {}
            for j, mono in enumerate(self.monomials[n]):
                acc = {p.unit_id: Fraction(1)}
                for gi in mono:
                    acc = p.multiply_vectors(acc, dict(self.gens[gi].image))
                for ident, c in acc.items():
                    entries[(pos[ident], j)] = c
            return RationalMatrix(len(ids), len(self.monomials[n]), entries)

        def cohomology_reps(self, n):
            full = SubspaceBasis.full(len(self.monomials[n - 1]))
            boundaries = image_subspace(self.d_matrix(n - 1), full)
            return extend_to_complement(boundaries, kernel_basis(self.d_matrix(n)))

    gens = []
    for n in range(2, cutoff + 1):
        first = len(gens)
        tr = Truncation(tuple(gens), n + 2)
        comparison = tr.comparison_matrix(n)
        images = [comparison.matvec(r) for r in tr.cohomology_reps(n)]
        ids = ids_by_degree.get(n, [])
        hit = SubspaceBasis.from_vectors(images, len(ids))
        for vec in extend_to_complement(hit, SubspaceBasis.full(len(ids))):
            image = tuple((ids[t], c) for t, c in sorted(vec.items()))
            gens.append(ModelGenerator(f"v{n}_{len(gens) - first}", n, (), image))
        reps = tr.cohomology_reps(n + 1)
        if reps:
            columns = {(j, i): x for i, rep in enumerate(reps) for j, x in rep.items()}
            r = RationalMatrix(len(tr.monomials[n + 1]), len(reps), columns)
            for lam in kernel_basis(tr.comparison_matrix(n + 1).matmul(r)).monic_rows():
                cocycle = sorted(r.matvec(lam).items())
                differential = tuple((tr.monomials[n + 1][i], exact(c)) for i, c in cocycle)
                gens.append(ModelGenerator(f"v{n}_{len(gens) - first}", n, differential, ()))
    return tuple(gens)


def model_violations(mm):
    """Exact checks: d² = 0, minimality, comparison iso through the cutoff.

    The comparison map must be an isomorphism on cohomology through the
    cutoff and injective one degree above; returns human-readable failures.
    A differential of the wrong degree ends the checks after the
    per-generator ones.  The truncation is the one ``minimal_model`` grows,
    looked up on its module at call time, built once for the whole check.
    """
    from formalpi import sullivan_oracle
    from formalpi.exactlin import _Echelon

    bad = []
    p, cutoff = mm.presentation, mm.cutoff
    tr = sullivan_oracle._Truncation(p, mm.generators, cutoff + 2)
    graded = True
    for g in mm.generators:
        if any(len(m) < 2 for m, _ in g.differential):
            bad.append(f"generator {g.name} has a linear differential term")
        if any(sum(tr.degrees[t] for t in m) != g.degree + 1 for m, _ in g.differential):
            bad.append(f"generator {g.name} has an inhomogeneous differential")
            graded = False
    if not graded:
        return bad  # d is not a graded map, so it has no matrix by degree
    for n in range(cutoff + 1):
        if not tr.d_matrix(n + 1).matmul(tr.d_matrix(n)).is_zero():
            bad.append(f"d squared is nonzero out of degree {n}")
    for n in range(1, cutoff + 1):
        # chain map against the zero target differential: boundaries map to zero
        if not tr.comparison_matrix(n).matmul(tr.d_matrix(n - 1)).is_zero():
            bad.append(f"comparison map is not a chain map in degree {n}")
    for n in range(2, cutoff + 2):
        reps = tr.cohomology_reps(n)
        comparison = tr.comparison_matrix(n)
        images = [comparison.matvec(r) for r in reps]
        rank = _Echelon(images).dim
        if rank != len(reps):
            bad.append(f"comparison map is not injective on H^{n}")
        if n <= cutoff and rank != len(tr.target_ids(n)):
            bad.append(f"comparison map is not surjective onto degree {n}")
    return bad
