"""Exact linear algebra over the rationals.

Everything downstream (Lie model differentials, spectral sequence pages,
minimal model cohomology) reduces to ranks, kernels and quotient dimensions
of matrices with exact rational entries.  Floating point is never used.

Exact values have one normal form, owned by ``exact``: an int when the value
is integral and a Fraction otherwise.  Every stored matrix entry is in that
form, and so is every value the module returns (monic rows, coordinates,
the dense views), so integral work (unit coefficients, Koszul signs,
identity blocks) runs on machine-friendly ints and never builds a
Fraction.  Equality stays by value: ``1 == Fraction(1)`` and their hashes
agree.

Vectors are sparse dicts from column to a nonzero int or Fraction.  Every
elimination runs through one incremental echelon, _Echelon: primitive
integer rows keyed by their leading (pivot) column.  A new vector is reduced
left to right, only against the rows whose pivot column it touches, and
either vanishes or becomes one more row.  A SubspaceBasis is the canonical
form of such an echelon, reduced, with coprime integer rows and positive
pivots, so equal spans give equal objects; it is built only from that
form.  A span whose only readers are its dimension and a greedy complement
(extend_to_complement, or insert on the echelon itself) stays an _Echelon,
unreduced: both depend on the span alone, not on its rows.  The
resolution's block images and the minimal model's boundary and hit spans
are kept that way.  Dense vectors appear only in the read-only view
``SubspaceBasis.vectors`` and in RationalMatrix.apply.

Kernels, preimages and intersections all run through one tagged echelon,
kernel_rows.  It takes labelled sparse columns {k: c_k} of Q^n and the
rows of a span S, tags c_k with the unit vector at n + k, and reads the
rows whose pivot lies from n on: the canonical basis of {x : sum of x_k c_k
in S}, keyed by label.  _preimage, under kernel_basis, preimage_subspace
and subspace_intersection, labels the columns of a matrix by position; the
resolution labels the stored columns of a block by pair and builds no
matrix.  SubspaceBasis.coordinates reads the coordinates of a vector in the
canonical basis at its pivots, with no elimination, and checks that nothing
is left over.

Products run through one accumulating kernel, add_product: it adds
sign * a @ b into a dict keyed i * cols + j.  matmul reads that dict back
in normal form; an identity a b = c e, or a composite d d = 0, is checked
by accumulating both sides into one dict and asking whether any entry is
nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CompositionNonzeroError

Entry = tuple[int, int]
Rows = dict[int, dict[int, int]]


def exact(x) -> int | Fraction:
    """x (an int, Fraction, str or other exact number) in normal form.

    An int when x is integral, a reduced Fraction otherwise; never a bool.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Record:
    """A value with the fields named in ``_fields``.

    Two Records are equal when they are of one class and their fields are
    equal; the repr lists the fields.  A Record is mutable, so unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """An immutable Record, hashed by value.  Assignment raises, so
    ``__init__`` sets the fields through ``object.__setattr__``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RationalMatrix(Frozen):
    """Sparse matrix over Q.  Only nonzero entries are stored.

    Entries are in the normal form of ``exact``: ints when integral, reduced
    Fractions otherwise.  Equality is by value, since ``1 == Fraction(1)``,
    so two matrices are equal when their shapes and entry dicts are.  A
    matrix is unhashable: its entries are a dict.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[Entry, int | Fraction]):
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = exact(v)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", clean)

    def __eq__(self, other):  # written out: complexes_agree runs it per Dold-Kan fuzz complex
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    @classmethod
    def _canonical(
        cls, rows: int, cols: int, entries: dict[Entry, int | Fraction], columns: dict | None = None
    ) -> "RationalMatrix":
        """A matrix whose entries are already in range, normal and nonzero.

        Skips the bounds check and normalization of ``__init__``; only
        for entries canonical by construction: results of ``matmul``,
        ``transpose`` and ``combine``, identities, the Dold-Kan structure
        matrices and the Lie-model slot matrices.  columns, when given, is
        ``_columns`` written alongside the entries, in their order.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        if columns is not None:
            m.__dict__["_column_index"] = columns
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._canonical(n, n, {(i, i): 1 for i in range(n)})

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._canonical(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        cols, entries = other.cols, {}
        for key, v in add_product({}, 1, self, other).items():
            if v:
                entries[divmod(key, cols)] = v if type(v) is int else exact(v)
        return RationalMatrix._canonical(self.rows, cols, entries)

    def apply(self, vec: tuple) -> tuple[int | Fraction, ...]:
        """Matrix times a dense column vector, in normal form."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * exact(vec[j])
        return tuple(map(exact, out))

    @property
    def _columns(self) -> dict[int, dict[int, int | Fraction]]:
        """The nonzero columns, as sparse vectors; built on first use and kept.

        Stored in the instance dict directly: functools.cached_property takes
        a lock on first access on Python 3.10 and 3.11.
        """
        cols = self.__dict__.get("_column_index")
        if cols is None:
            cols = {}
            for (i, j), v in self.entries.items():
                cols.setdefault(j, {})[i] = v
            self.__dict__["_column_index"] = cols
        return cols

    def matvec(self, vec: dict) -> dict[int, int | Fraction]:
        """Matrix times a sparse column vector, as a sparse vector."""
        out: dict[int, int | Fraction] = {}
        columns = self._columns
        for j, x in vec.items():
            for i, v in columns.get(j, {}).items():
                out[i] = out.get(i, 0) + v * x
        return {i: y for i, y in out.items() if y}

    def is_zero(self) -> bool:
        return not self.entries

    def row_dicts(self) -> list[dict[int, int | Fraction]]:
        out: list[dict[int, int | Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def add_product(acc: dict[int, int | Fraction], sign: int, a: RationalMatrix, b: RationalMatrix) -> dict:
    """acc with sign * a @ b added in, entry (i, j) keyed i * b.cols + j.

    The module's only product loop.  acc is updated in place and returned;
    its values are not in normal form (an integral sum of Fraction terms
    stays a Fraction) and a cancelled entry stays as a zero, so a reader
    normalizes the nonzero values it keeps, or asks whether any is nonzero.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    columns, cols = a._columns, b.cols
    for (k, j), y in b.entries.items():
        column = columns.get(k)
        if column:
            if sign != 1:
                y = sign * y
            for i, x in column.items():
                key = i * cols + j
                if key in acc:
                    acc[key] += x * y
                else:
                    acc[key] = x * y
    return acc


def combine(rows: int, cols: int, terms) -> RationalMatrix:
    """The rows x cols matrix sum of c * m over (c, m) in terms; shapes must agree."""
    acc: dict[Entry, int | Fraction] = {}
    for c, m in terms:
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"shape mismatch: {m.rows}x{m.cols} term in a {rows}x{cols} sum")
        c = exact(c)
        for key, v in m.entries.items():
            acc[key] = acc.get(key, 0) + c * v
    return RationalMatrix._canonical(rows, cols, {k: exact(v) for k, v in acc.items() if v})


def _sparse(vec, n: int) -> dict:
    """vec as a sparse vector of Q^n; vec is a dict or a dense sequence of length n."""
    if isinstance(vec, dict):
        if vec and not (0 <= min(vec) and max(vec) < n):
            raise ValueError("vector index outside the ambient dimension")
        return {j: x for j, x in vec.items() if x}
    if len(vec) != n:
        raise ValueError("vector length != ambient dimension")
    return {j: x if isinstance(x, (int, Fraction)) else Fraction(x) for j, x in enumerate(vec) if x}


def _divide_content(vec: dict[int, int]) -> dict[int, int]:
    g = gcd(*vec.values())  # 0 for the empty vector
    return {j: x // g for j, x in vec.items()} if g > 1 else vec


def _monic(p: int, row: dict[int, int]) -> dict[int, int | Fraction]:
    """row scaled to entry 1 in its pivot column p, in normal form."""
    a = row[p]
    return dict(row) if a == 1 else {j: exact(Fraction(x, a)) for j, x in row.items()}


def _eliminate(vec: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """The combination a*vec - b*row (a > 0, a and b coprime) that vanishes in column col.

    The module's only elimination step.  vec belongs to the caller and may be
    updated in place; row is never modified.  The content of the result is
    not divided out: a positive multiple does not change the direction, so
    callers divide once, after their last step.
    """
    a, b = row[col], vec[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        vec = {j: a * x for j, x in vec.items()}
    for j, x in row.items():
        y = vec.get(j, 0) - b * x
        if y:
            vec[j] = y
        else:
            del vec[j]
    return vec


class _Echelon:
    """Primitive integer rows keyed by pivot column, each row's leading column.

    An echelon of its span, not the canonical one: the rows depend on the
    order of insertion.  A span that is only counted (dim) or extended
    (insert, extend_to_complement) stays in this form; rref() gives the
    canonical form that a SubspaceBasis holds.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors=(), rows: Rows | None = None):
        self.rows = dict(rows) if rows else {}
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> bool:
        """Adds vec, a sparse vector of ints or Fractions; False when it lies in the span.

        vec must hold no zero entry, since its least column is read as its
        leading one; it is never modified.  One pass: vec is made a coprime
        integer vector (one gcd when it is all ints), each step finds the
        leading column once and keeps it as the pivot key, and the content
        is divided once more only when a step changed vec.
        """
        if not vec:
            return False
        values = vec.values()
        if Fraction in map(type, values):
            den = lcm(*(x.denominator for x in values))
            vec = _divide_content({j: x.numerator * (den // x.denominator) for j, x in vec.items()})
        else:
            g = gcd(*values)
            vec = {j: x // g for j, x in vec.items()} if g > 1 else dict(vec)
        rows = self.rows
        lead = min(vec)
        row = rows.get(lead)
        if row is not None:
            while True:
                vec = _eliminate(vec, row, lead)
                if not vec:
                    return False
                lead = min(vec)
                row = rows.get(lead)
                if row is None:
                    break
            vec = _divide_content(vec)
        rows[lead] = vec
        return True

    def rref(self) -> Rows:
        """The canonical form of the span: SubspaceBasis.rows."""
        done: Rows = {}
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            hits = [q for q in row if q in done]
            if hits:
                row = dict(row)
                for q in hits:
                    row = _eliminate(row, done[q], q)
                row = _divide_content(row)
            if row[p] < 0:
                row = {j: -x for j, x in row.items()}
            done[p] = row
        return dict(reversed(done.items()))


def rank(m: RationalMatrix) -> int:
    return _Echelon(m.row_dicts()).dim


class SubspaceBasis(Frozen):
    """A subspace of Q^n, stored as its canonical echelon.

    rows maps each pivot column, in ascending order, to its reduced row
    echelon row, scaled to coprime integers with a positive pivot.  That form
    is unique, so two constructions of the same subspace yield equal
    objects.  Rows are shared between subspaces and never modified.
    """

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: Rows):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "SubspaceBasis":
        """The span of vectors, each a sparse dict or a dense sequence."""
        return cls(ambient_dim, _Echelon(_sparse(v, ambient_dim) for v in vectors).rref())

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        return cls(n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zero(cls, n: int) -> "SubspaceBasis":
        return cls(n, {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def monic_rows(self) -> list[dict[int, int | Fraction]]:
        """The canonical basis as sparse rows with pivot entry 1."""
        return [_monic(p, r) for p, r in self.rows.items()]

    @property
    def vectors(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """Dense view of monic_rows, for printing and tests."""
        n = self.ambient_dim
        return tuple(tuple(r.get(j, 0) for j in range(n)) for r in self.monic_rows())

    def coordinates(self, vec: dict) -> dict[int, int | Fraction]:
        """The nonzero c_i, in normal form, with vec = sum of c_i monic_rows()[i].

        The rows are reduced, so c_i is the entry of vec at the i-th pivot.
        What that read leaves over is checked to be zero: a ValueError
        "vector not in span" otherwise.
        """
        rest, coords = dict(vec), {}
        for i, (p, row) in enumerate(self.rows.items()):
            c = rest.get(p)
            if c:
                coords[i] = exact(c)
                f = c if row[p] == 1 else Fraction(c, row[p])
                for j, x in row.items():
                    rest[j] = rest.get(j, 0) - f * x
        if any(rest.values()):
            raise ValueError("vector not in span")
        return coords

    def contains(self, vec) -> bool:
        """Membership of vec, a sparse dict or a dense sequence."""
        return not _Echelon(rows=self.rows).insert(_sparse(vec, self.ambient_dim))


def kernel_rows(columns: dict[int, dict], n: int, seed: Rows | None = None) -> Rows:
    """The canonical rows of {x : sum of x_k columns[k] lies in span(seed)}, keyed by label.

    The labels k are ints >= 0 and each columns[k] a sparse vector of Q^n;
    seed is an echelon of Q^n, the zero space when None.  The column of k
    takes the tag n + k, so the rows (0 | x) are those whose pivot lies from
    n on.  The result is in SubspaceBasis form over the labels.
    """
    ech = _Echelon(({**col, n + k: 1} for k, col in columns.items()), rows=seed)
    meet = {p - n: {j - n: v for j, v in row.items()} for p, row in ech.rows.items() if p >= n}
    return _Echelon(rows=meet).rref()


def _preimage(m: RationalMatrix, s: SubspaceBasis, within: SubspaceBasis | None) -> SubspaceBasis:
    """{x in within : m x in s}, within None for all of Q^cols (Zassenhaus).

    The kernel of x -> m x modulo s; inside W, that of x -> (m x | x)
    modulo s + (0 | W), with W placed from row m.rows on.
    """
    n, seed, cols = m.rows, s.rows, m._columns
    columns = {j: cols.get(j, {}) for j in range(m.cols)}
    if within is not None:
        columns = {j: {**col, n + j: 1} for j, col in columns.items()}
        seed = {**seed, **{n + p: {n + j: v for j, v in row.items()} for p, row in within.rows.items()}}
        n += m.cols
    return SubspaceBasis(m.cols, kernel_rows(columns, n, seed))


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Right null space {x : m x = 0}: the preimage of 0 under m."""
    return _preimage(m, SubspaceBasis.zero(m.rows), None)


def homology_dim(d_in: RationalMatrix, d_out: RationalMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for a three-term piece  . -d_in-> V -d_out-> .

    Raises CompositionNonzeroError unless d_out @ d_in == 0.
    """
    if d_out.cols != d_in.rows:
        raise ValueError(
            f"middle dimension mismatch: d_out has {d_out.cols} cols, d_in has {d_in.rows} rows"
        )
    if any(add_product({}, 1, d_out, d_in).values()):
        raise CompositionNonzeroError("d_out @ d_in is not zero")
    return (d_out.cols - rank(d_out)) - rank(d_in)


# ---------------------------------------------------------------------------
# subspace arithmetic


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = _Echelon(b.rows.values(), rows=a.rows)
    return SubspaceBasis(a.ambient_dim, ech.rref())


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of row spans: {x in a : x in b}, the preimage of b under 1."""
    n = a.ambient_dim
    if n != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _preimage(RationalMatrix.identity(n), b, a)


def image_subspace(m: RationalMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """{m x : x in s} inside Q^rows."""
    if m.cols != s.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis(m.rows, _Echelon(m.matvec(r) for r in s.rows.values()).rref())


def preimage_subspace(m: RationalMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """{x : m x in s} inside Q^cols."""
    if m.rows != s.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _preimage(m, s, None)


def coordinates_in_span(rows: list[dict], vectors: list[dict]) -> list[dict[int, int | Fraction]]:
    """For each v in vectors, the nonzero c_i with v = sum c_i rows[i].

    One RREF of [rows^T | v_1 ... v_m]: the rows alone fix its pivots left of
    the vectors, non-pivot rows get 0, and a pivot right of them is a ValueError.
    Zero entries of rows and vectors are dropped, as _sparse drops them.
    """
    k = len(rows)
    equations: dict[int, dict] = {}
    for i, row in enumerate([*rows, *vectors]):
        for j, x in row.items():
            if x:
                equations.setdefault(j, {})[i] = x
    solved = _Echelon(equations.values()).rref()
    if max(solved, default=-1) >= k:
        raise ValueError("vector not in span")
    columns = range(k, k + len(vectors))
    return [{p: exact(Fraction(r[i], r[p])) for p, r in solved.items() if i in r} for i in columns]


def extend_to_complement(
    sub: SubspaceBasis | _Echelon, space: SubspaceBasis
) -> list[dict[int, int | Fraction]]:
    """Monic basis rows of space extending sub to span space (greedy, stable).

    Each basis row of space is kept exactly when it is independent of sub
    and of the rows kept before it, in pivot order.  That choice depends on
    the span of sub only, so sub may be a SubspaceBasis or the _Echelon of a
    span in the same ambient space, whose rows seed the elimination as they are.
    """
    if isinstance(sub, SubspaceBasis) and sub.ambient_dim != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = _Echelon(rows=sub.rows)
    return [_monic(p, r) for p, r in space.rows.items() if ech.insert(r)]
