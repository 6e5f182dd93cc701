"""Exact linear algebra over the rationals.

Everything downstream (Lie model differentials, spectral sequence pages,
minimal model cohomology) reduces to ranks, kernels and quotient dimensions
of matrices with Fraction entries.  Floating point is never used.

Every elimination runs through one sparse incremental echelon, _Echelon:
primitive integer rows keyed by their leading (pivot) column.  A new vector
is reduced left to right, only against the rows whose pivot column it
touches, and either vanishes or becomes one more row.  Rank is the number of
rows, and back-substitution gives the reduced row echelon form.  The RREF of
a row space is unique, so every result is canonical: independent of row
order and of the order in which entries were inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import CompositionNonzeroError

Entry = tuple[int, int]


ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RationalMatrix:
    """Sparse matrix over Q.  Only nonzero entries are stored.

    Fractions are canonical by construction (reduced, positive denominator),
    so equal matrices compare equal as dataclasses.
    """

    rows: int
    cols: int
    entries: dict[Entry, Fraction]

    def __post_init__(self):
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            v = _frac(v)
            if v != 0:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _canonical(cls, rows: int, cols: int, entries: dict[Entry, Fraction]) -> "RationalMatrix":
        """A matrix whose entries are already in range, Fractions and nonzero.

        Skips the bounds check and normalization of ``__post_init__``; only
        for entries canonical by construction: results of ``matmul``,
        ``transpose`` and ``combine``, and the Lie-model slot matrices.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows: list[list]) -> "RationalMatrix":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = _frac(v)
                if v != 0:
                    entries[(i, j)] = v
        return cls(n, m, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def to_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._canonical(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc: dict[Entry, Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, ZERO) + a * b
        return RationalMatrix._canonical(self.rows, other.cols, {k: v for k, v in acc.items() if v})

    def apply(self, vec: tuple) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * _frac(vec[j])
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def row_dicts(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def combine(rows: int, cols: int, terms) -> RationalMatrix:
    """The rows x cols matrix sum of c * m over (c, m) in terms; shapes must agree."""
    acc: dict[Entry, Fraction] = {}
    for c, m in terms:
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"shape mismatch: {m.rows}x{m.cols} term in a {rows}x{cols} sum")
        c = _frac(c)
        for key, v in m.entries.items():
            acc[key] = acc.get(key, ZERO) + c * v
    return RationalMatrix._canonical(rows, cols, {k: v for k, v in acc.items() if v})


def _sparse(vec) -> dict:
    """Nonzero entries of a dense vector, as exact ints or Fractions."""
    return {j: x if isinstance(x, (int, Fraction)) else Fraction(x) for j, x in enumerate(vec) if x}


def _primitive(vec: dict) -> dict[int, int]:
    """A nonzero multiple of vec (ints or Fractions) with coprime integer entries."""
    den = lcm(*(x.denominator for x in vec.values()))
    return _divide_content({j: x.numerator * (den // x.denominator) for j, x in vec.items()})


def _divide_content(vec: dict[int, int]) -> dict[int, int]:
    g = gcd(*vec.values())  # 0 for the empty vector
    return {j: x // g for j, x in vec.items()} if g > 1 else vec


def _eliminate(vec: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """The primitive combination a*vec - b*row (a > 0) that vanishes in column col.

    The module's only elimination step.  vec belongs to the caller and may be
    updated in place; row is never modified.
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
    return _divide_content(vec) if a != 1 else vec


class _Echelon:
    """Primitive integer rows keyed by pivot column, each row's leading column."""

    __slots__ = ("rows",)

    def __init__(self, vectors=(), rows: dict[int, dict[int, int]] | None = None):
        self.rows = dict(rows) if rows else {}
        for v in vectors:
            self.insert(v)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Eliminates leading pivots from vec (its own); {} iff vec is in the span."""
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                break
            vec = _eliminate(vec, row, lead)
        return vec

    def insert(self, vec: dict) -> bool:
        """Adds vec (ints or Fractions); False when it already lies in the span."""
        vec = self.reduce(_primitive(vec))
        if vec:
            self.rows[min(vec)] = _divide_content(vec)
        return bool(vec)

    def rref(self) -> tuple[list[int], list[dict[int, Fraction]]]:
        """Ascending pivot columns and the canonical RREF rows."""
        pivots = sorted(self.rows)
        done: dict[int, dict[int, int]] = {}
        for p in reversed(pivots):
            row = dict(self.rows[p])
            for q in [c for c in row if c in done]:
                row = _eliminate(row, done[q], q)
            done[p] = row
        return pivots, [{j: Fraction(x, done[p][p]) for j, x in done[p].items()} for p in pivots]


def rank(m: RationalMatrix) -> int:
    return len(_Echelon(m.row_dicts()).rows)


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of Q^n, stored as the reduced row echelon basis.

    The RREF form is a canonical representative: two constructions of the
    same subspace yield equal objects.  An echelon of the same span rides
    along, outside comparison, for membership tests and extensions.
    """

    ambient_dim: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length != ambient dimension")

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "SubspaceBasis":
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length != ambient dimension")
        return cls._from_echelon(_Echelon(_sparse(v) for v in vectors), ambient_dim)

    @classmethod
    def _from_echelon(cls, ech: _Echelon, ambient_dim: int) -> "SubspaceBasis":
        vectors = []
        for r in ech.rref()[1]:
            v = [ZERO] * ambient_dim
            for j, x in r.items():
                v[j] = x
            vectors.append(tuple(v))
        out = cls(ambient_dim, tuple(vectors))
        out.__dict__["_echelon"] = ech
        return out

    @cached_property
    def _echelon(self) -> _Echelon:
        return _Echelon(_sparse(v) for v in self.vectors)

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        vecs = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        return cls(n, vecs)

    @classmethod
    def zero(cls, n: int) -> "SubspaceBasis":
        return cls(n, ())

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return not self._echelon.reduce(_primitive(_sparse(vec)))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(v) for v in other.vectors)


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Right null space {x : m x = 0}, canonical RREF basis."""
    pivots, rows = _Echelon(m.row_dicts()).rref()
    ech = _Echelon()
    for f in sorted(set(range(m.cols)).difference(pivots)):
        vec = {p: -r[f] for p, r in zip(pivots, rows) if f in r}
        vec[f] = 1
        ech.insert(vec)
    return SubspaceBasis._from_echelon(ech, m.cols)


def homology_dim(d_in: RationalMatrix, d_out: RationalMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for a three-term piece  . -d_in-> V -d_out-> .

    Raises CompositionNonzeroError unless d_out @ d_in == 0.
    """
    if d_out.cols != d_in.rows:
        raise ValueError(
            f"middle dimension mismatch: d_out has {d_out.cols} cols, d_in has {d_in.rows} rows"
        )
    if not d_out.matmul(d_in).is_zero():
        raise CompositionNonzeroError("d_out @ d_in is not zero")
    return (d_out.cols - rank(d_out)) - rank(d_in)


# ---------------------------------------------------------------------------
# subspace arithmetic


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = _Echelon(rows=a._echelon.rows)
    for v in b.vectors:
        ech.insert(_sparse(v))
    return SubspaceBasis._from_echelon(ech, a.ambient_dim)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of row spans (Zassenhaus).

    Rows (u | u) for u in a and (v | 0) for v in b go into one echelon; the
    rows whose pivot lies in the right half span (0 | a cap b).
    """
    n = a.ambient_dim
    if n != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = _Echelon()
    for u in a.vectors:
        left = _sparse(u)
        ech.insert(left | {n + j: x for j, x in left.items()})
    for v in b.vectors:
        ech.insert(_sparse(v))
    meet = {p - n: {j - n: x for j, x in row.items()} for p, row in ech.rows.items() if p >= n}
    return SubspaceBasis._from_echelon(_Echelon(rows=meet), n)


def image_subspace(m: RationalMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """{m x : x in s} inside Q^rows."""
    if m.cols != s.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis.from_vectors([m.apply(v) for v in s.vectors], m.rows)


def preimage_subspace(m: RationalMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """{x : m x in s} inside Q^cols: every functional vanishing on s kills m x."""
    if m.rows != s.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ann = kernel_basis(_matrix(s.vectors, m.rows))
    return kernel_basis(_matrix(ann.vectors, m.rows).matmul(m))


def _matrix(rows, cols: int) -> RationalMatrix:
    entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    return RationalMatrix(len(rows), cols, entries)


def coordinates_in_span(rows: list[tuple], vec, ambient_dim: int) -> tuple[Fraction, ...]:
    """Solve vec = sum c_i rows[i]; raises ValueError when vec is outside.

    The RREF of the augmented system [rows^T | vec] fixes the answer; with
    dependent rows the coefficients of non-pivot rows are 0.
    """
    k = len(rows)
    columns = list(rows) + [vec]
    pivots, rref_rows = _Echelon(_sparse([c[j] for c in columns]) for j in range(ambient_dim)).rref()
    if k in pivots:
        raise ValueError("vector not in span")
    coords = [ZERO] * k
    for p, r in zip(pivots, rref_rows):
        coords[p] = r.get(k, ZERO)
    return tuple(coords)


def extend_to_complement(sub: SubspaceBasis, space: SubspaceBasis) -> list[tuple]:
    """Vectors from space's basis extending sub to span space (greedy, stable).

    Each basis vector of space is kept exactly when it is independent of sub
    and of the vectors kept before it, in basis order.
    """
    if sub.ambient_dim != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = _Echelon(rows=sub._echelon.rows)
    return [v for v in space.vectors if ech.insert(_sparse(v))]
