"""Spectral sequence of a filtered chain complex, exactly over Q.

Input: a homologically graded complex (d lowers degree by one) with a
decreasing filtration C = F^0 >= F^1 >= ... >= F^L = 0 per degree, preserved
by d and given by a level for each basis vector: F^s is spanned by the basis
vectors of level >= s.  The page

    E_r(s, n) = A_r(s, n) / (A_(r-1)(s+1, n) + d A_(r-1)(s-r+1, n+1)),
    A_r(s, n) = {x in F^s C_n : d x in F^(s+r) C_(n-1)},

with d_r induced by d and shifting (s, n) to (s+r, n-1), is not built from
these subspaces.  One column reduction of each d_n in filtration order
(Edelsbrunner-Letscher-Zomorodian 2002) pairs basis vectors: j in C_n kills
i in C_(n-1), and in some basis adapted to the same F^s, d is that matching
with entry c at (i, j).  The pages of a matching have a
closed form (Basu-Parida 2017): a pair with level gap g = level(i) - level(j)
lives on E_1 ... E_g at both ends, and d_g joins them with entry c; an
unpaired vector lives on every page.  So pages stabilize at r = L + 1, the
infinity page, whose sum over s at fixed n is the homology H_n of C.

Reported indices: a slot (s, n) is published as (p, q) = (s + 1, s + 1 + n),
so p numbers the filtration stage starting at 1 for the top graded piece and
q - p is the chain degree.  d_r sends (p, q) to (p + r, q + r - 1).  For the
weight filtration of a Lie model (filtered_from_model) this puts the weight-w
block of reduced degree n at p = w, q = w + n.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError, OutOfRangeError
from .exactlin import RationalMatrix, Record, _Echelon

Slot = tuple[int, int]


class FilteredComplex(Record):
    """Finite filtered chain complex; validated on construction.

    dims[n] is the dimension of C_n; differentials[n] is d_n : C_n -> C_(n-1);
    levels[n][i] >= 0 is the filtration degree of basis vector i of C_n, so
    F^s C_n is spanned by the basis vectors of level >= s.  Missing degrees
    default to level 0, the trivial filtration.  Over a field every finite
    filtration has such an adapted basis.

    A complex is immutable after construction, so _cache memoizes, each
    under a tuple led by its kind:
      ("pairs", n)   the persistence pairs of d_n, one reduction per degree;
      ("page", r)    the page E_r, read off the pairs of every degree.
    """

    _fields = ("dims", "differentials", "levels")

    def __init__(
        self,
        dims: dict[int, int],
        differentials: dict[int, RationalMatrix],
        levels: dict[int, tuple[int, ...]] | None = None,
    ):
        self.dims = {n: d for n, d in dims.items() if d}
        self.differentials = differentials
        self._cache: dict = {}
        levels = levels or {}
        for n, d in self.dims.items():
            if d < 0:
                raise InvalidInputError(f"negative dimension at degree {n}")
        for n, lv in levels.items():
            if len(lv) != self.dim(n):
                raise InvalidInputError(
                    f"levels at degree {n} has {len(lv)} entries, expected {self.dim(n)}"
                )
            if any(level < 0 for level in lv):
                raise InvalidInputError(f"negative level at degree {n}")
        self.levels = {n: tuple(levels.get(n, (0,) * d)) for n, d in self.dims.items()}
        self._validate()

    # -- accessors ------------------------------------------------------------

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int) -> RationalMatrix:
        m = self.differentials.get(n)
        if m is None:
            return RationalMatrix.zero(self.dim(n - 1), self.dim(n))
        return m

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    @property
    def max_level(self) -> int:
        return max((max(lv) for lv in self.levels.values()), default=0) + 1

    # -- validation -------------------------------------------------------------

    def _validate(self):
        for n, m in self.differentials.items():
            if (m.rows, m.cols) != (self.dim(n - 1), self.dim(n)):
                raise InvalidInputError(
                    f"differential at degree {n} has shape {(m.rows, m.cols)}, "
                    f"expected {(self.dim(n - 1), self.dim(n))}"
                )
        for n in self.dims:
            if not self.d(n - 1).matmul(self.d(n)).is_zero():
                raise InvalidInputError(f"d squared is nonzero out of degree {n}")
        for n in self.dims:
            src, tgt = self.levels[n], self.levels.get(n - 1, ())
            # entry (i, j) takes F^s into F^s exactly when tgt[i] >= src[j]
            low = [tgt[i] + 1 for i, j in self.d(n).entries if tgt[i] < src[j]]
            if low:
                raise InvalidInputError(
                    f"differential does not preserve F^{min(low)} at degree {n}"
                )


class SpectralSequencePage(Record):
    """One page: nonzero slot dimensions and the d_r matrices out of them."""

    _fields = ("r", "dims", "differentials")

    def __init__(self, r: int, dims: dict[Slot, int], differentials: dict[Slot, RationalMatrix]):
        self.r = r
        self.dims = dims
        self.differentials = differentials

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def d(self, p: int, q: int) -> RationalMatrix:
        m = self.differentials.get((p, q))
        if m is not None:
            return m
        return RationalMatrix.zero(
            self.dim(p + self.r, q + self.r - 1), self.dim(p, q)
        )


def _pairs(fc: FilteredComplex, n: int) -> list[tuple[int, int, Fraction]]:
    """The persistence pairs (i, j, c) of d_n: j in C_n kills i in C_(n-1).

    Basis vectors enter in time order, deeper level first and then by index.
    Row i of C_(n-1) at time position k gets the key m - 1 - k, so the least
    key of a column, the echelon's pivot, is its latest row: the persistence
    "low".  The columns of d_n go in, in time order, each tagged with
    {m + t: 1}, so every stored row is (d V | V) for a combination V of
    columns up to its own, the last one, t = max(row) - m.  A row with pivot
    p < m pairs that column with row p, and c = row[p] / row[m + t] is the
    entry at i of d V scaled to coefficient 1 at j.
    """
    got = fc._cache.get(("pairs", n))
    if got is None:
        cols, rows = _by_time(fc.levels.get(n, ())), _by_time(fc.levels.get(n - 1, ()))
        m = len(rows)
        key = {i: m - 1 - k for k, i in enumerate(rows)}
        columns = fc.d(n)._columns
        tagged = (
            {key[i]: v for i, v in columns.get(j, {}).items()} | {m + t: 1}
            for t, j in enumerate(cols)
        )
        got = fc._cache[("pairs", n)] = [
            (rows[m - 1 - p], cols[max(row) - m], Fraction(row[p], row[max(row)]))
            for p, row in _Echelon(tagged).rows.items()
            if p < m
        ]
    return got


def _by_time(levels: tuple[int, ...]) -> list[int]:
    return sorted(range(len(levels)), key=lambda i: (-levels[i], i))


def page(fc: FilteredComplex, r: int) -> SpectralSequencePage:
    """E_r, computed once per complex."""
    if r < 1:
        raise OutOfRangeError("pages start at r = 1")
    got = fc._cache.get(("page", r))
    if got is None:
        got = fc._cache[("page", r)] = _compute_page(fc, r)
    return got


def _compute_page(fc: FilteredComplex, r: int) -> SpectralSequencePage:
    """E_r and d_r, read off the pairs.

    A pair with level gap g lives on E_1 ... E_g at both ends, where d_g
    joins them with its entry c; an unpaired vector lives on every page.
    A slot's vectors go in index order.
    """
    dead, links = set(), {}
    for n in fc.degrees():
        for i, j, c in _pairs(fc, n):
            gap = fc.levels[n - 1][i] - fc.levels[n][j]
            if gap < r:
                dead |= {(n, j), (n - 1, i)}
            elif gap == r:
                links[(n, j)] = (i, c)
    slots: dict[Slot, list[int]] = {}
    for n in fc.degrees():
        for i, level in enumerate(fc.levels[n]):
            if (n, i) not in dead:
                slots.setdefault((level, n), []).append(i)
    at = {(n, i): k for (_, n), members in slots.items() for k, i in enumerate(members)}

    dims, diffs = {}, {}
    for (s, n), members in slots.items():
        entries = {}
        for k, j in enumerate(members):
            if (n, j) in links:
                i, c = links[(n, j)]
                entries[(at[(n - 1, i)], k)] = c
        target = len(slots.get((s + r, n - 1), ()))
        dims[_publish(s, n)] = len(members)
        diffs[_publish(s, n)] = RationalMatrix(target, len(members), entries)
    return SpectralSequencePage(r, dims, diffs)


def _publish(s: int, n: int) -> Slot:
    return (s + 1, s + 1 + n)


class DegenerationReport(Record):
    _fields = ("r_from", "r_to", "degenerate", "first_failure")

    def __init__(self, r_from: int, r_to: int, degenerate: bool, first_failure: tuple | None):
        self.r_from = r_from
        self.r_to = r_to
        self.degenerate = degenerate
        self.first_failure = first_failure  # (r, p, q) of the first nonzero d_r, if any


def check_degeneration(fc: FilteredComplex, r0: int, r_max: int) -> DegenerationReport:
    """True iff every d_r vanishes for r0 <= r <= r_max, read off two pages.

    E_(r+1) = H(E_r, d_r), so at each slot dim E_(r+1) is dim E_r less the
    ranks of d_r into and out of it: every d_r in the range vanishes exactly
    when E_r0 and E_(r_max+1) have equal dims.  The pages between are built
    only when they differ, to name the witness: the first r, then the first
    slot in sorted order with d_r nonzero.
    """
    if r0 < 1:
        raise OutOfRangeError("pages start at r = 1")
    if page(fc, r0).dims == page(fc, r_max + 1).dims:
        return DegenerationReport(r0, r_max, True, None)
    witnesses = (
        (r, *slot)
        for r in range(r0, r_max + 1)
        for slot, m in sorted(page(fc, r).differentials.items())
        if not m.is_zero()
    )
    return DegenerationReport(r0, r_max, False, next(witnesses, None))


# ---------------------------------------------------------------------------
# the weight filtration of a Lie model


def filtered_from_model(model) -> FilteredComplex:
    """Chain complex of the model with its by-weight decreasing filtration.

    Degree n holds every basis slot of reduced degree n; F^p spans the words
    of weight > p.  Weights above the model's reporting window are kept as a
    final block with zero outgoing differential (the quotient complex of the
    truncation), so slots inside the window see their full incoming boundary.
    """
    b = model.basis
    # slot_keys is sorted by (r, w, char): each degree's blocks in order
    dims: dict[int, int] = {}
    levels: dict[int, list[int]] = {}
    offsets: dict[tuple[int, int, tuple], int] = {}
    for key in b.slot_keys():
        r, w, _ = key
        k = b.slot_dim(*key)
        offsets[key] = dims.get(r, 0)
        dims[r] = offsets[key] + k
        levels.setdefault(r, []).extend([w - 1] * k)  # weight w lies in F^p exactly for p < w

    entries: dict[int, dict] = {}
    for (n, w, char), col_off in offsets.items():
        tgt_off = offsets.get((n - 1, w + 1, char))
        if w > model.max_w or tgt_off is None:
            continue  # no target, or the top block of the quotient truncation
        block = entries.setdefault(n, {})
        for (i, j), val in model.slot_matrix(n, w, char).entries.items():
            block[(tgt_off + i, col_off + j)] = val
    differentials = {n: RationalMatrix(dims[n - 1], dims[n], e) for n, e in entries.items() if e}
    return FilteredComplex(dims, differentials, {n: tuple(lv) for n, lv in levels.items()})
