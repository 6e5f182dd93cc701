"""Spectral sequence of a filtered chain complex, exactly over Q.

Input: a homologically graded complex (d lowers degree by one) with a
decreasing filtration C = F^0 >= F^1 >= ... >= F^L = 0 per degree, preserved
by d and given by a level for each basis vector: F^s is spanned by the basis
vectors of level >= s.  Pages are computed from the chain-level approximation
subspaces

    A_r(s, n) = {x in F^s C_n : d x in F^(s+r) C_(n-1)},
    E_r(s, n) = A_r(s, n) / (A_(r-1)(s+1, n) + d {x in F^(s-r+1) : d x in F^s}),

where the boundary-source stage s-r+1 clamps at 0 (F^t = C for t <= 0) while
its landing condition stays in F^s.  The differential
d_r is induced by d on representatives and shifts (s, n) to (s+r, n-1).
Because every filtration is finite, pages stabilize: for r > L the formula
above literally computes (F^s ker d)/(F^(s+1) ker d + F^s im d), the infinity
page, and sum over s at fixed n recovers the homology of the total complex.

Reported indices: a slot (s, n) is published as (p, q) = (s + 1, s + 1 + n),
so p numbers the filtration stage starting at 1 for the top graded piece and
q - p is the chain degree.  d_r sends (p, q) to (p + r, q + r - 1).  For the
weight filtration of a Lie model (filtered_from_model) this puts the weight-w
block of reduced degree n at p = w, q = w + n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import InvalidInputError, OutOfRangeError
from .exactlin import (
    RationalMatrix,
    SubspaceBasis,
    coordinates_in_span,
    extend_to_complement,
    image_subspace,
    kernel_basis,
    subspace_sum,
)

Slot = tuple[int, int]


@dataclass
class FilteredComplex:
    """Finite filtered chain complex; validated on construction.

    dims[n] is the dimension of C_n; differentials[n] is d_n : C_n -> C_(n-1);
    levels[n][i] >= 0 is the filtration degree of basis vector i of C_n, so
    F^s C_n is spanned by the basis vectors of level >= s.  Missing degrees
    default to level 0, the trivial filtration.  Over a field every finite
    filtration has such an adapted basis.

    A complex is immutable after construction, so _cache memoizes, each
    under a tuple led by its kind:
      ("approx", s, t, n)   A = {x in F^s C_n : d x in F^t C_(n-1)};
      ("image", s, t, n)    d A inside C_(n-1), for the same A;
      ("slot", z, d1, src)  a slot's (denominator, representatives), keyed
                            by the (s, t, n) of its three approximations;
      ("page", r)           the page E_r.
    Every (s, t, n) there is clamped by _key, so an elimination that keeps
    the same columns and rows of d runs once, whatever page asked for it.
    _steps[n] is the sorted tuple of the distinct levels in C_n.
    """

    dims: dict[int, int]
    differentials: dict[int, RationalMatrix]
    levels: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _steps: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = {n: d for n, d in self.dims.items() if d}
        for n, d in self.dims.items():
            if d < 0:
                raise InvalidInputError(f"negative dimension at degree {n}")
        for n, lv in self.levels.items():
            if len(lv) != self.dim(n):
                raise InvalidInputError(
                    f"levels at degree {n} has {len(lv)} entries, expected {self.dim(n)}"
                )
            if any(level < 0 for level in lv):
                raise InvalidInputError(f"negative level at degree {n}")
        self.levels = {n: tuple(self.levels.get(n, (0,) * d)) for n, d in self.dims.items()}
        self._steps = {n: tuple(sorted(set(lv))) for n, lv in self.levels.items()}
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


@dataclass
class SpectralSequencePage:
    """One page: nonzero slot dimensions and the d_r matrices out of them."""

    r: int
    dims: dict[Slot, int]
    differentials: dict[Slot, RationalMatrix]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def d(self, p: int, q: int) -> RationalMatrix:
        m = self.differentials.get((p, q))
        if m is not None:
            return m
        return RationalMatrix.zero(
            self.dim(p + self.r, q + self.r - 1), self.dim(p, q)
        )

    def all_differentials_zero(self) -> bool:
        return all(m.is_zero() for m in self.differentials.values())


def _key(fc: FilteredComplex, s: int, t: int, n: int) -> tuple[int, int, int]:
    """The least (s, t) for which A(s, t, n) keeps the same columns and rows.

    A(s, t, n) keeps the columns of C_n of level >= s and the rows of C_(n-1)
    of level < t, so only the levels present there matter: each of s and t
    moves down to one more than the largest level below it, or to 0.
    """
    cols, rows = fc._steps.get(n, ()), fc._steps.get(n - 1, ())
    i, j = bisect_left(cols, s), bisect_left(rows, t)
    return (cols[i - 1] + 1 if i else 0), (rows[j - 1] + 1 if j else 0), n


def _approx(fc: FilteredComplex, key: tuple[int, int, int]) -> SubspaceBasis:
    """{x in F^s C_n : d x in F^t C_(n-1)}: one kernel of a submatrix of d.

    key is (s, t, n) as _key returns it.  The submatrix keeps the columns of
    level >= s and the rows of level < t.  Its kernel's columns map back
    through the increasing list of kept columns, which leaves the canonical
    rows canonical.  A_r(s, n) is the case t = s + r.
    """
    got = fc._cache.get(("approx", *key))
    if got is None:
        s, t, n = key
        cols = [j for j, level in enumerate(fc.levels.get(n, ())) if level >= s]
        below = (i for i, level in enumerate(fc.levels.get(n - 1, ())) if level < t)
        rows = {i: k for k, i in enumerate(below)}
        columns = fc.d(n)._columns
        entries = {
            (rows[i], k): v
            for k, j in enumerate(cols)
            for i, v in columns.get(j, {}).items()
            if i in rows
        }
        kernel = kernel_basis(RationalMatrix._canonical(len(rows), len(cols), entries))
        got = fc._cache[("approx", *key)] = SubspaceBasis(
            fc.dim(n),
            {cols[p]: {cols[j]: x for j, x in row.items()} for p, row in kernel.rows.items()},
        )
    return got


def _image(fc: FilteredComplex, key: tuple[int, int, int]) -> SubspaceBasis:
    """d A inside C_(n-1), for the approximation A of key (s, t, n)."""
    got = fc._cache.get(("image", *key))
    if got is None:
        got = fc._cache[("image", *key)] = image_subspace(fc.d(key[2]), _approx(fc, key))
    return got


def _slot(fc: FilteredComplex, z, d1, src) -> tuple[SubspaceBasis, list]:
    """(denominator, representatives) of Z / (D1 + d SRC), by approximation keys."""
    got = fc._cache.get(("slot", z, d1, src))
    if got is None:
        denom = subspace_sum(_approx(fc, d1), _image(fc, src))
        got = fc._cache[("slot", z, d1, src)] = (denom, extend_to_complement(denom, _approx(fc, z)))
    return got


def page(fc: FilteredComplex, r: int) -> SpectralSequencePage:
    """E_r, computed once per complex."""
    if r < 1:
        raise OutOfRangeError("pages start at r = 1")
    got = fc._cache.get(("page", r))
    if got is None:
        got = fc._cache[("page", r)] = _compute_page(fc, r)
    return got


def _compute_page(fc: FilteredComplex, r: int) -> SpectralSequencePage:
    slots: dict[Slot, tuple[SubspaceBasis, list]] = {}
    for n in fc.degrees():
        for s in range(max(fc.levels[n]) + 1):
            z = _key(fc, s, s + r, n)
            d1 = _key(fc, s + 1, s + r, n)
            # boundary sources sit r-1 stages up; below stage 0 the source
            # clamps to the whole space while the landing condition stays F^s
            src = _key(fc, max(s - r + 1, 0), s, n + 1)
            got = _slot(fc, z, d1, src)
            if got[1]:
                slots[(s, n)] = got

    dims = {_publish(s, n): len(rows) for (s, n), (_, rows) in slots.items()}
    diffs: dict[Slot, RationalMatrix] = {}
    for (s, n), (_, rows) in slots.items():
        tgt = slots.get((s + r, n - 1))
        if tgt is None:
            # target slot is zero; record the zero map out of this slot
            diffs[_publish(s, n)] = RationalMatrix.zero(0, len(rows))
            continue
        tgt_denom, tgt_reps = tgt
        span_rows = [*tgt_reps, *tgt_denom.rows.values()]
        entries = {}
        dmat = fc.d(n)
        for j, coords in enumerate(coordinates_in_span(span_rows, [dmat.matvec(v) for v in rows])):
            for i, c in coords.items():
                if i < len(tgt_reps):
                    entries[(i, j)] = c
        diffs[_publish(s, n)] = RationalMatrix(len(tgt_reps), len(rows), entries)
    return SpectralSequencePage(r, dims, diffs)


def _publish(s: int, n: int) -> Slot:
    return (s + 1, s + 1 + n)


@dataclass
class DegenerationReport:
    r_from: int
    r_to: int
    degenerate: bool
    first_failure: tuple | None  # (r, p, q) of the first nonzero d_r, if any


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


def e_infinity(fc: FilteredComplex) -> dict[Slot, int]:
    """Stable page dims; with finite filtration this is page max_level + 1."""
    return page(fc, fc.max_level + 1).dims


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
    w_top = model.max_w + 1
    layout: dict[int, list[tuple[int, tuple, int]]] = {}
    for (r, w, char) in b.slot_keys():
        layout.setdefault(r, []).append((w, char, b.slot_dim(r, w, char)))
    for blocks in layout.values():
        blocks.sort(key=lambda t: (t[0], t[1]))

    dims = {n: sum(k for (_, _, k) in blocks) for n, blocks in layout.items()}
    offsets: dict[tuple[int, int, tuple], int] = {}
    for n, blocks in layout.items():
        at = 0
        for w, char, k in blocks:
            offsets[(n, w, char)] = at
            at += k

    differentials: dict[int, RationalMatrix] = {}
    for n, blocks in layout.items():
        if dims.get(n - 1, 0) == 0:
            continue
        entries = {}
        for w, char, k in blocks:
            if w + 1 > w_top:
                continue  # quotient truncation: top block maps to zero
            tgt_off = offsets.get((n - 1, w + 1, char))
            if tgt_off is None:
                continue
            block = model.slot_matrix(n, w, char)
            col_off = offsets[(n, w, char)]
            for (i, j), val in block.entries.items():
                entries[(tgt_off + i, col_off + j)] = val
        differentials[n] = RationalMatrix(dims[n - 1], dims[n], entries)

    # a word of weight w lies in F^p exactly for p < w
    levels = {
        n: tuple(w - 1 for w, _, k in blocks for _ in range(k)) for n, blocks in layout.items()
    }
    return FilteredComplex(dims, differentials, levels)
