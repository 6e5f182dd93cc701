"""The minimal free resolution of Q over a connected graded-commutative algebra.

F_s = A (x) B_s, with B_0 = Q in internal degree 0, and the boundary
d: F_s -> F_(s-1) is A-linear: a.(b (x) g) = (ab) (x) g.  The resolution is
minimal, d(F) lies in A+.F for the augmentation ideal A+, so Q (x)_A F has
zero differential and

    dim Ext_A^(s, t, chi)(Q, Q) = dim B_(s, t, chi).

For the Lie model L of A, U(L) is the cobar construction of the dual
coalgebra, whose homology is Ext_A(Q, Q); by Milnor-Moore it is U(pi) for
pi = H(L).  Homological degree s is the bracket weight w, internal degree t
is r + w for reduced degree r, and characters carry through, so PBW
inversion of these dimensions gives pi.  The cost is about dim Ext x dim A,
where the Lie model costs the free Lie algebra on every positive class
(Avramov, "Infinite free resolutions", sections 7 and 10).

B is built degree by degree: for s = 1, ..., max_w, and for each (t, chi)
with t - s <= max_r, in increasing t,

    K = ker d on (A+ (x) B_(s-1))_(t, chi)    (all of A+_(t, chi) for s = 1)
    I = span of a.dg over the generators g of B_s of lower t, with a in A
        of degree t - t_g and character chi - chi_g
    B_(s, t, chi) = a complement of I in K, each new g with dg in K.

dim K is the size of the block less the rank of d_(s-1) on it, which is
dim I one level down, so K is built only where B_(s, t, chi) is not empty.
d d = 0 on what is built so far says that I lies in K; it is checked on each
block, as d_(s-1) d_s = 0, before the complement is taken.

A boundary is built only where the window reads it.  dg of a generator g
of B_s in degree t_g is read by the columns a.dg of the blocks of level s in
degree t = t_g + |a|, up to the level's last degree: max_r + s, or one more
below the top level, where the next level reads d_s.  The next level reads
only the degree and character of g, through its pairs.  So where A+ has no
class of degree 1, ..., last - t, the new generators of the block are
counted and given an empty boundary, and no kernel or complement is taken:
no column that is built reads them, so every block matrix, image and d d
check is the same as with the boundaries built.  Without degree-1 classes
that is the top edge t - s = max_r of every level and the top two degrees
of the top level.  When a level ends, only the degree and character of its
generators are kept.

The window needs no generator outside it.  Minimality gives ker d inside
A+.F: the new boundaries in degree t are independent modulo I, which holds
the boundaries of A+.F in degree t, so no cycle has a term 1 (x) g.  A cycle
of F_(s-1) in degree t therefore lives on pairs a (x) g' with a in A+ and
t_g' < t, so t_g' - (s - 1) <= t - s: generators inside the window of level
s - 1.  A pair 1 (x) g with t_g = t is never needed.

The arithmetic is integral: the resolution reads ``integral_table``, whose
Ext is that of the table (see its docstring).  The kernel and complement
rows that become new dg are the coprime integer rows of a SubspaceBasis, so
every block matrix, image, kernel and d d check runs on ints.

The image I of each block is read only for its dimension and as the seed of
the complement, and both depend on the span alone, so it is kept as the
unreduced echelon of its columns, never brought to canonical form.
"""

from __future__ import annotations

from .errors import DSquaredNonzeroError
from .exactlin import RationalMatrix, SubspaceBasis, _Echelon, extend_to_complement, kernel_basis
from .graded_core import AlgebraPresentation

Pair = tuple[int, str]  # a (x) g: generator index in its level, basis id of a in A+
_ZERO: dict = {}  # shared by every zero column and unread boundary; never modified


def ext_dims(
    p: AlgebraPresentation, max_r: int, max_w: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """dim B_(s, t, chi) for 1 <= s <= max_w and t - s <= max_r, zeros omitted.

    ``p`` must be valid; validate it first.  Raises DSquaredNonzeroError with
    witness (s, t, chi) where d d = 0 fails.
    """
    # the positive classes of each degree, by character
    positive: dict[int, dict[tuple[int, ...], list[str]]] = {}
    for m, ids in p.ids_by_degree.items():
        if m > 0:
            for x in ids:
                positive.setdefault(m, {}).setdefault(p.element(x).character, []).append(x)
    low = min(positive, default=0)  # the lowest degree of A+
    left: dict[str, dict[int, list]] = {}  # b -> degree of a -> [(a, ab)], ab nonzero
    unit, table, add = p.unit_id, p.integral_table, p.lattice.add

    def multipliers(b: str) -> dict[int, list]:
        out = left.get(b)
        if out is None:
            out = left[b] = {}
            # a.b != 0 exactly when b.a != 0: row b names the a, in basis order
            for a in sorted(table[b].keys() - {unit}, key=p.index.__getitem__):
                out.setdefault(p.degree(a), []).append((a, table[a][b]))
        return out

    def pairs(gens, t) -> dict[tuple[int, ...], list[Pair]]:
        """The pairs a (x) g of A+ (x) B in degree t, by character, in a fixed order."""
        out: dict[tuple[int, ...], list[Pair]] = {}
        for g, (tg, chi) in enumerate(gens):
            if tg >= t:
                break
            for char, classes in positive.get(t - tg, {}).items():
                out.setdefault(add(chi, char), []).extend((g, a) for a in classes)
        return out

    dims = {}
    lower = [(0, p.lattice.zero())]  # B_0 = Q, the unit in degree 0; a generator is (t, chi)
    lower_blocks: dict[int, dict] = {}  # t -> the pairs of A+ (x) B_(s-1), by character
    lower_d: dict = {}  # (t, chi) -> d_(s-1) on those pairs, and the echelon of its image
    for s in range(1, max_w + 1):
        top = max_r + s
        last = top + (s < max_w)  # one degree past the window when a next level reads d_s there
        gens: list = []  # B_s, in increasing t
        # dg of each generator, {b: {h: c}} for the boundary sum of c b (x) h
        boundaries: list[dict[str, dict[int, int]]] = []
        blocks, d = {}, {}
        for t in range(s, last + 1):
            rows = lower_blocks.get(t) or pairs(lower, t)
            index = {pair: i for block in rows.values() for i, pair in enumerate(block)}
            # a.dg, visiting only the nonzero products a.b of its terms b (x) h
            columns: dict[Pair, dict[int, int]] = {}
            for g, ((tg, _), dg) in enumerate(zip(gens, boundaries)):
                for b, terms in dg.items():
                    for a, ab in multipliers(b).get(t - tg, ()):
                        col = columns.setdefault((g, a), {})
                        for h, c in terms.items():
                            for k, x in ab.items():
                                i = index[(h, k)]
                                col[i] = col.get(i, 0) + c * x
            columns = {pair: {i: x for i, x in col.items() if x} for pair, col in columns.items()}
            blocks[t] = pairs(gens, t)
            for chi, block in blocks[t].items():
                n = len(rows.get(chi, ()))
                images = [columns.get(pair, _ZERO) for pair in block]
                entries = {(i, j): x for j, col in enumerate(images) for i, x in col.items()}
                matrix = RationalMatrix._canonical(n, len(block), entries)
                d[(t, chi)] = matrix, _Echelon(filter(None, images))
                # d d = 0 on A+ (x) B_s in degree t: the image lies in the cycles
                before = lower_d.get((t, chi))
                if before and not before[0].matmul(matrix).is_zero():
                    raise DSquaredNonzeroError(
                        f"d squared is nonzero on the resolution at (s={s}, t={t}, char={chi})",
                        witness=(s, t, chi),
                    )
            if t > top:
                continue
            for chi, block in rows.items():
                n = len(block)
                hit = d[(t, chi)][1] if (t, chi) in d else _Echelon()
                below = lower_d.get((t, chi))  # d_(s-1) and its image; none for s = 1
                new = n - hit.dim - (below[1].dim if below else 0)
                if not new:
                    continue
                dims[(s, t, chi)] = new
                gens.extend([(t, chi)] * new)
                if t + low > last:  # no a.dg of these generators lies in the window
                    boundaries.extend([_ZERO] * new)
                    continue
                if below and below[0].entries:
                    cycles = kernel_basis(below[0])
                else:
                    cycles = SubspaceBasis.full(n)
                # the kept rows are monic forms of rows of cycles, found by their pivots
                kept = [cycles.rows[min(row)] for row in extend_to_complement(hit, cycles)] \
                    if hit.dim else cycles.rows.values()
                for boundary in kept:
                    dg: dict[str, dict[int, int]] = {}
                    for j, x in boundary.items():
                        h, b = block[j]
                        dg.setdefault(b, {})[h] = x
                    boundaries.append(dg)
        if not gens:
            break
        lower, lower_blocks, lower_d = gens, blocks, d
    return dims
