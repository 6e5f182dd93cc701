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
column a.dg, as d_(s-1)(a.dg) = 0 against the stored columns of d_(s-1),
before the complement is taken.

One coordinate system serves the whole resolution.  The pair a (x) g, for g
the k-th generator of its level and a the class at position i of the basis,
is the int k * len(basis) + i.  Columns a.dg, boundaries dg, images and
kernels are sparse dicts over these keys, and each level keeps its columns
in one dict keyed by pair.  A level is kept as runs (t, chi, first, count)
of consecutive generators, and the pairs of a block as products of a run
and a list of classes: a block's size costs one step per run, and its keys
are listed only where its kernel is taken.  No matrix is built: ``kernel_rows`` takes the stored columns of d_(s-1) on a block,
labelled by its pairs in ascending order, and gives back the canonical
rows of its kernel keyed by pair.

Each column a.dg is built once.  It is read only in degree t_g + |a| of its
own level, up to the level's last degree: max_r + s, or one more below the
top level, where the next level reads d_s.  So as soon as the new dg of a
block are kept, each a.dg in the window is added into the pending block of
its degree and character chi_g + chi_a, and dg is dropped; a column is
rebuilt only when a product cancelled one of its entries.  a.dg is zero
unless a multiplies some class of A+ to a nonzero product.  So where no
such a has degree 1, ..., last - t, no a.dg of the new generators lies in
the window: they are only counted, and no kernel or complement is taken.
Without degree-1 classes that is the top edge t - s = max_r of every level
and the top two degrees of the top level; on a ring with trivial products,
a wedge, it is every block.

The window needs no generator outside it.  Minimality gives ker d inside
A+.F: the new boundaries in degree t are independent modulo I, which holds
the boundaries of A+.F in degree t, so no cycle has a term 1 (x) g.  A cycle
of F_(s-1) in degree t therefore lives on pairs a (x) g' with a in A+ and
t_g' < t, so t_g' - (s - 1) <= t - s: generators inside the window of level
s - 1.  A pair 1 (x) g with t_g = t is never needed.

The arithmetic is integral: the resolution reads ``integral_table``, whose
Ext is that of the table (see its docstring).  The kernel rows that become
new dg are coprime integer rows, so every column, image, kernel and d d
check runs on ints.

The image I of each block is read only for its dimension and to pick the
complement, and both depend on the span alone, so it is kept as the
unreduced echelon of its columns, inserted in the order they were built,
never brought to canonical form.  The complement is greedy: in pivot order,
a row of K is a new dg exactly when I's own echelon, grown by the rows kept
before it, takes it on insert; the rank of d_s is recorded first and
nothing reads the echelon after.  Where I is zero every row of K is kept
and none is inserted.  The next level reads only the dimension of I, the
rank of d_s there.
"""

from __future__ import annotations

from .errors import DSquaredNonzeroError
from .exactlin import _Echelon, kernel_rows
from .graded_core import AlgebraPresentation

_ZERO: dict = {}  # the column of a pair that d sends to zero; never modified


def ext_dims(
    p: AlgebraPresentation, max_r: int, max_w: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """dim B_(s, t, chi) for 1 <= s <= max_w and t - s <= max_r, zeros omitted.

    ``p`` must be valid; validate it first.  Raises DSquaredNonzeroError with
    witness (s, t, chi) where d d = 0 fails.
    """
    nb, index, unit, table, add = len(p.basis), p.index, p.unit_id, p.integral_table, p.lattice.add
    # the basis positions of the positive classes of each degree, by character
    positive: dict[int, dict[tuple[int, ...], list[int]]] = {}
    for m, ids in p.ids_by_degree.items():
        if m > 0:
            for x in ids:
                positive.setdefault(m, {}).setdefault(p.element(x).character, []).append(index[x])
    # the lowest degree of a class of A+ whose product with some class of A+ is
    # nonzero; a.dg is zero for every a below it, and for every a when there is none
    low = min(
        (p.degree(a) for a, row in table.items() if a != unit and row.keys() - {unit}), default=float("inf"))
    left: dict[int, list] = {}  # b -> [(|a|, a, ab)], ab nonzero, by degree then position

    def multipliers(b: int) -> list:
        out = left.get(b)
        if out is None:
            y = p.basis[b].ident
            # a.b != 0 exactly when b.a != 0: row b names the a
            out = left[b] = sorted(
                (p.degree(a), index[a], {index[k]: x for k, x in table[a][y].items()})
                for a in table[y].keys() - {unit})
        return out

    def pairs(runs, t) -> dict[tuple[int, ...], list[tuple]]:
        """The pairs a (x) g of A+ (x) B in degree t, by character, as (first, n, classes):
        a over classes and g over the n generators from first on, in ascending key order."""
        out: dict[tuple[int, ...], list[tuple]] = {}
        for tg, chi, first, n in runs:
            if tg >= t:
                break
            for char, classes in positive.get(t - tg, {}).items():
                out.setdefault(add(chi, char), []).append((first, n, classes))
        return out

    dims = {}
    lower = [(0, p.lattice.zero(), 0, 1)]  # B_0 = Q, the unit in degree 0, as one run
    # d_(s-1): its columns by pair and its ranks by (t, chi); width = nb * dim B_(s-2)
    # bounds the keys of the pairs of F_(s-2), the rows of d_(s-1)
    lower_d, lower_ranks, width = {}, {}, 0
    for s in range(1, max_w + 1):
        top = max_r + s
        last = top + (s < max_w)  # one degree past the window when a next level reads d_s there
        runs, count = [], 0  # B_s as runs (t, chi, first, count) in increasing t, and dim B_s
        pending: dict[int, dict] = {}  # t -> chi -> the columns a.dg of that block, by pair
        d, ranks = {}, {}  # d_s: its columns by pair, its ranks by (t, chi)
        for t in range(s, last + 1):
            images = {}
            for chi, block in pending.pop(t, {}).items():
                for key, col in block.items():
                    if not all(col.values()):  # a cancelled entry
                        block[key] = col = {i: x for i, x in col.items() if x}
                    # d d = 0 on A+ (x) B_s in degree t: each column lies in the cycles
                    image: dict[int, int] = {}
                    for k, x in col.items():
                        for i, y in lower_d.get(k, _ZERO).items():
                            image[i] = image.get(i, 0) + x * y
                    if any(image.values()):
                        raise DSquaredNonzeroError(
                            f"d squared is nonzero on the resolution at (s={s}, t={t}, char={chi})",
                            witness=(s, t, chi))
                d.update(block)
                images[chi] = _Echelon(block.values())
                ranks[(t, chi)] = images[chi].dim
            if t > top:
                continue
            for chi, pieces in pairs(lower, t).items():
                hit = images.get(chi) or _Echelon()
                below = lower_ranks.get((t, chi), 0)  # the rank of d_(s-1) there; 0 for s = 1
                new = sum(n * len(classes) for _, n, classes in pieces) - hit.dim - below
                if not new:
                    continue
                dims[(s, t, chi)] = new
                runs.append((t, chi, count, new))
                count += new
                if t + low > last:  # no a.dg of these generators lies in the window
                    continue
                keys = [g + a for first, n, classes in pieces
                        for g in range(first * nb, (first + n) * nb, nb) for a in classes]
                if below:  # the kernel of d_(s-1) on the block, its columns labelled by pair
                    cycles = kernel_rows({k: lower_d.get(k, _ZERO) for k in keys}, width)
                else:
                    cycles = {k: {k: 1} for k in keys}
                # a cycle row is new when hit, I grown by the rows kept so far, takes it
                kept = [row for row in cycles.values() if hit.insert(row)] if hit.dim else cycles.values()
                # each a.dg, visiting only the nonzero products a.b of its terms b (x) h, goes to
                # the pending block of degree t + |a| and character chi + chi_a, found once per a
                targets: dict[int, dict] = {}
                for g, dg in zip(range((count - new) * nb, count * nb, nb), kept):  # g: key of 1 (x) g
                    for key, c in dg.items():
                        b = key % nb
                        h = key - b  # the key of 1 (x) h
                        for m, a, ab in multipliers(b):
                            if t + m > last:
                                break
                            block = targets.get(a)
                            if block is None:
                                char = add(chi, p.basis[a].character)
                                block = targets[a] = pending.setdefault(t + m, {}).setdefault(char, {})
                            col = block.setdefault(g + a, {})
                            for k, x in ab.items():
                                col[h + k] = col.get(h + k, 0) + c * x
        if not runs:
            break
        lower, lower_d, lower_ranks, width = runs, d, ranks, nb * sum(n for *_, n in lower)
    return dims
