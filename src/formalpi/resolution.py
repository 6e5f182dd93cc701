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
kernels are sparse dicts over these keys, and each level keeps its nonzero
columns in one dict keyed by pair.  Within a block the keys rise with g,
then with the basis order of a: the order the rows of the block have, so
every echelon is that of the block's own numbering.  No matrix is built:
``kernel_rows`` takes the stored columns of d_(s-1) on a block, labelled by
their pairs, and gives back the canonical rows of its kernel keyed by pair.

A boundary is built only where the window reads it.  dg of a generator g
of B_s in degree t_g is read by the columns a.dg of the blocks of level s in
degree t = t_g + |a|, up to the level's last degree: max_r + s, or one more
below the top level, where the next level reads d_s.  The next level reads
only the degree and character of g, through its pairs.  So where A+ has no
class of degree 1, ..., last - t, the new generators of the block are
counted and given an empty boundary, and no kernel or complement is taken:
no column that is built reads them, so every column, image and d d check
is the same as with the boundaries built.  Without degree-1 classes
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
Ext is that of the table (see its docstring).  The kernel rows that become
new dg are coprime integer rows, so every column, image, kernel and d d
check runs on ints.

The image I of each block is read only for its dimension and to pick the
complement, and both depend on the span alone, so it is kept as the
unreduced echelon of its columns, never brought to canonical form.  The
complement is greedy: in pivot order, a row of K is a new dg exactly when
I's own echelon, grown by the rows kept before it, takes it on insert; the
rank of d_s is recorded first and nothing reads the echelon after.  Where I
is zero every row of K is kept and none is inserted.  The next level reads
only the dimension of I, the rank of d_s there.
"""

from __future__ import annotations

from .errors import DSquaredNonzeroError
from .exactlin import _Echelon, kernel_rows
from .graded_core import AlgebraPresentation

_ZERO: dict = {}  # shared by every zero column and unread boundary; never modified


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
    low = min(positive, default=0)  # the lowest degree of A+
    left: dict[int, dict[int, list]] = {}  # b -> degree of a -> [(a, ab)], ab nonzero, by position

    def multipliers(b: int) -> dict[int, list]:
        out = left.get(b)
        if out is None:
            out = left[b] = {}
            y = p.basis[b].ident
            # a.b != 0 exactly when b.a != 0: row b names the a, in basis order
            for a in sorted(table[y].keys() - {unit}, key=index.__getitem__):
                ab = {index[k]: x for k, x in table[a][y].items()}
                out.setdefault(p.degree(a), []).append((index[a], ab))
        return out

    def pairs(gens, t) -> dict[tuple[int, ...], list[int]]:
        """The keys of the pairs a (x) g of A+ (x) B in degree t, by character, ascending."""
        out: dict[tuple[int, ...], list[int]] = {}
        for g, (tg, chi) in enumerate(gens):
            if tg >= t:
                break
            for char, classes in positive.get(t - tg, {}).items():
                out.setdefault(add(chi, char), []).extend([g * nb + a for a in classes])
        return out

    dims = {}
    lower = [(0, p.lattice.zero())]  # B_0 = Q, the unit in degree 0; a generator is (t, chi)
    # d_(s-1): its nonzero columns by pair and its ranks by (t, chi); width = nb * dim B_(s-2)
    # bounds the keys of the pairs of F_(s-2), the rows of d_(s-1)
    lower_d, lower_ranks, width = {}, {}, 0
    for s in range(1, max_w + 1):
        top = max_r + s
        last = top + (s < max_w)  # one degree past the window when a next level reads d_s there
        gens, boundaries = [], []  # B_s in increasing t, and the dg of each generator by pair
        d, ranks = {}, {}  # d_s: its nonzero columns by pair, its ranks by (t, chi)
        for t in range(s, last + 1):
            # a.dg, visiting only the nonzero products a.b of its terms b (x) h
            columns: dict[int, dict[int, int]] = {}
            for g, ((tg, _), dg) in enumerate(zip(gens, boundaries)):
                for key, c in dg.items():
                    b = key % nb
                    h = key - b  # the key of 1 (x) h
                    for a, ab in multipliers(b).get(t - tg, ()):
                        col = columns.setdefault(g * nb + a, {})
                        for k, x in ab.items():
                            col[h + k] = col.get(h + k, 0) + c * x
            blocks: dict = {}  # the nonzero columns, by character, in the order of their keys
            for key in sorted(columns):
                col = {i: x for i, x in columns[key].items() if x}
                if col:
                    chi = add(gens[key // nb][1], p.basis[key % nb].character)
                    blocks.setdefault(chi, {})[key] = col
            images = {}
            for chi, block in blocks.items():
                # d d = 0 on A+ (x) B_s in degree t: each column lies in the cycles
                for col in block.values():
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
            for chi, keys in pairs(lower, t).items():
                hit = images.get(chi) or _Echelon()
                below = lower_ranks.get((t, chi), 0)  # the rank of d_(s-1) there; 0 for s = 1
                new = len(keys) - hit.dim - below
                if not new:
                    continue
                dims[(s, t, chi)] = new
                gens.extend([(t, chi)] * new)
                if t + low > last:  # no a.dg of these generators lies in the window
                    boundaries.extend([_ZERO] * new)
                    continue
                if below:  # the kernel of d_(s-1) on the block, its columns labelled by pair
                    cycles = kernel_rows({k: lower_d.get(k, _ZERO) for k in keys}, width)
                else:
                    cycles = {k: {k: 1} for k in keys}
                # a cycle row is new when hit, I grown by the rows kept so far, takes it
                kept = [row for row in cycles.values() if hit.insert(row)] if hit.dim else cycles.values()
                boundaries.extend(kept)
        if not gens:
            break
        lower, lower_d, lower_ranks, width = gens, d, ranks, nb * len(lower)
    return dims
