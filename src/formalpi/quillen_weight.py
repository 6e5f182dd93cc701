"""Lie models of graded-commutative cohomology presentations.

The model of a presentation is the free graded Lie algebra on one generator
per positive-degree basis class (reduced degree = class degree - 1, character
copied), equipped with the quadratic differential dual to the product: for a
generator g dual to the class xi with reduced coproduct
Delta(xi) = sum c_i a_i (x) b_i,

    d g = 1/2 sum_i c_i (-1)^(reduced degree of a_i) [g_{a_i}, g_{b_i}],

extended to bracket words as a graded derivation,
d[u,v] = [du,v] + (-1)^|u| [u,dv].  The scalar and sign convention is pinned
by machine checks: build_model verifies d has square zero on every basis
word of the reporting weights, and the test suite verifies d descends
through rewriting into the Lyndon basis.  Any convention passing both
yields the same homology.

The basis is built one weight past the report, the targets of the top
reported weight; only slots of reported weight get a matrix.  d is composed
word by word through the bracket table, so the d^2 check reaches the weight
after that through dictionary keys alone and needs no basis there.

Homology of (L, d) at reduced degree m-1, weight w, character chi is the
weight-w, character-chi piece of the degree-m homotopy group.  For simply
connected input (no degree-1 classes) the weight of a contribution to degree
m is at most m-1, so tables up to max_m are complete once max_w >= max_m - 1;
otherwise results are truncations of the weight tower and flagged as such.

The same table has a second route that builds no model.  U(H(L)) = H(U L)
is Ext_A(Q, Q), so ``ext_table`` inverts the dimensions of the minimal
resolution of ``resolution`` by PBW, and ``hurewicz_image`` takes the
weight-1 kernel as the annihilator of the decomposables.  The command line
tables (pi, supports, hurewicz) take that route; the model serves the
weight spectral sequence, and ``homotopy_table``, ``supports`` and
``hurewicz_rank`` on it are the independent check the tests compare with.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    CutoffExceededError,
    CutoffTooSmallError,
    DSquaredNonzeroError,
    NotCompleteError,
    OutOfRangeError,
)
from .exactlin import RationalMatrix, Record, SubspaceBasis, homology_dim, kernel_basis
from .free_lie import FreeLieBasis, Generator, GeneratorSet, Word, pbw_invert
from .graded_core import (
    AlgebraPresentation,
    dualize,
    is_simply_connected_type,
    lincomb,
    require_valid,
)
from .resolution import ext_dims

SlotKey = tuple[int, int, tuple[int, ...]]


def model_generators(p: AlgebraPresentation) -> GeneratorSet:
    """One generator per positive-degree class, named after it."""
    gens = tuple(Generator(i, p.degree(i) - 1, p.element(i).character) for i in p.positive_ids())
    return GeneratorSet(gens, lattice=p.lattice)


class FormalLieModel(Record):
    _fields = ("presentation", "generators", "basis", "max_m", "max_w", "differential", "d_den")

    def __init__(
        self,
        presentation: AlgebraPresentation,
        generators: GeneratorSet,
        basis: FreeLieBasis,  # one weight past the report: targets of the top weight
        max_m: int,
        max_w: int,
        differential: dict[SlotKey, RationalMatrix],
        d_den: int,  # d_word values are integer numerators over d_den
        _d_cache: dict[Word, dict[Word, int]],
    ):
        self.presentation = presentation
        self.generators = generators
        self.basis = basis
        self.max_m = max_m
        self.max_w = max_w
        self.differential = differential
        self.d_den = d_den
        self._d_cache = _d_cache

    @property
    def complete(self) -> bool:
        return is_simply_connected_type(self.presentation)

    def slot_matrix(self, r: int, w: int, char: tuple[int, ...] = ()) -> RationalMatrix:
        """Differential out of slot (r, w, char), into (r-1, w+1, char).

        Empty slots inside the assembled window (r <= max_m, w <= max_w) give
        zero matrices; a slot outside it has no matrix and is refused."""
        if r > self.max_m or w > self.max_w:
            raise OutOfRangeError(
                f"slot (r={r}, w={w}) outside the assembled window "
                f"(r <= {self.max_m}, w <= {self.max_w})"
            )
        key = (r, w, tuple(char))
        m = self.differential.get(key)
        if m is not None:
            return m
        src = self.basis.slot_dim(r, w, char)
        tgt = self.basis.slot_dim(r - 1, w + 1, char) if r >= 1 else 0
        return RationalMatrix.zero(tgt, src)

    def d_word(self, word: Word) -> dict[Word, int]:
        """d of one basis element, as integer numerators over ``d_den`` in
        basis coordinates: d[u, v] = [du, v] + (-1)^|u| [u, dv] along
        the word's standard factors.  Memoized per word; do not mutate."""
        out = self._d_cache.get(word)
        if out is None:
            b = self.basis
            u, v = b.factors(word)
            sign = -1 if b.parity(u) else 1
            out = self._d_cache[word] = lincomb(
                [(c, b.bracket(x, v)) for x, c in self.d_word(u).items()]
                + [(sign * c, b.bracket(u, y)) for y, c in self.d_word(v).items()]
            )
        return out


def build_model(p: AlgebraPresentation, max_m: int, max_w: int) -> FormalLieModel:
    """Construct the Lie model with verified differential.

    The basis extends one weight and one reduced degree beyond the reporting
    window, so that d out of every reported slot has its target and homology
    at the window edge sees its incoming differential.  d^2 = 0 is checked on
    every reported word by composing ``d_word``, which needs no basis
    position for the weight after that.
    """
    coproduct = dualize(p)  # validates the presentation, ahead of the cutoffs
    check_cutoffs(max_m, max_w)
    gens = model_generators(p)
    b = FreeLieBasis(gens, max_r=max_m, max_w=max_w + 1)

    # d g = 1/2 sum c (-1)^(reduced degree of a) [a, b], carried as integer
    # numerators over one denominator
    leaf_d = []
    for g in gens.gens:
        terms = []
        for a, bb, c in coproduct.on(g.ident):
            x, y = (gens.index(a),), (gens.index(bb),)
            terms.append((Fraction(c, 2) * (-1) ** b.parity(x), b.bracket(x, y)))
        leaf_d.append(lincomb(terms))
    den = lcm(*(q.denominator for d in leaf_d for q in d.values()))
    d_cache = {(i,): {w: int(q * den) for w, q in d.items()} for i, d in enumerate(leaf_d)}
    model = FormalLieModel(p, gens, b, max_m, max_w, {}, den, d_cache)

    for key in b.slot_keys():
        r, w, char = key
        # below reduced degree 0 there is nothing; the top internal weight
        # is target-only, so matrices are assembled for the reported weights
        if r < 1 or w + 1 > b.max_w:
            continue
        tgt = b.positions((r - 1, w + 1, char))
        cols = {}
        for j, word in enumerate(b.slots[key]):
            for t, n in model.d_word(word).items():
                cols[(tgt[t], j)] = n // den if n % den == 0 else Fraction(n, den)
        model.differential[key] = RationalMatrix._canonical(len(tgt), len(b.slots[key]), cols)

    _check_d_squared(model)
    # the bracket memo and d of the words one weight past the report served
    # only the check; both refill on demand
    b._table.clear()
    for word in [x for x in model._d_cache if len(x) > max_w]:
        del model._d_cache[word]
    return model


def check_cutoffs(max_m: int, max_w: int):
    """Refuses a vacuous window: degrees from 2, weights from 1."""
    if max_m < 2:
        raise CutoffTooSmallError("max_m must be at least 2")
    if max_w < 1:
        raise CutoffTooSmallError("max_w must be at least 1")


def _check_complete_window(complete: bool, max_m: int, max_w: int):
    """A complete table to degree max_m reads weights to max_m - 1."""
    if complete and max_w < max_m - 1:
        raise CutoffExceededError(
            f"a complete table to degree {max_m} needs weights to {max_m - 1}, "
            f"got max_w={max_w}"
        )


def _check_d_squared(model: FormalLieModel):
    """d(d(x)) = 0 for every basis word x within the reporting weights,
    composed in integer coordinates; the witness is the first failing word
    in slot order."""
    b = model.basis
    for key in b.slot_keys():
        r, w, _ = key
        if w > model.max_w or r < 2:
            continue
        for word in b.slots[key]:
            if lincomb((c, model.d_word(t)) for t, c in model.d_word(word).items()):
                witness = repr(b.tree(word))
                raise DSquaredNonzeroError(
                    f"d squared is nonzero on {witness} at slot (r={r}, w={w})",
                    witness=witness,
                )


# ---------------------------------------------------------------------------
# homotopy tables


class HomotopyTable(Record):
    """Weight- and character-graded dimensions of the homotopy groups.

    entries[(m, w, char)] holds the dimension of the weight-w, character-char
    piece of the degree-m group; zero entries are omitted.  pi1_pieces holds
    the reduced-degree-0 slots (the unipotent fundamental-group layer) keyed
    by (w, char); it is empty for simply connected input.
    """

    _fields = ("max_m", "max_w", "complete", "entries", "pi1_pieces")

    def __init__(
        self,
        max_m: int,
        max_w: int,
        complete: bool,
        entries: dict[tuple[int, int, tuple[int, ...]], int],
        pi1_pieces: dict[tuple[int, tuple[int, ...]], int],
    ):
        self.max_m = max_m
        self.max_w = max_w
        self.complete = complete
        self.entries = entries
        self.pi1_pieces = pi1_pieces

    def total(self, m: int) -> int:
        return sum(v for (mm, _, _), v in self.entries.items() if mm == m)

    def weight_breakdown(self, m: int) -> dict[tuple[int, tuple[int, ...]], int]:
        return {
            (w, char): v for (mm, w, char), v in sorted(self.entries.items()) if mm == m
        }

    def characters(self, m: int) -> set[tuple[int, ...]]:
        return {char for (mm, _, char), v in self.entries.items() if mm == m and v}


def _slot_homology(model: FormalLieModel, r: int, w: int, char) -> int:
    d_out = model.slot_matrix(r, w, char)
    d_in = model.slot_matrix(r + 1, w - 1, char) if w >= 2 else RationalMatrix.zero(
        model.basis.slot_dim(r, w, char), 0
    )
    return homology_dim(d_in, d_out)


def homotopy_table(
    model: FormalLieModel, max_m: int | None = None, max_w: int | None = None
) -> HomotopyTable:
    max_m = model.max_m if max_m is None else max_m
    max_w = model.max_w if max_w is None else max_w
    if max_m > model.max_m or max_w > model.max_w:
        raise CutoffExceededError(
            f"table to (m={max_m}, w={max_w}) exceeds the model cutoffs "
            f"(m={model.max_m}, w={model.max_w})"
        )
    complete = model.complete
    _check_complete_window(complete, max_m, max_w)
    entries: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for m in range(2, max_m + 1):
        r = m - 1
        w_top = min(max_w, m - 1) if complete else max_w
        for w in range(1, w_top + 1):
            for char in model.basis.characters_at(r, w):
                h = _slot_homology(model, r, w, char)
                if h:
                    entries[(m, w, char)] = h

    pi1: dict[tuple[int, tuple[int, ...]], int] = {}
    for w in range(1, max_w + 1):
        for char in model.basis.characters_at(0, w):
            h = _slot_homology(model, 0, w, char)
            if h:
                pi1[(w, char)] = h

    return HomotopyTable(max_m, max_w, complete, entries, pi1)


def supports(model: FormalLieModel, m: int) -> frozenset[tuple[int, ...]]:
    """Characters carrying a nonzero piece of the degree-m group."""
    if m < 2 or m > model.max_m:
        raise OutOfRangeError(f"m={m} outside [2, {model.max_m}]")
    return frozenset(homotopy_table(model).characters(m))


def hurewicz_rank(model: FormalLieModel, m: int) -> tuple[int, SubspaceBasis]:
    """Rank and image of the degree-m homotopy-to-homology map.

    The image is the weight-1 part of the homology: kernel vectors of the
    differential on generator slots, written in the dual basis of the
    degree-m classes (the annihilator of decomposables).
    """
    if not model.complete:
        raise NotCompleteError("input has degree-1 classes; table is a truncation")
    if m < 2 or m > model.max_m:
        raise OutOfRangeError(f"m={m} outside [2, {model.max_m}]")
    p = model.presentation
    ambient_ids = p.ids_by_degree.get(m, [])
    ambient_index = {ident: k for k, ident in enumerate(ambient_ids)}
    vectors = []
    r = m - 1
    for char in model.basis.characters_at(r, 1):
        slot = model.basis.slot(r, 1, char)
        for row in kernel_basis(model.slot_matrix(r, 1, char)).rows.values():
            vectors.append({ambient_index[slot[pos].gen]: c for pos, c in row.items()})
    image = SubspaceBasis.from_vectors(vectors, len(ambient_ids))
    return image.dim, image


# ---------------------------------------------------------------------------
# the same tables from Ext_A(Q, Q), with no model


def ext_table(p: AlgebraPresentation, max_m: int, max_w: int) -> HomotopyTable:
    """``homotopy_table(build_model(p, max_m, max_w))``, read off Ext_A(Q, Q).

    Slot (r, w, char) of U(pi) is dim B_(w, r + w, char) of the minimal
    resolution, and PBW inversion gives pi.  Validates p, then refuses the
    cutoffs as ``build_model`` and then ``homotopy_table`` do.
    """
    require_valid(p)
    check_cutoffs(max_m, max_w)
    complete = is_simply_connected_type(p)
    _check_complete_window(complete, max_m, max_w)
    parts: list[dict] = [{} for _ in range(max_w)]
    for (s, t, char), d in ext_dims(p, max_m - 1, max_w).items():
        parts[s - 1][(t - s, char)] = d
    entries, pi1 = {}, {}
    for (r, w, char), d in pbw_invert(parts, p.lattice, max_m - 1, max_w).items():
        if r:
            entries[(r + 1, w, char)] = d
        else:
            pi1[(w, char)] = d
    return HomotopyTable(max_m, max_w, complete, entries, pi1)


def hurewicz_image(p: AlgebraPresentation, m: int) -> SubspaceBasis:
    """The image of ``hurewicz_rank(model, m)``, with no model.

    The functionals on A^m, in the dual basis of the degree-m classes, that
    vanish on every product of two positive-degree classes.  p must be valid.
    """
    ids = p.ids_by_degree.get(m, [])
    ambient = {ident: k for k, ident in enumerate(ids)}
    entries = {}
    row = 0
    for (a, b), terms in p.products.items():
        if terms and p.unit_id not in (a, b) and p.degree(a) + p.degree(b) == m:
            entries.update({(row, ambient[t]): c for t, c in terms.items()})
            row += 1
    return kernel_basis(RationalMatrix._canonical(row, len(ids), entries))
