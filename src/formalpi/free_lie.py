"""Free graded Lie algebras over Q with super-Lyndon word bases.

Generators carry a reduced degree r >= 0; the parity of an element is its
reduced degree mod 2.  Brackets obey graded antisymmetry

    [a, b] = -(-1)^(|a||b|) [b, a]

and the graded Jacobi identity.  A basis of the bigraded piece of reduced
degree r and bracket length (weight) w is given by the standard bracketings
of Lyndon words in the generators, together with one extra element [z, z]
for every Lyndon word z of odd parity (its square survives in a Lie
superalgebra and sits at doubled degree and weight).

Slots are keyed by (reduced degree, weight, character) and can be had two
ways.  ``slot_dims`` only counts them, by PBW inversion: U(L) = T(V) fixes
every slot size through a power series, so no word is listed
(``pbw_invert`` does the inversion for any series of a U(L)).
``FreeLieBasis`` builds them, by enumerating the Lyndon words within the
cutoffs and storing each word's standard factors and parity; the
differential needs the words.  Slots hold words, and a word's bracket tree
is built from its factors only on request (``tree``, ``slot``).

A basis element is keyed by its word: a Lyndon word w stands for P_w, the
bracketing of w along its standard factorization, and the square zz of an
odd Lyndon word z for [P_z, P_z] (no Lyndon word is a square).  Brackets of
basis elements are rewritten into the basis with integer coefficients
(Reutenauer, Free Lie Algebras, ch. 4-5; Lothaire, Combinatorics on Words,
ch. 5): [a, a] is aa for odd a and 0 otherwise; a > b uses antisymmetry;
for a < b the answer is ab when a is a letter or its right standard factor
is >= b, and Jacobi on the standard factorization of a otherwise.  A square
acts as [zz, y] = 2 [z, [z, y]], except [zz, z] = 0: that is the Jacobi
identity for odd z, and without it 2 [z, [z, z]] = -2 [zz, z] would recurse
forever.  The table is memoized per pair; ``expand`` folds bracket trees
bottom-up through it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import CutoffTooSmallError, NegativeDimensionError, OutOfRangeError
from .exactlin import Frozen
from .graded_core import CharacterLattice, lincomb

Word = tuple[int, ...]  # associative word in generator indices
_ZERO = Fraction(0)


class Generator(Frozen):
    _fields = ("ident", "reduced_degree", "character")

    def __init__(self, ident: str, reduced_degree: int, character: tuple[int, ...] = ()):
        if reduced_degree < 0:
            raise ValueError("reduced degree must be >= 0")
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "reduced_degree", reduced_degree)
        object.__setattr__(self, "character", character)


class GeneratorSet(Frozen):
    """Ordered alphabet of generators; the input order is the total order."""

    _fields = ("gens", "lattice")

    def __init__(self, gens: tuple[Generator, ...], lattice: CharacterLattice = CharacterLattice()):
        ids = [g.ident for g in gens]
        if len(set(ids)) != len(ids):
            raise ValueError("generator ids must be unique")
        for g in gens:
            if len(g.character) != lattice.length:
                raise ValueError(f"character of {g.ident!r} has wrong length")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_index", {ident: i for i, ident in enumerate(ids)})

    def __len__(self):
        return len(self.gens)

    def index(self, ident: str) -> int:
        return self._index[ident]

    def leaf(self, ident: str) -> "BracketWord":
        i = self.index(ident)
        g = self.gens[i]
        return BracketWord(ident, None, None, g.reduced_degree, 1, g.character)

    def bracket(self, u: "BracketWord", v: "BracketWord") -> "BracketWord":
        return BracketWord(
            None,
            u,
            v,
            u.reduced_degree + v.reduced_degree,
            u.weight + v.weight,
            self.lattice.add(u.character, v.character),
        )


class BracketWord(Frozen):
    """A fully parenthesized bracket expression with cached gradings."""

    _fields = ("gen", "left", "right", "reduced_degree", "weight", "character")

    def __init__(
        self,
        gen: str | None,
        left: BracketWord | None,
        right: BracketWord | None,
        reduced_degree: int,
        weight: int,
        character: tuple[int, ...],
    ):
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "reduced_degree", reduced_degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "character", character)

    @property
    def is_leaf(self) -> bool:
        return self.gen is not None

    @property
    def parity(self) -> int:
        return self.reduced_degree % 2

    def __repr__(self):
        if self.is_leaf:
            return self.gen
        return f"[{self.left!r},{self.right!r}]"


# ---------------------------------------------------------------------------
# Lyndon machinery


def lyndon_words(
    alphabet_size: int, max_len: int, degrees: list[int], max_degree: int
) -> list[Word]:
    """All Lyndon words of length <= max_len and degree <= max_degree, sorted.

    A word's degree is the sum of its letters' degrees.  Branches whose
    degree already exceeds the budget are pruned (degrees are >= 0, so no
    extension can recover).  This keeps enumeration cheap for alphabets whose
    letters are expensive.

    Words are grown as pre-necklaces a[1..t-1] of period p; such a prefix is a
    Lyndon word exactly when it is aperiodic, p == t-1.
    """
    if alphabet_size == 0 or max_len == 0:
        return []
    out: list[Word] = []
    a = [0] * (max_len + 2)

    def rec(t: int, p: int, deg: int):
        if p == t - 1:
            out.append(tuple(a[1:t]))
        if t > max_len:
            return
        c0 = a[t - p]
        for c in range(c0, alphabet_size):
            nd = deg + degrees[c]
            if nd > max_degree:
                continue
            a[t] = c
            rec(t + 1, p if c == c0 else t, nd)

    for c in range(alphabet_size):
        if degrees[c] > max_degree:
            continue
        a[1] = c
        rec(2, 1, degrees[c])
    out.sort()
    return out


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word (len >= 2) as u v with v its smallest proper suffix.

    A square zz splits as (z, z), the two halves whose bracket it is.
    """
    best = None
    split = None
    for i in range(1, len(w)):
        s = w[i:]
        if best is None or s < best:
            best, split = s, i
    return w[:split], w[split:]


def _check_cutoffs(max_r: int, max_w: int):
    if max_w < 1:
        raise CutoffTooSmallError("max_w must be at least 1")
    if max_r < 0:
        raise CutoffTooSmallError("max_r must be at least 0")


class FreeLieBasis:
    """Super-Lyndon basis, complete for reduced degree <= max_r, weight <= max_w.

    ``slots`` maps each slot key to its basis words in sorted order (zz for the
    square [P_z, P_z]); bracket trees are built from the words on request.
    """

    def __init__(self, gens: GeneratorSet, max_r: int, max_w: int):
        _check_cutoffs(max_r, max_w)
        self.gens = gens
        self.max_r = max_r
        self.max_w = max_w
        self.slots: dict[tuple[int, int, tuple[int, ...]], tuple[Word, ...]] = {}
        self._positions: dict[tuple[int, int, tuple[int, ...]], dict[Word, int]] = {}
        self._table: dict[tuple[Word, Word], dict[Word, int]] = {}
        self._degrees = [g.reduced_degree for g in gens.gens]
        # standard factors and parity of every basis word, and of the words
        # beyond the basis that the rewriting meets
        self._factors: dict[Word, tuple[Word, Word]] = {}
        self._parity: dict[Word, int] = {}
        self._trees: dict[Word, BracketWord] = {}
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self):
        lattice = self.gens.lattice
        # reduced characters of a free lattice add without further reduction
        add = lattice.add if lattice.torsion else lambda a, b: tuple(map(operator.add, a, b))
        factors, parity = self._factors, self._parity
        staging: dict[tuple[int, int, tuple[int, ...]], list[Word]] = {}
        grading: dict[Word, tuple[int, tuple[int, ...]]] = {}
        # shorter words first, so that both standard factors of a word are
        # graded before it; the right factor is the longest proper Lyndon
        # suffix, and every Lyndon suffix is in the basis (degrees are >= 0)
        for w in sorted(lyndon_words(len(self.gens), self.max_w, self._degrees, self.max_r), key=len):
            if len(w) == 1:
                g = self.gens.gens[w[0]]
                r, char = g.reduced_degree, lattice.reduce(g.character)
            else:
                i = 1
                while w[i:] not in grading:
                    i += 1
                u, v = factors[w] = w[:i], w[i:]
                (ru, cu), (rv, cv) = grading[u], grading[v]
                r, char = ru + rv, add(cu, cv)
            grading[w] = r, char
            parity[w] = r % 2
            staging.setdefault((r, len(w), char), []).append(w)
            # squares of odd Lyndon words live at doubled degree and weight
            if r % 2 == 1 and 2 * r <= self.max_r and 2 * len(w) <= self.max_w:
                factors[w + w], parity[w + w] = (w, w), 0
                staging.setdefault((2 * r, 2 * len(w), add(char, char)), []).append(w + w)
        for key, words in staging.items():
            words.sort()
            self.slots[key] = tuple(words)
            self._positions[key] = {w: i for i, w in enumerate(words)}

    # -- accessors --------------------------------------------------------------

    def tree(self, w: Word) -> BracketWord:
        """The bracket tree of the basis element keyed by ``w`` (memoized)."""
        t = self._trees.get(w)
        if t is None:
            if len(w) == 1:
                t = self.gens.leaf(self.gens.gens[w[0]].ident)
            else:
                u, v = self.factors(w)
                t = self.gens.bracket(self.tree(u), self.tree(v))
            self._trees[w] = t
        return t

    def _words(self, r: int, w: int, char) -> tuple[Word, ...]:
        if char is None:
            char = self.gens.lattice.zero()
        return self.slots.get((r, w, tuple(char)), ())

    def slot(self, r: int, w: int, char=None) -> tuple[BracketWord, ...]:
        """The bracket trees of one slot, in basis order."""
        return tuple(map(self.tree, self._words(r, w, char)))

    def slot_dim(self, r: int, w: int, char=None) -> int:
        return len(self._words(r, w, char))

    def slot_keys(self):
        return sorted(self.slots.keys())

    def characters_at(self, r: int, w: int) -> list[tuple[int, ...]]:
        return sorted({c for (rr, ww, c) in self.slots if rr == r and ww == w})

    def in_range(self, r: int, w: int) -> bool:
        return 0 <= r <= self.max_r and 1 <= w <= self.max_w

    def positions(self, key) -> dict[Word, int]:
        """Position of each basis element of slot ``key``, keyed by its word
        (zz for the square [P_z, P_z]).  Do not mutate."""
        return self._positions.get(key, {})

    # -- structure constants ------------------------------------------------------

    def parity(self, w: Word) -> int:
        p = self._parity.get(w)
        if p is None:
            p = self._parity[w] = sum(self._degrees[c] for c in w) % 2
        return p

    def factors(self, w: Word) -> tuple[Word, Word]:
        """``standard_factorization(w)``, stored for basis words, memoized beyond."""
        f = self._factors.get(w)
        if f is None:
            f = self._factors[w] = standard_factorization(w)
        return f

    def bracket(self, a: Word, b: Word) -> dict[Word, int]:
        """[a, b] of two basis elements, in basis coordinates (memoized)."""
        out = self._table.get((a, b))
        if out is None:
            out = self._table[(a, b)] = self._rewrite(a, b)
        return out

    def _rewrite(self, a: Word, b: Word) -> dict[Word, int]:
        if a == b:
            return {a + a: 1} if self.parity(a) else {}
        z = _square_root(a)
        if z is not None:
            if b == z:
                return {}
            return lincomb((2 * c, self.bracket(z, y)) for y, c in self.bracket(z, b).items())
        if a > b or _square_root(b) is not None:
            sign = 1 if self.parity(a) and self.parity(b) else -1
            return {w: sign * c for w, c in self.bracket(b, a).items()}
        if len(a) == 1:
            return {a + b: 1}
        a1, a2 = self.factors(a)
        if a2 >= b:
            return {a + b: 1}
        sign = 1 if self.parity(a1) and self.parity(a2) else -1
        return lincomb(
            [(c, self.bracket(a1, y)) for y, c in self.bracket(a2, b).items()]
            + [(sign * c, self.bracket(a2, y)) for y, c in self.bracket(a1, b).items()]
        )


def slot_dims(
    gens: GeneratorSet, max_r: int, max_w: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """Slot sizes of ``FreeLieBasis(gens, max_r, max_w)``, counted without building it.

    U(L) = T(V) (Milnor-Moore), so ``pbw_invert`` of the series of T(V) gives
    every slot; the weight-w part of T(V) is the weight-(w-1) part times the
    letters.
    """
    _check_cutoffs(max_r, max_w)
    lattice = gens.lattice
    letters: dict[tuple[int, tuple[int, ...]], int] = {}
    for g in gens.gens:
        if g.reduced_degree <= max_r:
            profile = (g.reduced_degree, lattice.reduce(g.character))
            letters[profile] = letters.get(profile, 0) + 1

    def tensor_parts():
        tensor = {(0, lattice.zero()): 1}
        for _ in range(max_w):
            nxt: dict[tuple[int, tuple[int, ...]], int] = {}
            for (r, char), n in letters.items():
                _shift(lattice, max_r, tensor, r, char, n, nxt)
            tensor = nxt
            yield tensor

    return pbw_invert(tensor_parts(), lattice, max_r, max_w)


def pbw_invert(
    parts, lattice: CharacterLattice, max_r: int, max_w: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """dim L per slot (r, w, char) from the series of U(L), for w <= max_w, r <= max_r.

    ``parts`` yields, for w = 1, ..., max_w, the weight-w part of U(L) as
    {(r, char): dim}, cut at max_r.  PBW: U(L) has the size of the free
    graded-commutative algebra on L, so as series in x^(r, w, char)

        U(L) = prod over slots t of (1 + x^t)^dim L_t   (r odd)
                                 or (1 - x^t)^-dim L_t  (r even).

    Weight by weight, dim L_s is the coefficient of x^s in U(L) less that of
    the product over the slots of lower weight, whose factors are expanded as
    binomial series.  Series are keyed by (reduced degree, character) within
    a weight and cut at max_r; no reduced degree is negative.  A slot that
    would get a negative dimension raises NegativeDimensionError naming it:
    the series is not that of any U(L).
    """
    one = {(0, lattice.zero()): 1}
    pbw = [one] + [{} for _ in range(max_w)]  # weight parts of the product so far
    dims = {}
    for w, part in zip(range(1, max_w + 1), parts):
        # all of weight w is read off before any of its factors is multiplied in
        found = [(key, part.get(key, 0) - pbw[w].get(key, 0)) for key in {**part, **pbw[w]}]
        for (r, char), d in found:
            if d < 0:
                raise NegativeDimensionError(
                    f"PBW inversion gives slot (r={r}, w={w}, char={char}) dimension {d}"
                )
            if not d:
                continue
            dims[(r, w, char)] = d
            # x^(k t) in the factor of t: binomial(d, k) if r is odd, else binomial(d + k - 1, k)
            powers, coeff, kr, kchar = [], 1, r, char
            for k in range(1, max_w // w + 1):
                coeff = coeff * (d - k + 1 if r % 2 else d + k - 1) // k
                if kr > max_r or not coeff:
                    break
                powers.append((k * w, kr, kchar, coeff))
                kr, kchar = kr + r, lattice.add(kchar, char)
            # heaviest weight first, so each step reads the product before this factor
            for total in range(max_w, w - 1, -1):
                for kw, kr, kchar, coeff in powers:
                    if kw > total:
                        break
                    _shift(lattice, max_r, pbw[total - kw], kr, kchar, coeff, pbw[total])
    return dims


def _shift(lattice: CharacterLattice, max_r: int, series, r, char, coeff, out):
    """out += coeff * x^(r, char) * series, cut at max_r."""
    for (r0, c0), n in series.items():
        if r0 + r <= max_r:
            key = (r0 + r, lattice.add(c0, char))
            out[key] = out.get(key, 0) + coeff * n


def _square_root(w: Word) -> Word | None:
    """z when the basis key w is a square zz, else None."""
    z = w[: len(w) // 2]
    return z if z + z == w else None


def expand(expr, b: FreeLieBasis) -> tuple[Fraction, ...]:
    """Coordinates of a bracket expression in its slot's basis.

    ``expr`` is a BracketWord or a {BracketWord: coeff} combination within a
    single slot.  Each tree is folded bottom-up through ``b.bracket``.
    """
    if isinstance(expr, BracketWord):
        expr = {expr: Fraction(1)}
    if not expr:
        raise ValueError("empty expression has no well-defined slot")
    first = next(iter(expr))
    key = (first.reduced_degree, first.weight, first.character)
    for bw in expr:
        if (bw.reduced_degree, bw.weight, bw.character) != key:
            raise ValueError("mixed slots in one expansion request")
    r, w, char = key
    if not b.in_range(r, w):
        raise OutOfRangeError(f"slot (r={r}, w={w}) beyond cutoffs ({b.max_r}, {b.max_w})")

    def fold(bw: BracketWord) -> dict[Word, int]:
        if bw.is_leaf:
            return {(b.gens.index(bw.gen),): 1}
        right = fold(bw.right)
        return lincomb(
            (cx * cy, b.bracket(x, y)) for x, cx in fold(bw.left).items() for y, cy in right.items()
        )

    total = lincomb((Fraction(c), fold(bw)) for bw, c in expr.items())
    pos = b.positions(key)
    dense = [_ZERO] * len(pos)
    for word, c in total.items():
        dense[pos[word]] = c
    return tuple(dense)

