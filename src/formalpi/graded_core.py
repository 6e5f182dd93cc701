"""Graded-commutative algebra presentations and their dual coproducts.

A presentation is a finite basis with degrees (and optional character
multidegrees over a finitely generated abelian lattice), a unit, and a
product table stored for ordered index pairs i <= j only; the other order is
derived through the Koszul sign.  Products involving the unit are implicit
(the unit acts as the identity); if a table lists one anyway it must agree.
A presentation is read-only once built: its product table ``table`` and its
validation report ``validation`` are each computed once, on the first read.

``validate_algebra`` checks the whole table and reports every violation
instead of stopping at the first, so a bad input file produces a complete
diagnosis in one run.  Associativity is compared one middle class b at a
time, one accumulation per side.  (ab)c = sum_t (ab)_t (tc) is summed into a
dict keyed (a, c, x), for x the coordinate, over a in row b (ab != 0 exactly
when ba != 0), t in ab and c in row t; a(bc) = sum_s (bc)_s (as) into a
second dict over c in row b, s in bc and a in row s.  s may be the unit,
which a corrupted table can list in bc.  No other term of either side is
nonzero, so with zeros dropped the two dicts are equal exactly when every
triple with middle b holds, and only when they differ are the failing (a, c)
read off.  Triples containing the unit are left out: they hold by
construction, since the table makes the unit the identity.  On (S^2)^6 each
side sums 2,100 terms, against 262,144 triples of basis classes.

The sums run on ``integral_table``.  A failure is reported once per
position of each repeated id, in basis order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as cartesian
from math import lcm

from .errors import InvalidInputError
from .exactlin import Frozen, exact


class CharacterLattice(Frozen):
    """Character group of a finitely generated abelian group.

    Elements are integer tuples of length free_rank + len(torsion); torsion
    coordinates are kept reduced into [0, t).
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0 or any(t < 2 for t in torsion):
            raise ValueError("free_rank must be >= 0 and torsion orders >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "_sums", {})  # (a, b) -> a + b; not a field

    @property
    def length(self) -> int:
        return self.free_rank + len(self.torsion)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.length

    def reduce(self, char) -> tuple[int, ...]:
        char = tuple(int(c) for c in char)
        if len(char) != self.length:
            raise ValueError(f"character length {len(char)} != {self.length}")
        free = char[: self.free_rank]
        tors = tuple(c % t for c, t in zip(char[self.free_rank :], self.torsion))
        return free + tors

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced sum of two characters, memoized per pair.

        ``a`` and ``b`` are tuples, as ``reduce`` returns them: they key the memo.
        """
        out = self._sums.get((a, b))
        if out is None:
            out = self._sums[(a, b)] = self.reduce(tuple(x + y for x, y in zip(a, b)))
        return out


class BasisElement(Frozen):
    _fields = ("ident", "degree", "character")

    def __init__(self, ident: str, degree: int, character: tuple[int, ...]):
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "character", character)


class Violation(Frozen):
    _fields = ("code", "message", "subjects")

    def __init__(self, code: str, message: str, subjects: tuple[str, ...] = ()):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "subjects", subjects)

    def __str__(self):
        return f"{self.code}: {self.message}"


class ValidationReport(Frozen):
    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        object.__setattr__(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "OK"
        return "\n".join(str(v) for v in self.violations)


def lincomb(terms) -> dict:
    """Sum of coeff * vector over (coeff, sparse vector) pairs, zeros dropped."""
    out: dict = {}
    for coeff, vec in terms:
        for t, c in vec.items():
            out[t] = out.get(t, 0) + coeff * c
    return {t: c for t, c in out.items() if c}


class AlgebraPresentation:
    """Finite graded-commutative algebra given by basis and product table."""

    def __init__(
        self,
        name: str,
        basis: list[tuple],
        unit_id: str,
        products: dict[tuple[str, str], dict[str, Fraction]],
        lattice: CharacterLattice | None = None,
    ):
        self.name = name
        self.lattice = lattice or CharacterLattice()
        elems = []
        for entry in basis:
            if len(entry) == 2:
                ident, degree = entry
                char = self.lattice.zero()
            else:
                ident, degree, char = entry
                char = self.lattice.reduce(char)
            elems.append(BasisElement(str(ident), int(degree), char))
        self.basis: tuple[BasisElement, ...] = tuple(elems)
        self.unit_id = str(unit_id)
        self.index = {e.ident: i for i, e in enumerate(self.basis)}
        self.products = {
            (str(a), str(b)): {str(t): x for t, c in terms.items() if (x := exact(c))}
            for (a, b), terms in products.items()
        }

    # -- accessors -----------------------------------------------------------

    def element(self, ident: str) -> BasisElement:
        return self.basis[self.index[ident]]

    def degree(self, ident: str) -> int:
        return self.element(ident).degree

    def positive_ids(self) -> list[str]:
        return [e.ident for e in self.basis if e.degree > 0]

    @cached_property
    def table(self) -> dict[str, dict[str, dict[str, int | Fraction]]]:
        """table[x][y] = x*y for every nonzero product, in both orders.

        Built once from the stored half: the unit is the identity, a pair
        stored against basis order is ignored, and the other order takes the
        Koszul sign.  The products are shared with ``products``: read only.
        """
        unit, index = self.unit_id, self.index
        table: dict[str, dict] = {x: {unit: {x: 1}} for x in index}
        table[unit] = {y: {y: 1} for y in table}
        for (a, b), terms in self.products.items():
            if terms and unit not in (a, b) and a in index and b in index and index[a] <= index[b]:
                odd = self.degree(a) % 2 and self.degree(b) % 2
                table[b][a] = {t: -c for t, c in terms.items()} if odd else terms
                table[a][b] = terms  # last, so a square keeps its stored sign
        return table

    @cached_property
    def integral_table(self) -> dict[str, dict[str, dict[str, int]]]:
        """``table`` with its products on A+ times L, the lcm of their
        denominators; ``table`` itself when L = 1.

        The unit's row and column are kept as they are, so the table stays
        unital: x -> x / L on A+, fixing the unit, is an isomorphism of
        augmented algebras from (A, mu) onto (A, mu'), where mu' = L mu on
        A+ (x) A+, since L mu(x / L, y / L) = mu(x, y) / L.  So Ext_A(Q, Q)
        is read off the integral table as it is.  Each term of (ab)c or
        a(bc) with a, b, c in A+ is a product of two entries, so the scaling
        multiplies both sides by L^2 and keeps every equality and failure.
        """
        table, unit = self.table, self.unit_id
        L = lcm(*(c.denominator for row in table.values() for xy in row.values() for c in xy.values()))
        if L == 1:
            return table
        return {x: {y: xy if unit in (x, y) else {t: c.numerator * (L // c.denominator) for t, c in xy.items()}
                    for y, xy in row.items()} for x, row in table.items()}

    @cached_property
    def ids_by_degree(self) -> dict[int, list[str]]:
        """The basis ids of each degree, in basis order.  Read only."""
        out: dict[int, list[str]] = {}
        for e in self.basis:
            out.setdefault(e.degree, []).append(e.ident)
        return out

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_algebra(self)``, computed on the first read."""
        return validate_algebra(self)

    def product(self, a: str, b: str) -> dict[str, int | Fraction]:
        """a*b as a new dict, read from ``table``."""
        return dict(self.table[a].get(b, ()))

    def multiply_vectors(self, u: dict[str, Fraction], v: dict[str, Fraction]) -> dict[str, Fraction]:
        return lincomb((ca * cb, self.product(a, b)) for a, ca in u.items() for b, cb in v.items())


def is_simply_connected_type(p: AlgebraPresentation) -> bool:
    """True when the presentation has no basis element of degree one."""
    return all(e.degree != 1 for e in p.basis)


def validate_algebra(p: AlgebraPresentation) -> ValidationReport:
    """Check every structural constraint; collects violations, never aborts."""
    v: list[Violation] = []
    seen = set()
    for e in p.basis:
        if e.ident in seen:
            v.append(Violation("DUPLICATE_ID", f"basis id {e.ident!r} repeated", (e.ident,)))
        seen.add(e.ident)
        if e.degree < 0:
            v.append(Violation("DEGREE_MISMATCH", f"{e.ident!r} has negative degree", (e.ident,)))

    if p.unit_id not in p.index:
        v.append(Violation("NO_UNIT", f"unit id {p.unit_id!r} not in basis", (p.unit_id,)))
        return ValidationReport(tuple(v))

    unit = p.element(p.unit_id)
    if unit.degree != 0:
        v.append(Violation("UNIT_DEGREE", "unit must sit in degree 0", (p.unit_id,)))
    if unit.character != p.lattice.zero():
        v.append(Violation("UNIT_CHARACTER", "unit must carry the zero character", (p.unit_id,)))
    degree_zero = p.ids_by_degree.get(0, [])
    if degree_zero != [p.unit_id]:
        v.append(
            Violation(
                "CONNECTEDNESS",
                f"degree 0 must contain exactly the unit, found {degree_zero}",
                tuple(degree_zero),
            )
        )

    structural = False
    degree = {x: p.basis[i].degree for x, i in p.index.items()}
    character = {x: p.basis[i].character for x, i in p.index.items()}
    for (a, b), terms in p.products.items():
        ids = [a, b] + list(terms)
        missing = [x for x in ids if x not in p.index]
        if missing:
            v.append(Violation("UNKNOWN_ID", f"product ({a},{b}) uses unknown ids {missing}", tuple(missing)))
            structural = True
            continue
        if p.index[a] > p.index[b]:
            v.append(
                Violation(
                    "PRODUCT_ORDER",
                    f"product ({a},{b}) stored against basis order; list (i,j) with i <= j only",
                    (a, b),
                )
            )
            structural = True
            continue
        if p.unit_id in (a, b):
            other = b if a == p.unit_id else a
            if terms != {other: 1}:
                v.append(
                    Violation(
                        "UNIT_PRODUCT",
                        f"listed unit product ({a},{b}) must equal {other!r}",
                        (a, b),
                    )
                )
            continue
        da, db = degree[a], degree[b]
        want_char = p.lattice.add(character[a], character[b])
        for t in terms:
            if degree[t] != da + db:
                v.append(
                    Violation(
                        "DEGREE_MISMATCH",
                        f"({a},{b}) -> {t}: degree {degree[t]} != {da}+{db}",
                        (a, b, t),
                    )
                )
            if character[t] != want_char:
                v.append(
                    Violation(
                        "CHARACTER_MISMATCH",
                        f"({a},{b}) -> {t}: character {character[t]} != {want_char}",
                        (a, b, t),
                    )
                )
        if a == b and da % 2 == 1 and terms:
            v.append(
                Violation(
                    "COMMUTATIVITY",
                    f"odd square ({a},{a}) must vanish in characteristic 0",
                    (a,),
                )
            )

    if structural:
        return ValidationReport(tuple(v))

    table, unit_id = p.integral_table, p.unit_id
    positions: dict[str, list[int]] = {}
    for k, e in enumerate(p.basis):
        positions.setdefault(e.ident, []).append(k)
    bad = []  # positions (i, j, k) of the failing triples
    for b, row in table.items():
        if b == unit_id:
            continue
        # (ab)c and a(bc) coordinate by coordinate, keyed (a, c, x)
        left: dict = {}
        for a in row:
            if a != unit_id:
                for t, ct in table[a][b].items():
                    for c, tc in table[t].items():
                        if c != unit_id:
                            for x, y in tc.items():
                                key = a, c, x
                                left[key] = left.get(key, 0) + ct * y
        right: dict = {}
        for c, bc in row.items():
            if c != unit_id:
                for s, cs in bc.items():
                    for a in table[s]:
                        if a != unit_id:
                            for x, y in table[a][s].items():
                                key = a, c, x
                                right[key] = right.get(key, 0) + cs * y
        left = {key: x for key, x in left.items() if x}
        right = {key: x for key, x in right.items() if x}
        if left != right:
            failing = {key[:2] for key in left.keys() | right.keys() if left.get(key) != right.get(key)}
            for a, c in failing:
                bad += cartesian(positions[a], positions[b], positions[c])
    for i, j, k in sorted(bad):
        a, b, c = p.basis[i].ident, p.basis[j].ident, p.basis[k].ident
        v.append(Violation("ASSOCIATIVITY", f"({a}*{b})*{c} != {a}*({b}*{c})", (a, b, c)))
    return ValidationReport(tuple(v))


class ReducedCoproduct(Frozen):
    """Transpose of the positive-degree product table.

    terms[c] lists (a, b, coeff) over ordered pairs of positive-degree basis
    ids with coeff(a*b, c) nonzero.  Counit terms never appear.  Equality and
    hash look at the presentation only.
    """

    _fields = ("presentation",)

    def __init__(
        self, presentation: AlgebraPresentation, terms: dict[str, tuple[tuple[str, str, Fraction], ...]]
    ):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "terms", terms)

    def on(self, ident: str) -> tuple[tuple[str, str, Fraction], ...]:
        return self.terms.get(ident, ())


def require_valid(p: AlgebraPresentation) -> None:
    """Raises InvalidInputError carrying the full report unless p validates."""
    report = p.validation
    if not report.ok:
        raise InvalidInputError(f"presentation invalid:\n{report}")


def dualize(p: AlgebraPresentation) -> ReducedCoproduct:
    """Dual reduced coproduct on positive-degree dual basis elements."""
    require_valid(p)
    terms: dict[str, list[tuple[str, str, Fraction]]] = {}
    for a, row in p.table.items():
        for b, ab in row.items():
            if p.unit_id not in (a, b):
                for t, c in ab.items():
                    terms.setdefault(t, []).append((a, b, c))
    ordered = {}
    for t, lst in terms.items():
        lst.sort(key=lambda abc: (p.index[abc[0]], p.index[abc[1]]))
        ordered[t] = tuple(lst)
    return ReducedCoproduct(p, ordered)
