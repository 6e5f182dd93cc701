"""Sullivan minimal models of formal simply connected algebras.

The input algebra carries the zero differential, so its own cohomology is
itself and a minimal model is built degree by degree: at each degree adjoin
closed generators hitting a complement of the image inside the target, then
generators whose differentials kill the kernel of the comparison map one
degree above.  Generator differentials are decomposable polynomials in the
previously adjoined generators, which is exactly minimality.

Generator counts per degree form the output of record.  Through the
cutoff they equal the totals of the homotopy table that the command line
reads off Ext_A(Q, Q): the tests hold the two equal, and check each model
against its defining invariants with an independent checker.

All computations happen in the free graded-commutative algebra truncated
just above the cutoff, so every step is finite exact linear algebra.  One
truncation grows with the construction: at degree n it holds every
generator adjoined so far and every monomial through degree n + 2.  A
monomial's d and image never change once computed.  With no generator in
degree 1, the generators of degree n - 1 add no monomial of degree n, so
the cycles of degree n, taken at step n - 1, serve step n too: each
degree's cycle space is eliminated once.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeCutoffError, NotSimplyConnectedError
from .exactlin import (
    Frozen,
    RationalMatrix,
    SubspaceBasis,
    _Echelon,
    exact,
    extend_to_complement,
    kernel_basis,
)
from .graded_core import AlgebraPresentation, is_simply_connected_type, require_valid

Monomial = tuple[int, ...]  # sorted generator indices; odd indices never repeat


class ModelGenerator(Frozen):
    _fields = ("name", "degree", "differential", "image")

    def __init__(
        self,
        name: str,
        degree: int,
        # decomposable polynomial in earlier generators, {} for closed generators;
        # coefficients in exact normal form (an int when integral)
        differential: tuple[tuple[Monomial, int | Fraction], ...],
        # image in the target algebra as (basis id, coeff) pairs
        image: tuple[tuple[str, Fraction], ...],
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "differential", differential)
        object.__setattr__(self, "image", image)


class MinimalModel(Frozen):
    _fields = ("presentation", "cutoff", "generators")

    def __init__(
        self, presentation: AlgebraPresentation, cutoff: int, generators: tuple[ModelGenerator, ...]
    ):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "generators", generators)

    def generator_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for g in self.generators:
            out[g.degree] = out.get(g.degree, 0) + 1
        return out


def _signed_sort(t: Monomial, parities) -> tuple[int, Monomial] | None:
    """t sorted, signed by the parity of its inversions among odd-degree indices;
    None when an odd index repeats."""
    odd = [x for x in t if parities[x]]
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1 :])
    return -1 if inversions % 2 else 1, tuple(sorted(t))


class _Truncation:
    """Monomial bases, differential and comparison matrices through a bound.

    One truncation serves a whole construction: ``extend`` appends
    generators and raises the bound in place.  A monomial's d and image
    depend only on its own generators, which never change once appended, so
    each is computed once.  Matrices and cycle spaces are kept until a
    monomial list they are indexed by changes.
    """

    def __init__(self, p: AlgebraPresentation, gens: tuple[ModelGenerator, ...] = (), top: int = 0):
        self.p = p
        self.gens: tuple[ModelGenerator, ...] = ()
        self.degrees: tuple[int, ...] = ()
        self.parities: tuple[int, ...] = ()
        self.top = 0
        self.monomials: dict[int, tuple[Monomial, ...]] = {0: ((),)}
        self.index: dict[int, dict[Monomial, int]] = {0: {(): 0}}
        self._d_of: dict[Monomial, dict[Monomial, int | Fraction]] = {}
        self._image_of: dict[Monomial, dict[str, Fraction]] = {(): {p.unit_id: Fraction(1)}}
        self._d: dict[int, RationalMatrix] = {}
        self._comparison: dict[int, RationalMatrix] = {}
        self._cycles: dict[int, SubspaceBasis] = {}
        self.extend(gens, top)

    def extend(self, added, top: int) -> None:
        """Appends the generators added and raises the bound to top.

        A monomial of degree n is one of degree n - |g| followed by its last
        generator g, the one of largest index.  It is new when g is new or
        when n exceeds the old bound, so only those are enumerated.
        """
        degrees = self.degrees + tuple(g.degree for g in added)
        if any(a > b for a, b in zip(degrees, degrees[1:])):
            raise ValueError("generator degrees must not decrease")
        if top < self.top:
            raise ValueError("the bound of a truncation never falls")
        first, old_top = len(self.gens), self.top
        self.gens += tuple(added)
        self.degrees, self.top = degrees, top
        self.parities = parities = tuple(d % 2 for d in degrees)
        for n in range(1, top + 1):
            new = []
            for i in range(0 if n > old_top else first, len(degrees)):
                if degrees[i] > n:
                    break
                odd = parities[i]
                new += [
                    m + (i,)
                    for m in self.monomials[n - degrees[i]]
                    if not m or m[-1] < i or (m[-1] == i and not odd)
                ]
            if new or n > old_top:
                self.monomials[n] = ms = tuple(sorted(self.monomials.get(n, ()) + tuple(new)))
                self.index[n] = {m: j for j, m in enumerate(ms)}
                # d out of n - 1 gains rows; the cycles of n - 1 stay valid
                self._d.pop(n - 1, None)
                self._d.pop(n, None)
                self._comparison.pop(n, None)
                self._cycles.pop(n, None)

    def dim(self, n: int) -> int:
        return len(self.monomials.get(n, ()))

    def d_of_monomial(self, mono: Monomial) -> dict[Monomial, int | Fraction]:
        out: dict[Monomial, int | Fraction] = {}
        odd = 0  # parity of the degrees of mono[:j]
        for j, gi in enumerate(mono):
            terms = self.gens[gi].differential
            base = -1 if odd else 1
            odd ^= self.parities[gi]
            if not terms:
                continue
            pre, suf = mono[:j], mono[j + 1 :]
            for dm, coeff in terms:
                signed = _signed_sort(pre + dm + suf, self.parities)
                if signed is None:
                    continue
                sign, m2 = signed
                acc = out.get(m2, 0) + base * sign * coeff
                if acc:
                    out[m2] = acc
                else:
                    out.pop(m2, None)
        return out

    def d_matrix(self, n: int) -> RationalMatrix:
        """d out of degree n, kept until degree n or n + 1 changes."""
        got = self._d.get(n)
        if got is None:
            index, memo = self.index[n + 1], self._d_of
            entries = {}
            for j, mono in enumerate(self.monomials[n]):
                d = memo.get(mono)
                if d is None:
                    d = memo[mono] = self.d_of_monomial(mono)
                for m2, c in d.items():
                    entries[(index[m2], j)] = exact(c)
            got = self._d[n] = RationalMatrix._canonical(self.dim(n + 1), self.dim(n), entries)
        return got

    def image_of_monomial(self, mono: Monomial) -> dict[str, Fraction]:
        """The image of mono's prefix times the image of its last generator."""
        acc = self._image(mono[:-1])
        return self.p.multiply_vectors(acc, dict(self.gens[mono[-1]].image)) if acc else {}

    def _image(self, mono: Monomial) -> dict[str, Fraction]:
        got = self._image_of.get(mono)
        if got is None:
            got = self._image_of[mono] = self.image_of_monomial(mono)
        return got

    def comparison_matrix(self, n: int) -> RationalMatrix:
        """Monomials of degree n mapped into the target degree-n basis."""
        got = self._comparison.get(n)
        if got is None:
            ids = self.p.ids_by_degree.get(n, [])
            pos = {ident: i for i, ident in enumerate(ids)}
            entries = {}
            for j, mono in enumerate(self.monomials[n]):
                for ident, c in self._image(mono).items():
                    entries[(pos[ident], j)] = c
            got = self._comparison[n] = RationalMatrix(len(ids), self.dim(n), entries)
        return got

    def cycles(self, n: int) -> SubspaceBasis:
        """ker d out of degree n, kept until degree n changes (degree n + 1 may grow)."""
        got = self._cycles.get(n)
        if got is None:
            got = self._cycles[n] = kernel_basis(self.d_matrix(n))
        return got

    def cohomology_reps(self, n: int) -> list[dict[int, Fraction]]:
        """Monic echelon rows representing H^n (n >= 1), first-in-basis-order choices."""
        boundaries = _Echelon(self.d_matrix(n - 1)._columns.values())
        return extend_to_complement(boundaries, self.cycles(n))


def minimal_model(p: AlgebraPresentation, cutoff: int) -> MinimalModel:
    """Degreewise construction; generator counts per degree are the output."""
    require_valid(p)
    if not is_simply_connected_type(p):
        raise NotSimplyConnectedError(
            "presentation has degree-1 classes; minimal model construction "
            "requires a simply connected input"
        )
    if cutoff < 2:
        raise DegreeCutoffError("cutoff must be at least 2")
    gens: list[ModelGenerator] = []
    tr = _Truncation(p)
    for n in range(2, cutoff + 1):
        first = len(gens)  # every generator of degree n is adjoined at this step
        tr.extend(gens[len(tr.gens) :], n + 2)
        # surject onto the target in degree n
        comparison = tr.comparison_matrix(n)
        images = [comparison.matvec(r) for r in tr.cohomology_reps(n)]
        ids = p.ids_by_degree.get(n, [])
        hit = _Echelon(images)
        for vec in extend_to_complement(hit, SubspaceBasis.full(len(ids))):
            gens.append(
                ModelGenerator(
                    name=f"v{n}_{len(gens) - first}",
                    degree=n,
                    differential=(),
                    image=tuple((ids[t], c) for t, c in sorted(vec.items())),
                )
            )
        # kill the kernel of the comparison one degree up, on the same truncation:
        # with no generator in degree 1, the closed generators just adjoined add
        # no monomial and no boundary in degree n + 1
        reps = tr.cohomology_reps(n + 1)
        if reps:
            columns = {(j, i): x for i, rep in enumerate(reps) for j, x in rep.items()}
            r = RationalMatrix(tr.dim(n + 1), len(reps), columns)  # representatives as columns
            for lam in kernel_basis(tr.comparison_matrix(n + 1).matmul(r)).monic_rows():
                cocycle = sorted(r.matvec(lam).items())  # in sorted monomial order
                gens.append(
                    ModelGenerator(
                        name=f"v{n}_{len(gens) - first}",
                        degree=n,
                        differential=tuple((tr.monomials[n + 1][i], exact(c)) for i, c in cocycle),
                        image=(),
                    )
                )
    return MinimalModel(p, cutoff, tuple(gens))
