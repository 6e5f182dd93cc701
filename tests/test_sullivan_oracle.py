"""Minimal model construction and the two-machinery comparison."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpi import sullivan_oracle
from formalpi.errors import DegreeCutoffError, InvalidInputError, NotSimplyConnectedError
from formalpi.graded_core import AlgebraPresentation, is_simply_connected_type
from formalpi.quillen_weight import build_model, homotopy_table
from formalpi.sullivan_oracle import MinimalModel, ModelGenerator, minimal_model

from conftest import SIMPLY_CONNECTED, examples
from oracles import koszul_sort, model_violations, per_degree_minimal_model
from test_resolution import GENERATED, generated

SC_WITH_CHARACTERS = SIMPLY_CONNECTED + ["char_even", "char_torsion"]
SC_GENERATED = [t for t, _, _ in GENERATED if is_simply_connected_type(generated(t))]


def test_two_sphere_golden_model(corpus):
    mm = minimal_model(corpus["s2"], 8)
    assert mm.generator_counts() == {2: 1, 3: 1}
    closed, killer = mm.generators
    assert closed.degree == 2 and closed.differential == ()
    assert closed.image == (("x2", Fraction(1)),)
    assert killer.degree == 3 and killer.image == ()
    # the degree-3 differential is the square of the degree-2 generator
    assert killer.differential == (((0, 0), Fraction(1)),)


@pytest.mark.parametrize("name,deg", [("s3", 3), ("s5", 5)])
def test_odd_spheres_single_closed_generator(corpus, name, deg):
    mm = minimal_model(corpus[name], 8)
    assert mm.generator_counts() == {deg: 1}
    (g,) = mm.generators
    assert g.differential == () and g.image == ((f"x{deg}", Fraction(1)),)


def test_projective_plane_golden_model(corpus):
    mm = minimal_model(corpus["cp2"], 8)
    assert mm.generator_counts() == {2: 1, 5: 1}
    (killer,) = (g for g in mm.generators if g.degree == 5)
    assert killer.differential == (((0, 0, 0), Fraction(1)),)


def test_projective_three_space_golden_model(corpus):
    mm = minimal_model(corpus["cp3"], 8)
    assert mm.generator_counts() == {2: 1, 7: 1}
    (killer,) = (g for g in mm.generators if g.degree == 7)
    assert killer.differential == (((0, 0, 0, 0), Fraction(1)),)


def test_wedge_counts(corpus):
    mm = minimal_model(corpus["wedge_s2_s2"], 8)
    assert mm.generator_counts() == {2: 2, 3: 3, 4: 2, 5: 3, 6: 6, 7: 11, 8: 18}


def test_construction_is_deterministic(corpus):
    a = minimal_model(corpus["rand_formal_2"], 7)
    b = minimal_model(corpus["rand_formal_2"], 7)
    assert a.generators == b.generators


@pytest.mark.parametrize("name", SC_WITH_CHARACTERS)
def test_model_invariants_hold(corpus, name):
    cutoff = 8 if name in ("s2", "wedge_s2_s2") else 6
    mm = minimal_model(corpus[name], cutoff)
    assert model_violations(mm) == []
    for g in mm.generators:
        assert all(len(m) >= 2 for m, _ in g.differential)



# (input, cutoff, generator, changed field, exact violations)
BROKEN_MODELS = {
    "image of the fundamental class set to zero": (
        "s2", 4, 0, {"image": (("x2", Fraction(0)),)},
        ["comparison map is not injective on H^2", "comparison map is not surjective onto degree 2"],
    ),
    "closed generator given a differential": (
        "rand_formal_1", 5, 1, {"differential": (((0, 0), 1),)},
        [
            "comparison map is not a chain map in degree 4",
            "comparison map is not surjective onto degree 3",
            "comparison map is not surjective onto degree 4",
            "comparison map is not surjective onto degree 5",
        ],
    ),
    "differential coefficient doubled": (
        "wedge_s2_s2", 4, 5, {"differential": (((0, 3), 2), ((1, 2), -1))},
        ["d squared is nonzero out of degree 4", "comparison map is not injective on H^5"],
    ),
    "linear differential term": (
        "wedge_s2_s2", 4, 2, {"differential": (((5,), 1),)},
        [
            "generator v3_0 has a linear differential term",
            "d squared is nonzero out of degree 3",
            "d squared is nonzero out of degree 4",
            "comparison map is not injective on H^4",
        ],
    ),
    # the square of an odd generator is zero in the free algebra, so only the
    # degree check sees this term
    "inhomogeneous differential term": (
        "s2", 4, 0, {"differential": (((1, 1), 1),)},
        ["generator v2_0 has an inhomogeneous differential"],
    ),
    # a live term of the wrong degree: d has no matrix by degree, so the
    # per-generator messages are all there is to report
    "linear inhomogeneous term": (
        "s2", 4, 1, {"differential": (((0, 0), 1), ((1,), 1))},
        [
            "generator v3_0 has a linear differential term",
            "generator v3_0 has an inhomogeneous differential",
        ],
    ),
    "quadratic inhomogeneous term": (
        "s2", 4, 1, {"differential": (((0, 0), 1), ((0, 1), 1))},
        ["generator v3_0 has an inhomogeneous differential"],
    ),
}


@pytest.mark.parametrize("case", BROKEN_MODELS)
def test_model_violations_name_each_broken_invariant(corpus, case):
    name, cutoff, k, change, want = BROKEN_MODELS[case]
    mm = minimal_model(corpus[name], cutoff)
    gens = list(mm.generators)
    g = gens[k]
    fields = {"name": g.name, "degree": g.degree, "differential": g.differential, "image": g.image}
    gens[k] = ModelGenerator(**{**fields, **change})
    assert model_violations(MinimalModel(mm.presentation, mm.cutoff, tuple(gens))) == want

def test_one_truncation_each_d_and_image_once_each_cycle_space_once(corpus, monkeypatch):
    """One call grows one truncation: no monomial's d or image is computed
    twice, and the cycle space of each degree 2..c + 1 is eliminated once."""
    built = []
    d_calls, image_calls, kernels = Counter(), Counter(), Counter()
    d_degrees = {}  # id of each assembled d -> (d, its source degree)

    class CountingTruncation(sullivan_oracle._Truncation):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        def d_of_monomial(self, mono):
            d_calls[mono] += 1
            return super().d_of_monomial(mono)

        def image_of_monomial(self, mono):
            image_calls[mono] += 1
            return super().image_of_monomial(mono)

        def d_matrix(self, n):
            d = super().d_matrix(n)
            d_degrees[id(d)] = (d, n)
            return d

    kernel_basis = sullivan_oracle.kernel_basis

    def counting_kernel_basis(m):
        if id(m) in d_degrees:
            kernels[d_degrees[id(m)][1]] += 1
        return kernel_basis(m)

    monkeypatch.setattr(sullivan_oracle, "_Truncation", CountingTruncation)
    monkeypatch.setattr(sullivan_oracle, "kernel_basis", counting_kernel_basis)
    for name, cutoff in (("s2", 3), ("cp2", 6), ("wedge_s2_s2", 9), ("rand_formal_2", 8)):
        mm = minimal_model(corpus[name], cutoff)
        for check in (lambda: minimal_model(corpus[name], cutoff), lambda: model_violations(mm)):
            built.clear()
            d_calls.clear()
            image_calls.clear()
            kernels.clear()
            check()
            assert len(built) == 1, name
            assert d_calls and set(d_calls.values()) == {1}, name
            assert image_calls and set(image_calls.values()) == {1}, name
            assert kernels == {n: 1 for n in range(2, cutoff + 2)}, name
        assert model_violations(mm) == []


@settings(max_examples=examples(300), deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=8),
    st.lists(st.integers(0, 1), min_size=6, max_size=6),
)
def test_signed_sort_matches_bubble_sort_oracle(t, parities):
    """The product of monomials is one sort whose sign counts odd inversions."""
    assert sullivan_oracle._signed_sort(tuple(t), parities) == koszul_sort(t, parities)


def test_truncation_monomials_and_decreasing_degrees(corpus):
    """The monomial walk stops at the first generator that overshoots the bound,
    which is exact only for degrees that never decrease; others are refused."""
    p = corpus["wedge_s2_s2"]
    gens = minimal_model(p, 6).generators
    top = 9
    tr = sullivan_oracle._Truncation(p, gens, top)
    degrees = [g.degree for g in gens]
    want = {n: [] for n in range(top + 1)}
    for length in range(top // 2 + 1):
        for mono in combinations_with_replacement(range(len(gens)), length):
            deg = sum(degrees[i] for i in mono)
            odd_repeat = any(a == b and degrees[a] % 2 for a, b in zip(mono, mono[1:]))
            if deg <= top and not odd_repeat:
                want[deg].append(mono)
    assert tr.monomials == {n: tuple(sorted(ms)) for n, ms in want.items()}
    with pytest.raises(ValueError):
        sullivan_oracle._Truncation(p, gens[::-1], top)
    # grown in steps, as minimal_model grows it, a truncation holds the same
    # monomials, indices and matrices as one built at once: nothing it kept
    # from a smaller truncation is stale
    grown = sullivan_oracle._Truncation(p)

    def everything(t):
        return [(t.d_matrix(n), t.comparison_matrix(n), t.cycles(n)) for n in range(t.top)]

    for n in range(2, 8):
        grown.extend([g for g in gens if g.degree == n - 1], n + 2)
        everything(grown)
    assert grown.top == top and grown.gens == gens
    assert (grown.monomials, grown.index) == (tr.monomials, tr.index)
    assert everything(grown) == everything(tr)
    with pytest.raises(ValueError):
        grown.extend(gens[:1], top)
    with pytest.raises(ValueError):
        grown.extend((), top - 1)


@pytest.mark.parametrize("name", SC_WITH_CHARACTERS + SC_GENERATED)
def test_minimal_model_equals_the_per_degree_oracle(corpus, name):
    """One growing truncation adjoins the generators that a fresh truncation
    per degree adjoins: names, degrees, differentials and images, in order."""
    p = corpus[name] if name in corpus else generated(name)
    got = minimal_model(p, 9).generators
    want = per_degree_minimal_model(p, 9)
    assert got == want
    assert repr(got) == repr(want)  # ints stay ints, Fractions stay Fractions


def test_generator_counts_equal_the_lie_model_tables(corpus):
    """Through the cutoff, the minimal model has as many generators in each
    degree as the Lie model's homotopy table has classes."""
    for name, cutoff in (("s2", 10), ("cp2", 8)):
        table = homotopy_table(build_model(corpus[name], cutoff, cutoff - 1))
        totals = {m: table.total(m) for m in range(2, cutoff + 1)}
        counts = minimal_model(corpus[name], cutoff).generator_counts()
        assert counts == {m: t for m, t in totals.items() if t}, name


def test_rejects_non_simply_connected(corpus):
    for name in ("torus", "char_pair"):
        with pytest.raises(NotSimplyConnectedError):
            minimal_model(corpus[name], 6)


def test_rejects_small_cutoff(corpus):
    with pytest.raises(DegreeCutoffError):
        minimal_model(corpus["s2"], 1)


def test_rejects_invalid_presentation():
    bad = AlgebraPresentation(
        "bad",
        [("e", 0), ("a", 2), ("t", 3)],
        "e",
        {("a", "a"): {"t": Fraction(1)}},
    )
    with pytest.raises(InvalidInputError):
        minimal_model(bad, 6)
