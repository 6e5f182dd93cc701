from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpi.cli import parse_presentation
from formalpi.dold_kan import algebra_from_presentation
from formalpi.errors import InvalidInputError
from formalpi.graded_core import (
    AlgebraPresentation,
    CharacterLattice,
    dualize,
    is_simply_connected_type,
    validate_algebra,
)
from formalpi.resolution import ext_dims

from conftest import examples
from oracles import naive_associativity, reference_table

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench_gen  # noqa: E402


def make(name, basis, products, unit="e0", lattice=None):
    return AlgebraPresentation(name, basis, unit, products, lattice)


def cp2():
    return make(
        "cp2",
        [("e0", 0), ("x", 2), ("x2", 4)],
        {("x", "x"): {"x2": Fraction(1)}},
    )


def test_cp2_is_valid_and_simply_connected():
    p = cp2()
    assert validate_algebra(p).ok
    assert is_simply_connected_type(p)


def test_degree_clash_is_reported():
    p = make("bad", [("e0", 0), ("x", 2), ("x2", 4)], {("x", "x"): {"x": Fraction(1)}})
    rep = validate_algebra(p)
    assert not rep.ok
    assert any(v.code == "DEGREE_MISMATCH" and "x" in v.subjects for v in rep.violations)


def test_associativity_failure_names_the_triple():
    # a*a = b, a*b = c, b*a would force (a*a)*a = b*a = -? ... break it directly:
    # set a*b = 0 while a*a = b, so (a*a)*b = b*b = d but a*(a*b) = 0.
    p = make(
        "nonassoc",
        [("e0", 0), ("a", 2), ("b", 4), ("d", 8)],
        {
            ("a", "a"): {"b": Fraction(1)},
            ("b", "b"): {"d": Fraction(1)},
        },
    )
    rep = validate_algebra(p)
    assert any(v.code == "ASSOCIATIVITY" and set(v.subjects) == {"a", "b"} or
               v.code == "ASSOCIATIVITY" and v.subjects == ("a", "a", "b")
               for v in rep.violations)


def test_character_additivity_is_checked():
    lat = CharacterLattice(1, ())
    p = make(
        "chars",
        [("e0", 0, (0,)), ("u", 2, (1,)), ("w", 4, (5,))],
        {("u", "u"): {"w": Fraction(1)}},
        lattice=lat,
    )
    rep = validate_algebra(p)
    assert any(v.code == "CHARACTER_MISMATCH" for v in rep.violations)
    good = make(
        "chars",
        [("e0", 0, (0,)), ("u", 2, (1,)), ("w", 4, (2,))],
        {("u", "u"): {"w": Fraction(1)}},
        lattice=lat,
    )
    assert validate_algebra(good).ok


def test_torsion_characters_reduce():
    lat = CharacterLattice(0, (3,))
    assert lat.reduce((5,)) == (2,)
    assert lat.add((2,), (2,)) == (1,)


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_memoized_sums_are_the_reduced_sums_on_torsion_lattices(data):
    lat = data.draw(st.sampled_from([CharacterLattice(0, (3,)), CharacterLattice(1, (2, 4))]))
    char = st.tuples(*[st.integers(-9, 9) for _ in range(lat.length)])
    pairs = data.draw(st.lists(st.tuples(char, char), min_size=1, max_size=6))
    for a, b in pairs + pairs:  # the second pass reads the memo
        assert lat.add(a, b) == lat.reduce([x + y for x, y in zip(a, b)])


def test_odd_square_must_vanish():
    p = make(
        "oddsq",
        [("e0", 0), ("y", 3), ("z", 6)],
        {("y", "y"): {"z": Fraction(1)}},
    )
    rep = validate_algebra(p)
    assert any(v.code == "COMMUTATIVITY" for v in rep.violations)


def test_product_storage_order_is_enforced():
    p = make(
        "order",
        [("e0", 0), ("a", 2), ("b", 2), ("t", 4)],
        {("b", "a"): {"t": Fraction(1)}},
    )
    rep = validate_algebra(p)
    assert any(v.code == "PRODUCT_ORDER" for v in rep.violations)


def test_koszul_sign_on_derived_order():
    # odd * odd anticommutes, even * even commutes.
    p = make(
        "torus",
        [("e0", 0), ("e1", 1), ("f1", 1), ("t2", 2)],
        {("e1", "f1"): {"t2": Fraction(1)}},
    )
    assert validate_algebra(p).ok
    assert p.product("f1", "e1") == {"t2": Fraction(-1)}
    assert not is_simply_connected_type(p)


def test_unit_products_are_implicit():
    p = cp2()
    assert p.product("e0", "x") == {"x": Fraction(1)}
    assert p.product("x", "e0") == {"x": Fraction(1)}


# --- dualize -----------------------------------------------------------------


def test_dualize_cp2_hand_transpose():
    # The only positive-degree product is x*x = x2, so the dual coproduct on
    # the degree-4 dual class has the single term (x, x) with coefficient 1.
    delta = dualize(cp2())
    assert delta.on("x2") == (("x", "x", Fraction(1)),)
    assert delta.on("x") == ()


def test_dualize_sphere_and_wedge_vanish():
    s2 = make("s2", [("e0", 0), ("x", 2)], {})
    wedge = make("w", [("e0", 0), ("a", 2), ("b", 2)], {})
    assert all(not dualize(s2).on(i) for i in ("x",))
    assert all(not dualize(wedge).on(i) for i in ("a", "b"))


def test_dualize_rejects_invalid():
    p = make("bad", [("e0", 0), ("x", 2), ("x2", 4)], {("x", "x"): {"x": Fraction(1)}})
    with pytest.raises(InvalidInputError):
        dualize(p)


def transpose_back(delta, p):
    table = {}
    for c in [e.ident for e in p.basis]:
        for (a, b, coeff) in delta.on(c):
            table.setdefault((a, b), {})[c] = coeff
    return table


def test_dualize_transposes_back_to_product_table(corpus):
    for name, p in corpus.items():
        delta = dualize(p)
        table = transpose_back(delta, p)
        pos = p.positive_ids()
        for a in pos:
            for b in pos:
                assert table.get((a, b), {}) == p.product(a, b)


def test_coproduct_is_coassociative_and_cocommutative(corpus):
    for name, p in corpus.items():
        delta = dualize(p)
        for c in [e.ident for e in p.basis if e.degree > 0]:
            # graded co-commutativity: coefficient at (a,b) matches the
            # Koszul-signed coefficient at (b,a).
            terms = {(a, b): coeff for a, b, coeff in delta.on(c)}
            for (a, b), coeff in terms.items():
                sign = -1 if (p.degree(a) % 2) and (p.degree(b) % 2) else 1
                assert terms.get((b, a), Fraction(0)) == sign * coeff
            # co-associativity: (delta x 1) delta = (1 x delta) delta.
            left = {}
            right = {}
            for (a, b, coeff) in delta.on(c):
                for (a1, a2, c2) in delta.on(a):
                    key = (a1, a2, b)
                    left[key] = left.get(key, Fraction(0)) + coeff * c2
                for (b1, b2, c2) in delta.on(b):
                    key = (a, b1, b2)
                    right[key] = right.get(key, Fraction(0)) + coeff * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right, (name, c)


def test_corpus_files_validate(corpus):
    for name, p in corpus.items():
        assert validate_algebra(p).ok, name


# --- associativity against the naive triple loop -------------------------------


def monomial_algebra(gens):
    """Graded-commutative algebra on (id, degree, top exponent) generators.

    The basis is every monomial within the exponent bounds, the unit first;
    a product past a bound is zero, and odd generators anticommute.
    """
    exps = sorted(product(*(range(top + 1) for _, _, top in gens)),
                  key=lambda m: (sum(k * d for k, (_, d, _) in zip(m, gens)), m))
    label = {m: "".join(f"{g}{k}" for k, (g, _, _) in zip(m, gens) if k) or "e0" for m in exps}
    degree = {m: sum(k * d for k, (_, d, _) in zip(m, gens)) for m in exps}
    odd = [d % 2 == 1 for _, d, _ in gens]
    prods = {}
    for i, m in enumerate(exps):
        for n in exps[i:]:
            s = tuple(x + y for x, y in zip(m, n))
            if s not in label or not any(m) or not any(n):
                continue
            swaps = sum(m[i] * n[j] for i in range(len(gens)) for j in range(i) if odd[i] and odd[j])
            prods[(label[m], label[n])] = {label[s]: Fraction((-1) ** swaps)}
    return [(label[m], degree[m]) for m in exps], prods


def genus_two():
    basis = [("e0", 0), ("a1", 1), ("b1", 1), ("a2", 1), ("b2", 1), ("w", 2)]
    return basis, {("a1", "b1"): {"w": Fraction(1)}, ("a2", "b2"): {"w": Fraction(1)}}


SMALL_ALGEBRAS = {
    "s2xs2": lambda: monomial_algebra([("a", 2, 1), ("b", 2, 1)]),
    "t3": lambda: monomial_algebra([("x", 1, 1), ("y", 1, 1), ("z", 1, 1)]),
    "cp2xcp2": lambda: monomial_algebra([("x", 2, 2), ("y", 2, 2)]),
    "sigma2": genus_two,
}

COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2)]


def rescale(basis, prods, scale):
    """Structure constants of the basis x -> scale[x] * x: still associative."""
    return {
        (a, b): {t: c * scale[a] * scale[b] / scale[t] for t, c in terms.items()}
        for (a, b), terms in prods.items()
    }


def associativity_subjects(p):
    return [v.subjects for v in validate_algebra(p).violations if v.code == "ASSOCIATIVITY"]


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_associativity_matches_naive_triple_loop(data):
    basis, prods = SMALL_ALGEBRAS[data.draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))]()
    ids = [ident for ident, _ in basis]
    if data.draw(st.booleans()):
        scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)])
        scale = {x: Fraction(1) if x == "e0" else data.draw(scales) for x in ids}
        prods = rescale(basis, prods, scale)
    prods = {k: dict(v) for k, v in prods.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(ids) - 1))
        j = data.draw(st.integers(i, len(ids) - 1))
        t = data.draw(st.sampled_from(ids))
        terms = prods.setdefault((ids[i], ids[j]), {})
        terms[t] = terms.get(t, 0) + data.draw(st.sampled_from(COEFFS))
    p = make("corrupt", basis, prods)
    assert associativity_subjects(p) == naive_associativity(p)


def test_associativity_compares_products_through_the_unit_on_a_rational_table():
    # A draw of the property above, with a1 . a1b1 = 1/2 b1 and a1 . a1 = e0,
    # so L = 2.  (a1 . a1) . b1 = b1 and a1 . (a1 . b1) = 1/2 b1 differ, but
    # with the unit's row of the integral table left unscaled both sides read
    # 2 b1 there, and none of the four failures is reported.
    basis, prods = SMALL_ALGEBRAS["s2xs2"]()
    assert [x for x, _ in basis] == ["e0", "b1", "a1", "a1b1"]
    prods = {**prods, ("a1", "a1b1"): {"b1": Fraction(1, 2)}, ("a1", "a1"): {"e0": Fraction(1)}}
    p = make("corrupt", basis, prods)
    expected = [("b1", "a1", "a1"), ("a1", "a1", "b1"), ("a1", "a1", "a1b1"), ("a1b1", "a1", "a1")]
    assert naive_associativity(p) == expected
    assert associativity_subjects(p) == expected


EVEN = [("e0", 0), ("a", 2), ("b", 2), ("c", 2), ("w", 4), ("x", 4), ("y", 4), ("z", 6)]

# (products, a triple the check must report, or None for an associative table)
ASSOCIATIVITY_CASES = {
    # b*c lists the unit (a degree mismatch): (ab)c = 0 but a(bc) = a*e0 = a
    "bc_lists_the_unit": ({("b", "c"): {"e0": Fraction(1)}}, ("a", "b", "c")),
    # ab = 0, so (ab)c has no term, but a(bc) = a*w = z
    "ab_zero_a_bc_nonzero": (
        {("b", "c"): {"w": Fraction(1)}, ("a", "w"): {"z": Fraction(1)}},
        ("a", "b", "c"),
    ),
    # a(bc) = a*x + a*y = z - z cancels to 0, while (ab)c = w*c = z
    "a_bc_cancels": (
        {
            ("a", "b"): {"w": Fraction(1)},
            ("c", "w"): {"z": Fraction(1)},
            ("b", "c"): {"x": Fraction(1), "y": Fraction(1)},
            ("a", "x"): {"z": Fraction(1)},
            ("a", "y"): {"z": Fraction(-1)},
        },
        ("a", "b", "c"),
    ),
    # the same cancellation with ab = 0: associative at (a, b, c)
    "a_bc_cancels_to_ab_c": (
        {
            ("b", "c"): {"x": Fraction(1), "y": Fraction(1)},
            ("a", "x"): {"z": Fraction(1)},
            ("a", "y"): {"z": Fraction(-1)},
        },
        None,
    ),
    # ab = 0, and a(bc) = (1/2 + 1/3 - 5/6) z is 0 only in exact arithmetic
    "mixed_denominators_cancel": (
        {
            ("b", "c"): {"w": Fraction(-5, 6), "x": Fraction(1, 2), "y": Fraction(1, 3)},
            ("a", "w"): {"z": Fraction(1)},
            ("a", "x"): {"z": Fraction(1)},
            ("a", "y"): {"z": Fraction(1)},
        },
        None,
    ),
    # both sides nonzero: (ab)c = 1/3 z against a(bc) = 1/2 z
    "two_unequal_rationals": (
        {
            ("a", "b"): {"w": Fraction(1, 3)},
            ("c", "w"): {"z": Fraction(1)},
            ("b", "c"): {"x": Fraction(1, 2)},
            ("a", "x"): {"z": Fraction(1)},
        },
        ("a", "b", "c"),
    ),
}


@pytest.mark.parametrize("name", sorted(ASSOCIATIVITY_CASES))
def test_associativity_fixed_cases_match_naive_triple_loop(name):
    prods, bad = ASSOCIATIVITY_CASES[name]
    p = make(name, EVEN, prods)
    expected = naive_associativity(p)
    if bad is None:
        assert expected == []
    else:
        assert bad in expected
    assert associativity_subjects(p) == expected


def test_associativity_on_denominators_7_9_11_13():
    # CP^2 x CP^2 in a basis rescaled by ratios of 7, 9, 11 and 13: the
    # table's denominators have lcm at least 9009, and it stays associative
    basis, prods = SMALL_ALGEBRAS["cp2xcp2"]()
    primes = [7, 9, 11, 13]
    scale = {x: Fraction(primes[i % 4], primes[(i + 1) % 4]) for i, (x, _) in enumerate(basis)}
    scale["e0"] = Fraction(1)
    prods = rescale(basis, prods, scale)
    p = make("scaled", basis, prods)
    assert lcm(*(c.denominator for terms in p.products.values() for c in terms.values())) >= 9009
    assert naive_associativity(p) == []
    assert associativity_subjects(p) == []
    # one coefficient off by 1/9009 breaks it
    pair = next(iter(prods))
    target = next(iter(prods[pair]))
    prods[pair] = {**prods[pair], target: prods[pair][target] + Fraction(1, 9009)}
    p = make("broken", basis, prods)
    expected = naive_associativity(p)
    assert expected
    assert associativity_subjects(p) == expected


def test_validation_leaves_a_rational_table_unchanged():
    p = parse_presentation(json.loads(bench_gen.make("s2^4~r1", 7)))
    table = p.table
    before = copy.deepcopy(table)
    assert any(type(c) is Fraction for row in table.values() for xy in row.values() for c in xy.values())
    assert validate_algebra(p).ok
    assert p.table is table
    assert table == before
    assert [type(c) for row in table.values() for xy in row.values() for c in xy.values()] == \
        [type(c) for row in before.values() for xy in row.values() for c in xy.values()]


def test_associativity_repeats_triples_of_a_duplicate_id():
    p = make(
        "dup",
        [("e0", 0), ("a", 2), ("b", 4), ("d", 8), ("a", 2)],
        {("a", "a"): {"b": Fraction(1)}, ("b", "b"): {"d": Fraction(1)}},
    )
    codes = [v.code for v in validate_algebra(p).violations]
    assert "DUPLICATE_ID" in codes
    expected = naive_associativity(p)
    assert expected.count(("a", "a", "b")) == 4
    assert associativity_subjects(p) == expected


def test_associativity_is_checked_past_a_degree_mismatch():
    # a*a = a is off by a degree, and (aa)b = ab while a(ab) = 0.
    p = make(
        "degree",
        [("e0", 0), ("a", 2), ("b", 2), ("ab", 4)],
        {("a", "a"): {"a": Fraction(1)}, ("a", "b"): {"ab": Fraction(1)}},
    )
    codes = [v.code for v in validate_algebra(p).violations]
    assert "DEGREE_MISMATCH" in codes
    expected = naive_associativity(p)
    assert ("a", "a", "b") in expected
    assert associativity_subjects(p) == expected


@pytest.mark.parametrize("name", sorted(SMALL_ALGEBRAS))
def test_small_algebras_are_valid(name):
    basis, prods = SMALL_ALGEBRAS[name]()
    assert validate_algebra(make(name, basis, prods)).ok
    assert naive_associativity(make(name, basis, prods)) == []


# --- the full product table ---------------------------------------------------


def generated():
    """Every bench_gen family and two rational variants of each, seed 7."""
    tokens = [f"{fam}{variant}" for fam in bench_gen.FAMILIES for variant in ("", "~r1", "~r2")]
    return {token: parse_presentation(json.loads(bench_gen.make(token, 7))) for token in tokens}


# presentations that fail validation but still have a well-defined table
FAULTY = {
    "duplicate_id": lambda: make(
        "dup",
        [("e0", 0), ("a", 2), ("b", 4), ("d", 8), ("a", 2)],
        {("a", "a"): {"b": Fraction(1)}, ("b", "b"): {"d": Fraction(1)}},
    ),
    "listed_unit_product": lambda: make(
        "unit",
        [("e0", 0), ("x", 2), ("x2", 4)],
        {("e0", "x"): {"x": Fraction(2)}, ("x", "x"): {"x2": Fraction(1)}},
    ),
    "odd_pairs": lambda: make(
        "odd",
        [("e0", 0), ("e1", 1), ("f1", 1), ("t2", 2)],
        {("e1", "f1"): {"t2": Fraction(1, 2)}, ("e1", "e1"): {"t2": Fraction(3)}},
    ),
}


def test_table_matches_per_pair_reference(corpus):
    cases = {**corpus, **generated(), **{name: build() for name, build in FAULTY.items()}}
    for name, p in cases.items():
        assert p.table == reference_table(p), name
    for name in FAULTY:
        assert not validate_algebra(cases[name]).ok, name
    odd = cases["odd_pairs"]
    assert odd.product("f1", "e1") == {"t2": Fraction(-1, 2)}
    assert odd.product("e1", "e1") == {"t2": 3}
    assert cases["listed_unit_product"].product("e0", "x") == {"x": 1}


def test_integral_table_scales_the_table_by_the_lcm_of_its_denominators(corpus):
    scaled = []
    for name, p in {**corpus, **generated()}.items():
        table = p.table
        L = lcm(*(c.denominator for row in table.values() for xy in row.values() for c in xy.values()))
        if L == 1:
            assert p.integral_table is table, name
            continue
        scaled.append(name)
        entries = [c for row in p.integral_table.values() for xy in row.values() for c in xy.values()]
        assert {type(c) for c in entries} == {int}, name
        unit = p.unit_id
        assert p.integral_table == {
            x: {y: {t: L * c for t, c in xy.items()} for y, xy in row.items()} for x, row in table.items()
        }, name
        assert all(p.integral_table[unit][x] == p.integral_table[x][unit] == {x: L} for x in p.index), name
    assert "rand_formal_1" in scaled and "s2^4~r1" in scaled and "s2^4" not in scaled


def test_consumers_read_only_the_table(corpus, monkeypatch):
    cases = {**corpus, **generated()}
    for p in cases.values():
        p.table

    def no_product(self, a, b):
        raise AssertionError("product() called after the table was built")

    monkeypatch.setattr(AlgebraPresentation, "product", no_product)
    for name, p in cases.items():
        assert validate_algebra(p).ok, name
        dualize(p)
        ext_dims(p, 2, 2)
        algebra_from_presentation(p)


def test_a_presentation_is_validated_once(monkeypatch):
    from formalpi import graded_core
    from formalpi.quillen_weight import build_model, ext_table
    from formalpi.sullivan_oracle import minimal_model

    calls = []
    validate = graded_core.validate_algebra

    def counting(p):
        calls.append(p)
        return validate(p)

    monkeypatch.setattr(graded_core, "validate_algebra", counting)
    p = cp2()
    ext_table(p, 5, 4)
    build_model(p, 5, 4)
    minimal_model(p, 5)
    assert calls == [p]
    assert p.validation is p.validation
