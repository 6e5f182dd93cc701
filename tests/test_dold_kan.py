"""Denormalization, normalization and the levelwise shuffle product."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpi.cli import parse_presentation
from formalpi.dold_kan import (
    CochainAlgebra,
    CochainComplex,
    CosimplicialVS,
    algebra_from_presentation,
    check_cosimplicial_identities,
    complexes_agree,
    denormalize,
    denormalize_algebra,
    levelwise_algebra_violations,
    normalize,
    random_cochain_complex,
    structure_map_violations,
    structure_matrix,
    surjections,
    validate_cdga,
)
from formalpi.errors import (
    DSquaredNonzeroError,
    InvalidInputError,
    NotACdgaError,
    SimplicialIdentityError,
)
from formalpi.exactlin import RationalMatrix, combine

from conftest import ALL_CORPUS, examples
from oracles import cosimplicial_identity_violations, from_rows, reference_structure_matrix

ONE = from_rows([[1]])


def three_term():
    d0 = from_rows([[1], [-1]])
    d1 = from_rows([[1, 1]])
    return CochainComplex((1, 2, 1), (d0, d1))


# ---------------------------------------------------------------------------
# surjection bookkeeping


def test_surjection_counts_match_binomials():
    for n in range(8):
        for k in range(n + 2):
            assert len(surjections(n, k)) == math.comb(n, k)


def test_surjections_listed_in_lex_order():
    assert surjections(2, 1) == ((0, 0, 1), (0, 1, 1))
    assert surjections(3, 2) == ((0, 0, 1, 2), (0, 1, 1, 2), (0, 1, 2, 2))
    for n in range(6):
        for k in range(n + 1):
            etas = surjections(n, k)
            assert list(etas) == sorted(etas)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_surjection_values_are_onto_and_monotone(n, k):
    for eta in surjections(n, k):
        assert set(eta) == set(range(k + 1))
        assert all(eta[i] <= eta[i + 1] <= eta[i] + 1 for i in range(n))


# ---------------------------------------------------------------------------
# denormalize: level dimensions and identities


def test_rank_one_degree_zero_gives_constant_object():
    v = denormalize(CochainComplex((1,)), 5)
    assert v.dims == (1, 1, 1, 1, 1, 1)
    for m in list(v.cofaces.values()) + list(v.codegeneracies.values()):
        assert m.entries == {(0, 0): Fraction(1)}
    assert complexes_agree(normalize(v), CochainComplex((1,)), 5)


def test_rank_one_degree_one_gives_dim_n_at_level_n():
    v = denormalize(CochainComplex((0, 1)), 5)
    assert v.dims == (0, 1, 2, 3, 4, 5)
    assert check_cosimplicial_identities(v) == []
    assert complexes_agree(normalize(v), CochainComplex((0, 1)), 5)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=examples(40), deadline=None)
def test_level_dims_are_binomial_weighted_sums(dims, m):
    c = CochainComplex(tuple(dims))
    v = denormalize(c, m)
    for n in range(m + 1):
        want = sum(math.comb(n, k) * c.dim(k) for k in range(n + 1))
        assert v.dim(n) == want


def test_denormalize_satisfies_all_cosimplicial_identities():
    cases = [
        CochainComplex((1, 1), (RationalMatrix.identity(1),)),
        three_term(),
        CochainComplex((2, 2, 1), (from_rows([[0, 0], [1, Fraction(1, 2)]]),
                                   from_rows([[1, 0]]))),
    ]
    for c in cases:
        assert check_cosimplicial_identities(denormalize(c, 4)) == []


monotone_maps = st.integers(min_value=0, max_value=5).flatmap(
    lambda tgt: st.tuples(
        st.lists(st.integers(min_value=0, max_value=tgt), min_size=1, max_size=6).map(
            lambda values: tuple(sorted(values))
        ),
        st.just(tgt),
    )
)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0, 2, -1, Fraction(1, 3)]),
    monotone_maps,
)
@settings(max_examples=examples(150), deadline=None)
def test_structure_matrix_matches_the_per_summand_reference(seed, factor, alpha_tgt):
    """Two complexes with equal dims and different d read the same cached plan."""
    alpha, tgt = alpha_tgt
    c = random_cochain_complex(random.Random(seed), max_degree=4, max_dim=3)
    scaled = CochainComplex(
        c.dims, tuple(combine(m.rows, m.cols, [(factor, m)]) for m in c.differentials)
    )
    for cx in (c, scaled):
        got = structure_matrix(cx, alpha, len(alpha) - 1, tgt)
        assert (got.rows, got.cols, got.entries) == reference_structure_matrix(
            cx, alpha, len(alpha) - 1, tgt
        )


def test_structure_matrix_keeps_each_complexs_differential():
    """A coface with a d block, on complexes that share dims but not d."""
    for factor in (1, -2, 0):
        d0 = from_rows([[factor], [-factor]])
        d1 = from_rows([[1, 1]]) if factor else RationalMatrix.zero(1, 2)
        c = CochainComplex((1, 2, 1), (d0, d1))
        for n in range(3):
            for i in range(n + 2):
                alpha = tuple(t if t < i else t + 1 for t in range(n + 1))
                got = structure_matrix(c, alpha, n, n + 1)
                assert (got.rows, got.cols, got.entries) == reference_structure_matrix(
                    c, alpha, n, n + 1
                )


def test_structure_matrix_rejects_maps_that_are_not_monotone_into_range():
    c = three_term()
    with pytest.raises(ValueError, match="arity"):
        structure_matrix(c, (0, 1), 2, 2)
    with pytest.raises(ValueError, match="order-preserving"):
        structure_matrix(c, (1, 0), 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        structure_matrix(c, (0, 3), 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        structure_matrix(c, (-1, 0), 1, 2)


def test_structure_matrix_refuses_a_bad_alpha_on_every_call():
    """The check runs where the plan is made, and a refusal is never cached:
    each bad alpha raises again after valid calls have cached the plans of
    the same dims and levels, on a second complex with those dims too."""
    c = three_term()
    other = CochainComplex(c.dims, tuple(combine(m.rows, m.cols, [(2, m)]) for m in c.differentials))
    valid = {(2, 2): (0, 1, 2), (1, 1): (0, 1), (1, 2): (0, 2)}
    bad = [((0, 1), 2, 2, "arity"), ((1, 0), 1, 1, "order-preserving")]
    bad += [((0, 3), 1, 2, "out of range"), ((-1, 0), 1, 2, "out of range")]
    for alpha, src, tgt, message in bad:
        for cx in (c, other, c):
            with pytest.raises(ValueError, match=message):
                structure_matrix(cx, alpha, src, tgt)
            structure_matrix(cx, valid[src, tgt], src, tgt)


# ---------------------------------------------------------------------------
# normalize: exact round trips


def test_round_trip_identity_differential():
    c = CochainComplex((1, 1), (RationalMatrix.identity(1),))
    assert complexes_agree(normalize(denormalize(c, 4)), c, 4)


def test_round_trip_three_term():
    c = three_term()
    assert complexes_agree(normalize(denormalize(c, 4)), c, 4)


def test_round_trip_random_complexes():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        c = random_cochain_complex(rng, max_degree=4, max_dim=4)
        m = min(c.top_degree + 1, 4)
        assert complexes_agree(normalize(denormalize(c, m)), c, m)


def test_random_complex_is_seed_deterministic():
    a = random_cochain_complex(random.Random(7), max_degree=4, max_dim=4)
    b = random_cochain_complex(random.Random(7), max_degree=4, max_dim=4)
    assert a.dims == b.dims
    assert all(x.entries == y.entries for x, y in zip(a.differentials, b.differentials))
    assert any(
        not random_cochain_complex(random.Random(s), 4, 4).d(0).is_zero()
        or not random_cochain_complex(random.Random(s), 4, 4).d(1).is_zero()
        for s in range(20)
    )


@pytest.mark.parametrize(
    "max_degree, max_dim, want",
    [
        (3, 3, "f5ecc15c1fdaee6dacb2ca6c4e323eb9c5342d2fba2bc35259469a36d0767572"),
        (4, 4, "a9ddb170a99fdcb0d55ecb86cb285860a835cb653c9d06a8a2566e3818b1d06b"),
    ],
)
def test_random_complexes_are_pinned(max_degree, max_dim, want):
    """Seeds 0..199 give the same complexes as the original dense-inverse code.

    Entries are hashed as Fractions: integral entries are stored as ints,
    whose repr differs from the Fraction of the same value.
    """
    h = hashlib.sha256()
    for seed in range(200):
        c = random_cochain_complex(random.Random(seed), max_degree, max_dim)
        diffs = [sorted((k, Fraction(v)) for k, v in m.entries.items()) for m in c.differentials]
        h.update(repr((c.dims, diffs)).encode())
    assert h.hexdigest() == want


def test_the_complexes_doldkan_fuzz_draws_are_pinned():
    """The 1,000 complexes that one random.Random(3) draws in sequence at
    max_degree=3, max_dim=3, as `doldkan --fuzz 1000 --seed 3` draws them,
    hashed as in test_random_complexes_are_pinned."""
    rng, h = random.Random(3), hashlib.sha256()
    for _ in range(1000):
        c = random_cochain_complex(rng, max_degree=3, max_dim=3)
        diffs = [sorted((k, Fraction(v)) for k, v in m.entries.items()) for m in c.differentials]
        h.update(repr((c.dims, diffs)).encode())
    assert h.hexdigest() == "8bc94598499744bbead7aed48c88d042dc3342524f39ac6d7e4c2bd4a2284cca"


def test_normalize_reports_failing_identity_by_name():
    one = from_rows([[1]])
    two = from_rows([[2]])
    v = CosimplicialVS(
        (1, 1, 1),
        {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): two, (1, 2): one},
        {(1, 0): one, (2, 0): one, (2, 1): one},
    )
    with pytest.raises(SimplicialIdentityError) as exc:
        normalize(v)
    assert str(exc.value) == "d^1 d^0 != d^0 d^0 at level 0"


def test_normalize_refuses_a_differential_that_leaves_the_normalized_part(monkeypatch):
    """With the identity check switched off, the residual check of the
    coordinate read still refuses an alternating coface sum out of N."""
    import formalpi.dold_kan as dold_kan

    monkeypatch.setattr(dold_kan, "check_cosimplicial_identities", lambda v: [])
    # N^1 = ker s^0 = span(e_1), but d^0 - d^1 sends e_0 to e_0 + e_1 / 2
    v = CosimplicialVS(
        (1, 2),
        {(0, 0): from_rows([[1], [Fraction(1, 2)]]), (0, 1): RationalMatrix.zero(2, 1)},
        {(1, 0): from_rows([[1, 0]])},
    )
    with pytest.raises(ValueError, match="vector not in span"):
        normalize(v)


def nonempty_maps(v):
    """(family, key) for each coface and codegeneracy of v with at least one entry slot."""
    return [
        (maps, key)
        for maps in (v.cofaces, v.codegeneracies)
        for key, m in sorted(maps.items())
        if m.rows and m.cols
    ]


def corrupted(v, rng):
    """v with one entry of one coface or codegeneracy moved by an int or Fraction delta.

    A third of the time the delta cancels a stored entry, so the entry drops out.
    """
    maps, key = rng.choice(nonempty_maps(v))
    m = maps[key]
    if m.entries and rng.random() < 1 / 3:
        entry = rng.choice(sorted(m.entries))
        delta = -m.entries[entry]
    else:
        entry = (rng.randrange(m.rows), rng.randrange(m.cols))
        delta = rng.choice([1, -2, Fraction(1, 2), Fraction(-2, 3)])
    value = m.entries.get(entry, 0) + delta
    changed = {**maps, key: RationalMatrix(m.rows, m.cols, {**m.entries, entry: value})}
    if maps is v.cofaces:
        return CosimplicialVS(v.dims, changed, v.codegeneracies)
    return CosimplicialVS(v.dims, v.cofaces, changed)


def identity_check_inputs(corpus):
    """Clean and one-entry-corrupted cosimplicial spaces for the identity check.

    Seeded random complexes at levels 2-5, the d = 0 complexes of the corpus
    at level 7 (as `doldkan --level 7` builds them), and two corruptions of
    each that has a nonempty map.
    """
    clean = []
    for seed in range(40):
        c = random_cochain_complex(random.Random(seed), max_degree=3, max_dim=3)
        clean.append(denormalize(c, 2 + seed % 4))
    for name in ALL_CORPUS:
        ids = corpus[name].ids_by_degree
        clean.append(denormalize(CochainComplex(tuple(len(ids.get(n, ())) for n in range(8))), 7))
    rng = random.Random(20)
    broken = [corrupted(v, rng) for v in clean for _ in range(2) if nonempty_maps(v)]
    return clean, broken


def test_identity_check_matches_the_matrix_product_oracle(corpus):
    """Same labels, in the same order, as comparing whole matmul products."""
    clean, broken = identity_check_inputs(corpus)
    for v in clean:
        assert check_cosimplicial_identities(v) == cosimplicial_identity_violations(v) == []
    violating = 0
    for v in broken:
        want = cosimplicial_identity_violations(v)
        assert check_cosimplicial_identities(v) == want
        violating += bool(want)
    assert violating >= len(broken) // 2


def test_complex_validation():
    with pytest.raises(InvalidInputError):
        CochainComplex((1, 1), (RationalMatrix.zero(2, 1),))
    with pytest.raises(DSquaredNonzeroError):
        CochainComplex((1, 1, 1), (ONE, ONE))


# ---------------------------------------------------------------------------
# algebras


def torus_algebra(sign=-1):
    return CochainAlgebra(
        CochainComplex((1, 2, 1)),
        {
            (0, 0): ONE,
            (0, 1): RationalMatrix.identity(2),
            (1, 0): RationalMatrix.identity(2),
            (0, 2): ONE,
            (2, 0): ONE,
            (1, 1): RationalMatrix(1, 4, {(0, 1): Fraction(1), (0, 2): Fraction(sign)}),
        },
        (Fraction(1),),
    )


def truncated_polynomial_algebra():
    prods = {(0, 0): ONE, (0, 2): ONE, (2, 0): ONE, (0, 4): ONE, (4, 0): ONE, (2, 2): ONE}
    return CochainAlgebra(CochainComplex((1, 0, 1, 0, 1)), prods, (Fraction(1),))


def two_stage_algebra():
    """Generators in degrees 2 and 3, the odd one killing the even square."""
    dims = (1, 0, 1, 1, 1, 1, 1)
    diffs = (
        RationalMatrix.zero(0, 1),
        RationalMatrix.zero(1, 0),
        RationalMatrix.zero(1, 1),
        ONE,
        RationalMatrix.zero(1, 1),
        ONE,
    )
    prods = {(0, 0): ONE}
    for k in (2, 3, 4, 5, 6):
        prods[(0, k)] = ONE
        prods[(k, 0)] = ONE
    for pq in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        prods[pq] = ONE
    return CochainAlgebra(CochainComplex(dims, diffs), prods, (Fraction(1),))


def test_multiply_column_convention():
    a = torus_algebra()
    e = (Fraction(1), Fraction(0))
    f = (Fraction(0), Fraction(1))
    assert a.multiply(1, e, 1, f) == (Fraction(1),)
    assert a.multiply(1, f, 1, e) == (Fraction(-1),)
    assert a.multiply(1, e, 1, e) == (Fraction(0),)


def test_validate_cdga_rejects_bad_inputs():
    with pytest.raises(NotACdgaError, match="commutativity"):
        validate_cdga(torus_algebra(sign=1))
    with pytest.raises(NotACdgaError, match="unit"):
        validate_cdga(
            CochainAlgebra(CochainComplex((1,)), {(0, 0): ONE}, (Fraction(2),))
        )
    leib = CochainAlgebra(
        CochainComplex(
            (1, 1, 1, 1),
            (RationalMatrix.zero(1, 1), ONE, RationalMatrix.zero(1, 1)),
        ),
        {
            (0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (0, 2): ONE, (2, 0): ONE,
            (0, 3): ONE, (3, 0): ONE, (2, 1): ONE,
        },
        (Fraction(1),),
    )
    with pytest.raises(NotACdgaError, match="Leibniz"):
        validate_cdga(leib)


def with_products(a, changes):
    return CochainAlgebra(a.complex, {**a.products, **changes}, a.unit)


def with_unit(a, unit):
    return CochainAlgebra(a.complex, a.products, unit)


def non_associative_algebra():
    """x, y in degree 2 with xy = u, u x = t and every other product zero: (xx)y = 0 != x(xy) = t."""
    dims = (1, 0, 2, 0, 1, 0, 1)
    prods = {(0, 0): ONE, (2, 2): RationalMatrix(1, 4, {(0, 1): 1, (0, 2): 1})}
    for k in (2, 4, 6):
        prods[(0, k)] = prods[(k, 0)] = RationalMatrix.identity(dims[k])
    prods[(4, 2)] = prods[(2, 4)] = RationalMatrix(1, 2, {(0, 0): 1})
    return CochainAlgebra(CochainComplex(dims), prods, (Fraction(1),))


def diagonal(*values):
    return RationalMatrix(len(values), len(values), {(i, i): v for i, v in enumerate(values)})


REFUSED_CDGAS = {
    "no degree-0 part to host a unit": lambda: CochainAlgebra(CochainComplex((0, 1)), {}, ()),
    "unit vector has the wrong length": lambda: with_unit(torus_algebra(), (Fraction(1), Fraction(0))),
    "unit is not a cocycle": lambda: CochainAlgebra(
        CochainComplex((1, 1), (ONE,)), {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE}, (Fraction(1),)
    ),
    "product (1,1) has the wrong shape": lambda: with_products(
        torus_algebra(), {(1, 1): RationalMatrix.zero(1, 3)}
    ),
    "unit fails on the left in degree 0": lambda: with_products(
        torus_algebra(), {(0, 0): diagonal(2)}
    ),
    "unit fails on the left in degree 1": lambda: with_products(
        torus_algebra(), {(0, 1): diagonal(1, 2), (1, 0): diagonal(1, 2)}
    ),
    # the first failing index decides: index 0 fails on the right only
    "unit fails on the right in degree 1": lambda: with_products(
        torus_algebra(), {(0, 1): diagonal(1, 2), (1, 0): diagonal(2, 1)}
    ),
    "Leibniz fails on degrees (1,1)": lambda: CochainAlgebra(
        CochainComplex((1, 1, 1, 1), (RationalMatrix.zero(1, 1), ONE, RationalMatrix.zero(1, 1))),
        {
            (0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (0, 2): ONE, (2, 0): ONE,
            (0, 3): ONE, (3, 0): ONE, (2, 1): ONE,
        },
        (Fraction(1),),
    ),
    "commutativity fails on degrees (1,1)": lambda: torus_algebra(sign=1),
    "associativity fails on degrees (2,2,2)": non_associative_algebra,
}


@pytest.mark.parametrize("message", REFUSED_CDGAS)
def test_validate_cdga_names_each_refusal_exactly(message):
    with pytest.raises(NotACdgaError) as exc:
        validate_cdga(REFUSED_CDGAS[message]())
    assert str(exc.value) == message


def unit_and_one_class(degree):
    """The algebra of a unit e and one class x in the given degree, from the schema."""
    doc = {"basis": [{"id": "e", "degree": 0}, {"id": "x", "degree": degree}], "unit": "e"}
    return algebra_from_presentation(parse_presentation(doc))


def test_validate_cdga_work_follows_the_degrees_of_positive_dimension(monkeypatch):
    """Degrees of dimension 0 cost nothing: a class in degree 80 costs what one in degree 2 does."""
    calls = []
    matmul = RationalMatrix.matmul

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(RationalMatrix, "matmul", counted)
    counts = []
    for degree in (2, 80):
        calls.clear()
        validate_cdga(unit_and_one_class(degree))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    a = unit_and_one_class(80)
    refusals = {
        "unit fails on the left in degree 80": {(0, 80): diagonal(2)},
        "product (80,80) has the wrong shape": {(80, 80): RationalMatrix.zero(1, 1)},
        "unit fails on the right in degree 80": {(80, 0): diagonal(2)},
    }
    for message, changes in refusals.items():
        with pytest.raises(NotACdgaError) as exc:
            validate_cdga(with_products(a, changes))
        assert str(exc.value) == message


def test_validate_cdga_checks_the_shape_of_products_past_the_top_degree():
    """The Leibniz check reads product (p + 1, q), which may lie past the top
    degree: a stored one of the wrong shape is refused by name."""
    a = with_products(unit_and_one_class(80), {(81, 0): RationalMatrix.zero(2, 2)})
    with pytest.raises(NotACdgaError) as exc:
        validate_cdga(a)
    assert str(exc.value) == "product (81,0) has the wrong shape"


@pytest.mark.parametrize(
    "builder",
    [truncated_polynomial_algebra, torus_algebra, two_stage_algebra],
    ids=["poly-deg2", "exterior-deg1", "two-stage"],
)
def test_denormalized_algebra_laws_hold_exhaustively(builder):
    ca = denormalize_algebra(builder(), 4)
    assert check_cosimplicial_identities(ca.vs) == []
    assert levelwise_algebra_violations(ca) == []
    assert structure_map_violations(ca) == []


def exterior_algebra():
    """Lambda(x) with |x| = 1: level n of its cosimplicial algebra has dimension n + 1."""
    return CochainAlgebra(CochainComplex((1, 1)), {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE}, (Fraction(1),))


def edited(m, key, value):
    return RationalMatrix(m.rows, m.cols, {**m.entries, key: value})


def perturb_level_product(ca):
    products = list(ca.level_products)
    products[2] = edited(products[2], (0, 5), 1)  # e1 e2 = e0, while e2 e1 = 0
    ca.level_products = tuple(products)


def perturb_level_unit(ca):
    units = list(ca.level_units)
    units[1] = (Fraction(1), Fraction(1))
    ca.level_units = tuple(units)


def perturb_coface(key, entry, value):
    def perturb(ca):
        ca.vs.cofaces[key] = edited(ca.vs.cofaces[key], entry, value)

    return perturb


def perturb_codegeneracy(key, entry, value):
    def perturb(ca):
        ca.vs.codegeneracies[key] = edited(ca.vs.codegeneracies[key], entry, value)

    return perturb


LAW_BREAKS = {
    "level product": (
        exterior_algebra,
        perturb_level_product,
        [
            "commutativity fails at level 2 on (1,2)",
            "associativity fails at level 2 on (1,1,2)",
            "associativity fails at level 2 on (1,2,1)",
            "associativity fails at level 2 on (1,2,2)",
            "associativity fails at level 2 on (2,1,2)",
        ],
        [
            "coface d^1 at level 1 is not multiplicative on (1,1)",
            "codegeneracy s^0 at level 2 is not multiplicative on (1,2)",
            "codegeneracy s^1 at level 2 is not multiplicative on (1,2)",
        ],
    ),
    "level unit": (
        exterior_algebra,
        perturb_level_unit,
        ["unit fails at level 1 on basis 0"],
        [
            "coface d^0 at level 0 does not preserve the unit",
            "coface d^1 at level 0 does not preserve the unit",
            "coface d^0 at level 1 does not preserve the unit",
            "coface d^1 at level 1 does not preserve the unit",
            "coface d^2 at level 1 does not preserve the unit",
            "codegeneracy s^0 at level 2 does not preserve the unit",
            "codegeneracy s^1 at level 2 does not preserve the unit",
        ],
    ),
    "coface on the unit": (
        exterior_algebra,
        perturb_coface((0, 0), (1, 0), 1),
        [],
        [
            "coface d^0 at level 0 does not preserve the unit",
            "coface d^0 at level 0 is not multiplicative on (0,0)",
        ],
    ),
    "coface off the unit": (
        torus_algebra,
        perturb_coface((1, 1), (3, 1), 2),
        [],
        ["coface d^1 at level 1 is not multiplicative on (1,2)"],
    ),
    "codegeneracy": (
        torus_algebra,
        perturb_codegeneracy((2, 1), (0, 0), 2),
        [],
        [
            "codegeneracy s^1 at level 2 does not preserve the unit",
            "codegeneracy s^1 at level 2 is not multiplicative on (0,0)",
            "codegeneracy s^1 at level 2 is not multiplicative on (0,3)",
            "codegeneracy s^1 at level 2 is not multiplicative on (0,4)",
        ],
    ),
}


@pytest.mark.parametrize("case", LAW_BREAKS)
def test_each_broken_law_is_named_with_its_witness(case):
    builder, perturb, levelwise, structure = LAW_BREAKS[case]
    ca = denormalize_algebra(builder(), 2)
    perturb(ca)
    assert levelwise_algebra_violations(ca) == levelwise
    assert structure_map_violations(ca) == structure


def test_complexes_agree_compares_dims_then_differentials():
    c = three_term()
    assert complexes_agree(c, three_term(), 2)
    assert not complexes_agree(c, CochainComplex((1, 2, 2)), 2)
    assert not complexes_agree(c, CochainComplex((1, 2, 2)), 1)  # equal dims, d^0 differs
    scaled = CochainComplex((1, 2, 1), (combine(2, 1, [(2, c.d(0))]), c.d(1)))
    assert not complexes_agree(c, scaled, 2)
    assert complexes_agree(c, scaled, 0)


def test_truncated_polynomial_level_dims():
    ca = denormalize_algebra(truncated_polynomial_algebra(), 4)
    assert ca.vs.dims == (1, 1, 2, 4, 8)


def test_normalize_ignores_the_product_layer():
    ca = denormalize_algebra(two_stage_algebra(), 4)
    got = normalize(ca.vs)
    assert complexes_agree(got, two_stage_algebra().complex, 4)


def test_presentation_round_trip_and_algebra(corpus):
    a = algebra_from_presentation(corpus["cp2"])
    assert a.complex.dims == (1, 0, 1, 0, 1)
    assert complexes_agree(normalize(denormalize(a.complex, 5)), a.complex, 5)
    ca = denormalize_algebra(a, 4)
    assert levelwise_algebra_violations(ca) == []
    assert structure_map_violations(ca) == []


def test_presentation_algebra_with_odd_classes(corpus):
    a = algebra_from_presentation(corpus["torus"])
    ca = denormalize_algebra(a, 3)
    assert levelwise_algebra_violations(ca) == []
    assert structure_map_violations(ca) == []
