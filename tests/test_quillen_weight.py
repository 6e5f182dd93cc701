import random
from fractions import Fraction

import pytest

from formalpi.errors import (
    CutoffExceededError,
    CutoffTooSmallError,
    DSquaredNonzeroError,
    NotCompleteError,
    OutOfRangeError,
)
from formalpi.free_lie import expand
from formalpi.graded_core import ReducedCoproduct, lincomb
from formalpi.quillen_weight import (
    build_model,
    homotopy_table,
    hurewicz_rank,
    model_generators,
    supports,
)


@pytest.fixture(scope="module")
def models(corpus):
    built = {}

    def get(name, max_m=8, max_w=7):
        key = (name, max_m, max_w)
        if key not in built:
            built[key] = build_model(corpus[name], max_m, max_w)
        return built[key]

    return get


def totals(table, up_to):
    return {m: table.total(m) for m in range(2, up_to + 1)}


def test_model_generators_names_and_degrees(corpus):
    g = model_generators(corpus["cp2"])
    assert [(x.ident, x.reduced_degree) for x in g.gens] == [("h2", 1), ("h4", 3)]


def test_sphere_tables(models):
    t2 = homotopy_table(build_model_cached(models, "s2", 10, 9))
    assert totals(t2, 10) == {2: 1, 3: 1, **{m: 0 for m in range(4, 11)}}
    assert t2.entries[(2, 1, ())] == 1 and t2.entries[(3, 2, ())] == 1
    t3 = homotopy_table(build_model_cached(models, "s3", 10, 9))
    assert totals(t3, 10) == {3: 1, **{m: 0 for m in range(2, 11) if m != 3}}
    t5 = homotopy_table(build_model_cached(models, "s5", 10, 9))
    assert totals(t5, 10) == {5: 1, **{m: 0 for m in range(2, 11) if m != 5}}


def build_model_cached(models, name, max_m, max_w):
    return models(name, max_m, max_w)


def test_cp2_table(models):
    t = homotopy_table(models("cp2"))
    assert totals(t, 8) == {2: 1, 5: 1, 3: 0, 4: 0, 6: 0, 7: 0, 8: 0}
    assert t.entries[(5, 2, ())] == 1  # the surviving class sits in weight 2


def test_cp3_table(models):
    t = homotopy_table(models("cp3"))
    assert totals(t, 8) == {2: 1, 7: 1, 3: 0, 4: 0, 5: 0, 6: 0, 8: 0}
    assert t.entries[(7, 2, ())] == 1


def test_wedge_table_free_lie_dims(models):
    t = homotopy_table(models("wedge_s2_s2"))
    assert totals(t, 8) == {2: 2, 3: 3, 4: 2, 5: 3, 6: 6, 7: 11, 8: 18}
    # with zero differential every group sits in a single weight, m-1
    for (m, w, _), v in t.entries.items():
        assert w == m - 1 and v > 0


def test_sphere_and_wedge_differentials_vanish(models):
    for name in ("s2", "s3", "s5", "wedge_s2_s2"):
        model = models(name)
        assert all(m.is_zero() for m in model.differential.values())


def test_cp2_exact_differential_scalar(models):
    model = models("cp2")
    d_h4 = model.slot_matrix(3, 1)
    assert (d_h4.rows, d_h4.cols) == (1, 1)
    assert d_h4.entries == {(0, 0): Fraction(-1, 2)}
    assert model.slot_matrix(1, 1).is_zero()


def test_cp3_exact_differential_scalars(models):
    model = models("cp3")
    assert model.slot_matrix(5, 1).entries == {(0, 0): Fraction(-1)}
    assert model.slot_matrix(3, 1).entries == {(0, 0): Fraction(-1, 2)}
    # d on the weight-2 slot of reduced degree 6: [h2,h6] -> 1, [h4,h4] -> -2
    d62 = model.slot_matrix(6, 2)
    assert (d62.rows, d62.cols) == (1, 2)
    assert d62.entries == {(0, 0): Fraction(1), (0, 1): Fraction(-2)}


def test_all_corpus_models_build(corpus):
    # build_model itself verifies d^2 = 0 exhaustively within cutoffs
    for name, pres in corpus.items():
        build_model(pres, max_m=5, max_w=4)


def derivation_samples(model, rng, count):
    """Yield (lhs, rhs) coordinate pairs for d applied to [u, v] two ways:
    through the derivation rule on the coordinates of du and dv, and through
    the slot matrix after rewriting [u, v] into the basis."""
    b = model.basis
    g = model.generators
    tree = {word: b.tree(word) for key in b.slot_keys() for word in b.slots[key]}
    pool = list(tree.items())
    produced = 0
    while produced < count:
        u, ut = rng.choice(pool)
        partners = [
            (v, vt)
            for v, vt in pool
            if ut.reduced_degree + vt.reduced_degree <= b.max_r
            and ut.weight + vt.weight + 1 <= b.max_w
        ]
        if not partners:
            continue
        v, vt = rng.choice(partners)
        r = ut.reduced_degree + vt.reduced_degree
        w = ut.weight + vt.weight
        char = g.lattice.add(ut.character, vt.character)
        sign = -1 if ut.parity else 1
        combo = {}
        for x, c in model.d_word(u).items():
            combo[g.bracket(tree[x], vt)] = Fraction(c, model.d_den)
        for y, c in model.d_word(v).items():
            combo[g.bracket(ut, tree[y])] = Fraction(sign * c, model.d_den)
        tgt = b.slot_dim(r - 1, w + 1, char) if r >= 1 else 0
        lhs = expand(combo, b) if combo else (Fraction(0),) * tgt
        rhs = tuple(model.slot_matrix(r, w, char).apply(expand(g.bracket(ut, vt), b)))
        produced += 1
        yield lhs, rhs


@pytest.mark.parametrize("name", ["cp3", "rand_formal_1", "torus"])
def test_differential_descends_through_rewriting(models, name):
    model = models(name, 6, 5)
    rng = random.Random(7)
    n = 0
    for lhs, rhs in derivation_samples(model, rng, 60):
        assert lhs == rhs
        n += 1
    assert n == 60


def test_weight_bound_simply_connected(models, corpus):
    for name in ("cp2", "cp3", "rand_formal_1", "rand_formal_2"):
        t = homotopy_table(models(name))
        assert t.complete
        assert all(w <= m - 1 for (m, w, _) in t.entries)


def test_torus_truncated_table(models):
    model = models("torus", 3, 4)
    t = homotopy_table(model)
    assert not t.complete
    # rank-2 abelian fundamental layer: weight 1 survives, deeper weights die
    assert t.pi1_pieces == {(1, ()): 2}
    assert t.total(2) == 0


def test_cutoff_errors(corpus):
    with pytest.raises(CutoffTooSmallError):
        build_model(corpus["s2"], max_m=1, max_w=3)
    with pytest.raises(CutoffTooSmallError):
        build_model(corpus["s2"], max_m=4, max_w=0)
    model = build_model(corpus["s2"], max_m=6, max_w=5)
    with pytest.raises(CutoffExceededError):
        homotopy_table(model, max_m=6, max_w=3)  # complete table needs w to 5
    with pytest.raises(CutoffExceededError):
        homotopy_table(model, max_m=8, max_w=7)  # beyond the model


def test_supports_character_even(models):
    model = models("char_even", 4, 3)
    assert supports(model, 2) == {(1,), (2,)}
    assert supports(model, 3) == {(2,), (3,), (4,)}
    with pytest.raises(OutOfRangeError):
        supports(model, 1)


def test_supports_character_torsion(models):
    model = models("char_torsion", 4, 3)
    assert supports(model, 2) == {(1,), (2,)}
    assert supports(model, 3) == {(0,), (1,), (2,)}


def test_supports_empty_when_group_vanishes(models):
    model = models("cp2")
    assert supports(model, 4) == frozenset()
    assert supports(model, 2) == {()}


def test_hurewicz_spheres_and_cp2(models):
    for name, n in (("s2", 2), ("s3", 3), ("s5", 5)):
        rank, image = hurewicz_rank(models(name), n)
        assert rank == 1
        assert image.ambient_dim == 1 and image.vectors == ((Fraction(1),),)
    rank, image = hurewicz_rank(models("cp2"), 4)
    assert rank == 0 and image.vectors == ()
    rank2, image2 = hurewicz_rank(models("cp2"), 2)
    assert rank2 == 1


def test_hurewicz_trivial_and_errors(models):
    rank, image = hurewicz_rank(models("s2"), 5)
    assert rank == 0 and image.ambient_dim == 0
    with pytest.raises(NotCompleteError):
        hurewicz_rank(models("torus", 3, 4), 2)
    with pytest.raises(OutOfRangeError):
        hurewicz_rank(models("s2"), 1)


def test_build_model_reports_the_first_column_where_d_squared_fails(corpus, monkeypatch):
    import formalpi.quillen_weight as qw

    real = qw.dualize

    def skewed(p):
        # tripling one coproduct term of x4 breaks coassociativity, so d^2 != 0
        cop = real(p)
        (a, b, c), *rest = cop.terms["x4"]
        return ReducedCoproduct(cop.presentation, {**cop.terms, "x4": ((a, b, 3 * c), *rest)})

    monkeypatch.setattr(qw, "dualize", skewed)
    with pytest.raises(DSquaredNonzeroError) as err:
        build_model(corpus["rand_formal_1"], 6, 5)
    assert str(err.value) == "d squared is nonzero on w7 at slot (r=6, w=1)"
    assert err.value.witness == "w7"


@pytest.mark.parametrize("name,max_m,max_w", [("cp3", 6, 3), ("torus", 5, 3), ("rand_formal_1", 6, 3)])
def test_model_is_built_one_weight_past_the_report(corpus, name, max_m, max_w):
    model = build_model(corpus[name], max_m, max_w)
    b = model.basis
    assert (b.max_r, b.max_w) == (max_m, max_w + 1)
    # a matrix out of every slot of reported weight, none above it
    assert set(model.differential) == {k for k in b.slots if k[0] >= 1 and k[1] <= max_w}
    for r, w, char in model.differential:
        assert model.slot_matrix(r, w, char).rows == b.slot_dim(r - 1, w + 1, char)


def test_slot_matrix_refuses_slots_outside_the_assembled_window(models):
    model = models("torus", 5, 3)
    # empty slots inside the window are zero matrices
    empty = model.slot_matrix(5, 3, (7,) * len(model.generators.lattice.zero()))
    assert (empty.rows, empty.cols) == (0, 0)
    assert model.slot_matrix(0, 2).is_zero()
    for r, w in [(2, 4), (6, 1), (0, 4)]:
        with pytest.raises(OutOfRangeError, match=rf"slot \(r={r}, w={w}\) outside"):
            model.slot_matrix(r, w)


@pytest.mark.parametrize("name,max_m,max_w", [("torus", 5, 3), ("rand_formal_1", 6, 3)])
def test_d_squared_is_checked_at_the_top_reported_weight(corpus, monkeypatch, name, max_m, max_w):
    import formalpi.quillen_weight as qw

    clean = build_model(corpus[name], max_m, max_w)
    b = clean.basis
    # a word one weight past the report that d reaches from a checked word
    hits = [
        (x, t)
        for key in b.slot_keys()
        if key[0] >= 2 and key[1] == max_w
        for x in b.slots[key]
        for t in clean.d_word(x)
    ]
    assert hits
    target = hits[0][1]
    assert len(target) == max_w + 1
    witnesses = {repr(b.tree(x)) for x, t in hits if t == target}
    real = qw.FormalLieModel.d_word

    def perturbed(self, word):
        out = real(self, word)
        return lincomb([(1, out), (1, {word + word: 1})]) if word == target else out

    monkeypatch.setattr(qw.FormalLieModel, "d_word", perturbed)
    with pytest.raises(DSquaredNonzeroError) as err:
        build_model(corpus[name], max_m, max_w)
    assert err.value.witness in witnesses
    assert f"w={max_w})" in str(err.value)
