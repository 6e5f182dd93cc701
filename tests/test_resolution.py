"""The minimal resolution of Q over A: Ext against closed forms, the d d = 0
check, and the homotopy tables it gives against the Lie model's."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import formalpi.resolution as resolution
from formalpi.cli import parse_presentation
from formalpi.errors import (
    CutoffExceededError,
    CutoffTooSmallError,
    DSquaredNonzeroError,
    InvalidInputError,
    NegativeDimensionError,
)
from formalpi.exactlin import _Echelon
from formalpi.free_lie import pbw_invert
from formalpi.graded_core import AlgebraPresentation, CharacterLattice, validate_algebra
from formalpi.quillen_weight import (
    build_model,
    ext_table,
    homotopy_table,
    hurewicz_image,
    hurewicz_rank,
)
from formalpi.resolution import ext_dims

from conftest import ALL_CORPUS, SIMPLY_CONNECTED
from oracles import polynomial_ext_dims, surface_ext_dims

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench_gen  # noqa: E402


def generated(token):
    return parse_presentation(json.loads(bench_gen.make(token, 7)))


def parsed(p):
    return parse_presentation(json.loads(bench_gen.to_json(p)))


def sphere_power(n, k):
    return parsed(bench_gen.power(lambda i: bench_gen.sphere(n, i), k))


def surface(genus, characters=False):
    return parsed(bench_gen.surface(genus, characters))


def four_manifold(signs):
    """The ring of a simply connected 4-manifold with intersection form
    diag(signs): e0, then x_1 ... x_b in degree 2, then w in degree 4, with
    x_i x_i = signs[i] w and x_i x_j = 0 for i != j."""
    xs = [f"x{i}" for i in range(1, len(signs) + 1)]
    basis = [("e0", 0), *((x, 2) for x in xs), ("w", 4)]
    products = {(x, x): {"w": c} for x, c in zip(xs, signs)}
    return AlgebraPresentation(f"four_manifold{signs}", basis, "e0", products)


def by_level(dims, max_s):
    """The dims summed over t and characters, level s = 1..max_s."""
    out = [0] * max_s
    for (s, _, _), d in dims.items():
        out[s - 1] += d
    return out


# ---------------------------------------------------------------------------
# Ext against closed forms


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_torus_ext_is_polynomial_in_degree_one(k):
    dims = ext_dims(sphere_power(1, k), 3, 5)
    assert {t - s for s, t, _ in dims} == {0}
    assert by_level(dims, 5) == polynomial_ext_dims(k, 5)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_sphere_power_ext_is_polynomial_in_degree_two(k):
    dims = ext_dims(sphere_power(2, k), 5, 5)
    assert {t - 2 * s for s, t, _ in dims} == {0}
    assert by_level(dims, 5) == polynomial_ext_dims(k, 5)


@pytest.mark.parametrize("genus,characters", [(1, False), (2, False), (2, True), (3, False)])
def test_surface_ext_matches_its_hilbert_series(genus, characters):
    dims = ext_dims(surface(genus, characters), 2, 4)
    assert {t - s for s, t, _ in dims} == {0}
    assert by_level(dims, 4) == surface_ext_dims(genus, 4)


def test_ext_of_the_ground_field_is_empty():
    assert ext_dims(AlgebraPresentation("pt", [("e", 0)], "e", {}), 5, 5) == {}


def test_no_kernel_is_taken_for_boundaries_that_no_block_reads(monkeypatch):
    # Ext of (S^2)^2 is diagonal, t = 2s.  At max_r = max_w = 3 its top block
    # (s, t) = (3, 6) lies on the top edge t - s = max_r of the top level, so
    # no later block reads the boundaries of its generators: the kernel of
    # d_2 on the 6 pairs of that block is never taken.  The kernel of d_1 on
    # the 4 pairs of (2, 4) is, since a.dg of its generators lies at t = 6.
    # A kernel's columns are labelled by the pairs of the block.
    real = resolution.kernel_rows
    widths = []

    def kernel_rows(columns, n, seed=None):
        widths.append(len(columns))
        return real(columns, n, seed)

    monkeypatch.setattr(resolution, "kernel_rows", kernel_rows)
    dims = ext_dims(sphere_power(2, 2), 3, 3)
    assert dims == {(1, 2, ()): 2, (2, 4, ()): 3, (3, 6, ()): 4}
    assert by_level(dims, 3) == polynomial_ext_dims(2, 3)
    assert widths == [4]


def corrupt_first_kernel(monkeypatch, last=False):
    """Patches resolution.kernel_rows to add a non-cycle to one row of the
    first kernel that is neither zero nor all of its block.

    The first row gets the first pair after its pivot that is not a cycle;
    the last row gets the last pair of the block that is not a cycle, since
    its pivot is often the block's last pair.  Returns the list that records
    the position in the block of the pair added.
    """
    real = resolution.kernel_rows
    corrupted = []

    def kernel_rows(columns, n, seed=None):
        rows = real(columns, n, seed)
        labels = list(columns)
        if corrupted or not rows or len(rows) == len(labels):
            return rows
        pivot, row = list(rows.items())[-1 if last else 0]
        positions = reversed(range(len(labels))) if last else range(labels.index(pivot) + 1, len(labels))
        j = next(j for j in positions if _Echelon(rows=rows).insert({labels[j]: 1}))
        corrupted.append(j)
        return {**rows, pivot: {**row, labels[j]: row.get(labels[j], 0) + 1}}

    monkeypatch.setattr(resolution, "kernel_rows", kernel_rows)
    return corrupted


def test_corrupted_boundary_fails_the_d_squared_check(monkeypatch):
    # the first kernel row that a generator is made from: its first column
    # a.dg leads its block, the others are read after it
    corrupted = corrupt_first_kernel(monkeypatch)
    with pytest.raises(DSquaredNonzeroError) as err:
        ext_dims(sphere_power(1, 3), 3, 3)
    assert corrupted
    assert err.value.witness == (2, 3, ())
    assert str(err.value) == "d squared is nonzero on the resolution at (s=2, t=3, char=())"


def test_corrupted_last_boundary_fails_the_d_squared_check(monkeypatch):
    # On CP^2 x CP^2 the first kernel taken has one row, the dg of the one
    # generator g of (s, t) = (2, 4), and the last pair of its block that is
    # not a cycle is ha_1 (x) g', for g' of level 1.  Of the columns a.dg of g
    # at t = 6, only a = hb_1 reads that pair, since ha_1^3 = 0, and that
    # column leads its block: a check that skips each block's first column
    # misses it.
    corrupted = corrupt_first_kernel(monkeypatch, last=True)
    with pytest.raises(DSquaredNonzeroError) as err:
        ext_dims(generated("cp2xcp2"), 4, 4)
    assert corrupted == [3]
    assert err.value.witness == (2, 6, ())
    assert str(err.value) == "d squared is nonzero on the resolution at (s=2, t=6, char=())"


def test_corrupted_boundary_fails_the_d_squared_check_on_a_rational_table(monkeypatch):
    # the corruption above, on T^3 with its classes rescaled, x -> x / (index + 1),
    # so that its structure constants have denominators
    t3 = bench_gen.power(lambda i: bench_gen.sphere(1, i), 3)
    scale = {ident: Fraction(1, i + 1) for i, (ident, _, _) in enumerate(t3["basis"])}
    t3["products"] = {
        (a, b): {t: scale[a] * scale[b] / scale[t] * c for t, c in terms.items()}
        for (a, b), terms in t3["products"].items()
    }
    p = parsed(t3)
    assert any(type(c) is Fraction for terms in p.products.values() for c in terms.values())

    corrupted = corrupt_first_kernel(monkeypatch)
    with pytest.raises(DSquaredNonzeroError) as err:
        ext_dims(p, 3, 3)
    assert corrupted == [1]
    assert err.value.witness == (2, 3, ())
    assert str(err.value) == "d squared is nonzero on the resolution at (s=2, t=3, char=())"


# ---------------------------------------------------------------------------
# PBW inversion


def test_pbw_inversion_names_a_slot_of_negative_dimension():
    lattice = CharacterLattice()
    # U(L) would hold one class in weight 1 and none in weight 2, but the
    # square of an even class lives there
    with pytest.raises(NegativeDimensionError, match=r"slot \(r=0, w=2, char=\(\)\) dimension -1"):
        pbw_invert([{(0, ()): 1}, {}], lattice, 3, 2)
    assert pbw_invert([{(1, ()): 1}, {}], lattice, 3, 2) == {(1, 1, ()): 1}


# ---------------------------------------------------------------------------
# two routes, one table


def corpus_cases():
    for name in SIMPLY_CONNECTED:
        yield name, 8, 7
    yield "torus", 5, 5
    for name in ALL_CORPUS[len(SIMPLY_CONNECTED) + 1 :]:
        yield name, 5, 5


GENERATED = [
    ("t3", 3, 3),
    ("sigma2", 3, 3),
    ("sigma2_chi", 3, 3),
    ("t2_chi", 4, 4),
    ("s2^4", 6, 5),
    ("cp2xcp2", 6, 5),
    ("wedge_2233", 7, 6),
    ("s2^4~r0", 6, 5),
    ("s2^4~r1", 6, 5),
]


# Ext of these is diagonal, t = 2s, so at max_m = max_w + 1 it reaches the
# top edge t - s = max_m - 1 of the top level
FOUR_MANIFOLDS = [
    ((1, 1), 7, 6),
    ((1, -1), 7, 6),
    ((1, 1, 1), 6, 5),
    ((1, 1, -1), 6, 5),
    ((1, 1, 1, 1, 1), 6, 5),
    ((1, -1, -1, -1, -1), 6, 5),
]


@pytest.mark.parametrize("name,max_m,max_w", list(corpus_cases()))
def test_resolution_table_equals_lie_model_table_on_corpus(corpus, name, max_m, max_w):
    p = corpus[name]
    assert ext_table(p, max_m, max_w) == homotopy_table(build_model(p, max_m, max_w))


@pytest.mark.parametrize("token,max_m,max_w", GENERATED)
def test_resolution_table_equals_lie_model_table_on_generated(token, max_m, max_w):
    p = generated(token)
    table = ext_table(p, max_m, max_w)
    assert table == homotopy_table(build_model(p, max_m, max_w))
    assert table.entries or table.pi1_pieces


@pytest.mark.parametrize("signs,max_m,max_w", FOUR_MANIFOLDS)
def test_resolution_table_equals_lie_model_table_on_four_manifolds(signs, max_m, max_w):
    p = four_manifold(signs)
    table = ext_table(p, max_m, max_w)
    assert table == homotopy_table(build_model(p, max_m, max_w))
    assert table.entries
    # the cutoffs put Ext in the top corner
    assert (max_w, 2 * max_w, ()) in ext_dims(p, max_m - 1, max_w)


@pytest.mark.parametrize("name", SIMPLY_CONNECTED)
def test_hurewicz_image_equals_the_lie_model_kernel(corpus, name):
    model = build_model(corpus[name], 7, 6)
    for m in range(2, 8):
        assert hurewicz_image(corpus[name], m) == hurewicz_rank(model, m)[1]


def test_resolution_table_refuses_like_the_lie_model(corpus):
    bad = AlgebraPresentation("bad", [("e", 0), ("a", 2), ("t", 3)], "e", {("a", "a"): {"t": 1}})
    with pytest.raises(InvalidInputError):
        ext_table(bad, 1, 0)
    with pytest.raises(CutoffTooSmallError):
        ext_table(corpus["s2"], 1, 3)
    with pytest.raises(CutoffTooSmallError):
        ext_table(corpus["s2"], 4, 0)
    with pytest.raises(CutoffExceededError):
        ext_table(corpus["s2"], 6, 4)
    assert not ext_table(corpus["torus"], 6, 2).complete


# ---------------------------------------------------------------------------
# cutoff restriction


def assert_cutoff_restriction(p, max_r, max_w):
    """Ext in a window is the restriction of Ext in a larger one."""
    larger = ext_dims(p, max_r + 1, max_w + 1)
    restricted = {(s, t, chi): d for (s, t, chi), d in larger.items() if s <= max_w and t - s <= max_r}
    assert ext_dims(p, max_r, max_w) == restricted


@pytest.mark.parametrize("name,max_m,max_w", list(corpus_cases()))
def test_ext_is_the_restriction_of_a_larger_window_on_corpus(corpus, name, max_m, max_w):
    assert_cutoff_restriction(corpus[name], max_m - 1, max_w)


@pytest.mark.parametrize("token,max_m,max_w", GENERATED)
def test_ext_is_the_restriction_of_a_larger_window_on_generated(token, max_m, max_w):
    assert_cutoff_restriction(generated(token), max_m - 1, max_w)


@pytest.mark.parametrize("signs,max_m,max_w", FOUR_MANIFOLDS)
def test_ext_is_the_restriction_of_a_larger_window_on_four_manifolds(signs, max_m, max_w):
    assert_cutoff_restriction(four_manifold(signs), max_m - 1, max_w)


# ---------------------------------------------------------------------------
# Ext of a rescaled product


def scaled(p, factor):
    """p with every product of two positive classes multiplied by factor.

    x -> x / factor is an isomorphism of augmented algebras onto it, so Ext
    does not change.
    """
    products = {
        (a, b): terms if p.unit_id in (a, b) else {t: factor * c for t, c in terms.items()}
        for (a, b), terms in p.products.items()
    }
    basis = [(e.ident, e.degree, e.character) for e in p.basis]
    return AlgebraPresentation(p.name, basis, p.unit_id, products, p.lattice)


def assert_ext_unchanged_by_scaling(p, max_m, max_w):
    dims = ext_dims(p, max_m - 1, max_w)
    for factor in [2, Fraction(-1, 3), Fraction(7, 5), Fraction(1, 725760)]:
        assert ext_dims(scaled(p, factor), max_m - 1, max_w) == dims


@pytest.mark.parametrize("name,max_m,max_w", list(corpus_cases()))
def test_ext_is_unchanged_by_scaling_the_products_on_corpus(corpus, name, max_m, max_w):
    assert_ext_unchanged_by_scaling(corpus[name], max_m, max_w)


@pytest.mark.parametrize("token,max_m,max_w", GENERATED)
def test_ext_is_unchanged_by_scaling_the_products_on_generated(token, max_m, max_w):
    assert_ext_unchanged_by_scaling(generated(token), max_m, max_w)


def test_ext_of_rational_variants_equals_the_unit_basis():
    dims = ext_dims(generated("s2^4"), 5, 5)
    assert dims
    assert ext_dims(generated("s2^4~r0"), 5, 5) == dims
    assert ext_dims(generated("s2^4~r1"), 5, 5) == dims


# ---------------------------------------------------------------------------
# Ext of the same algebra in a new basis


def triangular_rebased(p, rng):
    """p in the basis x' = d_x x + sum u_xy y, y over the earlier classes of
    x's (degree, character) block, with seeded rationals d_x != 0 and u_xy.

    That is a unipotent change of basis in each block after a diagonal one;
    the unit keeps d = 1.  Products are written back in the new basis by
    peeling off the last class first: x' has no coordinate at a later class.
    """
    ids = [e.ident for e in p.basis]
    blocks: dict = {}
    for e in p.basis:
        blocks.setdefault((e.degree, e.character), []).append(e.ident)
    old = {}  # x' in the old basis
    for block in blocks.values():
        for i, x in enumerate(block):
            d = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 5))
            old[x] = {x: Fraction(1) if x == p.unit_id else d}
            for y in block[:i]:
                if u := Fraction(rng.randint(-3, 3), rng.randint(1, 5)):
                    old[x][y] = u

    def new(v):
        v, out = dict(v), {}
        for x in reversed(ids):
            if c := v.get(x, 0):
                out[x] = c = c / old[x][x]
                for y, u in old[x].items():
                    v[y] = v.get(y, 0) - c * u
        return out

    products = {}
    for i, a in enumerate(ids):
        for b in ids[i:]:
            if p.unit_id in (a, b):
                continue
            ab: dict = {}
            for x, cx in old[a].items():
                for y, cy in old[b].items():
                    for t, c in p.table[x].get(y, {}).items():
                        ab[t] = ab.get(t, 0) + cx * cy * c
            if terms := new(ab):
                products[(a, b)] = terms
    basis = [(e.ident, e.degree, e.character) for e in p.basis]
    return AlgebraPresentation(p.name, basis, p.unit_id, products, p.lattice)


def assert_ext_table_unchanged_by_rebasing(p, max_m, max_w):
    q = triangular_rebased(p, random.Random(p.name))
    assert validate_algebra(q).ok
    assert ext_table(q, max_m, max_w) == ext_table(p, max_m, max_w)


def test_a_triangular_rebasing_changes_the_products(corpus):
    for p in [*corpus.values(), generated("s2^4"), generated("sigma2")]:
        if not p.products:
            continue
        q = triangular_rebased(p, random.Random(p.name))
        assert q.products != p.products, p.name
        assert any(type(c) is Fraction for terms in q.products.values() for c in terms.values()), p.name


@pytest.mark.parametrize("name,max_m,max_w", list(corpus_cases()))
def test_ext_table_is_unchanged_by_a_triangular_rebasing_on_corpus(corpus, name, max_m, max_w):
    assert_ext_table_unchanged_by_rebasing(corpus[name], max_m, max_w)


@pytest.mark.parametrize("token,max_m,max_w", GENERATED)
def test_ext_table_is_unchanged_by_a_triangular_rebasing_on_generated(token, max_m, max_w):
    assert_ext_table_unchanged_by_rebasing(generated(token), max_m, max_w)


# ---------------------------------------------------------------------------
# the Euler characteristic of the resolution


def inverse_hilbert_series(p, top):
    """{(t, chi): c} for the coefficients of 1/H_A up to degree top, where
    H_A = sum dim A_(d, chi) z^d u^chi; the u^chi multiply in the lattice."""
    hilbert: dict = {}
    for e in p.basis:
        if e.degree:
            hilbert[(e.degree, e.character)] = hilbert.get((e.degree, e.character), 0) + 1
    inverse = {(0, p.lattice.zero()): 1}
    for t in range(1, top + 1):
        for (d, chi), h in hilbert.items():
            for (u, psi), c in list(inverse.items()):
                if d + u == t:
                    key = (t, p.lattice.add(chi, psi))
                    inverse[key] = inverse.get(key, 0) - h * c
    return {key: c for key, c in inverse.items() if c}


def assert_euler_characteristic_is_the_inverse_series(p, max_r, max_w):
    """sum_s (-1)^s dim B_(s, t, chi) is the (t, chi) coefficient of 1/H_A at
    every t where the window holds every level: t <= min(max_w, max_r + 1)."""
    top = min(max_w, max_r + 1)
    euler = {(0, p.lattice.zero()): 1}  # B_0 = Q
    for (s, t, chi), d in ext_dims(p, max_r, max_w).items():
        if t <= top:
            euler[(t, chi)] = euler.get((t, chi), 0) + (-1) ** s * d
    assert {key: c for key, c in euler.items() if c} == inverse_hilbert_series(p, top)


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_euler_characteristic_is_the_inverse_hilbert_series_on_corpus(corpus, name):
    assert_euler_characteristic_is_the_inverse_series(corpus[name], 6, 6)


@pytest.mark.parametrize("token,max_m,max_w", GENERATED)
def test_euler_characteristic_is_the_inverse_hilbert_series_on_generated(token, max_m, max_w):
    assert_euler_characteristic_is_the_inverse_series(generated(token), max_m - 1, max_w)


@pytest.mark.parametrize("signs,max_m,max_w", FOUR_MANIFOLDS)
def test_euler_characteristic_is_the_inverse_hilbert_series_on_four_manifolds(signs, max_m, max_w):
    assert_euler_characteristic_is_the_inverse_series(four_manifold(signs), max_m - 1, max_w)
