import io
import random
from collections import Counter
from fractions import Fraction

import pytest

from formalpi.errors import InvalidInputError, OutOfRangeError
from formalpi import ss_engine
from formalpi.cli import run
from formalpi.exactlin import RationalMatrix, SubspaceBasis, homology_dim
from formalpi.free_lie import slot_dims
from formalpi.quillen_weight import build_model, homotopy_table
from formalpi.ss_engine import (
    DegenerationReport,
    FilteredComplex,
    _pairs,
    check_degeneration,
    filtered_from_model,
    page,
)

from conftest import ALL_CORPUS, corpus_path
from oracles import dense_inverse, dense_preimage, dense_rows, from_rows, gauss_rank


def two_step_example():
    dims = {1: 1, 0: 1}
    diffs = {1: from_rows([[1]])}
    return FilteredComplex(dims, diffs, {1: (0,), 0: (1,)})


def test_two_step_example_pages():
    fc = two_step_example()
    p1 = page(fc, 1)
    assert p1.dims == {(1, 2): 1, (2, 2): 1}
    d1 = p1.d(1, 2)
    assert (d1.rows, d1.cols) == (1, 1) and not d1.is_zero()
    assert page(fc, 2).dims == {}
    assert page(fc, fc.max_level + 1).dims == {}


def test_two_step_example_degeneration():
    fc = two_step_example()
    rep1 = check_degeneration(fc, 1, 4)
    assert not rep1.degenerate
    assert rep1.first_failure == (1, 1, 2)
    rep2 = check_degeneration(fc, 2, 4)
    assert rep2.degenerate and rep2.first_failure is None


def test_trivial_filtration_is_homology():
    d2 = from_rows([[1], [0]])  # Q -> Q^2, rank 1
    fc = FilteredComplex({2: 1, 1: 2, 0: 1}, {2: d2, 1: RationalMatrix.zero(1, 2)})
    p1 = page(fc, 1)
    # H_2 = 0, H_1 = 1, H_0 = 1
    assert p1.dims == {(1, 2): 1, (1, 1): 1}
    assert all(m.is_zero() for m in p1.differentials.values())
    assert check_degeneration(fc, 1, 3).degenerate
    assert page(fc, fc.max_level + 1).dims == {(1, 2): 1, (1, 1): 1}


def test_validation_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        FilteredComplex({1: 1, 0: 1}, {1: from_rows([[1], [0]])})
    good = from_rows([[1]])
    with pytest.raises(InvalidInputError, match="negative level at degree 0"):
        FilteredComplex({1: 1, 0: 1}, {1: good}, {1: (0,), 0: (-1,)})
    with pytest.raises(InvalidInputError, match="levels at degree 1 has 2 entries"):
        FilteredComplex({1: 1, 0: 1}, {1: good}, {1: (0, 0)})
    # d(F^1) must stay inside F^1: here F^1 in degree 0 is zero while d is onto
    with pytest.raises(InvalidInputError, match=r"does not preserve F\^1 at degree 1"):
        FilteredComplex({1: 1, 0: 1}, {1: good}, {1: (1,), 0: (0,)})
    # the first stage that d leaves: F^2, since d F^1 = d F^3 lands in F^1
    with pytest.raises(InvalidInputError, match=r"does not preserve F\^2 at degree 1"):
        FilteredComplex({1: 1, 0: 1}, {1: good}, {1: (3,), 0: (1,)})
    # d^2 = 0 enforced
    two = from_rows([[1]])
    with pytest.raises(InvalidInputError):
        FilteredComplex({2: 1, 1: 1, 0: 1}, {2: two, 1: two})
    with pytest.raises(OutOfRangeError):
        page(two_step_example(), 0)


@pytest.fixture(scope="module")
def cp2_setup(corpus):
    model = build_model(corpus["cp2"], 8, 7)
    return model, filtered_from_model(model)


def test_model_filtration_shape(cp2_setup):
    model, fc = cp2_setup
    # degree n collects all weight blocks of reduced degree n
    b = model.basis
    for n in fc.degrees():
        expected = sum(
            b.slot_dim(r, w, c)
            for (r, w, c) in b.slot_keys()
            if r == n and w <= model.max_w + 1
        )
        assert fc.dim(n) == expected


def dense_unit_filtration(model):
    """F^p per degree, spanned by dense unit vectors of the words of weight > p.

    The coordinates are laid out as in filtered_from_model: per reduced
    degree, slot blocks in (weight, character) order up to one weight past
    the window.
    """
    b = model.basis
    w_top = model.max_w + 1
    layout = {}
    for r, w, char in b.slot_keys():
        if w <= w_top:
            layout.setdefault(r, []).append((w, char, b.slot_dim(r, w, char)))
    out = {}
    for n, blocks in layout.items():
        blocks.sort(key=lambda t: (t[0], t[1]))
        dim = sum(k for _, _, k in blocks)
        levels = []
        for p in range(w_top + 1):
            vecs, at = [], 0
            for w, _, k in blocks:
                for i in range(at, at + k):
                    if w > p:
                        vecs.append(tuple(Fraction(1 if j == i else 0) for j in range(dim)))
                at += k
            levels.append(SubspaceBasis.from_vectors(vecs, dim))
        out[n] = tuple(levels)
    return out


def stage(fc, n, s):
    """F^s C_n of fc, spanned by the unit vectors of the basis vectors of level >= s."""
    units = [{i: 1} for i, level in enumerate(fc.levels.get(n, ())) if level >= s]
    return SubspaceBasis.from_vectors(units, fc.dim(n))


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_model_filtration_equals_dense_unit_vector_construction(corpus, name):
    model = build_model(corpus[name], 5, 4)
    fc = filtered_from_model(model)
    expected = dense_unit_filtration(model)
    assert set(fc.degrees()) == set(expected)
    for n, stages in expected.items():
        assert tuple(stage(fc, n, p) for p in range(len(stages))) == stages, n


def test_model_e1_is_free_lie_dims(cp2_setup):
    """E_1 at (p, q) = (w, w + r) is the free Lie slot of weight w and reduced degree r."""
    model, fc = cp2_setup
    b = model.basis
    expected = {}
    for (r, w, _), d in slot_dims(b.gens, b.max_r, model.max_w).items():
        expected[(w, w + r)] = expected.get((w, w + r), 0) + d
    got = {(p, q): d for (p, q), d in page(fc, 1).dims.items() if p <= model.max_w}
    assert got == {k: v for k, v in expected.items() if v}


def test_model_d1_transports_differential(cp2_setup):
    model, fc = cp2_setup
    p1 = page(fc, 1)
    d = p1.differentials[(1, 4)]  # the generator dual to the degree-4 class
    assert d.entries == {(0, 0): Fraction(-1, 2)}


def test_model_e2_matches_homotopy_table(cp2_setup):
    model, fc = cp2_setup
    table = homotopy_table(model)
    p2 = page(fc, 2)
    seen = {}
    for (m, w, _), v in table.entries.items():
        key = (w, w + m - 1)
        seen[key] = seen.get(key, 0) + v
    published = {
        (p, q): v
        for (p, q), v in p2.dims.items()
        # the reporting window: weight within max_w, reduced degree within max_m-1
        if p <= model.max_w and q - p <= model.max_m - 1
    }
    assert {k: v for k, v in seen.items() if v} == published
    assert check_degeneration(fc, 2, 6).degenerate


def test_model_einfinity_equals_e2(cp2_setup):
    model, fc = cp2_setup
    assert page(fc, fc.max_level + 1).dims == page(fc, 2).dims


def total_homology_dims(fc):
    out = {}
    degrees = fc.degrees()
    if not degrees:
        return out
    span = range(min(degrees) - 1, max(degrees) + 2)
    for n in span:
        c = fc.dim(n)
        if c == 0:
            continue
        rank_out = gauss_rank(dense_rows(fc.d(n))) if fc.dim(n - 1) else 0
        rank_in = gauss_rank(dense_rows(fc.d(n + 1))) if fc.dim(n + 1) else 0
        h = c - rank_out - rank_in
        if h:
            out[n] = h
    return out


def assert_ss_invariants(fc, r_span=4):
    """Shared checks: E_infinity sums to total homology; pages step by homology."""
    inf = page(fc, fc.max_level + 1).dims
    collapsed = {}
    for (p, q), d in inf.items():
        collapsed[q - p] = collapsed.get(q - p, 0) + d
    assert collapsed == total_homology_dims(fc)
    prev = page(fc, 1)
    for r in range(1, r_span + 1):
        nxt = page(fc, r + 1)
        slots = set(prev.dims) | {
            (p - r, q - r + 1) for (p, q) in prev.dims
        }
        for p, q in slots:
            h = homology_dim(prev.d(p - r, q - r + 1), prev.d(p, q))
            assert h == nxt.dim(p, q), (r, p, q)
        prev = nxt


def test_invariants_on_worked_examples(cp2_setup):
    assert_ss_invariants(two_step_example())
    _, fc = cp2_setup
    assert_ss_invariants(fc)


# -- random filtered complexes ------------------------------------------------


def random_matching(rng, max_degree=3, max_dim=4, max_levels=3):
    """Random levelled coordinates and a matching differential on them.

    Returns (dims, levels, pairs): levels[n][i] < max_levels is the level of
    basis vector i of C_n, and each (n, i, j) in pairs sends vector i of C_n
    to vector j of C_(n-1), of no lower level.  Every vector is in at most one
    pair, so d^2 = 0 and the coordinate filtration is preserved.
    """
    degrees = list(range(0, max_degree + 1))
    dims = {n: rng.randint(0, max_dim) for n in degrees}
    levels = {n: [rng.randrange(max_levels) for _ in range(dims[n])] for n in degrees}

    used = {n: set() for n in degrees}
    pairs = []
    for n in degrees:
        if n - 1 not in dims:
            continue
        for i in range(dims[n]):
            if i in used[n] or rng.random() < 0.35:
                continue
            candidates = [
                j
                for j in range(dims[n - 1])
                if j not in used[n - 1] and levels[n - 1][j] >= levels[n][i]
            ]
            if not candidates:
                continue
            j = rng.choice(candidates)
            used[n].add(i)
            used[n - 1].add(j)
            pairs.append((n, i, j))
    return dims, levels, pairs


def conjugated_complex(rng, dims, levels, pairs):
    """The matching complex with random coefficients, in a random adapted basis.

    d sends each pair's source to a random multiple of its target; then d is
    conjugated by a level-unipotent change of basis, which adds to each basis
    vector only coordinates of higher level and so fixes every F^s.  The
    filtration stays the coordinate one of levels; d is no longer a matching.
    """
    degrees = list(dims)
    coeff = lambda: Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2]))
    diff_rows = {
        n: [[Fraction(0)] * dims[n] for _ in range(dims.get(n - 1, 0))] for n in degrees
    }
    for n, i, j in pairs:
        diff_rows[n][j][i] = coeff()

    basis_change = {}
    for n in degrees:
        k = dims[n]
        rows = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(k):
                if levels[n][i] > levels[n][j] and rng.random() < 0.5:
                    rows[i][j] = coeff()
        basis_change[n] = rows

    def matmul_rows(a, b):
        return [
            [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    differentials = {}
    for n in degrees:
        if dims.get(n - 1, 0) == 0 or dims[n] == 0:
            continue
        rows = matmul_rows(
            matmul_rows(basis_change[n - 1], diff_rows[n]),
            dense_inverse(basis_change[n]),
        )
        differentials[n] = from_rows(rows)

    return FilteredComplex(dims, differentials, levels)


def random_filtered_complex(rng, max_degree=3, max_dim=4, max_levels=3):
    """A valid random filtered complex: a conjugated random matching."""
    return conjugated_complex(rng, *random_matching(rng, max_degree, max_dim, max_levels))


def matching_page_dims(levels, pairs, r):
    """dim E_r of a matching complex, by slot, in closed form.

    A pair x -> y with level gap g = level(y) - level(x) is present in E_r, at
    both ends, exactly for r <= g; an unmatched vector lives on every page.
    """
    dims = {}

    def count(n, level):
        slot = (level + 1, level + 1 + n)
        dims[slot] = dims.get(slot, 0) + 1

    matched = {(n, i) for n, i, _ in pairs} | {(n - 1, j) for n, _, j in pairs}
    for n, lv in levels.items():
        for i, level in enumerate(lv):
            if (n, i) not in matched:
                count(n, level)
    for n, i, j in pairs:
        if levels[n - 1][j] - levels[n][i] >= r:
            count(n, levels[n][i])
            count(n - 1, levels[n - 1][j])
    return dims


def test_pages_of_conjugated_matchings_have_closed_form():
    rng = random.Random(20261021)
    built = 0
    while built < 200:
        dims, levels, pairs = random_matching(rng, max_levels=5)
        if not any(dims.values()):
            continue
        fc = conjugated_complex(rng, dims, levels, pairs)
        for r in range(1, 7):
            assert page(fc, r).dims == matching_page_dims(levels, pairs, r), (built, r)
        built += 1


def test_random_filtered_complexes_smoke():
    rng = random.Random(20260814)
    built = 0
    while built < 12:
        fc = random_filtered_complex(rng)
        if not fc.degrees():
            continue
        assert_ss_invariants(fc)
        built += 1


def test_pages_out_of_order_match_fresh_complexes(corpus):
    """Pages and degeneration reports do not depend on what was computed before.

    Each page is memoized on its complex; here one complex is asked for pages
    out of order and with repeats, and every answer is compared with the same
    page of a freshly built, identical complex.
    """
    rng = random.Random(20261018)
    makers = []
    while len(makers) < 8:
        state = rng.getstate()
        if random_filtered_complex(rng).degrees():
            makers.append(lambda state=state: random_filtered_complex(_rng_at(state)))
    wedge = build_model(corpus["wedge_s2_s2"], 5, 5)
    makers.append(lambda: filtered_from_model(wedge))
    for make in makers:
        shared = make()
        for r in (3, 1, 5, 2, 1, 3, 7):
            got, fresh = page(shared, r), page(make(), r)
            assert got.dims == fresh.dims
            assert got.differentials == fresh.differentials
            assert page(shared, r) is got
        for r0, r_max in ((2, 6), (1, 3), (2, 6)):
            assert check_degeneration(shared, r0, r_max) == check_degeneration(make(), r0, r_max)


def scanned_degeneration(fc, r0, r_max):
    """The verdict by scanning every d_r for r0 <= r <= r_max, then freezing the dims."""
    first_failure = None
    for r in range(r0, r_max + 1):
        nonzero = [slot for slot, m in sorted(page(fc, r).differentials.items()) if not m.is_zero()]
        if nonzero:
            first_failure = (r, *nonzero[0])
            break
    frozen = page(fc, r0).dims == page(fc, r_max + 1).dims
    return DegenerationReport(r0, r_max, first_failure is None and frozen, first_failure)


DEGENERATION_RANGES = ((1, 3), (2, 6), (3, 5))


def test_degeneration_verdict_equals_the_scan_of_every_differential(corpus):
    """Two pages decide the verdict; the witness is the scan's first nonzero d_r."""
    makers = []
    for name in ALL_CORPUS:
        deep = name in ("torus", "char_pair")
        model = build_model(corpus[name], 4 if deep else 5, 3 if deep else 4)
        makers.append(lambda model=model: filtered_from_model(model))
    rng = random.Random(20261020)
    while len(makers) < len(ALL_CORPUS) + 40:
        # five levels, so that d_3 and later can be nonzero
        state = rng.getstate()
        if random_filtered_complex(rng, max_levels=5).degrees():
            makers.append(
                lambda state=state: random_filtered_complex(_rng_at(state), max_levels=5)
            )
    failed_ranges = set()
    for make in makers:
        for r0, r_max in DEGENERATION_RANGES:
            got = check_degeneration(make(), r0, r_max)
            assert got == scanned_degeneration(make(), r0, r_max)
            if not got.degenerate:
                failed_ranges.add((r0, r_max))
    assert failed_ranges == set(DEGENERATION_RANGES)


def test_degenerate_verdict_builds_two_pages(corpus):
    for name in ("s2", "cp2", "wedge_s2_s2", "rand_formal_1"):
        fc = filtered_from_model(build_model(corpus[name], 5, 4))
        assert check_degeneration(fc, 2, 6).degenerate, name
        assert {key[1] for key in fc._cache if key[0] == "page"} == {2, 7}, name


def _rng_at(state):
    rng = random.Random()
    rng.setstate(state)
    return rng


def dense_approx(fc, s, t, n):
    """The RREF rows of {x in F^s C_n : d x in F^t C_(n-1)}, by a dense solve."""
    return dense_preimage(
        dense_rows(fc.d(n)),
        fc.dim(n),
        list(stage(fc, n - 1, t).vectors),
        list(stage(fc, n, s).vectors),
    )


def dense_image(fc, key):
    """d A in C_(n-1) for the approximation A of key (s, t, n), by dense products."""
    rows = dense_rows(fc.d(key[2]))
    vectors = [[sum(a * x for a, x in zip(row, v)) for row in rows] for v in dense_approx(fc, *key)]
    return SubspaceBasis.from_vectors(vectors, fc.dim(key[2] - 1))


def textbook_page_dims(fc, r):
    """dim E_r by slot, as the quotient of dense approximation subspaces.

    E_r(s, n) = A_r(s, n) / (A_(r-1)(s+1, n) + d A_(r-1)(s-r+1, n+1)) with
    A_r(s, n) = {x in F^s C_n : d x in F^(s+r) C_(n-1)}; the boundary source
    stage clamps at 0 while its landing condition stays F^s.
    """
    dims = {}
    for n in fc.degrees():
        for s in range(fc.max_level):
            cycles = dense_approx(fc, s, s + r, n)
            spanning = [
                *dense_approx(fc, s + 1, s + r, n),
                *dense_image(fc, (max(s - r + 1, 0), s, n + 1)).vectors,
            ]
            dim = len(cycles) - SubspaceBasis.from_vectors(spanning, fc.dim(n)).dim
            if dim:
                dims[(s + 1, s + 1 + n)] = dim
    return dims


def test_page_dims_are_the_textbook_quotients():
    """Every page up to E_(L+1) of conjugated complexes, against dense subspaces."""
    rng = random.Random(20261019)
    built = 0
    while built < 30:
        fc = random_filtered_complex(rng, max_levels=5)
        if not fc.degrees():
            continue
        for r in range(1, fc.max_level + 2):
            assert page(fc, r).dims == textbook_page_dims(fc, r), (built, r)
        built += 1


def test_pairs_of_a_conjugated_matching_are_its_bars():
    """_pairs gives back the matching's (degree, source level, gap), with multiplicity.

    The level-unipotent change of basis moves the matched vectors but not
    the bars: each pair's degree and the levels at its two ends.
    """
    rng = random.Random(20261022)
    built = 0
    while built < 200:
        dims, levels, pairs = random_matching(rng, max_levels=5)
        if not any(dims.values()):
            continue
        fc = conjugated_complex(rng, dims, levels, pairs)
        got = Counter(
            (n, fc.levels[n][j], fc.levels[n - 1][i] - fc.levels[n][j])
            for n in fc.degrees()
            for i, j, _ in _pairs(fc, n)
        )
        bars = Counter((n, levels[n][i], levels[n - 1][j] - levels[n][i]) for n, i, j in pairs)
        assert got == bars, built
        built += 1


def test_each_degree_is_reduced_once_per_ss_run(monkeypatch):
    """One ss --check-degeneration run builds two pages on one reduction per degree."""
    reductions, complexes = [], []
    monkeypatch.setattr(ss_engine, "_Echelon", _recording(ss_engine._Echelon, reductions))
    monkeypatch.setattr(
        ss_engine, "filtered_from_model", _recording(ss_engine.filtered_from_model, complexes)
    )
    argv = ["ss", str(corpus_path("wedge_s2_s2")), "--max-degree", "6", "--check-degeneration"]
    assert run(argv, out=io.StringIO()).exit_status == 0
    (fc,) = [result for _, result in complexes]
    assert {key[1] for key in fc._cache if key[0] == "page"} == {2, fc.max_level + 1}
    assert len(reductions) == len(fc.degrees())
    assert sorted(key[1] for key in fc._cache if key[0] == "pairs") == fc.degrees()


def _recording(fn, calls):
    def recorded(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    return recorded


def test_ss_check_degeneration_reaches_the_page_past_the_filtration(monkeypatch):
    """The CLI verdict compares E_2 with E_(L+1), L = max_level, not with E_7."""
    requested, complexes = [], []
    monkeypatch.setattr(ss_engine, "page", _recording(ss_engine.page, requested))
    monkeypatch.setattr(
        ss_engine, "filtered_from_model", _recording(ss_engine.filtered_from_model, complexes)
    )
    argv = ["ss", str(corpus_path("wedge_s2_s2")), "--max-degree", "8", "--max-weight", "8"]
    argv.append("--check-degeneration")
    out = io.StringIO()
    assert run(argv, out=out).exit_status == 0
    assert out.getvalue().endswith("degenerate from page 2: true\n")
    (fc,) = [result for _, result in complexes]
    assert fc.max_level > 7
    assert fc.max_level + 1 in {args[1] for args, _ in requested}


def test_a_late_differential_is_found_past_page_seven():
    """Complexes whose only nonzero d_r have r >= 7, in a random adapted basis.

    Only the pairs of a random matching with a level gap of at least 7 are
    kept, so pages 2 to 7 agree and the range (2, 6) reads degenerate; the
    range up to the filtration length finds the first late d_r.
    """
    rng = random.Random(20261023)
    built = 0
    while built < 20:
        dims, levels, pairs = random_matching(rng, max_levels=10)
        late = [(n, i, j) for n, i, j in pairs if levels[n - 1][j] - levels[n][i] >= 7]
        if not late:
            continue
        fc = conjugated_complex(rng, dims, levels, late)
        assert check_degeneration(fc, 2, 6).degenerate
        r_max = max(2, fc.max_level)
        got = check_degeneration(fc, 2, r_max)
        assert not got.degenerate and got.first_failure[0] >= 7
        assert got == scanned_degeneration(fc, 2, r_max)
        built += 1
