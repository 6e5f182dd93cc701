"""Acceptance suite: one test per shipped guarantee, exact arithmetic throughout.

Each test is self-contained enough to read as a statement of the guarantee:
golden homotopy tables, agreement of the two independent pipelines, weight
spectral sequence degeneration, index translations, brute-force Lie ranks,
differential well-formedness, denormalization round trips and level algebras,
spectral-sequence fuzzing, Hurewicz ranks, and character supports.
"""

import io
import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from formalpi.cli import run
from formalpi.dold_kan import (
    algebra_from_presentation,
    check_cosimplicial_identities,
    complexes_agree,
    denormalize,
    denormalize_algebra,
    levelwise_algebra_violations,
    normalize,
    random_cochain_complex,
    structure_map_violations,
)
from formalpi.free_lie import FreeLieBasis, Generator, GeneratorSet
from formalpi.quillen_weight import (
    _slot_homology,
    build_model,
    homotopy_table,
    hurewicz_rank,
    supports,
)
from formalpi.ss_engine import check_degeneration, filtered_from_model, page
from formalpi.sullivan_oracle import minimal_model

from conftest import ALL_CORPUS, CHARACTER_CORPUS, SIMPLY_CONNECTED, corpus_path
from oracles import brute_lie_slot_rank, dense_rows, divisors, gauss_rank, mobius
from test_quillen_weight import derivation_samples
from test_resolution import GENERATED, bench_gen, generated
from test_ss_engine import assert_ss_invariants, random_filtered_complex

_MODELS: dict = {}


def model_for(corpus, name, max_m, max_w):
    key = (name, max_m, max_w)
    if key not in _MODELS:
        _MODELS[key] = build_model(corpus[name], max_m, max_w)
    return _MODELS[key]


# -- 1: golden tables ----------------------------------------------------------

GOLDEN = {
    "s2": (10, {2: 1, 3: 1}),
    "s3": (10, {3: 1}),
    "s5": (10, {5: 1}),
    "cp2": (8, {2: 1, 5: 1}),
    "cp3": (8, {2: 1, 7: 1}),
    "wedge_s2_s2": (8, {2: 2, 3: 3, 4: 2, 5: 3, 6: 6, 7: 11, 8: 18}),
}


def test_c01_golden_homotopy_tables(corpus):
    for name, (top, expected) in GOLDEN.items():
        started = time.monotonic()
        model = build_model(corpus[name], top, top - 1)
        table = homotopy_table(model)
        totals = {m: table.total(m) for m in range(2, top + 1)}
        assert totals == {m: expected.get(m, 0) for m in range(2, top + 1)}, name
        # independent pipeline: minimal-model generator counts, degree by degree
        counts = minimal_model(corpus[name], top).generator_counts()
        assert counts == {m: t for m, t in totals.items() if t}, name
        assert time.monotonic() - started < 1.0, name
    # third, fully naive pipeline for the wedge: spans of explicit bracketings
    for m in range(2, 6):
        brute = sum(
            brute_lie_slot_rank((1, 1), m - 1, w) for w in range(1, m)
        )
        assert brute == GOLDEN["wedge_s2_s2"][1][m]


# -- 2: the two pipelines agree on the whole corpus ----------------------------


def test_c02_oracle_equivalence_on_corpus(corpus):
    names = SIMPLY_CONNECTED + ["char_even", "char_torsion"]
    assert len(names) >= 8
    for name in names:
        table = homotopy_table(model_for(corpus, name, 8, 7))
        totals = {m: table.total(m) for m in range(2, 9)}
        counts = minimal_model(corpus[name], 8).generator_counts()
        assert counts == {m: t for m, t in totals.items() if t}, name


# -- 3: weight spectral sequence degenerates and matches the tables ------------


def test_c03_degeneration_and_second_page_dims(corpus):
    for name in ALL_CORPUS:
        # degree-1 classes make weight blocks grow quickly; shrink the window
        deep = name in ("torus", "char_pair")
        model = model_for(corpus, name, 5 if deep else 6, 4 if deep else 5)
        fc = filtered_from_model(model)
        assert check_degeneration(fc, 2, 6).degenerate, name
        table = homotopy_table(model)
        seen: dict = {}
        for (m, w, _), v in table.entries.items():
            key = (w, w + m - 1)
            seen[key] = seen.get(key, 0) + v
        for (w, _), v in table.pi1_pieces.items():
            seen[(w, w)] = seen.get((w, w), 0) + v
        published = {
            (p, q): v
            for (p, q), v in page(fc, 2).dims.items()
            if p <= model.max_w and q - p <= model.max_m - 1
        }
        assert {k: v for k, v in seen.items() if v} == published, name



# the generated families; (S^2)^4 and its two variants at degree 5 and weight 4
GENERATED_WINDOWS = [(t, 5, 4) if t.startswith("s2^4") else (t, m, w) for t, m, w in GENERATED]


@pytest.mark.parametrize("token,max_m,max_w", GENERATED_WINDOWS)
def test_c03_pages_are_read_off_the_model_on_generated_inputs(token, max_m, max_w):
    """Summed over characters, E_1 is the slot dims and E_2 = E_3 the slot homology."""
    model = build_model(generated(token), max_m, max_w)
    fc = filtered_from_model(model)
    assert check_degeneration(fc, 2, 6).degenerate
    window = [(r, w, c) for r, w, c in model.basis.slot_keys() if w <= max_w and r <= max_m - 1]
    for r_page in (1, 2, 3):
        read: dict = {}
        for r, w, char in window:
            if r_page == 1:
                d = model.basis.slot_dim(r, w, char)
            else:
                d = _slot_homology(model, r, w, char)
            read[(w, w + r)] = read.get((w, w + r), 0) + d
        published = {
            (p, q): d for (p, q), d in page(fc, r_page).dims.items() if p <= max_w and q - p <= max_m - 1
        }
        assert published == {k: v for k, v in read.items() if v}, r_page


# -- 4: index translations and first-page dimensions ---------------------------


# ss page 1 on T^3 at degree 4 and weight 6 takes about 3 s, most of it in
# build_model; the other 67 of the 68 cases take about 3 s together
SLOW_TRANSLATIONS = {("t3", 4, 6)}


def test_c04_index_translations(tmp_path):
    """ss page 1 at (p, q) = (w, w + r) is lie-dims at (r + w, w): p and q swap."""
    inputs = {name: corpus_path(name) for name in ALL_CORPUS}
    for token in ("t3", "sigma2_chi", "t2_chi", "wedge_2233", "cp2xcp2"):
        inputs[token] = tmp_path / f"{token}.json"
        inputs[token].write_text(bench_gen.make(token, 7))

    def dims(argv):
        buf = io.StringIO()
        assert run(argv, out=buf).exit_status == 0, argv
        return json.loads(buf.getvalue())["dims"]

    for name, path in inputs.items():
        for max_m, max_w in ((5, 4), (6, 5), (4, 6), (3, 3)):
            if (name, max_m, max_w) in SLOW_TRANSLATIONS:
                continue
            cutoffs = ["--max-degree", str(max_m), "--max-weight", str(max_w), "--json"]
            e1 = dims(["ss", str(path), "--page", "1", *cutoffs])
            lie = dims(["lie-dims", str(path), *cutoffs])
            assert sorted((r["p"], r["q"], r["dim"]) for r in e1) == sorted(
                (r["q"], r["p"], r["dim"]) for r in lie
            ), (name, max_m, max_w)


# -- 5: super-Lyndon dimensions against brute-force spans -----------------------


def witt(k, w):
    return sum(mobius(d) * k ** (w // d) for d in divisors(w)) // w


def test_c05_free_lie_dims_match_brute_force():
    started = time.monotonic()
    rng = random.Random(5)
    for trial in range(10):
        k = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 3) for _ in range(k))
        gens = GeneratorSet(
            tuple(Generator(f"g{j}", degrees[j]) for j in range(k))
        )
        b = FreeLieBasis(gens, max_r=6, max_w=4)
        for w in range(1, 5):
            for r in range(0, 7):
                words = sum(
                    1
                    for seq in product(range(k), repeat=w)
                    if sum(degrees[j] for j in seq) == r
                )
                if not 0 < words <= 12:
                    continue
                assert b.slot_dim(r, w) == brute_lie_slot_rank(degrees, r, w), (
                    trial,
                    degrees,
                    r,
                    w,
                )
    # even parity: no squares, so weight-w dimensions are plain necklace counts
    for k in (1, 2, 3):
        gens = GeneratorSet(tuple(Generator(f"g{j}", 2) for j in range(k)))
        b = FreeLieBasis(gens, max_r=10, max_w=5)
        for w in range(1, 6):
            assert b.slot_dim(2 * w, w) == witt(k, w), (k, w)
    assert time.monotonic() - started < 30.0


# -- 6: the model differential squares to zero and is a derivation -------------


def test_c06_differential_well_formed(corpus):
    for name in ALL_CORPUS:
        pres = corpus[name]
        min_r = min(pres.element(i).degree - 1 for i in pres.positive_ids())
        # window wide enough that at least one bracket pair exists to sample;
        # d out of weight 6 is assembled, so d d composes for every w <= 5
        model = model_for(corpus, name, max(6, 2 * min_r), 6)
        b = model.basis
        for r, w, char in b.slot_keys():
            if r < 2 or w > 5:
                continue
            comp = model.slot_matrix(r - 1, w + 1, char).matmul(
                model.slot_matrix(r, w, char)
            )
            assert comp.is_zero(), (name, r, w, char)
        rng = random.Random(6)
        checked = 0
        for lhs, rhs in derivation_samples(model, rng, 100):
            assert lhs == rhs, name
            checked += 1
        assert checked == 100


# -- 7: denormalization round trips and level algebras --------------------------


def test_c07_denormalization(corpus):
    started = time.monotonic()
    rng = random.Random(7)
    for _ in range(50):
        c = random_cochain_complex(rng, max_degree=4, max_dim=4)
        m = rng.randint(2, 5)
        v = denormalize(c, m)
        assert not check_cosimplicial_identities(v)
        assert complexes_agree(c, normalize(v), m)
    for name, level in (("s2", 4), ("cp2", 4), ("torus", 3), ("char_torsion", 3)):
        ca = denormalize_algebra(algebra_from_presentation(corpus[name]), level)
        assert not check_cosimplicial_identities(ca.vs), name
        assert not levelwise_algebra_violations(ca), name
        assert not structure_map_violations(ca), name
    assert time.monotonic() - started < 30.0


# -- 8: spectral-sequence fuzzing ----------------------------------------------


def test_c08_spectral_sequence_fuzz():
    started = time.monotonic()
    rng = random.Random(8)
    built = 0
    while built < 200:
        fc = random_filtered_complex(rng, max_degree=5, max_dim=4, max_levels=4)
        if not fc.degrees():
            continue
        assert sum(fc.dim(n) for n in fc.degrees()) <= 24
        assert_ss_invariants(fc, r_span=4)
        built += 1
    assert time.monotonic() - started < 60.0


# -- 9: Hurewicz ranks equal the annihilator of decomposables -------------------


def annihilator_rank(pres, m):
    ids = [i for i in pres.positive_ids() if pres.element(i).degree == m]
    if not ids:
        return 0
    index = {ident: j for j, ident in enumerate(ids)}
    rows = []
    for a in pres.positive_ids():
        for b in pres.positive_ids():
            if pres.element(a).degree + pres.element(b).degree != m:
                continue
            vec = [Fraction(0)] * len(ids)
            for ident, c in pres.product(a, b).items():
                vec[index[ident]] = c
            if any(vec):
                rows.append(vec)
    return len(ids) - (gauss_rank(rows) if rows else 0)


def test_c09_hurewicz(corpus):
    for name, n in (("s2", 2), ("s3", 3), ("s5", 5)):
        model = model_for(corpus, name, 8, 7)
        rank, image = hurewicz_rank(model, n)
        h_dim = sum(
            1 for i in corpus[name].positive_ids()
            if corpus[name].element(i).degree == n
        )
        assert rank == 1 == h_dim and image.ambient_dim == 1
    rank4, image4 = hurewicz_rank(model_for(corpus, "cp2", 8, 7), 4)
    assert rank4 == 0 and image4.ambient_dim == 1
    for name in SIMPLY_CONNECTED:
        pres = corpus[name]
        model = model_for(corpus, name, 8, 7)
        for m in range(2, 9):
            rank, image = hurewicz_rank(model, m)
            assert rank == annihilator_rank(pres, m), (name, m)
            # every image vector pairs to zero against every decomposable
            ids = [i for i in pres.positive_ids() if pres.element(i).degree == m]
            index = {ident: j for j, ident in enumerate(ids)}
            for a in pres.positive_ids():
                for b in pres.positive_ids():
                    if pres.element(a).degree + pres.element(b).degree != m:
                        continue
                    prod = pres.product(a, b)
                    for v in image.vectors:
                        pairing = sum(
                            (v[index[ident]] * c for ident, c in prod.items()),
                            Fraction(0),
                        )
                        assert pairing == 0, (name, m, a, b)


# -- 10: character supports ------------------------------------------------------


def character_sumsets(model, max_w):
    lattice = model.generators.lattice
    chars = [g.character for g in model.generators.gens]
    levels = {1: {lattice.reduce(c) for c in chars}}
    for w in range(2, max_w + 1):
        levels[w] = {lattice.add(s, c) for s in levels[w - 1] for c in chars}
    return levels


def naive_slot_homology(model, r, w, char):
    b = model.basis
    d_out = model.slot_matrix(r, w, char)
    rank_out = gauss_rank(dense_rows(d_out))
    rank_in = 0
    if w >= 2:
        rank_in = gauss_rank(dense_rows(model.slot_matrix(r + 1, w - 1, char)))
    return b.slot_dim(r, w, char) - rank_out - rank_in


@pytest.mark.parametrize("name", CHARACTER_CORPUS)
def test_c10_supports(corpus, name):
    model = model_for(corpus, name, 5, 4)
    table = homotopy_table(model)
    for m in range(2, model.max_m + 1):
        direct = {
            char
            for w in range(1, model.max_w + 1)
            for char in model.basis.characters_at(m - 1, w)
            if naive_slot_homology(model, m - 1, w, char) > 0
        }
        assert supports(model, m) == direct, m
    sumsets = character_sumsets(model, model.max_w)
    for (m, w, char), v in table.entries.items():
        assert v > 0 and char in sumsets[w], (m, w, char)
    for (w, char), v in table.pi1_pieces.items():
        assert v > 0 and char in sumsets[w], (w, char)
