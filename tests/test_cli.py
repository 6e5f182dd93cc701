"""Command line behavior: tables, JSON payloads, exit codes, determinism."""

import argparse
import io
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from formalpi import cli, graded_core
from formalpi.cli import parse_presentation, render_json, run
from formalpi.sullivan_oracle import minimal_model

from conftest import ALL_CORPUS, SIMPLY_CONNECTED, corpus_path, examples
from oracles import model_violations, necklace_numbers, surface_group_ranks, torus_pi1_weights


def invoke(argv):
    buf = io.StringIO()
    report = run(argv, out=buf)
    return report.exit_status, buf.getvalue()


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_every_corpus_file_validates(name):
    status, text = invoke(["validate", str(corpus_path(name))])
    assert status == 0
    assert text == "OK\n"


def test_a_listed_unit_product_changes_no_output(tmp_path):
    """cp2 with the product e0 h2 = h2 written out prints what cp2 prints:
    the unit's products are not products of two positive-degree classes."""
    doc = json.loads(corpus_path("cp2").read_text())
    doc["products"].append({"left": "e0", "right": "h2", "result": [{"id": "h2", "coeff": "1"}]})
    listed = tmp_path / "cp2.json"
    listed.write_text(json.dumps(doc))
    for argv in (
        ["validate"],
        ["hurewicz", "--max-degree", "4"],
        ["pi", "--max-degree", "4"],
        ["minimal-model", "--max-degree", "5"],
    ):
        got = invoke([argv[0], str(listed), *argv[1:]])
        assert got == invoke([argv[0], str(corpus_path("cp2")), *argv[1:]]), argv[0]


def test_pi_table_for_two_sphere_golden_bytes():
    status, text = invoke(["pi", str(corpus_path("s2")), "--max-degree", "10"])
    assert status == 0
    lines = text.splitlines()
    assert lines[0] == "m\ttotal\tweights"
    assert lines[1] == "2\t1\t[1]"
    assert lines[2] == "3\t1\t[0,1]"
    assert all(line.split("\t")[1] == "0" for line in lines[3:])
    assert text.endswith("\n") and "\r" not in text


# Sigma_2: a_i b_i = w, every other product of degree-1 classes zero
SIGMA2 = {
    "name": "Sigma2",
    "basis": [{"id": "e0", "degree": 0}]
    + [{"id": x, "degree": 1} for x in ("a0", "a1", "b0", "b1")]
    + [{"id": "w2", "degree": 2}],
    "unit": "e0",
    "products": [
        {"left": f"a{i}", "right": f"b{i}", "result": [{"id": "w2", "coeff": "1"}]}
        for i in range(2)
    ],
}


@pytest.mark.parametrize(
    "genus,argv",
    [
        (1, []),  # corpus/torus.json at the defaults: pi_1 abelian of rank 2
        (2, ["--max-degree", "3", "--max-weight", "5"]),
    ],
)
def test_surface_tables_match_labute(tmp_path, genus, argv):
    path = corpus_path("torus") if genus == 1 else tmp_path / "sigma2.json"
    if genus == 2:
        path.write_text(json.dumps(SIGMA2))
    status, text = invoke(["pi", str(path), "--json"] + argv)
    assert status == 0
    rows = json.loads(text)["rows"]
    ranks = surface_group_ranks(genus, len(rows[0]["weights"]))
    assert rows[0] == {"m": 1, "total": sum(ranks), "weights": ranks}
    assert all(row["total"] == 0 for row in rows[1:])


def torus_doc(k):
    """T^k: the exterior algebra on k degree-1 classes x0..x(k-1)."""
    subsets = [s for n in range(k + 1) for s in combinations(range(k), n)]

    def ident(s):
        return ".".join(f"x{i}" for i in s) or "e"

    products = []
    for i, s in enumerate(subsets[1:], 1):
        for t in subsets[i:]:
            if set(s) & set(t):
                continue
            # sign of the shuffle that sorts the letters of s followed by t
            swaps = sum(1 for a in s for b in t if a > b)
            result = [{"id": ident(sorted(s + t)), "coeff": "-1" if swaps % 2 else "1"}]
            products.append({"left": ident(s), "right": ident(t), "result": result})
    basis = [{"id": ident(s), "degree": len(s)} for s in subsets]
    return {"name": f"T{k}", "basis": basis, "unit": "e", "products": products}


def sphere_power_doc(k):
    """(S^2)^k: x0..x(k-1) in degree 2 with xi^2 = 0; all degrees even, so no signs."""
    subsets = [s for n in range(k + 1) for s in combinations(range(k), n)]

    def ident(s):
        return ".".join(f"x{i}" for i in sorted(s)) or "e"

    products = [
        {"left": ident(s), "right": ident(t), "result": [{"id": ident(s + t), "coeff": "1"}]}
        for i, s in enumerate(subsets[1:], 1)
        for t in subsets[i:]
        if not set(s) & set(t)
    ]
    basis = [{"id": ident(s), "degree": 2 * len(s)} for s in subsets]
    return {"name": f"S2^{k}", "basis": basis, "unit": "e", "products": products}


def wedge_of_circles_doc(k):
    basis = [{"id": "e", "degree": 0}] + [{"id": f"x{i}", "degree": 1} for i in range(k)]
    return {"name": f"wedge{k}", "basis": basis, "unit": "e", "products": []}


@pytest.mark.parametrize(
    "doc, max_w, pi1",
    [
        pytest.param(torus_doc(3), 3, torus_pi1_weights(3, 3), id="T3"),
        pytest.param(wedge_of_circles_doc(2), 6, necklace_numbers(2, 6), id="S1vS1"),
    ],
)
def test_pi1_tables_match_closed_forms(tmp_path, doc, max_w, pi1):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = ["pi", str(path), "--max-degree", "3", "--max-weight", str(max_w), "--json"]
    status, text = invoke(argv)
    assert status == 0
    rows = json.loads(text)["rows"]
    assert rows[0] == {"m": 1, "total": sum(pi1), "weights": pi1}
    assert [row["m"] for row in rows] == [1, 2, 3]
    assert all(row["total"] == 0 for row in rows[1:])


def test_ss_cp2_page_two_with_degeneration():
    status, text = invoke(
        ["ss", str(corpus_path("cp2")), "--page", "2", "--check-degeneration"]
    )
    assert status == 0
    assert text == (
        "p\tq\tdim\n"
        "1\t2\t1\n"
        "2\t6\t1\n"
        "degenerate from page 2: true\n"
    )


def test_ss_of_four_spheres_is_pi2_and_pi3_and_degenerates(tmp_path):
    # (S^2)^4 is formal with pi_2 = Q^4 in weight 1 and pi_3 = Q^4 in weight 2
    # (the Whitehead products of each factor with itself) and nothing else
    path = tmp_path / "s2_4.json"
    path.write_text(json.dumps(sphere_power_doc(4)))
    argv = ["ss", str(path), "--max-degree", "5", "--max-weight", "4", "--check-degeneration"]
    status, text = invoke(argv)
    assert status == 0
    assert text == "p\tq\tdim\n1\t2\t4\n2\t4\t4\ndegenerate from page 2: true\n"


def test_ss_refuses_page_zero_before_building(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("Lie basis built for a page that does not exist")

    monkeypatch.setattr("formalpi.quillen_weight.FreeLieBasis", no_build)
    status, text = invoke(["ss", str(corpus_path("cp2")), "--page", "0"])
    assert status == 1 and text == ""
    assert capsys.readouterr().err == "error [OUT_OF_RANGE]: pages start at r = 1\n"


def test_truncated_banner_on_non_simply_connected():
    status, text = invoke(
        ["pi", str(corpus_path("torus")), "--max-degree", "4", "--max-weight", "5"]
    )
    assert status == 0
    lines = text.splitlines()
    assert lines[0] == "TRUNCATED AT WEIGHT 5"
    assert lines[2] == "1\t2\t[2,0,0,0,0]"
    status, text = invoke(["ss", str(corpus_path("torus")), "--max-degree", "3"])
    assert status == 0
    assert text.splitlines()[0] == "TRUNCATED AT WEIGHT 3"


@pytest.mark.parametrize("name", SIMPLY_CONNECTED)
def test_pi_totals_agree_with_minimal_model_counts(name):
    path = str(corpus_path(name))
    s1, pi_text = invoke(["pi", path, "--max-degree", "7", "--json"])
    s2, mm_text = invoke(["minimal-model", path, "--max-degree", "7", "--json"])
    assert s1 == 0 and s2 == 0
    pi = json.loads(pi_text)
    mm = json.loads(mm_text)
    totals = {row["m"]: row["total"] for row in pi["rows"]}
    assert totals == {int(k): v for k, v in mm["counts"].items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["pi", str(corpus_path("cp2")), "--json"],
        ["supports", str(corpus_path("char_torsion")), "--max-degree", "5", "--json"],
        ["hurewicz", str(corpus_path("s3")), "--json"],
        ["ss", str(corpus_path("s2")), "--page", "1", "--check-degeneration", "--json"],
        ["minimal-model", str(corpus_path("rand_formal_2")), "--max-degree", "6", "--json"],
        ["doldkan", str(corpus_path("s2")), "--level", "3", "--fuzz", "4", "--seed", "11", "--json"],
        ["lie-dims", str(corpus_path("wedge_s2_s2")), "--max-degree", "5", "--max-weight", "4", "--json"],
        ["validate", str(corpus_path("torus")), "--json"],
    ],
    ids=lambda a: a[0],
)
def test_json_payload_round_trips_and_is_deterministic(argv):
    status1, text1 = invoke(argv)
    status2, text2 = invoke(argv)
    assert status1 == status2 == 0
    assert text1 == text2
    assert render_json(json.loads(text1)) == text1


def test_table_output_is_deterministic():
    argv = ["pi", str(corpus_path("wedge_s2_s2")), "--max-degree", "8"]
    assert invoke(argv) == invoke(argv)


def test_exit_code_validation_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "basis": [
                    {"id": "e", "degree": 0},
                    {"id": "a", "degree": 2},
                    {"id": "t", "degree": 3},
                ],
                "unit": "e",
                "products": [
                    {"left": "a", "right": "a", "result": [{"id": "t", "coeff": "1"}]}
                ],
            }
        )
    )
    status, text = invoke(["validate", str(bad)])
    assert status == 1
    assert "DEGREE_MISMATCH" in text


def test_exit_code_schema_and_io_errors(tmp_path):
    status, _ = invoke(["validate", str(tmp_path / "missing.json")])
    assert status == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    status, _ = invoke(["validate", str(garbled)])
    assert status == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"name": "x", "basis": [], "unit": "e"}))
    status, _ = invoke(["validate", str(wrong)])
    assert status == 2
    coeff = tmp_path / "coeff.json"
    coeff.write_text(
        json.dumps(
            {
                "name": "x",
                "basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 2}],
                "unit": "e",
                "products": [
                    {"left": "a", "right": "a", "result": [{"id": "a", "coeff": "0.5"}]}
                ],
            }
        )
    )
    status, _ = invoke(["validate", str(coeff)])
    assert status == 2


def test_exit_code_cutoff_exceeded():
    status, _ = invoke(
        ["pi", str(corpus_path("s2")), "--max-degree", "8", "--max-weight", "3"]
    )
    assert status == 3


def test_exit_code_library_errors_map_to_one():
    status, _ = invoke(["minimal-model", str(corpus_path("torus"))])
    assert status == 1
    status, _ = invoke(["hurewicz", str(corpus_path("torus")), "--max-degree", "4"])
    assert status == 1


def test_argparse_exits():
    status, _ = invoke(["no-such-command", "x.json"])
    assert status == 2
    status, _ = invoke(["--help"])
    assert status == 0


@pytest.fixture
def fresh_parser():
    """Forget the shared parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_tree_is_built_once_per_process(monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert invoke(["validate", str(corpus_path("s2"))]) == (0, "OK\n")
    status, text = invoke(["pi", str(corpus_path("s2")), "--max-degree", "3"])
    assert status == 0 and text.startswith("m\ttotal\tweights\n")
    # one root and one subparser per command, all from the first call
    assert built.count("formalpi") == 1
    assert len(built) == 1 + len(cli._COMMANDS)


def test_shared_parser_prints_on_the_current_streams(capsys, fresh_parser):
    with capsys.disabled():  # the parser is built while other streams are current
        assert invoke(["validate", str(corpus_path("s2"))]) == (0, "OK\n")
    assert invoke(["no-such-command", "x.json"]) == (2, "")
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: formalpi [-h]")
    assert "invalid choice: 'no-such-command'" in err
    assert invoke(["--help"]) == (0, "")
    out, err = capsys.readouterr()
    assert out.startswith("usage: formalpi [-h]")
    assert "Weight-graded rational homotopy of formal spaces." in out
    assert err == ""
    assert invoke(["doldkan", "--help"]) == (0, "")
    out, err = capsys.readouterr()
    assert out.startswith("usage: formalpi doldkan [-h]") and "--fuzz FUZZ" in out
    assert err == ""


def test_hurewicz_refuses_incomplete_input_before_building(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("build_model called on an incomplete input")

    monkeypatch.setattr("formalpi.quillen_weight.build_model", no_build)
    status, text = invoke(["hurewicz", str(corpus_path("torus")), "--max-degree", "5"])
    assert status == 1 and text == ""
    assert "error [NOT_COMPLETE]" in capsys.readouterr().err


def test_hurewicz_reports_invalid_input_before_building(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("Lie basis built for an invalid input")

    monkeypatch.setattr("formalpi.quillen_weight.FreeLieBasis", no_build)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INVALID_DEGREE_TWO))
    status, text = invoke(["hurewicz", str(bad)])
    assert status == 1
    assert "DEGREE_MISMATCH" in text


# a*a lands in degree 3, not 4
INVALID_DEGREE_TWO = {
    "basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 2}, {"id": "t", "degree": 3}],
    "unit": "e",
    "products": [{"left": "a", "right": "a", "result": [{"id": "t", "coeff": "1"}]}],
}
# a*b lands in degree 3, not 2, and a is a degree-1 class
INVALID_DEGREE_ONE = {
    "basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 1}, {"id": "b", "degree": 1},
              {"id": "t", "degree": 3}],
    "unit": "e",
    "products": [{"left": "a", "right": "b", "result": [{"id": "t", "coeff": "1"}]}],
}


@pytest.mark.parametrize(
    "doc,extra",
    [
        (INVALID_DEGREE_ONE, []),
        (INVALID_DEGREE_ONE, ["--max-degree", "1"]),
        (INVALID_DEGREE_TWO, ["--max-degree", "1"]),
        (INVALID_DEGREE_TWO, ["--max-weight", "0"]),
    ],
)
def test_hurewicz_reports_invalid_input_ahead_of_every_refusal(tmp_path, capsys, doc, extra):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    status, text = invoke(["hurewicz", str(bad)] + extra)
    assert status == 1
    assert text.startswith("presentation invalid:\nDEGREE_MISMATCH: ")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "refusal",
    [
        "pi --max-degree 1",
        "supports --max-degree 1",
        "hurewicz --max-degree 1",
        "ss --max-degree 1",
        "ss --page 0",
        "minimal-model --max-degree 1",
        "lie-dims --max-degree 0",
        "doldkan --fuzz -1",
    ],
)
def test_commands_report_invalid_input_ahead_of_their_own_refusals(tmp_path, capsys, refusal, json_flag):
    command, *refused = refusal.split()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INVALID_DEGREE_TWO))
    status, text = invoke([command, str(bad), *refused, *json_flag])
    assert status == 1
    assert text.startswith("presentation invalid:\nDEGREE_MISMATCH: ")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_validates_its_input_once(monkeypatch, command):
    calls = []
    validate = graded_core.validate_algebra

    def counting(p):
        calls.append(p)
        return validate(p)

    monkeypatch.setattr(graded_core, "validate_algebra", counting)
    status, _ = invoke([command, str(corpus_path("cp2")), "--max-degree", "5"])
    assert status == 0
    assert len(calls) == 1


def test_hurewicz_refuses_a_small_cutoff_on_valid_input(capsys):
    status, text = invoke(["hurewicz", str(corpus_path("s2")), "--max-degree", "1"])
    assert status == 1 and text == ""
    assert "error [CUTOFF_TOO_SMALL]" in capsys.readouterr().err


def test_non_utf8_input_is_a_schema_error(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"name": "café", "basis": [], "unit": "e"}'.encode("latin-1"))
    status, text = invoke(["validate", str(latin)])
    assert status == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


def _cp2_doc():
    return {
        "name": "cp2",
        "characters": {"free_rank": 1, "torsion": [2]},
        "basis": [
            {"id": "e", "degree": 0, "char": [0, 0]},
            {"id": "x", "degree": 2, "char": [0, 0]},
            {"id": "y", "degree": 4, "char": [0, 0]},
        ],
        "unit": "e",
        "products": [{"left": "x", "right": "x", "result": [{"id": "y", "coeff": 1}]}],
    }


def _set_degree(doc):
    doc["basis"][1]["degree"] = True


def _set_char(doc):
    doc["basis"][1]["char"] = [True, 0]


def _set_free_rank(doc):
    doc["characters"]["free_rank"] = True


def _set_torsion(doc):
    doc["characters"]["torsion"] = [True]


def _set_coeff(doc):
    doc["products"][0]["result"][0]["coeff"] = True


@pytest.mark.parametrize(
    "edit",
    [_set_degree, _set_char, _set_free_rank, _set_torsion, _set_coeff],
    ids=["degree", "char", "free_rank", "torsion", "coeff"],
)
def test_booleans_are_not_integers(tmp_path, capsys, edit):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_cp2_doc()))
    assert invoke(["validate", str(path)]) == (0, "OK\n")
    doc = _cp2_doc()
    edit(doc)
    path.write_text(json.dumps(doc))
    status, text = invoke(["validate", str(path)])
    assert status == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and "Traceback" not in err


def test_lie_dims_reports_duplicate_ids_like_pi(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(
        json.dumps(
            {
                "basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 2}, {"id": "a", "degree": 2}],
                "unit": "e",
                "products": [],
            }
        )
    )
    status, text = invoke(["lie-dims", str(dup), "--max-degree", "4"])
    assert status == 1
    assert "DUPLICATE_ID" in text
    assert (status, text) == invoke(["pi", str(dup), "--max-degree", "4"])


def _broken_docs():
    base = {"basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 2}], "unit": "e"}
    yield "NO_UNIT", dict(base, unit="z")
    yield "UNKNOWN_ID", dict(
        base, products=[{"left": "a", "right": "a", "result": [{"id": "q", "coeff": "1"}]}]
    )
    yield "CONNECTEDNESS", dict(base, basis=base["basis"] + [{"id": "f", "degree": 0}])


@pytest.mark.parametrize("code, doc", [pytest.param(c, d, id=c) for c, d in _broken_docs()])
def test_doldkan_validates_its_input_like_lie_dims(tmp_path, code, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    status, text = invoke(["doldkan", str(path), "--level", "2"])
    assert status == 1
    assert code in text and "round-trip" not in text
    assert (status, text) == invoke(["lie-dims", str(path), "--max-degree", "4"])


def test_doldkan_refuses_a_negative_fuzz_count_before_any_work(monkeypatch):
    import formalpi.dold_kan as dold_kan

    def fail(*args, **kwargs):
        raise AssertionError("denormalize ran")

    monkeypatch.setattr(dold_kan, "denormalize", fail)
    argv = ["doldkan", str(corpus_path("s2")), "--fuzz", "-2"]
    assert invoke(argv) == (1, "fuzz count must be >= 0\n")
    assert invoke(argv + ["--json"]) == (1, "fuzz count must be >= 0\n")


def test_doldkan_counts_only_the_fuzz_round_trips_that_hold(monkeypatch):
    """Of five fuzz complexes, the second gets a zero coface d^0, which
    normalize refuses with SimplicialIdentityError, and the fourth normalizes
    to another complex: 3 of 5 hold, and the command exits 1."""
    import formalpi.dold_kan as dold_kan
    from formalpi.exactlin import RationalMatrix

    argv = ["doldkan", str(corpus_path("s2")), "--level", "2", "--fuzz", "5"]
    status, text = invoke(argv)
    assert status == 0 and "fuzz: 5/5 round-trips OK\n" in text
    real_denormalize, real_normalize = dold_kan.denormalize, dold_kan.normalize
    built = []  # the complexes denormalized so far, the command's own first

    def denormalize(c, m):
        v = real_denormalize(c, m)
        built.append(c)
        if len(built) == 3:
            n = min(n for n in range(m) if v.dim(n))
            v.cofaces[n, 0] = RationalMatrix.zero(v.dim(n + 1), v.dim(n))
        return v

    def normalize(v):
        out = real_normalize(v)
        return dold_kan.CochainComplex((out.dim(0) + 1,)) if len(built) == 5 else out

    monkeypatch.setattr(dold_kan, "denormalize", denormalize)
    monkeypatch.setattr(dold_kan, "normalize", normalize)
    status, text = invoke(argv)
    assert (status, text.splitlines()[-1], len(built)) == (1, "fuzz: 3/5 round-trips OK", 6)
    built.clear()
    status, out = invoke(argv + ["--json"])
    assert status == 1 and json.loads(out)["fuzz"] == {"seed": 0, "total": 5, "ok": 3}


def test_doldkan_reports_invalid_input_ahead_of_a_negative_fuzz_count(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INVALID_DEGREE_TWO))
    status, text = invoke(["doldkan", str(bad), "--fuzz", "-1"])
    assert status == 1
    assert "DEGREE_MISMATCH" in text and "fuzz" not in text


@pytest.mark.parametrize(
    "extra, status, err",
    [
        (["--max-degree", "0"], 1, "error [CUTOFF_TOO_SMALL]: max_w must be at least 1\n"),
        (
            ["--max-degree", "0", "--max-weight", "3"],
            1,
            "error [CUTOFF_TOO_SMALL]: max_r must be at least 0\n",
        ),
        (["--max-degree", "1"], 0, ""),
    ],
)
def test_lie_dims_cutoff_edges(capsys, extra, status, err):
    got, text = invoke(["lie-dims", str(corpus_path("s2"))] + extra)
    assert got == status
    assert text == ("" if status else "p\tq\tdim\n")
    assert capsys.readouterr().err == err


def test_lie_dims_builds_no_basis(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("lie-dims built a Lie basis")

    argv = ["lie-dims", str(corpus_path("wedge_s2_s2")), "--max-degree", "6", "--max-weight", "5"]
    expected = invoke(argv)
    monkeypatch.setattr("formalpi.free_lie.FreeLieBasis", no_build)
    assert invoke(argv) == expected
    assert expected[0] == 0 and expected[1].count("\n") > 5


@pytest.mark.parametrize(
    "argv",
    [
        ["pi", str(corpus_path("cp3")), "--max-degree", "6", "--max-weight", "5"],
        ["pi", str(corpus_path("torus")), "--max-degree", "4"],
        ["supports", str(corpus_path("char_torsion")), "--max-degree", "5"],
        ["hurewicz", str(corpus_path("rand_formal_1")), "--max-degree", "7"],
    ],
)
def test_table_commands_build_no_lie_basis(monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a Lie basis was built")

    expected = invoke(argv)
    monkeypatch.setattr("formalpi.free_lie.FreeLieBasis.__init__", no_build)
    assert invoke(argv) == expected
    assert expected[0] == 0 and expected[1].count("\n") > 3


def test_supports_refuses_a_weight_cutoff_below_the_degree(capsys):
    argv = ["supports", str(corpus_path("char_even")), "--max-degree", "5", "--max-weight", "3"]
    status, text = invoke(argv)
    assert status == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("cutoff exceeded: a complete table to degree 5 needs weights to 4")


# ---------------------------------------------------------------------------
# metamorphic: a new basis of the same algebra leaves every table unchanged

REBASED_COMMANDS = ["pi", "supports", "hurewicz", "minimal-model"]


def rebased(doc, order, scale):
    """doc in a new basis: the ids in ``order`` (a reordering within each
    degree), class x replaced by scale[x] * x.  A product stored against the
    new order is stored the other way round, with the Koszul sign."""
    degree = {e["id"]: e["degree"] for e in doc["basis"]}
    entry = {e["id"]: e for e in doc["basis"]}
    index = {x: i for i, x in enumerate(order)}
    products = []
    for row in doc.get("products", []):
        a, b, sign = row["left"], row["right"], 1
        if index[a] > index[b]:
            a, b, sign = b, a, (-1) ** (degree[a] * degree[b])
        result = []
        for term in row["result"]:
            t = term["id"]
            coeff = sign * Fraction(term["coeff"]) * scale[a] * scale[b] / scale[t]
            result.append({"id": t, "coeff": str(coeff)})
        products.append({"left": a, "right": b, "result": result})
    return {**doc, "basis": [entry[x] for x in order], "products": products}


@st.composite
def rebasings(draw, doc):
    """A permutation of the basis within each degree and a nonzero rational
    per class; the unit keeps scale 1."""
    by_degree = {}
    for e in doc["basis"]:
        by_degree.setdefault(e["degree"], []).append(e["id"])
    shuffled = {d: iter(draw(st.permutations(ids))) for d, ids in by_degree.items()}
    order = [next(shuffled[e["degree"]]) for e in doc["basis"]]
    nonzero = st.fractions(-4, 4, max_denominator=5).filter(bool)
    scale = {x: Fraction(1) if x == doc["unit"] else draw(nonzero) for x in order}
    return order, scale


def exterior(k):
    """H*(T^k): the exterior algebra on k classes of degree 1, every product odd."""
    subsets = [s for n in range(k + 1) for s in combinations(range(k), n)]
    ident = {s: "e" + "".join(map(str, s)) for s in subsets}
    products = []
    for i, a in enumerate(subsets[1:], 1):
        for b in subsets[i:]:
            if not set(a) & set(b):
                ab = a + b
                sign = (-1) ** sum(x > y for n, x in enumerate(ab) for y in ab[n + 1 :])
                result = [{"id": ident[tuple(sorted(ab))], "coeff": sign}]
                products.append({"left": ident[a], "right": ident[b], "result": result})
    basis = [{"id": ident[s], "degree": len(s)} for s in subsets]
    return {"name": f"t{k}", "basis": basis, "unit": ident[()], "products": products}


def _tables(path, doc) -> tuple:
    path.write_text(json.dumps(doc))
    return tuple(invoke([cmd, str(path), "--max-degree", "6"]) for cmd in REBASED_COMMANDS)


@pytest.mark.parametrize("name", ALL_CORPUS + ["t3"])
@settings(max_examples=examples(10), deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tables_ignore_the_order_and_scale_of_the_basis(tmp_path, name, data):
    """pi, supports, hurewicz and minimal-model print the same bytes; the
    minimal model of the new basis orders its monomials anew, and passes
    its exact checks."""
    doc = exterior(3) if name == "t3" else json.loads(corpus_path(name).read_text())
    new = rebased(doc, *data.draw(rebasings(doc)))
    assert _tables(tmp_path / "new.json", new) == _tables(tmp_path / "old.json", doc)
    if name in SIMPLY_CONNECTED:
        assert model_violations(minimal_model(parse_presentation(new), 6)) == []


# ---------------------------------------------------------------------------
# fuzz: malformed input exits 1, 2 or 3 with no traceback, stdout empty on 2

_S2 = {"basis": [{"id": "e", "degree": 0}, {"id": "a", "degree": 2}], "unit": "e"}


def _square(coeff, target="a"):
    """a * a = coeff * target; a has degree 2, so a valid target has degree 4."""
    return {**_S2, "products": [{"left": "a", "right": "a", "result": [{"id": target, "coeff": coeff}]}]}


# one document per malformed product entry, with the schema error it gives
_SQUARE = {"left": "a", "right": "a", "result": [{"id": "a", "coeff": "1"}]}
_BAD_PRODUCTS = {
    "missing_result": (
        [{"left": "a", "right": "a"}],
        "product entry {'left': 'a', 'right': 'a'} needs 'left', 'right', 'result'",
    ),
    "result_not_list": (
        [{"left": "a", "right": "a", "result": {}}],
        "product entry {'left': 'a', 'right': 'a', 'result': {}}: bad field types",
    ),
    "listed_twice": ([_SQUARE, _SQUARE], "product (a,a) listed twice"),
    "term_without_coeff": (
        [{"left": "a", "right": "a", "result": [{"id": "a"}]}],
        "product term {'id': 'a'} needs 'id' and 'coeff'",
    ),
    "repeated_target": (
        [{"left": "a", "right": "a", "result": [{"id": "a", "coeff": "1"}, {"id": "a", "coeff": "2"}]}],
        "product (a,a) repeats target 'a'",
    ),
}


MALFORMED = {
    "empty": b"",
    "garbled": b"{not json",
    "truncated": b'{"name": "x", "basis": [',
    "top_level_list": b"[]",
    "null": b"null",
    "deep_nesting": b"[" * 100_000,
    "long_numeral": b'{"basis": [{"id": "e", "degree": 1' + b"0" * 5000 + b'}], "unit": "e"}',
    "non_utf8": '{"name": "caf\u00e9", "basis": [], "unit": "e"}'.encode("latin-1"),
    "binary": bytes(range(256)),
    "empty_basis": {"basis": [], "unit": "e"},
    "basis_entry_not_object": {"basis": [1], "unit": "e"},
    "degree_string": {"basis": [{"id": "e", "degree": "0"}], "unit": "e"},
    "degree_float": {"basis": [{"id": "e", "degree": 0.0}], "unit": "e"},
    "degree_negative": {"basis": [{"id": "e", "degree": -1}], "unit": "e"},
    "id_not_string": {"basis": [{"id": 0, "degree": 0}], "unit": "e"},
    "unit_missing": {"basis": _S2["basis"]},
    "unknown_key": {**_S2, "extra": 1},
    "negative_rank": {**_S2, "characters": {"free_rank": -1, "torsion": []}},
    "char_wrong_length": {
        "characters": {"free_rank": 1},
        "basis": [{"id": "e", "degree": 0, "char": [0, 0]}],
        "unit": "e",
    },
    "products_not_list": {**_S2, "products": {}},
    **{f"product_{name}": {**_S2, "products": rows} for name, (rows, _) in _BAD_PRODUCTS.items()},
    "coeff_decimal": _square("0.5"),
    "coeff_zero_denominator": _square("1/0"),
    "coeff_long": _square("1" + "0" * 5000),
    "coeff_trailing_newline": _square("1\n"),
    "coeff_arabic_indic_digit": _square("\u0661"),
    "coeff_fullwidth_digit": _square("\uff11/2"),
    "unknown_target": _square("1", target="z"),
    "degree_mismatch": _square("1"),
}

FLAG_SETS = [
    [],
    ["--json"],
    ["--max-degree", "0"],
    ["--max-degree", "-1"],
    ["--max-weight", "0"],
    ["--page", "0"],
    ["--fuzz", "-1"],
    ["--level", "-1"],
    ["--max-degree", "x"],
]

# out-of-range flags on valid input, for each command that reads them
_WEIGHTED = ["pi", "supports", "hurewicz", "ss", "lie-dims"]
OUT_OF_RANGE = [
    *[[cmd, "--max-degree", "0"] for cmd in _WEIGHTED + ["minimal-model"]],
    *[[cmd, "--max-weight", "0"] for cmd in _WEIGHTED],
    ["ss", "--page", "0"],
    ["doldkan", "--fuzz", "-1"],
    ["doldkan", "--level", "-1"],
]


def assert_refused(argv, capsys, statuses=(1, 2, 3)):
    """run() returns (no exception) one of ``statuses``, prints no traceback,
    and prints nothing on stdout with a schema error."""
    buf = io.StringIO()
    status = run(argv, out=buf).exit_status
    captured = capsys.readouterr()
    assert status in statuses, argv
    assert "Traceback" not in captured.err, argv
    if status == 2:
        assert buf.getvalue() == captured.out == "", argv


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_is_refused_cleanly(tmp_path, capsys, name):
    body = MALFORMED[name]
    path = tmp_path / "doc.json"
    path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
    for cmd in cli._COMMANDS:
        for flags in FLAG_SETS:
            assert_refused([cmd, str(path), *flags], capsys)


@pytest.mark.parametrize(
    "text, want",
    [("-0", 0), ("007", 7), ("4/2", 2), ("3/6", Fraction(1, 2)), ("-12", -12), ("-9/6", Fraction(-3, 2)), (5, 5)],
)
def test_parse_coeff_returns_the_normal_form(text, want):
    """An int when the numeral is integral, a reduced Fraction otherwise."""
    got = cli.parse_coeff(text)
    assert got == want and type(got) is type(want)


def test_a_coefficient_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED["coeff_long"]))
    status, out = invoke(["validate", str(path)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err.startswith("schema error: coefficient '1000")


@pytest.mark.parametrize("name", ["coeff_trailing_newline", "coeff_arabic_indic_digit", "coeff_fullwidth_digit"])
def test_a_coefficient_is_ascii_digits_to_the_end_of_the_string(tmp_path, capsys, name):
    """A trailing newline or a non-ASCII digit is a schema error, not a number."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[name]))
    coeff = MALFORMED[name]["products"][0]["result"][0]["coeff"]
    assert invoke(["validate", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"schema error: coefficient {coeff!r} is not of the form 'p/q' or 'n'\n"


@pytest.mark.parametrize("name", _BAD_PRODUCTS)
def test_malformed_product_entries_are_schema_errors_naming_the_entry(tmp_path, capsys, name):
    rows, message = _BAD_PRODUCTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_S2, "products": rows}))
    assert invoke(["validate", str(path)]) == (2, "")
    assert capsys.readouterr() == ("", f"schema error: {message}\n")


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_flags_are_refused_cleanly(capsys, argv):
    assert_refused([argv[0], str(corpus_path("s2")), *argv[1:]], capsys)


_SCHEMA_KEYS = ["name", "characters", "basis", "unit", "products", "id", "degree", "char"]
_SCHEMA_KEYS += ["left", "right", "result", "coeff", "free_rank", "torsion"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(["e", "a", "1", "1/2", "-1", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=20,
)
_json_docs = st.fixed_dictionaries(
    {"basis": st.lists(_json_values, max_size=4), "unit": _json_values},
    optional={"products": _json_values, "characters": _json_values, "name": _json_values},
)


@settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_json_docs | _json_values, cmd=st.sampled_from(sorted(cli._COMMANDS)))
def test_random_json_never_escapes_as_a_traceback(tmp_path, capsys, doc, cmd):
    """Random JSON, now and then a valid algebra, at a small cutoff."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_refused([cmd, str(path), "--max-degree", "4"], capsys, statuses=(0, 1, 2, 3))
