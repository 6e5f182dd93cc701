"""Tests of the benchmark itself: inputs, the correctness gate and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import bench_gen  # noqa: E402
import bench_oracles  # noqa: E402
import run as bench  # noqa: E402

SMALL = ["s2^3", "s2^4", "t3", "cp2xcp2", "sigma2", "sigma2_chi", "t2_chi", "wedge_2233"]


@pytest.mark.parametrize("token", SMALL + ["s2^4~r0", "s2^5~r3"])
def test_generated_input_is_deterministic_and_valid(token):
    from formalpi.cli import parse_presentation
    from formalpi.graded_core import validate_algebra

    text = bench_gen.make(token, 7)
    assert text == bench_gen.make(token, 7)
    assert validate_algebra(parse_presentation(json.loads(text))).ok


def test_only_rational_variants_depend_on_the_seed():
    assert bench_gen.make("s2^4", 7) == bench_gen.make("s2^4", 8)
    assert bench_gen.make("s2^4~r0", 7) != bench_gen.make("s2^4~r0", 8)
    assert bench_gen.make("s2^4~r0", 7) != bench_gen.make("s2^4~r1", 7)


def test_every_job_has_a_recorded_output():
    expected = json.loads((BENCH / "expected.json").read_text())
    for workload in ("tables", "subspace", "structure"):
        for job in bench.load_jobs(workload):
            assert job["argv"] in expected


def test_digest_gate_accepts_recorded_output_and_rejects_a_change(tmp_path):
    jobs = [{"argv": "pi gen/cp2xcp2", "closed_form": "cp_product:2,2"}]
    run, paths = bench.set_up(jobs, 7, None, tmp_path)
    expected = json.loads((BENCH / "expected.json").read_text())
    _, status, stdout, stderr = bench.run_job(run, jobs[0], paths)
    assert bench.job_errors(jobs[0], status, stdout, stderr, expected) == []
    changed = stdout.replace("\t2\t", "\t3\t", 1)
    assert bench.job_errors(jobs[0], status, changed, stderr, expected)
    assert bench.job_errors(jobs[0], 1, stdout, stderr, expected)


def test_closed_forms():
    assert bench_oracles.labute_weights(2, 5) == [4, 5, 16, 45, 144]
    witt = bench_oracles.free_lie_dims([0, 0], 6, 0)
    assert [witt[(w, 0)] for w in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    table = "m\ttotal\tweights\n2\t4\t[4]\n3\t4\t[0,4]\n4\t0\t[0,0,0]\n"
    assert bench_oracles.check("sphere_power:4", ["pi", "x", "--max-degree", "4"], table) is None
    assert bench_oracles.check("sphere_power:3", ["pi", "x", "--max-degree", "4"], table)


TRACED_JOBS = [
    "pi corpus/cp3.json",
    "supports corpus/char_torsion.json --max-degree 5",
    "pi gen/cp2xcp2",
    "hurewicz gen/t2_chi --max-degree 5 --max-weight 5",
    "ss corpus/cp3.json --check-degeneration",
    "minimal-model gen/s2^3 --max-degree 8",
]

TRACED_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import run as bench
from bench_trace import Tracer
jobs = [{"argv": a} for a in json.loads(sys.argv[1])]
tracer = Tracer()
with tempfile.TemporaryDirectory() as d:
    run, paths = bench.set_up(jobs, 7, tracer, Path(d))
    out = bench.run_pass(run, jobs, paths, json.loads(Path("perfbench/expected.json").read_text()), tracer)
m = tracer.metrics()
print(json.dumps({"failures": out["failures"], "wall": out["wall"],
                  "self": sum(v for v, u in m.values() if u == "s"),
                  "spans": len(tracer.spans)}))
"""


def test_tracing_leaves_stdout_identical_and_self_times_within_wall():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SCRIPT, json.dumps(TRACED_JOBS)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["spans"] > 0
    assert 0 < result["self"] <= result["wall"]
