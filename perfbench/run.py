"""Run one formalpi benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 7 --seconds 30 --trace 0

Run from the repository root.  The workload's jobs (``workloads.json``) are
CLI argument lists fed to ``formalpi.cli.run`` in this process, one after
the other, single-threaded.  Inputs named ``gen/<family>`` are made by
``bench_gen`` from ``--seed`` into a scratch directory under ``perfbench/``.
Every job's exit code and stdout sha256 are checked against
``expected.json``, and generated families also against closed forms
(``bench_oracles``); a mismatch counts as a failed job.

With ``--trace 0`` the workload is run in passes until ``--seconds`` is
spent.  Each job's time is rescaled to a reference speed, measured by a
fixed loop run between jobs, and the per-job medians over passes give the
timings.  With ``--trace 1`` one untraced run happens in a child process
for comparison, then one traced pass runs here with the layer spans of
``bench_trace`` installed.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_gen  # noqa: E402
import bench_oracles  # noqa: E402
from bench_trace import MODULE_ORDER, Tracer  # noqa: E402

# Timings are quoted at the machine speed where reference() takes this long.
# On the 2-vCPU x86 host (Python 3.11) the benchmark was built on, the loop
# took 17 to 35 ms as contention from outside the process came and went.
REFERENCE_S = 0.025
REFERENCE_STEPS = 8000
UNITS = {"wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def load_jobs(workload: str) -> list[dict]:
    manifest = json.loads((BENCH / "workloads.json").read_text())
    return manifest["workloads"][workload]["jobs"]


def set_up(jobs: list[dict], seed: int, tracer: Tracer | None, workdir: Path):
    """Import formalpi and write the generated inputs into ``workdir``.

    Generated inputs pass ``validate_algebra`` here, except those only used
    by ``validate`` jobs: for them validation is the timed work, and the
    job's own check requires it to pass.
    """
    if tracer is not None:
        tracer.install()
    for module in MODULE_ORDER:
        importlib.import_module(f"formalpi.{module}")
    from formalpi.cli import parse_presentation, run
    from formalpi.graded_core import validate_algebra

    to_validate: dict[str, bool] = {}
    for job in jobs:
        argv = job["argv"].split()
        for token in argv:
            if token.startswith("gen/"):
                to_validate[token] = to_validate.get(token, False) or argv[0] != "validate"
    inputs = {token: bench_gen.make(token[4:], seed) for token in to_validate}
    for token, text in inputs.items():
        if to_validate[token]:
            report = validate_algebra(parse_presentation(json.loads(text)))
            if not report.ok:
                raise SystemExit(f"generated input {token} is invalid:\n{report}")
    paths = {}
    for i, (token, text) in enumerate(sorted(inputs.items())):
        path = workdir / f"input{i}.json"
        path.write_text(text)
        paths[token] = str(path)
    if tracer is not None:
        tracer.reset()
    return run, paths


def run_job(run, job: dict, paths: dict) -> tuple[float, int, str, str]:
    """One CLI invocation; returns (seconds, exit code, stdout, stderr)."""
    argv = [paths.get(t, t) for t in job["argv"].split()]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stderr = sys.stderr, err
    start = perf_counter()
    try:
        status = run(argv, out).exit_status
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        err.write(f"uncaught {exc!r}\n")
        status = -1
    finally:
        elapsed = perf_counter() - start
        sys.stderr = saved
    return elapsed, status, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_errors(job: dict, status: int, stdout: str, stderr: str, expected: dict) -> list[str]:
    want = expected.get(job["argv"])
    errors = []
    if want is None:
        errors.append("no expected output recorded")
    elif (status, digest(stdout)) != (want["exit"], want["sha256"]):
        errors.append(f"exit {status} / stdout {digest(stdout)[:12]}, expected {want}")
    if "refusal" in job and f"[{job['refusal']}]" not in stderr:
        errors.append(f"refusal {job['refusal']} missing from stderr {stderr.strip()!r}")
    if "closed_form" in job:
        msg = bench_oracles.check(job["closed_form"], job["argv"].split(), stdout)
        if msg:
            errors.append(msg)
    return errors


def reference() -> float:
    """Seconds for a fixed loop of Fraction and dict work, like formalpi's own."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, REFERENCE_STEPS):
        acc += Fraction(1, i % 97 + 1)
        table[i % 101] = acc
    return perf_counter() - start


def run_pass(run, jobs, paths, expected, tracer=None) -> dict:
    """One pass; ``times`` are job seconds rescaled to the reference speed.

    The reference loop runs before the first job and after each job, and a
    job's time is divided by the mean of the two loops around it, then
    multiplied by REFERENCE_S.
    """
    raw, refs, failures = [], [reference()], []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        elapsed, status, stdout, stderr = run_job(run, job, paths)
        raw.append(elapsed)
        refs.append(reference())
        for error in job_errors(job, status, stdout, stderr, expected):
            failures.append(f"{job['argv']}: {error}")
    wall = perf_counter() - start - sum(refs[1:])
    times = [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return {"wall": wall, "raw": raw, "times": times, "failures": failures}


def measure(run, jobs, paths, expected, seconds: float) -> list[dict]:
    """Whole passes while the next one, at the mean pace, fits in ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(run, jobs, paths, expected))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def child(args, extra: list[str]) -> dict:
    """Run this script in a fresh process and return its result object."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise SystemExit(f"child {cmd} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(metrics: dict, attempted: int, failures: list[str], notes: dict) -> None:
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in sorted(metrics.items()) + sorted(notes.items()):
        print(f"{name:34s} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=4,
                    help="extra fresh processes that only set up, for the setup_s median")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "formalpi").is_dir():
        raise SystemExit(f"no formalpi sources under {ROOT / 'src'}")
    jobs = load_jobs(args.workload)
    tracer = Tracer() if args.trace else None
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "_work"))
    try:
        run, paths = set_up(jobs, args.seed, tracer, workdir)
        expected = json.loads((BENCH / "expected.json").read_text())
        setup = (perf_counter() - STARTED) * REFERENCE_S / reference()
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return
        if args.trace:
            untraced = child(args, ["--seconds", str(args.seconds / 2), "--setup-probes", "0"])
            traced = run_pass(run, jobs, paths, expected, tracer)
            metrics = tracer.metrics()
            overhead = sum(traced["times"]) - untraced["metrics"]["wall_s"]["value"]
            metrics["trace.overhead_s"] = (overhead, "s")
            failures = list(traced["failures"])
            layer_sum = sum(v for name, (v, u) in metrics.items() if u == "s" and name != "trace.overhead_s")
            if layer_sum > traced["wall"]:
                failures.append(f"layer self times {layer_sum:.3f} s exceed the traced wall")
            notes = {"trace.wall_s": (traced["wall"], "s")}
            for i, job in enumerate(jobs):
                name, t = max(tracer.self_times(i).items(), key=lambda kv: kv[1])
                print(f"job {job['argv']}: {traced['raw'][i]:.3f} s, top layer {name} {t:.3f} s")
            report(metrics, len(jobs), failures, notes)
            return
        setups = [setup] + [child(args, ["--setup-only"])["setup_s"] for _ in range(args.setup_probes)]
        passes = measure(run, jobs, paths, expected, args.seconds)
        failures = [f for p in passes for f in p["failures"]]
        attempted = len(jobs) * len(passes)
        # per-job medians over passes: robust to the machine's speed drifting
        per_job = [statistics.median(p["times"][i] for p in passes) for i in range(len(jobs))]
        raw_wall = statistics.median(p["wall"] for p in passes)
        metrics = {
            "wall_s": sum(per_job),
            "slowest_job_s": max(per_job),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        notes = {
            "fail_ratio": (len(failures) / attempted, "ratio"),
            "passes": (len(passes), "count"),
            "raw_wall_s": (raw_wall, "s"),
        }
        report({k: (v, UNITS[k]) for k, v in metrics.items()}, attempted, failures, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
