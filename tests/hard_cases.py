"""The hard cases: command-line requests past the corpus, each pinned by its
stdout and bounded by a timeout.

Run from anywhere, with pytest not needed (pytest does not collect this
file):

    python3 tests/hard_cases.py

The inputs are written first, then each case runs ``python3 -m
formalpi.cli`` on its input with ``src`` on PYTHONPATH and prints its wall
time, the command's peak RSS (from its own rusage, read by ``os.wait4``)
and its verdict.  A case fails
on a nonzero exit, on its timeout, or when stdout's sha256 differs from the
pinned digest, or no line of stdout is the pinned line.  The exit status is
1 when any case fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, sleep

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import bench_gen  # noqa: E402


def family(token):
    return lambda: bench_gen.make(token, 7)


def power(n, k):
    return lambda: bench_gen.to_json(bench_gen.power(lambda i: bench_gen.sphere(n, i), k))


def rational_s2_7():
    p = bench_gen.power(lambda i: bench_gen.sphere(2, i), 7)
    return bench_gen.to_json(bench_gen.rationalize(p, random.Random("7:s2^7~r0")))


def surface(genus):
    return lambda: bench_gen.to_json(bench_gen.surface(genus))


def k3():
    xs = [f"x{i}" for i in range(1, 23)]
    signs = [1] * 3 + [-1] * 19
    return json.dumps({
        "name": "K3",
        "basis": [{"id": "e0", "degree": 0}] + [{"id": x, "degree": 2} for x in xs] + [{"id": "w", "degree": 4}],
        "unit": "e0",
        "products": [
            {"left": x, "right": x, "result": [{"id": "w", "coeff": str(c)}]} for x, c in zip(xs, signs)
        ],
    })


def degree_1e6():
    return json.dumps({"basis": [{"id": "e", "degree": 0}, {"id": "x", "degree": 10**6}], "unit": "e"})


def sha256(digest):
    return "sha256", digest


def line(text):
    return "line", text


WEDGE = "corpus/wedge_s2_s2.json"
CP3 = "corpus/cp3.json"

# name, input (a maker of its JSON text, or a path under the root), the
# arguments with {} for the input, timeout in seconds, pinned stdout
CASES = [
    ("ss on (S^2)^4 at degree 6 and weight 5", family("s2^4"),
     "ss {} --max-degree 6 --max-weight 5 --check-degeneration", 30,
     sha256("4153752bf16ccbfc4ab0bf0007b43561788985cb47dc6653b002afdf46149329")),
    ("ss JSON on (S^2)^4 at degree 6 and weight 5", family("s2^4"),
     "ss {} --max-degree 6 --max-weight 5 --check-degeneration --json", 10,
     sha256("ab49e41655890da25834010ec1a2340c7c5d42c16eca002bdf632bfa86045643")),
    ("ss on (S^2)^4 at degree 7 and weight 6", family("s2^4"),
     "ss {} --max-degree 7 --max-weight 6 --check-degeneration", 30,
     sha256("4153752bf16ccbfc4ab0bf0007b43561788985cb47dc6653b002afdf46149329")),
    ("ss on (S^2)^5 at degree 6 and weight 5", family("s2^5"),
     "ss {} --max-degree 6 --max-weight 5 --check-degeneration", 30,
     sha256("2bb5c47706b3cbce8bcb274d1d7d5cf1375759056cb75f554a621f8a700ffa66")),
    ("ss page 1 on T^3 at degree 6 and weight 5", family("t3"),
     "ss {} --max-degree 6 --max-weight 5 --page 1", 10,
     sha256("a73efb3d6328c54696d8b955c79e57d375a37dcdf5300d3dfd0398c8471a6843")),
    ("ss page 1 on the surface of genus 2 with characters at degree 3 and weight 7",
     family("sigma2_chi"), "ss {} --max-degree 3 --max-weight 7 --page 1", 20,
     sha256("c2c1e0f0ca82f1fc8e9602fc30101d5f5c6b12afac1d231237c1f3cda4c7cb17")),
    ("minimal-model on the wedge at degree 13", WEDGE,
     "minimal-model {} --max-degree 13", 20,
     sha256("2dfbe8f07892c67436332425a4186898db9117250cd910c4b6eb982412c1b204")),
    ("minimal-model JSON on the wedge at degree 13", WEDGE,
     "minimal-model {} --max-degree 13 --json", 20,
     sha256("8bb80666508d2e72ccf6354b0afb77d9afd587dc7300b9fc3de4d865e4fe24f1")),
    ("minimal-model on the wedge of S^2, S^2, S^3, S^3 at degree 11", family("wedge_2233"),
     "minimal-model {} --max-degree 11", 30,
     sha256("15b99d07f3ab3333dfb69bc2a6ec582d6f8c8144818abda89d35e0a2e4d7b535")),
    ("minimal-model JSON on the wedge of S^2, S^2, S^3, S^3 at degree 11", family("wedge_2233"),
     "minimal-model {} --max-degree 11 --json", 30,
     sha256("301a11ce53f8e9348b36aa7dc773804af8129db90a5c2d27cb2b08b315ea575d")),
    ("validate (S^2)^9", power(2, 9), "validate {}", 20, line("OK")),
    ("validate a rational (S^2)^7", rational_s2_7, "validate {}", 10, line("OK")),
    ("pi on T^5 at degree 3 and weight 4", power(1, 5),
     "pi {} --max-degree 3 --max-weight 4", 15, line("1\t5\t[5,0,0,0]")),
    ("pi on T^4 at the default cutoffs", power(1, 4), "pi {}", 10, line("1\t4\t[4,0,0,0,0,0,0,0]")),
    ("hurewicz on (S^2)^6 at degree 8", power(2, 6), "hurewicz {} --max-degree 8", 5, line("2\t6\t6")),
    ("hurewicz JSON on (S^2)^6 at degree 8", power(2, 6), "hurewicz {} --max-degree 8 --json", 5,
     sha256("c1b6b7dfc679d492ab07a1f1ab9c98f85e4cc076408b47922a5317c50b610604")),
    ("pi on (S^2)^6 at degree 8 and weight 7", power(2, 6),
     "pi {} --max-degree 8 --max-weight 7", 10, line("2\t6\t[6]")),
    ("pi on a rational (S^2)^6 at degree 8 and weight 7", family("s2^6~r0"),
     "pi {} --max-degree 8 --max-weight 7", 10,
     sha256("c34c6f8270be0513d9f60fa48eb6b002baa3ee26708ac6c68e549faccedb36d9")),
    ("pi on the surface of genus 2 at degree 3 and weight 8", family("sigma2"),
     "pi {} --max-degree 3 --max-weight 8", 10,
     sha256("b2f479933f0672be16efbc78e6df343cea50b412a3adee7a0a03cda0a7eb0aab")),
    ("supports on the surface of genus 2 with characters at degree 3 and weight 8", family("sigma2_chi"),
     "supports {} --max-degree 3 --max-weight 8", 10,
     sha256("a7edf0c5961cbec826cc62a7d3550a6a115cd97b1dc28cb03e210b7c06a592b0")),
    ("pi on the surface of genus 3 at degree 3 and weight 6", surface(3),
     "pi {} --max-degree 3 --max-weight 6", 10,
     sha256("cbb9a68facbaf4c554b2c349cb7527e6c444a3087b95d841cb4f804be5ff2433")),
    ("pi on the surface of genus 3 at degree 3 and weight 7", surface(3),
     "pi {} --max-degree 3 --max-weight 7", 20,
     sha256("3ca557b80f07f7e36ee74cd01aad2d913d5ed10cfc51267c627fa6397fe782a1")),
    ("pi on K3 at degree 5", k3, "pi {} --max-degree 5", 10,
     sha256("e0a7760320b965ffa7ddfb769423ed7ffd48d3358eef06c889ce5a07d86c3291")),
    ("pi on the wedge of S^2, S^2, S^3, S^3 at degree 13 and weight 12", family("wedge_2233"),
     "pi {} --max-degree 13 --max-weight 12", 10,
     sha256("93beeec0a27e8a922736da969dd10d84eddff52821cce498f550de1a2c7a4e33")),
    ("pi on the wedge of S^2, S^2, S^3, S^3 at degree 15 and weight 14", family("wedge_2233"),
     "pi {} --max-degree 15 --max-weight 14", 10,
     sha256("45b23c94d0413ca92864aaa1a6b9fc7830500ee8bb44b38161d29912f667af82")),
    ("doldkan on cp3 at level 7 with 1000 fuzz complexes", CP3,
     "doldkan {} --level 7 --fuzz 1000 --seed 3", 10, line("fuzz: 1000/1000 round-trips OK")),
    ("doldkan JSON on cp3 at level 7 with 1000 fuzz complexes", CP3,
     "doldkan {} --level 7 --fuzz 1000 --seed 3 --json", 10,
     sha256("dbc7648cd040a1fd150513f24d64ae3d5fd983447cf31f31684898bc2e648f15")),
    ("doldkan with a class in degree 1,000,000 at level 2", degree_1e6,
     "doldkan {} --level 2", 5, line("round-trip: OK")),
]


def write_inputs(workdir) -> list:
    """The input of each case: a path under the root, or the file in workdir
    that its maker writes.  The makers run in a forked child, so that the
    memory they take is not counted in the peak RSS of any case (see run).
    """
    paths = [Path(workdir) / f"input{i}.json" if callable(case[1]) else case[1] for i, case in enumerate(CASES)]
    pid = os.fork()
    if not pid:
        try:
            for path, (_, source, *_) in zip(paths, CASES):
                if callable(source):
                    path.write_text(source())
            os._exit(0)
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(1)
    if os.waitpid(pid, 0)[1]:
        raise SystemExit("the inputs could not be made")
    return paths


def run(path, args, timeout, pin) -> tuple[float, float, str | None]:
    """Runs one case: the command's wall time, its peak RSS in MB, and None or why it failed.

    The command runs in a forked child, not a vfork'd one as subprocess
    starts it.  On Linux a child's peak RSS counts the memory it was started
    from: all of this process's under vfork, only the anonymous pages it
    copies under fork.  The inputs are made in a child of their own, so this
    process's heap, and with it that floor, stays below any command's peak.
    """
    argv = [sys.executable, "-m", "formalpi.cli", *(str(path) if a == "{}" else a for a in args.split())]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = perf_counter()
        pid = os.fork()
        if not pid:
            try:
                os.dup2(stdout.fileno(), 1)
                os.dup2(stderr.fileno(), 2)
                os.chdir(ROOT)
                os.execve(sys.executable, argv, env)
            finally:
                os._exit(127)
        while not (done := os.wait4(pid, os.WNOHANG))[0]:
            if perf_counter() - start > timeout:
                os.kill(pid, signal.SIGKILL)
                done = os.wait4(pid, 0)
                break
            sleep(0.001)
        wall = perf_counter() - start
        _, status, usage = done  # the child's own rusage
        stdout.seek(0)
        stderr.seek(0)
        out, err = stdout.read(), stderr.read()
    rss = usage.ru_maxrss / 1024  # in KB on Linux
    if wall > timeout:
        return wall, rss, f"no answer within {timeout} s"
    if code := os.waitstatus_to_exitcode(status):
        return wall, rss, f"exit {code}: {err.decode(errors='replace').strip()}"
    kind, want = pin
    if kind == "sha256":
        got = hashlib.sha256(out).hexdigest()
        return wall, rss, None if got == want else f"stdout sha256 {got}, pinned {want}"
    text = out.decode()
    return wall, rss, None if want in text.splitlines() else f"no line {want!r} in stdout:\n{text}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for path, (name, _, args, timeout, pin) in zip(write_inputs(workdir), CASES):
            wall, rss, why = run(path, args, timeout, pin)
            print(f"{wall:7.2f} s  {rss:5.0f} MB  {'FAIL' if why else 'ok  '}  {name}", flush=True)
            if why:
                print(f"    {why}", flush=True)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
