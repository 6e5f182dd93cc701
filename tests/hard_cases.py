"""The hard cases: command-line requests past the corpus, each pinned by its
stdout and bounded by a timeout.

Run from anywhere, with pytest not needed (pytest does not collect this
file):

    python3 tests/hard_cases.py

Each case writes its input, runs ``python3 -m formalpi.cli`` on it with
``src`` on PYTHONPATH, and prints its wall time and verdict.  A case fails
on a nonzero exit, on its timeout, or when stdout's sha256 differs from the
pinned digest, or no line of stdout is the pinned line.  The exit status is
1 when any case fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

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
    ("pi on K3 at degree 5", k3, "pi {} --max-degree 5", 10,
     sha256("e0a7760320b965ffa7ddfb769423ed7ffd48d3358eef06c889ce5a07d86c3291")),
    ("pi on the wedge of S^2, S^2, S^3, S^3 at degree 13 and weight 12", family("wedge_2233"),
     "pi {} --max-degree 13 --max-weight 12", 10,
     sha256("93beeec0a27e8a922736da969dd10d84eddff52821cce498f550de1a2c7a4e33")),
    ("doldkan on cp3 at level 7 with 1000 fuzz complexes", CP3,
     "doldkan {} --level 7 --fuzz 1000 --seed 3", 10, line("fuzz: 1000/1000 round-trips OK")),
    ("doldkan JSON on cp3 at level 7 with 1000 fuzz complexes", CP3,
     "doldkan {} --level 7 --fuzz 1000 --seed 3 --json", 10,
     sha256("dbc7648cd040a1fd150513f24d64ae3d5fd983447cf31f31684898bc2e648f15")),
    ("doldkan with a class in degree 1,000,000 at level 2", degree_1e6,
     "doldkan {} --level 2", 5, line("round-trip: OK")),
]


def run(source, args, timeout, pin, workdir) -> tuple[float, str | None]:
    """Runs one case: the command's wall time, and None or why it failed."""
    if callable(source):
        path = Path(workdir) / "input.json"
        path.write_text(source())
    else:
        path = source  # relative to the root, the working directory
    argv = [sys.executable, "-m", "formalpi.cli", *(str(path) if a == "{}" else a for a in args.split())]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, f"no answer within {timeout} s"
    wall = perf_counter() - start
    if done.returncode:
        return wall, f"exit {done.returncode}: {done.stderr.decode(errors='replace').strip()}"
    kind, want = pin
    if kind == "sha256":
        got = hashlib.sha256(done.stdout).hexdigest()
        return wall, None if got == want else f"stdout sha256 {got}, pinned {want}"
    out = done.stdout.decode()
    return wall, None if want in out.splitlines() else f"no line {want!r} in stdout:\n{out}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, source, args, timeout, pin in CASES:
            wall, why = run(source, args, timeout, pin, workdir)
            print(f"{wall:7.2f} s  {'FAIL' if why else 'ok  '}  {name}", flush=True)
            if why:
                print(f"    {why}", flush=True)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
