"""Record each job's expected exit code and stdout sha256 into expected.json.

    python3 perfbench/record_expected.py [--seeds 7 8 9]

Run from the repository root on a tree whose outputs are trusted.  Every job
of every workload runs once per seed; the digests must agree across seeds,
since generated inputs differ by seed only in ways that leave the printed
tables unchanged.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9])
    args = ap.parse_args()
    manifest = json.loads((bench.BENCH / "workloads.json").read_text())
    jobs = [job for w in manifest["workloads"].values() for job in w["jobs"]]
    recorded: dict[str, dict] = {}
    for seed in args.seeds:
        (bench.BENCH / "_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=bench.BENCH / "_work"))
        try:
            run, paths = bench.set_up(jobs, seed, None, workdir)
            for job in jobs:
                _, status, stdout, _ = bench.run_job(run, job, paths)
                got = {"exit": status, "sha256": bench.digest(stdout)}
                if recorded.setdefault(job["argv"], got) != got:
                    sys.exit(f"seed {seed} changes the output of {job['argv']}")
                print(f"seed {seed}: {job['argv']} -> {got['exit']} {got['sha256'][:12]}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    path = bench.BENCH / "expected.json"
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
