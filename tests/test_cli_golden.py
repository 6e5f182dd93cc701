"""Golden CLI digests: exit code and stdout sha256 for every corpus file,
every subcommand, text and --json, at small cutoffs.

A refactor that changes any byte of stdout or any exit code fails here.
After an intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/data/cli_golden.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import ALL_CORPUS, corpus_path  # noqa: E402
from formalpi.cli import run  # noqa: E402

GOLDEN = HERE / "data" / "cli_golden.json"

# subcommand -> flags; cutoffs small enough that the whole grid runs in seconds
FLAGS = {
    "validate": [],
    "pi": ["--max-degree", "5"],
    "supports": ["--max-degree", "5"],
    "hurewicz": ["--max-degree", "5"],
    "ss": ["--max-degree", "4", "--check-degeneration"],
    "minimal-model": ["--max-degree", "5"],
    "doldkan": ["--level", "3", "--fuzz", "4", "--seed", "1"],
    "lie-dims": ["--max-degree", "5", "--max-weight", "4"],
}


def commands() -> list[list[str]]:
    return [
        [cmd, f"corpus/{name}.json", *flags, *json_flag]
        for name in ALL_CORPUS
        for cmd, flags in FLAGS.items()
        for json_flag in ([], ["--json"])
    ]


def digest(argv: list[str]) -> dict:
    """Exit status and stdout sha256 of one in-process CLI run."""
    real = [str(corpus_path(Path(argv[1]).stem)), *argv[2:]]
    buf = io.StringIO()
    report = run([argv[0], *real], out=buf)
    return {
        "exit": report.exit_status,
        "sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest(),
    }


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(_key(a) for a in commands())


@pytest.mark.parametrize("argv", commands(), ids=_key)
def test_cli_output_matches_golden(argv):
    assert digest(argv) == _golden()[_key(argv)]


def test_minimal_model_signs_above_the_grid():
    """The grid stops at degree 5; the wedge's 131 generators through degree
    10, many of them odd, pin the Koszul signs of longer monomial products."""
    argv = ["minimal-model", "corpus/wedge_s2_s2.json", "--max-degree", "10", "--json"]
    assert digest(argv) == {
        "exit": 0,
        "sha256": "6ae0ea967cb9217a015050be564df71f2718e63701289ec8c83b5d97774d1da7",
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {_key(a): digest(a) for a in commands()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} commands in {GOLDEN}")
