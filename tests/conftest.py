from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from formalpi.cli import load_presentation

# Tier-1 draws the same examples on every run: derandomized, with no example
# database, and each test's own count.  The "wide" profile draws anew from
# --hypothesis-seed, for the random search beside tier-1 (see README), with
# WIDE times the examples: each @given test takes its count from examples(n).
TIER1_EXAMPLES = 100  # hypothesis' default
WIDE = 6  # one wide run of the six @given files: about 115 s on 2 vCPU, inside CI's 180 s
settings.register_profile("tier1", derandomize=True, database=None, max_examples=TIER1_EXAMPLES)
settings.register_profile("wide", derandomize=False, database=None, max_examples=WIDE * TIER1_EXAMPLES)
settings.load_profile("tier1")


def examples(n: int) -> int:
    """n under tier1, scaled by the loaded profile's max_examples (WIDE n under wide)."""
    return n * settings.default.max_examples // TIER1_EXAMPLES


CORPUS = Path(__file__).resolve().parent.parent / "corpus"

SIMPLY_CONNECTED = [
    "s2",
    "s3",
    "s5",
    "cp2",
    "cp3",
    "wedge_s2_s2",
    "rand_formal_1",
    "rand_formal_2",
]

CHARACTER_CORPUS = ["char_pair", "char_even", "char_torsion"]

ALL_CORPUS = SIMPLY_CONNECTED + ["torus"] + CHARACTER_CORPUS


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.json"


@pytest.fixture(scope="session")
def corpus():
    return {name: load_presentation(corpus_path(name)) for name in ALL_CORPUS}
