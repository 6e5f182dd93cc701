"""Importing formalpi loads neither ``dataclasses`` nor ``inspect``.

Every formalpi request runs in a process of its own, so the import cost is
paid on every run; for corpus-sized inputs it is most of the run.
``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``.  A module is exempt only when a bare interpreter that imports
the same standard-library modules already has it, since which modules the
standard library loads for itself varies between Python versions.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect")


def package_modules() -> list[str]:
    return [f"formalpi.{p.stem}" for p in sorted((SRC / "formalpi").glob("*.py"))]


def stdlib_imports() -> list[str]:
    """The absolute imports of the package's modules, the heavy ones left out."""
    names = set()
    for path in (SRC / "formalpi").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(n for n in names if n.partition(".")[0] not in HEAVY)


def loaded_after(imports: list[str]) -> set[str]:
    """sys.modules of a fresh interpreter once it has imported ``imports``."""
    lines = [f"import sys; sys.path.insert(0, {str(SRC)!r})", *(f"import {m}" for m in imports)]
    code = "\n".join([*lines, "print(*sys.modules)"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_the_package_imports_neither_dataclasses_nor_inspect():
    stdlib = stdlib_imports()
    exempt = loaded_after(stdlib)
    loaded = loaded_after(stdlib + package_modules())
    assert "formalpi.cli" in loaded and "formalpi.dold_kan" in loaded
    assert [m for m in HEAVY if m in loaded and m not in exempt] == []
