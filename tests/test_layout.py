"""Every definition in src/ is run by a command, or is named below with its reason.

The scan walks names from the command line's entry points: ``run``,
``main`` and every ``_cmd_*`` in ``cli``.  A top-level function, class or
assignment is reached when a reached body names it, in its own module or
through a ``from .module import`` of it.  A method is reached when a reached
body reads an attribute of its name, on any receiver; a reached class brings
its bases, decorators, class-level statements and dunder methods.  Two more
sets of roots are walked the same way:

- the targets that ``perfbench/bench_trace.py`` patches, read out of its
  ``SPANS`` so that the two never drift apart;
- ``PENDING``: the names whose place in src/ awaits an open decision
  (ROADMAP 2(b) for the Lie model's own tables, 5 for the Dold-Kan algebra
  half).  Private helpers and errors are reached through them.

Anything else that no walk reaches is code no command runs: delete it, or
move it under tests/ when a test needs it as an oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PENDING = (
    # 2(b): does the Lie model leave src/?
    "quillen_weight.homotopy_table",
    "quillen_weight.supports",
    "quillen_weight.hurewicz_rank",
    # 5: is the Dold-Kan algebra half wired to a command, or moved under tests/?
    "dold_kan.algebra_from_presentation",
    "dold_kan.validate_cdga",
    "dold_kan.denormalize_algebra",
    "dold_kan.levelwise_algebra_violations",
    "dold_kan.structure_map_violations",
    "dold_kan.CochainAlgebra.multiply",
)


def sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "formalpi").glob("*.py"))}


def bench_targets() -> list[str]:
    tree = ast.parse((ROOT / "perfbench" / "bench_trace.py").read_text())
    (spans,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    )
    return [f"{module}.{attr}" for module, attr, _ in ast.literal_eval(spans)]


class Layout:
    """The definitions of the package's modules and the names they import."""

    def __init__(self, srcs: dict[str, str]):
        self.defs: dict[str, tuple[str, ast.AST]] = {}  # key -> (module, node)
        self.assigns: dict[str, tuple[str, ast.AST]] = {}
        self.methods: dict[str, list[str]] = {}  # method name -> keys
        self.imports: dict[str, dict[str, str]] = {}  # module -> local name -> key
        for mod, text in srcs.items():
            tree = ast.parse(text)
            self.imports[mod] = {
                alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
            }
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[f"{mod}.{node.name}"] = mod, node
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef):
                            key = f"{mod}.{node.name}.{sub.name}"
                            self.defs[key] = mod, sub
                            self.methods.setdefault(sub.name, []).append(key)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        if isinstance(target, ast.Name):
                            self.assigns[f"{mod}.{target.id}"] = mod, node.value

    def _refs(self, mod: str, node: ast.AST):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield self.imports[mod].get(n.id, f"{mod}.{n.id}")
            elif isinstance(n, ast.Attribute):
                yield from self.methods.get(n.attr, ())

    def reached(self, roots) -> set[str]:
        seen: set[str] = set()
        todo = list(roots)
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            if key in self.assigns:
                todo.extend(self._refs(*self.assigns[key]))
            if key not in self.defs:
                continue
            mod, node = self.defs[key]
            if not isinstance(node, ast.ClassDef):
                todo.extend(self._refs(mod, node))
                continue
            for part in node.bases + node.keywords + node.decorator_list:
                todo.extend(self._refs(mod, part))
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    todo.extend(self._refs(mod, sub))
                elif sub.name.startswith("__") and sub.name.endswith("__"):
                    todo.append(f"{key}.{sub.name}")
        return seen

    def unreached(self, extra_roots=()) -> list[str]:
        entry = [k for k in self.defs if k in ("cli.run", "cli.main") or k.startswith("cli._cmd_")]
        seen = self.reached([*entry, *extra_roots])
        return sorted(k for k in self.defs if k not in seen)


def test_every_definition_in_src_is_reached():
    unreached = Layout(sources()).unreached([*bench_targets(), *PENDING])
    assert unreached == [], f"no command, bench span or pending decision reaches {unreached}"


def test_every_listed_root_is_defined():
    layout = Layout(sources())
    assert [k for k in [*bench_targets(), *PENDING] if k not in layout.defs] == []


def test_an_unused_function_is_caught():
    """The scan is not vacuous: one function that nothing calls is named."""
    srcs = sources()
    srcs["exactlin"] += "\n\ndef _spare(m):\n    return rank(m)\n"
    assert Layout(srcs).unreached([*bench_targets(), *PENDING]) == ["exactlin._spare"]
