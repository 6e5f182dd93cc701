"""Per-layer tracing of formalpi from outside the package.

``install`` imports the formalpi modules in dependency order and, right after
importing each one, replaces the functions the benchmark measures with
wrappers that record spans.  Dependents bind names at import (``from
.exactlin import rank``), so patching a module before its dependents are
imported is what makes their calls go through the wrappers.

A span is (name, start, end, parent, job).  Spans and counters stay in memory
until ``metrics`` folds them into the per-layer numbers; a layer's self time
is its span time minus the time of the spans nested directly inside it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute path, span name); "Class.method" patches the class.
SPANS = [
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "kernel_basis", "exactlin.kernel"),
    ("exactlin", "RationalMatrix.matmul", "exactlin.matmul"),
    ("exactlin", "SubspaceBasis.from_vectors", "exactlin.subspace"),
    ("exactlin", "SubspaceBasis.contains", "exactlin.subspace"),
    ("exactlin", "subspace_sum", "exactlin.subspace"),
    ("exactlin", "subspace_intersection", "exactlin.subspace"),
    ("exactlin", "preimage_subspace", "exactlin.subspace"),
    ("exactlin", "image_subspace", "exactlin.subspace"),
    ("exactlin", "coordinates_in_span", "exactlin.subspace"),
    ("exactlin", "extend_to_complement", "exactlin.subspace"),
    ("graded_core", "validate_algebra", "graded_core.validate"),
    ("graded_core", "dualize", "graded_core.dualize"),
    ("free_lie", "FreeLieBasis.__init__", "free_lie.basis"),
    ("free_lie", "expand", "free_lie.expand"),
    ("quillen_weight", "build_model", "quillen_weight.build_model"),
    ("quillen_weight", "homotopy_table", "quillen_weight.homotopy_table"),
    ("quillen_weight", "hurewicz_rank", "quillen_weight.hurewicz"),
    ("ss_engine", "filtered_from_model", "ss_engine.filtered"),
    ("ss_engine", "page", "ss_engine.page"),
    ("sullivan_oracle", "minimal_model", "sullivan_oracle.minimal_model"),
    ("dold_kan", "denormalize", "dold_kan.denormalize"),
    ("dold_kan", "normalize", "dold_kan.normalize"),
    ("dold_kan", "check_cosimplicial_identities", "dold_kan.identities"),
    ("dold_kan", "random_cochain_complex", "dold_kan.fuzz_complex"),
    ("cli", "load_presentation", "cli.load"),
]
MODULE_ORDER = [
    "errors",
    "exactlin",
    "graded_core",
    "free_lie",
    "quillen_weight",
    "ss_engine",
    "sullivan_oracle",
    "dold_kan",
    "cli",
]
SELF_TIMES = sorted({name for _, _, name in SPANS})
COUNTS = [
    "graded_core.validate_calls",
    "free_lie.basis_words",
    "free_lie.expand_calls",
    "quillen_weight.d_nnz",
    "exactlin.rank_calls",
    "exactlin.rank_nnz",
    "exactlin.rref_calls",
    "ss_engine.page_calls",
]


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        """Forget every span and count (the patches stay installed)."""
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.counts = dict.fromkeys(COUNTS + ["rank_rows", "rank_sum", "assembled"], 0)
        self.pages: set = set()
        self.slots_read: set = set()
        self.building = 0

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name):
        def validate(args, result):
            self.counts["graded_core.validate_calls"] += 1

        def basis(args, result):
            self.counts["free_lie.basis_words"] += sum(len(ws) for ws in args[0].slots.values())

        def expand(args, result):
            self.counts["free_lie.expand_calls"] += 1

        def build_model(args, model):
            self.counts["quillen_weight.d_nnz"] += sum(len(m.entries) for m in model.differential.values())
            self.counts["assembled"] += len(model.differential)

        def rank(args, result):
            self.counts["exactlin.rank_calls"] += 1
            self.counts["exactlin.rank_nnz"] += len(args[0].entries)
            self.counts["rank_rows"] += args[0].rows
            self.counts["rank_sum"] += result

        def subspace(args, result):
            self.counts["exactlin.rref_calls"] += 1

        def page(args, result):
            self.counts["ss_engine.page_calls"] += 1
            self.pages.add((self.job, id(args[0]), args[1]))

        return {
            "graded_core.validate": validate,
            "free_lie.basis": basis,
            "free_lie.expand": expand,
            "quillen_weight.build_model": build_model,
            "exactlin.rank": rank,
            "exactlin.subspace": subspace,
            "ss_engine.page": page,
        }.get(name)

    def _slot_matrix(self, fn):
        """Counts the assembled slots read outside build_model (no span)."""

        def slot_matrix(model, r, w, char=()):
            key = (r, w, tuple(char))
            if not self.building and key in model.differential:
                self.slots_read.add((self.job, id(model), key))
            return fn(model, r, w, char)

        return slot_matrix

    def _building(self, fn):
        def build_model(*args, **kwargs):
            self.building += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.building -= 1

        return build_model

    # -- patching -------------------------------------------------------------

    def install(self):
        """Import formalpi module by module, patching each before its dependents."""
        by_module: dict[str, list] = {}
        for module, attr, name in SPANS:
            by_module.setdefault(module, []).append((attr, name))
        for module in MODULE_ORDER:
            mod = importlib.import_module(f"formalpi.{module}")
            for attr, name in by_module.get(module, ()):
                self._patch(mod, attr, name)
            if module == "quillen_weight":
                cls = mod.FormalLieModel
                cls.slot_matrix = self._slot_matrix(cls.slot_matrix)
                mod.build_model = self._building(mod.build_model)

    def _patch(self, mod, attr, name):
        owner = mod
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(name, raw.__func__, self._after(name))))
                return
        setattr(owner, attr, self.span(name, getattr(owner, attr), self._after(name)))

    # -- folding --------------------------------------------------------------

    def self_times(self, job=None) -> dict[str, float]:
        """Self time per span name, over every job or over one job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_TIMES, 0.0)
        for i, (name, start, end, _, span_job) in enumerate(self.spans):
            if job is None or span_job == job:
                out[name] += (end - start) - child[i]
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        self_times = self.self_times()
        out = {f"{name}_s": (self_times[name], "s") for name in SELF_TIMES}
        out.update({name: (c[name], "count") for name in COUNTS})
        out["quillen_weight.window_ratio"] = (_ratio(len(self.slots_read), c["assembled"]), "ratio")
        out["exactlin.rank_yield"] = (_ratio(c["rank_sum"], c["rank_rows"]), "ratio")
        out["ss_engine.page_reuse"] = (_ratio(len(self.pages), c["ss_engine.page_calls"]), "ratio")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
