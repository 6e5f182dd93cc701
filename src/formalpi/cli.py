"""Command line front end and the JSON input schema.

Input files describe one graded-commutative algebra:

    {
      "name": "cp2",
      "characters": {"free_rank": 0, "torsion": []},   # optional
      "basis": [{"id": "h2", "degree": 2, "char": [0]}, ...],
      "unit": "e0",
      "products": [
        {"left": "h2", "right": "h2",
         "result": [{"id": "h4", "coeff": "1"}]}
      ]
    }

Products are listed for left-index <= right-index only; coefficients are
decimal strings "p/q" or "n".  Output tables are tab-separated with a header
row and LF line endings, byte-for-byte deterministic for fixed input and
flags (timings are kept out of the payload for that reason).  Exit codes:
0 success, 1 validation failure, 2 I/O or schema error, 3 cutoff exceeded.

A subcommand computes its rows into both a text table and a JSON payload;
``run`` prints one of the two, adding ``command`` and ``input`` to the
payload.  Rows that only the payload shows (the minimal model's generators)
are built under ``--json`` alone.  Every subcommand except ``validate``
reports an invalid presentation (exit 1) ahead of its own refusals.  A
presentation is read-only once built, and its product table and its
validation report are each computed once.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from contextlib import suppress
from fractions import Fraction
from functools import cache
from pathlib import Path

from .errors import (
    CutoffExceededError,
    FormalpiError,
    InvalidInputError,
    NotCompleteError,
    OutOfRangeError,
)
from .exactlin import Record
from .graded_core import (
    AlgebraPresentation,
    CharacterLattice,
    is_simply_connected_type,
    require_valid,
)

_COEFF_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class SchemaError(Exception):
    """The JSON payload does not match the input schema."""


def _fail(msg: str):
    raise SchemaError(msg)


def _is_int(x) -> bool:
    """JSON integers only: true and false are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_coeff(s) -> int | Fraction:
    if _is_int(s):
        return s
    if isinstance(s, str) and _COEFF_RE.match(s):
        with suppress(ValueError):  # a numeral past the interpreter's digit limit
            return Fraction(s)
    _fail(f"coefficient {s!r} is not of the form 'p/q' or 'n'")


def parse_presentation(doc: dict, name_hint: str = "input") -> AlgebraPresentation:
    if not isinstance(doc, dict):
        _fail("top level must be an object")
    for key in doc:
        if key not in {"name", "characters", "basis", "unit", "products"}:
            _fail(f"unknown key {key!r}")
    name = doc.get("name", name_hint)
    if not isinstance(name, str):
        _fail("'name' must be a string")

    chars = doc.get("characters", {"free_rank": 0, "torsion": []})
    if not isinstance(chars, dict):
        _fail("'characters' must be an object")
    free_rank = chars.get("free_rank", 0)
    torsion = chars.get("torsion", [])
    if not _is_int(free_rank) or free_rank < 0:
        _fail("'free_rank' must be a non-negative integer")
    if not isinstance(torsion, list) or any(not _is_int(t) or t < 2 for t in torsion):
        _fail("'torsion' must be a list of integers >= 2")
    lattice = CharacterLattice(free_rank, tuple(torsion))

    raw_basis = doc.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        _fail("'basis' must be a non-empty list")
    basis = []
    for entry in raw_basis:
        if not isinstance(entry, dict) or "id" not in entry or "degree" not in entry:
            _fail(f"basis entry {entry!r} needs 'id' and 'degree'")
        ident, degree = entry["id"], entry["degree"]
        if not isinstance(ident, str) or not _is_int(degree) or degree < 0:
            _fail(f"basis entry {entry!r}: 'id' must be a string, 'degree' a natural number")
        char = entry.get("char", [0] * lattice.length)
        if not isinstance(char, list) or len(char) != lattice.length or any(
            not _is_int(c) for c in char
        ):
            _fail(f"basis entry {ident!r}: 'char' must be a list of {lattice.length} integers")
        basis.append((ident, degree, tuple(char)))

    unit = doc.get("unit")
    if not isinstance(unit, str):
        _fail("'unit' must be a string")

    raw_products = doc.get("products", [])
    if not isinstance(raw_products, list):
        _fail("'products' must be a list")
    products: dict[tuple[str, str], dict[str, Fraction]] = {}
    for row in raw_products:
        if not isinstance(row, dict) or not {"left", "right", "result"} <= set(row):
            _fail(f"product entry {row!r} needs 'left', 'right', 'result'")
        left, right, result = row["left"], row["right"], row["result"]
        if not isinstance(left, str) or not isinstance(right, str) or not isinstance(result, list):
            _fail(f"product entry {row!r}: bad field types")
        if (left, right) in products:
            _fail(f"product ({left},{right}) listed twice")
        terms = {}
        for term in result:
            if not isinstance(term, dict) or "id" not in term or "coeff" not in term:
                _fail(f"product term {term!r} needs 'id' and 'coeff'")
            if term["id"] in terms:
                _fail(f"product ({left},{right}) repeats target {term['id']!r}")
            terms[term["id"]] = parse_coeff(term["coeff"])
        products[(left, right)] = terms

    return AlgebraPresentation(name, basis, unit, products, lattice)


def load_presentation(path) -> AlgebraPresentation:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{p}: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # nesting or a numeral past the limits
        raise SchemaError(f"{p}: not valid JSON: {exc}") from exc
    return parse_presentation(doc, name_hint=p.stem)


# ---------------------------------------------------------------------------
# reporting


class RunReport(Record):
    _fields = ("text", "payload", "exit_status")

    def __init__(self, text: str = "", payload: dict | None = None, exit_status: int = 0):
        self.text = text
        self.payload = payload
        self.exit_status = exit_status


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _table(header: list[str], rows: list[list]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _char_label(char: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in char) + ")"


# ---------------------------------------------------------------------------
# subcommands


def _banner(complete: bool, max_w: int) -> str:
    """The line that opens a table truncated in weight, or nothing."""
    return "" if complete else f"TRUNCATED AT WEIGHT {max_w}\n"


def _cmd_validate(pres, args, report: RunReport):
    result = pres.validation
    report.payload = {
        "ok": result.ok,
        "violations": [
            {"code": v.code, "message": v.message, "subjects": list(v.subjects)}
            for v in result.violations
        ],
    }
    report.text = str(result) + "\n"
    report.exit_status = 0 if result.ok else 1


def _cmd_pi(pres, args, report: RunReport):
    from .quillen_weight import ext_table

    table = ext_table(pres, args.max_degree, args.max_weight)
    rows = []
    if not table.complete:
        agg = [0] * table.max_w
        for (w, _), v in table.pi1_pieces.items():
            agg[w - 1] += v
        rows.append([1, sum(agg), agg])
    for m in range(2, args.max_degree + 1):
        top_w = min(table.max_w, m - 1) if table.complete else table.max_w
        agg = [0] * top_w
        for (w, _), v in table.weight_breakdown(m).items():
            agg[w - 1] += v
        rows.append([m, table.total(m), agg])
    report.payload = {
        "max_degree": args.max_degree,
        "max_weight": args.max_weight,
        "complete": table.complete,
        "truncated_at_weight": None if table.complete else table.max_w,
        "rows": [{"m": m, "total": t, "weights": agg} for m, t, agg in rows],
    }
    report.text = _banner(table.complete, table.max_w) + _table(
        ["m", "total", "weights"],
        [[m, t, "[" + ",".join(str(d) for d in agg) + "]"] for m, t, agg in rows],
    )


def _cmd_supports(pres, args, report: RunReport):
    from .quillen_weight import ext_table

    table = ext_table(pres, args.max_degree, args.max_weight)
    supports = {m: sorted(table.characters(m)) for m in range(2, args.max_degree + 1)}
    report.payload = {
        "max_degree": args.max_degree,
        "max_weight": args.max_weight,
        "complete": table.complete,
        "rows": [{"m": m, "support": [list(c) for c in chars]} for m, chars in supports.items()],
    }
    report.text = _banner(table.complete, table.max_w) + _table(
        ["m", "support"],
        [[m, " ".join(_char_label(c) for c in chars) or "-"] for m, chars in supports.items()],
    )


def _cmd_hurewicz(pres, args, report: RunReport):
    from .quillen_weight import check_cutoffs, hurewicz_image

    if not is_simply_connected_type(pres):
        raise NotCompleteError("input has degree-1 classes; table is a truncation")
    check_cutoffs(args.max_degree, args.max_weight)
    images = {m: hurewicz_image(pres, m) for m in range(2, args.max_degree + 1)}
    report.payload = {
        "max_degree": args.max_degree,
        "rows": [
            {
                "m": m,
                "rank": image.dim,
                "h_dim": image.ambient_dim,
                "image": [[str(x) for x in v] for v in image.vectors],
            }
            for m, image in images.items()
        ],
    }
    report.text = _table(
        ["m", "rank", "h_dim"], [[m, image.dim, image.ambient_dim] for m, image in images.items()]
    )


def _cmd_ss(pres, args, report: RunReport):
    from .quillen_weight import build_model
    from .ss_engine import check_degeneration, filtered_from_model, page

    if args.page < 1:  # refused before the model is built
        raise OutOfRangeError("pages start at r = 1")
    model = build_model(pres, args.max_degree, args.max_weight)
    fc = filtered_from_model(model)
    pg = page(fc, args.page)
    # window to the slots unaffected by the internal degree/weight truncation
    rows = [
        [p, q, d]
        for (p, q), d in sorted(pg.dims.items())
        if d and p <= model.max_w and q - p <= model.max_m - 1
    ]
    text = _banner(model.complete, model.max_w) + _table(["p", "q", "dim"], rows)
    degen = None
    if args.check_degeneration:
        # E_(L+1) is E_infinity for a filtration of length L = max_level
        degen = check_degeneration(fc, 2, max(2, fc.max_level))
        text += f"degenerate from page 2: {'true' if degen.degenerate else 'false'}\n"
    report.payload = {
        "page": args.page,
        "complete": model.complete,
        "truncated_at_weight": None if model.complete else model.max_w,
        "dims": [{"p": p, "q": q, "dim": d} for p, q, d in rows],
        "degenerate_from_2": None if degen is None else degen.degenerate,
    }
    report.text = text


def _cmd_minimal_model(pres, args, report: RunReport):
    from .sullivan_oracle import minimal_model

    mm = minimal_model(pres, args.max_degree)
    counts = mm.generator_counts()
    rows = [[n, counts.get(n, 0)] for n in range(2, args.max_degree + 1)]
    report.payload = {"max_degree": args.max_degree, "counts": {str(n): c for n, c in rows}}
    if args.json:
        names = [g.name for g in mm.generators]
        report.payload["generators"] = [
            {
                "name": g.name,
                "degree": g.degree,
                "d": [
                    {"monomial": [names[i] for i in mono], "coeff": str(c)}
                    for mono, c in g.differential
                ],
                "image": [{"id": ident, "coeff": str(c)} for ident, c in g.image],
            }
            for g in mm.generators
        ]
    report.text = _table(["degree", "generators"], rows)


def _cmd_doldkan(pres, args, report: RunReport):
    from .dold_kan import (
        CochainComplex,
        complexes_agree,
        denormalize,
        normalize,
        random_cochain_complex,
    )
    from .errors import SimplicialIdentityError

    if args.fuzz < 0:
        raise InvalidInputError("fuzz count must be >= 0")
    # D(C) through level L reads C only in degrees <= L; d = 0 is not stored
    ids = pres.ids_by_degree
    top = min(max(ids), args.level)
    c = CochainComplex(tuple(len(ids.get(n, ())) for n in range(top + 1)))
    v = denormalize(c, args.level)
    # normalize raises SimplicialIdentityError, naming the identity, on a violation
    ok = complexes_agree(c, normalize(v), args.level)
    dims = [v.dims[n] for n in range(args.level + 1)]
    text = _table(["level", "dim"], enumerate(dims))
    text += f"cosimplicial identities: OK\nround-trip: {'OK' if ok else 'FAIL'}\n"
    report.payload = {"level": args.level, "dims": dims, "identities_ok": True, "roundtrip_ok": ok}

    if args.fuzz:
        rng = random.Random(args.seed)
        good = 0
        for _ in range(args.fuzz):
            rc = random_cochain_complex(rng, max_degree=3, max_dim=3)
            lvl = max(len(rc.dims) - 1, 2)
            try:
                good += complexes_agree(rc, normalize(denormalize(rc, lvl)), lvl)
            except SimplicialIdentityError:
                pass
        text += f"fuzz: {good}/{args.fuzz} round-trips OK\n"
        report.payload["fuzz"] = {"seed": args.seed, "total": args.fuzz, "ok": good}
        ok = ok and good == args.fuzz

    report.text = text
    report.exit_status = 0 if ok else 1


def _cmd_lie_dims(pres, args, report: RunReport):
    from .free_lie import slot_dims
    from .quillen_weight import model_generators

    # slot (r, w, char) sits at (p, q) = (r + w, w); sum over characters
    dims: dict[tuple[int, int], int] = {}
    gens = model_generators(pres)
    for (r, w, _), d in slot_dims(gens, args.max_degree - 1, args.max_weight).items():
        dims[(r + w, w)] = dims.get((r + w, w), 0) + d
    rows = sorted([p, q, d] for (p, q), d in dims.items())
    report.payload = {"dims": [{"p": p, "q": q, "dim": d} for p, q, d in rows]}
    report.text = _table(["p", "q", "dim"], rows)


_COMMANDS = {
    "validate": _cmd_validate,
    "pi": _cmd_pi,
    "supports": _cmd_supports,
    "hurewicz": _cmd_hurewicz,
    "ss": _cmd_ss,
    "minimal-model": _cmd_minimal_model,
    "doldkan": _cmd_doldkan,
    "lie-dims": _cmd_lie_dims,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    It holds no stream: argparse looks up sys.stdout and sys.stderr when it
    prints usage, help or an error, so redirecting them later still works.
    """
    ap = argparse.ArgumentParser(
        prog="formalpi",
        description="Weight-graded rational homotopy of formal spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("input", help="JSON algebra presentation")
        sp.add_argument("--max-degree", type=int, default=8, dest="max_degree")
        sp.add_argument("--max-weight", type=int, default=None, dest="max_weight")
        sp.add_argument("--json", action="store_true")
        if name == "ss":
            sp.add_argument("--page", type=int, default=2)
            sp.add_argument("--check-degeneration", action="store_true")
        if name == "doldkan":
            sp.add_argument("--level", type=int, default=4)
            sp.add_argument("--fuzz", type=int, default=0)
            sp.add_argument("--seed", type=int, default=0)
    return ap


def run(argv, out=None) -> RunReport:
    """Execute one subcommand; returns the report (text already printed).

    The text, or with --json the rendered payload, is printed only when the
    subcommand returns normally: a refusal prints its message alone."""
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 2
        return RunReport(exit_status=int(code))
    if args.max_weight is None:
        args.max_weight = args.max_degree
    report = RunReport()
    try:
        pres = load_presentation(args.input)
        if args.command != "validate":  # an invalid input is reported ahead of any refusal
            require_valid(pres)
        _COMMANDS[args.command](pres, args, report)
        if args.json:
            report.text = render_json({"command": args.command, "input": pres.name, **report.payload})
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        report.exit_status = 2
    except CutoffExceededError as exc:
        print(f"cutoff exceeded: {exc}", file=sys.stderr)
        report.exit_status = 3
    except InvalidInputError as exc:
        report.text = f"{exc}\n"
        report.exit_status = 1
    except FormalpiError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        report.exit_status = 1
    if report.text:
        out.write(report.text)
    return report


def main():
    sys.exit(run(sys.argv[1:]).exit_status)


if __name__ == "__main__":
    main()
