"""Closed-form values for the generated families, checked against CLI stdout.

Nothing here imports formalpi: the expected numbers come from integer power
series and binomials, in the style of the test suite's ``tests/oracles.py``.
Each check takes the job's option values and its stdout and returns an
error message, or None when the output agrees.

Free graded Lie algebras and Labute's surface groups are both read off
Poincare-Birkhoff-Witt: the enveloping algebra's series equals
prod (1 + x^r t^w)^{l_odd} / prod (1 - x^r t^w)^{l_even} over the Lie
algebra's (reduced degree r, weight w) pieces, which can be inverted slot by
slot in weight order.
"""

from __future__ import annotations

from math import comb


def _rows(stdout: str) -> tuple[bool, list[list[str]]]:
    lines = stdout.splitlines()
    truncated = bool(lines) and lines[0].startswith("TRUNCATED AT WEIGHT")
    if truncated:
        lines = lines[1:]
    return truncated, [line.split("\t") for line in lines[1:]]


def _pi_table(stdout: str) -> tuple[bool, dict[int, tuple[int, list[int]]]]:
    truncated, rows = _rows(stdout)
    table = {}
    for m, total, weights in rows:
        table[int(m)] = (int(total), [int(x) for x in weights.strip("[]").split(",") if x])
    return truncated, table


def _mul(a: dict, b: dict, max_w: int, max_r: int) -> dict:
    out: dict = {}
    for (wa, ra), ca in a.items():
        for (wb, rb), cb in b.items():
            if wa + wb <= max_w and ra + rb <= max_r:
                out[(wa + wb, ra + rb)] = out.get((wa + wb, ra + rb), 0) + ca * cb
    return out


def _factor(w: int, r: int, mult: int, max_w: int, max_r: int) -> dict:
    """(1 + x^r t^w)^mult for odd r, 1 / (1 - x^r t^w)^mult for even r."""
    out = {}
    j = 0
    while j * w <= max_w and j * r <= max_r:
        out[(j * w, j * r)] = comb(mult, j) if r % 2 else comb(mult + j - 1, j)
        j += 1
    return out


def pbw_inverse(target: dict, max_w: int, max_r: int) -> dict:
    """Lie piece dimensions {(w, r): dim} whose PBW series is ``target``.

    ``target`` maps (w, r) to the enveloping algebra's dimension, with
    (0, 0) -> 1.  Pieces of weight w only enter the product at t^w linearly,
    so each weight is solved from the product of the lighter pieces.
    """
    dims = {}
    product = {(0, 0): 1}
    for w in range(1, max_w + 1):
        layer = []
        for r in range(max_r + 1):
            d = target.get((w, r), 0) - product.get((w, r), 0)
            if d < 0:
                raise ValueError(f"no Lie algebra has this series at (w={w}, r={r})")
            if d:
                dims[(w, r)] = d
                layer.append((r, d))
        for r, d in layer:
            product = _mul(product, _factor(w, r, d, max_w, max_r), max_w, max_r)
    return dims


def free_lie_dims(reduced_degrees, max_w: int, max_r: int) -> dict:
    """Free graded Lie algebra: the enveloping algebra is the tensor algebra."""
    letters: dict = {}
    for d in reduced_degrees:
        letters[(1, d)] = letters.get((1, d), 0) + 1
    words = {(0, 0): 1}
    level = {(0, 0): 1}
    for _ in range(max_w):
        level = _mul(level, letters, max_w, max_r)
        for key, c in level.items():
            words[key] = words.get(key, 0) + c
    return pbw_inverse(words, max_w, max_r)


def labute_weights(genus: int, max_w: int) -> list[int]:
    """Weight pieces of the surface group's Malcev Lie algebra.

    The enveloping algebra of Sigma_g has series 1 / (1 - 2g t + t^2).
    """
    series = [1, 2 * genus]
    while len(series) <= max_w:
        series.append(2 * genus * series[-1] - series[-2])
    dims = pbw_inverse({(w, 0): c for w, c in enumerate(series)}, max_w, 0)
    return [dims.get((w, 0), 0) for w in range(1, max_w + 1)]


# ---------------------------------------------------------------------------
# checks, keyed by the name used in the workload manifest


def _expect_totals(table, want: dict) -> str | None:
    for m, (total, _) in sorted(table.items()):
        if m >= 2 and total != want.get(m, 0):
            return f"pi_{m} = {total}, closed form {want.get(m, 0)}"
    return None


def sphere_power(opts, stdout, k):
    """(S^2)^k: pi_2 = pi_3 = k and every other group vanishes."""
    _, table = _pi_table(stdout)
    return _expect_totals(table, {2: k, 3: k})


def cp_product(opts, stdout, a, b):
    """CP^a x CP^b: pi_2 = 2 plus one class in each of degrees 2a+1 and 2b+1."""
    _, table = _pi_table(stdout)
    want = {2: 2}
    for n in (a, b):
        want[2 * n + 1] = want.get(2 * n + 1, 0) + 1
    return _expect_totals(table, want)


def torus(opts, stdout, k):
    """T^k: pi_1 is abelian of rank k (weight row [k, 0, ...]), pi_m = 0 for m >= 2."""
    truncated, table = _pi_table(stdout)
    want = [k] + [0] * (opts["max_weight"] - 1)
    if not truncated or table.get(1, (0, []))[1] != want:
        return f"pi_1 weights {table.get(1)}, closed form {want}"
    return _expect_totals(table, {})


def surface(opts, stdout, genus):
    """Sigma_g: pi_1 weights follow Labute, prod (1 - t^n)^phi_n = 1 - 2g t + t^2."""
    _, table = _pi_table(stdout)
    want = labute_weights(genus, opts["max_weight"])
    got = table.get(1, (0, []))[1]
    return None if got == want else f"pi_1 weights {got}, Labute {want}"


def sphere_power_hurewicz(opts, stdout, k):
    """(S^2)^k: Hurewicz rank k in degree 2, zero above; H^m has dim C(k, m/2)."""
    _, rows = _rows(stdout)
    for m, rank, h_dim in rows:
        m, rank, h_dim = int(m), int(rank), int(h_dim)
        want = (k if m == 2 else 0, comb(k, m // 2) if m % 2 == 0 else 0)
        if (rank, h_dim) != want:
            return f"degree {m}: (rank, h_dim) = {(rank, h_dim)}, closed form {want}"
    return None


def wedge_lie_dims(opts, stdout, *degrees):
    """Wedge of spheres: lie-dims is the free graded Lie algebra on the classes."""
    max_r, max_w = opts["max_degree"] - 1, opts["max_weight"]
    dims = free_lie_dims([d - 1 for d in degrees], max_w, max_r)
    want = sorted((r + w, w, d) for (w, r), d in dims.items())
    _, rows = _rows(stdout)
    got = [tuple(int(x) for x in row) for row in rows]
    return None if got == want else "lie-dims differ from the PBW count"


CHECKS = {
    "sphere_power": sphere_power,
    "cp_product": cp_product,
    "torus": torus,
    "surface": surface,
    "sphere_power_hurewicz": sphere_power_hurewicz,
    "wedge_lie_dims": wedge_lie_dims,
}


def check(spec: str, argv: list[str], stdout: str) -> str | None:
    """Run the closed-form check ``name:arg,arg`` on one job's stdout."""
    name, _, params = spec.partition(":")
    opts = {"max_degree": 8, "max_weight": None}
    for flag, key in (("--max-degree", "max_degree"), ("--max-weight", "max_weight")):
        if flag in argv:
            opts[key] = int(argv[argv.index(flag) + 1])
    if opts["max_weight"] is None:
        opts["max_weight"] = opts["max_degree"]
    try:
        return CHECKS[name](opts, stdout, *(int(x) for x in params.split(",") if x))
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparsable output for {spec}: {exc!r}"
