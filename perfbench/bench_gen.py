"""Deterministic generator of benchmark inputs (stdlib only).

A presentation is a plain dict in the JSON input schema of the formalpi CLI,
so a generated file and a corpus file are read by the same code path.
Families: tensor products of presentations (Koszul sign), giving (S^2)^k,
T^k and CP^a x CP^b; genus-g surfaces with and without characters; the torus
with characters; wedges of spheres.  ``rationalize`` applies a seeded
diagonal rescaling by +-p/q (p, q in [1, 9]) and shuffles the basis within
each degree, which leaves every homotopy table unchanged but raises the
height of the product coefficients.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def _pres(name, basis, products, free_rank=0):
    """basis: [(id, degree, char)], products: {(a, b): {t: Fraction}}."""
    return {"name": name, "free_rank": free_rank, "basis": basis, "products": products}


def sphere(n, tag):
    return _pres(f"S{n}", [("e0", 0, ()), (f"x{tag}", n, ())], {})


def cp(a, tag):
    basis = [("e0", 0, ())] + [(f"h{tag}_{i}", 2 * i, ()) for i in range(1, a + 1)]
    products = {
        (basis[i][0], basis[j][0]): {basis[i + j][0]: Fraction(1)}
        for i in range(1, a + 1)
        for j in range(i, a + 1 - i)
    }
    return _pres(f"CP{a}", basis, products)


def wedge(degrees):
    basis = [("e0", 0, ())] + [(f"x{i}", d, ()) for i, d in enumerate(degrees)]
    return _pres("wedge", basis, {})


def surface(g, characters=False):
    """Sigma_g; with characters a_i -> [1], b_i -> [-1] in a free rank-1 lattice."""
    ch = (lambda c: (c,)) if characters else (lambda c: ())
    basis = [("e0", 0, ch(0))]
    basis += [(f"a{i}", 1, ch(1)) for i in range(g)]
    basis += [(f"b{i}", 1, ch(-1)) for i in range(g)]
    basis += [("w2", 2, ch(0))]
    products = {(f"a{i}", f"b{i}"): {"w2": Fraction(1)} for i in range(g)}
    return _pres(f"Sigma{g}", basis, products, free_rank=1 if characters else 0)


def torus_with_characters():
    basis = [("e0", 0, (0,)), ("e1", 1, (1,)), ("f1", 1, (-1,)), ("t2", 2, (0,))]
    return _pres("T2chi", basis, {("e1", "f1"): {"t2": Fraction(1)}}, free_rank=1)


def _full_product(p, a, b):
    """a*b with the unstored order derived by the Koszul sign."""
    index = {e[0]: i for i, e in enumerate(p["basis"])}
    deg = {e[0]: e[1] for e in p["basis"]}
    if a == "e0":
        return {b: Fraction(1)}
    if b == "e0":
        return {a: Fraction(1)}
    if index[a] <= index[b]:
        return dict(p["products"].get((a, b), {}))
    sign = -1 if deg[a] % 2 and deg[b] % 2 else 1
    return {t: sign * c for t, c in p["products"].get((b, a), {}).items()}


def tensor(p, q):
    """p (x) q with (a(x)b)(c(x)d) = (-1)^{|b||c|} ac (x) bd; trivial characters."""

    def name(a, b):
        return b if a == "e0" else a if b == "e0" else f"{a}.{b}"

    basis = [
        (name(a, b), da + db, ())
        for a, da, _ in p["basis"]
        for b, db, _ in q["basis"]
    ]
    basis.sort(key=lambda e: e[1])
    index = {e[0]: i for i, e in enumerate(basis)}
    products = {}
    for a, da, _ in p["basis"]:
        for b, db, _ in q["basis"]:
            for c, dc, _ in p["basis"]:
                for d, dd, _ in q["basis"]:
                    left, right = name(a, b), name(c, d)
                    if "e0" in (left, right) or index[left] > index[right]:
                        continue
                    sign = -1 if db % 2 and dc % 2 else 1
                    terms = {}
                    for s, cs in _full_product(p, a, c).items():
                        for t, ct in _full_product(q, b, d).items():
                            terms[name(s, t)] = sign * cs * ct
                    if terms:
                        products[(left, right)] = terms
    return _pres(f"{p['name']}x{q['name']}", basis, products)


def power(factor, k):
    out = factor(0)
    for i in range(1, k):
        out = tensor(out, factor(i))
    out["name"] = f"{out['name'].split('x')[0]}^{k}"
    return out


def rationalize(p, rng):
    """Seeded diagonal rescaling by +-p/q and a shuffle within each degree."""
    scale = {"e0": Fraction(1)}
    for ident, _, _ in p["basis"][1:]:
        scale[ident] = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
    by_degree = {}
    for e in p["basis"]:
        by_degree.setdefault(e[1], []).append(e)
    basis = []
    for d in sorted(by_degree):
        block = by_degree[d]
        rng.shuffle(block)
        basis += block
    index = {e[0]: i for i, e in enumerate(basis)}
    deg = {e[0]: e[1] for e in basis}
    products = {}
    for (a, b), terms in p["products"].items():
        # x_t = s_t e_t, so x_a x_b = sum (s_a s_b / s_t) c x_t
        new = {t: scale[a] * scale[b] / scale[t] * c for t, c in terms.items()}
        if index[a] > index[b]:
            a, b = b, a
            if deg[a] % 2 and deg[b] % 2:
                new = {t: -c for t, c in new.items()}
        products[(a, b)] = new
    return _pres(p["name"] + "-rational", basis, products, p["free_rank"])


def to_json(p) -> str:
    """Canonical JSON text in the CLI input schema."""

    def coeff(c):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    rank = p["free_rank"]
    doc = {
        "name": p["name"],
        "characters": {"free_rank": rank, "torsion": []},
        "basis": [
            {"id": i, "degree": d, "char": list(c) if rank else []} for i, d, c in p["basis"]
        ],
        "unit": "e0",
        "products": [
            {"left": a, "right": b, "result": [{"id": t, "coeff": coeff(c)} for t, c in terms.items()]}
            for (a, b), terms in p["products"].items()
        ],
    }
    return json.dumps(doc) + "\n"


FAMILIES = {
    "s2^3": lambda: power(lambda i: sphere(2, i), 3),
    "s2^4": lambda: power(lambda i: sphere(2, i), 4),
    "s2^5": lambda: power(lambda i: sphere(2, i), 5),
    "s2^6": lambda: power(lambda i: sphere(2, i), 6),
    "t3": lambda: power(lambda i: sphere(1, i), 3),
    "t6": lambda: power(lambda i: sphere(1, i), 6),
    "cp2xcp2": lambda: tensor(cp(2, "a"), cp(2, "b")),
    "sigma2": lambda: surface(2),
    "sigma2_chi": lambda: surface(2, characters=True),
    "t2_chi": torus_with_characters,
    "wedge_2233": lambda: wedge([2, 2, 3, 3]),
}


def make(token: str, seed: int) -> str:
    """JSON text for ``family``, or for ``family~rN``: its N-th rational variant.

    Each variant draws from its own stream, seeded by the seed and the token,
    so one input's text does not depend on which other inputs are made.
    """
    family, _, variant = token.partition("~")
    p = FAMILIES[family]()
    if variant:
        p = rationalize(p, random.Random(f"{seed}:{token}"))
    return to_json(p)
