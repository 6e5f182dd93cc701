from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from formalpi.errors import CompositionNonzeroError
from formalpi.exactlin import (
    RationalMatrix,
    SubspaceBasis,
    _Echelon,
    _preimage,
    add_product,
    combine,
    coordinates_in_span,
    extend_to_complement,
    homology_dim,
    image_subspace,
    kernel_basis,
    preimage_subspace,
    rank,
    subspace_intersection,
    subspace_sum,
)

from conftest import examples
from oracles import (
    dense_matmul,
    dense_null_space,
    dense_preimage,
    dense_rows,
    from_rows,
    gauss_jordan_rref,
)


# --- independent oracles -----------------------------------------------------
# Plain dense Gaussian elimination over Fractions with first-nonzero
# pivoting.  Shares no code with the sparse integer echelon under test.


def gauss_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pr = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rk += 1
    return rk


def det(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    sign = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= rows[i][i]
    return out


def minor_rank(rows):
    """Largest k such that some k x k minor is nonzero."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return k
    return 0


# --- rank --------------------------------------------------------------------


def test_rank_identity():
    assert rank(RationalMatrix.identity(6)) == 6


def test_rank_matches_minor_enumeration_oracle():
    rng = random.Random(7001)
    for _ in range(12):
        rows = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)]
        m = from_rows(rows)
        assert rank(m) == minor_rank(rows)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    return from_rows(rows)


@settings(max_examples=examples(120), deadline=None)
@given(matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=examples(120), deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=examples(120), deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    k = kernel_basis(m)
    for v in k.vectors:
        assert all(x == 0 for x in m.apply(v))


def test_rank_matches_gauss_oracle():
    rng = random.Random(7002)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
        assert rank(from_rows(rows)) == gauss_rank(rows)


# --- kernel ------------------------------------------------------------------


def test_kernel_of_row_sum():
    m = from_rows([[1, 1]])
    k = kernel_basis(m)
    assert k.vectors == ((Fraction(1), Fraction(-1)),)


def test_kernel_is_canonical_echelon():
    # Different generating sets of the same subspace give equal bases.
    a = SubspaceBasis.from_vectors([(1, 2, 0), (0, 0, 1)], 3)
    b = SubspaceBasis.from_vectors([(2, 4, 3), (1, 2, 1), (3, 6, 4)], 3)
    assert a == b


def test_entry_order_does_not_matter():
    entries1 = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 5}
    entries2 = dict(reversed(list(entries1.items())))
    m1 = RationalMatrix(2, 2, entries1)
    m2 = RationalMatrix(2, 2, entries2)
    assert rank(m1) == rank(m2)
    assert kernel_basis(m1) == kernel_basis(m2)


# --- homology ----------------------------------------------------------------


def test_homology_of_zero_maps():
    for n in (0, 1, 4):
        d_in = RationalMatrix.zero(n, 3)
        d_out = RationalMatrix.zero(2, n)
        assert homology_dim(d_in, d_out) == n


def test_homology_matches_independent_row_reduction():
    # 3-term complex Q^2 -> Q^3 -> Q^2 with d_out @ d_in = 0.
    d_in = from_rows([[1, 0], [0, 1], [1, 1]])
    d_out = from_rows([[1, 1, -1], [2, 2, -2]])
    assert d_out.matmul(d_in).is_zero()
    expected = (3 - gauss_rank(dense_rows(d_out))) - gauss_rank(dense_rows(d_in))
    assert homology_dim(d_in, d_out) == expected == 0


def test_homology_rejects_nonzero_composition():
    d_in = RationalMatrix.identity(2)
    d_out = RationalMatrix.identity(2)
    with pytest.raises(CompositionNonzeroError):
        homology_dim(d_in, d_out)


# --- subspace arithmetic -----------------------------------------------------


def test_sum_and_intersection_dimension_formula():
    rng = random.Random(7003)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = SubspaceBasis.from_vectors(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))], n
        )
        b = SubspaceBasis.from_vectors(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))], n
        )
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for v in i.vectors:
            assert a.contains(v) and b.contains(v)


def test_preimage_and_image():
    m = from_rows([[1, 0, 1], [0, 1, 1]])
    w = SubspaceBasis.from_vectors([(1, 1)], 2)
    pre = preimage_subspace(m, w)
    # x + z = y + z on the preimage of the diagonal.
    for v in pre.vectors:
        img = m.apply(v)
        assert w.contains(img)
    assert pre.dim == 2
    img = image_subspace(m, SubspaceBasis.full(3))
    assert img == SubspaceBasis.full(2)


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def _dense(row, n):
    return tuple(Fraction(row.get(j, 0)) for j in range(n))


def test_coordinates_in_span_roundtrip():
    def rebuild(rows, c):
        out = [Fraction(0)] * 3
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[j] += c.get(i, 0) * x
        return tuple(out)

    # the third row is the sum of the first two, so it never gets a coefficient
    rows = [(1, 0, 2), (0, 1, 1), (1, 1, 3)]
    vectors = [(3, -2, 4), (0, 0, 0), (Fraction(1, 2), 0, 1), (1, 1, 3)]
    sparse_rows = [_sparse(r) for r in rows]
    coords = coordinates_in_span(sparse_rows, [_sparse(v) for v in vectors])
    assert len(coords) == len(vectors)
    for v, c in zip(vectors, coords):
        assert 2 not in c
        assert rebuild(rows, c) == tuple(Fraction(x) for x in v)
        # one vector at a time gives the same coefficients
        assert [c] == coordinates_in_span(sparse_rows, [_sparse(v)])
    assert coords[1] == {}
    assert coordinates_in_span(sparse_rows, []) == []
    with pytest.raises(ValueError):
        coordinates_in_span(sparse_rows, [_sparse((3, -2, 4)), _sparse((0, 0, 1))])
    with pytest.raises(ValueError):
        coordinates_in_span(sparse_rows, [_sparse((0, 0, 1)), _sparse((0, 0, 1))])


def test_coordinates_in_span_drops_explicit_zero_entries():
    assert coordinates_in_span([{0: 1}], [{0: 0, 1: 0}]) == [{}]
    assert coordinates_in_span([{0: 1, 1: 0}], [{0: 2}]) == [{0: 2}]
    assert coordinates_in_span([{0: 1}], [{0: 2, 1: 0}]) == [{0: 2}]


def test_the_empty_vector_lies_in_every_span():
    ech = _Echelon()
    assert not ech.insert({}) and ech.dim == 0
    assert ech.insert({1: 2}) and not ech.insert({}) and ech.rows == {1: {1: 1}}
    assert SubspaceBasis.from_vectors([{}, (0, 0, 0)], 3) == SubspaceBasis.zero(3)
    assert SubspaceBasis.zero(3).contains({}) and SubspaceBasis.full(2).contains((0, 0))
    assert coordinates_in_span([{0: 1}], [{}]) == [{}]


# --- echelon kernel properties (rational entries, large heights) --------------

rationals = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)


def _combination(coeffs, vecs):
    return tuple(sum((c * x for c, x in zip(coeffs, col)), Fraction(0)) for col in zip(*vecs))


@st.composite
def vectors(draw, n, base=(), max_count=6):
    """Vectors in Q^n, about half of them combinations of base and earlier ones."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_count))):
        pool = list(base) + out
        if pool and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(pool), max_size=len(pool)))
            out.append(_combination(coeffs, pool))
        else:
            out.append(tuple(Fraction(x) for x in draw(st.lists(rationals, min_size=n, max_size=n))))
    return out


@st.composite
def vector_families(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return n, draw(vectors(n))


@settings(max_examples=examples(150), deadline=None)
@given(vector_families(), st.data())
def test_contains_agrees_with_rank_of_stacked_vectors(family, data):
    n, vecs = family
    span = SubspaceBasis.from_vectors(vecs, n)
    assert span.dim == gauss_rank(vecs)
    for v in data.draw(vectors(n, base=vecs, max_count=4)) + vecs:
        assert span.contains(v) == (gauss_rank(vecs + [v]) == gauss_rank(vecs))


@settings(max_examples=examples(150), deadline=None)
@given(vector_families(), st.data())
def test_extend_to_complement_is_the_greedy_first_in_order_choice(family, data):
    n, vecs = family
    sub_vecs = data.draw(st.lists(st.sampled_from(vecs), max_size=3)) if vecs else []
    sub = SubspaceBasis.from_vectors(sub_vecs, n)
    space = SubspaceBasis.from_vectors(vecs, n)
    chosen = []
    for v in space.vectors:
        stacked = list(sub.vectors) + chosen
        if gauss_rank(stacked + [v]) > gauss_rank(stacked):
            chosen.append(v)
    assert [_dense(r, n) for r in extend_to_complement(sub, space)] == chosen


def _normal(values):
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)


@settings(max_examples=examples(150), deadline=None)
@given(vector_families(), st.data())
def test_subspace_reads_return_values_in_normal_form(family, data):
    """monic_rows, extend_to_complement, coordinates_in_span and the pivot read
    never return a Fraction with denominator 1; the pivot read agrees with
    coordinates_in_span and refuses a vector outside the span."""
    n, vecs = family
    space = SubspaceBasis.from_vectors(vecs, n)
    sub_vecs = data.draw(st.lists(st.sampled_from(vecs), max_size=3)) if vecs else []
    sub = SubspaceBasis.from_vectors(sub_vecs, n)
    monic = space.monic_rows()
    drawn = [_sparse(v) for v in data.draw(vectors(n, base=vecs, max_count=4)) + vecs]
    members = [v for v in drawn if space.contains(v)]
    coords = coordinates_in_span(monic, members)
    reads = [space.coordinates(v) for v in members]
    assert reads == coords
    for row in monic + extend_to_complement(sub, space) + coords + reads:
        assert _normal(row.values())
    assert all(_normal(v) for v in space.vectors)
    for v in drawn:
        if v not in members:
            with pytest.raises(ValueError, match="vector not in span"):
                space.coordinates(v)


@settings(max_examples=examples(150), deadline=None)
@given(vector_families(), st.data())
def test_from_vectors_is_the_canonical_rref(family, data):
    n, vecs = family
    span = SubspaceBasis.from_vectors(vecs, n)
    assert list(span.vectors) == gauss_jordan_rref(vecs, n)
    scales = data.draw(st.lists(rationals.filter(bool), min_size=len(vecs), max_size=len(vecs)))
    order = data.draw(st.permutations(range(len(vecs))))
    rescaled = [tuple(c * x for x in vecs[i]) for c, i in zip(scales, order)]
    for gens in (vecs, rescaled):
        assert SubspaceBasis.from_vectors(gens, n) == span
        assert SubspaceBasis.from_vectors([_sparse(v) for v in gens], n) == span


@settings(max_examples=examples(150), deadline=None)
@given(vector_families())
def test_kernel_is_annihilated_and_canonical(family):
    n, rows = family
    m = from_rows([list(r) for r in rows]) if rows else RationalMatrix.zero(0, n)
    k = kernel_basis(m)
    assert k.dim == n - gauss_rank(rows)
    for v in k.vectors:
        assert all(x == 0 for x in m.apply(v))
    assert SubspaceBasis.from_vectors(k.vectors, n) == k
    assert SubspaceBasis.from_vectors(list(reversed(k.vectors)), n) == k


@st.composite
def preimage_problems(draw):
    """(m, s, within, case): s and within are lists of vectors, within may be None.

    case "kernel" takes s = 0 (with within None half the time), "identity"
    takes m = 1, "whole" takes within = None and "general" draws all three.
    Entries come from rationals, so Fractions of large height appear.
    """
    case = draw(st.sampled_from(["general", "whole", "kernel", "identity"]))
    cols = draw(st.integers(min_value=1, max_value=5))
    if case == "identity":
        rows, dense = cols, [[int(i == j) for j in range(cols)] for i in range(cols)]
    else:
        rows = draw(st.integers(min_value=0, max_value=5))
        row = st.lists(rationals, min_size=cols, max_size=cols)
        dense = draw(st.lists(row, min_size=rows, max_size=rows))
    entries = {(i, j): x for i, r in enumerate(dense) for j, x in enumerate(r)}
    m = RationalMatrix(rows, cols, entries)
    images = [m.apply(v) for v in draw(vectors(cols, max_count=3))]
    s = [] if case == "kernel" else draw(vectors(rows, base=images, max_count=4))
    whole = case == "whole" or (case == "kernel" and draw(st.booleans()))
    return m, s, None if whole else draw(vectors(cols, max_count=5)), case


@settings(max_examples=examples(200), deadline=None)
@given(preimage_problems())
def test_preimage_subspace_matches_dense_oracle(problem):
    """_preimage, the echelon under preimage_subspace, kernel_basis and
    subspace_intersection, against a dense solve."""
    m, s_vecs, within_vecs, case = problem
    whole = within_vecs is None
    if whole:
        within_vecs = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    s = SubspaceBasis.from_vectors(s_vecs, m.rows)
    within = SubspaceBasis.from_vectors(within_vecs, m.cols)
    pre = preimage_subspace(m, s) if whole else _preimage(m, s, within)
    expected = dense_preimage(dense_rows(m), m.cols, s_vecs, within_vecs)
    assert pre.dim == len(expected)
    assert list(pre.vectors) == expected
    for v in pre.vectors:
        assert within.contains(v) and s.contains(m.apply(v))
    assert pre == _preimage(m, s, within)
    if case == "kernel":
        assert pre == subspace_intersection(within, kernel_basis(m))
    if case == "identity":
        assert pre == subspace_intersection(within, s)


def test_combine_is_a_shape_checked_signed_sum():
    a = from_rows([[1, 2], [0, Fraction(1, 3)]])
    b = from_rows([[1, 0], [5, Fraction(2, 3)]])
    got = combine(2, 2, [(2, a), (-1, b), (Fraction(1, 2), RationalMatrix.zero(2, 2))])
    assert got == from_rows([[1, 4], [-5, 0]])
    assert combine(3, 1, []) == RationalMatrix.zero(3, 1)
    with pytest.raises(ValueError, match="shape"):
        combine(2, 2, [(1, a), (1, RationalMatrix.zero(2, 3))])


# --- the int rule: integral entries are ints, the others reduced Fractions ---

mixed_entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.booleans(),
    st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)),
)


def _dense_matrix(draw, rows, cols):
    row = st.lists(mixed_entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def _in_normal_form(m):
    return all(
        (type(v) is int and v != 0) or (type(v) is Fraction and v.denominator != 1)
        for v in m.entries.values()
    )


@settings(max_examples=examples(100), deadline=None)
@given(st.data())
def test_matmul_and_combine_match_dense_oracle_in_normal_form(data):
    n, k, m = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    a, b, e = (_dense_matrix(data.draw, r, c) for r, c in ((n, k), (k, m), (n, m)))
    c, d = data.draw(mixed_entries), data.draw(mixed_entries)
    ma = from_rows(a)
    mb = RationalMatrix(k, m, {(i, j): x for i, row in enumerate(b) for j, x in enumerate(row)})
    me = from_rows(e)
    ab = dense_matmul(a, b)
    prod = ma.matmul(mb)
    assert dense_rows(prod) == ab
    total = combine(n, m, [(c, prod), (d, me)])
    assert dense_rows(total) == [[c * x + d * y for x, y in zip(r, s)] for r, s in zip(ab, e)]
    for mat in (ma, mb, me, prod, total, prod.transpose(), RationalMatrix.identity(n)):
        assert _in_normal_form(mat)


def test_matmul_returns_normal_form_from_the_raw_product():
    half = from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, -1]])
    b = from_rows([[2, Fraction(2, 3)], [3, Fraction(2, 3)]])
    raw = add_product({}, 1, half, b)
    # 1/2*2 + 1/3*3 = 2 and 1/2*2/3 + 1/3*2/3 = 5/9; 1*2 - 1*3 = -1 and 2/3 - 2/3 = 0,
    # entry (i, j) keyed i * 2 + j; the cancelled entry stays, as a zero
    assert raw == {0: 2, 1: Fraction(5, 9), 2: -1, 3: 0}
    prod = half.matmul(b)
    assert prod.entries == {divmod(key, 2): v for key, v in raw.items() if v}
    assert type(prod.entries[0, 0]) is int and type(prod.entries[1, 0]) is int
    assert _in_normal_form(prod)
    halves = from_rows([[Fraction(1, 2)], [Fraction(-1, 2)]])
    cancel = from_rows([[1, 1]]).matmul(halves)
    assert cancel.entries == {} and cancel == RationalMatrix.zero(1, 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        add_product({}, 1, half, RationalMatrix.zero(3, 1))


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_add_product_accumulates_signed_products_by_value(data):
    """a @ b + sign * c @ e, accumulated into one dict keyed i * cols + j, equals
    the dense Fraction sum on every shape; a product minus itself leaves only zeros."""
    n, k, l, m = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(4))
    a, b, c, e = (_dense_matrix(data.draw, r, t) for r, t in ((n, k), (k, m), (n, l), (l, m)))
    sign = data.draw(st.sampled_from([1, -1, 3]))
    ma, mb, mc, me = map(from_rows, (a, b, c, e))
    acc = add_product(add_product({}, 1, ma, mb), sign, mc, me)
    assert all(0 <= key < n * m for key in acc)
    got = [[acc.get(i * m + j, 0) for j in range(m)] for i in range(n)]
    ab, ce = dense_matmul(a, b), dense_matmul(c, e)
    assert got == [[x + sign * y for x, y in zip(r, t)] for r, t in zip(ab, ce)]
    assert not any(add_product(add_product({}, 1, ma, mb), -1, ma, mb).values())


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_columns_are_built_once_and_match_entries(data):
    rows, cols = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(2))
    m = from_rows(_dense_matrix(data.draw, rows, cols))
    columns = m._columns
    assert m._columns is columns
    assert {(i, j): v for j, col in columns.items() for i, v in col.items()} == m.entries
    assert all(col for col in columns.values())
    t = m.transpose()
    assert t._columns is not columns and t._columns is t._columns
    m.matmul(t)
    m.matvec({0: 1})
    assert m._columns is columns


@settings(max_examples=examples(150), deadline=None)
@given(vector_families(), st.data())
def test_subspace_operations_leave_their_arguments_rows_unchanged(family, data):
    n, vecs = family
    split = data.draw(st.integers(min_value=0, max_value=len(vecs)))
    a = SubspaceBasis.from_vectors(vecs[:split], n)
    b = SubspaceBasis.from_vectors(vecs[split:], n)
    before = copy.deepcopy((a.rows, b.rows))
    for x, y in ((a, b), (b, a)):
        subspace_sum(x, y)
        subspace_intersection(x, y)
        extend_to_complement(x, subspace_sum(x, y))
        for row in y.rows.values():
            x.contains(row)
    assert (a.rows, b.rows) == before


# --- the integer path: int, Fraction(k, 1) and mixed entries -------------------

integers = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
)


@st.composite
def int_vector_families(draw, max_dim=6):
    """(n, vectors) in Z^n, about half of them integer combinations of earlier ones."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if out and draw(st.booleans()):
            coeffs = draw(st.lists(integers, min_size=len(out), max_size=len(out)))
            out.append(tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*out)))
        else:
            out.append(tuple(draw(st.lists(integers, min_size=n, max_size=n))))
    return n, out


def _entries_as(kind, vecs):
    """vecs with every entry an int, a Fraction(k, 1), or the two alternating."""
    if kind == "int":
        return vecs
    if kind == "fraction":
        return [tuple(Fraction(x) for x in v) for v in vecs]
    return [
        tuple(Fraction(x) if (i + j) % 2 else x for j, x in enumerate(v)) for i, v in enumerate(vecs)
    ]


KINDS = ("int", "fraction", "mixed")


@settings(max_examples=examples(150), deadline=None)
@given(int_vector_families())
def test_int_fraction_and_mixed_entries_give_the_same_canonical_rows(family):
    n, vecs = family
    span = SubspaceBasis.from_vectors(vecs, n)
    assert list(span.vectors) == gauss_jordan_rref(vecs, n)
    for kind in KINDS:
        gens = _entries_as(kind, vecs)
        assert SubspaceBasis.from_vectors(gens, n) == span
        assert _Echelon(_sparse(v) for v in gens).rref() == span.rows
        for v in gens:
            assert span.contains(_sparse(v))


@settings(max_examples=examples(150), deadline=None)
@given(int_vector_families(), st.data())
def test_kernel_of_int_rows_equals_kernel_of_rescaled_rows(family, data):
    n, rows = family
    digit = st.integers(min_value=1, max_value=6)
    scales = data.draw(
        st.lists(st.builds(Fraction, digit, digit), min_size=len(rows), max_size=len(rows))
    )
    expected = gauss_jordan_rref(dense_null_space(rows, n), n)
    # int entries, then the normal form's mix of ints and Fractions in one column
    for gens in (rows, [tuple(c * x for x in r) for c, r in zip(scales, rows)]):
        entries = {(i, j): x for i, r in enumerate(gens) for j, x in enumerate(r)}
        assert list(kernel_basis(RationalMatrix(len(gens), n, entries)).vectors) == expected


@settings(max_examples=examples(150), deadline=None)
@given(int_vector_families(), st.data())
def test_greedy_complement_is_the_same_for_every_entry_type(family, data):
    n, vecs = family
    sub_vecs = data.draw(st.lists(st.sampled_from(vecs), max_size=3)) if vecs else []
    sub = SubspaceBasis.from_vectors(sub_vecs, n)
    space = SubspaceBasis.from_vectors(vecs, n)
    chosen = []
    for v in space.vectors:
        stacked = list(sub.vectors) + chosen
        if gauss_rank(stacked + [v]) > gauss_rank(stacked):
            chosen.append(v)
    for kind in KINDS:
        sub_k = SubspaceBasis.from_vectors(_entries_as(kind, sub_vecs), n)
        space_k = SubspaceBasis.from_vectors(_entries_as(kind, vecs), n)
        assert [_dense(r, n) for r in extend_to_complement(sub_k, space_k)] == chosen


# --- what the unreduced echelon and the canonical form promise ----------------


def _assert_primitive_echelon(rows, n):
    """Rows keyed by their leading column, coprime ints, inside Q^n."""
    for p, row in rows.items():
        assert row and all(type(x) is int and x for x in row.values())
        assert min(row) == p and 0 <= p and max(row) < n
        assert gcd(*row.values()) == 1


def _assert_canonical(s):
    """The canonical form of SubspaceBasis: reduced, positive pivots, ascending keys."""
    _assert_primitive_echelon(s.rows, s.ambient_dim)
    assert list(s.rows) == sorted(s.rows)
    for p, row in s.rows.items():
        assert row[p] > 0
        assert not any(q in row for q in s.rows if q != p)


@settings(max_examples=examples(150), deadline=None)
@given(st.one_of(vector_families(), int_vector_families()), st.data())
def test_an_unreduced_echelon_seeds_the_same_complement(family, data):
    n, vecs = family
    sub_vecs = data.draw(st.lists(st.sampled_from(vecs), max_size=4)) if vecs else []
    ech = _Echelon(_sparse(v) for v in sub_vecs)
    assert ech.dim == gauss_rank(sub_vecs)
    _assert_primitive_echelon(ech.rows, n)
    seeded = copy.deepcopy(ech.rows)
    sub = SubspaceBasis.from_vectors(sub_vecs, n)
    assert ech.rref() == sub.rows
    for space in (SubspaceBasis.from_vectors(vecs, n), SubspaceBasis.full(n)):
        assert extend_to_complement(ech, space) == extend_to_complement(sub, space)
    assert ech.rows == seeded


@settings(max_examples=examples(150), deadline=None)
@given(st.one_of(vector_families(), int_vector_families()), st.data())
def test_every_subspace_exactlin_returns_is_canonical(family, data):
    n, vecs = family
    split = data.draw(st.integers(min_value=0, max_value=len(vecs)))
    a = SubspaceBasis.from_vectors(vecs[:split], n)
    b = SubspaceBasis.from_vectors(vecs[split:], n)
    m = from_rows([list(v) for v in vecs]) if vecs else RationalMatrix.zero(0, n)
    image = image_subspace(m, a)
    for s in (
        a,
        b,
        SubspaceBasis.full(n),
        SubspaceBasis.zero(n),
        subspace_sum(a, b),
        subspace_intersection(a, b),
        kernel_basis(m),
        image,
        preimage_subspace(m, image),
        _preimage(m, image, b),
    ):
        _assert_canonical(s)
