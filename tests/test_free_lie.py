from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpi.errors import CutoffTooSmallError, OutOfRangeError
from formalpi.free_lie import (
    FreeLieBasis,
    Generator,
    GeneratorSet,
    _square_root,
    expand,
    slot_dims,
    standard_factorization,
)
from formalpi.graded_core import CharacterLattice
from formalpi.quillen_weight import model_generators

from conftest import ALL_CORPUS, examples
from oracles import brute_lie_slot_rank, embed_bracketing, lyndon_words, super_witt_slot_dims


def gens_of(*degrees):
    return GeneratorSet(tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees)))


def test_lyndon_words_two_letters():
    words = lyndon_words(2, 4, [0, 0], 0)
    # classical list over {0,1} up to length 4
    assert words == [
        (0,),
        (0, 0, 0, 1),
        (0, 0, 1),
        (0, 0, 1, 1),
        (0, 1),
        (0, 1, 1),
        (0, 1, 1, 1),
        (1,),
    ]


def _is_lyndon(w):
    return len(w) >= 1 and all(w < w[i:] for i in range(1, len(w)))


@pytest.mark.parametrize("k,n", [(1, 5), (2, 6), (3, 5)])
def test_lyndon_words_match_definition(k, n):
    from itertools import product as iproduct

    expected = sorted(
        w
        for ln in range(1, n + 1)
        for w in iproduct(range(k), repeat=ln)
        if _is_lyndon(w)
    )
    assert lyndon_words(k, n, [0] * k, 0) == expected


def test_lyndon_degree_pruning_matches_filter():
    degrees = [1, 3, 2]
    full = lyndon_words(3, 6, [0] * 3, 0)
    pruned = lyndon_words(3, 6, degrees, 7)
    assert pruned == [w for w in full if sum(degrees[c] for c in w) <= 7]


def test_standard_factorization_smallest_suffix():
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))
    # a square zz, the key of [z, z], splits into its halves
    assert standard_factorization((0, 1, 0, 1)) == ((0, 1), (0, 1))
    assert standard_factorization((0, 0, 1, 0, 0, 1)) == ((0, 0, 1), (0, 0, 1))


def test_single_odd_generator_slots():
    g = gens_of(1)
    b = FreeLieBasis(g, max_r=6, max_w=6)
    assert [repr(w) for w in b.slot(1, 1)] == ["g0"]
    assert [repr(w) for w in b.slot(2, 2)] == ["[g0,g0]"]
    # the free Lie superalgebra on one odd generator is two dimensional
    assert sum(len(v) for v in b.slots.values()) == 2


def test_expand_jacobi_kills_triple_odd_square():
    g = gens_of(1)
    b = FreeLieBasis(g, max_r=6, max_w=6)
    x = g.leaf("g0")
    expr = g.bracket(x, g.bracket(x, x))
    assert expand(expr, b) == ()
    assert b.slot_dim(3, 3) == 0


def test_expand_antisymmetry_even_generators():
    g = gens_of(2, 2)
    b = FreeLieBasis(g, max_r=8, max_w=4)
    x, y = g.leaf("g0"), g.leaf("g1")
    assert expand(g.bracket(x, y), b) == (Fraction(1),)
    assert expand(g.bracket(y, x), b) == (Fraction(-1),)


def test_weight_three_two_even_generators_dim_two():
    g = gens_of(2, 2)
    b = FreeLieBasis(g, max_r=12, max_w=4)
    assert sum(b.slot_dim(6, 3, c) for c in b.characters_at(6, 3)) == 2


def test_empty_generator_set():
    g = GeneratorSet(())
    b = FreeLieBasis(g, max_r=5, max_w=5)
    assert b.slots == {}


def test_slot_dim_s2_examples():
    # S^2: one generator of reduced degree 1; x and [x, x] span weights 1 and 2.
    g = gens_of(1)
    b = FreeLieBasis(g, max_r=10, max_w=10)
    assert b.slot_dim(1, 1) == 1
    assert b.slot_dim(2, 2) == 1
    assert b.slot_dim(3, 3) == 0
    counted = slot_dims(g, max_r=10, max_w=10)
    assert {key: len(words) for key, words in b.slots.items()} == counted


def test_in_range_bounds_the_slots():
    g = gens_of(1, 2)
    b = FreeLieBasis(g, max_r=4, max_w=3)
    assert b.in_range(0, 1) and b.in_range(4, 3)
    assert not b.in_range(-1, 3)  # below the diagonal
    assert not b.in_range(5, 2)  # reduced degree beyond the cutoff
    assert not b.in_range(4, 4)  # weight beyond the cutoff
    assert not b.in_range(3, 0)  # bracket length 0
    assert b.slot_dim(-1, 3) == 0
    assert b.slots and all(b.in_range(r, w) for r, w, _ in b.slots)
    assert all(b.in_range(r, w) for r, w, _ in slot_dims(g, max_r=4, max_w=3))


def test_cutoff_too_small():
    with pytest.raises(CutoffTooSmallError):
        FreeLieBasis(gens_of(1), max_r=3, max_w=0)


WITT_CASES = [
    (1,),
    (2,),
    (1, 1),
    (2, 2),
    (1, 2),
    (0, 1),
    (1, 2, 3),
]


@pytest.mark.parametrize("degrees", WITT_CASES)
def test_slot_dims_match_witt_counts(degrees):
    max_r, max_w = 10, 5
    g = gens_of(*degrees)
    b = FreeLieBasis(g, max_r, max_w)
    expected = super_witt_slot_dims(list(degrees), max_r, max_w)
    got = {k: len(v) for k, v in b.slots.items()}
    assert got == {k: v for k, v in expected.items() if v}
    assert slot_dims(g, max_r, max_w) == got


@pytest.mark.parametrize("degrees", [(1,), (2,), (1, 1), (1, 2), (2, 2)])
def test_slot_dims_match_brute_force(degrees):
    g = gens_of(*degrees)
    b = FreeLieBasis(g, max_r=8, max_w=5)
    checked = 0
    for r in range(0, 9):
        for w in range(1, 6):
            claimed = sum(b.slot_dim(r, w, c) for c in b.characters_at(r, w))
            if claimed > 12 or (claimed == 0 and w > 4):
                continue
            assert claimed == brute_lie_slot_rank(list(degrees), r, w)
            checked += 1
    assert checked > 0


def test_characters_split_slots():
    lat = CharacterLattice(free_rank=1)
    g = GeneratorSet(
        (Generator("u", 1, (1,)), Generator("v", 1, (-1,))),
        lattice=lat,
    )
    b = FreeLieBasis(g, max_r=4, max_w=4)
    assert b.slot_dim(2, 2, (0,)) == 1  # [u,v]
    assert b.slot_dim(2, 2, (2,)) == 1  # [u,u]
    assert b.slot_dim(2, 2, (-2,)) == 1  # [v,v]
    expected = super_witt_slot_dims(
        [1, 1], 4, 4, characters=[(1,), (-1,)], lattice_add=lat.add
    )
    assert {k: len(v) for k, v in b.slots.items()} == {
        k: v for k, v in expected.items() if v
    }
    assert slot_dims(g, 4, 4) == {k: v for k, v in expected.items() if v}
    for key in b.slots:
        for bw in b.slot(*key):
            assert bw.character == _leaf_character_sum(bw, lat)


def _leaf_character_sum(bw, lat):
    if bw.is_leaf:
        return bw.character
    return lat.add(_leaf_character_sum(bw.left, lat), _leaf_character_sum(bw.right, lat))


def test_torsion_characters():
    lat = CharacterLattice(free_rank=0, torsion=(3,))
    g = GeneratorSet(
        (Generator("a", 1, (1,)), Generator("b", 1, (2,))),
        lattice=lat,
    )
    b = FreeLieBasis(g, max_r=4, max_w=4)
    # [a,b] has character 1+2 = 0 mod 3
    assert b.slot_dim(2, 2, (0,)) == 1
    assert b.slot_dim(2, 2, (2,)) == 1  # [a,a]
    assert b.slot_dim(2, 2, (1,)) == 1  # [b,b]


def test_expand_basis_words_are_unit_vectors():
    g = gens_of(1, 2)
    b = FreeLieBasis(g, max_r=8, max_w=4)
    for key, words in b.slots.items():
        for pos, bw in enumerate(b.slot(*key)):
            coords = expand(bw, b)
            assert len(coords) == len(words)
            assert all(c == (1 if i == pos else 0) for i, c in enumerate(coords))


def test_expand_linear():
    g = gens_of(1, 1)
    b = FreeLieBasis(g, max_r=6, max_w=4)
    x, y = g.leaf("g0"), g.leaf("g1")
    u = g.bracket(x, g.bracket(x, y))
    v = g.bracket(y, g.bracket(x, x))
    cu, cv = expand(u, b), expand(v, b)
    combo = expand({u: Fraction(3), v: Fraction(-1, 2)}, b)
    assert combo == tuple(3 * a - Fraction(1, 2) * c for a, c in zip(cu, cv))


@settings(max_examples=examples(40), deadline=None)
@given(st.data())
def test_expand_graded_jacobi(data):
    g = gens_of(1, 2)
    b = FreeLieBasis(g, max_r=12, max_w=6)
    small = [bw for key in b.slot_keys() for bw in b.slot(*key) if bw.weight <= 2]
    u = data.draw(st.sampled_from(small))
    v = data.draw(st.sampled_from(small))
    w = data.draw(st.sampled_from(small))
    lhs = g.bracket(u, g.bracket(v, w))
    t1 = g.bracket(g.bracket(u, v), w)
    t2 = g.bracket(v, g.bracket(u, w))
    sgn = Fraction(-1 if (u.parity and v.parity) else 1)
    assert expand(lhs, b) == expand({t1: Fraction(1), t2: sgn}, b)


def test_expand_out_of_range():
    g = gens_of(1)
    b = FreeLieBasis(g, max_r=2, max_w=2)
    x = g.leaf("g0")
    too_big = g.bracket(g.bracket(x, x), g.bracket(x, x))
    with pytest.raises(OutOfRangeError):
        expand(too_big, b)


def _draw_tree(data, letters):
    if len(letters) == 1:
        return letters[0]
    cut = data.draw(st.integers(1, len(letters) - 1))
    return (_draw_tree(data, letters[:cut]), _draw_tree(data, letters[cut:]))


def _word_of_tree(g, tree):
    if isinstance(tree, int):
        return g.leaf(g.gens[tree].ident)
    return g.bracket(_word_of_tree(g, tree[0]), _word_of_tree(g, tree[1]))


def _tree_of_word(g, bw):
    if bw.is_leaf:
        return g.index(bw.gen)
    return (_tree_of_word(g, bw.left), _tree_of_word(g, bw.right))


def _add_scaled(acc, vec, c):
    for word, coeff in vec.items():
        acc[word] = acc.get(word, 0) + c * coeff


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_expand_reconstructs_rational_combinations(data):
    # g0 is odd and g1 even, so (r, w) fixes how many of each letter a word has
    degrees = [1, 2]
    g = gens_of(*degrees)
    b = FreeLieBasis(g, max_r=10, max_w=5)
    n_odd = data.draw(st.integers(0, 5))
    n_even = data.draw(st.integers(0 if n_odd else 1, 5 - n_odd))
    letters = [0] * n_odd + [1] * n_even
    expr, target = {}, {}
    for _ in range(data.draw(st.integers(1, 4))):
        tree = _draw_tree(data, data.draw(st.permutations(letters)))
        c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        bw = _word_of_tree(g, tree)
        expr[bw] = expr.get(bw, Fraction(0)) + c
        _add_scaled(target, embed_bracketing(tree, degrees)[0], c)
    coords = expand(expr, b)
    words = b.slot(n_odd + 2 * n_even, n_odd + n_even)
    assert len(coords) == len(words)
    rebuilt = {}
    for c, bw in zip(coords, words):
        _add_scaled(rebuilt, embed_bracketing(_tree_of_word(g, bw), degrees)[0], c)
    assert {k: v for k, v in rebuilt.items() if v} == {k: v for k, v in target.items() if v}


TORSION3 = CharacterLattice(free_rank=0, torsion=(3,))
TABLE_CASES = [
    (gens_of(0, 0, 1), 4, 5),
    (gens_of(1, 1, 2), 8, 5),
    (gens_of(1, 2), 10, 6),
    (gens_of(0, 1), 6, 6),
    (gens_of(1, 1, 1), 6, 5),
    (
        GeneratorSet(
            (Generator("a", 1, (1,)), Generator("b", 1, (2,)), Generator("c", 2, (1,))),
            lattice=TORSION3,
        ),
        8,
        5,
    ),
]


@pytest.mark.parametrize("g,max_r,max_w", TABLE_CASES)
def test_structure_table_matches_the_associative_embedding(g, max_r, max_w):
    # every bracket of two basis elements within the cutoffs, rewritten by the
    # table and mapped back into the free associative algebra, equals the
    # embedding of the bracket tree itself
    b = FreeLieBasis(g, max_r, max_w)
    degrees = [x.reduced_degree for x in g.gens]
    elements = {w: b.tree(w) for key in b.slot_keys() for w in b.slots[key]}
    embedded = {w: embed_bracketing(_tree_of_word(g, bw), degrees)[0] for w, bw in elements.items()}
    for x, bx in elements.items():
        for y, by in elements.items():
            if bx.reduced_degree + by.reduced_degree > max_r or bx.weight + by.weight > max_w:
                continue
            rebuilt = {}
            for word, c in b.bracket(x, y).items():
                _add_scaled(rebuilt, embedded[word], c)
            expected = embed_bracketing((_tree_of_word(g, bx), _tree_of_word(g, by)), degrees)[0]
            assert {k: v for k, v in rebuilt.items() if v} == expected, (bx, by)


def test_bracket_words_built_apart_are_interchangeable_keys():
    g = gens_of(1, 2)

    def build():
        x, y = g.leaf("g0"), g.leaf("g1")
        return g.bracket(x, g.bracket(x, y))

    u, v = build(), build()
    assert u is not v and u == v and hash(u) == hash(v)
    table = {u: "first"}
    assert table[v] == "first"
    table[v] = "second"
    assert table == {u: "second"}
    assert repr(u) == repr(v) == "[g0,[g0,g1]]"
    assert u != g.bracket(g.bracket(g.leaf("g0"), g.leaf("g1")), g.leaf("g0"))


# ---------------------------------------------------------------------------
# slot sizes by PBW inversion


def built_dims(g, max_r, max_w):
    return {k: len(v) for k, v in FreeLieBasis(g, max_r, max_w).slots.items()}


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_slot_dims_match_the_built_basis_on_the_corpus(corpus, name):
    g = model_generators(corpus[name])
    for max_r, max_w in [(6, 6), (0, 4), (3, 1)]:
        assert slot_dims(g, max_r, max_w) == built_dims(g, max_r, max_w)


FREE1 = CharacterLattice(free_rank=1)
FAMILY_ALPHABETS = {
    # T^3: three degree-1, three degree-2 and one degree-3 class
    "t3": (gens_of(0, 0, 0, 1, 1, 1, 2), 3, 5),
    # Sigma_2 with a_i -> 1, b_i -> -1, w -> 0
    "sigma2_chi": (
        GeneratorSet(
            tuple(Generator(f"a{i}", 0, (1,)) for i in range(2))
            + tuple(Generator(f"b{i}", 0, (-1,)) for i in range(2))
            + (Generator("w2", 1, (0,)),),
            lattice=FREE1,
        ),
        3,
        5,
    ),
    "t2_chi": (
        GeneratorSet(
            (Generator("e1", 0, (1,)), Generator("f1", 0, (-1,)), Generator("t2", 1, (0,))),
            lattice=FREE1,
        ),
        5,
        7,
    ),
    "torsion": (
        GeneratorSet(
            (Generator("a", 0, (0, 1)), Generator("b", 1, (1, 2)), Generator("c", 1, (-1, 2))),
            lattice=CharacterLattice(free_rank=1, torsion=(3,)),
        ),
        6,
        6,
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_ALPHABETS))
def test_slot_dims_match_the_built_basis_on_generated_families(name):
    g, max_r, max_w = FAMILY_ALPHABETS[name]
    assert slot_dims(g, max_r, max_w) == built_dims(g, max_r, max_w)


@pytest.mark.parametrize(
    "max_r, max_w, message",
    [(-1, 0, "max_w must be at least 1"), (-1, 3, "max_r must be at least 0")],
)
def test_slot_dims_refuse_the_cutoffs_the_basis_refuses(max_r, max_w, message):
    g = gens_of(1)
    with pytest.raises(CutoffTooSmallError) as counted:
        slot_dims(g, max_r, max_w)
    with pytest.raises(CutoffTooSmallError) as built:
        FreeLieBasis(g, max_r, max_w)
    assert str(counted.value) == str(built.value) == message


LATTICES = [
    CharacterLattice(free_rank=1, torsion=(2,)),
    CharacterLattice(free_rank=0, torsion=(3,)),
    CharacterLattice(free_rank=2),
    CharacterLattice(),
]


def _random_alphabet(data):
    lattice = data.draw(st.sampled_from(LATTICES))
    letters = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.tuples(*[st.integers(-2, 3) for _ in range(lattice.length)]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return GeneratorSet(
        tuple(Generator(f"g{i}", r, c) for i, (r, c) in enumerate(letters)),
        lattice=lattice,
    )


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_slot_dims_match_the_built_basis_on_random_alphabets(data):
    g = _random_alphabet(data)
    max_r = data.draw(st.integers(0, 8))
    max_w = data.draw(st.integers(1, 5))
    assert slot_dims(g, max_r, max_w) == built_dims(g, max_r, max_w)


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_stored_factors_and_parity_match_their_definitions(data):
    g = _random_alphabet(data)
    degrees = [x.reduced_degree for x in g.gens]
    max_r, max_w = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 5))
    b = FreeLieBasis(g, max_r, max_w)
    inside = {w for words in b.slots.values() for w in words}
    # Lyndon words and odd squares past either cutoff, met only by the rewriting
    longer = lyndon_words(len(g), max_w + 2, [0] * len(g), 0)
    squares = [w + w for w in longer if sum(degrees[c] for c in w) % 2]
    beyond = [w for w in longer + squares if w not in inside]
    for w in [*inside, *beyond]:
        assert b.parity(w) == sum(degrees[c] for c in w) % 2, w
        if len(w) >= 2:
            assert b.factors(w) == standard_factorization(w), w


@settings(max_examples=examples(60), deadline=None)
@given(st.data())
def test_the_basis_words_are_the_lyndon_words_and_their_odd_squares(data):
    """The factor-pair construction makes exactly the Lyndon words within the
    cutoffs, each born with its standard factorization."""
    g = _random_alphabet(data)
    degrees = [x.reduced_degree for x in g.gens]
    max_r, max_w = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 5))
    b = FreeLieBasis(g, max_r, max_w)
    built = [w for ws in b.slots.values() for w in ws]
    lyndon = lyndon_words(len(g), max_w, degrees, max_r)
    assert sorted(w for w in built if _square_root(w) is None) == lyndon
    odd = [z for z in lyndon if sum(degrees[c] for c in z) % 2]
    assert sorted(w for w in built if _square_root(w) is not None) == sorted(
        z + z for z in odd if 2 * sum(degrees[c] for c in z) <= max_r and 2 * len(z) <= max_w
    )
    for w in lyndon:
        if len(w) >= 2:
            assert b._factors[w] == standard_factorization(w), w


def test_slot_trees_are_the_standard_bracketings():
    b = FreeLieBasis(gens_of(0, 1), 2, 4)
    assert {k: [repr(t) for t in b.slot(*k)] for k in b.slot_keys()} == {
        (0, 1, ()): ["g0"],
        (1, 1, ()): ["g1"],
        (1, 2, ()): ["[g0,g1]"],
        (1, 3, ()): ["[g0,[g0,g1]]"],
        (1, 4, ()): ["[g0,[g0,[g0,g1]]]"],
        (2, 2, ()): ["[g1,g1]"],
        (2, 3, ()): ["[[g0,g1],g1]"],
        (2, 4, ()): ["[g0,[[g0,g1],g1]]", "[[g0,g1],[g0,g1]]"],
    }


@settings(max_examples=examples(40), deadline=None)
@given(st.data())
def test_slot_trees_match_their_words_on_random_alphabets(data):
    g = _random_alphabet(data)
    b = FreeLieBasis(g, data.draw(st.integers(0, 8)), data.draw(st.integers(1, 5)))

    def bracketing(w):
        if len(w) == 1:
            return g.gens[w[0]].ident
        u, v = standard_factorization(w)
        return f"[{bracketing(u)},{bracketing(v)}]"

    for (r, w, char), words in b.slots.items():
        trees = b.slot(r, w, char)
        assert [repr(t) for t in trees] == [bracketing(x) for x in words]
        assert all((t.reduced_degree, t.weight, g.lattice.reduce(t.character)) == (r, w, char) for t in trees)


def test_lattice_sums_take_tuples_and_generators_store_them():
    lat = CharacterLattice(0, (2,))
    g = GeneratorSet((Generator("x", 1, [1]), Generator("y", 1, (1,))), lat)
    assert g.gens[0].character == (1,)
    assert g.bracket(g.leaf("x"), g.leaf("y")).character == (0,)
