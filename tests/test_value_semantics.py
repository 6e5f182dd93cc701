"""Value semantics of the package's record classes.

Equality is by field value and by exact class; the frozen records refuse
assignment and hash by value, the mutable ones are unhashable.  The cases
are the comparisons and hashes that the package and its tests rely on.
"""

from fractions import Fraction

import pytest

from formalpi.dold_kan import CochainAlgebra, CochainComplex
from formalpi.exactlin import RationalMatrix, SubspaceBasis
from formalpi.free_lie import BracketWord, Generator, GeneratorSet
from formalpi.graded_core import (
    BasisElement,
    CharacterLattice,
    ValidationReport,
    Violation,
    dualize,
)
from formalpi.quillen_weight import HomotopyTable
from formalpi.ss_engine import DegenerationReport, FilteredComplex
from formalpi.sullivan_oracle import ModelGenerator, minimal_model

LEAF = BracketWord("x", None, None, 1, 1, (0,))

EQUAL = {
    "RationalMatrix, constructor against _canonical": (
        RationalMatrix(2, 3, {(0, 1): 2, (1, 2): Fraction(1, 2), (1, 0): 0}),
        RationalMatrix._canonical(2, 3, {(0, 1): 2, (1, 2): Fraction(1, 2)}),
    ),
    "RationalMatrix, 1 against Fraction(1)": (
        RationalMatrix._canonical(1, 1, {(0, 0): 1}),
        RationalMatrix._canonical(1, 1, {(0, 0): Fraction(1)}),
    ),
    "SubspaceBasis, two spanning sets": (
        SubspaceBasis.from_vectors([[2, 2, 0], [0, 0, 3]], 3),
        SubspaceBasis.from_vectors([[1, 1, 1], [1, 1, 0]], 3),
    ),
    "SubspaceBasis, 1 against Fraction(1)": (
        SubspaceBasis(2, {0: {0: 1, 1: 1}}),
        SubspaceBasis(2, {0: {0: Fraction(1), 1: 1}}),
    ),
    "BracketWord": (
        BracketWord(None, LEAF, LEAF, 2, 2, (0,)),
        GeneratorSet((Generator("x", 1, (0,)),), CharacterLattice(1)).bracket(LEAF, LEAF),
    ),
    "ModelGenerator": (
        ModelGenerator("v", 3, (((0, 0), 1),), (("x", Fraction(1)),)),
        ModelGenerator("v", 3, (((0, 0), Fraction(1)),), (("x", 1),)),
    ),
    "HomotopyTable": (
        HomotopyTable(3, 2, True, {(2, 1, ()): 1}, {}),
        HomotopyTable(3, 2, True, {(2, 1, ()): 1}, {}),
    ),
    "DegenerationReport": (
        DegenerationReport(2, 4, False, (3, 0, 2)),
        DegenerationReport(2, 4, False, (3, 0, 2)),
    ),
}

UNEQUAL = {
    "RationalMatrix, shape": (RationalMatrix.zero(1, 2), RationalMatrix.zero(2, 1)),
    "RationalMatrix, entry": (
        RationalMatrix(1, 1, {(0, 0): 1}),
        RationalMatrix(1, 1, {(0, 0): Fraction(1, 2)}),
    ),
    "SubspaceBasis, ambient dimension": (SubspaceBasis.zero(2), SubspaceBasis.zero(3)),
    "SubspaceBasis, span": (SubspaceBasis.full(2), SubspaceBasis.from_vectors([[1, 0]], 2)),
    "BracketWord": (LEAF, BracketWord("y", None, None, 1, 1, (0,))),
    "ModelGenerator": (
        ModelGenerator("v", 3, (), (("x", Fraction(1)),)),
        ModelGenerator("v", 3, (), (("x", Fraction(2)),)),
    ),
    "HomotopyTable": (
        HomotopyTable(3, 2, True, {}, {}),
        HomotopyTable(3, 2, False, {}, {}),
    ),
    "DegenerationReport": (
        DegenerationReport(2, 4, True, None),
        DegenerationReport(2, 5, True, None),
    ),
}


@pytest.mark.parametrize("case", EQUAL)
def test_equal_values_compare_equal(case):
    a, b = EQUAL[case]
    assert a == b and b == a
    assert not a != b


@pytest.mark.parametrize("case", UNEQUAL)
def test_unequal_values_compare_unequal(case):
    a, b = UNEQUAL[case]
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("case", EQUAL)
def test_a_record_never_equals_a_tuple_of_its_fields(case):
    a, _ = EQUAL[case]
    assert a != tuple(vars(a).values())


def test_equal_words_and_lattices_hash_equal():
    a, b = EQUAL["BracketWord"]
    assert a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert hash(CharacterLattice(1, (2, 3))) == hash(CharacterLattice(1, (2, 3)))
    assert CharacterLattice(1, (2, 3)) == CharacterLattice(1, (2, 3))
    assert CharacterLattice() != CharacterLattice(1)


@pytest.mark.parametrize("case", ["RationalMatrix", "SubspaceBasis", "HomotopyTable"])
def test_records_holding_dicts_are_unhashable(case):
    a, _ = next(v for k, v in EQUAL.items() if k.startswith(case))
    with pytest.raises(TypeError):
        hash(a)


def frozen_records(corpus):
    """One instance of every frozen record class."""
    s2 = corpus["s2"]
    complex_ = CochainComplex((1,))
    return [
        RationalMatrix.zero(1, 1),
        SubspaceBasis.zero(1),
        CharacterLattice(),
        BasisElement("x", 2, ()),
        Violation("CODE", "message"),
        ValidationReport(()),
        dualize(s2),
        Generator("x", 1),
        GeneratorSet(()),
        LEAF,
        ModelGenerator("v", 2, (), ()),
        minimal_model(s2, 3),
        complex_,
        CochainAlgebra(complex_, {}, (Fraction(1),)),
    ]


def test_assigning_a_field_of_a_frozen_record_raises(corpus):
    for record in frozen_records(corpus):
        name = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_filtered_complexes_never_share_a_default_dict():
    a, b = FilteredComplex({}, {}), FilteredComplex({}, {})
    assert a.levels is not b.levels
    assert a._cache is not b._cache
    a._cache["page", 1] = None
    assert b._cache == {}
