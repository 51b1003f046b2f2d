"""The record types: NamedTuples, and one class that cannot be a tuple.

Core claims:
    - every record equals a twin built from the same fields and hashes
      like it where its fields hash; no field can be assigned or deleted
    - the repr names the type and its fields, as the error texts and test
      reports print it
    - a record survives pickle and deepcopy
    - MatrixFamily normalizes its matrices to tuples and keeps its cached
      properties in the instance dict, so it is not a tuple
    - PatternMatrix keeps its ``index`` field, which shadows tuple.index,
      and equals the plain (index, cells) tuple
"""

import copy
import pickle

import pytest

from rankshift.budget import Budget
from rankshift.dynamics import Series
from rankshift.gapsearch import GapRecord
from rankshift.matrices import (
    Alphabet,
    MatrixFamily,
    ValidationReport,
    Violation,
)
from rankshift.patterns import PatternFamilyReport, PatternMatrix
from rankshift.pressure import Potential
from rankshift.shapes import Shape
from rankshift.words import CountCheckReport, CountCheckRow, Word

GOLDEN = [[1, 1], [1, 0]]
W0, W1 = Word(Shape.of(0), (0,)), Word(Shape.of(0), (1,))

# name -> (a builder of a fresh record, its repr); hashable unless a field
# holds a dict
RECORDS = {
    "Budget": (
        lambda: Budget(max_exact_digits=10),
        "Budget(max_enum_bits=256.0, max_enum_nodes=10000000, "
        "max_exact_digits=10)"),
    "Series": (
        lambda: Series.of_logs([1.0, 3.0]),
        "Series(sequence=(1.0, 1.5), diffs=(2.0,))"),
    "GapRecord": (
        lambda: GapRecord("ab", MatrixFamily(1, Alphabet("01"), [GOLDEN]),
                          (1.5,), 1.5, 0.0, (("source", "test"),)),
        "GapRecord(fingerprint='ab', family=MatrixFamily(rank=1, "
        "letters=('0', '1')), radii=(1.5,), prod_radius=1.5, value=0.0, "
        "provenance=(('source', 'test'),))"),
    "Violation": (
        lambda: Violation("NotSquare", (("i", 1),)),
        "Violation(code='NotSquare', witness=(('i', 1),))"),
    "ValidationReport": (
        lambda: ValidationReport((Violation("NotSquare", (("i", 1),)),)),
        "ValidationReport(violations=(Violation(code='NotSquare', "
        "witness=(('i', 1),)),))"),
    "MatrixFamily": (
        lambda: MatrixFamily(1, Alphabet("01"), [GOLDEN]),
        "MatrixFamily(rank=1, letters=('0', '1'))"),
    "PatternMatrix": (
        lambda: PatternMatrix((W0, W1), frozenset({(W0, W1)})),
        "PatternMatrix(index=(Word((0,), (0,)), Word((0,), (1,))), "
        "cells=frozenset({(Word((0,), (0,)), Word((0,), (1,)))}))"),
    "PatternFamilyReport": (
        lambda: PatternFamilyReport(W0, W1, Shape.of(1), Shape.of(1),
                                    Shape.of(0), ((W0, W0, 0, True),), ()),
        "PatternFamilyReport(u=Word((0,), (0,)), w=Word((0,), (1,)), "
        "p=Shape(1,), m=Shape(1,), n=Shape(0,), "
        "stats=((Word((0,), (0,)), Word((0,), (0,)), 0, True),), "
        "witnesses=())"),
    "Potential": (
        lambda: Potential(Shape.of(0), 0.5, {W0: 1.0}),
        "Potential(window=Shape(0,), default=0.5, "
        "table={Word((0,), (0,)): 1.0})"),
    "CountCheckRow": (
        lambda: CountCheckRow(Shape.of(1), 3, 3),
        "CountCheckRow(shape=Shape(1,), enumerated=3, matrix_count=3)"),
    "CountCheckReport": (
        lambda: CountCheckReport((CountCheckRow(Shape.of(1), 3, 3),)),
        "CountCheckReport(rows=(CountCheckRow(shape=Shape(1,), "
        "enumerated=3, matrix_count=3),))"),
}
UNHASHABLE = {"Potential"}
# the records that are not tuples, and a field of each
NOT_TUPLES = {"MatrixFamily": "rank"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    make, text = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert record == twin and not record != twin
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    field = NOT_TUPLES.get(name) or type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == twin
    assert repr(record) == text
    assert isinstance(record, tuple) == (name not in NOT_TUPLES)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.deepcopy(record) == record


def test_named_tuples_unpack_and_compare_as_tuples():
    code, witness = Violation("NotSquare", (("i", 1),))
    assert (code, witness) == ("NotSquare", (("i", 1),))
    assert Budget() == (256.0, 10_000_000, 1_000_000)
    assert CountCheckRow(Shape.of(1), 3, 4) != CountCheckRow(Shape.of(1), 3, 3)


def test_family_normalizes_and_caches():
    family = MatrixFamily(1, Alphabet("01"), [GOLDEN])
    assert family.matrices == (((1, 1), (1, 0)),)
    assert family == MatrixFamily(rank=1, alphabet=Alphabet("01"),
                                  matrices=(((1, 1), (1, 0)),))
    assert family != MatrixFamily(1, Alphabet("ab"), [GOLDEN])
    assert family != (1, Alphabet("01"), family.matrices)
    assert family.is_valid and "validation" in vars(family)
    assert family.succ is family.succ
    twin = pickle.loads(pickle.dumps(family))
    assert twin == family and twin.is_valid


def test_pattern_matrix_keeps_its_index_field():
    pattern = PatternMatrix((W0, W1), frozenset({(W1, W0)}))
    assert pattern.index == (W0, W1)
    assert pattern.to_json() == {"dimension": 2, "cells": [[1, 0]]}
    assert pattern != PatternMatrix((W0, W1), frozenset())
    assert pattern == ((W0, W1), frozenset({(W1, W0)}))
