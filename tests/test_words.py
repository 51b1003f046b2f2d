"""Enumeration, restriction, composition.

Core claims:
    - enumeration is lexicographic in the labels and matches <e, M^l e>
    - restrict_prefix / restrict_tail / compose are mutually inverse,
      including splits that force the square-filling loop to run
    - malformed words and oversized enumerations are rejected
"""

from pathlib import Path

import pytest

from rankshift.budget import Budget
from rankshift.errors import (
    BudgetExceededError,
    OriginMismatchError,
    ShapeMismatchError,
    ShapeNotDominatedError,
)
from rankshift.matrices import load_family, word_count
from rankshift.shapes import Shape
from rankshift.words import (
    Word,
    check_enum_budget,
    compose,
    count_oracle_check,
    enumerate_extensions,
    enumerate_words,
    make_word,
    restrict_prefix,
    restrict_tail,
    word_from_dict,
    word_to_dict,
)

FAMILIES = Path(__file__).resolve().parent.parent / "families"


# -- Enumeration ---------------------------------------------------------------

def test_golden_words_lex_order(g1):
    got = [w.labels for w in enumerate_words(g1, Shape.of(2))]
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert got == sorted(got)


def test_origin_filter(g1):
    by_name = [w.labels for w in enumerate_words(g1, Shape.of(2), origin="1")]
    by_index = [w.labels for w in enumerate_words(g1, Shape.of(2), origin=1)]
    assert by_name == by_index == [(1, 0, 0), (1, 0, 1)]


def test_rank2_enumeration_count(g3):
    words = list(enumerate_words(g3, Shape.of(1, 1)))
    assert len(words) == 9  # w_1(golden)^2
    labels = [w.labels for w in words]
    assert labels == sorted(labels)


def test_count_oracle_check(g1, g3):
    report = count_oracle_check(g1, Shape.of(5))
    assert report.ok and len(report.rows) == 6
    report = count_oracle_check(g3, Shape.of(2, 2))
    assert report.ok and len(report.rows) == 9
    row = report.to_json()["rows"][0]
    assert row == {"shape": [0, 0], "enumerated": "4",
                   "matrix_count": "4", "equal": True}


@pytest.mark.parametrize("name, max_shape", [
    ("g1", "12"), ("g2", "8"), ("g3", "3,3"), ("g4", "3,3"), ("t3", "1,1,1")])
def test_count_rows_are_enumerated_and_matrix_counts(name, max_shape):
    family = load_family(FAMILIES / f"{name}.json")
    top = Shape.parse(max_shape)
    rows = [(r.shape, r.enumerated, r.matrix_count)
            for r in count_oracle_check(family, top).rows]
    assert rows == [(Shape(pt), sum(1 for _ in enumerate_words(family, Shape(pt))),
                     word_count(family, Shape(pt))) for pt in top.box()]


def test_extensions_agree_with_prefix_filter(g1):
    base = make_word(g1, Shape.of(1), (0, 1))
    exts = list(enumerate_extensions(g1, base, Shape.of(3)))
    direct = [w for w in enumerate_words(g1, Shape.of(3))
              if restrict_prefix(w, base.shape) == base]
    assert exts == direct
    assert all(restrict_prefix(w, base.shape) == base for w in exts)


def test_enum_budget_guard(g2):
    with pytest.raises(BudgetExceededError):
        check_enum_budget(g2, Shape.of(2000), Budget(max_enum_bits=100))
    with pytest.raises(BudgetExceededError):
        count_oracle_check(g2, Shape.of(30), Budget(max_enum_nodes=1000))


# -- Word construction -----------------------------------------------------------

def test_make_word_rejects_garbage(g1):
    with pytest.raises(ShapeMismatchError):
        make_word(g1, Shape.of(2), (0, 1))  # volume 3, two labels
    with pytest.raises(ValueError):
        make_word(g1, Shape.of(1), (0, 7))  # letter out of range
    with pytest.raises(ValueError):
        make_word(g1, Shape.of(1), (1, 1))  # forbidden edge


R3 = Shape.of(1, 0, 0)
R3_WORD = Word(R3, (0, 0))
ORIGIN3 = Word(Shape.of(0, 0, 0), (0,))


@pytest.mark.parametrize("build", [
    lambda g3: make_word(g3, R3, (0, 0)),
    lambda g3: compose(g3, R3_WORD, R3_WORD),
    lambda g3: compose(g3, Word(Shape.of(1, 0), (0, 0)), R3_WORD),
    lambda g3: list(enumerate_extensions(g3, ORIGIN3, Shape.of(1, 1, 1))),
    lambda g3: list(enumerate_extensions(g3, Word(Shape.of(0, 0), (0,)),
                                         Shape.of(1, 1, 1))),
    lambda g3: list(enumerate_extensions(g3, ORIGIN3, Shape.of(1, 1))),
], ids=["make_word", "compose", "compose-mixed", "extensions",
        "extensions-target", "extensions-base"])
def test_a_shape_of_another_rank_is_refused(g3, build):
    # a rank-3 shape on the rank-2 family: ShapeMismatch, not a Word
    with pytest.raises(ShapeMismatchError) as info:
        build(g3)
    assert info.value.details["family_rank"] == 2


@pytest.mark.parametrize("label", [True, 1.0, "1"])
def test_make_word_rejects_inexact_labels(g1, label):
    with pytest.raises(ValueError):
        make_word(g1, Shape.of(1), (0, label))


def test_word_accessors(g1, line_word):
    w = line_word(g1, 0, 1, 0)
    assert w.origin == 0 and w.terminal == 0
    assert w.letters(g1) == ("0", "1", "0")
    assert w.label_at((1,)) == 1


def test_word_dict_round_trip(g3):
    w = next(iter(enumerate_words(g3, Shape.of(2, 1))))
    data = word_to_dict(w)
    assert data == {"shape": [2, 1], "labels": list(w.labels)}
    assert word_from_dict(g3, data) == w


@pytest.mark.parametrize("coord", [True, 1.0, "1", 1.7])
def test_word_from_dict_rejects_inexact_shape(g1, coord):
    # loaded as shape (1,), these labels would make a valid word
    with pytest.raises(ValueError):
        word_from_dict(g1, {"shape": [coord], "labels": [0, 1]})


# -- Restriction and composition ---------------------------------------------

def test_restriction_shapes(g3):
    w = next(iter(enumerate_words(g3, Shape.of(2, 2))))
    assert restrict_prefix(w, Shape.of(1, 1)).shape == Shape.of(1, 1)
    assert restrict_tail(w, Shape.of(1, 1)).shape == Shape.of(1, 1)
    with pytest.raises(ShapeNotDominatedError):
        restrict_prefix(w, Shape.of(3, 0))
    with pytest.raises(ShapeNotDominatedError):
        restrict_tail(w, Shape.of(0, 3))


def test_split_then_compose_is_identity(g1, g3):
    for w in enumerate_words(g1, Shape.of(4)):
        for cut in range(5):
            k = Shape.of(cut)
            assert compose(g1, restrict_prefix(w, k), restrict_tail(w, k)) == w
    for w in enumerate_words(g3, Shape.of(2, 2)):
        for k in (Shape.of(1, 1), Shape.of(2, 0), Shape.of(0, 2)):
            assert compose(g3, restrict_prefix(w, k), restrict_tail(w, k)) == w


def test_compose_fills_missing_corner(g3):
    # prefix on the bottom edge, tail on the right edge: the top-left point
    # is covered by neither and must come from the unique square completion
    for w in enumerate_words(g3, Shape.of(1, 1)):
        u = restrict_prefix(w, Shape.of(1, 0))
        v = restrict_tail(w, Shape.of(1, 0))
        assert v.shape == Shape.of(0, 1)
        assert compose(g3, u, v) == w


def test_compose_corner_mismatch(g1, line_word):
    u = line_word(g1, 0, 1)
    v = line_word(g1, 0, 0)
    with pytest.raises(OriginMismatchError):
        compose(g1, u, v)
