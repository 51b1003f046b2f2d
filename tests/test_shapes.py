"""Shape arithmetic and box iteration."""

import copy
import operator
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from rankshift.shapes import Shape
from rankshift.words import Word


def test_construction_and_parse():
    assert Shape.of(2, 3).coords == (2, 3)
    assert Shape.parse("2,3") == Shape.of(2, 3)
    assert Shape.parse("7") == Shape.of(7)
    assert Shape.zero(3) == Shape.of(0, 0, 0)
    assert Shape.cube(2, 2) == Shape.of(2, 2)
    assert Shape.unit(1, 3) == Shape.of(0, 1, 0)


def test_rejects_bad_coords():
    with pytest.raises(ValueError):
        Shape.of(-1)
    with pytest.raises(ValueError):
        Shape(())
    for coord in (True, 1.0, "1", 1.7):
        with pytest.raises(ValueError):
            Shape((2, coord))


@pytest.mark.parametrize("text", ["1_0", " +1", "+1", "1 ", "\u0661",
                                  "1,\u0662", "", "1,,2", "-1", "0x1"])
def test_parse_accepts_ascii_digits_only(text):
    # int() would read "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1
    with pytest.raises(ValueError):
        Shape.parse(text)


def test_partial_order_and_arithmetic():
    a, b = Shape.of(1, 2), Shape.of(2, 2)
    assert a <= b
    assert not b <= a
    assert not Shape.of(2, 0) <= Shape.of(0, 2)  # incomparable
    assert b >= a and a >= a
    assert not a >= b
    assert not Shape.of(2, 0) >= Shape.of(0, 2)  # incomparable
    with pytest.raises(ValueError):
        a >= Shape.of(1)  # rank mismatch
    assert a + b == Shape.of(3, 4)
    assert b - a == Shape.of(1, 0)
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a + Shape.of(1)  # rank mismatch
    assert a.sup(Shape.of(2, 1)) == Shape.of(2, 2)
    assert a.scaled(3) == Shape.of(3, 6)


def test_box_is_row_major():
    pts = list(Shape.of(1, 2).box())
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert Shape.of(1, 2).volume == 6
    for i, pt in enumerate(pts):
        assert Shape.of(1, 2).index_of(pt) == i


def test_index_of_refuses_points_outside_the_box():
    # without the checks (0, 5) reads index 5 of a 4-point box, zip cuts
    # (1, 0, 7) to (1, 0) at index 2, and (0, 2) aliases (1, 0)
    m = Shape.of(1, 1)
    for point in [(0, 5), (1, 0, 7), (0, 2), (2, 0), (-1, 1), (1,)]:
        with pytest.raises(ValueError):
            m.index_of(point)
    with pytest.raises(ValueError):
        Word(m, (0, 1, 2, 3)).label_at((0, 2))
    assert Word(m, (0, 1, 2, 3)).label_at((1, 0)) == 2


def test_point_at_inverts_index_of():
    m = Shape.of(2, 0, 3)
    assert [m.point_at(i) for i in range(m.volume)] == list(m.box())
    for index in (-1, m.volume):
        with pytest.raises(ValueError):
            m.point_at(index)


def test_misc_properties():
    s = Shape.of(3, 1, 2)
    assert s.total == 6
    assert s.min_coord == 1
    assert not s.is_zero
    assert Shape.zero(2).is_zero


coord_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda rank: st.tuples(*[st.tuples(st.integers(0, 10**20), st.integers(0, 10**20))
                             for _ in range(rank)]))


@given(coord_pairs)
def test_arithmetic_results_match_validated_shapes(pairs):
    # +, - and sup build their results unchecked; each must equal the
    # Shape that validation builds from the same coordinates
    a = Shape(tuple(x for x, _ in pairs))
    b = Shape(tuple(y for _, y in pairs))
    results = [(a + b, [x + y for x, y in pairs]),
               (a.sup(b), [max(x, y) for x, y in pairs]),
               ((a + b) - b, [x for x, _ in pairs])]
    for result, coords in results:
        validated = Shape(tuple(coords))
        assert type(result) is Shape
        assert type(result.coords) is tuple
        assert result == validated
        assert hash(result) == hash(validated)
        assert repr(result) == repr(validated)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_equal_shapes_and_words_hash_equal(coords, labels):
    shape, twin = Shape(tuple(coords)), Shape(tuple(coords)) + Shape.zero(len(coords))
    assert shape == twin and shape is not twin
    assert hash(shape) == hash(twin)
    word, other = Word(shape, tuple(labels)), Word(twin, tuple(labels))
    assert word == other
    assert hash(word) == hash(other)
    assert len({word, other}) == 1


def test_scaled_keeps_its_check():
    # the factor comes from callers, so its result is validated
    with pytest.raises(ValueError):
        Shape.of(1).scaled(2.0)
    with pytest.raises(ValueError):
        Shape.of(1).scaled(-1)


@pytest.mark.parametrize("op", [Shape.__add__, Shape.__sub__, Shape.sup, Shape.__le__])
def test_rank_mismatch_is_refused(op):
    with pytest.raises(ValueError):
        op(Shape.of(1, 2), Shape.of(1))


def test_a_shape_is_the_tuple_of_its_coordinates():
    shape = Shape.of(1, 2)
    assert shape == (1, 2) and hash(shape) == hash((1, 2))
    assert len(Shape.of(1, 2, 3)) == 3
    assert type(shape.coords) is tuple
    assert repr(shape) == "Shape(1, 2)"


def test_strict_order_is_refused():
    # <= and >= are the coordinatewise partial order; a lexicographic <
    # beside it would mislead, so < and > raise as they always did
    a, b = Shape.of(1, 0), Shape.of(0, 1)
    for op in (operator.lt, operator.gt):
        with pytest.raises(TypeError):
            op(a, b)
    with pytest.raises(TypeError):
        sorted([a, b])
    assert sorted([a, b], key=tuple) == [b, a]


@pytest.mark.parametrize("op", [operator.lt, operator.gt, operator.le,
                                operator.ge, operator.add, operator.sub,
                                Shape.sup])
def test_order_and_arithmetic_refuse_plain_tuples(op):
    # a Shape equals its plain tuple, but a tuple's coordinates are
    # unchecked and its order lexicographic: the two never mix here
    with pytest.raises(TypeError):
        op(Shape.of(1, 0), (0, 1))
    if op is operator.add:  # the tuple's own +: concatenation, no Shape
        assert type((0, 1) + Shape.of(1, 0)) is tuple
    elif op is not Shape.sup:
        with pytest.raises(TypeError):
            op((0, 1), Shape.of(1, 0))


def test_hash_and_equality_of_words_run_in_c():
    # Word is a tuple of a Shape and labels: hashing two Words built apart
    # and comparing them call no Python-level function
    word = Word(Shape.of(2, 1), (0, 1, 2, 3, 0, 1))
    twin = Word(Shape.parse("2,1"), tuple([0, 1, 2, 3, 0, 1]))
    assert word.shape is not twin.shape and word.labels is not twin.labels
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and calls.append(frame.f_code.co_name))
    try:
        hashes = hash(word), hash(twin)
        equal = word == twin
    finally:
        sys.setprofile(None)
    assert calls == []
    assert equal and hashes[0] == hashes[1]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_shapes_survive_pickle_and_deepcopy(protocol):
    shape = Shape.of(3, 0, 2)
    for twin in (pickle.loads(pickle.dumps(shape, protocol)),
                 copy.deepcopy(shape)):
        assert type(twin) is Shape and twin == shape
        assert twin + Shape.of(1, 1, 1) == Shape.of(4, 1, 3)
