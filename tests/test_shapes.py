"""Shape arithmetic and box iteration."""

import pytest

from rankshift.shapes import Shape


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


def test_misc_properties():
    s = Shape.of(3, 1, 2)
    assert s.total == 6
    assert s.min_coord == 1
    assert not s.is_zero
    assert Shape.zero(2).is_zero
