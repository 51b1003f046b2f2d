"""Potentials, partition sums, pressure.

Core claims:
    - with the zero potential the partition sum is the word count, so the
      pressure machinery degenerates to the entropy machinery termwise
    - the transfer-chain route and direct enumeration agree on every stage
      we can enumerate, for vertex and wider windows alike
    - a Birkhoff sum reads its window sites site after site, each window
      row-major, and a single vertex site still reads as a 1-tuple key
    - the golden-mean vertex pressure matches the closed-form root of the
      weighted characteristic polynomial
    - pressure shifts by exactly c under f -> f + c, already at finite n
    - tensor lifts add pressures
    - the one-pass transfer series is bit-identical to stage-by-stage
      partition sums
    - potential files with non-finite or non-numeric values are rejected,
      and so are such values given to the library potentials, a word of
      another shape than the window and a word given twice
    - a transfer chain with no admissible continuation is a coded error,
      and so is a live chain whose weights underflow, under its own code
    - with the zero potential the vertex oracle is entropy_exact: exactly
      while M^p and its row sums are exact in float, within 1e-12 past
      exp's range and past float range, where it stays finite and coded
"""

import math

import pytest
from hypothesis import assume, given, strategies as st
from pytest import approx

from rankshift import pressure, words
from rankshift.errors import (
    DomainError,
    ScaleTooFineError,
    ShapeMismatchError,
    TransferChainUnderflowError,
    WindowTooWideError,
    ZeroDirectionError,
)
from rankshift.families import tensor_product
from rankshift.matrices import (
    entropy_exact, log_word_count, matrix_power_product)
from rankshift.pressure import (
    Potential,
    birkhoff_sum_on_cylinder,
    log_sum_exp,
    partition_function_log,
    potential_from_dict,
    potential_to_dict,
    pressure_estimate,
    pressure_oracle_vertex,
    vertex_potential,
)
from rankshift.shapes import Shape
from rankshift.words import enumerate_words, restrict_tail
from test_kernel import PROPERTY, rank3_families, valid_families


G1_VALUES = {"1": 0.5}  # g(0) = 0, g(1) = 1/2 on the golden mean


def _g1_closed_form():
    # leading root of x^2 - x - exp(1/2), the weighted step matrix being
    # [[1, 1], [exp(1/2), 0]]
    return math.log((1 + math.sqrt(1 + 4 * math.exp(0.5))) / 2)


# -- Potential values ------------------------------------------------------------

def test_vertex_potential_lookup(g1, line_word):
    pot = vertex_potential(g1, G1_VALUES)
    assert pot.value(line_word(g1, 1)) == 0.5
    assert pot.value(line_word(g1, 0)) == 0.0
    assert pot.value(line_word(g1, 1, 0, 0)) == 0.5  # prefix letter decides
    by_index = vertex_potential(g1, {1: 0.5})
    assert by_index == pot


def test_window_too_narrow_word(g1, line_word):
    pot = Potential(Shape.of(1), 0.0, {line_word(g1, 0, 1): 0.3})
    assert pot.value(line_word(g1, 0, 1, 0)) == 0.3
    with pytest.raises(WindowTooWideError):
        pot.value(line_word(g1, 0))


def test_potential_dict_round_trip(g1, line_word):
    pot = Potential(Shape.of(1), 0.25,
                    {line_word(g1, 0, 1): 0.3, line_word(g1, 1, 0): -1.0})
    data = potential_to_dict(pot)
    assert data["window"] == [1] and data["default"] == 0.25
    assert data["entries"][0]["word"] == {"shape": [1], "labels": [0, 1]}
    assert potential_from_dict(g1, data) == pot
    # bare label lists are tolerated on load
    bare = dict(data, entries=[{"word": [0, 1], "value": 0.3},
                               {"word": [1, 0], "value": -1.0}])
    assert potential_from_dict(g1, bare) == pot


def test_log_sum_exp():
    assert log_sum_exp([0.0, 0.0]) == approx(math.log(2))
    assert log_sum_exp([-1000.0, -1000.0]) == approx(math.log(2) - 1000.0)
    with pytest.raises(ValueError):
        log_sum_exp([])


# -- Birkhoff sums ----------------------------------------------------------------

def test_birkhoff_sum_counts_all_offsets(g1, g2, line_word):
    pot = vertex_potential(g2, {"1": 1.0})
    # base cube radius 1, offsets l = 0, 1, 2: n+1 terms, not n
    assert birkhoff_sum_on_cylinder(
        g2, pot, line_word(g2, 1, 1, 1, 1), Shape.of(1), 2) == approx(3.0)
    assert birkhoff_sum_on_cylinder(
        g2, pot, line_word(g2, 1, 0, 1, 1), Shape.of(1), 2) == approx(2.0)
    pot1 = vertex_potential(g1, G1_VALUES)
    assert birkhoff_sum_on_cylinder(
        g1, pot1, line_word(g1, 0, 1, 0, 1), Shape.of(1), 2) == approx(0.5)


def test_birkhoff_sites_are_read_site_after_site(g2, line_word):
    # window (1) at offsets 0, 1, 2 of a length-4 word: the keys are the
    # label pairs at (0, 1), (1, 2), (2, 3); reading the flat sites window
    # index first would pair (0, 1), (2, 1), (2, 3) instead
    pot = Potential(Shape.of(1), 0.0, {line_word(g2, 0, 1): 1.0,
                                       line_word(g2, 1, 0): 10.0})
    word = line_word(g2, 0, 1, 0, 0)
    assert birkhoff_sum_on_cylinder(g2, pot, word, Shape.of(1), 2) == 11.0


def test_birkhoff_sum_reads_a_square_window_row_major(g3):
    # a 2x2 window whose table tells each word from its transpose
    square = Shape.of(1, 1)
    table = {w: float(i) for i, w in enumerate(enumerate_words(g3, square))}
    pot = Potential(square, -1.0, dict(list(table.items())[::2]))
    for step in (Shape.of(1, 0), Shape.of(0, 1), Shape.of(1, 1)):
        for n in range(3):
            shape = Shape.cube(1, 2) + step.scaled(n)
            for word in enumerate_words(g3, shape):
                expected = math.fsum(
                    pot.value(restrict_tail(word, step.scaled(l)))
                    for l in range(n + 1))
                assert birkhoff_sum_on_cylinder(g3, pot, word, step, n) \
                    == expected


def test_birkhoff_sum_of_one_vertex_site(g1, line_word):
    # n = 0 with the zero window reads one label: still a 1-tuple key
    pot = vertex_potential(g1, G1_VALUES)
    assert birkhoff_sum_on_cylinder(
        g1, pot, line_word(g1, 1, 0), Shape.of(1), 0) == 0.5
    assert birkhoff_sum_on_cylinder(
        g1, pot, line_word(g1, 0, 1), Shape.of(1), 0) == 0.0
    # stage 0 is the cube: words 00, 01, 10 weigh 1, 1 and e^0.5
    assert partition_function_log(g1, pot, 1, Shape.of(1), 0, "enumerate") \
        == approx(math.log(2 + math.exp(0.5)), abs=1e-15)
    assert partition_function_log(g1, pot, 1, Shape.of(1), 0, "enumerate") \
        == approx(partition_function_log(g1, pot, 1, Shape.of(1), 0),
                  abs=1e-15)


def test_birkhoff_shape_guards(g3, g1, line_word):
    pot3 = vertex_potential(g3, {})
    w = next(iter(enumerate_words(g3, Shape.of(2, 0))))
    with pytest.raises(ShapeMismatchError):
        birkhoff_sum_on_cylinder(g3, pot3, w, Shape.of(1, 0), 1)
    pot1 = vertex_potential(g1, {})
    with pytest.raises(ShapeMismatchError):
        birkhoff_sum_on_cylinder(g1, pot1, line_word(g1, 0, 0), Shape.of(1), 5)


# -- Partition sums ---------------------------------------------------------------

def test_zero_potential_is_word_count(g1, g3):
    zero1 = vertex_potential(g1, {})
    for n in range(5):
        expect, _ = log_word_count(g1, Shape.of(1 + n))
        for method in ("transfer", "enumerate"):
            got = partition_function_log(g1, zero1, 1, Shape.of(1), n, method)
            assert got == approx(expect, abs=1e-9), (method, n)
    zero3 = vertex_potential(g3, {})
    expect, _ = log_word_count(g3, Shape.of(3, 3))
    assert partition_function_log(
        g3, zero3, 1, Shape.of(1, 1), 2) == approx(expect, abs=1e-9)


def test_transfer_matches_enumerate(g1, g3, line_word):
    wide = Potential(Shape.of(1), -0.1,
                     {line_word(g1, 0, 1): 0.3, line_word(g1, 1, 0): 0.7})
    cases = [
        (g1, vertex_potential(g1, G1_VALUES), 1, Shape.of(1), range(5)),
        (g1, wide, 2, Shape.of(1), range(4)),
        (g3, vertex_potential(g3, {"1.1": 0.2, "0.1": -0.4}), 1,
         Shape.of(1, 1), range(3)),
    ]
    for fam, pot, k, p, ns in cases:
        for n in ns:
            a = partition_function_log(fam, pot, k, p, n, "transfer")
            b = partition_function_log(fam, pot, k, p, n, "enumerate")
            assert a == approx(b, abs=1e-9), (k, p, n)


def test_partition_guards(g1, g3):
    zero1 = vertex_potential(g1, {})
    with pytest.raises(ZeroDirectionError):
        partition_function_log(g1, zero1, 1, Shape.of(0), 1)
    with pytest.raises(ScaleTooFineError):
        partition_function_log(g3, vertex_potential(g3, {}), 1, Shape.of(2, 1), 1)
    with pytest.raises(ValueError):
        partition_function_log(g1, zero1, 1, Shape.of(1), -1)
    with pytest.raises(ValueError):
        partition_function_log(g1, zero1, 1, Shape.of(1), 1, method="magic")
    wide = Potential(Shape.of(2), 0.0, {})
    with pytest.raises(WindowTooWideError):
        partition_function_log(g1, wide, 1, Shape.of(1), 1)


# -- Pressure ---------------------------------------------------------------------

def test_pressure_matches_closed_form(g1):
    est = pressure_estimate(g1, vertex_potential(g1, G1_VALUES), 1,
                            Shape.of(1), 40)
    assert est.estimate == approx(_g1_closed_form(), abs=1e-9)
    oracle = pressure_oracle_vertex(g1, G1_VALUES, Shape.of(1))
    assert oracle == approx(_g1_closed_form(), abs=1e-12)


def test_pressure_methods_agree(g1):
    pot = vertex_potential(g1, G1_VALUES)
    t = pressure_estimate(g1, pot, 1, Shape.of(1), 8, method="transfer")
    e = pressure_estimate(g1, pot, 1, Shape.of(1), 8, method="enumerate")
    assert t.sequence == approx(e.sequence, abs=1e-9)
    assert t.diffs == approx(e.diffs, abs=1e-9)


def test_constant_shift_moves_pressure_by_c(g1):
    c = 0.7
    base = pressure_estimate(g1, vertex_potential(g1, G1_VALUES), 1,
                             Shape.of(1), 10)
    shifted_values = {"0": c, "1": 0.5 + c}
    shifted = pressure_estimate(g1, vertex_potential(g1, shifted_values), 1,
                                Shape.of(1), 10)
    assert shifted.estimate == approx(base.estimate + c, abs=1e-9)
    assert pressure_oracle_vertex(g1, shifted_values, Shape.of(1)) == \
        approx(pressure_oracle_vertex(g1, G1_VALUES, Shape.of(1)) + c, abs=1e-12)


@pytest.mark.parametrize("n", [1, 7])
def test_zero_potential_oracle_is_entropy_exact(g1, n):
    p = Shape.of(n)
    assert pressure_oracle_vertex(g1, {}, p) == entropy_exact(g1, p)


@pytest.mark.parametrize("n", [1460, 2000])
def test_zero_potential_oracle_past_float_range(g1, n):
    # the radius of M^1460 leaves exp's range; the entries of M^2000 leave
    # float range and are scaled down by a power of two
    p = Shape.of(n)
    exact = entropy_exact(g1, p)
    assert exact > 700
    assert pressure_oracle_vertex(g1, {}, p) == approx(exact, rel=1e-12)
    # a constant potential c moves the value by c, here with weighted row
    # sums past float range while M^1460 itself fits
    assert pressure_oracle_vertex(g1, {0: 300.0, 1: 300.0}, p) \
        == approx(exact + 300, rel=1e-12)


@PROPERTY
@given(st.data())
def test_zero_potential_oracle_is_entropy_exact_on_generated_families(data):
    family = data.draw(st.one_of(valid_families(), rank3_families()))
    p = data.draw(st.tuples(*[st.integers(0, 8)] * family.rank)
                  .map(Shape).filter(lambda p: not p.is_zero))
    # the float step matrix holds the exact entries and row sums, so the
    # oracle's radius loop sees the floats of entropy_exact's
    assume(max(map(sum, matrix_power_product(family, p))) < 2 ** 53)
    assert pressure_oracle_vertex(family, {}, p) == entropy_exact(family, p)


def test_table_order_is_irrelevant(g3):
    a = vertex_potential(g3, {"1.1": 0.2, "0.1": -0.4, "1.0": 0.05})
    b = vertex_potential(g3, {"1.0": 0.05, "0.1": -0.4, "1.1": 0.2})
    pa = partition_function_log(g3, a, 1, Shape.of(1, 1), 2)
    pb = partition_function_log(g3, b, 1, Shape.of(1, 1), 2)
    assert pa == pb


def test_tensor_lift_adds_pressure(g1, g3):
    lifted = {"0.1": 0.5, "1.1": 1.0, "1.0": 0.5}  # g(a.b) = g1(a) + g1(b)
    double = pressure_oracle_vertex(g3, lifted, Shape.of(1, 1))
    single = pressure_oracle_vertex(g1, G1_VALUES, Shape.of(1))
    assert double == approx(2 * single, abs=1e-12)


def _window_potential(fam):
    # width-1 window; values cycle through seven levels over the window words
    window = Shape.cube(1, fam.rank)
    words = enumerate_words(fam, window)
    return Potential(window, 0.0,
                     {w: 0.1 * (i % 7) - 0.3 for i, w in enumerate(words)})


def test_transfer_series_bit_identical_to_stages(g1, g3):
    t3 = tensor_product(g3, g1)
    cases = [
        (g1, vertex_potential(g1, G1_VALUES)),
        (g1, _window_potential(g1)),
        (g3, vertex_potential(g3, {"1.1": 0.2, "0.1": -0.4})),
        (g3, _window_potential(g3)),
        (t3, vertex_potential(t3, {"1.1.1": 0.3, "0.0.1": -0.2})),
        (t3, _window_potential(t3)),
    ]
    n_max = 8
    for fam, pot in cases:
        p = Shape.cube(1, fam.rank)
        est = pressure_estimate(fam, pot, 1, p, n_max)
        logs = [partition_function_log(fam, pot, 1, p, n)
                for n in range(1, n_max + 1)]
        assert est.sequence == tuple(logs[n - 1] / n for n in range(1, n_max + 1))
        assert est.diffs == tuple(logs[n] - logs[n - 1] for n in range(1, n_max))


def test_unknown_method_is_refused_before_enumerating(g1, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the method was checked")
    # both routes reach the walk, the enumerate route by its name in pressure
    monkeypatch.setattr(words, "_dfs_prefixes", no_enumeration)
    monkeypatch.setattr(pressure, "_dfs_prefixes", no_enumeration)
    pot = vertex_potential(g1, G1_VALUES)
    with pytest.raises(ValueError, match="unknown method"):
        pressure_estimate(g1, pot, 1, Shape.of(1), 3, method="magic")
    with pytest.raises(ValueError, match="unknown method"):
        partition_function_log(g1, pot, 1, Shape.of(1), 1, method="magic")
    for method in ("transfer", "enumerate"):
        with pytest.raises(AssertionError, match="enumerated"):
            pressure_estimate(g1, pot, 1, Shape.of(1), 3, method=method)


def test_transfer_chain_dead_end_raises(g1):
    # letter 0 weighs exp(-1e6) = 0.0 against letter 1, and 1 -> 1 is forbidden
    pot = vertex_potential(g1, {"0": -1e6})
    with pytest.raises(ArithmeticError):
        pressure_estimate(g1, pot, 1, Shape.of(1), 3)
    with pytest.raises(ArithmeticError):
        partition_function_log(g1, pot, 1, Shape.of(1), 1)


def test_transfer_chain_underflow_is_coded(g1):
    # the golden-mean chain has paths of every length: only the weights died
    pot = vertex_potential(g1, {"0": -1e6})
    with pytest.raises(TransferChainUnderflowError) as info:
        pressure_estimate(g1, pot, 1, Shape.of(1), 3)
    assert isinstance(info.value, DomainError)
    assert info.value.to_json() == {
        "error": "TransferChainUnderflow",
        "message": "every weight of a live transfer chain underflowed",
        "details": {"stage": 1}}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_potential_from_dict_rejects_non_finite(g1, bad):
    data = {"window": [0], "default": 0.0,
            "entries": [{"word": [1], "value": 0.5}]}
    with pytest.raises(ValueError):
        potential_from_dict(g1, dict(data, default=bad))
    with pytest.raises(ValueError):
        potential_from_dict(g1, dict(data, entries=[{"word": [1], "value": bad}]))


@pytest.mark.parametrize("bad", [True, False, "0.5", None, 10 ** 400],
                         ids=["true", "false", "str", "none", "huge-int"])
def test_potential_from_dict_rejects_non_numbers(g1, bad):
    data = {"window": [0], "default": 0.0,
            "entries": [{"word": [1], "value": 0.5}]}
    with pytest.raises(ValueError):
        potential_from_dict(g1, dict(data, default=bad))
    with pytest.raises(ValueError):
        potential_from_dict(g1, dict(data, entries=[{"word": [1], "value": bad}]))


@pytest.mark.parametrize("bad", [True, "0.5", None, 10 ** 400, math.nan,
                                 math.inf],
                         ids=["true", "str", "none", "huge-int", "nan", "inf"])
def test_library_potentials_refuse_what_the_loader_refuses(g1, bad):
    with pytest.raises(ValueError):
        vertex_potential(g1, {0: bad})
    with pytest.raises(ValueError):
        vertex_potential(g1, {}, default=bad)
    with pytest.raises(ValueError):
        pressure_oracle_vertex(g1, {0: bad}, Shape.of(1))


def test_potential_from_dict_refuses_off_window_and_repeated_words(g1):
    data = {"window": [0], "default": 0.0,
            "entries": [{"word": {"shape": [0], "labels": [1]}, "value": 0.5}]}
    assert potential_from_dict(g1, data) == vertex_potential(g1, {1: 0.5})
    # one label, as the window (0) has, but declared of shape (3)
    off = {"word": {"shape": [3], "labels": [1]}, "value": 0.5}
    with pytest.raises(ValueError, match="not the window"):
        potential_from_dict(g1, dict(data, entries=[off]))
    again = {"word": [1], "value": -2.0}
    with pytest.raises(ValueError, match="given twice"):
        potential_from_dict(g1, dict(data, entries=data["entries"] + [again]))
    # a ValueError, which the CLI reports as a ParseError naming the file,
    # not make_word's ShapeMismatchError
    for labels in ([0, 1], []):
        miscounted = {"word": labels, "value": 1}
        with pytest.raises(ValueError, match="does not fill the window"):
            potential_from_dict(g1, dict(data, entries=[miscounted]))


def test_pressure_json_and_guards(g1):
    pot = vertex_potential(g1, G1_VALUES)
    est = pressure_estimate(g1, pot, 1, Shape.of(1), 3)
    assert len(est.sequence) == 3 and len(est.diffs) == 2
    with pytest.raises(ValueError):
        pressure_estimate(g1, pot, 1, Shape.of(1), 1)
    with pytest.raises(ZeroDirectionError):
        pressure_oracle_vertex(g1, G1_VALUES, Shape.of(0))
