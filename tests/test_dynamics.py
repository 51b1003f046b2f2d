"""Cube metric, separated sets, entropy estimates.

Core claims:
    - the metric reports 1/(k+1) at the first bad shell, 0 only for equal
      cube words, and None when the words cannot decide the distance
    - separated_count agrees between the closed-form count and the greedy
      bruteforce over every small grid we can afford
    - the Bowen sequence for the golden mean is the Fibonacci log ratios
    - the one-pass Bowen series is bit-identical to per-stage
      log_word_count calls, across the exact-to-float switch, on g1/g3/t3
      and on the generated valid families of test_kernel (ranks 2 and 3,
      steps with zero coordinates)
    - the series reads the family's successor lists, which a family
      builds once, whatever n_max and however many series
    - the lattice-action probe decays like 1/n^rank
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from pytest import approx

from rankshift import families, matrices
from rankshift.budget import Budget
from rankshift.errors import (
    RankOneError,
    ScaleTooFineError,
    ShapeMismatchError,
    ZeroDirectionError,
)
from rankshift.dynamics import (
    action_entropy_estimate,
    bowen_entropy_estimate,
    metric,
    separated_count,
    separation_threshold,
)
from rankshift.families import tensor_product
from rankshift.matrices import log_word_count, log_word_count_series
from rankshift.shapes import Shape
from rankshift.words import enumerate_words, make_word, restrict_prefix
from test_kernel import BASES, PROPERTY, SMALL_VALID, valid_families


# -- Metric ----------------------------------------------------------------------

def test_metric_basic_cases(g1, line_word):
    u = line_word(g1, 0, 0, 1)
    assert metric(u, line_word(g1, 1, 0, 1)) == Fraction(1, 1)
    assert metric(u, line_word(g1, 0, 1, 0)) == Fraction(1, 2)
    assert metric(u, line_word(g1, 0, 0, 0)) == Fraction(1, 3)
    assert metric(u, u) == Fraction(0)


def test_metric_undetermined(g1, g3, line_word):
    u = line_word(g1, 0, 1, 0)
    assert metric(u, restrict_prefix(u, Shape.of(1))) is None  # shapes differ
    w = next(iter(enumerate_words(g3, Shape.of(2, 1))))
    assert metric(w, w) is None  # equal but not cube-shaped
    square = next(iter(enumerate_words(g3, Shape.of(1, 1))))
    assert metric(square, square) == Fraction(0)


def test_metric_shell_not_prefix(g3):
    # words sharing the smaller cube but split on an off-axis shell point
    words = list(enumerate_words(g3, Shape.of(1, 1)))
    u = words[0]
    v = next(w for w in words
             if w.label_at((0, 0)) == u.label_at((0, 0)) and w != u)
    assert metric(u, v) == Fraction(1, 2)


def test_metric_rank_mismatch(g1, g3, line_word):
    w = next(iter(enumerate_words(g3, Shape.of(1, 1))))
    with pytest.raises(ShapeMismatchError):
        metric(line_word(g1, 0, 1), w)


def test_threshold_sits_between_scales():
    for k in range(6):
        assert Fraction(1, k + 2) == separation_threshold(k)
        assert Fraction(1, k + 2) < Fraction(1, k + 1)


# -- Separated counts ---------------------------------------------------------

def test_separated_count_frozen(g1):
    p = Shape.of(1)
    assert separated_count(g1, 1, p, 1) == 5
    assert separated_count(g1, 1, p, 2) == 8
    assert separated_count(g1, 2, p, 3) == 21


def test_formula_matches_bruteforce(g1, g2, g3):
    grid = [
        (g1, 1, Shape.of(1), (1, 2, 3)),
        (g1, 2, Shape.of(2), (1, 2)),
        (g2, 1, Shape.of(1), (1, 2, 3)),
        (g3, 1, Shape.of(1, 1), (1, 2)),
        (g3, 1, Shape.of(1, 0), (1, 2)),
    ]
    for fam, k, p, ns in grid:
        for n in ns:
            formula = separated_count(fam, k, p, n, mode="formula")
            brute = separated_count(fam, k, p, n, mode="bruteforce")
            assert formula == brute, (fam.alphabet, k, p, n)


def test_separated_count_guards(g1, g3):
    with pytest.raises(ScaleTooFineError):
        separated_count(g1, 0, Shape.of(1), 2)
    with pytest.raises(ScaleTooFineError):
        separated_count(g3, 1, Shape.of(2, 1), 1)
    with pytest.raises(ZeroDirectionError):
        separated_count(g1, 1, Shape.of(0), 2)
    with pytest.raises(ValueError):
        separated_count(g1, 1, Shape.of(1), 2, mode="magic")
    with pytest.raises(ValueError):
        separated_count(g1, 1, Shape.of(1), -1)


def test_step_of_another_rank_is_shape_mismatch(g3):
    # checked before check_scale and before any Shape arithmetic
    for call in (lambda: bowen_entropy_estimate(g3, 1, Shape.of(1), 5),
                 lambda: separated_count(g3, 1, Shape.of(1), 2),
                 lambda: separated_count(g3, 1, Shape.of(1, 1, 1), 2)):
        with pytest.raises(ShapeMismatchError) as info:
            call()
        assert info.value.details["family_rank"] == 2


# -- Bowen estimate -------------------------------------------------------------

def test_bowen_sequence_frozen(g1):
    est = bowen_entropy_estimate(g1, 1, Shape.of(1), 4)
    logs = [math.log(c) for c in (5, 8, 13, 21)]
    assert est.sequence == approx((logs[0], logs[1] / 2, logs[2] / 3, logs[3] / 4))
    assert est.diffs == approx((math.log(8 / 5), math.log(13 / 8), math.log(21 / 13)))
    assert est.estimate == est.diffs[-1]


def test_bowen_converges_to_log_phi(g1):
    phi = (1 + math.sqrt(5)) / 2
    est = bowen_entropy_estimate(g1, 1, Shape.of(1), 30)
    assert est.estimate == approx(math.log(phi), abs=1e-5)


def test_bowen_json_shape(g2):
    est = bowen_entropy_estimate(g2, 1, Shape.of(1), 3)
    assert len(est.sequence) == 3 and len(est.diffs) == 2
    assert est.estimate == approx(math.log(2))


@pytest.mark.parametrize("digits", [1, 8, 12])
def test_bowen_series_bit_identical_to_per_stage(g1, g3, digits):
    # max_exact_digits=1 puts every stage on the float route (M^p itself is
    # over the guard there); 8 and 12 switch routes inside the series
    budget = Budget(max_exact_digits=digits)
    t3 = tensor_product(g3, g1)
    for fam, k, p, n_max in ((g1, 1, Shape.of(1), 40),
                             (g3, 1, Shape.of(1, 1), 12),
                             (g3, 2, Shape.of(2, 0), 12),
                             (t3, 1, Shape.of(1, 1, 1), 6)):
        cube = Shape.cube(k, fam.rank)
        stages = [log_word_count(fam, cube + p.scaled(n), budget)
                  for n in range(1, n_max + 1)]
        assert log_word_count_series(fam, cube, p, n_max, budget) == stages
        routes = {exact for _, exact in stages}
        assert routes == ({False} if digits == 1 else {True, False})
        logs = [value for value, _ in stages]
        est = bowen_entropy_estimate(fam, k, p, n_max, budget)
        assert est.sequence == tuple(logs[n - 1] / n for n in range(1, n_max + 1))
        assert est.diffs == tuple(logs[n] - logs[n - 1] for n in range(1, n_max))


@st.composite
def series_cases(draw):
    """(family, k, p, n_max, digits): a generated valid family of rank 2,
    a valid rank-3 family of one or two letters, or a rank-2 one tensored
    with a base family; a step of coordinates 0..2, some of them zero; the
    cube radius k at least the largest step coordinate."""
    family = draw(st.one_of(
        valid_families(),
        st.sampled_from(SMALL_VALID[3]),
        st.builds(tensor_product, valid_families(), st.sampled_from(BASES))))
    coords = draw(st.lists(st.integers(0, 2), min_size=family.rank,
                           max_size=family.rank).filter(any))
    k = draw(st.integers(max(coords), 2))
    n_max = draw(st.integers(2, 12))
    digits = draw(st.sampled_from((1, 4, 8, 12, 1_000_000)))
    return family, k, Shape(tuple(coords)), n_max, digits


@PROPERTY
@given(series_cases())
@example((tensor_product(BASES[0], BASES[0]), 1, Shape.of(1, 0), 12, 8))
@example((tensor_product(tensor_product(BASES[0], BASES[0]), BASES[0]), 1,
          Shape.of(0, 1, 1), 6, 12))
def test_bowen_series_bit_identical_on_generated_families(case):
    family, k, p, n_max, digits = case
    budget = Budget(max_exact_digits=digits)
    cube = Shape.cube(k, family.rank)
    stages = [log_word_count(family, cube + p.scaled(n), budget)
              for n in range(1, n_max + 1)]
    assert log_word_count_series(family, cube, p, n_max, budget) == stages
    logs = [value for value, _ in stages]
    est = bowen_entropy_estimate(family, k, p, n_max, budget)
    assert est.sequence == tuple(logs[n - 1] / n for n in range(1, n_max + 1))


def test_series_builds_successor_lists_once_per_family(monkeypatch):
    # each successor list is built by one mask_bits call, once per row of
    # each matrix of the family, however many series read them
    calls = []
    real = matrices.mask_bits

    def counted(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(matrices, "mask_bits", counted)
    family = families.tensor_golden()
    for n_max in (10, 200):
        bowen_entropy_estimate(family, 1, Shape.of(1, 1), n_max)
    assert len(calls) == family.rank * family.dim


def test_bowen_needs_two_terms(g1):
    with pytest.raises(ValueError):
        bowen_entropy_estimate(g1, 1, Shape.of(1), 1)


# -- Lattice action probe ---------------------------------------------------------

def test_action_probe_values(g3, g4):
    assert action_entropy_estimate(g3, 1, 2) == approx(math.log(64) / 4)
    assert action_entropy_estimate(g4, 1, 3) == approx(math.log(3) / 9)


def test_action_probe_decays(g3):
    assert action_entropy_estimate(g3, 1, 10) < action_entropy_estimate(g3, 1, 2)


def test_action_probe_guards(g1, g3):
    with pytest.raises(RankOneError):
        action_entropy_estimate(g1, 1, 3)
    with pytest.raises(ValueError):
        action_entropy_estimate(g3, 1, 0)
