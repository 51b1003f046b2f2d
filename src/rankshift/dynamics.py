"""Shift dynamics at finite scale: the cube metric, separated sets, and
entropy estimates along a step direction and along the full action.

The distance between two configurations is 1/(j+1) where j is the smallest
cube radius at which they disagree.  Finite words only expose the cubes
their boxes contain, so the metric on words is partial: it returns None
when the words agree on every cube available but at least one of them
extends beyond its largest cube.
"""

from typing import NamedTuple

from .errors import (
    RankOneError,
    ScaleTooFineError,
    ShapeMismatchError,
    ZeroDirectionError,
)
from .matrices import (
    log_word_count,
    log_word_count_series,
    require_rank,
    require_valid,
    word_count,
)
from .shapes import Shape
from .words import check_enum_budget, enumerate_words, restrict_prefix, restrict_tail


def metric(u, v):
    """Cube metric on words, or None when the words do not decide it."""
    if u.shape.rank != v.shape.rank:
        raise ShapeMismatchError("rank mismatch between words")
    rank = u.shape.rank
    kmax = min(u.shape.min_coord, v.shape.min_coord)
    for k in range(kmax + 1):
        for pt in Shape.cube(k, rank).box():
            if max(pt) == k and u.label_at(pt) != v.label_at(pt):
                from fractions import Fraction  # loads decimal: only here
                return Fraction(1, k + 1)
    if u == v and u.shape == Shape.cube(kmax, rank):
        from fractions import Fraction
        return Fraction(0)
    return None


def shift_truncation(word, offset, k):
    """Cube-k prefix of the word shifted by ``offset``."""
    tail = restrict_tail(word, offset)
    return restrict_prefix(tail, Shape.cube(k, word.shape.rank))


def separation_threshold(k):
    """Two words are resolved at scale k when their distance exceeds this."""
    from fractions import Fraction
    return Fraction(1, k + 2)


def check_scale(k, p):
    if p.is_zero:
        raise ZeroDirectionError("step direction must be nonzero")
    if k < max(p):
        raise ScaleTooFineError(
            "cube radius must dominate every step coordinate",
            k=k, step=list(p))


def separated_count(family, k, p, n, mode="formula", budget=None):
    """Size of a maximal set of words of shape k*e + n*p that are pairwise
    resolved at scale k along the first n shifts by p.

    mode="formula" counts words of that shape directly; mode="bruteforce"
    enumerates them and grows a separated set greedily.  The two agree
    because distinct words of the shape already differ inside some shifted
    cube once k dominates p.
    """
    require_valid(family)
    require_rank(family, p)
    check_scale(k, p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    shape = Shape.cube(k, family.rank) + p.scaled(n)
    if mode == "formula":
        return word_count(family, shape, budget)
    if mode != "bruteforce":
        raise ValueError(f"unknown mode {mode!r}")
    check_enum_budget(family, shape, budget)
    eps = separation_threshold(k)
    offsets = [p.scaled(l) for l in range(n + 1)]

    def resolved(a, b):
        for off in offsets:
            d = metric(restrict_tail(a, off), restrict_tail(b, off))
            if d is not None and d > eps:
                return True
        return False

    reps = []
    for w in enumerate_words(family, shape):
        if all(resolved(w, r) for r in reps):
            reps.append(w)
    return len(reps)


# -- Entropy along a direction --------------------------------------------------

class Series(NamedTuple):
    """A log-growth series: sequence[n-1] = logs[n-1] / n for n = 1..n_max,
    and diffs the successive log increments, whose last entry is the
    estimate (the increments converge faster than the averages).  The
    Bowen entropy and the pressure estimates both return one."""
    sequence: tuple
    diffs: tuple

    @classmethod
    def of_logs(cls, logs):
        return cls(tuple(x / n for n, x in enumerate(logs, 1)),
                   tuple(b - a for a, b in zip(logs, logs[1:])))

    @property
    def estimate(self):
        return self.diffs[-1]


def bowen_entropy_estimate(family, k, p, n_max, budget=None):
    """Scaled log growth of separated sets along the p-shift: the Series
    of the log counts at n = 1..n_max.

    One pass yields every stage: the exact stages carry one count vector
    M^l e (log_word_count_series), stepped by p from stage to stage, so
    the exact work is p.total vector steps per stage; no matrix product
    is formed, and no Shape is built per stage (the digit guard reads the
    stage's total).
    """
    require_valid(family)
    require_rank(family, p)
    check_scale(k, p)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    series = log_word_count_series(family, Shape.cube(k, family.rank), p,
                                   n_max, budget)
    return Series.of_logs([value for value, _ in series])


def action_entropy_estimate(family, k, n, budget=None):
    """log(count on the cube of radius k+n) / n^r, a vanishing-rate probe
    for the full lattice action.  Needs rank at least 2."""
    require_valid(family)
    if family.rank < 2:
        raise RankOneError(
            "action entropy scaling needs rank at least 2", rank=family.rank)
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    shape = Shape.cube(k + n, family.rank)
    value, _ = log_word_count(family, shape, budget)
    return value / float(n) ** family.rank
