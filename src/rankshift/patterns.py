"""Matrix-unit patterns behind the shifted generator products.

Compressing a shifted product of two generating isometries to the span of
shape-m cylinders produces, for each pad/overflow pair (kappa, lambda), a
sparse 0-1 matrix over the words of shape m with cells

    row = nu.u.gamma        col = prefix_m(nu.w.gamma.kappa)

where nu runs over shape-p words feeding both u and w, gamma over the
shape m - p - sigma(u) words fed by both, kappa pads the column string to
shape m + n - sigma(u) with n = sup(sigma(u), sigma(w)), and lambda is the
part of the padded string that overflows the box [0, m].  Compositions
with mismatched endpoint letters contribute nothing.  The claim under test
is that every such pattern is a partial isometry: at most one cell per row
and per column.

The (kappa, lambda) grid is kept in full, including pairs whose endpoint
letters rule every cell out, so the report matches the summation range of
the decomposition.
"""

import functools
from collections import namedtuple
from typing import NamedTuple

from .errors import ShapeTooSmallError
from .matrices import require_rank, require_valid
from .shapes import Shape
from .words import (
    Word,
    _compose,
    _dfs_leaves,
    _enumerate_words,
    check_enum_budget,
    compose_plan,
    dfs_plan,
    require_extension,
    require_tail,
    restrict_prefix,
    restrict_tail,
    word_to_dict,
)


class PatternMatrix:
    """Sparse 0-1 matrix over the shape-m words.  ``index`` fixes the
    row/column order, ``cells`` holds the (row-word, col-word) pairs
    carrying a 1.  Immutable, equal and hashed by both fields; not a
    tuple, whose ``index`` method the field would shadow."""
    __slots__ = ("index", "cells")

    def __init__(self, index, cells):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index, self.cells) == (other.index, other.cells)

    def __hash__(self):
        return hash((self.index, self.cells))

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return PatternMatrix, (self.index, self.cells)

    def __repr__(self):
        return f"PatternMatrix(index={self.index!r}, cells={self.cells!r})"

    def to_json(self):
        order = {w: i for i, w in enumerate(self.index)}
        placed = sorted((order[r], order[c]) for r, c in self.cells)
        return {"dimension": len(self.index), "cells": [list(rc) for rc in placed]}


def _first_collision(pattern):
    """(first, second): the first cell, in label order, whose row or column
    an earlier cell already holds, and that earlier cell.  A row already
    seen wins over a column already seen.  None for a partial isometry."""
    by_row = {}
    by_col = {}
    for cell in sorted(pattern.cells, key=lambda rc: (rc[0].labels, rc[1].labels)):
        row, col = cell[0].labels, cell[1].labels
        first = by_row.get(row) or by_col.get(col)
        if first is not None:
            return first, cell
        by_row[row] = by_col[col] = cell
    return None


def check_partial_isometry(pattern):
    """True when no row and no column holds two cells; for 0-1 matrices
    this is the partial isometry identity T T*T = T."""
    return _first_collision(pattern) is None


# What the builds of all generator pairs of two shapes share, and the
# stats of the all-empty grid among them, in (kappa, lambda) label order.
PairPlan = namedtuple("PairPlan", "n m ext gamma index stats")


class SweepTables:
    """Word tables and index plans shared by the pattern builds of one sweep.

    What a build enumerates, composes and checks depends on the family,
    shapes, endpoint letters and words, not on the generator pair itself,
    so a sweep over many pairs needs each entry once.  Each table is a
    functools.cache over the family: words by (shape, origin),
    compositions by factor pair, the split extensions of a base word by
    (base, extension shape, compression shape), and the PairPlan, shape
    and budget checks done, by (sigma(u), sigma(w), p, m, budget), with
    an omitted m or budget keyed as None.

    The tables read the box geometry from three plan caches, keyed by
    shapes alone: ``dfs_plan`` by shape (words.dfs_plan), ``compose_plan``
    by factor shapes (words.compose_plan) and ``split_plan`` by (base
    shape, extension shape, compression shape) (SplitPlan).  A g3 sweep at
    max-shape (1, 0) makes 52 enumerations over 5 shapes and 51
    compositions over 4 shape pairs.  The plans live only as long as the
    tables: one-shot callers build theirs per call and keep none.  No
    cache refers to the tables, so they die with the sweep's last
    reference, without a GC pass.
    """

    def __init__(self, family):
        self.family = family
        self.dfs_plan = dfs = functools.cache(functools.partial(dfs_plan, family))
        self.compose_plan = composes = functools.cache(compose_plan)
        self.split_plan = splits = functools.cache(
            functools.partial(_split_plan, family, dfs))
        self.words = functools.cache(lambda shape, origin=None: tuple(
            _enumerate_words(family, shape, origin, dfs)))
        self.compose = functools.cache(
            lambda u, v: _compose(family, u, v, composes))
        self.split_extensions = functools.cache(
            lambda base, shape, m: _split_extensions(
                family, base, splits(base.shape, shape, m)))
        self._plans = functools.cache(functools.partial(_plan, family, self.words))

    def plan(self, u_shape, w_shape, p, m=None, budget=None):
        """The PairPlan at step p and shape m (p + n when None) >= p + n."""
        return self._plans(u_shape, w_shape, p, m, budget)


# The index geometry of _split_extensions for a (base shape, extension
# shape, compression shape m) triple: the DFS plan of the extension shape,
# the flat indices that hold the base, and a (shape, indices) restriction
# for each part, kappa the tail past the base, lam the tail past m and
# column the prefix of shape m.
SplitPlan = namedtuple("SplitPlan", "shape preds fixed kappa lam column")


def _split_plan(family, dfs, base_shape, shape, m):
    """The SplitPlan of a triple, after the domination guards that
    enumerate_extensions and restrict_tail apply to it; ``dfs`` gives the
    DFS plan of a shape."""
    require_extension(base_shape, shape)
    require_tail(shape, m)
    kappa, lam = shape - base_shape, shape - m
    return SplitPlan(shape, dfs(shape), tuple(shape.indices(base_shape)),
                     (kappa, tuple(shape.indices(kappa, base_shape))),
                     (lam, tuple(shape.indices(lam, m))),
                     (m, tuple(shape.indices(m))))


def _split_extensions(family, base, plan):
    """(kappa, lambda, column) for every extension of base to plan.shape:
    the tail past base, the tail past m and the prefix of shape m, read
    through the SplitPlan's index maps from the walk's labels, with no
    Word of the extension built."""
    (ks, kidx), (ls, lidx), (ms, cidx) = plan.kappa, plan.lam, plan.column
    split = []
    for labels in _dfs_leaves(family, plan.shape, dict(zip(plan.fixed, base.labels)),
                              plan.preds):
        get = labels.__getitem__
        split.append((Word(ks, tuple(map(get, kidx))), Word(ls, tuple(map(get, lidx))),
                      Word(ms, tuple(map(get, cidx)))))
    return tuple(split)


def _plan(family, words, u_shape, w_shape, p, m, budget):
    require_rank(family, p)
    n = u_shape.sup(w_shape)
    m = p + n if m is None else m
    require_rank(family, m)
    if not p + n <= m:
        raise ShapeTooSmallError(
            "compression shape must dominate step plus generator shapes",
            m=list(m), needed=list(p + n))
    ext = m + (n - u_shape)
    check_enum_budget(family, ext, budget)
    return PairPlan(n, m, ext, m - p - u_shape, words(m), tuple(
        (kappa, lam, 0, True)
        for kappa in words(n - w_shape) for lam in words(n - u_shape)))


def _guarded_plan(family, u, w, p, m, budget, tables):
    """The PairPlan of a build, after its guards: a valid family, tables of
    that family, and the plan's shape and budget checks."""
    require_valid(family)
    if tables.family != family:
        raise ValueError("sweep tables belong to a different family")
    return tables.plan(u.shape, w.shape, p, m, budget)


def build_shift_patterns(family, u, w, p, m, budget=None, tables=None):
    """Map (kappa, lambda) -> PatternMatrix for generators u, w, shift step
    p and compression shape m, in label order.  Needs m >= p +
    sup(sigma(u), sigma(w)).  ``tables`` shares word tables across the
    builds of one sweep; another family's tables are refused before use.
    Every key maps to one shared empty pattern until a live cell fills it."""
    tables = tables or SweepTables(family)
    plan = _guarded_plan(family, u, w, p, m, budget, tables)
    grid = dict.fromkeys([stat[:2] for stat in plan.stats],
                         PatternMatrix(plan.index, frozenset()))
    if u.origin == w.origin and u.terminal == w.terminal:
        live = {}
        gammas = tables.words(plan.gamma, origin=u.terminal)
        for nu in tables.words(p):
            if nu.terminal != u.origin:
                continue
            nu_u, nu_w = tables.compose(nu, u), tables.compose(nu, w)
            for gamma in gammas:
                row, base = tables.compose(nu_u, gamma), tables.compose(nu_w, gamma)
                for kappa, lam, col in tables.split_extensions(base, plan.ext, plan.m):
                    live.setdefault((kappa, lam), set()).add((row, col))
        for key, cells in live.items():
            grid[key] = PatternMatrix(plan.index, frozenset(cells))
    return grid


# -- Aggregate verification -----------------------------------------------------

class PatternFamilyReport(NamedTuple):
    """One generator pair's sweep: ``stats`` holds a (kappa, lambda, cells,
    partial_isometry) tuple per pattern, ``witnesses`` one dict per
    failure."""
    u: object
    w: object
    p: Shape
    m: Shape
    n: Shape
    stats: tuple
    witnesses: tuple

    @property
    def all_partial_isometries(self):
        return not self.witnesses

    def to_json(self):
        """JSON data of the report, as reports_to_json gives it."""
        return reports_to_json([self])[0]


def reports_to_json(reports):
    """JSON data of reports.  Equal Words, Shapes and stats share one object,
    and so do the pattern lists of the pairs without a live pattern, which
    share their plan's stats: the emitter encodes each at most twice per
    depth.  On a g3 sweep at max-shape (1, 0) the 1984 patterns are 80
    distinct dicts over 10 Words, in 18 distinct lists."""
    word_dict = functools.cache(word_to_dict)
    coords = functools.cache(list)

    @functools.cache
    def pattern_dict(stat):
        kappa, lam, cells, ok = stat
        return {"kappa": word_dict(kappa), "lambda": word_dict(lam),
                "cells": cells, "partial_isometry": ok}

    lists = {}  # id(stats) -> (stats, list): holding stats keeps the id its own

    def patterns(stats):
        if id(stats) not in lists:
            lists[id(stats)] = stats, list(map(pattern_dict, stats))
        return lists[id(stats)][1]

    return [{"u": word_dict(r.u), "w": word_dict(r.w), "p": coords(r.p),
             "m": coords(r.m), "n": coords(r.n), "patterns": patterns(r.stats),
             "all_partial_isometries": r.all_partial_isometries,
             "witnesses": list(r.witnesses)} for r in reports]


def _failure_witness(u, p, kappa, lam, pattern):
    """Two cells sharing a row or column, with the decomposition of the
    offending row recovered for the report."""
    first, (row, col) = _first_collision(pattern)
    return {
        "kappa": word_to_dict(kappa),
        "lambda": word_to_dict(lam),
        "nu": word_to_dict(restrict_prefix(row, p)),
        "gamma": word_to_dict(restrict_tail(row, p + u.shape)),
        "first": [word_to_dict(first[0]), word_to_dict(first[1])],
        "second": [word_to_dict(row), word_to_dict(col)],
    }


def examine_pair(family, u, w, p, m=None, budget=None, tables=None):
    """Build all patterns for one generator pair and check each one, in
    (kappa, lambda) label order; with no live pattern, the plan's stats.
    A pair whose endpoint letters rule out every cell passes the guards of
    a build and takes the plan's stats, with no grid built."""
    tables = tables or SweepTables(family)
    plan = _guarded_plan(family, u, w, p, m, budget, tables)
    if u.origin != w.origin or u.terminal != w.terminal:
        return PatternFamilyReport(u, w, p, plan.m, plan.n, plan.stats, ())
    grid = build_shift_patterns(family, u, w, p, m, budget, tables)
    stats, witnesses = plan.stats, []
    for i, ((kappa, lam), pattern) in enumerate(grid.items()):
        if pattern.cells:
            if stats is plan.stats:
                stats = list(stats)
            ok = check_partial_isometry(pattern)
            stats[i] = (kappa, lam, len(pattern.cells), ok)
            if not ok:
                witnesses.append(_failure_witness(u, p, kappa, lam, pattern))
    return PatternFamilyReport(u, w, p, plan.m, plan.n, tuple(stats), tuple(witnesses))


def verify_partial_isometries(family, p, max_gen_shape, m=None, budget=None):
    """Run examine_pair over every generator pair (u, w) with shapes
    dominated by max_gen_shape.  Returns the reports in grid order.  The
    pairs share one set of word tables, built for this call only."""
    require_valid(family)
    require_rank(family, max_gen_shape)
    tables = SweepTables(family)
    gens = []
    for pt in max_gen_shape.box():
        gens.extend(tables.words(Shape(pt)))
    return [examine_pair(family, u, w, p, m, budget, tables)
            for u in gens for w in gens]
