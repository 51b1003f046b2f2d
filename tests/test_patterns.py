"""Matrix-unit patterns and their partial-isometry check.

Core claims:
    - the full-shift letter pair gives the frozen diagonal grid
    - endpoint mismatches empty every pattern but keep the grid shape
    - every pattern over the sample families is a partial isometry
    - rows decompose as prefix.u.tail, and the padded columns make the
      per-kappa row sets and per-lambda column sets pairwise disjoint
    - fabricated double cells are caught and reported with a usable witness
    - a sweep's shared word tables change no report, and none outlives
      the sweep: the tables die with their last reference, without a GC
      pass; its JSON data holds one dict per distinct Word and one per
      distinct pattern
    - the pairs of one shape pair without a live pattern share the plan's
      stats; tables of another family are refused before any lookup
    - a pair whose endpoint letters rule out every cell reports the full
      grid's stats without a build, after the build's guards
"""

import gc
import weakref

import pytest

from rankshift import families, patterns, words
from rankshift.errors import ShapeTooSmallError
from rankshift.matrices import word_count
from rankshift.patterns import (
    PatternMatrix,
    SweepTables,
    _failure_witness,
    build_shift_patterns,
    check_partial_isometry,
    examine_pair,
    reports_to_json,
    verify_partial_isometries,
)
from rankshift.shapes import Shape
from rankshift.words import enumerate_words, make_word, restrict_prefix, restrict_tail


def _letter(family, name):
    return make_word(family, Shape.zero(family.rank), (family.alphabet.index(name),))


# -- Frozen small grids ------------------------------------------------------------

def test_full_shift_letter_pair_frozen(g2):
    u = _letter(g2, "0")
    pats = build_shift_patterns(g2, u, u, Shape.of(1), Shape.of(2))
    assert len(pats) == 4
    assert sorted(len(p.cells) for p in pats.values()) == [0, 0, 2, 2]
    for (kappa, lam), pat in pats.items():
        assert len(pat.index) == word_count(g2, Shape.of(2)) == 8
        if kappa == lam:
            rows = sorted(r.labels for r, _ in pat.cells)
            c = kappa.labels[0]
            assert rows == [(0, 0, c), (1, 0, c)]
            assert all(r == col for r, col in pat.cells)
        else:
            assert not pat.cells


def test_pattern_json_frozen(g2):
    u = _letter(g2, "0")
    pats = build_shift_patterns(g2, u, u, Shape.of(1), Shape.of(2))
    kappa0 = _letter(g2, "0")
    data = pats[(kappa0, kappa0)].to_json()
    assert data == {"dimension": 8, "cells": [[0, 0], [4, 4]]}


def test_origin_mismatch_empties_grid(g2):
    pats = build_shift_patterns(g2, _letter(g2, "0"), _letter(g2, "1"),
                                Shape.of(1), Shape.of(2))
    assert len(pats) == 4
    assert all(not p.cells for p in pats.values())


def test_terminal_mismatch_empties_grid(g1, line_word):
    u = line_word(g1, 0, 1)  # ends at 1
    w = _letter(g1, "0")     # ends at 0
    report = examine_pair(g1, u, w, Shape.of(1))
    assert report.m == Shape.of(2) and report.n == Shape.of(1)
    assert len(report.stats) == 6  # 3 kappa words, 2 lambda words
    assert all(cells == 0 for _, _, cells, _ in report.stats)
    assert report.all_partial_isometries


def test_unequal_generator_shapes(g2, line_word):
    # w longer than u: the column string overflows the box and lambda
    # carries the overflow, pairing each kappa with exactly one lambda
    u = _letter(g2, "0")
    w = line_word(g2, 0, 0)
    pats = build_shift_patterns(g2, u, w, Shape.of(1), Shape.of(2))
    assert len(pats) == 8  # 2 kappa letters, 4 lambda words of shape (1,)
    live = {kl: p for kl, p in pats.items() if p.cells}
    assert len(live) == 2
    for (kappa, lam), pat in live.items():
        assert lam.labels == (0, kappa.labels[0])
        assert len(pat.cells) == 2
        assert check_partial_isometry(pat)


# -- Structural invariants ---------------------------------------------------------

def _all_cases(g1, g2, g3):
    line = lambda fam, *ls: make_word(fam, Shape.of(len(ls) - 1), ls)
    cases = [
        (g1, line(g1, 0, 1), line(g1, 0, 1), Shape.of(1), None),
        (g1, _letter(g1, "0"), line(g1, 0, 0), Shape.of(1), None),
        (g2, _letter(g2, "0"), _letter(g2, "0"), Shape.of(1), Shape.of(3)),
        (g3, make_word(g3, Shape.of(1, 0), (0, 0)),
         make_word(g3, Shape.of(0, 1), (0, 0)), Shape.of(1, 1), None),
    ]
    return cases


def test_all_sample_patterns_are_partial_isometries(g1, g2, g3):
    for fam, u, w, p, m in _all_cases(g1, g2, g3):
        report = examine_pair(fam, u, w, p, m)
        assert report.all_partial_isometries, (u, w)
        assert not report.witnesses


def test_rows_decompose_through_u(g1, g2, g3):
    for fam, u, w, p, m in _all_cases(g1, g2, g3):
        m = m if m is not None else p + u.shape.sup(w.shape)
        pats = build_shift_patterns(fam, u, w, p, m)
        seen = 0
        for pat in pats.values():
            for row, _ in pat.cells:
                mid = restrict_tail(restrict_prefix(row, p + u.shape), p)
                assert mid == u
                seen += 1
        assert seen > 0 or u.origin != w.origin or u.terminal != w.terminal


def test_disjoint_supports_per_pad(g1, g2, g3):
    # fixed lambda: different kappa never share a column; fixed kappa:
    # different lambda never share a row
    for fam, u, w, p, m in _all_cases(g1, g2, g3):
        m = m if m is not None else p + u.shape.sup(w.shape)
        pats = build_shift_patterns(fam, u, w, p, m)
        kappas = sorted({k for k, _ in pats}, key=lambda x: x.labels)
        lams = sorted({l for _, l in pats}, key=lambda x: x.labels)
        for lam in lams:
            taken = set()
            for kappa in kappas:
                cols = {c for _, c in pats[(kappa, lam)].cells}
                assert not (cols & taken)
                taken |= cols
        for kappa in kappas:
            taken = set()
            for lam in lams:
                rows = {r for r, _ in pats[(kappa, lam)].cells}
                assert not (rows & taken)
                taken |= rows


def test_shape_too_small(g1, line_word):
    u = line_word(g1, 0, 1)
    with pytest.raises(ShapeTooSmallError):
        build_shift_patterns(g1, u, u, Shape.of(1), Shape.of(1))


# -- Detection of broken patterns ---------------------------------------------

def test_check_partial_isometry_negatives(g2):
    words = list(enumerate_words(g2, Shape.of(1)))
    idx = tuple(words)
    assert check_partial_isometry(PatternMatrix(idx, frozenset()))
    good = PatternMatrix(idx, frozenset({(words[0], words[1]),
                                         (words[1], words[0])}))
    assert check_partial_isometry(good)
    two_in_row = PatternMatrix(idx, frozenset({(words[0], words[1]),
                                               (words[0], words[2])}))
    assert not check_partial_isometry(two_in_row)
    two_in_col = PatternMatrix(idx, frozenset({(words[1], words[0]),
                                               (words[2], words[0])}))
    assert not check_partial_isometry(two_in_col)


def test_failure_witness_recovers_decomposition(g2):
    u = _letter(g2, "0")
    rows = list(enumerate_words(g2, Shape.of(2)))
    idx = tuple(rows)
    bad = PatternMatrix(idx, frozenset({(rows[0], rows[1]),
                                        (rows[0], rows[2])}))
    witness = _failure_witness(u, Shape.of(1), rows[0], rows[0], bad)
    assert set(witness) == {"kappa", "lambda", "nu", "gamma", "first", "second"}
    assert witness["nu"] == {"shape": [1], "labels": [0, 0]}
    assert witness["gamma"] == {"shape": [1], "labels": [0, 0]}


def test_failure_witness_column_collision_and_tie_break(g2):
    # cells are scanned in label order: (1, 0) then (2, 0), whose row is
    # new but whose column is already held
    u = _letter(g2, "0")
    w = list(enumerate_words(g2, Shape.of(2)))
    dicts = [words.word_to_dict(x) for x in w]
    by_col = PatternMatrix(tuple(w), frozenset({(w[1], w[0]), (w[2], w[0])}))
    witness = _failure_witness(u, Shape.of(1), w[0], w[0], by_col)
    assert witness["first"] == [dicts[1], dicts[0]]
    assert witness["second"] == [dicts[2], dicts[0]]
    # (1, 1) repeats the row of (1, 0) and the column of (0, 1): the row wins
    both = PatternMatrix(tuple(w), frozenset({(w[0], w[1]), (w[1], w[0]),
                                              (w[1], w[1])}))
    witness = _failure_witness(u, Shape.of(1), w[0], w[0], both)
    assert witness["first"] == [dicts[1], dicts[0]]
    assert witness["second"] == [dicts[1], dicts[1]]


# -- Aggregate sweep ---------------------------------------------------------------

def test_verify_sweep_full_shift(g2):
    reports = verify_partial_isometries(g2, Shape.of(1), Shape.of(1))
    assert len(reports) == 36  # 6 generators, ordered pairs
    assert all(r.all_partial_isometries for r in reports)


def test_verify_sweep_golden(g1):
    reports = verify_partial_isometries(g1, Shape.of(1), Shape.of(1))
    assert len(reports) == 25  # 2 letters + 3 edges
    assert all(r.all_partial_isometries for r in reports)


def _unshared_sweep(family, p, max_gen_shape, m=None):
    gens = [w for pt in max_gen_shape.box()
            for w in enumerate_words(family, Shape(pt))]
    return [examine_pair(family, u, w, p, m).to_json()
            for u in gens for w in gens]


@pytest.mark.parametrize("case", ["g1", "g2", "g2-m3", "g3", "t3"])
def test_shared_tables_change_no_report(g1, g2, g3, case):
    t3 = families.tensor_product(g3, g1)
    family, p, max_gen, m = {
        "g1": (g1, Shape.of(1), Shape.of(1), None),
        "g2": (g2, Shape.of(1), Shape.of(1), None),
        "g2-m3": (g2, Shape.of(1), Shape.of(1), Shape.of(3)),
        "g3": (g3, Shape.of(1, 1), Shape.of(1, 0), None),
        "t3": (t3, Shape.of(1, 0, 1), Shape.of(0, 0, 0), None),
    }[case]
    shared = verify_partial_isometries(family, p, max_gen, m=m)
    unshared = _unshared_sweep(family, p, max_gen, m)
    assert [r.to_json() for r in shared] == unshared
    data = reports_to_json(shared)
    assert data == unshared
    # one dict per distinct Word, the same object wherever the Word appears
    dicts = {}
    for report in data:
        for d in [report["u"], report["w"]] + [
                pat[key] for pat in report["patterns"] for key in ("kappa", "lambda")]:
            assert dicts.setdefault((tuple(d["shape"]), tuple(d["labels"])), d) is d
    # and one dict per distinct stat tuple, shared across the reports
    pattern_dicts = {}
    for report, shared_report in zip(data, shared):
        for pat, (kappa, lam, cells, ok) in zip(report["patterns"], shared_report.stats):
            assert pattern_dicts.setdefault((kappa, lam, cells, ok), pat) is pat


def test_no_table_outlives_a_sweep(g3, monkeypatch):
    runs = []
    original = words._dfs_words

    def counting(*args):
        runs.append(args[1])
        return original(*args)

    monkeypatch.setattr(words, "_dfs_words", counting)
    verify_partial_isometries(g3, Shape.of(1, 1), Shape.of(1, 0))
    first = len(runs)
    verify_partial_isometries(g3, Shape.of(1, 1), Shape.of(1, 0))
    assert first > 0
    assert len(runs) == 2 * first


def test_tables_refuse_another_family(g1, g2):
    u = _letter(g2, "0")
    with pytest.raises(ValueError):
        build_shift_patterns(g2, u, u, Shape.of(1), Shape.of(2),
                             tables=SweepTables(g1))


def _untouchable_tables(family):
    """Tables of family on which any lookup fails the test."""
    tables = SweepTables(family)

    def used(*args):
        raise AssertionError("the tables were used")

    for name in ("words", "compose", "split_extensions", "plan"):
        setattr(tables, name, used)
    return tables


@pytest.mark.parametrize("build", [examine_pair, build_shift_patterns])
def test_another_familys_tables_are_refused_before_use(g1, g2, build):
    u = _letter(g2, "0")
    with pytest.raises(ValueError, match="different family"):
        build(g2, u, u, Shape.of(1), Shape.of(2),
              tables=_untouchable_tables(g1))


def test_pairs_without_live_patterns_share_their_plan(g3):
    tables = SweepTables(g3)
    p = Shape.of(1, 1)
    gens = tables.words(Shape.of(1, 0))
    reports = [examine_pair(g3, u, w, p, tables=tables)
               for u in gens for w in gens]
    empty = [r for r in reports if not any(stat[2] for stat in r.stats)]
    assert 1 < len(empty) < len(reports)
    assert {id(r.stats) for r in empty} == {
        id(tables.plan(gens[0].shape, gens[0].shape, p).stats)}


def test_dead_pairs_skip_the_build_not_its_guards(g3, monkeypatch):
    # endpoint letters that rule out every cell: the report is the full
    # grid's, with no grid built, and the shape guard still refuses
    tables = SweepTables(g3)
    p = Shape.of(1, 1)
    gens = tables.words(Shape.of(1, 0))
    build = patterns.build_shift_patterns
    built = []
    monkeypatch.setattr(patterns, "build_shift_patterns",
                        lambda *args: built.append(args[1:3]) or build(*args))
    dead = []
    for u in gens:
        for w in gens:
            report = examine_pair(g3, u, w, p, tables=tables)
            grid = build(g3, u, w, p, None, tables=tables)
            assert report.stats == tuple(
                (kappa, lam, len(pat.cells), check_partial_isometry(pat))
                for (kappa, lam), pat in grid.items())
            if u.origin != w.origin or u.terminal != w.terminal:
                dead.append((u, w))
    assert 0 < len(dead) < len(gens) ** 2
    assert not set(dead) & set(built)
    assert len(built) == len(gens) ** 2 - len(dead)
    u, w = dead[0]
    with pytest.raises(ShapeTooSmallError):
        examine_pair(g3, u, w, p, Shape.of(1, 1), tables=tables)


def test_tables_die_with_their_last_reference(g3):
    # no table holds the tables themselves, so they need no GC pass
    gc.disable()
    try:
        tables = SweepTables(g3)
        gens = tables.words(Shape.of(1, 0))
        reports = [examine_pair(g3, u, w, Shape.of(1, 1), tables=tables)
                   for u in gens for w in gens]
        ref = weakref.ref(tables)
        del tables
        assert ref() is None
    finally:
        gc.enable()
    assert any(stat[2] for r in reports for stat in r.stats)


def test_plans_die_with_their_sweep(g3):
    # the plan caches hang off the tables alone: the sweep's last reference
    # takes them along, without a GC pass, and the one-shot plan builders
    # keep no cache of their own
    assert not hasattr(words.dfs_plan, "cache_info")
    assert not hasattr(words.compose_plan, "cache_info")
    gc.disable()
    try:
        # the pairs of verify_partial_isometries at max-shape (1, 0): 52
        # enumerations over 5 shapes, 51 compositions over 4 shape pairs
        tables = SweepTables(g3)
        gens = tables.words(Shape.of(0, 0)) + tables.words(Shape.of(1, 0))
        for u in gens:
            for w in gens:
                examine_pair(g3, u, w, Shape.of(1, 1), tables=tables)
        caches = (tables.dfs_plan, tables.compose_plan, tables.split_plan)
        assert [c.cache_info().currsize for c in caches] == [5, 4, 4]
        refs = [weakref.ref(x) for x in (tables, *caches)]
        del tables, caches
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()

