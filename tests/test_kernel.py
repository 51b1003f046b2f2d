"""The successor-mask kernel of the 0-1 layer, against dense references.

Core claims, over letter-permuted tensor products of g1/g2/g4 and
random-search survivors at alphabet size 3:
    - validate_family gives the reports (codes and witnesses) of a dense
      reference built from exact matrix products and list scans, also on
      arbitrary, mostly invalid, families of up to 5 letters with entries
      of other values and types, on families that fail C1/C2 only in a
      later row, and on letter-permuted rank-4 tensor products, which
      reach C3's completion tables (those of families/cube_fail.json
      fail it); a completion table written twice or missing a read key is
      refused, and each table holds exactly the completions that a dense
      scan of the matrices finds (g1^6: 4320 in 30 tables)
    - word_count equals the entry sum of the exact power product, and
      origin_counts (also the value of check_enum_budget) its row sums;
      above 8 dim^2 unit steps origin_counts takes those row sums
    - a words run and each count-check shape compute M^l e once
    - enumeration yields word_count words, in lexicographic label order
    - box(l) is a prefix box of box(m) exactly when its points are the
      first l.volume flat indices of box(m); one backtracking over box(m)
      tallies the word count of each prefix box, also where a dead corner
      stops a partial labeling, and cuts its words in lexicographic
      order; count-check and the enumerate stages run one backtracking
      per group of prefix boxes, and the enumerate stages still fail in
      stage order
    - split then compose is the identity on words, and compose then split
      gives back the factors, also on rank-3 and rank-4 families; compose
      fills each point outside both factor boxes exactly once, by one read
      of the family's completion tables, which a family builds once
    - the box-index kernel Shape.indices and the strides, the prefix and
      tail restrictions and the first forbidden edge equal their
      point-by-point definitions,
      the edge in the order of a row-major scan that make_word names
    - build_shift_patterns gives the keys, index and cells of a dense
      reference that decomposes every word of the extension shape, and
      the collision scan finds the witnesses of a Word-keyed scan
    - the index Birkhoff sum equals the restrict_tail formula, word by word
    - the enumerate and transfer partition sums agree within 1e-12
    - log_spectral_radius, which replays the squaring orbit once it
      repeats, equals the full 64-squaring loop bit for bit on int,
      big-int and float matrices and on power products, and skips the
      replayed squarings; where the reference's iterate underflows it
      gives -inf exactly for nilpotent matrices and RadiusUnderflow else
plus the coded errors around the kernel: unknown letters, an empty
square completion, the oracle above exp's range, the oracle's weights
underflowing on every cycle, an enumerated Birkhoff sum beyond float
range (below it, the word weighs nothing) and a non-finite CSV config
line.
"""

import functools
import json
import math
import subprocess
import sys
from itertools import islice, permutations, product
from math import fsum
from pathlib import Path

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st)
from pytest import approx

from rankshift import families, matrices, pressure, words
from rankshift.budget import Budget
from rankshift.cli import main
from rankshift.errors import (
    NoFillingError,
    NonFiniteResultError,
    RadiusUnderflowError,
    UnknownLetterError,
)
from rankshift.gapsearch import exhaustive_search, random_search
from rankshift.jsonout import round12
from rankshift.patterns import (
    PatternMatrix, SweepTables, _first_collision, build_shift_patterns,
    examine_pair)
from rankshift.matrices import (
    Alphabet,
    MatrixFamily,
    Violation,
    _float_mul,
    log_spectral_radius,
    matrix_mul,
    matrix_power_product,
    origin_counts,
    validate_family,
    word_count,
)
from rankshift.pressure import (
    Potential,
    _transfer_parts,
    birkhoff_sum_on_cylinder,
    partition_function_log,
    pressure_estimate,
    pressure_oracle_vertex,
    vertex_potential,
)
from rankshift.shapes import Shape
from rankshift.words import (
    Word, _fill, check_enum_budget, compose, compose_plan, dfs_plan,
    enumerate_extensions, enumerate_words, make_word, restrict_prefix,
    restrict_tail)

FAMILIES = Path(__file__).resolve().parent.parent / "families"


# -- Dense reference validation -------------------------------------------------

def _dense_validate(family):
    """Validation by exact matrix products and list scans: the stages,
    codes and witnesses of validate_family, computed without bitmasks."""
    violations = []
    dim = len(family.alphabet)
    if family.rank < 1 or len(family.matrices) != family.rank:
        violations.append(Violation("ShapeMismatch", (
            ("rank", family.rank), ("matrices", len(family.matrices)))))
    for i, m in enumerate(family.matrices, start=1):
        if len(m) != dim or any(len(row) != dim for row in m):
            violations.append(Violation("ShapeMismatch", (
                ("i", i), ("rows", len(m)), ("dim", dim))))
            continue
        bad = next(((a, b) for a in range(dim) for b in range(dim)
                    if not isinstance(m[a][b], int) or m[a][b] not in (0, 1)),
                   None)
        if bad is not None:
            a, b = bad
            violations.append(Violation("NonBinaryEntry", (
                ("i", i), ("row", a), ("col", b), ("value", m[a][b]))))
    if violations:
        return tuple(violations)
    for i, m in enumerate(family.matrices, start=1):
        if all(all(x == 0 for x in row) for row in m):
            violations.append(Violation("ZeroMatrix", (("i", i),)))
            continue
        for a, row in enumerate(m):
            if all(x == 0 for x in row):
                violations.append(Violation("NoSources", (("i", i), ("row", a))))
    if violations:
        return tuple(violations)
    for i in range(family.rank):
        for j in range(i + 1, family.rank):
            p = matrix_mul(family.matrices[i], family.matrices[j])
            q = matrix_mul(family.matrices[j], family.matrices[i])
            cell = next(((a, b) for a in range(dim) for b in range(dim)
                         if p[a][b] != q[a][b] or p[a][b] > 1), None)
            if cell is not None:
                a, b = cell
                violations.append(Violation("UniqueFactorizationViolation", (
                    ("i", i + 1), ("j", j + 1), ("row", a), ("col", b),
                    ("count", p[a][b]))))
    if violations:
        return tuple(violations)
    if family.rank >= 3:
        for i, j, k in product(range(family.rank), repeat=3):
            if len({i, j, k}) == 3:
                v = _dense_cubes(family, i, j, k)
                if v is not None:
                    violations.append(v)
    return tuple(violations)


def _dense_cubes(family, i, j, k):
    mi, mj, mk = (family.matrices[t] for t in (i, j, k))
    dim = len(mi)

    def fill(m_s, m_t, p0, p2):
        cand = [q for q in range(dim) if m_t[p0][q] and m_s[q][p2]]
        assert len(cand) == 1
        return cand[0]

    for a, b, c, d in product(range(dim), repeat=4):
        if not (mi[a][b] and mj[b][c] and mk[c][d]):
            continue
        x = fill(mi, mj, a, c)
        z_a = fill(mi, mk, x, d)
        w_a = fill(mj, mk, a, z_a)
        y = fill(mj, mk, b, d)
        w_b = fill(mi, mk, a, y)
        z_b = fill(mi, mj, w_b, d)
        if (w_a, z_a) != (w_b, z_b):
            return Violation("CubeInconsistency", (
                ("i", i + 1), ("j", j + 1), ("k", k + 1),
                ("chain", [a, b, c, d]),
                ("first_order", [x, z_a, w_a]),
                ("second_order", [y, w_b, z_b])))
    return None


# -- Full-schedule reference radius ----------------------------------------------

def _full_schedule_log_radius(m):
    """log_spectral_radius as the loop of 64 squarings with no replay;
    None where the normalized iterate underflows to zero."""
    norm0 = max(sum(row) for row in m)
    if norm0 == 0:
        return -math.inf
    cur = [[x / norm0 for x in row] for row in m]
    acc = math.log(norm0)
    for s in range(1, 65):
        nxt = _float_mul(cur, cur)
        mu = max(fsum(row) for row in nxt)
        if mu == 0.0:
            return None
        cur = [[x / mu for x in row] for row in nxt]
        acc += math.log(mu) / (1 << s)
    return acc


def _has_no_cycle(m):
    """Whether the graph with an edge a -> b for each positive m[a][b] has
    no cycle: peeling off, round by round, the letters with no successor
    among those left removes every letter."""
    left = range(len(m))
    while left:
        keep = [a for a in left if any(m[a][b] > 0 for b in left)]
        if len(keep) == len(left):
            return False
        left = keep
    return True


# -- Generated families ---------------------------------------------------------

BASES = (families.golden_mean(), families.full_shift(), families.identity_family())
SURVIVORS = tuple(rec.family for rec in random_search(3, 0.3, 600, seed=5))


def _permuted(family, perm):
    """Simultaneous relabelling: new letter i is old letter perm[i]."""
    return MatrixFamily(
        family.rank,
        Alphabet(tuple(family.alphabet[p] for p in perm)),
        tuple(tuple(tuple(m[a][b] for b in perm) for a in perm)
              for m in family.matrices))


@st.composite
def valid_families(draw):
    if draw(st.booleans()):
        family = draw(st.sampled_from(SURVIVORS))
    else:
        left, right = draw(st.lists(st.sampled_from(BASES), min_size=2,
                                    max_size=2))
        family = families.tensor_product(left, right)
    perm = draw(st.permutations(range(family.dim)))
    return _permuted(family, perm)


class _Bit(int):
    """An int subclass: its 0 and 1 pass validation like plain ints."""


# Entries of other values and types; True, False and _Bit(0), _Bit(1)
# are integers 0 or 1, the rest are NonBinaryEntry.
ODD_ENTRIES = (2, 1.0, True, False, "1", None, _Bit(0), _Bit(1))


@st.composite
def any_families(draw):
    """Arbitrary small families with entries mostly 0 or 1: nearly all
    fail some stage of validation.  Some entry sets add 2, bools and
    _Bit integers, or any of ODD_ENTRIES."""
    rank = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 5))
    entry = draw(st.sampled_from((
        st.sampled_from((0, 1)),
        st.sampled_from((0, 1, 1, 1, 2)),
        st.sampled_from((0, 1, True, False, _Bit(0), _Bit(1))),
        st.sampled_from((0, 1) * 12 + ODD_ENTRIES),
    )))
    mats = tuple(
        tuple(tuple(draw(entry) for _ in range(dim)) for _ in range(dim))
        for _ in range(rank))
    return MatrixFamily(rank, Alphabet(tuple(str(a) for a in range(dim))), mats)


# Valid families of one and two letters, rank 2 and rank 3.
SMALL_VALID = {rank: tuple(rec.family for size in (1, 2)
                           for rec in exhaustive_search(size, rank=rank))
               for rank in (2, 3)}


@st.composite
def rank3_families(draw):
    """Valid rank-3 families: a rank-2 valid family tensored with a rank-1
    base, letters permuted, or a one- or two-letter exhaustive survivor."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SMALL_VALID[3]))
    left = draw(valid_families().filter(lambda f: f.rank == 2))
    right = draw(st.sampled_from([b for b in BASES if b.rank == 1]))
    family = families.tensor_product(left, right)
    return _permuted(family, draw(st.permutations(range(family.dim))))


CUBE_FAIL = matrices.load_family(FAMILIES / "cube_fail.json")
RANK1 = (families.golden_mean(), families.full_shift(),
         families.identity_family(letters=1, rank=1))


@st.composite
def rank4_families(draw):
    """Letter-permuted rank-4 tensor products of at most 8 letters: a
    rank-2 one- or two-letter survivor or g1 (x) g1 with a rank-2 survivor,
    or a rank-3 survivor or families/cube_fail.json with a rank-1 base,
    either factor first.  Every pair passes C1/C2, so validation reaches
    C3; the cube_fail products fail it."""
    if draw(st.booleans()):
        left = draw(st.sampled_from(SMALL_VALID[2]
                                    + (families.tensor_golden(),)))
        right = draw(st.sampled_from(SMALL_VALID[2]))
    else:
        left = draw(st.sampled_from(SMALL_VALID[3] + (CUBE_FAIL,)))
        right = draw(st.sampled_from(RANK1))
    if draw(st.booleans()):
        left, right = right, left
    family = families.tensor_product(left, right)
    return _permuted(family, draw(st.permutations(range(family.dim))))


@st.composite
def late_failing_families(draw):
    """Block-diagonal families diag(V_i, A_i), V valid and A arbitrary 0-1:
    the rows of V's letters pass C1/C2, so any C1/C2 failure lies in a
    later row, among A's letters."""
    rank = draw(st.sampled_from((2, 3)))
    valid = draw(st.sampled_from(SMALL_VALID[rank]))
    head, tail = valid.dim, draw(st.integers(1, 3))
    dim = head + tail
    mats = []
    for m in valid.matrices:
        block = [draw(st.lists(st.sampled_from((0, 1)), min_size=tail,
                               max_size=tail)) for _ in range(tail)]
        mats.append(tuple(row + (0,) * tail for row in m)
                    + tuple((0,) * head + tuple(row) for row in block))
    return MatrixFamily(rank, Alphabet(tuple(str(a) for a in range(dim))),
                        tuple(mats))


def _shapes(family, top):
    return st.tuples(*[st.integers(0, top)] * family.rank).map(Shape)


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- Properties -----------------------------------------------------------------

# Offends C1/C2 at cells (1, 2) and (2, 1): the witness is the first
# offending cell in row-major order.
TWO_CELLS = MatrixFamily(2, Alphabet(("0", "1", "2")), (
    ((0, 0, 1), (0, 0, 1), (0, 1, 0)), ((0, 0, 1), (0, 1, 1), (0, 1, 0))))
# Rows 0 and 1 commute; row 2 of M_1 M_2 is (1, 0, 0) and of M_2 M_1
# (0, 1, 0): the unions differ.
LAST_ROW_UNION = MatrixFamily(2, Alphabet(("0", "1", "2")), (
    ((0, 0, 1), (0, 0, 1), (0, 1, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 1))))
# The identity on letter 0, then the full 2-shift twice: row 1 of both
# products is (0, 2, 2), the successor rows overlap.
LAST_ROWS_OVERLAP = MatrixFamily(2, Alphabet(("0", "1", "2")), (
    ((1, 0, 0), (0, 1, 1), (0, 1, 1)),) * 2)
# Rank 3: the pair (1, 2) fails in row 0, (1, 3) only in row 2, and
# (2, 3) commutes.
PAIRS_IN_TWO_ROWS = MatrixFamily(3, Alphabet(("0", "1", "2")), (
    ((0, 1, 0), (0, 1, 0), (1, 0, 0)), ((0, 0, 1), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 1, 0), (0, 0, 1))))
# A bool and an int-subclass matrix validate like their int twins.
ODD_INTEGERS = MatrixFamily(2, Alphabet(("0", "1")), (
    ((True, False), (False, True)), ((_Bit(0), _Bit(1)), (_Bit(1), _Bit(0)))))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(any_families(), valid_families(), late_failing_families(),
                 rank4_families()))
@example(TWO_CELLS)
@example(LAST_ROW_UNION)
@example(LAST_ROWS_OVERLAP)
@example(PAIRS_IN_TWO_ROWS)
@example(ODD_INTEGERS)
@example(CUBE_FAIL)
def test_validation_matches_dense_reference(family):
    assert validate_family(family).violations == _dense_validate(family)


def test_rank4_pool_reaches_cube_violations():
    # the rank-4 strategy feeds C3 both ways: cube_fail (x) g1 fails it on
    # the triples among its first three directions, the rest pass
    family = families.tensor_product(CUBE_FAIL, families.golden_mean())
    violations = _dense_validate(family)
    assert {v.code for v in violations} == {"CubeInconsistency"}
    assert {tuple(dict(v.witness)[x] for x in "ijk") for v in violations} \
        == set(permutations((1, 2, 3)))
    assert validate_family(family).violations == violations


def _dense_completions(family, s, t):
    """Entry p0*dim + p2: the one x with M_t(p0, x) M_s(x, p2) = 1, by a
    scan of the matrices; None where there is none."""
    dim, ms, mt = family.dim, family.matrices[s], family.matrices[t]
    dense = [None] * (dim * dim)
    for p0, x, p2 in product(range(dim), repeat=3):
        if mt[p0][x] and ms[x][p2]:
            assert dense[p0 * dim + p2] is None
            dense[p0 * dim + p2] = x
    return dense


@PROPERTY
@given(st.one_of(valid_families(), rank3_families(), rank4_families()))
@example(CUBE_FAIL)
def test_completion_tables_hold_the_existing_completions(family):
    dim = family.dim
    for s, t in permutations(range(family.rank), 2):
        dense = _dense_completions(family, s, t)
        assert family.squares[s, t] == {
            key: x for key, x in enumerate(dense) if x is not None}
        assert [family.completion(s, t, p0, p2) for p0 in range(dim)
                for p2 in range(dim)] == dense


def test_rank_six_tables_hold_only_the_two_step_paths():
    # g1^(x)6: 64 letters, 30 tables of 144 two-step paths each, where a
    # dense table would have 4096 slots
    family = functools.reduce(families.tensor_product,
                              [families.golden_mean()] * 6)
    assert family.is_valid and len(family.squares) == 30
    assert sum(map(len, family.squares.values())) == 4320


def test_completion_table_refuses_a_second_filling():
    # the full shift twice over fails C1: its squares complete two ways
    full = ((0, 1), (0, 1))  # successor lists of the full 2-shift
    with pytest.raises(AssertionError):
        matrices._completion_table([full, full], 0, 1)


# The one chain 0 -(i)-> 1 -(j)-> 0 -(k)-> 1 reads x = ij[0], z_a = ik[1],
# w_a = jk[1], y = jk[3], w_b = ik[1] and z_b = ij[3], all 0 or 1, and
# its cube closes.  Deleting the key of x, w_a or z_b is refused.
CHAIN_LISTS = [((1,), ()), ((), (0,)), ((1,), ())]


@pytest.mark.parametrize("pair, entry", [((0, 1), 0), ((1, 2), 1),
                                         ((0, 1), 3)])
def test_cube_check_refuses_an_empty_entry(pair, entry):
    tables = {(0, 1): {0: 0, 3: 1}, (0, 2): {1: 1}, (1, 2): {1: 1, 3: 1}}
    assert matrices._check_cubes(CHAIN_LISTS, tables, 0, 1, 2) is None
    del tables[pair][entry]
    with pytest.raises(AssertionError):
        matrices._check_cubes(CHAIN_LISTS, tables, 0, 1, 2)


def test_commutation_witnesses_in_later_rows():
    def witnesses(family):
        return [dict(v.witness) for v in validate_family(family).violations]

    assert witnesses(LAST_ROW_UNION) == [
        {"i": 1, "j": 2, "row": 2, "col": 0, "count": 1}]
    assert witnesses(LAST_ROWS_OVERLAP) == [
        {"i": 1, "j": 2, "row": 1, "col": 1, "count": 2}]
    assert [(w["i"], w["j"], w["row"]) for w in witnesses(PAIRS_IN_TWO_ROWS)] \
        == [(1, 2, 0), (1, 3, 2)]
    assert validate_family(ODD_INTEGERS).ok


@pytest.mark.parametrize("value", [1.0, "1", None, 2, -1, 256])
def test_non_binary_entry_names_the_first_bad_cell(value):
    m = ((1, 0, 0), (0, 1, value), (value, 0, 1))
    family = MatrixFamily(2, Alphabet(("0", "1", "2")), (((1, 0, 0),) * 3, m))
    (violation,) = validate_family(family).violations
    assert violation.code == "NonBinaryEntry"
    assert dict(violation.witness) == {"i": 2, "row": 1, "col": 2,
                                       "value": value}


def test_generated_pool_is_valid():
    assert len(SURVIVORS) > 20
    assert all(f.is_valid for f in SURVIVORS)


@PROPERTY
@given(st.data())
def test_word_count_is_power_product_entry_sum(data):
    family = data.draw(valid_families())
    shape = data.draw(_shapes(family, 3))
    power = matrix_power_product(family, shape)
    assert word_count(family, shape) == sum(sum(row) for row in power)
    assert origin_counts(family, shape) == [sum(row) for row in power]
    unbounded = Budget(max_enum_bits=math.inf, max_enum_nodes=math.inf)
    assert (check_enum_budget(family, shape, unbounded)
            == origin_counts(family, shape))


@pytest.mark.parametrize("name", ["g1", "g3", "t3"])
def test_long_counts_are_power_product_row_sums(monkeypatch, name):
    # up to 8 dim^2 unit steps the all-ones vector takes them one at a
    # time; one step more and the counts are the row sums of the power
    # product: the same integers on both sides
    family = matrices.load_family(FAMILIES / f"{name}.json")
    limit = 8 * family.dim ** 2
    real = matrices.matrix_power_product
    products = []
    monkeypatch.setattr(matrices, "matrix_power_product",
                        lambda f, l, budget=None: products.append(l.total)
                        or real(f, l, budget))
    for total in (limit, limit + 1):
        first = total - total // family.rank * (family.rank - 1)
        shape = Shape.of(first, *[total // family.rank] * (family.rank - 1))
        counts = origin_counts(family, shape)
        assert counts == [sum(row) for row in real(family, shape)]
        assert counts == matrices._step_vector(
            family.lists, shape, [1] * family.dim)
    assert products == [limit + 1]


def _log_origin_counts(monkeypatch):
    """Wrap origin_counts in every package module that binds it; the
    returned list records the shape of each call."""
    real = origin_counts
    calls = []

    def counted(family, l, budget=None):
        calls.append(l.coords)
        return real(family, l, budget)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "rankshift"
                and getattr(module, "origin_counts", None) is real):
            monkeypatch.setattr(module, "origin_counts", counted)
    return calls


@pytest.mark.parametrize("argv, shapes", [
    (["words", "--shape", "3,3", "--origin", "0.0", "--limit", "2"],
     [(3, 3)]),
    (["words", "--shape", "3,3", "--limit", "2", "--format", "csv"],
     [(3, 3)]),
    (["count-check", "--max-shape", "1,2"],
     [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]),
])
def test_one_count_per_shape(monkeypatch, capsys, argv, shapes):
    calls = _log_origin_counts(monkeypatch)
    assert main([*argv, "-f", str(FAMILIES / "g3.json")]) == 0
    assert calls == shapes
    assert capsys.readouterr().out


@PROPERTY
@given(st.data())
def test_enumeration_count_is_word_count(data):
    family = data.draw(valid_families())
    shape = data.draw(_shapes(family, 3 if family.rank < 3 else 1))
    labels = [w.labels for w in enumerate_words(family, shape)]
    assert len(labels) == word_count(family, shape)
    assert labels == sorted(set(labels))


# M_1 = M_2, both 0 -> 1, 2; 1 -> 2; 2 -> 0.  In box (1, 1) the last
# point (1, 1) follows (0, 1) and (1, 0): the admissible prefix 0, 1, 2
# leaves it no candidate (1 -> 2 only, 2 -> 0 only) and 2, 0, 0 two.
DEAD_CORNER = MatrixFamily(2, Alphabet(("0", "1", "2")), (
    ((0, 1, 1), (0, 0, 1), (1, 0, 0)),) * 2)


def _all_shapes(rank, top):
    return [Shape(pt) for pt in Shape.cube(top, rank).box()]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_prefix_box_is_a_leading_run_of_indices(rank):
    # box(l) is a prefix box of box(m) exactly when its points are the
    # first l.volume flat indices of box(m)
    for m in _all_shapes(rank, 3):
        for pt in m.box():
            l = Shape(pt)
            assert words.is_prefix_box(l, m) \
                == (m.indices(l) == list(range(l.volume))), (l, m)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_prefix_groups_cover_each_shape_once(rank):
    # each group is prefix boxes of its top, the top being the last shape
    # no earlier group holds; the groups hold every shape once
    for m in _all_shapes(rank, 3):
        shapes = [Shape(pt) for pt in m.box()]
        groups = words.prefix_groups(shapes)
        assert sorted((l for g in groups for l in g), key=tuple) == shapes
        left = shapes
        for group in groups:
            assert group == [l for l in left if words.is_prefix_box(l, left[-1])]
            left = [l for l in left if l not in group]


def _prefix_boxes(m):
    return [Shape(pt) for pt in m.box() if words.is_prefix_box(Shape(pt), m)]


def _dfs_families():
    return st.one_of(
        st.sampled_from(RANK1 + (DEAD_CORNER,)), valid_families(),
        rank3_families(), rank4_families().filter(lambda f: f.is_valid))


@PROPERTY
@given(st.data())
def test_dfs_count_is_the_enumerated_count(data):
    # the tally at each prefix box's last point is its word count
    family = data.draw(_dfs_families())
    top = data.draw(_shapes(family, 2 if family.rank < 3 else 1))
    placed = words._dfs_count(family, top, dfs_plan(family, top))
    assert len(placed) == top.volume
    for shape in _prefix_boxes(top):  # the zero shape, of volume 1, first
        assert placed[shape.volume - 1] \
            == sum(1 for _ in enumerate_words(family, shape))
    unbounded = Budget(max_enum_bits=math.inf, max_enum_nodes=math.inf)
    assert words.count_oracle_check(family, top, unbounded).ok


def test_dfs_count_at_a_dead_corner():
    assert DEAD_CORNER.is_valid
    succ = DEAD_CORNER.succ[0]
    assert succ[0] == 0b110 and not succ[1] & succ[2]
    square = Shape.of(1, 1)
    assert [w.labels for w in enumerate_words(DEAD_CORNER, square)] == [
        (0, 1, 1, 2), (0, 2, 2, 0), (1, 2, 2, 0), (2, 0, 0, 1), (2, 0, 0, 2)]
    for top in (Shape.of(2, 1), Shape.of(1, 2), Shape.of(2, 2), Shape.of(3, 0)):
        placed = words._dfs_count(DEAD_CORNER, top, dfs_plan(DEAD_CORNER, top))
        for shape in _prefix_boxes(top):
            assert placed[shape.volume - 1] == word_count(DEAD_CORNER, shape)
    # in box(2, 1) the backtracking tallies 6 labelings of the first three
    # points, (0, 0), (0, 1) and (1, 0), of which 4 begin a word, and then
    # the 5 words of its prefix box (1, 1)
    top = Shape.of(2, 1)
    placed = words._dfs_count(DEAD_CORNER, top, dfs_plan(DEAD_CORNER, top))
    starts = {w.labels[:3] for w in enumerate_words(DEAD_CORNER, top)}
    assert (placed[2], len(starts), placed[3]) == (6, 4, 5)


@PROPERTY
@given(st.data())
def test_dfs_prefixes_cut_the_words_of_each_prefix_box(data):
    family = data.draw(_dfs_families())
    top = data.draw(_shapes(family, 2 if family.rank < 3 else 1))
    boxes = _prefix_boxes(top)
    cuts = [False] * top.volume
    for shape in boxes:
        cuts[shape.volume - 1] = True
    labels, seen = [0] * top.volume, {shape.volume - 1: [] for shape in boxes}
    for t in words._dfs_prefixes(family, top, dfs_plan(family, top), cuts,
                                 labels):
        seen[t].append(tuple(labels[:t + 1]))
    for shape in boxes:
        assert seen[shape.volume - 1] \
            == [w.labels for w in enumerate_words(family, shape)]


def _count_backtrackings(monkeypatch):
    """Record the box of every _dfs_count and _dfs_prefixes call."""
    tops = []

    def wrap(module, name):
        real = getattr(module, name)

        def counted(family, m, *rest):
            tops.append(m.coords)
            return real(family, m, *rest)
        monkeypatch.setattr(module, name, counted)
    wrap(words, "_dfs_count")
    wrap(pressure, "_dfs_prefixes")
    return tops


@pytest.mark.parametrize("argv, tops", [
    (["count-check", "-f", "g3", "--max-shape", "4,4"],
     [(4, 4), (4, 3), (4, 2), (4, 1), (4, 0)]),
    (["count-check", "-f", "g3", "--max-shape", "0,12"], [(0, 12)]),
    (["count-check", "-f", "g1", "--max-shape", "12"], [(12,)]),
    (["count-check", "-f", "t3", "--max-shape", "1,1,1"],
     [(1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0)]),
    (["pressure", "-f", "g1", "--p", "1", "--n-max", "8"], [(9,)]),
    (["pressure", "-f", "g3", "--p", "1,0", "--n-max", "5"], [(6, 1)]),
    (["pressure", "-f", "g3", "--p", "1,1", "--n-max", "4"],
     [(5, 5), (4, 4), (3, 3), (2, 2)]),
], ids=["g3-4,4", "g3-0,12", "g1-12", "t3-1,1,1", "enum-g1-p1",
        "enum-g3-p1,0", "enum-g3-p1,1"])
def test_one_backtracking_per_prefix_group(monkeypatch, capsys, argv, tops):
    # count-check and the enumerate stages run one backtracking per group
    # of prefix boxes: 5 for the 25 shapes of box(4, 4)
    tops_seen = _count_backtrackings(monkeypatch)
    command, _, name, *options = argv
    if command == "pressure":
        options += ["--method", "enumerate"]
    assert main([command, "-f", str(FAMILIES / f"{name}.json"), *options]) == 0
    assert tops_seen == tops
    assert capsys.readouterr().out


@PROPERTY
@given(st.data())
def test_split_and_compose_are_inverse(data):
    # rank 4 reads all 12 completion tables of a family
    family = data.draw(st.one_of(
        valid_families(), rank3_families(),
        rank4_families().filter(lambda f: f.is_valid)))
    a, b = data.draw(_shapes(family, 1)), data.draw(_shapes(family, 1))
    for w in islice(enumerate_words(family, a + b), 32):
        assert compose(family, restrict_prefix(w, a), restrict_tail(w, a)) == w
    for u in islice(enumerate_words(family, a), 8):
        for v in islice(enumerate_words(family, b, origin=u.terminal), 8):
            both = compose(family, u, v)
            assert restrict_prefix(both, a) == u
            assert restrict_tail(both, a) == v


@PROPERTY
@given(st.data())
def test_sweep_plans_give_the_one_shot_words(data):
    # every plan a SweepTables caches gives the Words that the public
    # functions give from the plans they build per call
    family = data.draw(st.one_of(
        valid_families().filter(lambda f: f.rank == 2), rank3_families()))
    a, b = data.draw(_shapes(family, 1)), data.draw(_shapes(family, 1))
    tables = SweepTables(family)
    for x, y in ((a, b), (b, a)):
        assert tables.words(x) == tuple(enumerate_words(family, x))
        assert tables.compose_plan(x, y) == compose_plan(x, y)
        for u in islice(tables.words(x), 6):
            for v in islice(tables.words(y, origin=u.terminal), 6):
                assert tables.compose(u, v) == compose(family, u, v)
    shape = a + b
    m = Shape(tuple(data.draw(st.integers(0, c)) for c in shape))
    for base in islice(tables.words(a), 6):
        assert tables.split_extensions(base, shape, m) == tuple(
            (restrict_tail(ext, a), restrict_tail(ext, m), restrict_prefix(ext, m))
            for ext in enumerate_extensions(family, base, shape))
    assert tables.dfs_plan(shape) == dfs_plan(family, shape)


T3 = families.tensor_product(families.tensor_golden(), families.golden_mean())


@pytest.mark.parametrize("family, a, b, fills", [
    (families.tensor_golden(), (30, 0), (0, 30), 900),
    (families.tensor_golden(), (6, 6), (6, 6), 72),
    (T3, (2, 1, 0), (0, 1, 2), 16),
    (T3, (1, 1, 1), (1, 1, 1), 12),
], ids=["g3-30,0+0,30", "g3-6,6+6,6", "t3-2,1,0+0,1,2", "t3-1,1,1+1,1,1"])
def test_compose_fills_each_point_once(monkeypatch, family, a, b, fills):
    # compose runs the fill schedule of its shape pair's plan, and that
    # schedule names every point outside both boxes exactly once
    plans = []
    monkeypatch.setattr(words, "_fill",
                        lambda *args: plans.append(args[2]) or _fill(*args))
    a, b = Shape(a), Shape(b)
    u = next(enumerate_words(family, a))
    v = next(enumerate_words(family, b, origin=u.terminal))
    both = compose(family, u, v)
    assert restrict_prefix(both, a) == u and restrict_tail(both, a) == v
    assert plans == [compose_plan(a, b)]
    filled = [both.shape.point_at(t) for t, *_ in plans[0].fills]
    outside = {q for q in both.shape.box()
               if not (Shape(q) <= a or a <= Shape(q))}
    assert len(filled) == len(outside) == fills
    assert set(filled) == outside


@pytest.mark.parametrize("family, validated", [
    (families.tensor_golden(), 0),
    (families.tensor_product(families.tensor_golden(),
                             families.golden_mean()), 6),
], ids=["g3", "t3"])
def test_completion_tables_are_built_once_per_family(monkeypatch, family,
                                                      validated):
    # C3 builds the r(r-1) tables of a rank-3 family; compose reads them,
    # and a rank-2 family builds its 2 at the first compose
    built = []
    real = matrices._completion_table
    monkeypatch.setattr(
        matrices, "_completion_table",
        lambda lists, s, t: built.append((s, t)) or real(lists, s, t))
    assert family.is_valid and len(built) == validated
    shape = Shape.cube(1, family.rank)
    for _ in range(2):
        u = next(enumerate_words(family, shape))
        v = next(enumerate_words(family, shape, origin=u.terminal))
        compose(family, u, v)
    assert sorted(built) == list(permutations(range(family.rank), 2))


@st.composite
def _boxes(draw):
    """(m, sub, offset) with offset + sub <= m, rank 1 to 4."""
    rank = draw(st.integers(1, 4))
    sub = Shape(tuple(draw(st.integers(0, 3)) for _ in range(rank)))
    offset = Shape(tuple(draw(st.integers(0, 3)) for _ in range(rank)))
    slack = Shape(tuple(draw(st.integers(0, 2)) for _ in range(rank)))
    return offset + sub + slack, sub, offset


@PROPERTY
@given(_boxes())
def test_box_indices_are_pointwise_index_of(box):
    m, sub, offset = box
    assert m.indices(sub, offset) == [m.index_of((offset + Shape(l)).coords)
                                      for l in sub.box()]
    assert m.indices(sub) == [m.index_of(l) for l in sub.box()]
    for q in m.box():
        for j, step in enumerate(m.strides):
            if q[j] < m[j]:
                up = q[:j] + (q[j] + 1,) + q[j + 1:]
                assert m.index_of(up) - m.index_of(q) == step


@PROPERTY
@given(st.data())
def test_restrictions_are_pointwise(data):
    family = data.draw(st.one_of(valid_families(), rank3_families()))
    shape = data.draw(_shapes(family, 2 if family.rank < 3 else 1))
    word = data.draw(st.sampled_from(list(islice(
        enumerate_words(family, shape), 64))))
    k = Shape(tuple(data.draw(st.integers(0, c)) for c in shape))
    assert restrict_prefix(word, k) == Word(
        k, tuple(word.label_at(l) for l in k.box()))
    rest = shape - k
    assert restrict_tail(word, k) == Word(
        rest, tuple(word.label_at((k + Shape(l)).coords) for l in rest.box()))


def _scanned_bad_edge(family, word):
    """The first forbidden edge of a row-major scan over start points,
    then directions."""
    m, succ = word.shape, family.succ
    for point in m.box():
        for j in range(m.rank):
            if point[j] < m[j]:
                nxt = point[:j] + (point[j] + 1,) + point[j + 1:]
                if not succ[j][word.label_at(point)] >> word.label_at(nxt) & 1:
                    return point, j
    return None


@PROPERTY
@given(st.data())
def test_first_bad_edge_is_the_row_major_scan(data):
    family = data.draw(st.one_of(valid_families(), rank3_families()))
    shape = data.draw(_shapes(family, 2 if family.rank < 3 else 1))
    labels = tuple(data.draw(st.lists(st.integers(0, family.dim - 1),
                                      min_size=shape.volume,
                                      max_size=shape.volume)))
    bad = _scanned_bad_edge(family, Word(shape, labels))
    assert words._first_bad_edge(family, Word(shape, labels)) == bad
    if bad is None:
        assert make_word(family, shape, labels) == Word(shape, labels)
    else:
        message = f"edge constraint violated at {bad[0]} direction {bad[1]}"
        with pytest.raises(ValueError) as info:
            make_word(family, shape, labels)
        assert str(info.value) == message


def test_first_bad_edge_is_least_over_directions():
    # direction 1 breaks first at (0, 0), direction 0 only at (0, 1): the
    # per-direction scans still answer in row-major order of start points
    family = families.identity_family(letters=2, rank=2)
    word = Word(Shape.of(1, 1), (0, 1, 0, 0))
    assert words._first_bad_edge(family, word) == ((0, 0), 1)
    assert _scanned_bad_edge(family, word) == ((0, 0), 1)


def _dense_patterns(family, u, w, p, m):
    """(kappa, lambda) -> set of (row, col) Words, by decomposing every word
    of the extension shape as nu.w.gamma.kappa, with lambda its part past m;
    nu must also feed u and gamma be fed by u."""
    n = u.shape.sup(w.shape)
    grid = {(kappa, lam): set()
            for kappa in enumerate_words(family, n - w.shape)
            for lam in enumerate_words(family, n - u.shape)}
    base_shape = m + w.shape - u.shape
    for ext in enumerate_words(family, m + n - u.shape):
        nu = restrict_prefix(ext, p)
        if restrict_prefix(restrict_tail(ext, p), w.shape) != w:
            continue
        gamma = restrict_tail(restrict_prefix(ext, base_shape), p + w.shape)
        if nu.terminal != u.origin or gamma.origin != u.terminal:
            continue
        row = compose(family, compose(family, nu, u), gamma)
        key = (restrict_tail(ext, base_shape), restrict_tail(ext, m))
        grid[key].add((row, restrict_prefix(ext, m)))
    return grid


def _dense_first_collision(cells):
    """The collision scan over Word-keyed maps: the first cell in label
    order whose row or column is taken, a taken row winning."""
    by_row, by_col = {}, {}
    for row, col in sorted(cells, key=lambda rc: (rc[0].labels, rc[1].labels)):
        first = by_row.get(row) or by_col.get(col)
        if first is not None:
            return first, (row, col)
        by_row[row] = by_col[col] = (row, col)
    return None


@PROPERTY
@given(st.data())
def test_shift_patterns_match_dense_reference(data):
    family = data.draw(valid_families().filter(lambda f: f.rank <= 2))
    u = data.draw(st.sampled_from(
        list(enumerate_words(family, data.draw(_shapes(family, 1))))))
    ws = list(enumerate_words(family, data.draw(_shapes(family, 1))))
    # mismatched endpoints give empty patterns only, so prefer matching
    matching = [x for x in ws if (x.origin, x.terminal) == (u.origin, u.terminal)]
    w = data.draw(st.sampled_from(
        matching if matching and data.draw(st.booleans()) else ws))
    p = data.draw(_shapes(family, 1))
    m = p + u.shape.sup(w.shape) + data.draw(_shapes(family, 1))
    built = build_shift_patterns(family, u, w, p, m)
    dense = _dense_patterns(family, u, w, p, m)
    assert list(built) == list(dense)
    # the report lemma-check emits reads the same build
    assert examine_pair(family, u, w, p, m).stats == tuple(
        (kappa, lam, len(cells), True) for (kappa, lam), cells in dense.items())
    index = tuple(enumerate_words(family, m))
    for key, cells in dense.items():
        assert built[key].index == index
        assert built[key].cells == cells
        assert _first_collision(built[key]) == _dense_first_collision(cells)
    # a valid family gives no collision, so scan random cell sets as well
    for _ in range(3):
        cells = frozenset(data.draw(st.lists(
            st.tuples(st.sampled_from(index), st.sampled_from(index)),
            max_size=6)))
        assert (_first_collision(PatternMatrix(index, cells))
                == _dense_first_collision(cells))


def _square_matrices(entries):
    return st.integers(1, 6).flatmap(lambda dim: st.lists(
        st.lists(entries, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim))


@st.composite
def _power_products(draw):
    family = draw(valid_families())
    return matrix_power_product(family, draw(_shapes(family, 3)))


NONNEGATIVE_MATRICES = st.one_of(
    _square_matrices(st.integers(0, 3)),
    _square_matrices(st.sampled_from((0, 1)) | st.integers(0, 10 ** 400)),
    _square_matrices(st.floats(0, 1e300)),
    _power_products())


@settings(PROPERTY, max_examples=300)
@given(NONNEGATIVE_MATRICES)
@example(((1, 1), (1, 1)))                   # fixed point from step 1
@example(((0, 1), (1, 1)))                   # period 2 from step 10
@example(((0, 0, 1), (0, 1, 0), (1, 1, 1)))  # period 3 from step 11
@example(((0, 1, 0), (0, 0, 2), (3, 0, 0)))  # period 2, two distinct norms
@example(((1, 0), (1, 1)))                   # never repeats
@example(((0, 1, 0), (0, 0, 1), (0, 0, 0)))  # nilpotent
def test_log_spectral_radius_is_the_full_schedule(m):
    expected = _full_schedule_log_radius(m)
    if expected is not None:
        assert log_spectral_radius(m) == expected
    elif _has_no_cycle(m):
        assert log_spectral_radius(m) == -math.inf
    else:
        with pytest.raises(RadiusUnderflowError):
            log_spectral_radius(m)


def _squarings(monkeypatch, m):
    """The number of float products one log_spectral_radius call takes."""
    calls = []

    def counted(a, b):
        calls.append(None)
        return _float_mul(a, b)

    monkeypatch.setattr(matrices, "_float_mul", counted)
    log_spectral_radius(m)
    monkeypatch.undo()
    return len(calls)


def test_replay_skips_the_repeated_squarings(monkeypatch, g1, g3):
    # g1's iterate has period 2 from step 10, found at step 18; the g3
    # product's has period 1, found at step 9
    assert _squarings(monkeypatch, g1.matrices[0]) == 18
    product = matrix_power_product(g3, Shape.of(1, 1))
    assert _squarings(monkeypatch, product) == 9
    assert _squarings(monkeypatch, ((1, 1), (1, 1))) == 1
    # a Jordan-type iterate never repeats: the full schedule runs
    assert _squarings(monkeypatch, ((1, 0), (1, 1))) == 64


def _random_potential(data, family, k):
    window = data.draw(_shapes(family, k))
    words = list(enumerate_words(family, window))
    chosen = data.draw(st.lists(st.sampled_from(words), max_size=6))
    values = st.floats(-3, 3, allow_nan=False)
    table = {w: data.draw(values) for w in chosen}
    return Potential(window, data.draw(values), table)


def _stage(data, family, n_top):
    """Cube radius, step and stage index of a stage with few words."""
    k = data.draw(st.integers(1, 2))
    step = Shape(data.draw(st.tuples(*[st.integers(0, k)] * family.rank)
                           .filter(any)))
    n = data.draw(st.integers(0, n_top))
    assume(word_count(family, Shape.cube(k, family.rank) + step.scaled(n))
           <= 400)
    return k, step, n


@PROPERTY
@given(st.data())
def test_index_birkhoff_sum_is_restrict_tail_formula(data):
    family = data.draw(valid_families().filter(lambda f: f.rank <= 2))
    k, step, n = _stage(data, family, 2)
    potential = _random_potential(data, family, k)
    shape = Shape.cube(k, family.rank) + step.scaled(n)
    for word in enumerate_words(family, shape):
        expected = fsum(potential.value(restrict_tail(word, step.scaled(l)))
                        for l in range(n + 1))
        assert birkhoff_sum_on_cylinder(family, potential, word, step, n) \
            == expected


@PROPERTY
@given(st.data())
def test_enumerate_partition_sum_matches_transfer(data):
    family = data.draw(valid_families().filter(lambda f: f.rank <= 2))
    k, step, n = _stage(data, family, 3)
    potential = _random_potential(data, family, k)
    enum = partition_function_log(family, potential, k, step, n, "enumerate")
    transfer = partition_function_log(family, potential, k, step, n)
    assert abs(enum - transfer) <= 1e-12


@PROPERTY
@given(st.data())
def test_transfer_parts_are_the_restriction_chain(data):
    # the reference builds the chain from Words: a word of shape cube + p
    # joins its prefix cube to its tail cube, and a state weighs
    # Potential.value.  Swapping prefix and tail reverses every edge and
    # keeps every partition sum, so only this comparison tells them apart.
    family = data.draw(st.one_of(
        valid_families().filter(lambda f: f.rank <= 3), rank3_families()))
    k = data.draw(st.integers(1, 2))
    step = Shape(data.draw(st.tuples(*[st.integers(0, k)] * family.rank)
                           .filter(any)))
    cube = Shape.cube(k, family.rank)
    assume(word_count(family, cube + step) <= 400)
    potential = _random_potential(data, family, k)
    states = list(enumerate_words(family, cube))
    index = {w: i for i, w in enumerate(states)}
    in_edges = [[] for _ in states]
    for x in enumerate_words(family, cube + step):
        in_edges[index[restrict_tail(x, step)]].append(
            index[restrict_prefix(x, cube)])
    weights = [potential.value(s) for s in states]
    # the word count bounds the work, not the raw index space
    budget = Budget(max_enum_bits=math.inf)
    assert _transfer_parts(family, potential, k, step, budget) \
        == (in_edges, weights)


def test_table_entries_off_the_window_are_ignored(g3):
    # a key of shape (0, 1) has as many labels as the window (1, 0) but
    # never matches it, in either summation route
    stray = next(enumerate_words(g3, Shape.of(0, 1)))
    potential = Potential(Shape.of(1, 0), 0.25, {stray: 9.0})
    step = Shape.of(1, 1)
    for word in enumerate_words(g3, Shape.of(2, 2)):
        assert birkhoff_sum_on_cylinder(g3, potential, word, step, 1) == 0.5
    for method in ("enumerate", "transfer"):
        assert partition_function_log(g3, potential, 1, step, 1, method) \
            == approx(0.5 + math.log(word_count(g3, Shape.of(2, 2))),
                      abs=1e-12)


# -- Coded errors around the kernel ------------------------------------------------

@pytest.mark.parametrize("letter", [5, -1, 2, "7", 1.0, True])
def test_unknown_letter_is_coded(g1, letter):
    with pytest.raises(UnknownLetterError) as info:
        enumerate_words(g1, Shape.of(0), origin=letter)
    assert info.value.code == "UnknownLetter"
    assert info.value.details["alphabet"] == ["0", "1"]
    with pytest.raises(UnknownLetterError):
        vertex_potential(g1, {letter: 0.5})
    with pytest.raises(UnknownLetterError):
        pressure_oracle_vertex(g1, {letter: 0.5}, Shape.of(1))


def test_unknown_origin_cli_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "rankshift", "words", "-f",
         str(FAMILIES / "g1.json"), "--shape", "2", "--origin", "7"],
        capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["error"] == "UnknownLetter"
    assert payload["details"]["letter"] == "7"


def test_empty_square_completion_is_no_filling(g3):
    # compose meets none on a valid family; a fill that did is refused.
    # (0, 1) follows (0, 0) in direction 1 and precedes (1, 1) in direction 0
    m1, m2 = g3.matrices
    prod = matrix_mul(m2, m1)
    base, top = next((b, t) for b in range(g3.dim) for t in range(g3.dim)
                     if not prod[b][t])
    # box (1, 1) holds (0, 0), (0, 1), (1, 0), (1, 1) at flat indices 0-3;
    # (1, 0) + (0, 1) leaves one fill, at index 1 from base 0 and top 3
    plan = compose_plan(Shape.of(1, 0), Shape.of(0, 1))
    assert plan.fills == ((1, 0, 1, 0, 3),)
    with pytest.raises(NoFillingError) as info:
        _fill(g3, [base, None, None, top], plan)
    assert info.value.details == {"point": [0, 1]}


def _refused_pressure(tmp_path, value, *options):
    """A g1 enumerate-route pressure run with vertex potential ``value`` on
    letter 0: exit 1, the coded JSON on stdout, nothing on stderr and no
    output file."""
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"window": [0], "default": 0.0, "entries": [
        {"word": {"shape": [0], "labels": [0]}, "value": value}]}))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rankshift", "pressure", "-f",
         str(FAMILIES / "g1.json"), "--p", "1", "--method", "enumerate",
         "--potential", str(pot), "--out", str(out), *options],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert not out.exists()
    return json.loads(proc.stdout)["error"]


def test_enumerated_birkhoff_overflow_is_coded(g1, tmp_path):
    assert _refused_pressure(tmp_path, 1e308, "--n-max", "2") \
        == "NonFiniteResult"
    # fsum overflows on 1e308 + 1e308 - 1e308; the exact sum does not
    pot = vertex_potential(g1, {0: 1e308, 1: -1e308})
    word = make_word(g1, Shape.of(3), (0, 0, 1, 0))
    assert birkhoff_sum_on_cylinder(g1, pot, word, Shape.of(1), 2) == 1e308
    # below float range a word weighs nothing, as in the transfer chain;
    # with every word below it the log sums are -inf, not NaN
    for pot in (vertex_potential(g1, {1: -1e308}),
                vertex_potential(g1, {}, default=-1e308)):
        enum, transfer = (
            pressure_estimate(g1, pot, 1, Shape.of(1), 4, method=method)
            .sequence for method in ("enumerate", "transfer"))
        assert enum == approx(transfer, abs=1e-12)
    assert enum == (-math.inf,) * 4


@pytest.mark.parametrize("n_max", ["3", "40"])
def test_enumerated_overflow_comes_in_stage_order(capsys, tmp_path, n_max):
    # the stages of --p 2 --k 2 share one backtracking, whose first
    # overflowing word, (0, 0, 1, 0, 1, 0, 0), is of stage 2; the error
    # names stage 1's first, as stage-by-stage enumeration does, and comes
    # before the budget refusal of a later stage (at --n-max 40)
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"window": [0], "default": 0.0, "entries": [
        {"word": [1], "value": 1e308}]}))
    assert main(["pressure", "-f", str(FAMILIES / "g1.json"), "--p", "2",
                 "--k", "2", "--n-max", n_max, "--method", "enumerate",
                 "--potential", str(pot)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "NonFiniteResult",
        "message": "the Birkhoff sum leaves float range",
        "details": {"labels": [1, 0, 1, 0, 0]}}


def test_oracle_weights_underflowing_every_cycle(g1, tmp_path):
    # letter 1 has no loop, so with letter 0's weight at 0.0 the weighted
    # golden-mean matrix is nilpotent, with and without a shift
    for values in ({0: -1000.0}, {0: -1000.0, 1: 800.0}):
        with pytest.raises(RadiusUnderflowError):
            pressure_oracle_vertex(g1, values, Shape.of(1))
    assert _refused_pressure(tmp_path, -1000.0, "--n-max", "4", "--oracle") \
        == "RadiusUnderflow"


def test_masks_are_rows_and_columns(g3):
    # the row bitmasks and the ascending successor lists of each matrix
    for j, m in enumerate(g3.matrices):
        for a, row in enumerate(m):
            ones = tuple(b for b, x in enumerate(row) if x)
            assert g3.lists[j][a] == ones
            assert g3.succ[j][a] == sum(1 << b for b in ones)


def test_oracle_above_exp_range(g1):
    phi = (1 + math.sqrt(5)) / 2
    value = pressure_oracle_vertex(g1, {0: 800.0, 1: 800.0}, Shape.of(1))
    assert value == approx(800 + math.log(phi), abs=1e-9)
    low = pressure_oracle_vertex(g1, {0: -800.0, 1: -800.0}, Shape.of(1))
    assert low == approx(-800 + math.log(phi), abs=1e-9)


def test_oracle_above_exp_range_cli(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"window": [0], "default": 800.0,
                               "entries": []}))
    proc = subprocess.run(
        [sys.executable, "-m", "rankshift", "pressure", "-f",
         str(FAMILIES / "g1.json"), "--p", "1", "--potential", str(pot),
         "--oracle"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    phi = (1 + math.sqrt(5)) / 2
    assert payload["oracle"] == approx(800 + math.log(phi), abs=1e-9)


def test_csv_config_line_refuses_non_finite(capsys, tmp_path):
    from argparse import Namespace
    from rankshift.cli import _emit
    config = {"command": "x", "format": "csv", "density": 0.1 + 0.2,
              "nested": [1.5, 2]}
    _emit(Namespace(**config, out=None), {}, ["a"], [[1]])
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "# config: " + json.dumps(round12(config), sort_keys=True)
    out = tmp_path / "out.csv"
    for bad in (math.nan, math.inf, -math.inf):
        for target in (None, str(out)):
            with pytest.raises(NonFiniteResultError):
                _emit(Namespace(command="x", format="csv", density=bad,
                                out=target), {}, ["a"], [[1]])
    assert capsys.readouterr().out == ""
    assert not out.exists()
