"""Gap evidence gathering.

Core claims:
    - tensor families sit exactly at gap zero, for any step
    - the 4-letter block family diag(J_2, I_2), diag(I_2, J_2) has gap log 2
    - the exhaustive sweep over two letters finds the same valid tuples,
      in the same order, as a prefilter-free brute force written here
      from scratch, at ranks 2, 3 and 4; it validates only the tuples the
      pair walk grows, and refuses an oversized sweep before building it
    - the sweep tests each unordered pair of matrices once, into one
      partner bitmask per matrix, and a refused or rank-1 sweep tests none
    - a rank-1 sweep, exhaustive or random, is RankOne before it builds,
      validates or samples any family, whatever its size or trials
    - the gap stays finite once a radius leaves float range, and below
      exp's range it is taken from the logs of the float radii
    - every recorded gap over the small alphabets is zero to rounding,
      and never negative
    - a sweep computes the spectral radius of each distinct matrix once
    - a fixed seed fixes the random record stream byte for byte, and the
      mask-native sampler gives the records of the tuple sampler it
      replaced; a candidate that fails the pair test is never built
    - the boolean pair test agrees with validation's witness search, and
      is symmetric
    - records survive the CSV round trip
    - gap_parts runs the digit guard before it forms any power, and forms
      each factor power once
    - fingerprints take the built-in SHA-256, with hashlib's digests: a
      gap sweep loads neither hashlib nor OpenSSL
"""

import hashlib
import importlib.util
import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rankshift import gapsearch, matrices
from pytest import approx

from rankshift.budget import Budget
from rankshift.errors import BudgetExceededError, RankOneError, ZeroDirectionError
from rankshift.gapsearch import (
    canonical_form,
    exhaustive_search,
    family_fingerprint,
    family_from_csv_row,
    gap,
    gap_parts,
    random_search,
    record_csv_header,
    record_csv_row,
    sorted_records,
    summarize,
)
from rankshift.matrices import (
    Alphabet, MatrixFamily, bit_rows, canonical_family_json,
    commutation_witness, commutes, float_radius, log_spectral_radius,
    matrix_power_product, validate_family)
from rankshift.shapes import Shape


PHI = (1 + math.sqrt(5)) / 2


# -- Gap of known families ---------------------------------------------------------

def test_tensor_gap_is_zero(g3):
    radii, prod_radius, value = gap_parts(g3)
    assert radii == approx((PHI, PHI), abs=1e-9)
    assert prod_radius == approx(PHI ** 2, abs=1e-9)
    assert value == approx(0.0, abs=1e-12)
    assert gap(g3, Shape.of(2, 1)) == approx(0.0, abs=1e-12)


def test_gap_is_the_logs_of_the_float_radii():
    # one of the 16 random records has a log radius that exp moves
    for rec in random_search(3, 0.3, 200, seed=5) + exhaustive_search(2):
        logs = [math.log(r) for r in rec.radii]
        assert rec.value == math.fsum(logs) - math.log(rec.prod_radius)


@pytest.mark.parametrize("n", [1000, 2000])
def test_tensor_gap_is_zero_past_float_range(g3, n):
    # the product radius (and at 2000 each factor radius) exceeds float
    # range; the logs of those radii come from the log-domain kernel
    radii, prod_radius, value = gap_parts(g3, Shape.of(n, n))
    assert prod_radius == math.inf
    assert value == approx(0.0, abs=1e-9)


def test_gap_guards(g1, g3):
    with pytest.raises(RankOneError):
        gap(g1)
    with pytest.raises(ZeroDirectionError):
        gap(g3, Shape.of(0, 0))


def test_gap_parts_guards_before_forming_each_power_once(monkeypatch, g3):
    # matrix_power is wrapped in every package module that binds it
    real, powers = matrices.matrix_power, []
    for module in (matrices, gapsearch):
        if getattr(module, "matrix_power", None) is real:
            monkeypatch.setattr(module, "matrix_power",
                                lambda m, k: powers.append(k) or real(m, k))
    # about 1.8 million estimated digits: refused before any power
    with pytest.raises(BudgetExceededError):
        gap_parts(g3, Shape.of(3 * 10**6, 1))
    assert powers == []
    p = Shape.of(5, 3)
    _, prod_radius, _ = gap_parts(g3, p)
    assert powers == [5, 3]
    assert prod_radius == float_radius(
        log_spectral_radius(matrix_power_product(g3, p)))


@pytest.mark.skipif(
    not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
    reason="no built-in SHA-256 module: fingerprints fall back to hashlib")
def test_gap_sweep_loads_no_hashlib():
    # hashlib loads OpenSSL (_hashlib), about 3.7 MB resident; a sweep and
    # its fingerprints go without either
    code = ("import io, sys, contextlib; from rankshift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = main(['search-gap', '--exhaustive', '--size', '2'])\n"
            "assert code == 0 and out.getvalue()\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n", proc.stderr


def _hashlib_fingerprint(family):
    payload = canonical_family_json(family).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


@st.composite
def _families(draw):
    size = draw(st.integers(1, 4))
    rank = draw(st.integers(1, 3))
    letters = draw(st.lists(st.text(min_size=1, max_size=3), min_size=size,
                            max_size=size, unique=True))
    entry = st.integers(0, 1)
    row = st.lists(entry, min_size=size, max_size=size)
    matrix = st.lists(row, min_size=size, max_size=size)
    mats = draw(st.lists(matrix, min_size=rank, max_size=rank))
    return MatrixFamily(rank, Alphabet(letters), mats)


@given(_families())
def test_fingerprint_is_hashlibs_sha256(family):
    assert family_fingerprint(family) == _hashlib_fingerprint(family)


def test_size_two_rank_three_fingerprints_are_hashlibs():
    records = exhaustive_search(2, rank=3)
    assert len(records) == 46
    for rec in records:
        assert rec.fingerprint == _hashlib_fingerprint(rec.family)


def test_norm_stall_pair_has_no_gap():
    # the matrix whose norm sequence stalls for a step; a radius routine
    # that stops on a flat step reports a spurious positive gap here
    m = ((0, 0, 1), (1, 0, 0), (1, 1, 0))
    fam = MatrixFamily(2, Alphabet(("0", "1", "2")), (m, m))
    assert validate_family(fam).ok
    assert gap(fam) == approx(0.0, abs=1e-12)


def test_block_family_has_gap_log_two():
    # M_1 = diag(J_2, I_2), M_2 = diag(I_2, J_2) with J_2 all ones: each
    # direction has radius 2, and so has M_1 M_2 = diag(J_2, J_2)
    m1 = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    m2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    fam = MatrixFamily(2, Alphabet(("0", "1", "2", "3")), (m1, m2))
    assert validate_family(fam).ok
    radii, prod_radius, value = gap_parts(fam)
    assert radii == approx((2.0, 2.0), abs=1e-12)
    assert prod_radius == approx(2.0, abs=1e-12)
    assert value == approx(math.log(2), abs=1e-12)


# -- Exhaustive sweep vs independent brute force -------------------------------

def _brute_force_tuples(size, rank):
    """All matrix tuples, no prefilter, validity straight from the checker."""
    alphabet = Alphabet(tuple(str(i) for i in range(size)))
    rows = list(itertools.product((0, 1), repeat=size))
    mats = [m for m in itertools.product(rows, repeat=size)]
    found = []
    for combo in itertools.product(mats, repeat=rank):
        fam = MatrixFamily(rank, alphabet, combo)
        if validate_family(fam).ok:
            found.append(fam)
    return found


@pytest.mark.parametrize("rank, survivors", [(2, 22), (3, 46), (4, 94)])
def test_exhaustive_matches_brute_force(rank, survivors):
    records = exhaustive_search(2, rank=rank)
    brute = _brute_force_tuples(2, rank)
    assert len(records) == len(brute) == survivors
    # the same families in the same (product) order
    assert [r.family for r in records] == brute
    for rec in records:
        assert validate_family(rec.family).ok
        assert rec.value == approx(0.0, abs=1e-12)
        assert rec.value >= -1e-12


def test_exhaustive_validates_only_grown_tuples(monkeypatch):
    # the pair walk leaves 22 of the 81 nonzero-row pairs to validate; at
    # rank 3 a third matrix must pass with both members, leaving 46 of 729
    calls = []
    real = matrices.validate_family
    monkeypatch.setattr(matrices, "validate_family",
                        lambda family: calls.append(family) or real(family))
    assert len(exhaustive_search(2)) == len(calls) == 22
    calls.clear()
    assert len(exhaustive_search(2, rank=3)) == len(calls) == 46


def test_exhaustive_three_letters_rank_three():
    # 343 matrices; the walk guards 1137 pairs x 343, not 343 ** 3
    records = exhaustive_search(3, rank=3)
    assert len(records) == 3243
    assert all(validate_family(r.family).ok for r in records)


def test_exhaustive_refuses_before_building_matrices(monkeypatch):
    # 31 ** 5 five-letter matrices exceed the node budget on their own
    calls = []
    monkeypatch.setattr(gapsearch, "bit_rows",
                        lambda m: calls.append(m) or matrices.bit_rows(m))
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_search(5)
    assert info.value.details["candidates"] == 31 ** 5
    assert calls == []


def _count_pair_tests(monkeypatch):
    """Count the commutes calls that exhaustive_search makes."""
    calls = []
    real = gapsearch.commutes
    monkeypatch.setattr(gapsearch, "commutes",
                        lambda si, sj: calls.append(None) or real(si, sj))
    return calls


def test_exhaustive_tests_each_unordered_pair_once(monkeypatch):
    # 343 three-letter matrices: 343 * 344 / 2 pairs i <= j, not 343 ** 2
    calls = _count_pair_tests(monkeypatch)
    assert len(exhaustive_search(3)) == 1137
    assert len(calls) == 343 * 344 // 2 == 58996


def test_refused_and_rank_one_sweeps_test_no_pair(monkeypatch):
    # 15 ** 4 four-letter matrices pass the first guard; their pairs do not
    calls = _count_pair_tests(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_search(4)
    assert info.value.details["candidates"] == 50625 ** 2
    with pytest.raises(RankOneError):
        exhaustive_search(2, rank=1)
    assert calls == []


def test_rank_one_sweeps_refuse_before_any_candidate(monkeypatch):
    # a sweep for a gap of one direction is refused before its guard, its
    # first sample and its first family: no family is built or validated
    built, validated = [], []
    real_family, real_validate = gapsearch.MatrixFamily, matrices.validate_family
    monkeypatch.setattr(gapsearch, "MatrixFamily",
                        lambda *a: built.append(a) or real_family(*a))
    monkeypatch.setattr(matrices, "validate_family",
                        lambda f: validated.append(f) or real_validate(f))
    for sweep in (lambda: exhaustive_search(4, rank=1),
                  lambda: exhaustive_search(5, rank=1),
                  lambda: random_search(2, 0.5, 50, 1, rank=1),
                  lambda: random_search(2, 0.5, 0, 1, rank=1)):
        with pytest.raises(RankOneError) as info:
            sweep()
        assert info.value.details == {"rank": 1}
    assert built == validated == []


def test_exhaustive_single_letter():
    records = exhaustive_search(1)
    assert len(records) == 1
    assert records[0].family.matrices == (((1,),), ((1,),))
    assert records[0].value == 0.0


def _count_radii(monkeypatch):
    """Count the log_spectral_radius calls that gap_parts makes."""
    calls = []
    real = gapsearch.log_spectral_radius

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(gapsearch, "log_spectral_radius", counted)
    return calls


@pytest.mark.parametrize("rank, survivors", [(2, 22), (3, 46)])
def test_sweep_takes_each_radius_once(monkeypatch, rank, survivors):
    # each survivor needs rank factor radii and one product radius, all
    # of them among the 9 two-letter matrices with nonzero rows
    expected = [r.to_json() for r in exhaustive_search(2, rank=rank)]
    calls = _count_radii(monkeypatch)
    records = exhaustive_search(2, rank=rank)
    assert len(records) == survivors
    assert len(calls) == len(set(calls)) == 9
    assert [r.to_json() for r in records] == expected


def test_random_sweep_takes_each_radius_once(monkeypatch):
    expected = [r.to_json() for r in random_search(3, 0.3, 200, seed=5)]
    calls = _count_radii(monkeypatch)
    records = random_search(3, 0.3, 200, seed=5)
    assert len(records) > 10
    assert len(calls) == len(set(calls)) < 3 * len(records)
    assert [r.to_json() for r in records] == expected


def test_gap_parts_without_a_memo_takes_every_radius(monkeypatch, g3):
    calls = _count_radii(monkeypatch)
    gap_parts(g3)
    gap_parts(g3)
    assert len(calls) == 6


def test_exhaustive_budget_guard():
    with pytest.raises(BudgetExceededError):
        exhaustive_search(3, budget=Budget(max_enum_nodes=100))


def test_canonicalize_dedups():
    full = exhaustive_search(2)
    reduced = exhaustive_search(2, canonicalize=True)
    assert 0 < len(reduced) < len(full)
    fps = [r.fingerprint for r in reduced]
    assert len(fps) == len(set(fps))


def test_canonical_form_kills_relabeling():
    m1 = ((1, 1), (1, 0))
    m2 = ((1, 0), (1, 1))
    swap = lambda m: tuple(tuple(m[1 - a][1 - b] for b in range(2))
                           for a in range(2))
    fam = MatrixFamily(2, Alphabet(("0", "1")), (m1, m2))
    relabeled = MatrixFamily(2, Alphabet(("0", "1")), (swap(m1), swap(m2)))
    assert canonical_form(fam) == canonical_form(relabeled)
    assert canonical_form(fam) == canonical_form(canonical_form(fam))


# -- Random stream ----------------------------------------------------------------

def test_random_stream_is_reproducible():
    a = random_search(2, 0.5, 40, seed=7)
    b = random_search(2, 0.5, 40, seed=7)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    assert a, "seed 7 should produce at least one valid family"
    for rec in a:
        prov = dict(rec.provenance)
        assert prov["source"] == "random" and prov["seed"] == 7
        assert validate_family(rec.family).ok
        assert rec.value >= -1e-12


def _tuple_sampler_search(size, density, trials, seed, rank):
    """(trial, family) of each survivor, by the sampler random_search had
    before it drew row bitmasks: tuple-of-tuples matrices, each candidate
    built and validated."""
    alphabet = Alphabet(tuple(str(i) for i in range(size)))
    rng = random.Random(seed)
    found = []
    for trial in range(trials):
        combo = []
        for _ in range(rank):
            mat = [[1 if rng.random() < density else 0 for _ in range(size)]
                   for _ in range(size)]
            for row in mat:
                if not any(row):
                    row[rng.randrange(size)] = 1
            combo.append(tuple(tuple(row) for row in mat))
        family = MatrixFamily(rank, alphabet, combo)
        if family.is_valid:
            found.append((trial, family))
    return found


@settings(deadline=None)
@given(size=st.integers(2, 4),
       density=st.floats(0, 1, exclude_min=True, exclude_max=True),
       rank=st.integers(2, 3), seed=st.integers(0, 2 ** 32),
       trials=st.integers(0, 200))
def test_mask_sampler_gives_the_tuple_sampler_records(size, density, rank,
                                                      seed, trials):
    records = random_search(size, density, trials, seed, rank=rank)
    assert [(dict(r.provenance)["trial"], r.family) for r in records] \
        == _tuple_sampler_search(size, density, trials, seed, rank)


def test_rejected_candidates_build_no_family(monkeypatch):
    built = []

    class Counted(MatrixFamily):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gapsearch, "MatrixFamily", Counted)
    # the benchmark's random job: 300 size-4 candidates, none survives
    assert random_search(4, 0.5, 300, seed=11) == []
    assert built == []
    # at rank 2 there is no C3, so every family built is a record
    assert len(random_search(3, 0.3, 200, seed=5)) == len(built) > 10


def test_pair_test_agrees_with_the_witness_search():
    # every ordered pair of 3-letter matrices without a zero row
    rows = list(itertools.product((0, 1), repeat=3))[1:]
    masks = [bit_rows(m) for m in itertools.product(rows, repeat=3)]
    agree = [commutes(si, sj) == (commutation_witness(si, sj) is None)
             == commutes(sj, si) for si in masks for sj in masks]
    assert len(agree) == 343 ** 2 and all(agree)
    assert 0 < sum(map(commutes, masks, masks[1:] + masks[:1])) < 343


def test_random_density_guard():
    with pytest.raises(ValueError):
        random_search(2, 0.0, 5, seed=1)
    with pytest.raises(ValueError):
        random_search(2, 1.0, 5, seed=1)


# -- Output ------------------------------------------------------------------------

def test_sorted_records_are_stable():
    records = random_search(2, 0.5, 30, seed=3)
    shuffled = records[:]
    random.Random(0).shuffle(shuffled)
    assert sorted_records(shuffled) == sorted_records(records)


def test_summary_fields():
    records = exhaustive_search(2)
    summary = summarize(records, attempts=256)
    assert summary["count"] == 22
    assert summary["min_gap"] == approx(0.0, abs=1e-12)
    assert summary["max_gap"] == approx(0.0, abs=1e-12)
    assert summary["histogram"] == {"0.000000": 22} or \
        sum(summary["histogram"].values()) == 22
    assert summary["attempts"] == 256
    assert summary["valid_rate"] == approx(22 / 256)
    empty = summarize([])
    assert empty["count"] == 0 and empty["min_gap"] is None


def test_csv_round_trip():
    records = exhaustive_search(2)
    header = record_csv_header(2)
    assert header == ["fingerprint", "alphabet_size", "matrices",
                      "r1", "r2", "r_prod", "gap"]
    for rec in records[:5]:
        row = record_csv_row(rec)
        assert len(row) == len(header)
        rebuilt = family_from_csv_row(row, 2)
        assert rebuilt == rec.family
        assert family_fingerprint(rebuilt) == rec.fingerprint
