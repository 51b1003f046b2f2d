"""Validation, exact counting, spectral radii, exact entropy.

Core claims:
    - the golden-mean counts follow the Fibonacci recurrence (frozen values)
    - validation flags the known bad families with exact codes and witnesses;
      a family valid on every pair can still fail C3, and then its word
      count leaves the entry sum of M_1 M_2 M_3; C3 decided on one order
      per direction triple lists the violations a scan of all six orders
      lists, under any order of directions and letters
    - matrix_power_product is exact and factor-order independent
    - spectral_radius matches bisection roots of the characteristic
      polynomials for golden and plastic matrices and is exact on trivia
    - a radius lost to float underflow is a coded RadiusUnderflow unless
      the matrix is nilpotent, which still reads 0.0
    - entropy_exact reproduces log phi / log 2 / additive tensor values,
      and stays finite when the radius of M^p leaves float range; below
      exp's range a reported log radius is the log of the float radius
    - the counting inequalities w_l <= w_{l+m} <= |B| w_l w_m hold
    - an Alphabet is the tuple of its letters, and its length runs in C
"""

import copy
import itertools
import math
import pickle
import random
import re
import sys
from pathlib import Path

import pytest
from pytest import approx

from rankshift.budget import Budget
from rankshift.errors import (
    BudgetExceededError,
    InvalidFamilyError,
    RadiusUnderflowError,
    ShapeMismatchError,
    ZeroDirectionError,
)
from rankshift.matrices import (
    Alphabet,
    MatrixFamily,
    _check_cubes,
    canonical_family_json,
    entropy_exact,
    family_from_dict,
    family_to_dict,
    load_family,
    log_spectral_radius,
    matrix_identity,
    matrix_mul,
    log_word_count,
    matrix_power_product,
    radius_log,
    require_valid,
    spectral_radius,
    validate_family,
    word_count,
)
from rankshift.families import golden_mean, tensor_product
from rankshift.shapes import Shape

FAMILIES = Path(__file__).resolve().parent.parent / "families"


# -- Independent oracles -------------------------------------------------------

def _fib_counts(n):
    """Word counts of the golden-mean shift by direct recurrence:
    w_0 = 2, w_1 = 3, w_l = w_{l-1} + w_{l-2}."""
    counts = [2, 3]
    while len(counts) <= n:
        counts.append(counts[-1] + counts[-2])
    return counts[: n + 1]


def _bisect_root(poly, lo, hi, steps=200):
    for _ in range(steps):
        mid = (lo + hi) / 2
        if poly(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


PHI = _bisect_root(lambda x: x * x - x - 1, 1.0, 2.0)
PLASTIC = _bisect_root(lambda x: x ** 3 - x - 1, 1.0, 2.0)


# -- Counting ------------------------------------------------------------------

def test_golden_counts_are_fibonacci(g1):
    frozen = [2, 3, 5, 8, 13, 21, 34]
    assert _fib_counts(6) == frozen
    for l, expected in enumerate(frozen):
        assert word_count(g1, Shape.of(l)) == expected


def test_full_shift_counts(g2):
    assert word_count(g2, Shape.of(2)) == 8
    assert word_count(g2, Shape.of(10)) == 2 ** 11


def test_power_product_examples(g1, g4):
    assert matrix_power_product(g1, Shape.of(3)) == ((3, 2), (2, 1))
    assert matrix_power_product(g1, Shape.of(0)) == ((1, 0), (0, 1))
    eye3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert matrix_power_product(g4, Shape.of(5, 7)) == eye3
    assert word_count(g4, Shape.of(5, 7)) == 3


def test_tensor_counts_factor(g1, g3):
    for a in range(4):
        for b in range(4):
            assert word_count(g3, Shape.of(a, b)) == \
                word_count(g1, Shape.of(a)) * word_count(g1, Shape.of(b))


def test_factor_order_independence(g3):
    from rankshift.matrices import matrix_mul, matrix_power
    m1, m2 = g3.matrices
    ordered = matrix_power_product(g3, Shape.of(2, 3))
    swapped = matrix_mul(matrix_power(m2, 3), matrix_power(m1, 2))
    assert ordered == swapped


def _count_products(monkeypatch):
    from rankshift import matrices
    calls = []
    real = matrices.matrix_mul

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(matrices, "matrix_mul", counted)
    return calls


def test_powers_take_no_identity_products(monkeypatch, g3):
    from rankshift.matrices import matrix_mul, matrix_power
    m = g3.matrices[0]
    square = matrix_mul(m, m)
    fourth = matrix_mul(square, square)
    calls = _count_products(monkeypatch)
    assert matrix_power(m, 1) == m and not calls
    assert matrix_power(m, 4) == fourth and len(calls) == 2
    assert matrix_power(m, 0) == matrix_identity(4)
    for rank in (1, 2, 3, 4):
        # the swap of two letters commutes with itself: a valid family
        family = MatrixFamily(rank, Alphabet(("0", "1")),
                              (((0, 1), (1, 0)),) * rank)
        calls.clear()
        matrix_power_product(family, Shape.cube(1, rank))
        assert len(calls) == rank - 1
    calls.clear()
    assert matrix_power_product(g3, Shape.of(0, 0)) == matrix_identity(4)
    assert matrix_power_product(g3, Shape.of(0, 1)) == g3.matrices[1]
    assert not calls


def test_matrix_power_returns_tuples():
    # the nilpotent check in log_spectral_radius passes a list of bools
    from rankshift.matrices import matrix_power
    pattern = [[False, True], [False, False]]
    for k in range(4):
        power = matrix_power(pattern, k)
        assert type(power) is tuple
        assert all(type(row) is tuple for row in power)
    assert matrix_power(pattern, 1) == ((0, 1), (0, 0))
    assert matrix_power(pattern, 2) == ((0, 0), (0, 0))
    assert log_spectral_radius(pattern) == -math.inf


def test_exact_digit_budget():
    tight = Budget(max_exact_digits=10)
    with pytest.raises(BudgetExceededError):
        matrix_power_product(golden_mean(), Shape.of(200), tight)
    with pytest.raises(BudgetExceededError):
        entropy_exact(golden_mean(), Shape.of(3000), tight)
    assert entropy_exact(golden_mean(), Shape.of(3), tight) == (
        entropy_exact(golden_mean(), Shape.of(3)))


def test_shape_of_another_rank_is_shape_mismatch(g3):
    # the float route of log_word_count used to zip the matrices with the
    # shape and drop the surplus directions
    tight = Budget(max_exact_digits=1)
    for call in (lambda: entropy_exact(g3, Shape.of(1)),
                 lambda: word_count(g3, Shape.of(1, 1, 1)),
                 lambda: matrix_power_product(g3, Shape.of(2)),
                 lambda: log_word_count(g3, Shape.of(1)),
                 lambda: log_word_count(g3, Shape.of(50), tight)):
        with pytest.raises(ShapeMismatchError) as info:
            call()
        assert info.value.details["family_rank"] == 2


def test_log_word_count_fallback_matches_exact(g1):
    shape = Shape.of(60)
    exact_log, was_exact = log_word_count(g1, shape)
    assert was_exact
    tight = Budget(max_exact_digits=5)
    approx_log, was_exact2 = log_word_count(g1, shape, tight)
    assert not was_exact2
    assert approx_log == approx(exact_log, abs=1e-9)


# -- Validation ----------------------------------------------------------------

def test_valid_families(g1, g2, g3, g4):
    for fam in (g1, g2, g3, g4):
        report = validate_family(fam)
        assert report.ok
        assert report.to_json() == {"status": "valid"}


def test_rank3_tensor_passes_cube_check(g1):
    triple = tensor_product(tensor_product(g1, g1), g1)
    assert triple.rank == 3
    assert validate_family(triple).ok


def _brute_force_count(family, shape):
    """Labelings of box(shape) with every unit step allowed, by trying all
    of them: needs no validity, unlike enumerate_words."""
    points = list(shape.box())
    place = {pt: t for t, pt in enumerate(points)}
    edges = [(place[pt], place[pt[:j] + (pt[j] + 1,) + pt[j + 1:]], m)
             for pt in points for j, m in enumerate(family.matrices)
             if pt[j] < shape[j]]
    return sum(all(m[labels[a]][labels[b]] for a, b, m in edges)
               for labels in itertools.product(range(family.dim),
                                               repeat=len(points)))


def test_pairwise_valid_family_can_fail_the_cube_check():
    # C1 and C2 on every pair do not imply C3: the cube check is needed
    family = load_family(FAMILIES / "cube_fail.json")
    report = validate_family(family)
    assert report.to_json()["status"] == "invalid"
    assert [v.code for v in report.violations] == ["CubeInconsistency"] * 6
    first = dict(report.violations[0].witness)
    assert [first[key] for key in "ijk"] == [1, 2, 3]
    assert first["chain"] == [2, 0, 0, 0]
    for pair in itertools.combinations(family.matrices, 2):
        assert validate_family(MatrixFamily(2, family.alphabet, pair)).ok
    # and without C3 the word count leaves the entry sum of the product
    assert _brute_force_count(family, Shape.of(1, 1, 1)) == 8
    m1, m2, m3 = family.matrices
    assert sum(map(sum, matrix_mul(matrix_mul(m1, m2), m3))) == 10


def _six_order_scan(family):
    """C3 violations from every ordered direction triple, each scanned."""
    return [v for order in itertools.permutations(range(family.rank), 3)
            if (v := _check_cubes(family.lists, family.squares, *order))]


def _relabel(family, directions, letters):
    """family with matrix directions[i] as direction i and letter a renamed
    letters[a]."""
    dim = family.dim
    inverse = sorted(range(dim), key=letters.__getitem__)
    return MatrixFamily(family.rank, Alphabet(range(dim)), tuple(
        tuple(tuple(family.matrices[d][inverse[a]][inverse[b]]
                    for b in range(dim)) for a in range(dim))
        for d in directions))


def test_one_order_per_triple_decides_the_cube_check():
    # given C1/C2, a triple that passes in one order passes in all six, so
    # validation scans the other orders only of a failing triple
    cube_fail = load_family(FAMILIES / "cube_fail.json")
    rng = random.Random(3)
    families = [tensor_product(cube_fail, golden_mean()),
                tensor_product(golden_mean(), cube_fail)]
    for directions in itertools.permutations(range(3)):
        letters = list(range(cube_fail.dim))
        families.append(_relabel(cube_fail, directions, letters))
        rng.shuffle(letters)
        families.append(_relabel(cube_fail, directions, letters))
    for family in families:
        violations = validate_family(family).violations
        assert len(violations) == 6
        assert list(violations) == _six_order_scan(family)


def test_unique_factorization_violation():
    fam = MatrixFamily(2, Alphabet(("0", "1")),
                       (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    report = validate_family(fam)
    assert not report.ok
    v = report.violations[0]
    assert v.code == "UniqueFactorizationViolation"
    assert dict(v.witness) == {"i": 1, "j": 2, "row": 0, "col": 0, "count": 2}


def test_no_sources_violation():
    fam = MatrixFamily(1, Alphabet(("0", "1")), (((0, 0), (1, 1)),))
    report = validate_family(fam)
    assert [v.code for v in report.violations] == ["NoSources"]
    assert dict(report.violations[0].witness) == {"i": 1, "row": 0}


def test_structural_violations():
    bad_shape = MatrixFamily(1, Alphabet(("0", "1")), (((1, 1),),))
    assert validate_family(bad_shape).violations[0].code == "ShapeMismatch"
    bad_entry = MatrixFamily(1, Alphabet(("0", "1")),
                             (((1, 2), (1, 1)),))
    assert validate_family(bad_entry).violations[0].code == "NonBinaryEntry"
    zero = MatrixFamily(1, Alphabet(("0",)), (((0,),),))
    assert validate_family(zero).violations[0].code == "ZeroMatrix"


def test_require_valid_raises():
    fam = MatrixFamily(1, Alphabet(("0", "1")), (((0, 0), (1, 1)),))
    with pytest.raises(InvalidFamilyError):
        require_valid(fam)


# -- Spectral radius -----------------------------------------------------------

def test_spectral_radius_trivia():
    assert spectral_radius(((1, 1), (1, 1))) == approx(2.0)
    assert spectral_radius(((1, 0), (0, 1))) == approx(1.0)
    assert spectral_radius(((0, 1), (0, 0))) == 0.0
    assert spectral_radius(((0, 0), (0, 0))) == 0.0
    assert spectral_radius(((0, 1), (1, 0))) == approx(1.0)  # periodic
    assert spectral_radius(((1, 1), (0, 1))) == approx(1.0)  # reducible


def test_spectral_radius_golden():
    assert spectral_radius(((1, 1), (1, 0))) == approx(PHI, abs=1e-10)


def test_spectral_radius_survives_norm_stall():
    # ||M^4|| = ||M^2||^2 for this primitive matrix, so an early stop on a
    # flat step would report sqrt(2) instead of the plastic number
    m = ((0, 0, 1), (1, 0, 0), (1, 1, 0))
    assert spectral_radius(m) == approx(PLASTIC, abs=1e-10)


def test_spectral_radius_power_consistency(g1):
    r = spectral_radius(g1.matrices[0])
    for k in range(1, 5):
        from rankshift.matrices import matrix_power
        assert spectral_radius(matrix_power(g1.matrices[0], k)) == \
            approx(r ** k, rel=1e-8)


def test_log_spectral_radius_is_the_log_of_the_radius():
    for m in (((1, 1), (1, 0)), ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
              ((1, 1), (0, 1)), ((2, 0), (0, 3))):
        assert spectral_radius(m) == math.exp(log_spectral_radius(m))
    assert log_spectral_radius(((1, 1), (1, 0))) == approx(math.log(PHI),
                                                           abs=1e-12)
    assert log_spectral_radius(((0, 1), (0, 0))) == -math.inf


def test_entropy_exact_beyond_float_range(g1):
    # phi^1500 is about 1e313: the radius overflows, its log does not
    power = matrix_power_product(g1, Shape.of(1500))
    assert spectral_radius(power) == math.inf
    assert entropy_exact(g1, Shape.of(1500)) == approx(1500 * math.log(PHI),
                                                       rel=1e-12)
    assert entropy_exact(g1, Shape.of(1000)) == approx(1000 * math.log(PHI),
                                                       rel=1e-12)


def test_radius_log_is_the_log_of_the_float_radius(g1):
    # the rounding through exp is real: it moves the last bits of some logs
    logs = [k / 7 for k in range(1, 100)] + [699.9]
    assert [radius_log(a) for a in logs] == [math.log(math.exp(a))
                                              for a in logs]
    assert any(radius_log(a) != a for a in logs)
    assert radius_log(702.5) == 702.5
    assert radius_log(-800.0) == radius_log(-math.inf) == -math.inf
    for n in (1, 7, 100):
        power = matrix_power_product(g1, Shape.of(n))
        assert entropy_exact(g1, Shape.of(n)) == math.log(
            spectral_radius(power))


def test_radius_underflow_is_coded_unless_nilpotent():
    # both have radius >= 1, but the normalized powers' diagonals underflow
    # and leave a strictly triangular float matrix
    unipotent = load_family(FAMILIES / "unipotent12.json").matrices[0]
    jordan = tuple(tuple(2 if a == b else int(b == a + 1) for b in range(16))
                   for a in range(16))
    for m, step in ((unipotent, 57), (jordan, 45)):
        with pytest.raises(RadiusUnderflowError) as info:
            spectral_radius(m)
        assert info.value.to_json()["details"] == {"step": step}
    # nilpotent inputs, with small and with huge entries, still read 0.0
    big = 10 ** 300
    for m in (((0, big, 1), (0, 0, big), (0, 0, 0)),
              tuple(tuple(int(b < a) for b in range(12)) for a in range(12))):
        assert log_spectral_radius(m) == -math.inf
        assert spectral_radius(m) == 0.0


def test_spectral_radius_rejects_bad_input():
    from rankshift.errors import NegativeEntryError, NotSquareError
    with pytest.raises(NotSquareError):
        spectral_radius(((1, 1),))
    with pytest.raises(NegativeEntryError):
        spectral_radius(((1, -1), (0, 1)))


# -- Entropy -------------------------------------------------------------------

def test_entropy_exact_values(g1, g2, g3, g4):
    assert entropy_exact(g1, Shape.of(1)) == approx(math.log(PHI), abs=1e-9)
    assert entropy_exact(g2, Shape.of(1)) == approx(math.log(2), abs=1e-12)
    assert entropy_exact(g3, Shape.of(1, 1)) == approx(2 * math.log(PHI), abs=1e-9)
    assert entropy_exact(g3, Shape.of(1, 0)) == approx(math.log(PHI), abs=1e-9)
    assert entropy_exact(g4, Shape.of(3, 2)) == approx(0.0, abs=1e-12)


def test_entropy_zero_direction(g1):
    with pytest.raises(ZeroDirectionError):
        entropy_exact(g1, Shape.of(0))


def test_entropy_subadditive_over_directions(g3, g4):
    for fam in (g3, g4):
        both = entropy_exact(fam, Shape.of(1, 1))
        split = entropy_exact(fam, Shape.of(1, 0)) + entropy_exact(fam, Shape.of(0, 1))
        assert both <= split + 1e-9


# -- Counting inequalities (property) --------------------------------------------

def test_count_inequalities(g1, g2, g3, g4):
    rng = random.Random(20240817)
    for fam in (g1, g2, g3, g4):
        hi = 12 if fam.rank == 1 else 4
        for _ in range(50):
            l = Shape(tuple(rng.randint(0, hi) for _ in range(fam.rank)))
            m = Shape(tuple(rng.randint(0, hi) for _ in range(fam.rank)))
            wl, wm, wlm = word_count(fam, l), word_count(fam, m), word_count(fam, l + m)
            assert wl <= wlm
            assert wlm <= len(fam.alphabet) * wl * wm


# -- Serialization ---------------------------------------------------------------

def test_family_round_trip(g3):
    data = family_to_dict(g3)
    assert family_from_dict(data) == g3
    assert canonical_family_json(g3) == canonical_family_json(family_from_dict(data))


@pytest.mark.parametrize("entry", [1.0, 1.7, True, False, "1", None])
def test_family_from_dict_rejects_inexact_entries(entry):
    data = {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[entry, 1], [1, 0]]]}
    with pytest.raises(ValueError):
        family_from_dict(data)


@pytest.mark.parametrize("row, bad", [
    ([1, 1.0, "x"], "1.0"), ([True, 1], "True"), ([1, "a", 2.0], "'a'"),
    ("ab", "'a'")])
def test_family_from_dict_names_the_first_bad_entry(row, bad):
    # rows of ints pass in one type check; others are scanned entry by entry
    data = {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[1, 1], row]]}
    with pytest.raises(ValueError, match=f"matrix entry {re.escape(bad)} is"):
        family_from_dict(data)


@pytest.mark.parametrize("rank", [1.0, 1.7, True, "1", None])
def test_family_from_dict_rejects_inexact_rank(rank):
    data = {"rank": rank, "alphabet": ["0", "1"], "matrices": [[[1, 1], [1, 0]]]}
    with pytest.raises(ValueError):
        family_from_dict(data)


def test_family_from_dict_keeps_non_binary_integers():
    # integers load as they are, so validation can name them
    data = {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[2, 1], [1, 0]]]}
    report = validate_family(family_from_dict(data))
    assert report.violations[0].code == "NonBinaryEntry"


def test_an_alphabet_is_the_tuple_of_its_letters():
    alphabet = Alphabet((1, 2))
    assert alphabet == ("1", "2") and hash(alphabet) == hash(("1", "2"))
    assert type(alphabet.letters) is tuple
    assert alphabet[1] == "2" and alphabet.index("2") == 1
    for letters in ((), ("a", "a"), (1, "1")):
        with pytest.raises(ValueError):
            Alphabet(letters)


def test_alphabet_length_runs_in_c():
    alphabet = Alphabet("abc")
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and calls.append(frame.f_code.co_name))
    try:
        size = len(alphabet)
    finally:
        sys.setprofile(None)
    assert calls == [] and size == 3


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_alphabets_survive_pickle_and_deepcopy(protocol):
    alphabet = Alphabet(("x", "y"))
    for twin in (pickle.loads(pickle.dumps(alphabet, protocol)),
                 copy.deepcopy(alphabet)):
        assert type(twin) is Alphabet and twin == alphabet
