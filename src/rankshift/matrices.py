"""Families of commuting 0-1 transition matrices and their exact arithmetic.

A rank-r family is a tuple (M_1, ..., M_r) of 0-1 matrices over a common
alphabet.  Validity means: every M_i is nonzero, has no all-zero row
(every letter has a successor in every direction), the matrices pairwise
commute with 0-1 products (unique square filling), and for rank >= 3 the
two orders of completing a unit cube from a three-step chain agree.

Counts are exact Python integers throughout; spectral radii go through a
renormalized repeated-squaring loop in float, which is robust to
reducible, periodic and nilpotent inputs.  The loop's schedule is 64
squarings; once the normalized iterate repeats, the remaining steps
replay the stored logs of its norms instead of squaring again, which
gives the same float result bit for bit.

Families are constructed unvalidated.  The validation report and the
square-completion tables (read through MatrixFamily.completion) are built
on first use and cached in the family's instance dict, which is why
MatrixFamily is a class and not a NamedTuple like Violation and
ValidationReport; all types are immutable, every operation pure.
"""

import json
import math
from functools import cached_property
from itertools import combinations, permutations
from operator import mul
from typing import NamedTuple

from .budget import DEFAULT as DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    InvalidFamilyError,
    NegativeEntryError,
    NotSquareError,
    RadiusUnderflowError,
    ShapeMismatchError,
    ZeroDirectionError,
)
from .shapes import Shape


# -- Exact integer matrices (tuples of tuples) -------------------------------

def matrix_identity(dim):
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def matrix_mul(a, b):
    dim_inner = len(b)
    cols = range(len(b[0])) if b else ()
    bt = tuple(tuple(b[i][j] for i in range(dim_inner)) for j in cols)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matrix_power(m, k):
    """k-th power by repeated squaring, exact, as a tuple of tuples; m^1
    is m itself, no product."""
    if k < 0:
        raise ValueError("negative power")
    if not k:
        return matrix_identity(len(m))
    base, result = tuple(map(tuple, m)), None
    while True:
        if k & 1:
            result = base if result is None else matrix_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = matrix_mul(base, base)


def mask_bits(mask):
    """Indices of the set bits of a row bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# entry bytes 0 and 1 become the digits "0" and "1", any other byte "x"
_BINARY_DIGITS = b"01" + b"x" * 254


def bit_rows(m):
    """Row bitmasks of a 0-1 matrix, built in C: bit b of row a is m[a][b].
    ValueError or TypeError for an entry that is not an integer 0 or 1."""
    return tuple(int(bytes(row[::-1]).translate(_BINARY_DIGITS), 2)
                 for row in m)


def _image(rows, mask):
    """Union and summed sizes of rows[c] over the set bits c of mask."""
    union = size = 0
    while mask:
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        union |= row
        size += row.bit_count()
        mask ^= low
    return union, size


# -- Alphabet and family ------------------------------------------------------

class Alphabet(tuple):
    """The letters, as strings: a tuple, equal to the plain tuple of them."""
    __slots__ = ()

    def __new__(cls, letters):
        alphabet = tuple.__new__(cls, map(str, letters))
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        return alphabet

    @property
    def letters(self):
        """The letters as a plain tuple."""
        return tuple(self)


class Violation(NamedTuple):
    code: str
    witness: tuple  # ordered (key, value) pairs, JSON-friendly

    def to_json(self):
        return {"code": self.code, "witness": dict(self.witness)}


class ValidationReport(NamedTuple):
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        if self.ok:
            return {"status": "valid"}
        return {
            "status": "invalid",
            "violations": [v.to_json() for v in self.violations],
        }


class MatrixFamily:
    """rank, alphabet and matrices, each matrix a tuple of row tuples;
    immutable, equal and hashed by those three fields.  Not a tuple: the
    cached properties below are kept in the instance dict."""

    def __init__(self, rank, alphabet, matrices):
        vars(self).update(
            rank=rank, alphabet=alphabet,
            matrices=tuple(tuple(tuple(row) for row in m) for m in matrices))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank, self.alphabet, self.matrices)
                == (other.rank, other.alphabet, other.matrices))

    def __hash__(self):
        return hash((self.rank, self.alphabet, self.matrices))

    @property
    def dim(self):
        return len(self.alphabet)

    @cached_property
    def validation(self):
        return validate_family(self)

    # The 0-1 structure, built once per family and read by every layer;
    # meaningful once validation's structure stage (squares: C1/C2) passed.

    @cached_property
    def succ(self):
        """Row bitmasks: bit b of succ[j][a] is M_j(a, b)."""
        return tuple(map(bit_rows, self.matrices))

    @cached_property
    def lists(self):
        """Successor index lists: lists[j][a], the bits of succ[j][a]."""
        return tuple(tuple(tuple(mask_bits(row)) for row in rows)
                     for rows in self.succ)

    @cached_property
    def squares(self):
        """Completion tables by direction pair (s, t); read via completion."""
        lists = self.lists
        return {(s, t): _completion_table(lists, s, t)
                for s, t in permutations(range(self.rank), 2)}

    def completion(self, s, t, p0, p2):
        """The letter x on the path p0 -(t)-> x -(s)-> p2, None if none."""
        return self.squares[s, t].get(p0 * self.dim + p2)

    @property
    def is_valid(self):
        return self.validation.ok

    def __repr__(self):
        return f"MatrixFamily(rank={self.rank}, letters={self.alphabet.letters})"


def require_valid(family):
    report = family.validation
    if not report.ok:
        raise InvalidFamilyError(
            "family failed validation",
            violations=[v.to_json() for v in report.violations],
        )


def require_rank(family, l):
    """ShapeMismatch unless the shape has the family's rank: a shape of
    another rank never reaches Shape arithmetic or a zip over the
    matrices."""
    if l.rank != family.rank:
        raise ShapeMismatchError("shape rank does not match family rank",
                                 shape=list(l), family_rank=family.rank)


# -- Validation ---------------------------------------------------------------

def validate_family(family):
    """Run all validity checks, in stages; later stages presuppose earlier
    ones, so checking stops after the first stage that found violations.

    Witnesses index matrices 1-based (as in M_1 .. M_r) and letters 0-based.
    """
    violations = []
    dim = len(family.alphabet)

    # structure: rank, squareness, binary entries; a matrix whose bit rows
    # cannot be built is scanned for its first cell that is not an int 0 or 1.
    if family.rank < 1 or len(family.matrices) != family.rank:
        violations.append(Violation("ShapeMismatch", (
            ("rank", family.rank), ("matrices", len(family.matrices)))))
    succ = []
    for i, m in enumerate(family.matrices, start=1):
        if len(m) != dim or any(len(row) != dim for row in m):
            violations.append(Violation("ShapeMismatch", (
                ("i", i), ("rows", len(m)), ("dim", dim))))
            continue
        try:
            succ.append(bit_rows(m))
        except (TypeError, ValueError):
            a, b = next(
                (a, b) for a in range(dim) for b in range(dim)
                if not isinstance(m[a][b], int) or m[a][b] not in (0, 1))
            violations.append(Violation("NonBinaryEntry", (
                ("i", i), ("row", a), ("col", b), ("value", m[a][b]))))
    if violations:
        return ValidationReport(tuple(violations))

    # C0 / NS: nonzero matrices, no all-zero rows
    for i, rows in enumerate(succ, start=1):
        if all(rows):
            continue
        if not any(rows):
            violations.append(Violation("ZeroMatrix", (("i", i),)))
            continue
        for a, row in enumerate(rows):
            if not row:
                violations.append(Violation("NoSources", (("i", i), ("row", a))))
    if violations:
        return ValidationReport(tuple(violations))

    # C1 / C2: commutation with 0-1 products; one witness per pair, first
    # offending cell in row-major order
    for i, j in combinations(range(family.rank), 2):
        if not commutes(succ[i], succ[j]):
            a, b, p = commutation_witness(succ[i], succ[j])
            violations.append(Violation("UniqueFactorizationViolation", (
                ("i", i + 1), ("j", j + 1), ("row", a), ("col", b),
                ("count", p))))
    if violations:
        return ValidationReport(tuple(violations))

    # C3 (rank >= 3): both orders of completing the unit cube from a chain
    # a -(i)-> b -(j)-> c -(k)-> d must label all eight corners identically.
    # C1+C2 do not force this: families/cube_fail.json passes them pairwise
    # and fails here, with 8 words of shape (1,1,1) against 10 in M1 M2 M3.
    # One order per direction triple decides all six.  Given C1/C2, the
    # swap s1 of a chain's first two edges and the swap s2 of its last two
    # are involutive bijections between chains, and the check for (i, j, k)
    # says s1 s2 s1 = s2 s1 s2, that is (s1 s2)^3 = id, on the (i, j, k)
    # chains.  For a (j, i, k) chain s1(c), (s1 s2)^3 s1(c) = s1 (s2 s1)^3 c
    # = s1 (s1 s2)^-3 c = s1(c), and likewise through s2 for (i, k, j): the
    # check passes for every order one adjacent swap away, so for all six.
    # Only a failing triple is rescanned in every order, for the witnesses.
    if family.rank >= 3:
        lists, squares = family.lists, family.squares
        failed = {t for t in combinations(range(family.rank), 3)
                  if _check_cubes(lists, squares, *t) is not None}
        for i, j, k in permutations(range(family.rank), 3):
            if tuple(sorted((i, j, k))) in failed:
                v = _check_cubes(lists, squares, i, j, k)
                if v is not None:
                    violations.append(v)
    return ValidationReport(tuple(violations))


def commutes(si, sj):
    """C1/C2 for one pair on row bitmasks: whether M_i M_j = M_j M_i with
    0-1 entries, decided row by row, with no cell scan.

    Row a of M_i M_j sums the M_j rows over succ_i(a).  The two products
    share a 0-1 row a exactly when those rows are pairwise disjoint, so
    are the M_i rows over succ_j(a), and the two unions agree."""
    for x, y in zip(si, sj):
        image = _image(sj, x)
        if image != _image(si, y) or image[1] != image[0].bit_count():
            return False
    return True


def commutation_witness(si, sj):
    """First cell (a, b, p), row-major, where M_i M_j exceeds 1 or differs
    from M_j M_i, with p = (M_i M_j)(a, b); None when there is none.  A
    cell scan, run only for a pair that fails commutes."""
    for a, (x, y) in enumerate(zip(si, sj)):
        for b in range(len(si)):
            p = sum(sj[c] >> b & 1 for c in mask_bits(x))
            if p > 1 or p != sum(si[c] >> b & 1 for c in mask_bits(y)):
                return a, b, p
    return None


def _not_unique():
    # unreachable once C1/C2 passed: each (M_s M_t)(p0, p2) is then 0 or 1
    # and equals (M_t M_s)(p0, p2)
    return AssertionError("square filling not unique after C1/C2")


def _completion_table(lists, s, t):
    """The square completions along t then s that exist: key p0*dim + p2
    holds the x on the path p0 -(t)-> x -(s)-> p2.  A path p0 -(s)-> p1
    -(t)-> p2 reads the missing corner p0 + e_t of its square there."""
    dim = len(lists[s])
    table = {}
    for p0, row in enumerate(lists[t]):
        base = p0 * dim
        for x in row:
            for p2 in lists[s][x]:
                if base + p2 in table:
                    raise _not_unique()
                table[base + p2] = x
    return table


def _check_cubes(lists, tables, i, j, k):
    """First cube-consistency violation for the ordered triple (i, j, k),
    chains a -(i)-> b -(j)-> c -(k)-> d in ascending order.  Each corner is
    one read of a completion table; a missing key is refused."""
    ij, ik, jk = tables[i, j], tables[i, k], tables[j, k]
    succ_j, succ_k = lists[j], lists[k]
    dim = len(succ_j)
    try:
        for a, row in enumerate(lists[i]):
            at = a * dim
            for b in row:
                bt = b * dim
                for c in succ_j[b]:
                    x = ij[at + c]                # corner e_j
                    xt = x * dim
                    for d in succ_k[c]:
                        z_a = ik[xt + d]          # corner e_j + e_k
                        w_a = jk[at + z_a]        # corner e_k, first order
                        y = jk[bt + d]            # corner e_i + e_k
                        w_b = ik[at + y]          # corner e_k, second order
                        z_b = ij[w_b * dim + d]   # corner e_j + e_k again
                        if w_a != w_b or z_a != z_b:
                            return Violation("CubeInconsistency", (
                                ("i", i + 1), ("j", j + 1), ("k", k + 1),
                                ("chain", [a, b, c, d]),
                                ("first_order", [x, z_a, w_a]),
                                ("second_order", [y, w_b, z_b])))
    except KeyError:  # no completion
        raise _not_unique() from None
    return None


# -- Powers, counts, radii ----------------------------------------------------

def _digits_estimate(family, total):
    """Upper bound on decimal digits of entries of the power product M^l
    of a shape l with l.total = total."""
    return total * math.log10(max(len(family.alphabet), 2)) + 1


def _check_exact(family, l, budget):
    """The guards of the exact routes: a valid family, a shape of its rank
    and entries within the digit budget."""
    require_valid(family)
    require_rank(family, l)
    budget = budget or DEFAULT_BUDGET
    est = _digits_estimate(family, l.total)
    if est > budget.max_exact_digits:
        raise BudgetExceededError(
            "exact power product too large",
            estimated_digits=est, max_exact_digits=budget.max_exact_digits)


def matrix_powers(family, l, budget=None):
    """[M_1^{l_1}, ..., M_r^{l_r}] and their product, exact, each power
    formed once, after the guards.  Order does not matter for a valid
    family; the ascending-direction order used here is the canonical one."""
    _check_exact(family, l, budget)
    powers = list(map(matrix_power, family.matrices, l))
    out = None
    for power, e in zip(powers, l):
        if e:
            out = power if out is None else matrix_mul(out, power)
    return powers, matrix_identity(len(family.alphabet)) if out is None else out


def matrix_power_product(family, l, budget=None):
    """M_1^{l_1} ... M_r^{l_r}, exact (matrix_powers)."""
    return matrix_powers(family, l, budget)[1]


def _step_vector(lists, l, v):
    """M^l v, exact: v takes one unit step at a time, v <- M_j v, over
    the family's successor lists."""
    for succ_lists, e in zip(lists, l):
        for _ in range(e):
            get = v.__getitem__
            v = [sum(map(get, succ)) for succ in succ_lists]
    return v


def origin_counts(family, l, budget=None):
    """M^l e, exact: entry a counts the words of shape l with origin
    letter a.  The all-ones vector takes one unit step at a time, at a
    cost quadratic in the length; past 8 dim^2 steps, where the routes
    cross (measured), the row sums of matrix_power_product are cheaper."""
    _check_exact(family, l, budget)
    dim = len(family.alphabet)
    if l.total > 8 * dim * dim:
        return [sum(row) for row in matrix_power_product(family, l, budget)]
    return _step_vector(family.lists, l, [1] * dim)


def word_count(family, l, budget=None):
    """Number of words of shape l: <e, M^l e>, exact."""
    return sum(origin_counts(family, l, budget))


def _float_mul(a, b):
    """Product of two float matrices, each entry an fsum."""
    bt = list(zip(*b))
    return [[math.fsum(map(mul, row, col)) for col in bt] for row in a]


def log_word_count(family, l, budget=None):
    """Natural log of the word count.

    Returns (value, exact): exact means the count was computed as a big
    integer and logged directly (math.log of a Python int is correctly
    rounded at any size, well beyond 12 digits).  Above the digit guard the
    product is redone in float with per-step renormalization and the result
    is flagged exact=False.
    """
    require_valid(family)
    require_rank(family, l)
    budget = budget or DEFAULT_BUDGET
    if _digits_estimate(family, l.total) <= budget.max_exact_digits:
        return math.log(word_count(family, l, budget)), True

    dim = len(family.alphabet)
    prod = [[float(x) for x in row] for row in matrix_identity(dim)]
    prod_log = 0.0

    def renorm(m):
        top = max(max(row) for row in m)
        return [[x / top for x in row] for row in m], math.log(top)

    for m, e in zip(family.matrices, l):
        base = [[float(x) for x in row] for row in m]
        base_log = 0.0
        while e:
            if e & 1:
                prod, mu = renorm(_float_mul(prod, base))
                prod_log += base_log + mu
            e >>= 1
            if e:
                base, mu = renorm(_float_mul(base, base))
                base_log = 2.0 * base_log + mu
    total = math.fsum(math.fsum(row) for row in prod)
    return prod_log + math.log(total), False


def log_word_count_series(family, base, step, n_max, budget=None):
    """log_word_count of the shapes base + n*step for n = 1..n_max, as a
    list of (value, exact) pairs equal to the per-stage calls.

    Stages under the digit guard carry one exact vector, v_n = M^step
    v_{n-1} with v_1 = origin_counts of the first shape, so each exact
    stage costs step.total unit steps of a vector; the counts are the same
    integers, hence the same logs.  The guard reads the stage's total,
    base.total + n*step.total, so no Shape is built per stage: only the
    first exact stage and each stage over the guard build theirs.  The
    steps read the family's successor lists.  Stages over the guard take
    log_word_count's float route, one by one.  M^step itself is never
    formed: its product costs O(r dim^3), more than the stages save on
    large alphabets.
    """
    require_valid(family)
    budget = budget or DEFAULT_BUDGET
    out = []
    counts = None
    base_total, step_total = base.total, step.total
    for n in range(1, n_max + 1):
        total = base_total + n * step_total
        if _digits_estimate(family, total) > budget.max_exact_digits:
            out.append(log_word_count(family, base + step.scaled(n), budget))
            continue
        if counts is None:
            counts = origin_counts(family, base + step.scaled(n), budget)
        else:
            counts = _step_vector(family.lists, step, counts)
        out.append((math.log(sum(counts)), True))
    return out


def spectral_radius(m):
    """Spectral radius of a square nonnegative matrix (integer or float
    entries; exact big integers welcome): float_radius of
    log_spectral_radius, so math.inf once the radius leaves float range
    and 0.0 for a nilpotent matrix."""
    return float_radius(log_spectral_radius(m))


def float_radius(log_radius):
    """The radius of a log radius as a float: math.inf from 700 on."""
    return math.exp(log_radius) if log_radius < 700 else math.inf


def radius_log(log_radius):
    """The reported log of a radius: the log of its finite float_radius
    (its last bits reach printed digits), else log_radius itself."""
    radius = float_radius(log_radius)
    if radius == math.inf:
        return log_radius
    return math.log(radius) if radius else -math.inf


def log_spectral_radius(m):
    """Natural log of the spectral radius of a square nonnegative matrix;
    -inf for a nilpotent matrix.  Never overflows: the radius itself is
    never formed.

    Computed as lim log ||m^(2^s)|| / 2^s by repeated squaring with
    log-domain renormalization, max-row-sum norm.  No irreducibility is
    assumed: reducible, periodic and nilpotent matrices all behave.  The
    schedule is always 64 squarings, each adding log(mu_s) / 2^s: the
    estimates decrease to the radius but can stall for a step (||M^4|| =
    ||M^2||^2 happens for honest primitive matrices), so a
    successive-difference stop would return early and wrong.  At s = 64
    the subdominant and polynomial parts contribute less than machine
    epsilon, leaving the radius within 1e-10 of its true value for inputs
    of moderate size.

    Each squaring is a fixed function of the normalized iterate, so once
    the iterate equals the one `period` steps earlier (found by Brent's
    cycle check against the iterate saved at steps 0, 1, 2, 4, 8, ...),
    every later log(mu_s) is the one `period` steps back.  Those are
    replayed from the list instead of recomputed: the same floats enter
    the same additions in the same order, so the result is bit for bit
    that of 64 full squarings.

    If the normalized iterate underflows to a nilpotent float matrix, the
    input is decided exactly: -inf when it is nilpotent, otherwise
    RadiusUnderflow.
    """
    dim = len(m)
    if dim == 0 or any(len(row) != dim for row in m):
        raise NotSquareError("matrix must be square and nonempty")
    if any(x < 0 for row in m for x in row):
        raise NegativeEntryError("matrix entries must be nonnegative")

    norm0 = max(sum(row) for row in m)
    if norm0 == 0:
        return -math.inf
    # big-int / big-int division is correctly rounded, so this scaling is
    # safe even when entries far exceed float range
    cur = [[x / norm0 for x in row] for row in m]
    acc = math.log(norm0)
    logs, saved, saved_at, period = [], cur, 0, 0
    for s in range(1, 65):
        if not period:
            nxt = _float_mul(cur, cur)
            mu = max(math.fsum(row) for row in nxt)
            if mu == 0.0:
                # m is nilpotent exactly when the pattern of its positive
                # entries has no path of length dim, i.e. no cycle
                pattern = [[x > 0 for x in row] for row in m]
                if any(map(any, matrix_power(pattern, dim))):
                    raise RadiusUnderflowError(
                        "the normalized power underflowed, but the matrix "
                        "is not nilpotent", step=s)
                return -math.inf
            cur = [[x / mu for x in row] for row in nxt]
            logs.append(math.log(mu))
            if cur == saved:
                period = s - saved_at
            elif s & (s - 1) == 0:
                saved, saved_at = cur, s
        else:
            logs.append(logs[-period])
        acc += logs[-1] / (1 << s)
    return acc


def entropy_exact(family, p, budget=None):
    """log of the spectral radius of M^p: the entropy of the direction-p
    shift on the validated family.  Taken in the log domain and reported
    by radius_log, so it stays finite for any p whose exact power product
    fits the budget."""
    require_valid(family)
    require_rank(family, p)
    if p.is_zero:
        raise ZeroDirectionError("direction vector must be nonzero")
    return radius_log(
        log_spectral_radius(matrix_power_product(family, p, budget)))


# -- Serialization ------------------------------------------------------------

def family_to_dict(family):
    return {
        "rank": family.rank,
        "alphabet": list(family.alphabet),
        "matrices": [[list(row) for row in m] for m in family.matrices],
    }


def _exact_int(x, what):
    """The rank or a matrix entry as loaded: an exact integer, never a
    bool, float or string, so that validation sees what the file says."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _int_row(row):
    """A matrix row as loaded, kept as it is when its entry types, checked
    in C, are all int; any other row is scanned entry by entry, so that
    the error names its first entry that is not an exact integer.
    MatrixFamily makes the rows tuples."""
    if set(map(type, row)) <= {int}:
        return row
    return tuple(_exact_int(x, "matrix entry") for x in row)


def family_from_dict(data):
    try:
        rank = _exact_int(data["rank"], "rank")
        letters = data["alphabet"]
        if type(letters) is not list or any(type(x) is not str for x in letters):
            raise ValueError(f"alphabet {letters!r} is not a list of strings")
        alphabet = Alphabet(letters)
        matrices = tuple(tuple(map(_int_row, m)) for m in data["matrices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed family data: {exc}") from exc
    return MatrixFamily(rank=rank, alphabet=alphabet, matrices=matrices)


def load_family(path):
    with open(path, encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))


def canonical_family_json(family):
    """Canonical serialization used for fingerprints."""
    return json.dumps(family_to_dict(family), sort_keys=True,
                      separators=(",", ":"))
