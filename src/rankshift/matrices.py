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

Families are constructed unvalidated.  The validation report is computed
on first use and cached; all types here are immutable and every operation
is a pure function of its arguments.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .budget import DEFAULT as DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    InvalidFamilyError,
    NegativeEntryError,
    NotSquareError,
    RadiusUnderflowError,
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
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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


def _bit_rows(m):
    """Row bitmasks of a 0-1 matrix, built in C: bit b of row a is m[a][b].
    ValueError for an integer entry other than 0 or 1."""
    return tuple(int(bytes(row[::-1]).translate(_BINARY_DIGITS), 2)
                 for row in m)


def _columns(rows):
    """Column bitmasks: bit a of column b is bit b of row a."""
    return tuple(sum((row >> b & 1) << a for a, row in enumerate(rows))
                 for b in range(len(rows)))


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

@dataclass(frozen=True)
class Alphabet:
    letters: tuple

    def __post_init__(self):
        letters = tuple(str(x) for x in self.letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        object.__setattr__(self, "letters", letters)

    def index(self, letter):
        return self.letters.index(letter)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]


@dataclass(frozen=True)
class Violation:
    code: str
    witness: tuple  # ordered (key, value) pairs, JSON-friendly

    def to_json(self):
        return {"code": self.code, "witness": dict(self.witness)}


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class MatrixFamily:
    rank: int
    alphabet: Alphabet
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "matrices",
            tuple(tuple(tuple(row) for row in m) for m in self.matrices),
        )

    @property
    def dim(self):
        return len(self.alphabet)

    @cached_property
    def validation(self):
        return validate_family(self)

    @cached_property
    def masks(self):
        """Row bitmasks (succ, pred): bit b of succ[j][a] and bit a of
        pred[j][b] are set when M_j(a, b) = 1.  Meaningful once the
        structure stage of validation has passed (square 0-1 matrices)."""
        succ = tuple(map(_bit_rows, self.matrices))
        return succ, tuple(map(_columns, succ))

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


# -- Validation ---------------------------------------------------------------

def validate_family(family):
    """Run all validity checks, in stages; later stages presuppose earlier
    ones, so checking stops after the first stage that found violations.

    Witnesses index matrices 1-based (as in M_1 .. M_r) and letters 0-based.
    """
    violations = []
    dim = len(family.alphabet)

    # structure: rank, squareness, binary entries; a matrix with an entry
    # that is not an int or bool 0 or 1 is scanned for its first bad cell
    if family.rank < 1 or len(family.matrices) != family.rank:
        violations.append(Violation("ShapeMismatch", (
            ("rank", family.rank), ("matrices", len(family.matrices)))))
    succ = []
    for i, m in enumerate(family.matrices, start=1):
        if len(m) != dim or any(len(row) != dim for row in m):
            violations.append(Violation("ShapeMismatch", (
                ("i", i), ("rows", len(m)), ("dim", dim))))
            continue
        rows = None
        if set(map(type, chain.from_iterable(m))) <= {int, bool}:
            try:
                rows = _bit_rows(m)
            except ValueError:  # an integer other than 0 or 1
                pass
        if rows is None:
            bad = next(
                ((a, b) for a in range(dim) for b in range(dim)
                 if not isinstance(m[a][b], int) or m[a][b] not in (0, 1)),
                None,
            )
            if bad is not None:
                a, b = bad
                violations.append(Violation("NonBinaryEntry", (
                    ("i", i), ("row", a), ("col", b), ("value", m[a][b]))))
                continue
            rows = _bit_rows(m)  # 0s and 1s of an int subclass
        succ.append(rows)
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
    for i in range(family.rank):
        for j in range(i + 1, family.rank):
            cell = _commutation_witness(succ[i], succ[j])
            if cell is not None:
                a, b, p = cell
                violations.append(Violation("UniqueFactorizationViolation", (
                    ("i", i + 1), ("j", j + 1), ("row", a), ("col", b),
                    ("count", p))))
    if violations:
        return ValidationReport(tuple(violations))

    # C3 (rank >= 3): both orders of completing the unit cube from a chain
    # a -(i)-> b -(j)-> c -(k)-> d must label all eight corners identically.
    # Whether C1+C2 already force this is open, so it is checked outright.
    if family.rank >= 3:
        pred = tuple(map(_columns, succ))
        for i in range(family.rank):
            for j in range(family.rank):
                for k in range(family.rank):
                    if len({i, j, k}) < 3:
                        continue
                    v = _check_cubes(succ, pred, i, j, k)
                    if v is not None:
                        violations.append(v)
    return ValidationReport(tuple(violations))


def _commutation_witness(si, sj):
    """First cell (a, b, p), row-major, where M_i M_j exceeds 1 or differs
    from M_j M_i, with p = (M_i M_j)(a, b); None when there is none.

    Row a of M_i M_j sums the M_j rows over succ_i(a).  The two products
    share a 0-1 row a exactly when those rows are pairwise disjoint, so
    are the M_i rows over succ_j(a), and the two unions agree; only the
    first row that fails is scanned cell by cell."""
    for a, (x, y) in enumerate(zip(si, sj)):
        image = _image(sj, x)
        if image == _image(si, y) and image[1] == image[0].bit_count():
            continue
        for b in range(len(si)):
            p = sum(sj[c] >> b & 1 for c in mask_bits(x))
            if p > 1 or p != sum(si[c] >> b & 1 for c in mask_bits(y)):
                return a, b, p
    return None


def _check_cubes(succ, pred, i, j, k):
    """First cube-consistency violation for the ordered triple (i, j, k)."""

    def fill(s, t, p0, p2):
        # the missing corner p0 + e_t of the square on the path
        # p0 -(s)-> p1 -(t)-> p2: exactly one letter once C1/C2 passed
        cand = succ[t][p0] & pred[s][p2]
        if not cand or cand & (cand - 1):  # unreachable once C1/C2 passed
            raise AssertionError("square filling not unique after C1/C2")
        return cand.bit_length() - 1

    for a, row in enumerate(succ[i]):
        for b in mask_bits(row):
            for c in mask_bits(succ[j][b]):
                for d in mask_bits(succ[k][c]):
                    x = fill(i, j, a, c)          # corner e_j
                    z_a = fill(i, k, x, d)        # corner e_j + e_k
                    w_a = fill(j, k, a, z_a)      # corner e_k, first order
                    y = fill(j, k, b, d)          # corner e_i + e_k
                    w_b = fill(i, k, a, y)        # corner e_k, second order
                    z_b = fill(i, j, w_b, d)      # corner e_j + e_k again
                    if (w_a, z_a) != (w_b, z_b):
                        return Violation("CubeInconsistency", (
                            ("i", i + 1), ("j", j + 1), ("k", k + 1),
                            ("chain", [a, b, c, d]),
                            ("first_order", [x, z_a, w_a]),
                            ("second_order", [y, w_b, z_b])))
    return None


# -- Powers, counts, radii ----------------------------------------------------

def _digits_estimate(family, l):
    """Upper bound on decimal digits of entries of the power product."""
    return l.total * math.log10(max(len(family.alphabet), 2)) + 1


def _check_exact(family, l, budget):
    """The guards of the exact routes: a valid family, a shape of its rank
    and entries within the digit budget."""
    require_valid(family)
    budget = budget or DEFAULT_BUDGET
    if l.rank != family.rank:
        raise ValueError(f"shape rank {l.rank} != family rank {family.rank}")
    est = _digits_estimate(family, l)
    if est > budget.max_exact_digits:
        raise BudgetExceededError(
            "exact power product too large",
            estimated_digits=est, max_exact_digits=budget.max_exact_digits)


def matrix_power_product(family, l, budget=None):
    """M_1^{l_1} ... M_r^{l_r}, exact.  Order does not matter for a valid
    family; the ascending-direction order used here is the canonical one.
    """
    _check_exact(family, l, budget)
    out = None
    for m, e in zip(family.matrices, l.coords):
        if e:
            power = matrix_power(m, e)
            out = power if out is None else matrix_mul(out, power)
    return matrix_identity(len(family.alphabet)) if out is None else out


def _successor_lists(family, l):
    """Per direction j, the successor index lists of M_j (entry a lists
    the b with M_j(a, b) = 1, ascending), or () where l_j = 0."""
    return [[tuple(mask_bits(row)) for row in rows] if e else ()
            for rows, e in zip(family.masks[0], l.coords)]


def _step_vector(lists, l, v):
    """M^l v, exact: v takes one unit step at a time, v <- M_j v, over
    lists = _successor_lists(family, l), which each caller builds once
    per call, not once per step or stage."""
    for succ_lists, e in zip(lists, l.coords):
        for _ in range(e):
            v = [sum(v[b] for b in succ) for succ in succ_lists]
    return v


def origin_counts(family, l, budget=None):
    """M^l e, exact: entry a counts the words of shape l with origin
    letter a."""
    _check_exact(family, l, budget)
    return _step_vector(_successor_lists(family, l), l,
                        [1] * len(family.alphabet))


def word_count(family, l, budget=None):
    """Number of words of shape l: <e, M^l e>, exact."""
    return sum(origin_counts(family, l, budget))


def _float_mul(a, b):
    """Product of two float matrices, each entry an fsum."""
    bt = list(zip(*b))
    return [[math.fsum(x * y for x, y in zip(row, col)) for col in bt]
            for row in a]


def log_word_count(family, l, budget=None):
    """Natural log of the word count.

    Returns (value, exact): exact means the count was computed as a big
    integer and logged directly (math.log of a Python int is correctly
    rounded at any size, well beyond 12 digits).  Above the digit guard the
    product is redone in float with per-step renormalization and the result
    is flagged exact=False.
    """
    require_valid(family)
    budget = budget or DEFAULT_BUDGET
    if _digits_estimate(family, l) <= budget.max_exact_digits:
        return math.log(word_count(family, l, budget)), True

    dim = len(family.alphabet)
    prod = [[float(x) for x in row] for row in matrix_identity(dim)]
    prod_log = 0.0

    def renorm(m):
        top = max(max(row) for row in m)
        if top == 0.0:
            raise ZeroDivisionError("zero product in log fallback")
        return [[x / top for x in row] for row in m], math.log(top)

    for m, e in zip(family.matrices, l.coords):
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
    integers, hence the same logs.  The successor lists of step are built
    once per call, not once per stage.  Stages over the guard take
    log_word_count's float route, one by one.
    """
    require_valid(family)
    budget = budget or DEFAULT_BUDGET
    out = []
    counts = None
    for n in range(1, n_max + 1):
        shape = base + step.scaled(n)
        if _digits_estimate(family, shape) > budget.max_exact_digits:
            out.append(log_word_count(family, shape, budget))
            continue
        if counts is None:
            counts = origin_counts(family, shape, budget)
            lists = _successor_lists(family, step)
        else:
            counts = _step_vector(lists, step, counts)
        out.append((math.log(sum(counts)), True))
    return out


def spectral_radius(m):
    """Spectral radius of a square nonnegative matrix (integer or float
    entries; exact big integers welcome): exp of log_spectral_radius, so
    math.inf once the radius leaves float range and 0.0 for a nilpotent
    matrix."""
    acc = log_spectral_radius(m)
    return math.exp(acc) if acc < 700 else math.inf


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
    shift on the validated family.  Taken in the log domain, so it stays
    finite for any p whose exact power product fits the budget; while the
    radius fits a float the value is the log of that float, rounded as it
    always was."""
    require_valid(family)
    if p.rank != family.rank:
        raise ValueError(f"shape rank {p.rank} != family rank {family.rank}")
    if p.is_zero:
        raise ZeroDirectionError("direction vector must be nonzero")
    log_radius = log_spectral_radius(matrix_power_product(family, p, budget))
    if log_radius < 700:
        # log of the float radius: differs from log_radius in the last
        # bits, which reach the printed digits of the tiny abs_error
        return math.log(math.exp(log_radius))
    return log_radius


# -- Serialization ------------------------------------------------------------

def family_to_dict(family):
    return {
        "rank": family.rank,
        "alphabet": list(family.alphabet.letters),
        "matrices": [[list(row) for row in m] for m in family.matrices],
    }


def _exact_int(x, what):
    """The rank or a matrix entry as loaded: an exact integer, never a
    bool, float or string, so that validation sees what the file says."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def family_from_dict(data):
    try:
        rank = _exact_int(data["rank"], "rank")
        alphabet = Alphabet(tuple(data["alphabet"]))
        matrices = tuple(
            tuple(tuple(_exact_int(x, "matrix entry") for x in row)
                  for row in m)
            for m in data["matrices"]
        )
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
