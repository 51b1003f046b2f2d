"""Search harness for the spectral-radius gap question.

For a valid family of rank at least 2 the entropy of the combined step
never exceeds the sum of the per-direction entropies:

    gap = sum_i log r(M_i^{p_i}) - log r(M_1^{p_1} ... M_r^{p_r}) >= 0

Tensor families sit exactly at zero.  Positive gaps exist: the 4-letter
family M_1 = diag(J_2, I_2), M_2 = diag(I_2, J_2), with J_2 the all-ones
2x2 matrix, has radii 2 and 2 and product radius 2, a gap of log 2.  The
sweeps gather such families and the distribution of gaps.  Records
carry full matrices and provenance so any reported gap can be reproduced
from the CSV line alone.

Both sweeps hold candidates as row bitmasks (the random sweep samples
straight into them) and test each pair with one kernel,
matrices.commutes (C1/C2).  Only a candidate that passes every pair
becomes a MatrixFamily, and validate_family, which catches C3, runs on
it.  The exhaustive sweep keeps the pair results as one partner bitmask
per matrix, each unordered pair tested once.

Fingerprints take the interpreter's own SHA-256, as the stdlib's random
takes its SHA-512: hashlib would load OpenSSL, about 3.7 MB resident.

The survivors of a sweep share few distinct factors and products, so
each sweep keeps one functools.cache of log_spectral_radius for the
length of the call and computes each distinct radius once.
"""

import functools
import itertools
import random
from math import fsum
from operator import and_
from typing import NamedTuple

from .budget import DEFAULT as DEFAULT_BUDGET
from .errors import BudgetExceededError, RankOneError, ZeroDirectionError
from .matrices import (
    Alphabet,
    MatrixFamily,
    bit_rows,
    canonical_family_json,
    commutes,
    family_to_dict,
    float_radius,
    log_spectral_radius,
    matrix_powers,
    radius_log,
    require_valid,
)
from .shapes import Shape

try:  # the built-in SHA-256 module: 3.12 on
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # 3.10 and 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256


def family_fingerprint(family):
    payload = canonical_family_json(family).encode("ascii")
    return _sha256(payload).hexdigest()


def canonical_form(family):
    """Representative of the simultaneous row/column permutation class,
    minimal in serialization order."""
    dim = family.dim
    best = None
    for perm in itertools.permutations(range(dim)):
        mats = tuple(
            tuple(tuple(m[perm[a]][perm[b]] for b in range(dim))
                  for a in range(dim))
            for m in family.matrices
        )
        if best is None or mats < best:
            best = mats
    return MatrixFamily(family.rank, family.alphabet, best)


def gap_parts(family, p=None, budget=None, log_radius=None):
    """Per-factor spectral radii, product radius, and the gap itself.

    Each matrix takes one log_spectral_radius: its radius is float_radius
    of that log (inf past float range) and its term of the gap radius_log
    of it, which stays finite.  log_radius, when given, stands in for
    log_spectral_radius: a sweep passes one functools.cache of it, so each
    distinct matrix is taken once.
    """
    require_valid(family)
    _require_two_directions(family.rank)
    if p is None:
        p = Shape.cube(1, family.rank)
    if p.is_zero:
        raise ZeroDirectionError("step direction must be nonzero")
    mats, product = matrix_powers(family, p, budget)
    mats.append(product)
    exact = list(map(log_radius or log_spectral_radius, mats))
    radii = list(map(float_radius, exact))
    logs = list(map(radius_log, exact))
    return tuple(radii[:-1]), radii[-1], fsum(logs[:-1]) - logs[-1]


def _require_two_directions(rank):
    if rank < 2:
        raise RankOneError("the gap needs at least two directions", rank=rank)


def gap(family, p=None, budget=None):
    return gap_parts(family, p, budget)[2]


class GapRecord(NamedTuple):
    fingerprint: str
    family: MatrixFamily
    radii: tuple
    prod_radius: float
    value: float
    provenance: tuple

    def to_json(self):
        return {
            "fingerprint": self.fingerprint,
            "family": family_to_dict(self.family),
            "radii": list(self.radii),
            "prod_radius": self.prod_radius,
            "gap": self.value,
            "provenance": dict(self.provenance),
        }


def _record(family, provenance, budget, log_radius):
    factors, prod_radius, value = gap_parts(family, None, budget, log_radius)
    return GapRecord(family_fingerprint(family), family, factors, prod_radius,
                     value, tuple(provenance.items()))


def exhaustive_search(alphabet_size, rank=2, canonicalize=False, budget=None):
    """Every ordered rank-tuple of 0-1 matrices over the alphabet that
    validates, one GapRecord each, in product order.

    A zero row never validates, so only nonzero-row matrices are tried.
    A tuple grows by a matrix only when that matrix passes the pair test
    (matrices.commutes) with every member, in ascending matrix order.
    The test is symmetric, so the pair table holds one partner bitmask
    per matrix, each unordered pair tested once, and a tuple's growths
    are the set bits of its members' partners ANDed together.
    validate_family checks the grown tuples, which catches C3.  The
    enumeration budget guards each growth step: tuples times matrices.
    A rank-1 sweep is refused before any of this, and the pair table is
    built once the first growth step passes, so a refused sweep tests no
    pair.
    """
    _require_two_directions(rank)
    budget = budget or DEFAULT_BUDGET
    count = (2 ** alphabet_size - 1) ** alphabet_size  # nonzero-row matrices

    def check(nodes):
        if nodes > budget.max_enum_nodes:
            raise BudgetExceededError(
                "candidate sweep too large",
                candidates=nodes, max_enum_nodes=budget.max_enum_nodes)

    check(count)  # the first step, before the matrices exist
    # the nonzero rows: all but the first, zero row of the product
    rows = list(itertools.product((0, 1), repeat=alphabet_size))[1:]
    matrices = list(itertools.product(rows, repeat=alphabet_size))
    tuples = [(j,) for j in range(count)]
    for step in range(rank - 1):
        check(len(tuples) * count)
        if not step:  # the pair table, once the first growth passes
            partners = _partner_masks([bit_rows(m) for m in matrices])
        tuples = [t + (j,) for t in tuples for j in _set_bits(
            functools.reduce(and_, map(partners.__getitem__, t)))]
    alphabet = Alphabet(range(alphabet_size))
    families = (MatrixFamily(rank, alphabet, [matrices[j] for j in t])
                for t in tuples)
    survivors = [f for f in families if f.is_valid]
    if canonicalize:  # one per relabeling class, in order of first sight
        survivors = list({family_fingerprint(f): f for f in
                          map(canonical_form, survivors)}.values())
    log_radius = functools.cache(log_spectral_radius)
    return [_record(f, {"source": "exhaustive"}, budget, log_radius)
            for f in survivors]


def _partner_masks(masks):
    """Bit j of partners[i] is set when masks i and j pass the pair test,
    which is symmetric: each unordered pair i <= j is tested once."""
    partners = [0] * len(masks)
    for i, si in enumerate(masks):
        bit = 1 << i
        for j in range(i, len(masks)):
            if commutes(si, masks[j]):
                partners[i] |= 1 << j
                partners[j] |= bit
    return partners


def _set_bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_search(alphabet_size, density, trials, seed, rank=2, budget=None):
    """Entry-wise Bernoulli(density) samples with zero rows repaired by one
    uniform 1, validity-filtered.  A single sequential generator drives
    everything, so a fixed seed fixes the record stream exactly.

    Matrices are drawn as row bitmasks with the generator calls of the
    tuple sampler this replaced: one rng.random() per entry in row-major
    order, then one rng.randrange(size) per zero row.  After that repair
    only C1/C2 can fail, so a family is built and validated only once
    every pair passes matrices.commutes.  A rank-1 sweep is refused
    before the first sample.
    """
    _require_two_directions(rank)
    if not 0 < density < 1:
        raise ValueError("density must be strictly between 0 and 1")
    alphabet = Alphabet(range(alphabet_size))
    records, log_radius = [], functools.cache(log_spectral_radius)
    rng = random.Random(seed)
    cols = range(alphabet_size)
    bits = [1 << b for b in cols]
    for trial in range(trials):
        combo = [_sample_rows(rng, bits, density) for _ in range(rank)]
        pairs = itertools.combinations(combo, 2)
        if not all(itertools.starmap(commutes, pairs)):
            continue
        family = MatrixFamily(rank, alphabet, [
            [[row >> b & 1 for b in cols] for row in rows] for rows in combo])
        if not family.is_valid:
            continue
        records.append(_record(
            family, {"source": "random", "seed": seed, "trial": trial},
            budget, log_radius))
    return records


def _sample_rows(rng, bits, density):
    rand = rng.random
    rows = []
    for _ in bits:
        row = 0
        for bit in bits:
            if rand() < density:
                row |= bit
        rows.append(row)
    for a, row in enumerate(rows):
        if not row:
            rows[a] = bits[rng.randrange(len(bits))]
    return rows


# -- Output --------------------------------------------------------------------

def sorted_records(records):
    def key(rec):
        return rec.fingerprint, dict(rec.provenance).get("trial", -1)
    return sorted(records, key=key)


def summarize(records, attempts=None):
    values = [r.value for r in records]
    histogram = {}
    for v in sorted(values):
        bucket = f"{v:.6f}"
        histogram[bucket] = histogram.get(bucket, 0) + 1
    summary = {
        "count": len(records),
        "min_gap": min(values) if values else None,
        "max_gap": max(values) if values else None,
        "histogram": histogram,
    }
    if attempts is not None:
        summary["attempts"] = attempts
        summary["valid_rate"] = len(records) / attempts if attempts else 0.0
    return summary


def record_csv_header(rank):
    radii = [f"r{i + 1}" for i in range(rank)]
    return ["fingerprint", "alphabet_size", "matrices", *radii, "r_prod", "gap"]


def record_csv_row(rec):
    flat = "|".join(
        "".join(str(x) for row in m for x in row) for m in rec.family.matrices)
    return [
        rec.fingerprint,
        str(rec.family.dim),
        flat,
        *(f"{r:.12g}" for r in rec.radii),
        f"{rec.prod_radius:.12g}",
        f"{rec.value:.12g}",
    ]


def family_from_csv_row(row, rank):
    """Rebuild the family from the flattened matrices column (index 2)."""
    blocks = row[2].split("|")
    size = int(row[1])
    mats = tuple(
        tuple(tuple(int(ch) for ch in block[a * size:(a + 1) * size])
              for a in range(size))
        for block in blocks
    )
    return MatrixFamily(rank, Alphabet(range(size)), mats)
