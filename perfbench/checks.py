"""Correctness checks on job outputs, independent of the package.

Each check takes the output text, the job and the reference table and
returns a list of problems; an empty list means the output is correct.
References come from ``references.json``; they are invariant under the
letter permutations the workload seed draws, so they hold for every seed.
Closed-form values are computed here from the golden ratio.
"""

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from inputs import G1_POTENTIAL

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

# Exact entropy of each entropy job: log r(M^p) of a tensor power of the
# golden mean shift is (number of golden factors) * log(phi).
EXACT_ENTROPY = {"entropy-g3-1,1": 2 * LOG_PHI, "entropy-t3-1,1,1": 3 * LOG_PHI}


def _g1_oracle():
    """log r(diag(exp g) G) for the golden matrix G: lambda solves
    lambda^2 - A lambda - A B = 0 with A, B the weights of letters 0, 1."""
    a, b = math.exp(G1_POTENTIAL["0"]), math.exp(G1_POTENTIAL["1"])
    return math.log((a + math.sqrt(a * a + 4 * a * b)) / 2)


ORACLE = {"oracle-g1": _g1_oracle()}


def load_references():
    path = Path(__file__).with_name("references.json")
    return json.loads(path.read_text(encoding="utf-8"))


# -- gap sweeps -----------------------------------------------------------------

def _fingerprint(size, mats):
    payload = {"alphabet": [str(i) for i in range(size)],
               "matrices": mats, "rank": len(mats)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _valid_rank2(a, b):
    """Nonzero rows, and a*b == b*a with 0-1 entries (unique square fill)."""
    n = len(a)
    if not all(any(row) for row in a) or not all(any(row) for row in b):
        return False
    for i in range(n):
        for j in range(n):
            ab = sum(a[i][k] * b[k][j] for k in range(n))
            ba = sum(b[i][k] * a[k][j] for k in range(n))
            if ab != ba or ab > 1:
                return False
    return True


def _gap_records(text):
    """Parse a search-gap CSV; returns (records, problems).  Columns are
    found by name, so added columns or comment lines do not matter."""
    rows = list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))
    needed = ("fingerprint", "alphabet_size", "matrices", "gap")
    if not rows or not all(name in rows[0] for name in needed):
        return [], [f"unexpected CSV header {rows[:1]}"]
    fp, size_col, mats_col, gap_col = (rows[0].index(n) for n in needed)
    records = []
    problems = []
    for row in rows[1:]:
        try:
            size = int(row[size_col])
            mats = [[[int(ch) for ch in block[r * size:(r + 1) * size]]
                     for r in range(size)] for block in row[mats_col].split("|")]
            gap = float(row[gap_col])
        except (IndexError, ValueError) as exc:
            problems.append(f"malformed record {row[:1]}: {exc}")
            continue
        if len(mats) != 2 or any(len(m) != size for m in mats):
            problems.append(f"record {row[fp]} is not a rank-2 family")
            continue
        if _fingerprint(size, mats) != row[fp]:
            problems.append(f"record {row[fp]} fingerprint does not match")
        if not _valid_rank2(*mats):
            problems.append(f"record {row[fp]} does not re-validate")
        if not gap >= -1e-9:
            problems.append(f"record {row[fp]} has gap {gap}")
        records.append(row[fp])
    return records, problems


def gap_random(text, job, refs):
    return _gap_records(text)[1]


def gap_exhaustive(text, job, refs):
    records, problems = _gap_records(text)
    ref = refs[job["ref"]]
    if len(records) != ref["records"]:
        problems.append(f"{len(records)} records, expected {ref['records']}")
    digest = hashlib.sha256(
        "\n".join(sorted(records)).encode("ascii")).hexdigest()
    if digest != ref["fingerprint_digest"]:
        problems.append("fingerprint-set digest differs from the reference")
    return problems


# -- JSON outputs ----------------------------------------------------------------

def _close(name, got, want, tol):
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{name} {got!r} not within {tol:g} of {want!r}"]
    return []


def lemma(data, job, refs):
    ref = refs[job["ref"]]
    problems = []
    if data.get("pairs") != ref["pairs"]:
        problems.append(f"pairs {data.get('pairs')!r}, expected {ref['pairs']}")
    if data.get("failures") != 0 or data.get("all_partial_isometries") is not True:
        problems.append(f"failures {data.get('failures')!r}")
    cells = Counter(stat["cells"] for rep in data.get("reports", ())
                    for stat in rep["patterns"])
    if {str(k): v for k, v in cells.items()} != ref["cell_counts"]:
        problems.append("multiset of per-pattern cell counts differs")
    return problems


def count(data, job, refs):
    problems = []
    if data.get("ok") is not True:
        problems.append("count-check reports ok != true")
    rows = data.get("rows", [])
    for row in rows:
        if row["enumerated"] != row["matrix_count"] or row["equal"] is not True:
            problems.append(f"shape {row['shape']}: enumeration disagrees")
    got = [[",".join(str(c) for c in r["shape"]), r["matrix_count"]]
           for r in rows]
    if got != refs[job["ref"]]:
        problems.append("matrix_count rows differ from the reference")
    return problems


def entropy(data, job, refs):
    exact = EXACT_ENTROPY[job["ref"]]
    return (_close("estimate", data.get("estimate"), exact, 1e-6)
            + _close("exact", data.get("exact"), exact, 1e-9))


def pressure_oracle(data, job, refs):
    oracle = ORACLE[job["ref"]]
    return (_close("oracle", data.get("oracle"), oracle, 1e-9)
            + _close("estimate", data.get("estimate"), data.get("oracle"), 1e-5))


def pressure_value(data, job, refs):
    return _close("estimate", data.get("estimate"), refs[job["ref"]], 1e-9)


_TEXT_CHECKS = {"gap_exhaustive": gap_exhaustive, "gap_random": gap_random}
_JSON_CHECKS = {"lemma": lemma, "count": count, "entropy": entropy,
                "pressure_oracle": pressure_oracle,
                "pressure_value": pressure_value}


def check_output(text, job, refs):
    """Problems found in one job's output text."""
    if job["check"] in _TEXT_CHECKS:
        return _TEXT_CHECKS[job["check"]](text, job, refs)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(data, dict):
        return ["output is not a JSON object"]
    try:
        return _JSON_CHECKS[job["check"]](data, job, refs)
    except (KeyError, TypeError) as exc:
        return [f"output lacks an expected field: {exc!r}"]
