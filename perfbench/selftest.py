"""Self-test of the benchmark, at reduced size.

    python3 perfbench/selftest.py

Runs a smoke-size copy of every job of every workload, untraced and
traced, and checks that all of them pass their correctness checks and
that every metric is reported.  Then it corrupts one output (a flipped
word count) and checks that the failure is counted, and runs the
benchmark in a directory that holds only the benchmark files, where it
must fail without printing a result.  Exits 0 when all of this holds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from spans import layer_units

SEED = 3


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def smoke(workload, work, trace, before_check=None):
    record = run.measure(workload, SEED, 0.01, trace, work, scale="smoke",
                         setup_starts=1, before_check=before_check)
    line = run.result_line(record, trace)
    units = layer_units() if trace else run.END_TO_END_UNITS
    check(set(line["metrics"]) == set(units),
          f"{workload}: metrics {sorted(line['metrics'])}")
    return record, line


def flip_count(report):
    """Add one to a matrix count in the first pass's count-g3 output."""
    first = report["passes"][0]
    out = Path(next(r["out"] for r in first["jobs"] if r["job"] == "count-g3"))
    data = json.loads(out.read_text())
    row = data["rows"][1]
    row["matrix_count"] = str(int(row["matrix_count"]) + 1)
    out.write_text(json.dumps(data))


def bare_directory_fails(base):
    """The benchmark alone, without the package sources, must fail."""
    bare = base / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "gap-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0, "bare run exited 0")
    check(proc.stdout.strip() == "", f"bare run printed {proc.stdout!r}")


def main():
    base = run.ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                record, line = smoke(workload, base / f"{workload}-{trace}", trace)
                check(line["correct"] and record["fail_rate"] == 0,
                      f"{workload} trace={trace}: {record['problems']}")
                print(f"ok   {workload} trace={int(trace)}: "
                      f"{record['attempted']} jobs checked")

        record, line = smoke("enum-crosscheck", base / "corrupt", False,
                             before_check=flip_count)
        check(record["failed"] == 1 and record["fail_rate"] > 0
              and not line["correct"]
              and line["metrics"]["pass_rate"]["value"] < 1,
              f"corrupted output not counted: {record['problems']}")
        print(f"ok   corrupted output counted: fail_rate "
              f"{record['fail_rate']:g} ({record['problems'][0]})")

        bare_directory_fails(base)
        print("ok   benchmark without sources fails without a result")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
