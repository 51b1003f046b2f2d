"""rankshift benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from the
seed into a work directory under ``.perfbench-work/``; the package is
imported from ``src/`` of the same checkout in fresh child interpreters
(``worker.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A full record with provenance is written to
``.perfbench-work/results/``.  See README.md for the workloads and what
each metric is expected to move.

Load model: one process with one thread runs the jobs back to back (a
closed loop with a single client); nothing runs alongside it.  Between
jobs it runs the reference computation of ``reference.py``, whose time
is the unit of the ``wall_ref`` and ``cpu_ref`` metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import inputs
import workloads
from spans import layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Fresh interpreters started to time set-up, half before and half after
# the passes, so that they see more than one stretch of background load;
# the median is reported.  One more start before them fills the bytecode
# cache, as any user's first run does once.
SETUP_STARTS = 15
SETUP_TIMEOUT_S = 20
# Every run must finish well inside 180 s.
RUN_DEADLINE_S = 170
# Fractions of the long-series n_max values timed for the scaling curve.
SCALING_FRACTIONS = ((1, 4), (1, 2), (1, 1))
SCALING_METRICS = ("pressure.estimate.self_s", "matrices.power_product.self_s")

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MiB",
                    "setup_s": "s", "pass_rate": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- provenance -------------------------------------------------------------------

def _commit(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package):
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, version, passes):
    return {
        "commit": _commit(ROOT),
        "source_sha256": _source_digest(ROOT / "src" / "rankshift"),
        "package_version": version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


# -- child processes ---------------------------------------------------------------

def _log_tail(path, lines=20):
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def time_setup(manifest_path, log_path):
    """Seconds from starting a fresh interpreter to its "ready" line."""
    with open(log_path, "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "setup", str(manifest_path)],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT)
        try:
            if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                raise BenchError("set-up probe timed out")
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe did not exit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError("set-up probe failed:\n" + _log_tail(log_path))
    return elapsed


def run_worker(manifest_path, result_path, log_path, timeout):
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "measure", str(manifest_path),
             str(result_path)],
            stdout=log, stderr=log, cwd=ROOT)
        try:
            proc.wait(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("measurement did not finish in time")
    if proc.returncode != 0:
        raise BenchError("measurement failed:\n" + _log_tail(log_path))
    return json.loads(result_path.read_text(encoding="utf-8"))


# -- checking ------------------------------------------------------------------------

def check_passes(passes, jobs_by_tag, refs):
    """Check every job of every pass; returns (attempted, failed, problems).

    Outputs are deterministic, so identical bytes are checked once; any
    output that differs from the others is checked on its own.  Output
    files are deleted once checked.
    """
    verdicts = {}
    attempted = failed = 0
    problems = []
    for result in passes:
        for record in result["jobs"]:
            attempted += 1
            job = jobs_by_tag[(result["kind"], record["job"])]
            out = Path(record["out"])
            if record["rc"] != 0:
                found = [f"exit code {record['rc']}"]
            elif not out.exists():
                found = ["no output file"]
            else:
                data = out.read_bytes()
                key = (record["job"], hashlib.sha256(data).hexdigest())
                if key not in verdicts:
                    verdicts[key] = checks.check_output(
                        data.decode("utf-8", errors="replace"), job, refs)
                found = verdicts[key]
            if out.exists():
                out.unlink()
            if found:
                failed += 1
                problems.append(f"{result['tag']} {record['job']}: "
                                + "; ".join(found[:3]))
    return attempted, failed, problems


# -- one run -------------------------------------------------------------------------

def prepare(workload, seed, seconds, work, scale="full", trace=False):
    """Write inputs and the worker manifest; returns (manifest, jobs_by_tag)."""
    (work / "inputs").mkdir(parents=True)
    (work / "out").mkdir()
    paths = inputs.write_inputs(seed, work / "inputs")
    jobs = workloads.jobs(workload, paths, seed, scale)
    jobs_by_tag = {("main", job["name"]): job for job in jobs}
    manifest = {
        "src": str(ROOT / "src"),
        "inputs": paths,
        "uses": workloads.USES[workload],
        "jobs": jobs,
        "out_dir": str(work / "out"),
        "seconds": seconds,
        "trace": trace,
    }
    if trace and workload == "long-series":
        manifest["scaling"] = []
        base = (1, 1) if scale == "full" else workloads.SMOKE_FRACTION
        for num, den in SCALING_FRACTIONS:
            kind = f"scaling-{num}/{den}"
            point = workloads.long_series_jobs(
                paths, (num * base[0], den * base[1]))
            manifest["scaling"].append({"kind": kind, "jobs": point})
            for job in point:
                jobs_by_tag[(kind, job["name"])] = job
    return manifest, jobs_by_tag


def measure(workload, seed, seconds, trace, work, scale="full",
            setup_starts=SETUP_STARTS, before_check=None):
    """Run one measurement in ``work``; returns the full record.

    ``before_check`` is called with the worker report before the outputs
    are checked (the self-test uses it to corrupt one output).
    """
    began = perf_counter()
    refs = checks.load_references()
    manifest, jobs_by_tag = prepare(workload, seed, seconds, work, scale, trace)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    log_path = work / "worker.log"

    setup_times = []
    if not trace:
        time_setup(manifest_path, log_path)
        setup_times = [time_setup(manifest_path, log_path)
                       for _ in range(setup_starts // 2)]
    report = run_worker(manifest_path, work / "report.json", log_path,
                        RUN_DEADLINE_S - (perf_counter() - began))
    if not trace:
        setup_times += [time_setup(manifest_path, log_path)
                        for _ in range(setup_starts - setup_starts // 2)]
    if before_check is not None:
        before_check(report)
    passes = report["passes"]
    attempted, failed, problems = check_passes(passes, jobs_by_tag, refs)

    main = [p for p in passes if p["kind"] == "main"]
    untraced = [p for p in main if not p.get("traced")]
    record = {
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "problems": problems,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "median_pass_wall_s": median(p["wall_s"] for p in untraced),
        "job_wall_s": _per_job(untraced, "wall_s"),
        "job_cpu_s": _per_job(untraced, "cpu_s"),
        "job_wall_ref": _per_job(untraced, "wall_s", "ref_wall_s"),
        "job_cpu_ref": _per_job(untraced, "cpu_s", "ref_cpu_s"),
        "setup_s": setup_times,
        "version": report["version"],
        "passes": len(untraced),
    }
    if not trace:
        record["wall_s"] = _median_sum(record["job_wall_s"])
        record["metrics"] = {
            "wall_ref": _median_sum(record["job_wall_ref"]),
            "cpu_ref": _median_sum(record["job_cpu_ref"]),
            "peak_rss_mb": report["maxrss_kb"] / 1024,
            "setup_s": median(setup_times),
            "pass_rate": 1 - failed / attempted,
        }
        return record

    traced = [p for p in main if p.get("traced")]
    record["traced_passes"] = len(traced)
    record["traced_job_wall_ref"] = _per_job(traced, "wall_s", "ref_wall_s")
    # Counts repeat exactly from pass to pass; times take the fastest pass.
    metrics = {name: min(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace_overhead"] = (_median_sum(record["traced_job_wall_ref"])
                                 / _median_sum(record["job_wall_ref"]))
    record["metrics"] = metrics
    record["edges"] = traced[0]["edges"]
    record["scaling"] = []
    for p in passes:
        if p["kind"] == "main":
            continue
        argv = jobs_by_tag[(p["kind"], p["jobs"][0]["job"])]["argv"]
        record["scaling"].append({
            "job": p["jobs"][0]["job"],
            "n_max": int(argv[argv.index("--n-max") + 1]),
            **{name: p["layers"][name] for name in SCALING_METRICS}})
    return record


def _per_job(passes, key, unit_key=None):
    """Each job's times over the given passes, in job order; divided by the
    reference time around each run when ``unit_key`` is given."""
    times = {}
    for p in passes:
        for job in p["jobs"]:
            value = job[key] / job[unit_key] if unit_key else job[key]
            times.setdefault(job["job"], []).append(value)
    return times


def _median_sum(job_times):
    """The job set's time with every job at its median pass."""
    return sum(median(times) for times in job_times.values())


def result_line(record, trace):
    units = layer_units() if trace else END_TO_END_UNITS
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankshift" / "__init__.py").is_file():
        print(f"no rankshift sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["provenance"] = provenance(args, record.pop("version"),
                                      record["passes"])
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print("FAILED", problem)
    print(f"{args.workload} seed {args.seed}: {record['passes']} untraced "
          f"passes, attempted {record['attempted']}, failed {record['failed']}"
          f", fail_rate {record['fail_rate']:g}; record in {out.relative_to(ROOT)}")
    for point in record.get("scaling", ()):
        print("scaling", json.dumps(point))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
