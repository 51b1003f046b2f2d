"""Child process of the benchmark: a fresh interpreter per measurement.

    python3 worker.py setup MANIFEST
        Import rankshift from the checkout, load and validate the
        workload's input files, print "ready" and exit.  The parent times
        this from process start to the "ready" line.

    python3 worker.py measure MANIFEST RESULT
        Do the same set-up, then run the workload's jobs in passes through
        rankshift.cli.main until the manifest's run time has passed, each
        job between two runs of the reference computation (reference.py),
        and write per-pass timings to RESULT as JSON.  With "trace" set in the
        manifest, untraced and traced passes alternate.

Outputs are not checked here: the parent checks them after this process
has exited, so that checking adds neither time nor memory to what is
measured.
"""

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import reference
from workloads import OUT

# Each job's time is its median over the passes, and a job's reference
# runs catch a change of the machine's speed only when it comes between
# passes rather than inside one; short jobs and many passes keep that
# median steady.  Traced runs alternate untraced and traced passes.
MIN_PASSES = 10
MIN_PASSES_TRACED = 20


def set_up(manifest):
    """Import the package under test and validate every input; returns the
    cli module."""
    src = Path(manifest["src"])
    sys.path.insert(0, str(src))
    import rankshift
    import rankshift.cli
    from rankshift.matrices import load_family
    from rankshift.pressure import potential_from_dict

    if Path(rankshift.__file__).resolve().parent != src / "rankshift":
        raise SystemExit(f"imported rankshift from {rankshift.__file__}, "
                         f"not from {src}")
    families = {}
    for name in manifest["uses"]:
        path = manifest["inputs"][name]
        if name == "pot":
            with open(path, encoding="utf-8") as fh:
                potential_from_dict(families["g1"], json.load(fh))
            continue
        family = load_family(path)
        if not family.validation.ok:
            raise SystemExit(f"input family {name} does not validate: "
                             f"{family.validation.to_json()}")
        families[name] = family
    return rankshift.cli


def run_job(cli, argv):
    """Exit code of one CLI call; an exception is reported, not raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job is a failed job, not a crash
        traceback.print_exc()
        return f"exception: {exc!r}"


def run_pass(cli, jobs, out_dir, tag, tracer=None):
    """Run every job once, each between two runs of the reference
    computation; the mean of the two is the job's unit of time."""
    gc.collect()
    records = []
    before = reference.timed()
    for job in jobs:
        out = str(Path(out_dir) / f"{tag}-{job['name']}.{job['format']}")
        argv = [out if a == OUT else a for a in job["argv"]]
        if tracer is not None:
            tracer.new_job()
        start, cpu = perf_counter(), process_time()
        rc = run_job(cli, argv)
        wall, cpu = perf_counter() - start, process_time() - cpu
        after = reference.timed()
        records.append({"job": job["name"], "rc": rc, "wall_s": wall,
                        "cpu_s": cpu,
                        "ref_wall_s": (before[0] + after[0]) / 2,
                        "ref_cpu_s": (before[1] + after[1]) / 2, "out": out})
        before = after
    return {"tag": tag, "kind": "main",
            "wall_s": sum(r["wall_s"] for r in records), "jobs": records}


def traced_pass(cli, jobs, out_dir, tag, tracer):
    tracer.reset()
    tracer.install()
    try:
        result = run_pass(cli, jobs, out_dir, tag, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["cli.output_bytes"] = sum(
        Path(r["out"]).stat().st_size for r in result["jobs"]
        if r["rc"] == 0 and Path(r["out"]).exists())
    result["traced"] = True
    result["layers"] = layers
    result["edges"] = tracer.edge_table()
    return result


def measure(manifest):
    cli = set_up(manifest)
    jobs, out_dir = manifest["jobs"], manifest["out_dir"]
    seconds = manifest["seconds"]
    report = {"version": sys.modules["rankshift"].__version__, "passes": []}
    passes = report["passes"]
    tracer = None
    min_passes = MIN_PASSES
    if manifest["trace"]:
        from spans import Tracer
        tracer = Tracer()
        min_passes = MIN_PASSES_TRACED
    start = perf_counter()
    while True:
        index = len(passes)
        if tracer is None or index % 2 == 0:
            passes.append(run_pass(cli, jobs, out_dir, f"p{index}"))
        else:
            passes.append(traced_pass(cli, jobs, out_dir, f"p{index}", tracer))
        if index == 0:
            report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if perf_counter() - start >= seconds and index + 1 >= min_passes:
            break
    for n, point in enumerate(manifest.get("scaling", ())):
        for job in point["jobs"]:
            result = traced_pass(cli, [job], out_dir, f"s{n}", tracer)
            result["kind"] = point["kind"]
            passes.append(result)
    return report


def main(argv):
    mode, manifest_path = argv[0], argv[1]
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if mode == "setup":
        set_up(manifest)
        print("ready", flush=True)
        return 0
    if mode == "measure":
        report = measure(manifest)
        Path(argv[2]).write_text(json.dumps(report), encoding="utf-8")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
