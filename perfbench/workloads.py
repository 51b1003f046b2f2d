"""The four benchmark workloads, as lists of CLI jobs.

Every job is one ``rankshift.cli.main(argv)`` call whose ``--out`` points
at a fresh file; ``OUT`` in an argv is replaced by that path.  Family
arguments name inputs written by ``inputs.write_inputs``.  ``check`` names
the function in ``checks.py`` that judges the output and ``ref`` the key
of its reference in ``references.json``.

Two scales exist: ``full`` is what the benchmark times, ``smoke`` is a
reduced copy of every job used by the self-test.
"""

OUT = "@OUT@"

WORKLOADS = ("gap-sweep", "lemma-sweep", "long-series", "enum-crosscheck")


def _job(name, argv, fmt, check, ref=None):
    return {"name": name, "argv": argv, "format": fmt, "check": check,
            "ref": ref}


def _gap_sweep(paths, seed, scale):
    # Tiny 0-1 matrices: validation and spectral_radius do almost all the
    # work; words, pressure and patterns are not touched.  The exhaustive
    # sweep's 22 survivors take the spectral_radius path.  The random sweep
    # draws dense 4x4 candidates from the seed, which validation rejects
    # (none of 20 000 drawn at density 0.5 survives): a survivor would cost
    # as much as 25 rejections, so a sweep with survivors would cost what
    # the seed decides, not what the program does.
    trials = 300 if scale == "full" else 50
    common = ["search-gap", "-f", paths["g1"], "--rank", "2",
              "--format", "csv", "--out", OUT]
    return [
        _job("exhaustive", common + ["--exhaustive", "--size", "2"],
             "csv", "gap_exhaustive", "exhaustive-2"),
        _job("random", common + ["--size", "4", "--density", "0.5",
                                 "--trials", str(trials), "--seed", str(seed)],
             "csv", "gap_random"),
    ]


def _lemma_sweep(paths, seed, scale):
    # Many repeated small enumerations, compose, pattern builds and a JSON
    # emit that is about half the job.  g3 is symmetric in its two
    # directions, so shape 0,1 has the reference of shape 1,0.
    shapes = ("1,0", "0,1") if scale == "full" else ("1,0",)
    return [
        _job(f"lemma-g3-{shape}", ["lemma-check", "-f", paths["g3"],
                                   "--p", "1,1", "--max-shape", shape,
                                   "--out", OUT],
             "json", "lemma", "lemma-g3-1,0")
        for shape in shapes
    ]


# Long-series n_max per job at full scale; the smoke scale and the traced
# n_max scaling curve use fractions of these.
LONG_SERIES_N_MAX = {"entropy-g3": 200, "pressure-g1": 200, "entropy-t3": 60}
SMOKE_FRACTION = (1, 10)
# Below this the series have not converged to the tolerances checks.py
# asks for (their error falls like 0.38^n).
N_MAX_FLOOR = 30


def long_series_jobs(paths, fraction=(1, 1)):
    num, den = fraction
    n = {name: max(N_MAX_FLOOR, value * num // den)
         for name, value in LONG_SERIES_N_MAX.items()}
    return [
        _job("entropy-g3", ["entropy", "-f", paths["g3"], "--p", "1,1",
                            "--n-max", str(n["entropy-g3"]), "--out", OUT],
             "json", "entropy", "entropy-g3-1,1"),
        _job("pressure-g1", ["pressure", "-f", paths["g1"], "--p", "1",
                             "--n-max", str(n["pressure-g1"]), "--oracle",
                             "--potential", paths["pot"], "--out", OUT],
             "json", "pressure_oracle", "oracle-g1"),
        _job("entropy-t3", ["entropy", "-f", paths["t3"], "--p", "1,1,1",
                            "--n-max", str(n["entropy-t3"]), "--out", OUT],
             "json", "entropy", "entropy-t3-1,1,1"),
    ]


def _long_series(paths, seed, scale):
    # Exact big-int power products and the transfer chain, each rebuilt for
    # every n; almost no enumeration.
    return long_series_jobs(paths, (1, 1) if scale == "full" else SMOKE_FRACTION)


def _enum_crosscheck(paths, seed, scale):
    # One-shot large enumerations and restrict-heavy Birkhoff sums: no word
    # set is enumerated twice, so memoization has nothing to save here.
    g3_shape, t4_shape = (("4,4", "1,1,1,0") if scale == "full"
                          else ("3,3", "1,1,0,0"))
    n_max = 8
    return [
        _job("count-g3", ["count-check", "-f", paths["g3"],
                          "--max-shape", g3_shape, "--out", OUT],
             "json", "count", f"count-g3-{g3_shape}"),
        _job("count-t4", ["count-check", "-f", paths["t4"],
                          "--max-shape", t4_shape, "--out", OUT],
             "json", "count", f"count-t4-{t4_shape}"),
        _job("pressure-enum-g1", ["pressure", "-f", paths["g1"], "--p", "1",
                                  "--n-max", str(n_max), "--method", "enumerate",
                                  "--potential", paths["pot"], "--out", OUT],
             "json", "pressure_value", f"pressure-enum-g1-{n_max}"),
    ]


_JOB_SETS = {
    "gap-sweep": _gap_sweep,
    "lemma-sweep": _lemma_sweep,
    "long-series": _long_series,
    "enum-crosscheck": _enum_crosscheck,
}

# Inputs each workload loads and validates during set-up; "pot" is the
# vertex potential on g1 and comes after it.
USES = {
    "gap-sweep": ("g1",),
    "lemma-sweep": ("g3",),
    "long-series": ("g1", "g3", "t3", "pot"),
    "enum-crosscheck": ("g1", "g3", "t4", "pot"),
}


def jobs(workload, paths, seed, scale="full"):
    return _JOB_SETS[workload](paths, seed, scale)
