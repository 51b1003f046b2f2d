"""Outside-in tracing of the rankshift layers.

The tracer replaces public functions of the package modules by timing
wrappers in every module namespace that binds them (``spectral_radius``
is bound in ``matrices``, ``gapsearch``, ``pressure`` and the package
root, for instance), so calls are seen whichever name the caller uses.
Nothing inside the package changes.  ``shapes`` is left alone: its methods
run millions of times per job and wrapping them would swamp the timings;
their cost stays in the self time of their callers.  ``require_valid`` is
left alone for the same reason; the validation it triggers is still seen,
because it goes through ``validate_family``.

A span covers one call of a wrapped function, calls from inside the same
module included: ``build_shift_patterns``, ``check_partial_isometry`` and
``gap_parts`` are only ever called from their own modules, and their
layer metrics would read 0 otherwise.  Edges that cross a module boundary
are marked in the edge table.  For the generators returned by
``enumerate_words`` and ``enumerate_extensions`` a span covers each
``next()``, so enumeration time is charged where the work happens.  Spans
are not stored one by one: each is folded into a total per (parent,
function) edge, which keeps memory bounded however many calls a job
makes.  Self time is span time minus the time of the child spans it
contains.
"""

import sys
from collections import Counter
from time import perf_counter

# Public functions wrapped, per module of the package.
WRAPPED = {
    "matrices": ("validate_family", "spectral_radius", "matrix_power",
                 "matrix_power_product", "word_count", "log_word_count",
                 "entropy_exact", "family_from_dict", "load_family",
                 "family_to_dict", "canonical_family_json"),
    "words": ("enumerate_words", "enumerate_extensions", "compose",
              "restrict_prefix", "restrict_tail", "check_enum_budget",
              "count_oracle_check", "make_word", "word_from_dict",
              "word_to_dict"),
    "dynamics": ("bowen_entropy_estimate", "action_entropy_estimate",
                 "separated_count", "metric", "shift_truncation"),
    "pressure": ("pressure_estimate", "partition_function_log",
                 "birkhoff_sum_on_cylinder", "log_sum_exp",
                 "pressure_oracle_vertex", "vertex_potential",
                 "potential_from_dict", "potential_to_dict"),
    "patterns": ("build_shift_patterns", "check_partial_isometry",
                 "examine_pair", "verify_partial_isometries",
                 "check_cylinder_separation"),
    "gapsearch": ("exhaustive_search", "random_search", "gap_parts", "gap",
                  "canonical_form", "family_fingerprint", "sorted_records",
                  "summarize", "record_csv_header", "record_csv_row",
                  "family_from_csv_row"),
    "cli": ("main",),
}


# Layer metric -> (functions whose self time it sums, functions whose calls
# it counts).
GROUPS = {
    "matrices.validate": (("matrices.validate_family",),
                          ("matrices.validate_family",)),
    "matrices.spectral_radius": (("matrices.spectral_radius",),
                                 ("matrices.spectral_radius",)),
    "matrices.power_product": (("matrices.matrix_power_product",
                                "matrices.matrix_power", "matrices.word_count",
                                "matrices.log_word_count"),
                               ("matrices.matrix_power_product",)),
    "words.enumerate": (("words.enumerate_words", "words.enumerate_extensions"),
                        ("words.enumerate_words", "words.enumerate_extensions")),
    "words.compose": (("words.compose",), ("words.compose",)),
    "words.restrict": (("words.restrict_prefix", "words.restrict_tail"),
                       ("words.restrict_prefix", "words.restrict_tail")),
    "dynamics.bowen": (("dynamics.bowen_entropy_estimate",),
                       ("dynamics.bowen_entropy_estimate",)),
    "pressure.estimate": (("pressure.pressure_estimate",
                           "pressure.partition_function_log",
                           "pressure.birkhoff_sum_on_cylinder",
                           "pressure.log_sum_exp"),
                          ("pressure.pressure_estimate",)),
    "pressure.oracle": (("pressure.pressure_oracle_vertex",),
                        ("pressure.pressure_oracle_vertex",)),
    "patterns.build": (("patterns.build_shift_patterns",),
                       ("patterns.build_shift_patterns",)),
    "patterns.check": (("patterns.check_partial_isometry",),
                       ("patterns.check_partial_isometry",)),
    "gapsearch.search": (("gapsearch.exhaustive_search",
                          "gapsearch.random_search"),
                         ("gapsearch.exhaustive_search",
                          "gapsearch.random_search")),
    "gapsearch.gap_parts": (("gapsearch.gap_parts", "gapsearch.gap"),
                            ("gapsearch.gap_parts",)),
    "cli.main": (("cli.main",), ("cli.main",)),
}

ROOT = "<bench>"


def layer_units():
    """Unit of every per-layer metric, in report order.  ``cli.output_bytes``
    is measured by the worker and ``trace_overhead`` by the parent."""
    units = {}
    for group in GROUPS:
        units[group + ".calls"] = "count"
        units[group + ".self_s"] = "s"
    units.update({
        "words.enumerate.words": "count",
        "words.enumerate.repeat_ratio": "ratio",
        "matrices.log_word_count.exact_ratio": "ratio",
        "patterns.cells": "count",
        "gapsearch.candidates": "count",
        "gapsearch.survivors": "count",
        "gapsearch.survivor_ratio": "ratio",
        "cli.output_bytes": "bytes",
        "trace_overhead": "ratio",
    })
    return units


def _words_key(family, m, origin=None):
    return ("words", id(family), m.coords, origin)


def _extensions_key(family, base, m):
    return ("extensions", id(family), base.shape.coords, base.labels, m.coords)


# The enumeration generators, with the key that identifies a repeated call:
# (family, shape, origin) or (family, fixed prefix, shape).
ENUMERATION_KEYS = {"words.enumerate_words": _words_key,
                    "words.enumerate_extensions": _extensions_key}


class Tracer:
    """Collects per-edge call counts, total and self time, plus counters.

    ``install()`` patches the package, ``uninstall()`` restores it.  Call
    ``new_job()`` before each CLI job so that repeat detection is per job.
    """

    def __init__(self):
        self.edges = {}
        self.counts = Counter()
        self._stack = [[ROOT, 0.0, 0.0]]
        self._seen = set()
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self, calls):
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        parent = self._stack[-1]
        parent[2] += duration
        edge = self.edges.get((parent[0], name))
        if edge is None:
            edge = self.edges[(parent[0], name)] = [0, 0.0, 0.0]
        edge[0] += calls
        edge[1] += duration
        edge[2] += duration - child

    def new_job(self):
        self._seen.clear()

    def reset(self):
        self.edges.clear()
        self.counts.clear()
        self._seen.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, func, post=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(1)
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _wrap_generator(self, name, func, key):
        enter, exit_, counts, seen = self._enter, self._exit, self.counts, self._seen

        def iterate(gen):
            while True:
                enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(0)
                counts["words.enumerate.yielded"] += 1
                yield item

        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            if k in seen:
                counts["words.enumerate.repeats"] += 1
            else:
                seen.add(k)
            enter(name)
            try:
                gen = func(*args, **kwargs)
            finally:
                exit_(1)
            return iterate(gen)

        wrapper.__wrapped__ = func
        return wrapper

    def _count_route(self, result):
        self.counts["log_word_count.calls"] += 1
        self.counts["log_word_count.exact"] += bool(result[1])

    def _count_cells(self, result):
        self.counts["patterns.cells"] += sum(len(p.cells) for p in result.values())

    def _count_survivors(self, result):
        self.counts["gapsearch.survivors"] += len(result)

    # -- patching ---------------------------------------------------------

    def install(self):
        hooks = {"matrices.log_word_count": self._count_route,
                 "patterns.build_shift_patterns": self._count_cells,
                 "gapsearch.exhaustive_search": self._count_survivors,
                 "gapsearch.random_search": self._count_survivors}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "rankshift" or n.startswith("rankshift.")) and m]
        for module_name, names in WRAPPED.items():
            home = sys.modules["rankshift." + module_name]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # gone from this version: reads 0
                    continue
                qual = f"{module_name}.{fname}"
                if qual in ENUMERATION_KEYS:
                    wrapper = self._wrap_generator(qual, original,
                                                   ENUMERATION_KEYS[qual])
                else:
                    wrapper = self._wrap(qual, original, hooks.get(qual))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        self._patches.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def _by_function(self):
        calls, self_s = Counter(), Counter()
        for (_, name), (n, _, own) in self.edges.items():
            calls[name] += n
            self_s[name] += own
        return calls, self_s

    def layer_metrics(self):
        """The per-layer metrics for everything recorded since reset()."""
        calls, self_s = self._by_function()
        out = {}
        for group, (timed, counted) in GROUPS.items():
            out[group + ".calls"] = sum(calls[f] for f in counted)
            out[group + ".self_s"] = float(sum(self_s[f] for f in timed))
        c = self.counts
        enum_calls = out["words.enumerate.calls"]
        out["words.enumerate.words"] = c["words.enumerate.yielded"]
        out["words.enumerate.repeat_ratio"] = _ratio(
            c["words.enumerate.repeats"], enum_calls)
        out["matrices.log_word_count.exact_ratio"] = _ratio(
            c["log_word_count.exact"], c["log_word_count.calls"])
        out["patterns.cells"] = c["patterns.cells"]
        candidates = sum(
            n for (parent, name), (n, _, _) in self.edges.items()
            if name == "matrices.validate_family"
            and parent in ("gapsearch.exhaustive_search", "gapsearch.random_search"))
        out["gapsearch.candidates"] = candidates
        out["gapsearch.survivors"] = c["gapsearch.survivors"]
        out["gapsearch.survivor_ratio"] = _ratio(c["gapsearch.survivors"],
                                                 candidates)
        return out

    def edge_table(self):
        """Every (parent, function) edge, largest self time first."""
        rows = [{"parent": p, "function": f, "calls": n, "total_s": t,
                 "self_s": s,
                 "cross_module": p.split(".")[0] != f.split(".")[0]}
                for (p, f), (n, t, s) in self.edges.items()]
        return sorted(rows, key=lambda r: -r["self_s"])


def _ratio(num, den):
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
