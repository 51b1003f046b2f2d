"""Topological pressure for window potentials along a step direction.

A potential reads the restriction of a configuration to a fixed window box
and the partition function at stage n sums exp of the Birkhoff sum over the
n+1 window sites visited by steps of p inside a word of shape k*e + n*p.

Two evaluation routes are kept deliberately separate.  The enumerate route
sums over every word of the stage shape; the stages of a step along axis 0
are prefix boxes of the last one and share its backtracking.  The transfer
route runs a weighted chain over cube-k words: a word of shape k*e + n*p is
the same thing as a compatible chain of its n+1 shifted cube restrictions,
consecutive ones being joined by a unique word of shape p + k*e, so the
stage sum is a matrix power of the 0-1 transition structure with a diagonal
weight.  The routes agree exactly and the transfer route stays cheap at
large n: one run of the chain yields the log sums of every stage 0..n, so a
whole pressure series costs n_max chain steps, linear in n_max.  Both
routes read labels through one window kernel (_window_reader, one
itemgetter per shape): a stage word's window sites, a chain state's site
at 0 and the cube sites at 0 and at p of a chain edge, a word of shape
cube + p.
"""

from itertools import repeat
from math import ceil, exp, fsum, inf, log
from operator import itemgetter, mul, sub
from sys import float_info
from typing import NamedTuple

from .dynamics import Series, check_scale
from .errors import (
    BudgetExceededError,
    NonFiniteResultError,
    RadiusUnderflowError,
    ShapeMismatchError,
    TransferChainDeadEndError,
    TransferChainUnderflowError,
    WindowTooWideError,
    ZeroDirectionError,
)
from .matrices import (
    log_spectral_radius,
    matrix_power_product,
    radius_log,
    require_rank,
    require_valid,
)
from .shapes import Shape
from .words import (
    Word,
    _dfs_leaves,
    _dfs_prefixes,
    check_enum_budget,
    dfs_plan,
    letter_index,
    make_word,
    prefix_groups,
    restrict_prefix,
    word_to_dict,
)


class Potential(NamedTuple):
    """Window function on words: table lookup with a default value."""
    window: Shape
    default: float
    table: dict

    def value(self, word):
        if not self.window <= word.shape:
            raise WindowTooWideError(
                "word does not contain the potential window",
                window=list(self.window), shape=list(word.shape))
        key = word if word.shape == self.window else restrict_prefix(word, self.window)
        return self.table.get(key, self.default)


def vertex_potential(family, values, default=0.0):
    """Potential with the zero window: reads one letter.  ``values`` maps
    letters (or letter indices) to finite numbers (_finite)."""
    window = Shape.zero(family.rank)
    table = {Word(window, (letter_index(family, key),)): _finite(val)
             for key, val in values.items()}
    return Potential(window, _finite(default), table)


def potential_to_dict(potential):
    entries = sorted(potential.table.items(), key=lambda kv: kv[0].labels)
    return {
        "window": list(potential.window),
        "default": potential.default,
        "entries": [
            {"word": word_to_dict(word), "value": val} for word, val in entries
        ],
    }


def _finite(x):
    """A potential value as loaded: an int or float within float range,
    never a bool, a string, an infinity or NaN."""
    if type(x) not in (int, float) or not abs(x) <= float_info.max:
        raise ValueError(f"potential value {x!r} is not a finite number")
    return float(x)


def potential_from_dict(family, data):
    """Each word is a label list or a labels dict whose shape, if given, is
    the window; a word given twice, or with a label count other than the
    window's volume, is refused."""
    window = Shape(tuple(data["window"]))
    table = {}
    for entry in data["entries"]:
        spec = entry["word"]
        if not isinstance(spec, dict):
            spec = {"labels": spec}
        if Shape(tuple(spec.get("shape", window))) != window:
            raise ValueError(f"word shape {spec['shape']} is not the window")
        labels = tuple(spec["labels"])
        if len(labels) != window.volume:
            raise ValueError(f"word {list(labels)} does not fill the window:"
                             f" {len(labels)} labels for {window.volume}")
        word = make_word(family, window, labels)
        if word in table:
            raise ValueError(f"potential word {list(word.labels)} given twice")
        table[word] = _finite(entry["value"])
    return Potential(window, _finite(data.get("default", 0.0)), table)


def log_sum_exp(values):
    values = list(values)
    if not values:
        raise ValueError("log_sum_exp of nothing")
    top = max(values)
    if top == -inf:  # every term weighs nothing, not exp(nan)
        return top
    return top + log(fsum(map(exp, map(sub, values, repeat(top)))))


def birkhoff_sum_on_cylinder(family, potential, word, step, n):
    """Sum of the potential over the n+1 window sites at offsets 0, p, ..,
    n*p inside the word, whose shape must be k*e + n*p for some cube k*e."""
    try:
        base = word.shape - step.scaled(n)
    except ValueError:
        base = None
    if base is None or base != Shape.cube(base.min_coord, base.rank):
        raise ShapeMismatchError(
            "word shape minus n steps must be a cube",
            shape=list(word.shape), step=list(step), n=n)
    _check_stage(family, potential, base.min_coord, step)
    read = _window_reader(word.shape, potential.window, step, n)
    return _birkhoff_sum(word.labels, read, potential.window.volume,
                         _labels_table(potential), potential.default)


def _window_reader(shape, window, step, n):
    """The window kernel: one itemgetter of a word's labels at the window
    sites of its shape k*e + n*p (the window within the cube k*e), at
    offsets 0, p, .., n*p: site after site, each row-major, the origin's
    moved by l flat strides of p.  A lone index (n = 0, a vertex window) is
    a one-item slice, so it always returns a tuple; at n = 0, the key."""
    origin = shape.indices(window)
    shift = sum(map(mul, step, shape.strides))
    sites = [t + l * shift for l in range(n + 1) for t in origin]
    if len(sites) == 1:
        return itemgetter(slice(sites[0], sites[0] + 1))
    return itemgetter(*sites)


def _labels_table(potential):
    """The potential's table keyed by window labels."""
    return {w.labels: v for w, v in potential.table.items()
            if w.shape == potential.window}


def _birkhoff_sum(labels, read, volume, table, default, size=None):
    """The potential summed over the window sites of one word, read by
    _window_reader and grouped into window keys of ``volume`` labels; the
    word is the first ``size`` labels (all by default).  Where a partial
    sum leaves float range the exact sum decides: below it, the word
    weighs exp(-inf) = 0; above it, NonFiniteResult, as the transfer
    route's infinite log sum is when emitted."""
    values = list(map(table.get, zip(*[iter(read(labels))] * volume),
                      repeat(default)))
    try:
        return fsum(values)
    except OverflowError:
        from fractions import Fraction  # loads decimal: only here
        exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        if exact < 0:
            return -inf
        raise NonFiniteResultError(
            "the Birkhoff sum leaves float range",
            labels=list(labels[:size])) from None


def _check_stage(family, potential, k, step):
    require_valid(family)
    require_rank(family, step)
    require_rank(family, potential.window)
    check_scale(k, step)
    if max(potential.window) > k:
        raise WindowTooWideError(
            "potential window does not fit in the stage cube",
            window=list(potential.window), k=k)


def partition_function_log(family, potential, k, p, n, method="transfer",
                           budget=None):
    """log of the stage-n partition sum at cube radius k along step p."""
    _check_stage(family, potential, k, p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _stage_logs(family, potential, k, p, [n], method, budget)[0]


def _stage_logs(family, potential, k, p, stages, method, budget):
    """log partition sums of consecutive stages by the route ``method``
    names: one chain run to the last stage, or the stages enumerated."""
    if method == "transfer":
        parts = _transfer_parts(family, potential, k, p, budget)
        return _chain_log_sums(*parts, stages[-1])[stages[0]:]
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    return _enumerated_logs(family, potential, k, p, stages, budget)


def _enumerated_logs(family, potential, k, p, stages, budget):
    """log partition sums of the stages, each summed over every word of
    its shape.  Stages whose shapes are prefix boxes of a later one's (p
    along axis 0 only, as at rank 1) share its backtracking, one per
    prefix_groups group: _dfs_prefixes cuts at each stage's last point,
    where the stage's window kernel reads its sites, so each stage's sums
    arrive in lexicographic word order, as one enumeration of the stage
    gives them.  A group keeps all of its stages' sums until its
    backtracking ends.  Failures come in stage order, as when each stage
    was guarded and then enumerated in turn: the first stage's
    NonFiniteResult (at its first such word) before a later stage's
    refusal."""
    cube = Shape.cube(k, family.rank)
    shapes, refusal = [], None
    for n in stages:
        shape = cube + p.scaled(n)
        try:
            check_enum_budget(family, shape, budget)
        except BudgetExceededError as error:
            refusal = error
            break
        shapes.append(shape)
    table, default = _labels_table(potential), potential.default
    window, volume = potential.window, potential.window.volume
    sums, failures = [[] for _ in shapes], [None] * len(shapes)
    for group in prefix_groups(shapes):
        top = group[-1]
        cuts = [None] * top.volume  # at a stage's last point: (stage, reader)
        for shape in group:
            i = shapes.index(shape)
            cuts[shape.volume - 1] = i, _window_reader(shape, window, p, stages[i])
        labels = [0] * top.volume
        for t in _dfs_prefixes(family, top, {}, dfs_plan(family, top), cuts, labels):
            i, read = cuts[t]
            try:
                sums[i].append(_birkhoff_sum(labels, read, volume, table,
                                             default, t + 1))
            except NonFiniteResultError as error:
                failures[i] = failures[i] or error
    for error in failures:
        if error:
            raise error
    if refusal:
        raise refusal
    return list(map(log_sum_exp, sums))


def _transfer_parts(family, potential, k, p, budget):
    """In-edges and weight logs of the chain: states are cube words keyed
    by labels, in walk order, weighing their site at 0; a word of shape
    cube + p is an edge from its cube site at 0 to its site at p.  The
    chain walks both boxes itself, on a family _check_stage validated."""
    cube = Shape.cube(k, family.rank)
    edge = cube + p
    check_enum_budget(family, edge, budget)
    index = {tuple(labels): i for i, labels in enumerate(
        _dfs_leaves(family, cube, {}, dfs_plan(family, cube)))}
    ends = _window_reader(edge, cube, p, 1)
    split = cube.volume
    in_edges = [[] for _ in index]
    for labels in _dfs_leaves(family, edge, {}, dfs_plan(family, edge)):
        both = ends(labels)
        in_edges[index[both[split:]]].append(index[both[:split]])
    at_origin = _window_reader(cube, potential.window, p, 0)
    weigh, default = _labels_table(potential).get, potential.default
    return in_edges, [weigh(at_origin(s), default) for s in index]


def _chain_log_sums(in_edges, weight_logs, n):
    """log partition sums of stages 0..n, from one run of the chain."""
    top = max(weight_logs)
    dvals = [exp(x - top) for x in weight_logs]
    v = dvals[:]
    acc = top
    logs = [acc + log(fsum(v))]
    for stage in range(1, n + 1):
        get = v.__getitem__
        w = [fsum(map(get, rows)) * dvals[col]
             for col, rows in enumerate(in_edges)]
        peak = max(w)
        if peak == 0.0:  # a live 0-1 structure means the weights underflowed
            live = [True] * len(in_edges)
            for _ in range(stage):
                live = [any(map(live.__getitem__, rows)) for rows in in_edges]
            if any(live):
                raise TransferChainUnderflowError(
                    "every weight of a live transfer chain underflowed",
                    stage=stage)
            raise TransferChainDeadEndError(
                "transfer chain has no admissible continuation", stage=stage)
        v = [x / peak for x in w]
        acc += top + log(peak)
        logs.append(acc + log(fsum(v)))
    return logs


# -- Estimates and the vertex oracle -------------------------------------------

def pressure_estimate(family, potential, k, p, n_max, method="transfer",
                      budget=None):
    """The Series of the log partition sums at n = 1..n_max; its last
    increment is the pressure estimate."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    _check_stage(family, potential, k, p)
    return Series.of_logs(_stage_logs(family, potential, k, p,
                                      range(1, n_max + 1), method, budget))


def pressure_oracle_vertex(family, values, p, budget=None):
    """Independent check for vertex potentials: log spectral radius of the
    letter-weighted step matrix diag(exp g) * M^p, reported by radius_log
    as entropy_exact is.  A top value beyond +-700 is factored out first
    and added back to the log-domain radius, so exp neither overflows nor
    underflows every weight.  Where a row sum of M^p, weighted or not,
    would leave float range, M^p is scaled by a power of two whose log is
    added back.  Weights that underflow on every cycle leave a nilpotent
    matrix: RadiusUnderflow."""
    require_valid(family)
    if p.is_zero:
        raise ZeroDirectionError("step direction must be nonzero")
    step_matrix = matrix_power_product(family, p, budget)
    dim = len(family.alphabet)
    g = [0.0] * dim
    for key, val in values.items():
        g[letter_index(family, key)] = _finite(val)
    top = max(g)
    shift = top if abs(top) > 700 else 0.0
    # e^709: a margin of 2 below the largest float, for rounding
    excess = max(log(sum(row)) + max(w - shift, 0.0)
                 for w, row in zip(g, step_matrix)) - 709
    bits = ceil(excess / log(2)) if excess > 0 else 0
    if bits:
        step_matrix = [[x / (1 << bits) for x in row] for row in step_matrix]
    weighted = tuple(
        tuple(exp(g[a] - shift) * step_matrix[a][b] for b in range(dim))
        for a in range(dim)
    )
    log_radius = log_spectral_radius(weighted) + bits * log(2)
    value = shift + log_radius if shift else radius_log(log_radius)
    if value == -inf:
        # M^p of a valid family is never nilpotent: the weights underflowed
        raise RadiusUnderflowError(
            "the weighted step matrix underflowed to a nilpotent matrix",
            step=list(p))
    return value
