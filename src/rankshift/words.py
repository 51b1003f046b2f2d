"""Words: labelings of lattice boxes subject to the transition matrices.

A word of shape m assigns a letter to every point of box(m) so that each
unit step in direction j is allowed by M_j.  Its restriction to a prefix
box [0, k] or a tail box [k, m] (rebased to the origin) is again a word,
and a word is recovered uniquely from any compatible prefix/tail pair by
filling unit squares: the corner of a square after one known end of its
diagonal and before the other is forced when the family is valid
(MatrixFamily.completion).  Labels are row-major, stepped by Shape.strides.

Enumeration is depth-first over box points in row-major order, trying
letters in index order, so words stream in lexicographic order of their
label sequences.

Each kernel is a plan and an apply step.  A plan is index geometry: it
depends on shapes (and, for the enumeration, on the family's successor
rows), never on labels.  dfs_plan gives the predecessors of every box
point, compose_plan the placed indices, fill schedule and edge list of a
shape pair, edge_plan the edges of a box, and Shape.indices the index map
of a restriction.  The public functions build their plan and apply it
once; patterns.SweepTables caches the plans for the calls of one sweep.
The DFS plan has three apply steps, all one backtracking in one order:
_dfs_words yields each Word; _dfs_count, which count_oracle_check reads,
tallies the letters placed at every point, adding the popcount of the
last point's candidates, and builds no Word; _dfs_prefixes, which the
enumerate pressure route reads, yields t whenever a cut point t receives
a letter, its caller reading the labels so far.

box(l) is a prefix box of box(m) (is_prefix_box) when it is the first
l.volume points of box(m) in row-major order.  Those points keep their
flat indices and their predecessors, so one backtracking over box(m)
places letters at them exactly as the backtracking over box(l) does:
the tally at index l.volume - 1 counts the words of shape l, and the
labels at a cut l.volume - 1 are a word of shape l, in lexicographic
order.  prefix_groups splits a list of shapes into groups that share
one backtracking each.
"""

import functools
from math import log2
from typing import NamedTuple

from .budget import DEFAULT as DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    NoFillingError,
    OriginMismatchError,
    ShapeMismatchError,
    ShapeNotDominatedError,
    UnknownLetterError,
)
from .matrices import origin_counts, require_rank, require_valid
from .shapes import Shape


class Word(NamedTuple):
    """Labels of box(shape), row-major; a tuple, so it hashes in C."""
    shape: Shape
    labels: tuple

    @property
    def origin(self):
        return self.labels[0]

    @property
    def terminal(self):
        return self.labels[-1]

    def label_at(self, point):
        return self.labels[self.shape.index_of(point)]

    def letters(self, family):
        return tuple(family.alphabet[i] for i in self.labels)

    def __repr__(self):
        return f"Word({self.shape.coords}, {self.labels})"


def word_to_dict(word):
    return {"shape": list(word.shape), "labels": list(word.labels)}


def word_from_dict(family, data):
    shape = Shape(tuple(data["shape"]))
    return make_word(family, shape, tuple(data["labels"]))


def make_word(family, shape, labels):
    """Validated constructor: checks that the family is valid, that labels
    are exact integers in range and every box edge."""
    require_valid(family)
    labels = tuple(labels)
    if any(type(x) is not int for x in labels):
        raise ValueError("letter labels must be integers")
    if len(labels) != shape.volume:
        raise ShapeMismatchError(
            "label count does not match box volume",
            expected=shape.volume, got=len(labels))
    dim = len(family.alphabet)
    if any(not 0 <= x < dim for x in labels):
        raise ValueError("letter index out of range")
    word = Word(shape, labels)
    bad = _first_bad_edge(family, word)
    if bad is not None:
        point, j = bad
        raise ValueError(f"edge constraint violated at {point} direction {j}")
    return word


def _first_bad_edge(family, word, edges=None):
    """(point, j) of the first edge that M_j forbids, in row-major order
    of its start point and then of j; None when every edge is allowed.
    ``edges`` is edge_plan(word.shape), built here when omitted.  Each
    direction's scan stops at its first bad edge, the lowest start index
    of that direction; the least (index, j) among them is the answer."""
    labels, bad = word.labels, None
    for j, (rows, pairs) in enumerate(zip(family.succ, edges or edge_plan(word.shape))):
        for a, b in pairs:
            if not rows[labels[a]] >> labels[b] & 1:
                if bad is None or a < bad[0]:
                    bad = a, j
                break
    return None if bad is None else (word.shape.point_at(bad[0]), bad[1])


def letter_index(family, letter):
    """Index of a letter given by name or by index; UnknownLetterError when
    the alphabet has no such letter."""
    letters = family.alphabet
    if isinstance(letter, str):
        if letter in letters:
            return letters.index(letter)
    elif type(letter) is int and 0 <= letter < len(letters):
        return letter
    raise UnknownLetterError("no such letter in the alphabet",
                             letter=str(letter), alphabet=list(letters))


# -- Budget guard -------------------------------------------------------------

def check_enum_budget(family, shape, budget=None):
    """Refuse enumerations whose raw index space or predicted touched-point
    count exceeds the budget.  Returns M^shape e (origin_counts), whose sum
    the touched-point estimate reads: the exact word count by origin."""
    budget = budget or DEFAULT_BUDGET
    bits = shape.volume * log2(max(len(family.alphabet), 2))
    if bits > budget.max_enum_bits:
        raise BudgetExceededError(
            "enumeration index space too large",
            estimated_bits=bits, max_enum_bits=budget.max_enum_bits)
    counts = origin_counts(family, shape, budget)
    nodes = sum(counts) * shape.volume
    if nodes > budget.max_enum_nodes:
        raise BudgetExceededError(
            "enumeration would touch too many lattice points",
            estimated_nodes=nodes, max_enum_nodes=budget.max_enum_nodes)
    return counts


# -- Plans --------------------------------------------------------------------

def dfs_plan(family, m):
    """Per point of box(m), row-major: a (successor rows, index) pair for
    each predecessor q - e_j inside the box, rows = family.succ[j]."""
    succ, strides = family.succ, m.strides
    return [tuple((rows, t - step) for rows, step, c in zip(succ, strides, pt)
                  if c) for t, pt in enumerate(m.box())]


def edge_plan(m):
    """Per direction j, the (a, a + strides[j]) index pairs of the edges of
    box(m) in direction j, in row-major order of their start point a;
    coordinate j of the point at a is a // strides[j] % (m_j + 1)."""
    return tuple(tuple((a, a + step) for a in range(m.volume) if a // step % (c + 1) < c)
                 for c, step in zip(m, m.strides))


class ComposePlan(NamedTuple):
    """What compose reads of a shape pair (sigma(u), sigma(v)): the box of
    the result, the flat indices that take u's labels and then v's, the
    fill schedule and the result's edge_plan.  Each fill is a tuple
    (t, i, j, t - strides[j], t + strides[i]): the letter at flat index t
    is the completion of the path base -(j)-> x -(i)-> top."""
    total: Shape
    placed: tuple
    fills: tuple
    edges: tuple


def compose_plan(corner, tail):
    """The ComposePlan of factor shapes ``corner`` = sigma(u) and ``tail``
    = sigma(v).  The schedule holds every point q outside both boxes in
    order of L1 distance from the corner, with j the first direction where
    q_j > corner_j and i the first where q_i < corner_i."""
    total = corner + tail
    strides = total.strides
    placed = tuple(total.indices(corner) + total.indices(tail, corner))
    known = set(placed)
    rest = [(t, q) for t, q in enumerate(total.box()) if t not in known]
    rest.sort(key=lambda tq: sum(abs(a - c) for a, c in zip(tq[1], corner)))
    fills = []
    for t, q in rest:
        j = next(j for j, c in enumerate(corner) if q[j] > c)
        i = next(i for i, c in enumerate(corner) if q[i] < c)
        fills.append((t, i, j, t - strides[j], t + strides[i]))
    return ComposePlan(total, placed, tuple(fills), edge_plan(total))


def is_prefix_box(l, m):
    """Whether box(l) is the first l.volume points of box(m), row-major:
    for some axis i, l is 0 on every axis before i, l_i <= m_i, and l
    equals m on every axis after i.  The first axis where l is nonzero
    (the last if none) is such an i whenever one exists."""
    i = 0
    while i < len(l) - 1 and not l[i]:
        i += 1
    return l[i] <= m[i] and l[i + 1:] == m[i + 1:]


def prefix_groups(shapes):
    """The shapes in groups that one backtracking each enumerates: the
    last shape not yet grouped is a top, and its group is every ungrouped
    shape that is a prefix box of it, in the given order, the top last."""
    left, groups = list(shapes), []
    while left:
        top, group, rest = left[-1], [], []
        for l in left:
            (group if is_prefix_box(l, top) else rest).append(l)
        groups.append(group)
        left = rest
    return groups


# -- Enumeration --------------------------------------------------------------

def _dfs_words(family, m, fixed, preds):
    """Backtracking enumeration; ``fixed`` maps box indices to forced
    letters and ``preds`` is dfs_plan(family, m).

    The candidates at a point are the AND of its predecessors' successor
    masks (and the forced letter's bit), tried low bit first.
    """
    n = m.volume
    allowed = [(1 << len(family.alphabet)) - 1] * n
    for t, letter in fixed.items():
        allowed[t] &= 1 << letter
    labels = [0] * n
    left = [allowed[0]] + [0] * (n - 1)  # untried candidates per point
    t = 0
    while t >= 0:
        mask = left[t]
        if not mask:
            t -= 1
            continue
        low = mask & -mask
        left[t] = mask ^ low
        labels[t] = low.bit_length() - 1
        if t + 1 == n:
            yield Word(m, tuple(labels))
            continue
        t += 1
        mask = allowed[t]
        for rows, pidx in preds[t]:
            mask &= rows[labels[pidx]]
        left[t] = mask


def _dfs_count(family, m, preds):
    """The tally of letters placed at every point of box(m), row-major;
    ``preds`` is dfs_plan(family, m).  Entry t counts the labelings of
    the first t + 1 points that every edge among them allows, extendable
    or not: at a prefix box l of m (is_prefix_box), entry l.volume - 1 is
    the number of words of shape l, and the last entry that of m.

    The backtracking of _dfs_words, in the same order, over every point
    but the last; entering a point adds the popcount of its candidates,
    the predecessors' AND, to its tally, and the last point is not
    entered, so no labels tuple and no Word is built.  The two loops are
    kept apart: a kernel that yielded (prefix, last mask) to both made the
    lemma sweeps, which read _dfs_words, slower.
    """
    n = m.volume
    full = (1 << len(family.alphabet)) - 1
    placed = [0] * n
    placed[0] = full.bit_count()
    if n == 1:
        return placed
    labels = [0] * n
    left = [full] + [0] * (n - 1)  # untried candidates per point
    stop, last = n - 2, preds[n - 1]
    count = t = 0
    while t >= 0:
        mask = left[t]
        if not mask:
            t -= 1
            continue
        low = mask & -mask
        left[t] = mask ^ low
        labels[t] = low.bit_length() - 1
        mask = full
        if t == stop:
            for rows, pidx in last:
                mask &= rows[labels[pidx]]
            count += mask.bit_count()
            continue
        t += 1
        for rows, pidx in preds[t]:
            mask &= rows[labels[pidx]]
        left[t] = mask
        placed[t] += mask.bit_count()
    placed[n - 1] = count
    return placed


def _dfs_prefixes(family, m, preds, cuts, labels):
    """Backtracking over box(m) that writes each letter into ``labels``
    (a list of m.volume entries) and yields t each time a point t with
    cuts[t] set receives one; ``preds`` is dfs_plan(family, m).

    At a cut t = l.volume - 1 of a prefix box l of m, labels[:t + 1] is
    then a word of shape l, and the words of l arrive in lexicographic
    order, as _dfs_words yields them.  The cut test reads a per-point
    list, one index per node, not a set or dict of cut points.
    """
    n = m.volume
    full = (1 << len(family.alphabet)) - 1
    left = [full] + [0] * (n - 1)  # untried candidates per point
    t = 0
    while t >= 0:
        mask = left[t]
        if not mask:
            t -= 1
            continue
        low = mask & -mask
        left[t] = mask ^ low
        labels[t] = low.bit_length() - 1
        if cuts[t]:
            yield t
        if t + 1 == n:
            continue
        t += 1
        mask = full
        for rows, pidx in preds[t]:
            mask &= rows[labels[pidx]]
        left[t] = mask


def enumerate_words(family, m, origin=None):
    """Yield every word of shape m in lexicographic label order; with
    ``origin`` (letter or index) only words starting there."""
    return _enumerate_words(family, m, origin, functools.partial(dfs_plan, family))


def _enumerate_words(family, m, origin, plans):
    """enumerate_words, reading the DFS plan of m as plans(m)."""
    require_valid(family)
    require_rank(family, m)
    fixed = {} if origin is None else {0: letter_index(family, origin)}
    return _dfs_words(family, m, fixed, plans(m))


def enumerate_extensions(family, base, m):
    """Yield the words of shape m whose prefix of shape sigma(base) is base."""
    require_valid(family)
    require_extension(base.shape, m)
    fixed = dict(zip(m.indices(base.shape), base.labels))
    return _dfs_words(family, m, fixed, dfs_plan(family, m))


def require_extension(base_shape, m):
    """The shape guard of enumerate_extensions."""
    if not base_shape <= m:
        raise ShapeNotDominatedError(
            "extension shape must dominate the base shape",
            base=list(base_shape), target=list(m))


# -- Restriction and composition ---------------------------------------------

def restrict_prefix(word, k):
    """Restriction to the box [0, k]."""
    if not k <= word.shape:
        raise ShapeNotDominatedError(
            "prefix shape not dominated by word shape",
            shape=list(word.shape), prefix=list(k))
    return Word(k, tuple(map(word.labels.__getitem__, word.shape.indices(k))))


def restrict_tail(word, k):
    """Restriction to the box [k, m], rebased to the origin."""
    require_tail(word.shape, k)
    rest = word.shape - k
    return Word(rest, tuple(map(word.labels.__getitem__,
                                word.shape.indices(rest, k))))


def require_tail(shape, k):
    """The offset guard of restrict_tail."""
    if not k <= shape:
        raise ShapeNotDominatedError(
            "tail offset not dominated by word shape",
            shape=list(shape), offset=list(k))


def compose(family, u, v):
    """The unique word of shape sigma(u) + sigma(v) with prefix u and tail v.

    u is placed on [0, c] and v on [c, c + sigma(v)], c = sigma(u), after
    the shared corner is checked.  Any other point q has some q_j > c_j and
    some q_i < c_i: it follows q - e_j and precedes q + e_i, both one step
    nearer to c, so one pass in order of L1 distance from c fills each
    point once.  Where the points go and in which order they are filled
    depends on sigma(u) and sigma(v) only: compose builds that
    compose_plan, then applies it to the labels.  An empty square
    completion, or a broken edge in the result, signals a family that
    wrongly passed validation and surfaces as a hard error.
    """
    return _compose(family, u, v, compose_plan)


def _compose(family, u, v, plans):
    """compose, reading the plan of the shape pair as plans(sigma(u), sigma(v))."""
    require_valid(family)
    if u.shape.rank != v.shape.rank:
        raise ShapeMismatchError("rank mismatch between factors")
    if u.terminal != v.origin:
        raise OriginMismatchError(
            "terminal letter of u differs from origin letter of v",
            terminal=u.terminal, origin=v.origin)
    plan = plans(u.shape, v.shape)
    labels = [None] * plan.total.volume
    for t, x in zip(plan.placed, u.labels + v.labels):
        labels[t] = x
    _fill(family, labels, plan)
    result = Word(plan.total, tuple(labels))
    bad = _first_bad_edge(family, result, plan.edges)
    if bad is not None:
        point, j = bad
        raise NoFillingError(
            "filled box violates an edge constraint",
            point=list(point), direction=j)
    return result


def _fill(family, labels, plan):
    """Run the fill schedule of a ComposePlan over labels: each letter is
    one family.completion read; NoFillingError names the point of the
    first empty one."""
    completion = family.completion
    for t, i, j, base, top in plan.fills:
        x = completion(i, j, labels[base], labels[top])
        if x is None:
            raise NoFillingError("square completion has no solution",
                                 point=list(plan.total.point_at(t)))
        labels[t] = x


# -- Count cross-check ---------------------------------------------------------

class CountCheckRow(NamedTuple):
    shape: Shape
    enumerated: int
    matrix_count: int

    @property
    def equal(self):
        return self.enumerated == self.matrix_count

    def to_json(self):
        return {
            "shape": list(self.shape),
            "enumerated": str(self.enumerated),
            "matrix_count": str(self.matrix_count),
            "equal": self.equal,
        }


class CountCheckReport(NamedTuple):
    rows: tuple

    @property
    def ok(self):
        return all(r.equal for r in self.rows)

    def to_json(self):
        return {"ok": self.ok, "rows": [r.to_json() for r in self.rows]}


def count_oracle_check(family, max_shape, budget=None):
    """Compare direct enumeration against the matrix count <e, M^l e> for
    every shape l <= max_shape.

    Every shape is guarded first, in box order, so a refusal names the
    first shape over budget.  Then each prefix_groups group is counted by
    one backtracking over its top, each member reading the top's tally at
    its own last point: box(4, 4) takes 5 backtrackings for 25 shapes."""
    require_valid(family)
    require_rank(family, max_shape)
    shapes = [Shape(pt) for pt in max_shape.box()]
    counted = [sum(check_enum_budget(family, l, budget)) for l in shapes]
    enumerated = {}
    for group in prefix_groups(shapes):
        top = group[-1]
        placed = _dfs_count(family, top, dfs_plan(family, top))
        for l in group:
            enumerated[l] = placed[l.volume - 1]
    return CountCheckReport(tuple(
        CountCheckRow(l, enumerated[l], c) for l, c in zip(shapes, counted)))
