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
"""

from dataclasses import dataclass
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
from .matrices import origin_counts, require_valid
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


def _first_bad_edge(family, word):
    """(point, j) of the first edge that M_j forbids, in row-major order
    of its start point and then of j; None when every edge is allowed."""
    m, labels, succ = word.shape, word.labels, family.succ
    strides = m.strides
    for a, point in enumerate(m.box()):
        for j, step in enumerate(strides):
            if point[j] < m[j] and not succ[j][labels[a]] >> labels[a + step] & 1:
                return point, j
    return None


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


# -- Enumeration --------------------------------------------------------------

def _dfs_words(family, m, fixed):
    """Backtracking enumeration; ``fixed`` maps box indices to forced letters.

    The candidates at a point are the AND of its predecessors' successor
    masks (and the forced letter's bit), tried low bit first.
    """
    succ = family.succ
    n = m.volume
    allowed = [(1 << len(family.alphabet)) - 1] * n
    for t, letter in fixed.items():
        allowed[t] &= 1 << letter
    strides = m.strides
    preds = [tuple((rows, t - step) for rows, step, c in zip(succ, strides, pt)
                   if c) for t, pt in enumerate(m.box())]
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


def enumerate_words(family, m, origin=None):
    """Yield every word of shape m in lexicographic label order; with
    ``origin`` (letter or index) only words starting there."""
    require_valid(family)
    if m.rank != family.rank:
        raise ShapeMismatchError("shape rank does not match family rank")
    fixed = {} if origin is None else {0: letter_index(family, origin)}
    return _dfs_words(family, m, fixed)


def enumerate_extensions(family, base, m):
    """Yield the words of shape m whose prefix of shape sigma(base) is base."""
    require_valid(family)
    if not base.shape <= m:
        raise ShapeNotDominatedError(
            "extension shape must dominate the base shape",
            base=list(base.shape), target=list(m))
    fixed = dict(zip(m.indices(base.shape), base.labels))
    return _dfs_words(family, m, fixed)


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
    if not k <= word.shape:
        raise ShapeNotDominatedError(
            "tail offset not dominated by word shape",
            shape=list(word.shape), offset=list(k))
    rest = word.shape - k
    return Word(rest, tuple(map(word.labels.__getitem__,
                                word.shape.indices(rest, k))))


def compose(family, u, v):
    """The unique word of shape sigma(u) + sigma(v) with prefix u and tail v.

    u is placed on [0, c] and v on [c, c + sigma(v)], c = sigma(u), after
    the shared corner is checked.  Any other point q has some q_j > c_j and
    some q_i < c_i: it follows q - e_j and precedes q + e_i, both one step
    nearer to c, so one pass in order of L1 distance from c fills each
    point once.  An empty square completion, or a broken edge in the
    result, signals a family that wrongly passed validation and surfaces
    as a hard error.
    """
    require_valid(family)
    if u.shape.rank != v.shape.rank:
        raise ShapeMismatchError("rank mismatch between factors")
    if u.terminal != v.origin:
        raise OriginMismatchError(
            "terminal letter of u differs from origin letter of v",
            terminal=u.terminal, origin=v.origin)
    corner = u.shape
    total = u.shape + v.shape

    labels = [None] * total.volume
    placed = total.indices(u.shape) + total.indices(v.shape, corner)
    for t, x in zip(placed, u.labels + v.labels):
        labels[t] = x
    strides = total.strides
    rest = [(t, q) for t, q in enumerate(total.box()) if labels[t] is None]
    rest.sort(key=lambda tq: sum(abs(a - c) for a, c in zip(tq[1], corner)))
    for t, q in rest:
        labels[t] = _fill(family, labels, q, corner, t, strides)

    result = Word(total, tuple(labels))
    bad = _first_bad_edge(family, result)
    if bad is not None:
        point, j = bad
        raise NoFillingError(
            "filled box violates an edge constraint",
            point=list(point), direction=j)
    return result


def _fill(family, labels, q, corner, t, strides):
    """The letter at q = labels[t], outside both boxes of compose: the x
    on base -(j)-> x -(i)-> top, base = q - e_j and top = q + e_i for the
    first j with q_j > c_j and i with q_i < c_i, by family.completion."""
    j = next(j for j, c in enumerate(corner) if q[j] > c)
    i = next(i for i, c in enumerate(corner) if q[i] < c)
    x = family.completion(i, j, labels[t - strides[j]], labels[t + strides[i]])
    if x is None:
        raise NoFillingError(
            "square completion has no solution", point=list(q))
    return x


# -- Count cross-check ---------------------------------------------------------

@dataclass(frozen=True)
class CountCheckRow:
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


@dataclass(frozen=True)
class CountCheckReport:
    rows: tuple

    @property
    def ok(self):
        return all(r.equal for r in self.rows)

    def to_json(self):
        return {"ok": self.ok, "rows": [r.to_json() for r in self.rows]}


def count_oracle_check(family, max_shape, budget=None):
    """Compare direct enumeration against the matrix count <e, M^l e> for
    every shape l <= max_shape."""
    require_valid(family)
    rows = []
    for pt in max_shape.box():
        l = Shape(pt)
        counted = sum(check_enum_budget(family, l, budget))
        enumerated = sum(1 for _ in enumerate_words(family, l))
        rows.append(CountCheckRow(l, enumerated, counted))
    return CountCheckReport(tuple(rows))
