"""Multidegrees in Z_+^r and the lattice boxes they span.

A Shape is a tuple of r nonnegative integers.  Shapes are ordered
coordinatewise (a partial order: use .coords as a sort key when a total
order is needed).  box(m) is the point set {l : 0 <= l <= m}, always
iterated in row-major order, i.e. lexicographic with the last coordinate
varying fastest; Shape.strides states that layout for flat label lists.
"""

import operator
from dataclasses import dataclass
from itertools import product, repeat
from math import prod


@dataclass(frozen=True)
class Shape:
    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if any(type(c) is not int for c in coords):
            raise ValueError(f"shape coordinates must be integers: {coords!r}")
        if not coords:
            raise ValueError("rank must be at least 1")
        if any(c < 0 for c in coords):
            raise ValueError("shape coordinates must be nonnegative")
        object.__setattr__(self, "coords", coords)

    def __hash__(self):
        return hash(self.coords)

    @classmethod
    def of(cls, *coords):
        return cls(coords)

    @classmethod
    def zero(cls, rank):
        return cls((0,) * rank)

    @classmethod
    def cube(cls, k, rank):
        """The constant shape (k, ..., k), written k-bar elsewhere."""
        return cls((k,) * rank)

    @classmethod
    def unit(cls, j, rank):
        """Standard basis vector e_j, 0-based direction index."""
        return cls(tuple(1 if i == j else 0 for i in range(rank)))

    @classmethod
    def parse(cls, text):
        """Parse '3' or '1,2' into a Shape.  Each coordinate is ASCII digits
        only: no sign, space, underscore or other script's digits."""
        parts = str(text).split(",")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"shape coordinates must be ASCII digits: {text!r}")
        return cls(tuple(int(part) for part in parts))

    @property
    def rank(self):
        return len(self.coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def total(self):
        return sum(self.coords)

    @property
    def min_coord(self):
        return min(self.coords)

    @property
    def volume(self):
        """Number of lattice points in box(self)."""
        return prod(c + 1 for c in self.coords)

    @property
    def strides(self):
        """Row-major steps: index_of(q + e_j) = index_of(q) + strides[j]."""
        return tuple(prod(c + 1 for c in self.coords[j + 1:])
                     for j in range(len(self.coords)))

    def __add__(self, other):
        self._check_rank(other)
        return _trusted(tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other):
        self._check_rank(other)
        diff = tuple(map(operator.sub, self.coords, other.coords))
        if min(diff) < 0:
            raise ValueError(f"{other.coords} does not divide below {self.coords}")
        return _trusted(diff)

    def __le__(self, other):
        """Coordinatewise domination (partial order)."""
        self._check_rank(other)
        return all(map(operator.le, self.coords, other.coords))

    def __ge__(self, other):
        return other.__le__(self)

    def scaled(self, k):
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return Shape(tuple(k * c for c in self.coords))

    def sup(self, other):
        self._check_rank(other)
        return _trusted(tuple(map(max, self.coords, other.coords)))

    def box(self):
        """All points 0 <= l <= self as plain tuples, row-major order."""
        return product(*(range(c + 1) for c in self.coords))

    def index_of(self, point):
        """Row-major index of a box point."""
        idx = 0
        for c, m in zip(point, self.coords):
            idx = idx * (m + 1) + c
        return idx

    def indices(self, sub, offset=None):
        """Row-major indices of the points offset + box(sub) of box(self),
        in the order of box(sub); offset (default the origin) + sub <= self."""
        idx = [0]
        for m, s, o in zip(self.coords, sub, offset or repeat(0)):
            idx = [i * (m + 1) + x for i in idx for x in range(o, o + s + 1)]
        return idx

    def _check_rank(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return f"Shape{self.coords}"


def _trusted(coords):
    """The Shape with coords, unchecked: for results of +, - and sup on two
    validated Shapes, whose coordinates are nonnegative ints already."""
    shape = object.__new__(Shape)
    object.__setattr__(shape, "coords", coords)
    return shape
