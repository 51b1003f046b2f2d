"""Multidegrees in Z_+^r and the lattice boxes they span.

A Shape is a tuple of r nonnegative integers, equal to the plain tuple of
its coordinates.  Shapes are ordered coordinatewise by <= and >= (a
partial order, so < and > are refused: use key=tuple when a total order
is needed).  box(m) is the point set {l : 0 <= l <= m}, always iterated
in row-major order, i.e. lexicographic with the last coordinate varying
fastest; Shape.strides states that layout for flat label lists.
"""

import operator
from itertools import product, repeat
from math import prod


class Shape(tuple):
    __slots__ = ()

    def __new__(cls, coords):
        shape = tuple.__new__(cls, coords)
        if any(type(c) is not int for c in shape):
            raise ValueError(f"shape coordinates must be integers: {shape.coords!r}")
        if not shape:
            raise ValueError("rank must be at least 1")
        if any(c < 0 for c in shape):
            raise ValueError("shape coordinates must be nonnegative")
        return shape

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
    def coords(self):
        """The coordinates as a plain tuple."""
        return tuple(self)

    @property
    def rank(self):
        return len(self)

    @property
    def is_zero(self):
        return not any(self)

    @property
    def total(self):
        return sum(self)

    @property
    def min_coord(self):
        return min(self)

    @property
    def volume(self):
        """Number of lattice points in box(self)."""
        return prod(c + 1 for c in self)

    @property
    def strides(self):
        """Row-major steps: index_of(q + e_j) = index_of(q) + strides[j]."""
        return tuple(prod(c + 1 for c in self[j + 1:])
                     for j in range(len(self)))

    # +, - and sup of two checked Shapes skip the checks of __new__

    def __add__(self, other):
        self._check_rank(other)
        return tuple.__new__(Shape, map(operator.add, self, other))

    def __sub__(self, other):
        self._check_rank(other)
        diff = tuple.__new__(Shape, map(operator.sub, self, other))
        if min(diff) < 0:
            raise ValueError(f"{other.coords} does not divide below {self.coords}")
        return diff

    def __le__(self, other):
        """Coordinatewise domination (partial order)."""
        self._check_rank(other)
        return all(map(operator.le, self, other))

    def __ge__(self, other):
        self._check_rank(other)
        return all(map(operator.ge, self, other))

    def __lt__(self, other):
        raise TypeError("Shapes are ordered by <= and >= only: sort with key=tuple")

    __gt__ = __lt__

    def scaled(self, k):
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return Shape(k * c for c in self)

    def sup(self, other):
        self._check_rank(other)
        return tuple.__new__(Shape, map(max, self, other))

    def box(self):
        """All points 0 <= l <= self as plain tuples, row-major order."""
        return product(*(range(c + 1) for c in self))

    def index_of(self, point):
        """Row-major index of a point of box(self); ValueError for a point
        of another rank or outside the box."""
        if len(point) != len(self):
            raise ValueError(f"point rank {len(point)} does not match shape rank {self.rank}")
        idx = 0
        for c, m in zip(point, self):
            if not 0 <= c <= m:
                raise ValueError(f"point {tuple(point)} outside box {self.coords}")
            idx = idx * (m + 1) + c
        return idx

    def point_at(self, index):
        """The box point at a row-major index: the inverse of index_of."""
        if not 0 <= index < self.volume:
            raise ValueError(f"index {index} outside box {self.coords}")
        point = []
        for m in reversed(self):
            index, c = divmod(index, m + 1)
            point.append(c)
        return tuple(reversed(point))

    def indices(self, sub, offset=None):
        """Row-major indices of the points offset + box(sub) of box(self),
        in the order of box(sub); offset (default the origin) + sub <= self."""
        idx = [0]
        for m, s, o in zip(self, sub, offset or repeat(0)):
            idx = [i * (m + 1) + x for i in idx for x in range(o, o + s + 1)]
        return idx

    def _check_rank(self, other):
        if not isinstance(other, Shape):  # a plain tuple is unchecked
            raise TypeError(f"not a Shape: {other!r}")
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __repr__(self):
        return f"Shape{tuple.__repr__(self)}"
