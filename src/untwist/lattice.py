"""The integer lattices Z^d, with or without the diagonal generator pair.

`groups.parse_group` imports this module only for the `z`, `z^d` and
`z^d+diag` descriptors (and a product with a lattice factor), so a run over
the Heisenberg group or a free group never loads it.
"""

from __future__ import annotations

from math import comb, isqrt
from operator import add, sub

from . import draws
from .groups import (DEFAULT_METRIC_BUDGET, Group, GroupError, LinearBound, _as_int_tuple,
                     _parse_int_tuple, _rejection_draw)


class IntegerLattice(Group):
    """Z^d with the standard basis generators, optionally augmented by the
    all-ones diagonal pair (a second generating set for sensitivity checks).
    Z itself is Z^1 without the diagonal, named z."""

    def __init__(self, dimension: int, diagonal: bool = False):
        if dimension < 1:
            raise GroupError("lattice dimension must be >= 1")
        # The 2d generators hold d coordinates each, so building them costs
        # 2d^2 values: keep that within the default element budget.
        if 2 * dimension * dimension > DEFAULT_METRIC_BUDGET:
            raise GroupError(
                f"lattice dimension {dimension} needs 2*d^2 = "
                f"{2 * dimension * dimension} generator coordinates, past the budget "
                f"of {DEFAULT_METRIC_BUDGET}; the largest accepted dimension is "
                f"{isqrt(DEFAULT_METRIC_BUDGET // 2)}")
        self.dimension = dimension
        self.diagonal = diagonal
        self.name = ("z" if dimension == 1 and not diagonal
                     else f"z^{dimension}" + ("+diag" if diagonal else ""))
        self.ends = "two" if dimension == 1 else "one"
        self.subexponential_divergence = dimension >= 2
        self.cayley_tree = dimension == 1
        gens = []
        for i in range(dimension):
            e = tuple(1 if j == i else 0 for j in range(dimension))
            gens.append((f"x{i + 1}+", e))
            gens.append((f"x{i + 1}-", tuple(-v for v in e)))
        if diagonal:
            ones = tuple(1 for _ in range(dimension))
            gens.append(("diag+", ones))
            gens.append(("diag-", tuple(-1 for _ in range(dimension))))
        self.gens = tuple(gens)
        self.identity = (0,) * dimension

    def mul(self, a, b):
        try:
            if self.dimension == 2:
                (x, y), (X, Y) = a, b
                return (x + X, y + Y)
            if len(a) == len(b) == self.dimension:
                return tuple(map(add, a, b))
        except (TypeError, ValueError):
            pass
        raise GroupError("element does not belong to this lattice model")

    def _steps(self, g):
        if self.dimension == 2:
            x, y = g
            steps = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
            if self.diagonal:
                steps += [(x + 1, y + 1), (x - 1, y - 1)]
            return steps
        return [tuple(map(add, g, s)) for _, s in self.gens]

    def inv(self, a):
        try:
            if len(a) == self.dimension:
                return tuple(-x for x in a)
        except TypeError:
            pass
        raise GroupError("element does not belong to this lattice model")

    def validate(self, a):
        _as_int_tuple(a, self.dimension)

    def format_elem(self, a):
        if self.dimension == 1:
            return str(a[0])
        return "(" + ",".join(str(v) for v in a) + ")"

    def parse_elem(self, s):
        return _parse_int_tuple(s, self.dimension)

    def exact_length(self, a):
        if not self.diagonal:
            if self.dimension == 2:
                return abs(a[0]) + abs(a[1])
            return sum(abs(v) for v in a)
        # t net diagonal steps cost sum |b_i - t| over b = (0, *a), least at a median.
        b = sorted((0, *a))
        t = b[(len(b) - 1) // 2]
        return sum(abs(v - t) for v in b)

    def distance_from(self, u):
        if self.diagonal:
            return super().distance_from(u)
        # The l1 distance, read coordinate by coordinate.
        if self.dimension == 2:
            x, y = u

            def distance(h):
                X, Y = h
                return abs(X - x) + abs(Y - y)
            return distance
        return lambda h: sum(map(abs, map(sub, h, u)))

    def sphere_size(self, n):
        # k nonzero coordinates: their signs, their positions and a
        # composition of n into k positive parts.
        if self.diagonal:
            return None
        d = self.dimension
        return sum(2 ** k * comb(d, k) * comb(n - 1, k - 1)
                   for k in range(1, min(d, n) + 1)) if n else 1

    def _sphere_element(self, n, i):
        return draws.lattice_sphere_element(self.dimension, n, i)

    def draw(self, radius, rng, sphere=False):
        if not self.diagonal:
            return super().draw(radius, rng, sphere)
        # Box rejection: each generator, a diagonal one too, moves each
        # coordinate by at most 1, so B(radius) lies in [-radius, radius]^d.
        span, randrange, coords = 2 * radius + 1, rng.randrange, range(self.dimension)
        return _rejection_draw(self, radius, sphere,
                               lambda: tuple([randrange(span) - radius for _ in coords]))

    def _compression_bound(self, g):
        if not self.diagonal:
            return LinearBound(sum(abs(v) for v in g))
        # Each generator moves every coordinate by at most 1.
        return LinearBound(max(abs(v) for v in g))

    def _relations(self):
        pos = self.positive_labels
        return [([s, t], [t, s]) for i, s in enumerate(pos) for t in pos[i + 1:]]
