"""The discrete Heisenberg group and the sublinear compression bound that
only its central powers need.

`groups.parse_group` imports this module only for the `heisenberg`
descriptor (and a product with a Heisenberg factor), so no other run loads it.
"""

from __future__ import annotations

import math

from .groups import (Group, GroupError, LengthLowerBound, LinearBound, _TAIL_SAFETY,
                     _as_int_tuple, _parse_int_tuple, _rejection_draw)


class SqrtBound(LengthLowerBound):
    """value(j) = scale * ceil(sqrt(j)); summable but sublinear."""

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise GroupError("sqrt length bound needs scale >= 1")
        self.scale = scale

    def value(self, j):
        if j <= 0:
            return 0
        return self.scale * (math.isqrt(j - 1) + 1)

    def tail(self, r, n):
        if n <= 0:
            return 1.0 + self.tail(r, 1)
        q = r ** self.scale
        k0 = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        # indices n..k0^2 share the value scale*k0, then blocks of 2k-1.
        total = (k0 * k0 - n + 1) * q ** k0
        m = k0 + 1
        geo = q ** m / (1.0 - q)
        kgeo = q ** m * (m - (m - 1) * q) / (1.0 - q) ** 2
        return (total + 2.0 * kgeo - geo) * _TAIL_SAFETY

    def describe(self):
        return f"sqrt(scale={self.scale})"


def _word_length(x, y, z):
    """l((x, y, z)) by Blachère's closed form (Word distance on the discrete
    Heisenberg group, Colloq. Math. 95, 2003).  A word is a lattice path from
    0 to (x, y) with signed area z; symmetries reduce to 0 <= x <= y, z >= 0.
    Monotone paths, of length x + y, reach every area up to x*y; a larger
    area costs a box of width h >= y and height ceil(z/h) around it."""
    if x < 0:  # a <-> A
        x, z = -x, -z
    if y < 0:  # b <-> B
        y, z = -y, -z
    if z < 0:  # g -> rot_pi(g^-1), which keeps the length
        z = x * y - z
    if x > y:  # a <-> b composed with the line above
        x, y = y, x
    if z <= x * y:
        return x + y
    h = max(y, math.isqrt(z - 1) + 1)  # max(y, ceil(sqrt(z)))
    return 2 * (h - (-z // h)) - x - y


class DiscreteHeisenberg(Group):
    """Integer Heisenberg group, triples under
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y')."""

    name = "heisenberg"
    ends = "one"
    subexponential_divergence = True

    identity = (0, 0, 0)
    gens = (
        ("a", (1, 0, 0)),
        ("A", (-1, 0, 0)),
        ("b", (0, 1, 0)),
        ("B", (0, -1, 0)),
    )

    def mul(self, a, b):
        try:
            (x, y, z), (X, Y, Z) = a, b
            return (x + X, y + Y, z + Z + x * Y)
        except (TypeError, ValueError):
            raise GroupError("element does not belong to the Heisenberg model") from None

    def _steps(self, g):
        x, y, z = g
        return [(x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x)]

    def inv(self, a):
        try:
            x, y, z = a
            return (-x, -y, -z + x * y)
        except (TypeError, ValueError):
            raise GroupError("element does not belong to the Heisenberg model") from None

    def validate(self, a):
        _as_int_tuple(a, 3)

    def format_elem(self, a):
        return "(" + ",".join(str(v) for v in a) + ")"

    def parse_elem(self, s):
        shorthand = {"a": (1, 0, 0), "b": (0, 1, 0), "z": (0, 0, 1),
                     "A": (-1, 0, 0), "B": (0, -1, 0), "Z": (0, 0, -1),
                     "e": (0, 0, 0)}
        return shorthand.get(s.strip()) or _parse_int_tuple(s, 3)

    def exact_length(self, a):
        return _word_length(*a)

    def distance_from(self, u):
        # u^-1 h = (x - u_x, y - u_y, z - u_z + u_x*(u_y - y)), formed inline.
        ux, uy, uz = u

        def distance(h):
            x, y, z = h
            return _word_length(x - ux, y - uy, z - uz + ux * (uy - y))
        return distance

    def draw(self, radius, rng, sphere=False):
        # Box rejection: |x|, |y| <= r and |z| <= floor(r^2/4) on B(r).  A
        # word of length at most r has p a-letters and q b-letters with
        # p + q <= r.  Each b-letter moves z by the current x, and |x| <= p,
        # so |z| <= pq <= floor(r^2/4); a^p b^q with p = floor(r/2) and
        # q = ceil(r/2) attains it, at (p, q, pq).
        r, r2, randrange = radius, radius * radius // 4, rng.randrange
        return _rejection_draw(self, radius, sphere, lambda: (
            randrange(2 * r + 1) - r, randrange(2 * r + 1) - r, randrange(2 * r2 + 1) - r2))

    def _compression_bound(self, g):
        x, y, _ = g
        if (x, y) != (0, 0):
            # Every generator changes |x| or |y| by at most one.
            return LinearBound(max(abs(x), abs(y)))
        # Central powers: a word for (0,0,m) is a closed lattice loop of
        # enclosed area m, so its length is at least 4*sqrt(|m|).
        return SqrtBound(1)

    def _relations(self):
        zw = ["a", "b", "A", "B"]  # evaluates to the central element (0,0,1)
        return [(["a"] + zw, zw + ["a"]), (["b"] + zw, zw + ["b"])]
