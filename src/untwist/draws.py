"""Exact uniform draws for the models that count their spheres.

`Group.draw` comes here where `Group.sphere_size` counts: plain lattices,
free groups and products of such factors.  `z^d+diag`, `heisenberg` and
products with such a factor draw by rejection instead, and only `divergence`
draws, so no other run compiles this module.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb


def counted_draw(group, radius: int, rng, sphere: bool):
    """A uniform draw from B(radius), or from S(radius) when sphere, by one
    randrange: a uniform index into the ball picks the length k with weight
    |S(k)|, and what is left of it unranks an element of S(k)."""
    # balls[k] = |B(k - 1)|, counted once per model.
    balls = group.__dict__.setdefault("_balls", [0])
    while len(balls) <= radius + 1:
        balls.append(balls[-1] + group.sphere_size(len(balls) - 1))
    i = rng.randrange(balls[radius] if sphere else 0, balls[radius + 1])
    k = bisect_right(balls, i) - 1
    return group._sphere_element(k, i - balls[k])


def unrank_subset(m: int, j: int, i: int):
    """The i-th j-element subset of range(m) in colex order, largest element
    first: the largest c with C(c, j) <= i, then what is left of i ranks a
    (j - 1)-element subset of range(c).  The last element is i itself."""
    out = []
    for t in range(j, 1, -1):
        out.append(bisect_right(range(m), i, key=lambda c: comb(c, t)) - 1)
        i -= comb(out[-1], t)
    return out + [i] if j else out


def lattice_sphere_element(d: int, n: int, i: int):
    """The i-th element of the sphere S(n) of Z^d, whose size is the sum over
    k of 2^k C(d, k) C(n - 1, k - 1): i picks the number k of nonzero
    coordinates, then its digits their signs, their positions and the k - 1
    cuts of a composition of n into k positive parts."""
    v = [0] * d
    if not n:
        return tuple(v)
    k = 1
    while i >= (size := 2 ** k * comb(d, k) * comb(n - 1, k - 1)):
        i -= size
        k += 1
    i, signs = divmod(i, 2 ** k)
    i, at = divmod(i, comb(d, k))
    # The cuts, from 1..n-1, in decreasing order between n and 0.
    cuts = [n] + [c + 1 for c in unrank_subset(n - 1, k - 1, i)] + [0]
    for j, p in enumerate(unrank_subset(d, k, at)):
        v[p] = (cuts[j] - cuts[j + 1]) * (-1) ** (signs >> j & 1)
    return tuple(v)
