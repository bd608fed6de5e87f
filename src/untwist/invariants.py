"""Distortion and compression profiles of cyclic subgroups, translation
numbers, and geometric-series summability of compressions.

All values are exact on a certified range derived from exact word lengths
up to a radius; outside that range the API raises OutOfRange instead of
extrapolating.  Real arguments use the conventions forced by the
definitions: distortion is constant on [n, n+1), compression on (n-1, n].
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .groups import Group, GroupError, OutOfRange


class TranslationData(NamedTuple):
    """Certified upper-bound data for the translation number of g."""

    terms: tuple            # (n, l(g^n), l(g^n)/n) for recorded powers
    running_min: tuple      # non-increasing sequence of certified upper bounds
    best_upper_bound: float
    lower_bound: float | None      # positive slope when declared linear
    undistorted_witness: bool


class CompressionProfile:
    """Distortion/compression data for <g>, exact on a certified range.

    entries lists (j, l(g^j)) for every j >= 1 with l(g^j) <= radius.
    distortion(x) is exact for x <= radius; compression(i) and the floored
    quarter values are exact for 1 <= i <= j_max = distortion(radius).  The
    declared lower bound is validated against the exact data at build time.
    """

    def __init__(self, group: Group, g, radius: int):
        bound = group.compression_lower_bound(g)  # validates g, refuses the identity
        # The scan over exponents stops once the certified lower bound exceeds
        # the radius, which guarantees that *every* power of length <= radius
        # is found.  Powers of a validated g need no check.
        length = group.exact_length
        entries = []
        j = 1
        p = g
        while bound.value(j) <= radius:
            if (k := length(p)) <= radius:
                entries.append((j, k))
            j += 1
            p = group.mul(p, g)
        if not entries:
            raise OutOfRange(
                f"radius {radius} is too small: no power of "
                f"{group.format_elem(g)} fits in the ball"
            )
        self.group = group
        self.g = g
        self.radius = radius
        self.entries = tuple(entries)
        self.lower_bound = bound
        self.j_max = entries[-1][0]
        # Suffix minima over the recorded powers: powers missing from the
        # table have length > radius and can never achieve the minimum.
        lengths = dict(entries)
        self._rho = {}
        best = math.inf
        for i in range(self.j_max, 0, -1):
            best = min(best, lengths.get(i, math.inf))
            self._rho[i] = best
        for i in range(1, self.j_max + 1):
            if bound.value(i) > self._rho[i]:
                raise GroupError(
                    f"declared lower bound {bound.describe()} exceeds the "
                    f"exact compression at {i}: {bound.value(i)} > {self._rho[i]}"
                )
        # _delta[x] is the largest j with l(g^j) <= x, for 0 <= x <= radius.
        delta = [0] * (radius + 1)
        for j, length in entries:  # j ascends, so the largest j wins
            delta[length] = j
        self._delta = list(accumulate(delta, max))

    # -- exact invariants ---------------------------------------------------

    def distortion(self, x) -> int:
        """Largest j >= 0 with l(g^j) <= x (exact for x <= radius)."""
        xf = math.floor(x)
        if xf > self.radius:
            raise OutOfRange(f"distortion is exact only up to {self.radius}")
        if xf < 0:
            return 0
        return self._delta[xf]

    def compression(self, i) -> int:
        """Least length of a power g^j with |j| >= i (exact for i <= j_max)."""
        ic = math.ceil(i)
        if ic <= 0:
            return 0
        if ic > self.j_max:
            raise OutOfRange(f"compression is exact only up to {self.j_max}")
        return self._rho[ic]

    def rho_inverse(self, c) -> int:
        """sup of the real interval where the compression stays <= c."""
        if self.compression(1) > c:
            return 0
        best = max(j for j in range(1, self.j_max + 1) if self._rho[j] <= c)
        if best == self.j_max:
            # Certify there is no larger exponent with compression <= c.
            if self.lower_bound.value(best + 1) <= c:
                raise OutOfRange(
                    f"cannot certify the inverse at {c}: exact range ends at {self.j_max}"
                )
        return best

    def quarter_floor(self, j: int) -> int:
        """floor(compression(j)/4); the cone radius increments."""
        if j == 0:
            return 0
        return self.compression(j) // 4

    # -- translation numbers -------------------------------------------------

    def translation_data(self) -> TranslationData:
        """Upper bounds l(g^n)/n for the translation number (subadditive limit).

        Every term bounds the limit from above; the running minimum is the
        non-increasing certified sequence.  A declared linear lower bound
        lambda*n yields the certified positive lower bound lambda.
        """
        terms = []
        running = []
        best = math.inf
        for j, length in self.entries:
            ratio = length / j
            best = min(best, ratio)
            terms.append((j, length, ratio))
            running.append(best)
        slope = self.lower_bound.linear_slope()
        return TranslationData(
            terms=tuple(terms),
            running_min=tuple(running),
            best_upper_bound=best,
            lower_bound=float(slope) if slope is not None else None,
            undistorted_witness=slope is not None,
        )


def build_profile(group: Group, g, radius: int) -> CompressionProfile:
    return CompressionProfile(group, g, radius)


class SummabilityReport(NamedTuple):
    """Partial sum of r**compression(i) with a rigorous closed-form tail.

    Terms beyond the exact range use the certified lower bound, so both the
    partial sum and the tail over-approximate the true series; the total is
    a certified upper bound for it.
    """

    r: float
    terms: int
    partial_sum: float
    tail_bound: float

    @property
    def total_upper_bound(self) -> float:
        return self.partial_sum + self.tail_bound


def sdt_partial_sum(profile: CompressionProfile, r: float, terms: int) -> SummabilityReport:
    if not 0.0 < r < 1.0:
        raise GroupError("base r must lie in (0, 1)")
    if terms < 1:
        raise GroupError("need at least one term")
    partial = 0.0
    for i in range(1, terms + 1):
        exponent = profile.compression(i) if i <= profile.j_max else profile.lower_bound.value(i)
        partial += r ** exponent
    tail = profile.lower_bound.tail(r, terms + 1)
    return SummabilityReport(r=r, terms=terms, partial_sum=partial,
                             tail_bound=tail)
