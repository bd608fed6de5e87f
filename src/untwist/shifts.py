"""Subshift descriptions, golden-mean membership, cone sets and
specification gluing over finitely supported configurations (those live in
`configurations`, with the shift action and homoclinic data).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .configurations import Configuration, ContractError
from .groups import DEFAULT_METRIC_BUDGET, Group, OutOfRange, WordMetric

# Type checkers read a TYPE_CHECKING of the module's own as true, as they
# read typing's; this one keeps `typing` out of the run.
TYPE_CHECKING = False
if TYPE_CHECKING:  # run-time use is in ConeParams.create alone
    from .invariants import CompressionProfile


# ---------------------------------------------------------------------------
# Subshift descriptions
# ---------------------------------------------------------------------------

class FullShift:
    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)


class GoldenMean:
    """Configurations where every translate of each family contains a zero.

    families: non-empty finite subsets of the group."""

    def __init__(self, alphabet, families):
        self.alphabet = tuple(alphabet)
        self.families = tuple(tuple(f) for f in families)
        if not self.families or any(len(f) == 0 for f in self.families):
            raise ContractError("each constraint family must be non-empty")
        if 0 not in self.alphabet:
            raise ContractError("golden-mean constraints need the symbol 0")


def membership_check(x: Configuration, spec) -> bool:
    """Check membership of a finitely supported configuration.

    Full shifts always pass.  A golden-mean translate g*F fails only if every
    cell of it is in the support, since the background is 0; so only the
    centres g in support*F[0]^-1 are checked, one family at a time, each by
    a lookup of its remaining cells.
    """
    if isinstance(spec, FullShift):
        if x.alphabet != spec.alphabet:
            raise ContractError("alphabet mismatch")
        return True
    if not isinstance(spec, GoldenMean):
        raise ContractError(f"unknown subshift description {spec!r}")
    if x.alphabet != spec.alphabet:
        raise ContractError("alphabet mismatch")
    if x.background != 0:
        raise ContractError("golden-mean membership needs background 0")
    group = x.group
    mul, inv = group.mul, group.inv
    for family in spec.families:
        for f in family:
            group.validate(f)
    support = x.support
    for first, *rest in spec.families:
        first_inv = inv(first)
        for cell in support:
            g = mul(cell, first_inv)
            if all(mul(g, f) in support for f in rest):
                return False
    return True


def default_specification_constants(spec, metric: WordMetric):
    """Gluing constants: full shifts need none; golden-mean constraints get a
    buffer of twice the largest family radius so no window straddles both
    copied regions outside the agreement ball."""
    if isinstance(spec, FullShift):
        return 1.0, 0.0
    if isinstance(spec, GoldenMean):
        reach = max(metric.length(f) for fam in spec.families for f in fam)
        return 1.0, 2.0 * reach
    raise ContractError(f"unknown subshift description {spec!r}")


# ---------------------------------------------------------------------------
# Cones and gluing
# ---------------------------------------------------------------------------

class ConeParams:
    """Cone data for an anchor element: the k-th cone piece is
    a^(+-k) * B(floor(rho(k)/4) + R).

    Membership tests are decidable because the certified compression lower
    bound caps how far a piece of the cone can reach back toward the identity.
    """

    def __init__(self, profile: CompressionProfile, radius_R: int,
                 s_prime: float, t_prime: float):
        if radius_R < 0:
            raise ContractError("cone radius parameter must be >= 0")
        if not (1.0 <= s_prime < math.inf and 0.0 <= t_prime < math.inf):
            raise ContractError("specification constants need finite s' >= 1 and "
                                f"t' >= 0, got s' = {s_prime}, t' = {t_prime}")
        self.group = group = profile.group
        self.anchor = anchor = profile.g
        self.R = radius_R
        self.profile = profile
        self.s_prime = s_prime
        self.t_prime = t_prime
        self.anchor_length = group.exact_length(anchor)  # the profile checked it
        # Walk data for j = 0..j_max: piece j has radius _radii[j], and a walk
        # from k reaches it only while _stops[j] = 3*L(j) <= 4*(l(k) + R).
        # L is non-decreasing, so bisecting _stops counts the pieces a walk
        # reaches.  A walk at step j with l(point) = d reaches piece i > j
        # only if d + j*l(a) <= _horizons[i] = _radii[i] + i*l(a), since one
        # step moves l by at most l(a); _horizons is non-decreasing too.
        # _powers[sign][m] is the m-step jump a^(-+m).
        self._radii = [self.piece_radius(j) for j in range(profile.j_max + 1)]
        self._stops = [3 * profile.lower_bound.value(j)
                       for j in range(profile.j_max + 1)]
        self._horizons = [r + j * self.anchor_length for j, r in enumerate(self._radii)]
        self._powers = {}
        for sign, step in (("+", group.inv(anchor)), ("-", anchor)):
            powers = [group.identity]
            for _ in range(profile.j_max):
                powers.append(group.mul(step, powers[-1]))
            self._powers[sign] = powers

    @classmethod
    def create(cls, group: Group, anchor, radius_R: int,
               s_prime: float = 1.0, t_prime: float = 0.0,
               metric: WordMetric | None = None,
               max_query_length: int = 64) -> "ConeParams":
        """Build cone data with a profile sized for queries up to the given
        word length (exact compressions are needed along the whole cone).

        The anchor's certified bound must be linear, or no profile radius
        covers the queries; ConeParams(build_profile(...), ...) takes any
        anchor.  metric is not read: the anchor's bound checks the anchor.
        The profile lists one value per unit of its radius, so a radius past
        the default element budget is refused before any is listed."""
        from .invariants import build_profile

        bound = group.compression_lower_bound(anchor)
        slope = bound.linear_slope()
        if slope is None:
            raise ContractError(f"anchor {group.format_elem(anchor)} has no linear "
                                "certified bound, which a cone needs")
        anchor_length = group.exact_length(anchor)
        deepest = (4 * (max_query_length + radius_R)) // (3 * slope) + 2
        radius = max(4 * radius_R + 2 * anchor_length, anchor_length * deepest, 4)
        if radius > DEFAULT_METRIC_BUDGET:
            raise ContractError(
                f"R = {radius_R} and max_query_length = {max_query_length} need a "
                f"compression profile of radius {radius}, past the budget of "
                f"{DEFAULT_METRIC_BUDGET} elements")
        return cls(build_profile(group, anchor, radius), radius_R, s_prime, t_prime)

    def piece_radius(self, j: int) -> int:
        """floor(rho(j)/4) + R for the j-th cone piece."""
        return self.profile.quarter_floor(j) + self.R

    def cone_contains(self, k, sign: str) -> bool:
        """Whether k lies in the union of the signed cone pieces.

        Walks a^(-+j) k against thresholds tabulated up to profile.j_max, but
        not one step at a time: from a miss at step j it jumps, by one left
        multiplication with a stored power, to the first piece whose horizon
        the point can still reach, and stops once no piece is left.  k must
        be valid, as a Configuration's cells are: nothing here checks it."""
        if sign not in ("+", "-"):
            raise ContractError("sign must be '+' or '-'")
        powers = self._powers[sign]
        d = self.group.exact_length(k)
        reach = 4 * (d + self.R)
        n = bisect_right(self._stops, reach)
        mul, length = self.group.mul, self.group.exact_length
        radii, horizons, anchor_length = self._radii, self._horizons, self.anchor_length
        point, j = k, 0
        while j < n:
            if d <= radii[j]:
                return True
            i = bisect_left(horizons, d + j * anchor_length, j + 1, n)
            if i == n:
                break
            point = mul(powers[i - j], point)
            j, d = i, length(point)
        if n == len(self._stops) and 3 * self.profile.lower_bound.value(n) <= reach:
            self.piece_radius(n)  # past the exact range: raises OutOfRange
        return False

    def overlap_window_bound(self) -> int:
        """Radius certified to contain the intersection of the two cones."""
        return self.anchor_length * self.profile.rho_inverse(4 * self.R) + 2 * self.R

    def specification_ball_radius(self) -> int:
        """Agreement radius under which gluing is guaranteed to succeed."""
        rho_inv = self.profile.rho_inverse(4 * self.R)
        return math.ceil(self.s_prime * self.anchor_length * rho_inv
                         + 2 * self.R + self.t_prime)


# plus_agrees: y matches x on the whole + cone; minus_agrees: y matches x'
# on the whole - cone.
GlueResult = namedtuple("GlueResult", "y plus_agrees minus_agrees")


def glue(x: Configuration, x_prime: Configuration, params: ConeParams) -> GlueResult:
    """Splice two homoclinic configurations along the anchor cones.

    The output copies x on the + cone, x' on the - cone, and is background
    elsewhere.  The construction needs the inputs to agree on the cone
    overlap; agreement on the ball of radius specification_ball_radius()
    is the certified sufficient condition, and any input pair whose
    differences avoid both cones simultaneously is accepted.
    """
    group = params.group
    if x.group is not group or x_prime.group is not group:
        raise ContractError("configurations and cone data use different groups")
    x._check_space(x_prime)
    plus, minus = set(), set()  # x, x' and y are background off both supports
    for cell in x.support.keys() | x_prime.support.keys():
        try:
            if params.cone_contains(cell, "+"):
                plus.add(cell)
            if params.cone_contains(cell, "-"):
                minus.add(cell)
        except OutOfRange as exc:
            raise OutOfRange(
                f"cone query at {group.format_elem(cell)} of word length "
                f"{group.exact_length(cell)}: {exc}; raise max_query_length"
            ) from None
    bad = [c for c in plus & minus if x.symbol_at(c) != x_prime.symbol_at(c)]
    if bad:
        raise ContractError(
            f"inputs disagree at {group.format_elem(min(bad, key=group.format_elem))} "
            "inside the cone overlap; they must agree on the ball of radius "
            f"{params.specification_ball_radius()}"
        )
    support = {}
    for cell in plus | minus:
        sym = x.symbol_at(cell) if cell in plus else x_prime.symbol_at(cell)
        if sym != x.background:
            support[cell] = sym
    y = x._derive(support)
    plus_ok = all(y.symbol_at(c) == x.symbol_at(c) for c in plus)
    minus_ok = all(y.symbol_at(c) == x_prime.symbol_at(c) for c in minus)
    if not (plus_ok and minus_ok):
        raise AssertionError(
            "glued configuration fails a cone agreement check; "
            "the specification constants s', t' are too small"
        )
    return GlueResult(y, plus_ok, minus_ok)
