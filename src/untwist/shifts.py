"""Finitely supported configurations over a group, the shift action,
homoclinic data, cone sets, specification gluing, and golden-mean membership.

Configurations are finite-support differences from a constant background
symbol; that is the only homoclinic class represented here, and it is all
the desk-scale pipeline ever evaluates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, NamedTuple

from .groups import Group, InputError, OutOfRange, WordMetric

if TYPE_CHECKING:  # run-time use is in ConeParams.create alone
    from .invariants import CompressionProfile


class ContractError(InputError):
    """A documented precondition of a shift-space operation was violated."""


class Configuration:
    """Immutable point of alphabet**group differing from the background on
    finitely many cells.  Equality and hashing use the reduced support."""

    __slots__ = ("group", "alphabet", "background", "support", "_hash")

    def __init__(self, group: Group, alphabet, background, support):
        alphabet = tuple(alphabet)
        if background not in alphabet:
            raise ContractError("background symbol must belong to the alphabet")
        reduced = {}
        for cell, symbol in dict(support).items():
            group.validate(cell)
            if symbol not in alphabet:
                raise ContractError(f"symbol {symbol!r} is not in the alphabet")
            if symbol != background:
                reduced[cell] = symbol
        self._fill(group, alphabet, background, reduced)

    def _fill(self, group, alphabet, background, support):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_hash",
                           hash((alphabet, background, frozenset(support.items()))))

    def _derive(self, support) -> "Configuration":
        """Same shift space, with a support already checked and reduced."""
        derived = object.__new__(Configuration)
        derived._fill(self.group, self.alphabet, self.background, support)
        return derived

    def __setattr__(self, *_):
        raise AttributeError("Configuration is immutable")

    def symbol_at(self, cell):
        return self.support.get(cell, self.background)

    def translate(self, h) -> "Configuration":
        """Left shift: the new value at k is the old value at h^-1 k."""
        mul = self.group.mul
        return self._derive({mul(h, cell): sym for cell, sym in self.support.items()})

    def _check_space(self, other: "Configuration"):
        if (self.alphabet, self.background) != (other.alphabet, other.background):
            raise ContractError("configurations live in different shift spaces")

    def differing_cells(self, other: "Configuration") -> set:
        """The cells where self and other show different symbols."""
        self._check_space(other)
        return {c for c in self.support.keys() | other.support.keys()
                if self.symbol_at(c) != other.symbol_at(c)}

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.alphabet == other.alphabet
                and self.background == other.background
                and self.support == other.support)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        items = ",".join(
            f"{self.group.format_elem(c)}:{s}"
            for c, s in sorted(self.support.items(), key=lambda kv: self.group.format_elem(kv[0]))
        )
        return f"<config {{{items}}} bg={self.background}>"

    def to_jsonable(self):
        return {
            "alphabet": list(self.alphabet),
            "background": self.background,
            "support": [
                [self.group.format_elem(c), s]
                for c, s in sorted(self.support.items(),
                                   key=lambda kv: self.group.format_elem(kv[0]))
            ],
        }

    @classmethod
    def from_jsonable(cls, group: Group, obj) -> "Configuration":
        support = {}
        for cell, sym in obj["support"]:
            cell = group.parse_elem(cell)
            if cell in support:
                raise ContractError(f"cell {group.format_elem(cell)} is listed twice")
            support[cell] = sym
        return cls(group, tuple(obj["alphabet"]), obj["background"], support)


def background_configuration(group: Group, alphabet, background=0) -> Configuration:
    return Configuration(group, alphabet, background, {})


def homoclinic_agreement_radius(x: Configuration, y: Configuration) -> int:
    """Least N with x = y outside the ball of radius N (0 when equal).
    Configurations check their cells when built, so no read checks them."""
    return max(map(x.group.exact_length, x.differing_cells(y)), default=0)


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
                 s_prime: float, t_prime: float, metric: WordMetric):
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
        self.metric = metric
        self.anchor_length = self.metric.length(anchor)
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
               max_query_length: int = 64,
               profile_radius: int | None = None) -> "ConeParams":
        """Build cone data with a profile sized for queries up to the given
        word length (exact compressions are needed along the whole cone)."""
        from .invariants import build_profile

        metric = metric or WordMetric(group)
        bound = group.compression_lower_bound(anchor)
        anchor_length = metric.length(anchor)
        if profile_radius is None:
            slope = bound.linear_slope()
            if slope is None:
                raise ContractError(
                    "anchor without a linear certified bound needs an explicit "
                    "profile_radius to truncate cone searches"
                )
            deepest = (4 * (max_query_length + radius_R)) // (3 * slope) + 2
            profile_radius = max(4 * radius_R + 2 * anchor_length,
                                 anchor_length * deepest, 4)
        profile = build_profile(group, anchor, profile_radius)
        return cls(profile, radius_R, s_prime, t_prime, metric)

    def piece_radius(self, j: int) -> int:
        """floor(rho(j)/4) + R for the j-th cone piece."""
        return self.profile.quarter_floor(j) + self.R

    def cone_contains(self, k, sign: str) -> bool:
        """Whether k lies in the union of the signed cone pieces.

        Walks a^(-+j) k against thresholds tabulated up to profile.j_max, but
        not one step at a time: from a miss at step j it jumps, by one left
        multiplication with a stored power, to the first piece whose horizon
        the point can still reach, and stops once no piece is left.  k is
        validated once; the walk's points are trusted products."""
        if sign not in ("+", "-"):
            raise ContractError("sign must be '+' or '-'")
        powers = self._powers[sign]
        d = self.metric.length(k)
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


class GlueResult(NamedTuple):
    y: Configuration
    n_spec: int
    plus_agrees: bool   # y matches x on the whole + cone
    minus_agrees: bool  # y matches x' on the whole - cone


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
                f"{params.metric.length(cell)}: {exc}; raise max_query_length"
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
    return GlueResult(y, params.specification_ball_radius(), plus_ok, minus_ok)
