"""The paper's checks, used only by the tests: holonomies compose and agree
forward and backward, holonomy decays with the gluing radius, the transfer
map has a geometric modulus, compression is stable under conjugation, and a
target's metric is bi-invariant."""

import math

from untwist import FiniteGroup, RealVector, build_profile, glue, holonomy
from untwist.divergence import linear_fit


def holonomy_identity_check(spec, g, triples, epsilon=1e-8):
    """Largest composition defect d(h(x,y)h(y,z), h(x,z)) over the triples."""
    target = spec.target
    worst = 0.0
    for x, y, z in triples:
        hxy, _ = holonomy(spec, g, x, y, epsilon)
        hyz, _ = holonomy(spec, g, y, z, epsilon)
        hxz, _ = holonomy(spec, g, x, z, epsilon)
        worst = max(worst, target.dist(target.mul(hxy, hyz), hxz))
    return worst


def plus_minus_agree(spec, g, pairs, epsilon=1e-8):
    """Largest distance between forward and backward holonomies."""
    worst = 0.0
    for x, y in pairs:
        plus, _ = holonomy(spec, g, x, y, epsilon, sign="+")
        minus, _ = holonomy(spec, g, x, y, epsilon, sign="-")
        worst = max(worst, spec.target.dist(plus, minus))
    return worst


def specification_decay(spec, params_by_R, pairs_by_R, epsilon=1e-8):
    """Holonomy decay against the agreement radius: R -> (observed, via
    witness, bound).

    For pairs agreeing on the gluing ball of each R, both the direct
    holonomy distance to the identity and the glued-witness decomposition
    must stay below 2 * C_g * r**R * sum_j r**floor(rho(j)/4), where g is
    the anchor of that R's cone data.
    """
    target = spec.target
    rows = {}
    for R in sorted(params_by_R):
        params = params_by_R[R]
        g = params.anchor
        C_g, r = spec.holder_constants(g)
        profile = params.profile
        series = sum(r ** profile.quarter_floor(j)
                     for j in range(0, profile.j_max + 1))
        series += profile.lower_bound.tail(r ** 0.25, profile.j_max + 1) / r
        observed = witness = 0.0
        for x, xp in pairs_by_R[R]:
            direct, _ = holonomy(spec, g, x, xp, epsilon)
            observed = max(observed, target.dist(direct, target.identity))
            y = glue(x, xp, params).y
            minus_part, _ = holonomy(spec, g, x, y, epsilon, sign="-")
            plus_part, _ = holonomy(spec, g, y, xp, epsilon, sign="+")
            witness = max(witness,
                          target.dist(minus_part, target.identity)
                          + target.dist(plus_part, target.identity))
        rows[R] = observed, witness, 2.0 * C_g * (r ** R) * series
    return rows


def holder_modulus(transfer, pairs_by_N):
    """Geometric-decay fit for the transfer map: ({N: largest distance of
    b over the pairs agreeing on B(N)}, fitted rate).

    Distances at or below 2 * epsilon are zero at the epsilon scale and stay
    out of the fit; with fewer than two points left the rate is 0.
    """
    target = transfer.spec.target
    distances = {}
    for N in sorted(pairs_by_N):
        worst = 0.0
        for x, y in pairs_by_N[N]:
            bx, _ = transfer.value(x)
            by, _ = transfer.value(y)
            worst = max(worst, target.dist(bx, by))
        distances[N] = worst
    points = [(N, math.log(d)) for N, d in distances.items() if d > 2.0 * transfer.epsilon]
    if len(points) < 2:
        return distances, 0.0
    slope, _ = linear_fit([N for N, _ in points], [y for _, y in points])
    return distances, math.exp(slope)


def conjugation_compression_check(group, g, t, radius):
    """(l(t), slacks): slack n is compression_conj(n) - (compression(n) -
    2*l(t)) for t*g*t^-1, n = 1, 2, ... over the range both profiles know
    exactly.  The paper's inequality holds where every slack is >= 0."""
    prof_g = build_profile(group, g, radius)
    conj = group.mul(group.mul(t, g), group.inv(t))
    prof_c = build_profile(group, conj, radius)
    t_length = group.exact_length(t)
    return t_length, tuple(
        prof_c.compression(n) - (prof_g.compression(n) - 2 * t_length)
        for n in range(1, min(prof_g.j_max, prof_c.j_max) + 1))


def random_element(target, rng):
    """A seeded draw: real vectors uniform on [-1, 1]^dim, tori uniform on
    [0, 1)^dim, finite groups uniform over their elements."""
    if isinstance(target, FiniteGroup):
        return target.elements[rng.randrange(len(target.elements))]
    if isinstance(target, RealVector):
        return tuple(rng.uniform(-1.0, 1.0) for _ in range(target.dim))
    return tuple(rng.random() for _ in range(target.dim))


def bi_invariance_defect(target, rng, trials=100):
    """Largest violation of d(ab, ac) = d(b, c) = d(ba, ca) over random triples."""
    worst = 0.0
    for _ in range(trials):
        a, b, c = (random_element(target, rng) for _ in range(3))
        base = target.dist(b, c)
        left = target.dist(target.mul(a, b), target.mul(a, c))
        right = target.dist(target.mul(b, a), target.mul(c, a))
        worst = max(worst, abs(left - base), abs(right - base))
    return worst
