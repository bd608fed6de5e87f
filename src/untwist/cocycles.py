"""Cocycles over shift spaces with certified holonomy limits, transfer-map
construction, and homomorphism extraction.

A cocycle is specified by one finite-window block map per generator; values
on arbitrary elements are derived along canonical geodesic words, with
relation checks as the well-definedness gate.  Every truncated limit comes
with a rigorous tail bound computed from the anchor's certified compression
lower bound.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .groups import Group, InputError, WordMetric, json_float, json_int, parse_group
from .shifts import Configuration
from .targets import (FiniteGroup, RealVector, TargetError, TargetGroup, Torus,
                      target_from_description)


class CocycleError(InputError):
    """Invalid cocycle specification or unsupported request."""


class VerificationError(RuntimeError):
    """An extraction or consistency check exceeded its tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def canonical_cells(metric: WordMetric, window: int):
    """Deterministic ordering of the ball of the given radius."""
    ball = metric.ball(window)
    fmt = metric.group.format_elem
    return tuple(sorted(
        ball.within(window),
        key=lambda g: (ball.lengths[g], fmt(g)),
    ))


TABULATION_LIMIT = 65536  # patterns BlockMap.tabulated will list


class BlockMap:
    """Map from configurations to a target group through a finite window.

    Backed either by an explicit pattern table or by a function with a
    declared range-diameter bound; the diameter feeds the derived geometric
    continuity constants, so it must over-approximate the true range spread.
    """

    def __init__(self, target: TargetGroup, cells, window: int, table=None,
                 fn=None, diameter_bound: float | None = None):
        if (table is None) == (fn is None):
            raise CocycleError("exactly one of table/fn must be given")
        self.target = target
        self.cells = tuple(cells)
        self.window = window
        self.table = dict(table) if table is not None else None
        self.fn = fn
        if self.table is not None:
            for pattern, value in self.table.items():
                try:
                    target.validate(value)
                except TargetError as exc:
                    raise TargetError(f"table value for pattern {list(pattern)}: "
                                      f"{exc}") from None
            self.diameter_bound = (self._table_diameter()
                                   if diameter_bound is None else diameter_bound)
        else:
            if diameter_bound is None:
                raise CocycleError("function-backed block maps need a diameter bound")
            self.diameter_bound = diameter_bound

    def _table_diameter(self) -> float:
        values = list(self.table.values())
        if len(values) <= 1:
            return 0.0
        if len(values) <= 512:
            return max(self.target.dist(u, v)
                       for u, v in itertools.combinations(values, 2))
        base = values[0]
        return 2.0 * max(self.target.dist(base, v) for v in values)

    def lookup(self, pattern):
        """Value on a symbol tuple over self.cells."""
        if self.table is None:
            return self.fn(pattern)
        try:
            return self.table[pattern]
        except KeyError:
            raise CocycleError(f"pattern {pattern!r} missing from table") from None

    def value(self, x: Configuration):
        return self.lookup(tuple(x.symbol_at(c) for c in self.cells))

    def tabulated(self, alphabet) -> "BlockMap":
        """Materialise an explicit table over all patterns (exact diameter)."""
        if self.table is not None:
            return self
        n_patterns = len(alphabet) ** len(self.cells)
        if n_patterns > TABULATION_LIMIT:
            raise CocycleError(f"{n_patterns} patterns exceed the tabulation "
                               f"limit {TABULATION_LIMIT}")
        table = {}
        for pattern in itertools.product(alphabet, repeat=len(self.cells)):
            table[pattern] = self.fn(pattern)
        return BlockMap(self.target, self.cells, self.window, table=table)


class CocycleSpec:
    """Generator block maps into a bi-invariant metric target group."""

    def __init__(self, group: Group, target: TargetGroup, alphabet,
                 background, generator_maps: dict, rate: float = 0.5):
        if not 0.0 < rate < 1.0:
            raise CocycleError("geometric rate must lie in (0, 1)")
        self.group = group
        self.target = target
        self.alphabet = tuple(alphabet)
        self.background = background
        self.rate = rate
        self.maps = dict(generator_maps)
        labels = {lab for lab, _ in group.gens}
        missing = labels - set(self.maps)
        if missing:
            raise CocycleError(f"missing generator block maps: {sorted(missing)}")
        unknown = set(self.maps) - labels
        if unknown:
            raise CocycleError(f"block maps for labels {group.name} does not "
                               f"have: {sorted(unknown)}")
        # The continuity constants below and the holonomy cut-off both take a
        # map's cells to lie in the ball of its declared window.
        for lab, bm in self.maps.items():
            for c in bm.cells:
                group.validate(c)
                if (length := group.exact_length(c)) > bm.window:
                    raise CocycleError(
                        f"block map for generator {lab!r}: cell "
                        f"{group.format_elem(c)} has length {length}, "
                        f"outside its window {bm.window}")
        # A table lists every pattern over the alphabet once.  Its keys are
        # distinct, so once each is a pattern of the right length over the
        # alphabet, the count decides it; a missing pattern is then among the
        # first len(table) + 1 patterns of the product.
        symbols = tuple(dict.fromkeys(self.alphabet))
        known = set(symbols)
        for lab, bm in self.maps.items():
            if bm.table is None:
                continue
            width = len(bm.cells)
            for pattern in bm.table:
                if len(pattern) != width or not known.issuperset(pattern):
                    raise CocycleError(
                        f"block map for generator {lab!r}: pattern {list(pattern)} is "
                        f"not {width} symbols of the alphabet {list(symbols)}")
            if len(bm.table) < len(symbols) ** width:
                missing = next(p for p in itertools.product(symbols, repeat=width)
                               if p not in bm.table)
                raise CocycleError(f"block map for generator {lab!r}: pattern "
                                   f"{list(missing)} has no value")
        # Continuity constants: a window-w map moves by at most its range
        # diameter, and agreement on B(n >= w) pins it, so D * r^-w works.
        self.holder_constant = max(
            0.0 if not bm.diameter_bound else bm.diameter_bound * _inverse_power(
                rate, bm.window, f"block map for generator {lab!r}: window {bm.window}")
            for lab, bm in self.maps.items())
        self._background_config = Configuration(group, self.alphabet, background, {})
        self._plan_cache = {}
        self._anchor_cache = {}
        self._holder_cache = {}
        self._truncation_cache = {}  # (g, epsilon, agreement) -> (n, tail, reach)
        # (g, sign) -> (reads, index, next back); (g, sign, background) -> B
        self._orbit_cache = {}

    def background_config(self) -> Configuration:
        return self._background_config

    def holder_constants(self, g):
        """(C_g, r) with d(c(g,x), c(g,y)) <= C_g * r**n for agreement on B(n)."""
        found = self._holder_cache.get(g)
        if found is None:
            r = self.rate
            if self.holder_constant == 0:
                found = 0.0, r
            else:
                self.group.validate(g)
                k = self.group.exact_length(g)
                # The largest term comes last; past it the sum would overflow.
                _inverse_power(r, k - 1,
                               f"anchor {self.group.format_elem(g)} of length {k}")
                found = self.holder_constant * sum(r ** (-i) for i in range(k)), r
            self._holder_cache[g] = found
        return found

    def _anchor(self, g):
        """(bound, name, bound text) of an anchor: its certified compression
        lower bound, its formatted element and the bound's description."""
        found = self._anchor_cache.get(g)
        if found is None:
            bound = self.group.compression_lower_bound(g)
            found = self._anchor_cache[g] = (bound, self.group.format_elem(g),
                                             bound.describe())
        return found

    def _word_plan(self, labels):
        """Read plan of the word s_1...s_m: per factor, left to right, its block
        map and the cells of x it reads.  The k-th factor is the map of s_k on
        (s_{k+1}...s_m).x, so it reads x on (s_{k+1}...s_m)^-1 . cells(s_k)."""
        group = self.group
        plan, suffix_inv = [], group.identity
        for label in reversed(labels):
            bm = self.maps[label]
            plan.append((bm, tuple(group.mul(suffix_inv, c) for c in bm.cells)))
            suffix_inv = group.mul(suffix_inv, group.inv(group.gen(label)))
        return tuple(reversed(plan))

    def _plan(self, g):
        """Read plan of g's canonical geodesic word."""
        plan = self._plan_cache.get(g)
        if plan is None:
            plan = self._plan_cache[g] = self._word_plan(self.group.geodesic_word(g))
        return plan

    def _read(self, plan, x: Configuration):
        """Value of a read plan on x."""
        at, target = x.symbol_at, self.target
        value = target.identity
        for bm, cells in plan:
            value = target.mul(value, bm.lookup(tuple(map(at, cells))))
        return value

    def evaluate_word(self, labels, x: Configuration):
        """Cocycle value along an explicit generator word (left-to-right)."""
        return self._read(self._word_plan(labels), x)

    def evaluate(self, g, x: Configuration):
        """Cocycle value at g along the canonical geodesic word."""
        return self._read(self._plan(g), x)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:  # NaN fails both comparisons
        raise CocycleError(f"epsilon must be finite and > 0, got {epsilon}")


def _inverse_power(rate: float, k: int, what: str) -> float:
    """rate ** -k, or a CocycleError naming `what` where that overflows a float."""
    try:
        return rate ** (-k)
    except OverflowError:
        raise CocycleError(f"{what} is too large for the geometric rate {rate}") from None


def relation_consistency(spec: CocycleSpec, samples, element_pairs=()) -> float:
    """Well-definedness gate: a true cocycle evaluates identically along any
    two words with the same product and satisfies the composition identity.
    Returns the largest observed discrepancy."""
    group, target = spec.group, spec.target
    worst = 0.0
    word_pairs = group.defining_relation_word_pairs()
    for x in samples:
        for w1, w2 in word_pairs:
            worst = max(worst, target.dist(spec.evaluate_word(w1, x),
                                           spec.evaluate_word(w2, x)))
        for g, h in element_pairs:
            lhs = spec.evaluate(group.mul(g, h), x)
            rhs = target.mul(spec.evaluate(g, x.translate(h)), spec.evaluate(h, x))
            worst = max(worst, target.dist(lhs, rhs))
    return worst


# ---------------------------------------------------------------------------
# Holonomy limits with certified tails
# ---------------------------------------------------------------------------

class HolonomyCertificate(NamedTuple):
    anchor: str
    sign: str
    n_used: int
    tail_bound: float
    agreement_radius: int
    holder_constant: float
    rate: float
    lower_bound: str
    epsilon: float

    def to_jsonable(self):
        return self._asdict()


def partial_product(spec: CocycleSpec, g, x: Configuration, y: Configuration,
                    n: int, sign: str = "+"):
    """Truncated holonomy comparison of the forward (or backward) orbits.

    The '+' product multiplies the inverted values along g^j for j = 0..n-1;
    the '-' product multiplies plain values along g^-j for j = 1..n-1.
    """
    if n < 1:
        raise CocycleError("partial products need n >= 1")
    group, target = spec.group, spec.target
    # Factor j is c(g, step^j . x) with step = g for '+' and g^-1 for '-';
    # it reads x on back . c for each plan cell c, where back = step^-j.
    if sign == "+":
        back, back_step, count = group.identity, group.inv(g), n
    elif sign == "-":
        back, back_step, count = g, g, n - 1
    else:
        raise CocycleError("sign must be '+' or '-'")
    px = py = target.identity
    for _ in range(count):
        plan = [(bm, [group.mul(back, c) for c in cells]) for bm, cells in spec._plan(g)]
        fx, fy = spec._read(plan, x), spec._read(plan, y)
        if sign == "+":
            fx, fy = target.inv(fx), target.inv(fy)
        px, py = target.mul(px, fx), target.mul(py, fy)
        back = group.mul(back, back_step)
    return target.mul(px, target.inv(py))


def holonomy(spec: CocycleSpec, g, x: Configuration, y: Configuration,
             epsilon: float = 1e-8, sign: str = "+"):
    """Holonomy limit between homoclinic points, with a certified tail.

    Returns (value, certificate); the certificate's tail bound dominates the
    distance from any longer truncation (and from the limit).  Discrete
    targets with epsilon < 1/2 therefore receive the exact limit.

    The value is the truncation at the certificate's n_used, evaluated only up
    to the last factor that reads a cell where x and y differ: the later
    factor pairs are equal, so their product cancels exactly.
    """
    _check_epsilon(epsilon)
    if g == spec.group.identity:
        raise CocycleError("holonomy needs an infinite-order anchor")
    if sign not in ("+", "-"):
        raise CocycleError("sign must be '+' or '-'")
    bound, fmt, described = spec._anchor(g)
    target = spec.target
    if x == y:
        return target.identity, HolonomyCertificate(fmt, sign, 0, 0.0, 0, 0.0, spec.rate,
                                                    described, epsilon)
    differing = x.differing_cells(y)
    # Configurations check their cells when built, so no read checks them.
    agreement = max(map(spec.group.exact_length, differing))
    C_g, r = spec.holder_constants(g)
    key = g, epsilon, agreement
    if key not in spec._truncation_cache:
        # C_g = 0 (maps of zero range diameter): n = 1 with tail 0, whatever
        # the agreement radius, so rate^-(agreement+1) is not taken.
        c_prime = C_g and C_g * _inverse_power(r, agreement + 1,
                                               f"agreement radius {agreement}")
        n = 1
        while c_prime * bound.tail(r, n) >= epsilon:
            n *= 2
            if n > 1_000_000:
                raise CocycleError(
                    "tail cannot be certified below epsilon within the factor budget"
                )
        # Factor j reads d only if step^j . d lies in the read set W_g, where
        # l(step^j . d) >= bound.value(j) - l(d).  value is non-decreasing, so
        # from the first j with value(j) > agreement + radius(W_g) on, no
        # factor reads a differing cell: the index need not reach further.
        horizon = agreement + max(spec.group.exact_length(c)
                                  for _, cs in spec._plan(g) for c in cs)
        reach = 0
        while reach < n and bound.value(reach) <= horizon:
            reach += 1
        spec._truncation_cache[key] = n, c_prime * bound.tail(r, n), reach
    n, tail, reach = spec._truncation_cache[key]
    # The orbit read index of (g, sign), grown on demand: reads[j] is the read
    # plan of factor j, on the cells step^-j . c, and index maps each cell
    # read so far to the factors that read it.  The touched factors, those
    # that read a differing cell, are then |D| lookups.
    reads, index, back = spec._orbit_cache.get((g, sign)) or ([], {}, spec.group.identity)
    mul = spec.group.mul
    for j in range(len(reads), reach):
        reads.append(tuple((bm, tuple(mul(back, c) for c in cs))
                           for bm, cs in spec._plan(g)))
        for _, cs in reads[j]:
            for c in cs:
                index.setdefault(c, []).append(j)
        back = mul(back, spec.group.inv(g) if sign == "+" else g)
    spec._orbit_cache[g, sign] = reads, index, back
    touched = {j for d in differing for j in index.get(d, ()) if j < n}

    def factor(j, z):
        f = spec._read(reads[j], z)
        return target.inv(f) if sign == "+" else f

    # An untouched factor reads the same symbols on x and y, so y's is x's.
    # An all-background y gives one factor B at every j, the background being
    # shift-invariant, and so does an untouched x.  (A target element that is
    # None only costs the shortcut.)
    B = None
    if not y.support:
        b_key = g, sign, y.background
        if b_key not in spec._orbit_cache:
            spec._orbit_cache[b_key] = factor(0, y)
        B = spec._orbit_cache[b_key]
    px = py = target.identity
    for j in range(sign == "-", max(touched, default=0) + 1):
        fx = factor(j, x) if B is None or j in touched else B
        fy = fx if j not in touched else factor(j, y) if B is None else B
        px, py = target.mul(px, fx), target.mul(py, fy)
    return target.mul(px, target.inv(py)), HolonomyCertificate(
        fmt, sign, n, tail, agreement, C_g, r, described, epsilon)


def generator_independence(spec: CocycleSpec, g, h, pairs,
                           epsilon: float = 1e-8) -> float:
    """Largest distance between holonomies computed through two anchors.

    Only meaningful over one-ended groups whose divergence grows
    sub-exponentially; other models are refused.
    """
    group = spec.group
    if group.ends != "one" or not group.subexponential_divergence:
        raise CocycleError(
            f"{group.name} is not declared one-ended with sub-exponential "
            "divergence; anchor independence is not guaranteed"
        )
    worst = 0.0
    for x, y in pairs:
        via_g, _ = holonomy(spec, g, x, y, epsilon)
        via_h, _ = holonomy(spec, h, x, y, epsilon)
        worst = max(worst, spec.target.dist(via_g, via_h))
    return worst


# ---------------------------------------------------------------------------
# Transfer maps and untwisting
# ---------------------------------------------------------------------------

class TransferTable:
    """Memoised transfer map built from holonomies against the background."""

    def __init__(self, spec: CocycleSpec, anchor, epsilon: float = 1e-8):
        _check_epsilon(epsilon)
        spec.group.validate(anchor)
        self.spec = spec
        self.anchor = anchor
        self.epsilon = epsilon
        self.base = spec.background_config()
        self.cache = {}

    def value(self, x: Configuration):
        """(b(x), certificate); normalised so the background maps to e."""
        if x in self.cache:
            return self.cache[x]
        result = holonomy(self.spec, self.anchor, x, self.base, self.epsilon)
        self.cache[x] = result
        return result


class UntwistReport(NamedTuple):
    psi: dict                  # element -> extracted homomorphism value
    constancy_defect: float
    homomorphism_defect: float
    tolerance: float
    epsilon: float
    samples: int

    @property
    def ok(self) -> bool:
        return (self.constancy_defect <= self.tolerance
                and self.homomorphism_defect <= 2 * self.tolerance)


def extract_homomorphism(spec: CocycleSpec, anchor, elements, samples,
                         epsilon: float = 1e-8, tolerance: float = 1e-6,
                         transfer: TransferTable | None = None) -> UntwistReport:
    """Untwist the cocycle through the transfer map and read off psi.

    psi(g) is the first sample's value of b(gx)^-1 c(g,x) b(x); the constancy
    defect measures its dependence on the sample, the homomorphism defect its
    failure to be multiplicative.  A constancy defect above tolerance raises.
    """
    if not tolerance >= 0.0:  # NaN fails it too
        raise CocycleError(f"tolerance must be >= 0, got {tolerance}")
    group, target = spec.group, spec.target
    transfer = transfer or TransferTable(spec, anchor, epsilon)
    samples = list(samples)
    if not samples:
        raise CocycleError("need at least one sample configuration")

    def psi_at(g, x):
        bx, _ = transfer.value(x)
        bgx, _ = transfer.value(x.translate(g))
        return target.mul(target.inv(bgx), target.mul(spec.evaluate(g, x), bx))

    psi = {}
    constancy = 0.0
    for g in elements:
        first = psi_at(g, samples[0])
        psi[g] = first
        for x in samples[1:]:
            constancy = max(constancy, target.dist(psi_at(g, x), first))
    hom_defect = 0.0
    for g in elements:
        for h in elements:
            product = group.mul(g, h)
            if product not in psi:
                psi[product] = psi_at(product, samples[0])
            hom_defect = max(hom_defect,
                             target.dist(target.mul(psi[g], psi[h]), psi[product]))
    report = UntwistReport(psi, constancy, hom_defect, tolerance, epsilon,
                           len(samples))
    if constancy > tolerance:
        raise VerificationError(
            f"transfer quotient is not constant: defect {constancy} exceeds "
            f"{tolerance} (non-cocycle input or epsilon too large)",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# Plants: homomorphisms, coboundary twists, linear potentials
# ---------------------------------------------------------------------------

def _value_for_label(group: Group, target: TargetGroup, values: dict, label: str):
    if label in values:
        return values[label]
    inverse = group.inverse_label(label)
    if inverse in values:
        return target.inv(values[inverse])
    raise CocycleError(f"no value supplied for generator {label!r} or its inverse")


def homomorphism_cocycle(group: Group, target: TargetGroup, values: dict,
                         alphabet, background=0, rate: float = 0.5) -> CocycleSpec:
    """Constant cocycle c(s, .) = phi(s); values given per positive label."""
    alphabet = tuple(alphabet)
    cells = (group.identity,)
    maps = {}
    for label, _ in group.gens:
        h = _value_for_label(group, target, values, label)
        table = {(sym,): h for sym in alphabet}
        maps[label] = BlockMap(target, cells, 0, table=table)
    return CocycleSpec(group, target, alphabet, background, maps, rate)


def coboundary_cocycle(group: Group, target: TargetGroup, values: dict,
                       potential: BlockMap, alphabet, background=0,
                       rate: float = 0.5,
                       metric: WordMetric | None = None) -> CocycleSpec:
    """Twist of a homomorphism by a potential:
    c(s, x) = b(s.x)^-1 * phi(s) * b(x), a cocycle for any block map b."""
    metric = metric or WordMetric(group)
    alphabet = tuple(alphabet)
    window = potential.window + 1
    cells = canonical_cells(metric, window)
    index = {c: i for i, c in enumerate(cells)}

    maps = {}
    for label, s in group.gens:
        phi_s = _value_for_label(group, target, values, label)
        s_inv = group.inv(s)
        here = tuple(index[c] for c in potential.cells)
        shifted = tuple(index[group.mul(s_inv, c)] for c in potential.cells)

        def fn(pattern, phi_s=phi_s, here=here, shifted=shifted):
            b_x = potential.lookup(tuple(pattern[i] for i in here))
            b_sx = potential.lookup(tuple(pattern[i] for i in shifted))
            return target.mul(target.inv(b_sx), target.mul(phi_s, b_x))

        bm = BlockMap(target, cells, window, fn=fn,
                      diameter_bound=2.0 * potential.diameter_bound)
        if len(alphabet) ** len(cells) <= 16384:
            bm = bm.tabulated(alphabet)
        maps[label] = bm
    return CocycleSpec(group, target, alphabet, background, maps, rate)


def weighted_potential(group: Group, metric: WordMetric, target: TargetGroup,
                       window: int, weights: dict, alphabet) -> BlockMap:
    """Linear symbol-weighted potential b(x) = sum_cell x_cell * w_cell.

    Real targets sum componentwise; tori reduce modulo one; cyclic targets
    take integer weights modulo the order.  The declared diameter bound is
    the symbol span times the total weight mass (capped for tori).
    """
    cells = canonical_cells(metric, window)
    alphabet = tuple(alphabet)
    span = max(alphabet) - min(alphabet)
    w = {c: weights.get(c) for c in cells if weights.get(c) is not None}
    if isinstance(target, (RealVector, Torus)):
        dim = target.dim
        for c, vec in w.items():
            if len(vec) != dim:
                raise CocycleError(f"weight at {group.format_elem(c)} has wrong dim")

        finish = target.wrap if isinstance(target, Torus) else tuple

        def fn(pattern):
            total = [0.0] * dim
            for s, c in zip(pattern, cells):
                for k, v in enumerate(w.get(c, ())):
                    total[k] += s * v
            return finish(total)

        mass = sum(math.sqrt(sum(v * v for v in vec)) for vec in w.values())
        diameter = span * mass
        if isinstance(target, Torus):
            diameter = min(diameter, math.sqrt(dim) / 2.0)
        return BlockMap(target, cells, window, fn=fn, diameter_bound=diameter)
    if isinstance(target, FiniteGroup):
        n = len(target.elements)

        def fn(pattern):
            return sum(s * w[c] for s, c in zip(pattern, cells) if c in w) % n

        return BlockMap(target, cells, window, fn=fn, diameter_bound=1.0)
    raise CocycleError(f"no weighted potential for target {target.name}")


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def cocycle_spec_to_jsonable(spec: CocycleSpec) -> dict:
    generators = []
    for label, _ in spec.group.gens:
        bm = spec.maps[label].tabulated(spec.alphabet)
        generators.append({
            "label": label,
            "window": bm.window,
            "cells": [spec.group.format_elem(c) for c in bm.cells],
            "table": [[list(p), spec.target.to_jsonable_elem(v)]
                      for p, v in sorted(bm.table.items())],
        })
    return {
        "group": spec.group.name,
        "alphabet": list(spec.alphabet),
        "background": spec.background,
        "rate": spec.rate,
        "target": spec.target.describe(),
        "generators": generators,
    }


def cocycle_spec_from_jsonable(obj, group: Group | None = None) -> CocycleSpec:
    """The spec obj describes; a given group must be the one obj names."""
    named = parse_group(obj["group"])
    if group is None:
        group = named
    elif named.name != group.name:
        raise CocycleError(f"spec is over {named.name}, not {group.name}")
    target = target_from_description(obj["target"])
    maps = {}
    for entry in obj["generators"]:
        cells = tuple(group.parse_elem(c) for c in entry["cells"])
        table = {}
        for p, v in entry["table"]:
            if (pattern := tuple(p)) in table:
                raise CocycleError(f"block map for generator {entry['label']!r}: "
                                   f"pattern {p} is listed twice")
            table[pattern] = target.from_jsonable_elem(v)
        maps[entry["label"]] = BlockMap(target, cells, json_int(entry["window"], "window"),
                                        table=table)
    return CocycleSpec(group, target, tuple(obj["alphabet"]), obj["background"],
                       maps, json_float(obj["rate"], "rate"))
