"""Cocycle specs built from data: constant homomorphism cocycles, their
twists by a potential (coboundaries), linear symbol-weighted potentials, and
the JSON form `cocycles.cocycle_spec_from_jsonable` reads back.

No command builds a spec; tests, golden generation and the benchmark plant
them here, so a CLI run never loads this module.
"""

from __future__ import annotations

import math

from .cocycles import BlockMap, CocycleError, CocycleSpec
from .groups import Group, WordMetric
from .targets import CyclicGroup, RealVector, TargetGroup, Torus


def canonical_cells(metric: WordMetric, window: int):
    """Deterministic ordering of the ball of the given radius."""
    ball = metric.ball(window)
    fmt = metric.group.format_elem
    return tuple(sorted(
        ball.within(window),
        key=lambda g: (ball.lengths[g], fmt(g)),
    ))


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
    take integer weights modulo the order.  Other finite targets are
    refused: the sum of integer weights is no element of a table group.
    The declared diameter bound is the symbol span times the total weight
    mass (capped for tori).
    """
    cells = canonical_cells(metric, window)
    inside = set(cells)
    for c, vec in weights.items():
        if vec is not None and c not in inside:
            raise CocycleError(f"weight at {group.format_elem(c)} lies outside "
                               f"the window {window}")
    alphabet = tuple(alphabet)
    span = max(alphabet) - min(alphabet)
    w = {c: weights.get(c) for c in cells if weights.get(c) is not None}
    if isinstance(target, (RealVector, Torus)):
        dim = target.dim
        for c, vec in w.items():
            if len(vec) != dim:
                raise CocycleError(f"weight at {group.format_elem(c)} has wrong dim")
            if not all(map(math.isfinite, vec)):
                raise CocycleError(f"weight at {group.format_elem(c)} is non-finite: {vec!r}")

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
    if isinstance(target, CyclicGroup):
        n = len(target.elements)
        for c, v in w.items():
            if isinstance(v, bool) or not isinstance(v, int):
                raise CocycleError(f"weight at {group.format_elem(c)} is not an integer: {v!r}")

        def fn(pattern):
            return sum(s * w[c] for s, c in zip(pattern, cells) if c in w) % n

        return BlockMap(target, cells, window, fn=fn, diameter_bound=1.0)
    raise CocycleError(f"no weighted potential for target {target.name}: weights sum "
                       f"only in real vectors, tori and cyclic groups")


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
