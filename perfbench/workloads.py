"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Inputs are generated from the seed through public `untwist` functions only;
the CLI then receives nothing but the generated files and arguments, and the
same seed is passed to its `--seed`.  Each workload is the reason a layer is
measured: see README.md in this directory for sizes and the layer each one
stresses.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Prepared:
    argv: Callable[[str], list]        # output path -> CLI arguments
    check: Callable[[str, bool], list]  # (output path, verify) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[str, int], Prepared]  # (work dir, seed) -> Prepared


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dyadic(rng):
    """Nonzero multiple of 1/8 in [-1, 1]: sums of these stay exact."""
    return rng.choice((-1, 1)) * rng.randint(1, 8) / 8


def prepare_untwist(work, seed):
    """Planted coboundary over Z^2: c(s,x) = b(s.x)^-1 phi(s) b(x)."""
    from untwist import (RealVector, WordMetric, coboundary_cocycle,
                         cocycle_spec_to_jsonable, parse_group,
                         weighted_potential)
    from untwist.reporting import dumps

    rng = random.Random(seed)
    group = parse_group("z^2")
    metric = WordMetric(group)
    target = RealVector(2)
    alphabet = (0, 1)
    weights = {group.identity: (_dyadic(rng), _dyadic(rng))}
    potential = weighted_potential(group, metric, target, 0, weights, alphabet)
    phi = {"x1+": (_dyadic(rng), _dyadic(rng)), "x2+": (_dyadic(rng), _dyadic(rng))}
    spec = coboundary_cocycle(group, target, phi, potential, alphabet, metric=metric)
    spec_path = os.path.join(work, "cocycle_spec.json")
    _write(spec_path, dumps(cocycle_spec_to_jsonable(spec)) + "\n")
    planted = {(1, 0): phi["x1+"], (0, 1): phi["x2+"]}

    return Prepared(
        argv=lambda out: ["cocycle", "untwist", "--group", "z^2", "--spec", spec_path,
                          "--samples", "100", "--seed", str(seed), "--out", out],
        check=lambda out, verify: checks.check_untwist(_read(out), planted),
    )


def _divergence(group, nmax):
    def prepare(work, seed):
        return Prepared(
            argv=lambda out: ["divergence", "--group", group, "--nmax", str(nmax),
                              "--seed", str(seed), "--out", out],
            check=lambda out, verify: checks.check_divergence(
                _read(os.path.join(out, "divergence.csv")),
                _read(os.path.join(out, "report.json")),
                group, nmax, window_factor=4, verify=verify),
        )
    return prepare


GLUE_ANCHOR = (1, 0)
GLUE_R = 4
GLUE_QUERY_LENGTH = 64
GLUE_SUPPORT = 440  # support cells per configuration
GOLDEN_FAMILIES = (((0, 0), (1, 0)), ((0, 0), (0, 1)))  # no adjacent 1s


def prepare_glue(work, seed):
    """Two golden-mean configurations on Z^2 that share a core inside the
    specification ball and differ in the annulus out to the query length."""
    from untwist import (ConeParams, Configuration, GoldenMean, WordMetric,
                         default_specification_constants, parse_group)
    from untwist.reporting import dumps

    rng = random.Random(seed)
    group = parse_group("z^2")
    metric = WordMetric(group)
    shift = GoldenMean((0, 1), GOLDEN_FAMILIES)
    s_prime, t_prime = default_specification_constants(shift, metric)
    params = ConeParams.create(group, GLUE_ANCHOR, GLUE_R, s_prime, t_prime, metric,
                               max_query_length=GLUE_QUERY_LENGTH)
    n_spec = params.specification_ball_radius()
    ball = metric.ball(GLUE_QUERY_LENGTH)
    core_cells = [g for g in ball.order if ball.lengths[g] <= n_spec]
    outer_cells = [g for g in ball.order if ball.lengths[g] > n_spec]
    # Spread the support evenly over the ball of the query length.
    n_core = GLUE_SUPPORT * len(core_cells) // len(ball)

    def add_isolated(support, cells, count):
        cells = list(cells)
        rng.shuffle(cells)
        added = 0
        for i, j in cells:
            if added == count:
                break
            if any((i + di, j + dj) in support
                   for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))):
                continue
            support[(i, j)] = 1
            added += 1
        return support

    core = add_isolated({}, core_cells, n_core)
    x = add_isolated(dict(core), outer_cells, GLUE_SUPPORT - n_core)
    x_prime = add_isolated(dict(core), outer_cells, GLUE_SUPPORT - n_core)
    fmt = group.format_elem
    task = {
        "subshift": {"kind": "golden_mean", "alphabet": [0, 1],
                     "families": [[fmt(f) for f in fam] for fam in GOLDEN_FAMILIES]},
        "anchor": fmt(GLUE_ANCHOR),
        "R": GLUE_R,
        "max_query_length": GLUE_QUERY_LENGTH,
        "x": Configuration(group, (0, 1), 0, x).to_jsonable(),
        "x_prime": Configuration(group, (0, 1), 0, x_prime).to_jsonable(),
    }
    task_path = os.path.join(work, "glue_task.json")
    _write(task_path, dumps(task) + "\n")

    return Prepared(
        argv=lambda out: ["subshift", "glue", "--group", "z^2", "--spec", task_path,
                          "--seed", str(seed), "--out", out],
        check=lambda out, verify: checks.check_glue(_read(out), x, x_prime, GLUE_R),
    )


WORKLOADS = {w.name: w for w in (
    Workload("untwist-z2",
             "cocycle untwist of a planted coboundary: holonomy and "
             "Configuration.translate dominate, almost no BFS",
             prepare_untwist),
    Workload("divergence-z2",
             "divergence z^2 nmax 20: avoidant BFS and window ball enumeration, "
             "word lengths closed-form",
             _divergence("z^2", 20)),
    Workload("divergence-heis",
             "divergence heisenberg nmax 7: WordMetric growth by BFS doubling and "
             "enumerate_ball dominate; the memory workload",
             _divergence("heisenberg", 7)),
    Workload("glue-z2",
             "subshift glue of golden-mean configurations: the CLI path into "
             "cone_contains and build_profile",
             prepare_glue),
)}
