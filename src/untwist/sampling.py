"""Seeded samplers for configurations.

All randomness flows through random.Random (the Mersenne Twister MT19937),
so identically seeded runs reproduce byte-identical experiment artifacts.
"""

from __future__ import annotations

import random

from .groups import Group, WordMetric
from .shifts import Configuration


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _cells_by_length(metric: WordMetric, lo: int, hi: int):
    table = metric.ball(hi)
    return [g for g in table.within(hi) if table.lengths[g] >= lo]


def random_configuration(group: Group, metric: WordMetric, alphabet, rng,
                         max_radius: int = 8, n_cells: int = 4,
                         background=0) -> Configuration:
    """Finite-support configuration with cells drawn from a ball."""
    alphabet = tuple(alphabet)
    nonbg = [s for s in alphabet if s != background]
    if not nonbg:  # the background configuration is the shift's one point
        return Configuration(group, alphabet, background, {})
    pool = _cells_by_length(metric, 0, max_radius)
    chosen = rng.sample(pool, min(n_cells, len(pool)))
    support = {c: nonbg[rng.randrange(len(nonbg))] for c in chosen}
    return Configuration(group, alphabet, background, support)
