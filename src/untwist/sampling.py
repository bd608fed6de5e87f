"""Seeded samplers for configurations.

All randomness flows through random.Random (the Mersenne Twister MT19937),
so identically seeded runs reproduce byte-identical experiment artifacts.
"""

from __future__ import annotations

from .groups import Group, InputError
from .shifts import Configuration


def random_configuration(group: Group, cells, alphabet, rng, n_cells: int = 4,
                         background=0) -> Configuration:
    """Finite-support configuration on n_cells cells drawn from the list
    cells (on all of them when it is shorter)."""
    if n_cells < 0:
        raise InputError(f"sample cell count n_cells must be >= 0, got {n_cells}")
    alphabet = tuple(alphabet)
    nonbg = [s for s in alphabet if s != background]
    if not nonbg:  # the background configuration is the shift's one point
        return Configuration(group, alphabet, background, {})
    chosen = rng.sample(cells, min(n_cells, len(cells)))
    support = {c: nonbg[rng.randrange(len(nonbg))] for c in chosen}
    return Configuration(group, alphabet, background, support)
