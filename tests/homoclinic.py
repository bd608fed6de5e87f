"""Seeded homoclinic pairs and triples, used only by the tests, drawn
through the configuration sampler of `untwist.sampling` from the cell pools
listed here, and the agreement radius of a pair, read from the supports."""

from untwist import Configuration
from untwist.sampling import random_configuration


def cell_pool(metric, hi: int, lo: int = 0):
    """The cells of word length lo..hi, in BFS order: a sample pool."""
    table = metric.ball(hi)
    return [g for g in table.within(hi) if table.lengths[g] >= lo]


def random_homoclinic_pair(group, metric, alphabet, rng,
                           max_radius: int = 8, n_cells: int = 4,
                           background=0):
    """Two independent finitely supported points (always homoclinic)."""
    cells = cell_pool(metric, max_radius)
    x = random_configuration(group, cells, alphabet, rng, n_cells, background)
    y = random_configuration(group, cells, alphabet, rng, n_cells, background)
    return x, y


def pair_agreeing_on_ball(group, metric, alphabet, rng,
                          agreement_radius: int, shell: int = 4,
                          n_core: int = 3, n_outer: int = 3, background=0):
    """A pair equal on the closed ball of the given radius.

    Both share a random core inside the ball; their differences live in the
    annulus just outside it.
    """
    alphabet = tuple(alphabet)
    nonbg = [s for s in alphabet if s != background]
    core_pool = cell_pool(metric, agreement_radius)
    outer_pool = cell_pool(metric, agreement_radius + shell, agreement_radius + 1)
    core_cells = rng.sample(core_pool, min(n_core, len(core_pool)))
    core = {c: nonbg[rng.randrange(len(nonbg))] for c in core_cells}

    def outer():
        cells = rng.sample(outer_pool, min(n_outer, len(outer_pool)))
        return {c: nonbg[rng.randrange(len(nonbg))] for c in cells}

    x = Configuration(group, alphabet, background, {**core, **outer()})
    y = Configuration(group, alphabet, background, {**core, **outer()})
    return x, y


def random_homoclinic_triple(group, metric, alphabet, rng,
                             max_radius: int = 8, n_cells: int = 4,
                             background=0):
    cells = cell_pool(metric, max_radius)

    def make():
        return random_configuration(group, cells, alphabet, rng, n_cells, background)

    return make(), make(), make()


def homoclinic_agreement_radius(x, y) -> int:
    """Least N with x = y outside the ball of radius N (0 when equal): the
    largest word length of a cell of either support where the symbols
    differ.  The oracle `holonomy`'s certificate is held to."""
    cells = x.support.keys() | y.support.keys()
    return max((x.group.exact_length(c) for c in cells
                if x.symbol_at(c) != y.symbol_at(c)), default=0)
