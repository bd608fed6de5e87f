"""Divergence of point pairs past forbidden balls, and the divergence
function of a group over a sampled window.

The forbidden region around the obstacle c is the *open* ball
{h : d(c,h) < radius}, so radius 0 forbids nothing.  Searches run inside a
window ball centred at the identity; window restriction only removes paths,
so finite answers are window-exact upper bounds for the ambient graph and
infinity is only certified where removing the obstacle provably disconnects
the whole group (currently: a forbidden geodesic vertex on z or free:r).

Most queries need no search.  With k = d(a,b), the triangle inequality
gives every point h of a geodesic from a to b
    l(h) <= (l(a) + l(b) + k)/2  and  d(c,h) >= (d(c,a) + d(c,b) - k)/2.
So when l(a) + l(b) + k <= 2*window and d(c,a) + d(c,b) - k >= 2r, every
geodesic stays inside the window and off the forbidden ball, and the
avoidant distance is exactly k: avoidant_distance answers so, and searches
only where this fails.  Nor does an obstacle need one when a path that an
earlier search of its pair returned stays off its forbidden ball: div_pair
skips it, since its answer cannot beat the best so far.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import NamedTuple

from .groups import Group, GroupError

FINITE = "finite"
WINDOW_DISCONNECTED = "window_disconnected"
INFINITE = "infinite"


class DivergenceQuery(NamedTuple):
    group: Group
    a: tuple
    b: tuple
    c: tuple
    window_radius: int
    forbidden_radius: int


def make_query(group: Group, a, b, c, window_radius: int) -> DivergenceQuery:
    """Compute the obstacle radius max(0, floor(d(c,{a,b})/2) - 2) exactly."""
    for x in (a, b, c):
        group.validate(x)
    if c == a or c == b:
        raise GroupError("obstacle must differ from both endpoints")
    return _read_obstacle(group, a, b, c, window_radius)[0]


def _read_obstacle(group: Group, a, b, c, window_radius: int):
    """The query of a valid obstacle c other than the valid a and b, and the
    reads (h -> d(c,h), d(c,a), d(c,b)) its radius took, for
    avoidant_distance."""
    to_c = group.distance_from(c)
    ca, cb = to_c(a), to_c(b)
    radius = max(0, min(ca, cb) // 2 - 2)
    return DivergenceQuery(group, a, b, c, window_radius, radius), (to_c, ca, cb)


class PathSearchResult(NamedTuple):
    outcome: str                 # FINITE | WINDOW_DISCONNECTED | INFINITE
    length: int | None = None
    path: tuple | None = None    # vertex path witness for finite outcomes

    @property
    def value(self) -> float:
        if self.outcome == FINITE:
            return float(self.length)
        return math.inf


def _certified_disconnection(query: DivergenceQuery, to_c) -> bool:
    """True when removing the forbidden set provably disconnects the group:
    on a Cayley tree (z and free:r) every path from a to b passes through
    each vertex of their geodesic.  to_c is h -> d(c,h)."""
    group = query.group
    return group.cayley_tree and any(
        to_c(h) < query.forbidden_radius for h in geodesic_points(group, query.a, query.b))


def avoidant_shortest_path(query: DivergenceQuery) -> PathSearchResult:
    """Exact shortest path from a to b inside the window, off the obstacle.

    Every length is the model's closed form: h is inside the window iff
    l(h) <= window and forbidden iff d(c,h) < r.  The search is A* towards b
    under the heuristic d(b,h): at most the remaining length and moved by at
    most 1 per generator step, so admissible and consistent, and the first
    time b leaves the heap its distance is the breadth-first one.  A vertex
    reached at tentative distance d has l(h) <= l(a) + d and d(c,h) >=
    d(c,a) - d, so l(h) is read only once d > window - l(a), and d(c,h)
    only once d > d(c,a) - r: below those neither test can fail.  A
    certified disconnection comes first: on free:r a failed search lists
    the window.
    """
    group, a, b, c, window, radius = query
    length = group.exact_length
    for x in (a, b, c):
        if length(x) > window:
            raise GroupError("query points must lie inside the window ball")

    to_c = group.distance_from(c)
    ca = to_c(a)
    if min(ca, to_c(b)) < radius:
        raise GroupError("endpoint inside the forbidden ball; radius formula violated")
    if _certified_disconnection(query, to_c):
        return PathSearchResult(INFINITE)

    inside, clear = window - length(a), ca - radius
    to_b = group.distance_from(b)
    steps = group._steps
    dist = {a: 0}
    parent = {}
    heap = [(to_b(a), 0, a)]
    while heap:
        _, neg_d, g = heappop(heap)
        d = -neg_d
        if d > dist[g]:
            continue  # a stale entry: g was reached more cheaply since
        if g == b:
            path = [g]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            return PathSearchResult(FINITE, d, tuple(path))
        d += 1
        read_window, read_obstacle = d > inside, d > clear
        for h in steps(g):
            if dist.get(h, d + 1) <= d:
                continue  # already reached at least as cheaply
            if (read_window and length(h) > window
                    or read_obstacle and to_c(h) < radius):
                continue
            dist[h] = d
            parent[h] = g
            heappush(heap, (d + to_b(h), -d, h))
    return PathSearchResult(WINDOW_DISCONNECTED)


def avoidant_distance(query: DivergenceQuery, k: int | None = None, reads=None,
                      paths=()) -> PathSearchResult | None:
    """The outcome and length of avoidant_shortest_path, without a search
    where the triangle inequality gives them or a known path bounds them.

    k is d(a,b), passed by a caller that found l(a) + l(b) + k <= 2*window
    for the pair, as div_pair does once per pair: every geodesic from a to
    b then stays inside the window.  When also d(c,a) + d(c,b) - k >= 2r,
    every geodesic stays off the forbidden ball, so the answer is k, FINITE.

    paths are paths from a to b inside the window, each no longer than the
    caller's best answer.  When one stays off the forbidden ball, c's answer
    is at most that best, and neither WINDOW_DISCONNECTED nor INFINITE (on a
    Cayley tree every path passes through each geodesic vertex), so None is
    returned without a search.  reads is (h -> d(c,h), d(c,a), d(c,b)) as
    _read_obstacle gives them; without it they are read here.
    A query the search would refuse (c outside the window) goes to it.
    """
    group, a, b, c, window, radius = query
    if group.exact_length(c) <= window:
        to_c, ca, cb = reads or _read_obstacle(group, a, b, c, window)[1]
        if k is not None and ca + cb - k >= 2 * radius:
            return PathSearchResult(FINITE, k)
        if any(_stays_off(path, to_c, ca, cb, radius) for path in paths):
            return None
    return avoidant_shortest_path(query)


def _stays_off(path, to_c, ca: int, cb: int, radius: int) -> bool:
    """True when no vertex h of the path from a to b has d(c,h) < radius,
    to_c being h -> d(c,h).

    The vertex at index i has d(c,h) >= d(c,a) - i and d(c,h) >= d(c,b) -
    (|P| - i), so only those strictly between the indices d(c,a) - radius
    and |P| - d(c,b) + radius are read."""
    end = max(0, len(path) - 1 - cb + radius)
    return all(to_c(h) >= radius for h in path[ca - radius + 1:end])


class PairDivergence(NamedTuple):
    """Best sampled divergence of a pair; a lower bound for the supremum."""

    a: tuple
    b: tuple
    value: float                 # math.inf when certified infinite
    witness_c: tuple | None
    window_radius: int


def div_pair(group: Group, a, b, obstacles, window_radius: int) -> PairDivergence:
    """Maximise the avoidant distance over the sampled obstacle set.

    k = d(a,b) and the window clause l(a) + l(b) + k <= 2*window of
    avoidant_distance are read once for the pair, and each obstacle is
    validated and read once.  The paths the searches return are kept: each
    is no longer than best, so an obstacle one of them stays off can change
    neither the value nor the first witness, and avoidant_distance skips
    its search."""
    for x in (a, b):
        group.validate(x)
    length = group.exact_length
    k = group.distance_from(a)(b)
    if length(a) + length(b) + k > 2 * window_radius:
        k = None
    best = -1
    witness = None
    paths = []
    for c in obstacles:
        if c == a or c == b:
            continue
        group.validate(c)
        query, reads = _read_obstacle(group, a, b, c, window_radius)
        result = avoidant_distance(query, k, reads, paths)
        if result is None:
            continue  # a kept path bounds the answer by best
        if result.outcome == INFINITE:
            return PairDivergence(a, b, math.inf, c, window_radius)
        if result.outcome == WINDOW_DISCONNECTED:
            continue
        if result.path is not None:
            # Newest first: it went round the obstacle met last, and the
            # geodesic obstacles come in order along the geodesic.
            paths.insert(0, result.path)
        if result.length > best:
            best = result.length
            witness = c
    if witness is None:
        raise GroupError("no usable obstacle produced a finite search")
    return PairDivergence(a, b, float(best), witness, window_radius)


def geodesic_points(group: Group, a, b):
    """Vertices of a canonical geodesic from a to b, endpoints included."""
    word = group.geodesic_word(group.mul(group.inv(a), b))
    points = [a]
    cur = a
    for label in word:
        cur = group.mul(cur, group.gen(label))
        points.append(cur)
    return points


def default_obstacles(group: Group, a, b, window_radius: int, rng,
                      sample_budget: int = 10):
    """Obstacles on a geodesic between the endpoints plus seeded samples,
    uniform on the window ball with a and b left out: each sample is a draw
    from the ball, drawn again while it is a or b.

    B(1) holds a generator pair besides the identity, so the pool is empty
    only when the window is 0 and the identity is a or b.
    """
    obstacles = [p for p in geodesic_points(group, a, b) if p not in (a, b)]
    if window_radius or group.identity not in (a, b):
        for _ in range(sample_budget):
            c = group.draw(window_radius, rng)
            while c == a or c == b:
                c = group.draw(window_radius, rng)
            obstacles.append(c)
    return list(dict.fromkeys(obstacles))


class DivergenceRow(NamedTuple):
    n: int
    value: float
    witness_a: tuple
    witness_b: tuple
    witness_c: tuple | None
    window_radius: int


def div_function(group: Group, n_max: int, *, window_factor: int = 4,
                 sample_budget: int = 10, pairs_per_n: int = 2, seed: int = 0):
    """Sampled divergence function: for each n, the best pair with d(a,b) <= n.

    Rows are cumulative maxima (pairs at distance <= n include all smaller
    distances), so the sequence is non-decreasing by construction.
    """
    import random

    for name, value, least in (("nmax", n_max, 2), ("window_factor", window_factor, 1),
                               ("pairs_per_n", pairs_per_n, 1),
                               ("sample_budget", sample_budget, 0)):
        if value < least:
            raise GroupError(f"{name} must be >= {least}, got {value}")
    rng = random.Random(seed)
    rows = []
    best_so_far = None
    for n in range(2, n_max + 1):
        window_radius = window_factor * n
        pairs = [_axis_pair(group, n)]
        for _ in range(pairs_per_n - 1):
            pairs.append(_random_pair(group, n, rng))
        # All draws come before any search, which draws nothing, so the RNG
        # sequence is the per-pair one.
        obstacle_sets = [default_obstacles(group, a, b, window_radius, rng, sample_budget)
                         for a, b in pairs]
        best_row = None
        for (a, b), obstacles in zip(pairs, obstacle_sets):
            pair = div_pair(group, a, b, obstacles, window_radius)
            if best_row is None or pair.value > best_row.value:
                best_row = DivergenceRow(n, pair.value, a, b, pair.witness_c,
                                         window_radius)
        if best_so_far is not None and best_so_far.value > best_row.value:
            best_row = DivergenceRow(n, best_so_far.value, best_so_far.witness_a,
                                     best_so_far.witness_b, best_so_far.witness_c,
                                     window_radius)
        best_so_far = best_row
        rows.append(best_row)
        if best_row.value == math.inf:
            # Later rows can only repeat the certified-infinite witness.
            for m in range(n + 1, n_max + 1):
                rows.append(DivergenceRow(m, math.inf, best_row.witness_a,
                                          best_row.witness_b, best_row.witness_c,
                                          window_factor * m))
            break
    return rows


def _axis_pair(group: Group, n: int):
    """Canonical pair at distance n spread along the first generator."""
    g = group.gens[0][1]
    return group.power(g, -(n // 2)), group.power(g, n - n // 2)


def _random_pair(group: Group, n: int, rng):
    """Seeded pair at distance n, balanced around the identity: the halves
    of the geodesic word of a uniform draw from the sphere of radius n."""
    word = group.geodesic_word(group.draw(n, rng, sphere=True))
    mid = len(word) // 2
    return group.inv(group.eval_word(word[:mid])), group.eval_word(word[mid:])


class GrowthFit(NamedTuple):
    """Descriptive log-log fit of a divergence sequence; no asymptotic claim."""

    degree: float            # least-squares slope of log(value) against log(n)
    subexp_statistic: float  # max over n of log(value)/n
    points_used: int


def linear_fit(xs, ys):
    """(slope, intercept) of the least-squares line through the points, by
    the arithmetic of statistics.linear_regression on Python 3.10 and 3.11:
    every sum is an fsum, so the fit is the same bits on every version."""
    n = len(xs)
    xbar, ybar = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / math.fsum((x - xbar) * (x - xbar) for x in xs)
    return slope, ybar - slope * xbar


def classify_growth(ns, values) -> GrowthFit:
    pairs = [(n, v) for n, v in zip(ns, values)
             if math.isfinite(v) and v > 0 and n > 0]
    if len(pairs) < 4:
        raise GroupError("growth fit needs at least 4 finite positive points")
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(v) for _, v in pairs]
    stat = max(math.log(v) / n for n, v in pairs)
    return GrowthFit(degree=linear_fit(xs, ys)[0], subexp_statistic=stat,
                     points_used=len(pairs))
