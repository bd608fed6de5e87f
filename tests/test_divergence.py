import csv
import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from untwist import (
    DiscreteHeisenberg,
    FreeGroup,
    GroupError,
    InfiniteCyclic,
    IntegerLattice,
    classify_growth,
    div_function,
    div_pair,
    make_query,
    parse_group,
)
from untwist.divergence import (
    FINITE,
    INFINITE,
    WINDOW_DISCONNECTED,
    DivergenceQuery,
    _random_pair,
    avoidant_distance,
    avoidant_shortest_path,
    default_obstacles,
    geodesic_points,
)
from untwist.groups import enumerate_ball

from oracles import (grid_avoidant_length, heisenberg_avoidant_length, heisenberg_inv,
                     heisenberg_lengths, heisenberg_mul, l1_ball, l1_length, z2_mul)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Z2 = IntegerLattice(2)
Z = InfiniteCyclic()
ZZ = parse_group("prod(z,z)")


def test_forbidden_radius_formula():
    q = make_query(Z2, (-6, 0), (6, 0), (0, 0), 24)
    assert q.forbidden_radius == 1
    q2 = make_query(Z2, (-3, 0), (3, 0), (0, 0), 12)
    assert q2.forbidden_radius == 0  # floor(3/2) - 2 clamps at zero
    q3 = make_query(Z2, (-10, 0), (10, 0), (1, 1), 40)
    assert q3.forbidden_radius == 10 // 2 - 2  # d(c,{a,b}) = min(12, 10)


def test_obstacle_must_differ_from_endpoints():
    with pytest.raises(GroupError):
        make_query(Z2, (0, 0), (6, 0), (0, 0), 24)


def test_grid_example_length_14():
    q = make_query(Z2, (-6, 0), (6, 0), (0, 0), 24)
    result = avoidant_shortest_path(q)
    assert result.outcome == FINITE
    assert result.length == 14
    assert result.length == grid_avoidant_length((-6, 0), (6, 0), (0, 0), 1, 24)


@pytest.mark.parametrize("n", range(6, 15))
def test_axis_pairs_match_grid_oracle(n):
    q = make_query(Z2, (-n, 0), (n, 0), (0, 0), 4 * n)
    result = avoidant_shortest_path(q)
    oracle = grid_avoidant_length((-n, 0), (n, 0), (0, 0), q.forbidden_radius, 4 * n)
    assert result.outcome == FINITE
    assert result.length == oracle


def test_zero_radius_gives_geodesic_distance():
    rng = random.Random(2)
    table = enumerate_ball(Z2, 12)
    elems = list(table.lengths)
    for _ in range(25):
        a, b, c = (rng.choice(elems) for _ in range(3))
        if c in (a, b):
            continue
        q = make_query(Z2, a, b, c, 24)
        if q.forbidden_radius != 0:
            continue
        result = avoidant_shortest_path(q)
        assert result.length == Z2.exact_length(Z2.mul(Z2.inv(a), b))


def test_path_witness_is_valid():
    q = make_query(Z2, (-6, 0), (6, 0), (0, 0), 24)
    result = avoidant_shortest_path(q)
    path = result.path
    assert path[0] == (-6, 0) and path[-1] == (6, 0)
    assert len(path) - 1 == result.length
    for u, v in zip(path, path[1:]):
        assert Z2.exact_length(Z2.mul(Z2.inv(u), v)) == 1
    for v in path:
        assert Z2.exact_length(Z2.mul(Z2.inv((0, 0)), v)) >= q.forbidden_radius
        assert Z2.exact_length(v) <= q.window_radius


def test_z_interior_obstacle_infinite():
    q = make_query(Z, (-6,), (6,), (0,), 24)
    assert q.forbidden_radius == 1
    result = avoidant_shortest_path(q)
    assert result.outcome == INFINITE


def test_z_exterior_obstacle_finite():
    q = make_query(Z, (-6,), (6,), (9,), 40)
    result = avoidant_shortest_path(q)
    assert result.outcome == FINITE
    assert result.length == 12


def test_free_group_obstacles_on_and_off_the_geodesic():
    # The Cayley graph is a tree: an obstacle ball that meets the geodesic
    # cuts a from b in the whole group, and one that misses it leaves the
    # geodesic as the answer.
    F2 = FreeGroup(2)
    a, b = (-1,) * 6, (1,) * 6
    on = make_query(F2, a, b, (), 48)
    assert on.forbidden_radius == 1
    assert avoidant_shortest_path(on).outcome == INFINITE
    off = make_query(F2, a, b, (2,) * 6, 48)
    assert off.forbidden_radius == 4
    result = avoidant_shortest_path(off)
    assert (result.outcome, result.length) == (FINITE, 12)
    assert result.path == tuple(geodesic_points(F2, a, b))


def test_free_group_divergence_is_certified_infinite_once_obstacles_bite():
    # From n = 12 the axis pair's geodesic obstacles have radius 1; a search
    # there would list the window ball B(48) before giving up.
    rows = div_function(FreeGroup(2), 14, seed=7)
    assert [r.value for r in rows[:10]] == list(range(2, 12))
    assert all(math.isinf(r.value) for r in rows[10:])


def test_window_disconnected_without_certificate():
    # +cone pair squeezed by a huge obstacle in z^2 with a tiny window
    q = make_query(Z2, (-12, 0), (12, 0), (0, 0), 12)
    result = avoidant_shortest_path(q)
    assert result.outcome in (FINITE, WINDOW_DISCONNECTED)


def test_obstacle_monotonicity():
    # enlarging the forbidden radius never shortens the path
    lengths = []
    for radius in (0, 1, 2, 3):
        q = DivergenceQuery(Z2, (-8, 0), (8, 0), (0, 0), 32, radius)
        lengths.append(avoidant_shortest_path(q).length)
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("window", [8, 10])
def test_heisenberg_avoidant_paths_match_oracle(window):
    group = DiscreteHeisenberg()
    table = enumerate_ball(group, window)
    pool = list(table.order)
    rng = random.Random(window)
    checked = 0
    for _ in range(200):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        if c in (a, b):
            continue
        q = make_query(group, a, b, c, window)
        if q.forbidden_radius < 2:
            continue
        result = avoidant_shortest_path(q)
        oracle = heisenberg_avoidant_length(a, b, c, q.forbidden_radius, window)
        assert result.length == oracle
        checked += 1
        if checked == 4:
            break
    assert checked == 4


def test_obstacle_outside_the_window_is_refused():
    # Both clauses of the certificate hold here, with k = d(a,b) = 1, but
    # the obstacle lies outside the window, so avoidant_distance refuses it
    # as the search does.
    q = DivergenceQuery(Z2, (0, 0), (1, 0), (11, 0), 10, 3)
    with pytest.raises(GroupError):
        avoidant_shortest_path(q)
    with pytest.raises(GroupError):
        avoidant_distance(q, k=1)


def test_an_obstacle_outside_the_window_is_refused_though_a_path_stays_off_it():
    # The window clause fails for this pair (6 + 6 + 12 > 2 * 11), so the
    # certificate is not tried; the search for (0, 0) keeps a path of
    # length 14 with |y| <= 1, which stays off the radius-7 ball of
    # (0, 12).  That obstacle lies outside the window all the same.
    a, b = (-6, 0), (6, 0)
    assert div_pair(Z2, a, b, [(0, 0)], 11).value == 14
    with pytest.raises(GroupError, match="inside the window"):
        div_pair(Z2, a, b, [(0, 0), (0, 12)], 11)


def test_window_monotonicity():
    lengths = []
    for window in (10, 12, 20, 40):
        q = DivergenceQuery(Z2, (-8, 0), (8, 0), (0, 0), window, 2)
        result = avoidant_shortest_path(q)
        if result.outcome == FINITE:
            lengths.append(result.length)
    assert lengths == sorted(lengths, reverse=True) and lengths


def test_div_pair_adjacent_points():
    rng = random.Random(0)
    obstacles = default_obstacles(Z2, (0, 0), (1, 0), 12, rng, 6)
    pair = div_pair(Z2, (0, 0), (1, 0), obstacles, 12)
    assert pair.value == 1.0


def test_div_pair_refuses_a_malformed_endpoint():
    # The pair's lengths are read before any query is made, so a malformed
    # endpoint must be refused there, not fail inside a product.
    with pytest.raises(GroupError):
        div_pair(Z2, "ab", (0, 0), [(1, 0)], 4)


@pytest.mark.parametrize("a, b", [((0, 0), (1, 0)), ((3, -2), (0, 0)),
                                  ((5, 5), (0, 1)), ((2, 2), (2, 2))])
def test_obstacle_samples_match_a_pool_without_the_endpoints(a, b):
    # Each sample is the first draw from B(6), on the same seeded stream,
    # that is neither endpoint; the draws themselves are checked against the
    # raw ball in test_groups.
    obstacles = default_obstacles(Z2, a, b, 6, random.Random(3), 40)
    rng = random.Random(3)
    samples = []
    while len(samples) < 40:
        g = Z2.draw(6, rng)
        assert abs(g[0]) + abs(g[1]) <= 6
        if g not in (a, b):
            samples.append(g)
    geodesic = [p for p in geodesic_points(Z2, a, b) if p not in (a, b)]
    assert obstacles == list(dict.fromkeys(geodesic + samples))


@pytest.mark.parametrize("group, a, b", [(Z2, (0, 0), (1, 0)),
                                     (DiscreteHeisenberg(), (0, 0, 0), (0, 1, 0))])
def test_obstacle_draws_cover_the_window_ball_but_the_endpoints(group, a, b):
    # B(2) minus {a, b} has 11 elements on z^2 and 15 on the Heisenberg group.
    ball = set(l1_ball(2)) if group is Z2 else set(heisenberg_lengths(2))
    obstacles = default_obstacles(group, a, b, 2, random.Random(5), 400)
    assert set(obstacles) == ball - {a, b}


@pytest.mark.parametrize("a, b", [((0, 0, 0), (1, 0, 0)), ((2, -1, 3), (0, 0, 0)),
                                  ((1, 1, 1), (1, 1, 1))])
def test_heisenberg_obstacle_samples_match_an_independent_box_rejection(a, b):
    # Each sample is the first point of [-4, 4]^3 drawn, one coordinate at a
    # time, that the raw BFS puts in B(4) and is neither endpoint: |z| <= 4
    # = floor(4^2/4) on B(4).
    group = DiscreteHeisenberg()
    obstacles = default_obstacles(group, a, b, 4, random.Random(3), 40)
    ball = heisenberg_lengths(4)
    rng = random.Random(3)
    samples = []
    while len(samples) < 40:
        g = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        if g in ball and g not in (a, b):
            samples.append(g)
    geodesic = [p for p in geodesic_points(group, a, b) if p not in (a, b)]
    assert obstacles == list(dict.fromkeys(geodesic + samples))


def test_an_empty_obstacle_pool_draws_nothing():
    # B(0) = {e}: with e an endpoint no sample exists, else every one is e.
    rng = random.Random(1)
    for group in (Z2, FreeGroup(2), ZZ):
        e, s = group.identity, group.gens[0][1]
        assert default_obstacles(group, e, s, 0, rng) == []
        assert default_obstacles(group, s, group.mul(s, s), 0, rng) == [e]


def test_div_pair_axis_values_in_band():
    rng = random.Random(7)
    for n in (6, 9, 12, 14):
        a, b = (-n, 0), (n, 0)
        obstacles = default_obstacles(Z2, a, b, 4 * n, rng, 10)
        pair = div_pair(Z2, a, b, obstacles, 4 * n)
        assert 3 * n - 8 <= pair.value <= 3 * n + 8
        assert pair.witness_c is not None


def recording_answers(monkeypatch, skip=True):
    """The list of (query, k, result) that avoidant_distance fills from now
    on, one per answered query, certified or searched.  A query a kept path
    bounds gets no answer and is left out; with skip false no path is
    passed on, so every query is answered."""
    import untwist.divergence as divergence

    answer, seen = divergence.avoidant_distance, []

    def recording(query, k=None, reads=None, paths=()):
        result = answer(query, k, reads, paths if skip else ())
        if result is not None:
            seen.append((query, k, result))
        return result

    monkeypatch.setattr(divergence, "avoidant_distance", recording)
    return seen


def recorded_queries(monkeypatch, group, n_max, **kwargs):
    """Every (query, result) pair one div_function run answers."""
    seen = recording_answers(monkeypatch)
    div_function(group, n_max, **kwargs)
    monkeypatch.undo()
    return [(query, result) for query, _, result in seen]


def certified(result):
    """True for an answer the certificate gave: a search returns a path."""
    return result.outcome == FINITE and result.path is None


def assert_both_routes(seen):
    routes = Counter(certified(result) for _, result in seen)
    assert routes[True] and routes[False], routes


def oracle_outcome(result):
    assert result.outcome in (FINITE, WINDOW_DISCONNECTED)
    return result.length if result.outcome == FINITE else None


@pytest.mark.parametrize("seed", [0, 101])
def test_every_z2_divergence_query_matches_grid_oracle(monkeypatch, seed):
    seen = recorded_queries(monkeypatch, Z2, 12, seed=seed)
    assert len(seen) > 100
    assert_both_routes(seen)
    for q, result in seen:
        expected = grid_avoidant_length(q.a, q.b, q.c, q.forbidden_radius,
                                        q.window_radius)
        assert oracle_outcome(result) == expected, q


def test_every_heisenberg_divergence_query_matches_oracle(monkeypatch):
    # Every query of a pair at distance k < 11 is certified (see
    # test_short_pairs_need_no_search), so searches start at n = 11.
    seen = recorded_queries(monkeypatch, DiscreteHeisenberg(), 12, window_factor=1,
                            seed=0)
    checked = [(q, result) for q, result in seen if q.window_radius in (11, 12)]
    assert len(checked) > 40
    assert any(q.forbidden_radius >= 2 for q, _ in checked)
    assert_both_routes(checked)
    for q, result in checked:
        expected = heisenberg_avoidant_length(q.a, q.b, q.c, q.forbidden_radius,
                                              q.window_radius)
        assert oracle_outcome(result) == expected, q


def test_short_pairs_need_no_search(monkeypatch):
    # In div_function l(a) + l(b) <= k = d(a,b) <= n, so the window clause
    # holds.  With d = d(c,{a,b}) and r = max(0, d//2 - 2), the ball clause
    # d(c,a) + d(c,b) - k >= 2r holds when r = 0 (triangle inequality) and
    # when d >= k - 4 (2d - k >= d - 4 >= 2r); r >= 1 needs d >= 6, so a
    # search needs k >= 11.
    import untwist.divergence as divergence

    def refusing(query):
        raise AssertionError(f"searched {query}")

    monkeypatch.setattr(divergence, "avoidant_shortest_path", refusing)
    div_function(Z2, 10, seed=131)
    div_function(DiscreteHeisenberg(), 10, seed=131)


def oracle_geometry(group):
    """(lengths of B(16), product, inverse, avoidant oracle) of z^2 or the
    Heisenberg group, all from tests/oracles.py."""
    if group is Z2:
        return ({p: l1_length(p) for p in l1_ball(16)}, z2_mul,
                lambda p: (-p[0], -p[1]), grid_avoidant_length)
    return (heisenberg_lengths(16), heisenberg_mul, heisenberg_inv,
            heisenberg_avoidant_length)


@pytest.mark.parametrize("group", [Z2, DiscreteHeisenberg()], ids=["z^2", "heisenberg"])
def test_certified_answers_match_the_oracle(monkeypatch, group):
    # Seeded pairs, most of them near the window's edge, with obstacles
    # from the window ball, answered through div_pair.  The certificate
    # answers exactly when both clauses hold on oracle lengths, and every
    # answer is the oracle's.  The kept-path skip is off, so every query is
    # answered and each certificate decision is checked.
    lengths, mul, inv, oracle = oracle_geometry(group)
    seen = recording_answers(monkeypatch, skip=False)
    rng = random.Random(131)
    for _ in range(40):
        window = rng.randint(3, 8)
        ball = [p for p, k in lengths.items() if k <= window]
        edge = [p for p in ball if lengths[p] >= window - 1]
        a, b = (rng.choice(edge if rng.random() < 0.6 else ball) for _ in "ab")
        if a != b:
            div_pair(group, a, b, [rng.choice(ball) for _ in range(6)], window)
    assert len(seen) > 200

    def d(g, h):
        return lengths[mul(inv(g), h)]

    routes = Counter()
    for q, _, result in seen:
        k = d(q.a, q.b)
        inside = lengths[q.a] + lengths[q.b] + k <= 2 * q.window_radius
        clear = d(q.c, q.a) + d(q.c, q.b) - k >= 2 * q.forbidden_radius
        expected = oracle(q.a, q.b, q.c, q.forbidden_radius, q.window_radius)
        assert oracle_outcome(result) == expected, q
        assert certified(result) == (inside and clear), q
        routes[inside, clear, expected == k] += 1
    assert routes[True, True, True]
    # Near the edge only the window clause decides: it fails, the ball
    # clause holds, and the search answers.
    assert routes[False, True, True]
    if group is not Z2:
        # Where every geodesic leaves the window the answer exceeds k, so
        # the window clause is needed.
        assert routes[False, True, False]


def skipped_queries(monkeypatch, group, n_max, **kwargs):
    """(query, best) for every obstacle that a kept path lets one
    div_function run skip, best being its pair's best answer at the skip."""
    import untwist.divergence as divergence

    answer, pair = divergence.avoidant_distance, divergence.div_pair
    bests, skipped = [], []

    def recording(query, *args):
        result = answer(query, *args)
        if result is None:
            skipped.append((query, bests[-1]))
        elif result.outcome == FINITE:
            bests[-1] = max(bests[-1], result.length)
        return result

    def each_pair(*args):
        bests.append(-1)
        return pair(*args)

    monkeypatch.setattr(divergence, "avoidant_distance", recording)
    monkeypatch.setattr(divergence, "div_pair", each_pair)
    div_function(group, n_max, **kwargs)
    monkeypatch.undo()
    return skipped


@pytest.mark.parametrize("group, n_max, window_factor, skips", [
    (Z2, 20, 4, True), (IntegerLattice(2, diagonal=True), 16, 4, True),
    (DiscreteHeisenberg(), 16, 4, True), (DiscreteHeisenberg(), 16, 2, True),
    (FreeGroup(2), 8, 1, False)],
    ids=["z^2", "z^2+diag", "heisenberg-4", "heisenberg-2", "free:2"])
def test_skipped_obstacles_are_bounded_by_the_best_answer(monkeypatch, group, n_max,
                                                          window_factor, skips):
    # A skipped obstacle's own search finds a path no longer than the best
    # answer its pair had when the skip was made, so the skip changed
    # neither the value nor the witness.  Skips are not required on free:2:
    # its geodesic obstacles come first, and one that bites ends the pair as
    # certified infinite.
    skipped = skipped_queries(monkeypatch, group, n_max, window_factor=window_factor,
                              seed=121)
    if skips:
        assert skipped
    for query, best in skipped:
        result = avoidant_shortest_path(query)
        assert result.outcome == FINITE and result.length <= best, query


@pytest.mark.parametrize("group, n_max, window_factor", [
    (Z, 14, 4), (Z2, 16, 4), (IntegerLattice(2, diagonal=True), 12, 4),
    (DiscreteHeisenberg(), 12, 2), (FreeGroup(2), 8, 1)],
    ids=["z", "z^2", "z^2+diag", "heisenberg", "free:2"])
def test_rows_match_search_only_rows(monkeypatch, group, n_max, window_factor):
    import untwist.divergence as divergence

    kwargs = dict(window_factor=window_factor, seed=131)
    rows = div_function(group, n_max, **kwargs)
    # The search-only route answers every obstacle by a search: neither the
    # certificate nor the kept-path skip of avoidant_distance runs.
    search = divergence.avoidant_shortest_path
    monkeypatch.setattr(divergence, "avoidant_distance",
                        lambda query, *rest: search(query))
    assert div_function(group, n_max, **kwargs) == rows


def test_search_takes_a_tenth_of_the_breadth_first_steps():
    # A breadth-first search over this query takes 4,704 generator steps
    # g*s before it reaches b; the avoidant path has length 26.  The search
    # lists a vertex's neighbours through _steps, one step per generator.
    group = IntegerLattice(2)
    query = make_query(group, (-10, 0), (10, 0), (0, 0), 40)
    steps = []
    listing = group._steps

    def counting(g):
        neighbours = listing(g)
        steps.extend(neighbours)
        return neighbours

    group._steps = counting
    result = avoidant_shortest_path(query)
    assert result.length == 26
    assert 0 < len(steps) < 4704 / 10


@pytest.mark.parametrize("window", [40, 12])
def test_search_reads_window_and_obstacle_only_where_they_can_bind(monkeypatch, window):
    # The query above: l(a) = d(c,a) = 10 and r = 3.  A vertex at tentative
    # distance d has l(h) <= 10 + d, inside the window while d <= window -
    # 10, and d(c,h) >= 10 - d, off the forbidden ball while d <= 7, so the
    # search reads neither there.  It pops what a search reading both at
    # every vertex pops: 256 generator steps, at either window.
    import untwist.divergence as divergence

    group = IntegerLattice(2)
    a, b, c = (-10, 0), (10, 0), (0, 0)
    query = make_query(group, a, b, c, window)
    assert query.forbidden_radius == 3
    depth = 0
    pop = divergence.heappop

    def popping(heap):
        nonlocal depth
        entry = pop(heap)
        depth = 1 - entry[1]  # the tentative distance of the popped g's steps
        return entry

    length, distance_from, listing = group.exact_length, group.distance_from, group._steps
    windows, obstacles, steps = [], [], []

    def reading(u):
        read = distance_from(u)
        return (lambda h: obstacles.append((depth, h)) or read(h)) if u == c else read

    def counting(g):
        neighbours = listing(g)
        steps.extend(neighbours)
        return neighbours

    monkeypatch.setattr(divergence, "heappop", popping)
    monkeypatch.setattr(group, "exact_length",
                        lambda h: windows.append((depth, h)) or length(h))
    monkeypatch.setattr(group, "distance_from", reading)
    monkeypatch.setattr(group, "_steps", counting)
    result = avoidant_shortest_path(query)
    assert result.length == 26
    assert len(steps) == 256
    assert {h for d, h in windows if d == 0} == {a, b, c}  # the entry checks
    loop = [d for d, _ in windows if d]
    if window == 40:
        assert not loop  # 26 <= 40 - 10
    else:
        assert loop and min(loop) > window - 10
    assert obstacles[:2] == [(0, a), (0, b)]  # the entry check of the radius
    assert obstacles[2:] and min(d for d, _ in obstacles[2:]) > 7


def test_every_searched_z2_query_at_nmax_20_matches_grid_oracle(monkeypatch):
    # At nmax 12 only pairs with n >= 11 search; at nmax 20 most searches
    # pass the depth d(c,a) - r from which the obstacle reads start.
    seen = recorded_queries(monkeypatch, Z2, 20, seed=121)
    searched = [(q, result) for q, result in seen if not certified(result)]
    assert len(searched) > 40
    mid = 0
    for q, result in searched:
        expected = grid_avoidant_length(q.a, q.b, q.c, q.forbidden_radius,
                                        q.window_radius)
        assert oracle_outcome(result) == expected, q
        clear = l1_length(z2_mul((-q.c[0], -q.c[1]), q.a)) - q.forbidden_radius
        mid += expected is not None and 0 <= clear < expected
    assert mid > len(searched) // 2


def test_geodesic_points_cover_segment():
    pts = geodesic_points(Z2, (-3, 0), (3, 0))
    assert pts[0] == (-3, 0) and pts[-1] == (3, 0)
    assert len(pts) == 7


def test_div_function_monotone_and_bounded():
    rows = div_function(Z2, 12, seed=7)
    values = [r.value for r in rows]
    assert values == sorted(values)
    for r in rows:
        assert r.value / r.n <= 4.0


def test_div_function_z_infinite_from_12():
    rows = div_function(Z, 14, seed=3)
    by_n = {r.n: r.value for r in rows}
    assert all(math.isfinite(by_n[n]) for n in range(2, 12))
    assert math.isinf(by_n[12]) and math.isinf(by_n[14])


def test_div_function_heisenberg_small_scale_finite():
    from untwist import DiscreteHeisenberg

    rows = div_function(DiscreteHeisenberg(), 4, window_factor=3, seed=5,
                        sample_budget=4, pairs_per_n=1)
    assert rows and all(math.isfinite(r.value) for r in rows)


def recording_ball_radii(monkeypatch):
    import untwist.groups as groups

    enumerate_ball = groups.enumerate_ball
    radii = []

    def recording_ball(group, radius, max_elements=None):
        radii.append(radius)
        return enumerate_ball(group, radius, max_elements)

    monkeypatch.setattr(groups, "enumerate_ball", recording_ball)
    return radii


@pytest.mark.parametrize("group", [ZZ, FreeGroup(2), Z2], ids=lambda g: g.name)
def test_div_function_enumerates_no_ball(monkeypatch, group):
    # Closed-form lengths, geodesic words and draws list no ball on any model.
    radii = recording_ball_radii(monkeypatch)
    div_function(group, 6, seed=7)
    assert radii == []


def test_heisenberg_div_function_builds_no_ball(monkeypatch):
    radii = recording_ball_radii(monkeypatch)
    div_function(DiscreteHeisenberg(), 4, seed=7)
    assert radii == []


def test_box_draws_are_uniform_on_a_small_ball():
    group = DiscreteHeisenberg()
    ball = set(heisenberg_lengths(2))
    rng = random.Random(11)
    draws = 400 * len(ball)
    counts = Counter(group.draw(2, rng) for _ in range(draws))
    assert set(counts) == ball
    mean = draws / len(ball)
    chi2 = sum((k - mean) ** 2 / mean for k in counts.values())
    assert chi2 < 39.25  # the 0.999 quantile of chi-square with 16 degrees of freedom


@pytest.mark.parametrize("group", [Z2, DiscreteHeisenberg(), ZZ],
                         ids=["z^2", "heisenberg", "prod(z,z)"])
def test_random_pairs_halve_draws_that_cover_the_sphere(group):
    # a^-1 b is the drawn element; the sphere of radius 3 has 12 elements on
    # z^2 and prod(z,z), and 36 on the Heisenberg group.  prod(z,z) splits
    # the radius by its factors' sphere counts.
    if group is Z2:
        sphere = {g for g in l1_ball(3) if l1_length(g) == 3}
        quotient = lambda a, b: (b[0] - a[0], b[1] - a[1])
    elif group is ZZ:
        sphere = {((x,), (y,)) for x, y in l1_ball(3) if l1_length((x, y)) == 3}
        quotient = lambda a, b: ((b[0][0] - a[0][0],), (b[1][0] - a[1][0],))
    else:
        sphere = {g for g, k in heisenberg_lengths(3).items() if k == 3}
        quotient = lambda a, b: heisenberg_mul(heisenberg_inv(a), b)
    rng = random.Random(9)
    drawn = {quotient(*_random_pair(group, 3, rng)) for _ in range(400)}
    assert drawn == sphere


def test_heisenberg_nmax_24_runs_within_a_one_element_budget(tmp_path):
    from untwist.cli import main

    out = tmp_path / "div"
    assert main(["divergence", "--group", "heisenberg", "--nmax", "24",
                 "--out", str(out)]) == 0
    lines = (out / "divergence.csv").read_text().splitlines()
    rows = {int(row[0]): row for row in csv.reader(lines[2:])}
    assert sorted(rows) == list(range(2, 25))
    assert all(float(rows[n][1]) > n for n in range(12, 25))
    for n in (12, 16):
        _, value, *witnesses, _ = rows[n]
        a, b, c = (tuple(map(int, w.strip("()").split(","))) for w in witnesses)
        value = int(float(value))
        lengths = heisenberg_lengths(n)
        c_inv = heisenberg_inv(c)
        d = min(lengths.get(heisenberg_mul(c_inv, p), math.inf) for p in (a, b))
        assert d <= n
        # Every path of length value from a stays in B(max(l(a), l(b)) + value),
        # which lies inside the run's window 4n, so the oracle's search in it
        # gives the run's value exactly.
        window = max(lengths[a], lengths[b]) + value
        assert window <= 28
        assert heisenberg_avoidant_length(a, b, c, max(0, d // 2 - 2), window) == value


def peak_rss_of_divergence(argv):
    """(exit code, peak RSS in MB) of a divergence run in a fresh interpreter."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    child = subprocess.Popen([sys.executable, "-m", "untwist.cli", "divergence", *argv],
                             env=dict(os.environ, PYTHONPATH=path),
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    # Reaped here, so Popen must be told, or its __del__ warns that the child
    # is still running.
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


@pytest.mark.parametrize("group", ["prod(z,heisenberg)", "prod(free:2,z)"])
def test_product_divergence_runs_in_bounded_memory(tmp_path, group):
    # Listing the window ball B(32) took prod(z,heisenberg) to 1.24 GB.
    code, peak_mb = peak_rss_of_divergence(["--group", group, "--nmax", "8",
                                            "--seed", "7", "--out", str(tmp_path)])
    assert code == 0 and peak_mb < 100


def test_divergence_exits_2_when_a_draw_reaches_the_cap(tmp_path, monkeypatch, capsys):
    import untwist.groups as groups
    from untwist.cli import main

    monkeypatch.setattr(groups, "DRAW_TRIES", 10)
    assert main(["divergence", "--group", "z^12+diag", "--nmax", "2",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "z^12" in err and "10 tries" in err
    assert "Traceback" not in err and "--max-elements" not in err


def test_classify_growth_synthetic():
    ns = list(range(4, 40))
    linear = classify_growth(ns, [3 * n for n in ns])
    assert abs(linear.degree - 1.0) <= 0.1
    quadratic = classify_growth(ns, [2 * n * n for n in ns])
    assert abs(quadratic.degree - 2.0) <= 0.1
    cubicish = classify_growth(ns, [n ** 1.5 for n in ns])
    assert abs(cubicish.degree - 1.5) <= 0.1


def test_classify_growth_needs_points():
    with pytest.raises(GroupError):
        classify_growth([1, 2, 3], [1.0, 2.0, math.inf])


def test_classify_growth_measured_z2():
    rows = div_function(Z2, 16, seed=7)
    finite = [(r.n, r.value) for r in rows if math.isfinite(r.value)]
    fit = classify_growth([n for n, _ in finite], [v for _, v in finite])
    assert 0.8 <= fit.degree <= 1.3
    assert fit.subexp_statistic <= 1.0
