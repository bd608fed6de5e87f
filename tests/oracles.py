"""Independent brute-force oracles used to freeze and re-verify expected
values.  Deliberately written against raw tuples, with no imports from the
package, so they stay an independent second route.  `partial_product` takes a
cocycle spec and reads it only through its generator read plans, factor by
factor, with none of the holonomy's cut-offs, indexes or caches.
`build_parser` is the CLI's argparse parser as it was before the CLI read its
own option tables, the second route for that parser."""

import argparse
from collections import deque

DEFAULT_METRIC_BUDGET = 5_000_000  # groups.DEFAULT_METRIC_BUDGET, restated


def heisenberg_mul(p, q):
    x, y, z = p
    X, Y, Z = q
    return (x + X, y + Y, z + Z + x * Y)


HEISENBERG_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def heisenberg_lengths(radius):
    """Exact word lengths on the Heisenberg ball via direct BFS."""
    return ball_lengths((0, 0, 0), HEISENBERG_GENS, heisenberg_mul, radius)


def bfs_tree_words(identity, gens, mul, radius):
    """Word of the BFS tree for every element of the ball of the given radius.

    gens is a sequence of (label, element) pairs.  Each element records the
    element it was first reached from and the label of that last generator;
    its word is read by walking those records back to the identity."""
    last = {identity: None}  # element -> (previous element, generator label)
    frontier = deque([(identity, 0)])
    while frontier:
        g, d = frontier.popleft()
        if d == radius:
            continue
        for label, s in gens:
            h = mul(g, s)
            if h not in last:
                last[h] = (g, label)
                frontier.append((h, d + 1))
    words = {}
    for g in last:
        word, cur = [], g
        while last[cur] is not None:
            cur, label = last[cur]
            word.append(label)
        words[g] = word[::-1]
    return words


def heisenberg_inv(p):
    x, y, z = p
    return (-x, -y, -z + x * y)


def heisenberg_avoidant_length(a, b, c, forbidden_radius, window):
    """Shortest path from a to b in the Heisenberg Cayley graph within the
    word-length ball of radius window, avoiding the open ball of the given
    radius around c.  None when disconnected."""
    lengths = heisenberg_lengths(max(window, forbidden_radius))
    c_inv = heisenberg_inv(c)

    def forbidden(p):
        d = lengths.get(heisenberg_mul(c_inv, p))
        return d is not None and d < forbidden_radius

    def inside(p):
        d = lengths.get(p)
        return d is not None and d <= window

    if forbidden(a) or forbidden(b):
        return None
    dist = {a: 0}
    frontier = deque([a])
    while frontier:
        p = frontier.popleft()
        if p == b:
            return dist[p]
        for s in HEISENBERG_GENS:
            nb = heisenberg_mul(p, s)
            if nb not in dist and inside(nb) and not forbidden(nb):
                dist[nb] = dist[p] + 1
                frontier.append(nb)
    return None


def heisenberg_power(g, j):
    acc = (0, 0, 0)
    for _ in range(j):
        acc = heisenberg_mul(acc, g)
    return acc


def grid_avoidant_length(a, b, c, forbidden_radius, window):
    """Shortest L1 path in Z^2 within |x|+|y| <= window, avoiding the open
    L1 ball of the given radius around c.  None when disconnected."""

    def forbidden(p):
        return abs(p[0] - c[0]) + abs(p[1] - c[1]) < forbidden_radius

    def inside(p):
        return abs(p[0]) + abs(p[1]) <= window

    if forbidden(a) or forbidden(b):
        return None
    dist = {a: 0}
    frontier = deque([a])
    while frontier:
        p = frontier.popleft()
        if p == b:
            return dist[p]
        x, y = p
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in dist and inside(nb) and not forbidden(nb):
                dist[nb] = dist[p] + 1
                frontier.append(nb)
    return None


def l1_ball_size(dimension_2_radius):
    """Closed-form count of the L1 ball in Z^2."""
    n = dimension_2_radius
    return 2 * n * n + 2 * n + 1


def diagonal_lattice_length(a):
    """Word length on z^d+diag: the least cost of t net diagonal steps plus
    axis corrections, |t| + sum |a_i - t|, over every t between 0 and a."""
    lo, hi = min(0, *a), max(0, *a)
    return min(abs(t) + sum(abs(v - t) for v in a) for t in range(lo, hi + 1))


def z2_mul(p, q):
    return (p[0] + q[0], p[1] + q[1])


def l1_length(p):
    return abs(p[0]) + abs(p[1])


def l1_ball(radius):
    """Cells of Z^2 with |x| + |y| <= radius."""
    return [(x, y) for x in range(-radius, radius + 1)
            for y in range(abs(x) - radius, radius - abs(x) + 1)]


def cone_cells(region, step, radius_R, j_max, mul, length, ball):
    """Cells of region in the union over j >= 0 of step^j * B(floor(rho(j)/4) + R).

    rho(j) is the suffix minimum of l(step^i) over j <= i <= j_max, exact
    when no power past j_max is shorter than step^j_max; ball(m) lists the
    elements of word length <= m.  A piece reaches no closer to the identity
    than 3*rho(j)/4 - R, so the pieces past j_max miss region when the
    assertion below holds."""
    (identity,) = ball(0)
    powers = [identity]
    for _ in range(j_max):
        powers.append(mul(powers[-1], step))
    rho = [length(p) for p in powers]
    for j in range(j_max - 1, -1, -1):
        rho[j] = min(rho[j], rho[j + 1])
    region = set(region)
    assert 3 * rho[j_max] > 4 * (max(map(length, region)) + radius_R), "raise j_max"
    inside = set()
    for j in range(j_max + 1):
        inside |= {mul(powers[j], b) for b in ball(rho[j] // 4 + radius_R)} & region
    return inside


def cone_walk(k, step_inv, radius_R, j_max, mul, length):
    """Whether k lies in step^j * B(floor(rho(j)/4) + R) for some 0 <= j <= j_max,
    by the full walk: step^-j * k is measured at every j, with no early stop.

    rho is the suffix minimum of l(step^i) over j <= i <= j_max, as in
    cone_cells, whose assertion also says when j_max is large enough."""
    rho, power = [0], step_inv  # l(step^j) = l(step^-j)
    for _ in range(j_max):
        rho.append(length(power))
        power = mul(step_inv, power)
    for j in range(j_max - 1, -1, -1):
        rho[j] = min(rho[j], rho[j + 1])
    assert 3 * rho[j_max] > 4 * (length(k) + radius_R), "raise j_max"
    hits, point = [], k
    for j in range(j_max + 1):
        hits.append(length(point) <= rho[j] // 4 + radius_R)
        point = mul(step_inv, point)
    return any(hits)


def free_mul(p, q):
    """Product of freely reduced words of signed letters, reduced again."""
    word = list(p)
    for letter in q:
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


def free_ball(rank, radius):
    """Freely reduced words of length <= radius over letters +-1..+-rank."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    words, layer = [()], [()]
    for _ in range(radius):
        layer = [w + (s,) for w in layer for s in letters if not w or w[-1] != -s]
        words += layer
    return words


def free_inv(p):
    """Inverse of a freely reduced word of signed letters."""
    return tuple(-letter for letter in reversed(p))


def z2_inv(p):
    return (-p[0], -p[1])


def ball_lengths(identity, gens, mul, radius):
    """Word length of every element of the ball of the given radius, by BFS
    over right multiplication with the generator elements gens."""
    dist = {identity: 0}
    frontier = deque([identity])
    while frontier:
        g = frontier.popleft()
        if dist[g] == radius:
            continue
        for s in gens:
            h = mul(g, s)
            if h not in dist:
                dist[h] = dist[g] + 1
                frontier.append(h)
    return dist


def golden_mean_centres(support, families, mul, inv):
    """Every g whose translate g*F meets the support for some family F:
    support * F^-1 over all family cells, sorted."""
    return sorted({mul(cell, inv(f)) for family in families for f in family
                   for cell in support})


def golden_mean_member(support, families, mul, inv):
    """Golden-mean membership with background 0, by brute force: no centre
    in golden_mean_centres has a family translate inside the support."""
    return not any(all(mul(g, f) in support for f in family)
                   for g in golden_mean_centres(support, families, mul, inv)
                   for family in families)


def partial_product(spec, g, x, y, n, sign="+"):
    """Truncated holonomy comparison of the forward (or backward) orbits.

    The '+' product multiplies the inverted values along g^j for j = 0..n-1;
    the '-' product multiplies plain values along g^-j for j = 1..n-1.
    """
    if n < 1:
        raise ValueError("partial products need n >= 1")
    group, target = spec.group, spec.target
    # Factor j is c(g, step^j . x) with step = g for '+' and g^-1 for '-';
    # it reads x on back . c for each plan cell c, where back = step^-j.
    if sign == "+":
        back, back_step, count = group.identity, group.inv(g), n
    elif sign == "-":
        back, back_step, count = g, g, n - 1
    else:
        raise ValueError("sign must be '+' or '-'")
    px = py = target.identity
    for _ in range(count):
        plan = [(bm, [group.mul(back, c) for c in cells]) for bm, cells in spec._plan(g)]
        fx, fy = spec._read(plan, x), spec._read(plan, y)
        if sign == "+":
            fx, fy = target.inv(fx), target.inv(fy)
        px, py = target.mul(px, fx), target.mul(py, fy)
        back = group.mul(back, back_step)
    return target.mul(px, target.inv(py))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="untwist",
        description="Exact word-metric invariants and cocycle untwisting "
                    "experiments on finitely generated groups.",
    )
    parser.add_argument("--config", help="JSON file whose keys override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, budgeted=False):
        p.add_argument("--group", required=True)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        if budgeted:
            p.add_argument("--max-elements", type=int, default=DEFAULT_METRIC_BUDGET,
                           dest="max_elements",
                           help="element budget of the ball this subcommand lists")
        p.add_argument("--out", required=True)
        p.set_defaults(subparser=p)

    p = sub.add_parser("ball", help="export a ball table as CSV")
    common(p, budgeted=True)
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("invariants",
                       help="power lengths, compression, distortion, translation")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sdt-base", type=float, default=None, dest="sdt_base")
    p.add_argument("--sdt-terms", type=int, default=32, dest="sdt_terms")

    p = sub.add_parser("divergence", help="sampled divergence function")
    common(p, seeded=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--window-factor", type=int, default=4, dest="window_factor")
    p.add_argument("--sample-budget", type=int, default=10, dest="sample_budget")
    p.add_argument("--pairs-per-n", type=int, default=2, dest="pairs_per_n")

    p = sub.add_parser("subshift", help="glue or membership-check configurations")
    p.add_argument("mode", choices=["glue", "check"])
    common(p, seeded=True)  # --seed is read by nothing; perfbench/workloads.py passes it
    p.add_argument("--spec", required=True, help="JSON task description")

    p = sub.add_parser("cocycle", help="untwist a cocycle specification")
    p.add_argument("mode", choices=["untwist"])
    common(p, seeded=True, budgeted=True)
    p.add_argument("--spec", required=True, help="cocycle spec JSON")
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--sample-radius", type=int, default=6, dest="sample_radius")
    p.add_argument("--sample-cells", type=int, default=4, dest="sample_cells")
    return parser
