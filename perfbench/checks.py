"""Output checks for the benchmark's CLI artifacts.

Every check here is a second route to the answer: it works on raw integer
tuples and parsed text and imports nothing from the `untwist` package, so a
defect in the package cannot also hide itself from the check.  Each check
returns a list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque

# ---------------------------------------------------------------------------
# Raw group arithmetic (normal forms as integer tuples)
# ---------------------------------------------------------------------------


def lattice_mul(p, q):
    return tuple(a + b for a, b in zip(p, q))


def heisenberg_mul(p, q):
    x, y, z = p
    X, Y, Z = q
    return (x + X, y + Y, z + Z + x * Y)


def heisenberg_inv(p):
    x, y, z = p
    return (-x, -y, -z + x * y)


RAW_GROUPS = {
    "z^2": {
        "mul": lattice_mul,
        "inv": lambda p: tuple(-v for v in p),
        "identity": (0, 0),
        "gens": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    },
    "heisenberg": {
        "mul": heisenberg_mul,
        "inv": heisenberg_inv,
        "identity": (0, 0, 0),
        "gens": ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
    },
}


def parse_tuple(text):
    """'(1,-2)' -> (1, -2)."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a tuple: {text!r}")
    return tuple(int(v) for v in text[1:-1].split(","))


def ball_lengths(raw, radius):
    """Word lengths of every element within the given radius, by plain BFS."""
    mul, gens = raw["mul"], raw["gens"]
    dist = {raw["identity"]: 0}
    frontier = [raw["identity"]]
    for layer in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = layer
                    nxt.append(h)
        frontier = nxt
    return dist


def word_distance(raw, g, h):
    """d(g, h) = |g^-1 h| by bidirectional BFS over whole layers."""
    mul, gens = raw["mul"], raw["gens"]
    target = mul(raw["inv"](g), h)
    if target == raw["identity"]:
        return 0
    sides = [({raw["identity"]: 0}, [raw["identity"]]), ({target: 0}, [target])]
    while True:
        # Expand the smaller frontier by one full layer; the first layer that
        # meets the other side contains a node of a geodesic.
        i = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        dist, frontier = sides[i]
        other = sides[1 - i][0]
        nxt = []
        best = None
        for u in frontier:
            for s in gens:
                v = mul(u, s)
                if v in dist:
                    continue
                dist[v] = dist[u] + 1
                nxt.append(v)
                if v in other:
                    total = dist[v] + other[v]
                    best = total if best is None else min(best, total)
        if best is not None:
            return best
        if not nxt:
            raise ValueError("elements are not connected")
        sides[i] = (dist, nxt)


def avoidant_length(raw, a, b, c, window, window_lengths):
    """Shortest path a -> b inside the identity-centred window ball that
    avoids the open ball around c of radius max(0, floor(d(c,{a,b})/2) - 2).
    None when the window leaves a and b disconnected."""
    mul, gens = raw["mul"], raw["gens"]
    radius = max(0, min(word_distance(raw, c, a), word_distance(raw, c, b)) // 2 - 2)
    forbidden = set()
    if radius >= 1:
        forbidden = {mul(c, u) for u in ball_lengths(raw, radius - 1)}
    if a in forbidden or b in forbidden:
        return None
    dist = {a: 0}
    frontier = deque([a])
    while frontier:
        g = frontier.popleft()
        if g == b:
            return dist[g]
        for s in gens:
            h = mul(g, s)
            if h in dist or h in forbidden:
                continue
            length = window_lengths.get(h)
            if length is None or length > window:
                continue
            dist[h] = dist[g] + 1
            frontier.append(h)
    return None


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------


def check_untwist(report_text, phi):
    """`cocycle untwist` report against the planted homomorphism.

    phi maps each generator's unit vector to its planted value; psi must equal
    the linear extension exactly (all inputs are dyadic, so no rounding).
    """
    problems = []
    report = json.loads(report_text)
    if report.get("ok") is not True:
        problems.append(f"ok is {report.get('ok')!r}")
    for key in ("relation_consistency", "constancy_defect", "homomorphism_defect"):
        if report.get(key) != 0:
            problems.append(f"{key} is {report.get(key)!r}, expected 0")
    psi = report.get("psi") or {}
    if not psi:
        problems.append("no psi values reported")
    units = list(phi)
    for elem_text, value in psi.items():
        coords = parse_tuple(elem_text)
        expected = [sum(k * phi[u][i] for k, u in zip(coords, units))
                    for i in range(len(phi[units[0]]))]
        if list(value) != expected:
            problems.append(f"psi{elem_text} = {value}, planted {expected}")
    return problems


def check_divergence(csv_text, report_text, group, nmax, window_factor,
                     verify=False):
    """`divergence` rows: n = 2..nmax, finite and non-decreasing.  With
    verify, every row that sets a new value is recomputed by raw BFS."""
    problems = []
    lines = csv_text.splitlines()
    if not lines or not lines[0].startswith("# config = "):
        return ["missing config line"]
    header = "n,div_estimate,witness_a,witness_b,witness_c,window"
    if len(lines) < 2 or lines[1] != header:
        return ["unexpected header"]
    rows = [(int(n), float(value), a, b, c, int(window))
            for n, value, a, b, c, window in csv.reader(lines[2:])]
    if [r[0] for r in rows] != list(range(2, nmax + 1)):
        problems.append(f"rows cover n={[r[0] for r in rows]}, expected 2..{nmax}")
    previous = -math.inf
    new_values = []
    for n, value, a, b, c, window in rows:
        if not math.isfinite(value):
            problems.append(f"n={n}: value {value} is not finite")
        if value < previous:
            problems.append(f"n={n}: value {value} decreases from {previous}")
        if window != window_factor * n:
            problems.append(f"n={n}: window {window}, expected {window_factor * n}")
        if value > previous:
            new_values.append((n, value, a, b, c, window))
        previous = max(previous, value)
    if json.loads(report_text).get("any_infinite") is not False:
        problems.append("report claims an infinite value")
    if verify and not problems:
        problems += _verify_rows(group, new_values)
    return problems


def _verify_rows(group, rows):
    raw = RAW_GROUPS[group]
    problems = []
    window_lengths = ball_lengths(raw, max(r[5] for r in rows))
    for n, value, a_text, b_text, c_text, window in rows:
        a, b, c = parse_tuple(a_text), parse_tuple(b_text), parse_tuple(c_text)
        if word_distance(raw, a, b) > n:
            problems.append(f"n={n}: witness pair is farther apart than {n}")
        length = avoidant_length(raw, a, b, c, window, window_lengths)
        if length != value:
            problems.append(f"n={n}: reported {value}, raw BFS gives {length}")
    return problems


def in_axis_cone(cell, sign, R):
    """Membership in the cone of the anchor a = (1,0) of Z^2, from its
    definition: the union over j >= 0 of a^(+-j) B(floor(rho(j)/4) + R), where
    rho(j) = j is the compression of <a>.  A piece with j > 4(|cell| + R)/3
    lies beyond the cell, so the search stops there."""
    i, k = cell
    reach = abs(i) + abs(k)
    for j in range(4 * (reach + R) // 3 + 2):
        centre = j if sign == "+" else -j
        if abs(i - centre) + abs(k) <= j // 4 + R:
            return True
    return False


def check_glue(report_text, x_support, x_prime_support, R):
    """`subshift glue` report for two golden-mean inputs on Z^2 with anchor
    (1,0) and cone radius R.

    x_support and x_prime_support map raw cells to their nonzero symbols, as
    generated by the benchmark.  The glued y must copy x on the + cone and x'
    on the - cone, be background elsewhere, and have no two adjacent 1s.
    """
    problems = []
    report = json.loads(report_text)
    for key in ("glued", "plus_agrees", "minus_agrees"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)!r}")
    membership = report.get("membership") or {}
    for key in ("x", "x_prime", "y"):
        if membership.get(key) is not True:
            problems.append(f"membership of {key} is {membership.get(key)!r}")
    y_obj = report.get("y")
    if not isinstance(y_obj, dict):
        return problems + ["no glued configuration reported"]
    y = {parse_tuple(cell): sym for cell, sym in y_obj["support"]}
    for cell in set(x_support) | set(x_prime_support) | set(y):
        allowed = set()
        if in_axis_cone(cell, "+", R):
            allowed.add(x_support.get(cell, 0))
        if in_axis_cone(cell, "-", R):
            allowed.add(x_prime_support.get(cell, 0))
        expected = allowed.pop() if len(allowed) == 1 else (None if allowed else 0)
        if y.get(cell, 0) != expected:
            problems.append(f"y{cell} = {y.get(cell, 0)}, expected {expected}")
    for (i, j), sym in y.items():
        if sym == 1 and (y.get((i + 1, j)) == 1 or y.get((i, j + 1)) == 1):
            problems.append(f"y has adjacent 1s at {(i, j)}")
    return problems
