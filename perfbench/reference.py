"""Reference child: a fixed pure-Python job that tells how fast the host is now.

    python3 perfbench/reference.py

The speed of the benchmark's host (2 shared vCPUs) drifts by ±30% and more
over seconds and minutes, in CPU time as much as in wall time, and it moves
every child alike: CLI children, set-up probes and this job.  The driver
spawns this job before and after each CLI child and each set-up probe, exactly
as it spawns them, and reports their times scaled by REFERENCE_S / (the mean
time of the two jobs around them).  A change in the program moves the
children's times but not this job's, so the scaled times show it; a change in
the host's speed moves both and cancels.

The job is breadth-first searches over balls of Z^2 with tuple keys in dicts,
the kind of work the package's hot paths do (ball enumeration, configuration
translates), written with raw tuples so that it imports nothing from the
package and no change to the package can move it.
"""

import sys

RADIUS = 60
ROUNDS = 12
# Typical wall time of this job, spawn to exit, on 2 shared vCPUs (Intel Xeon,
# 2.0 GHz), CPython 3.11.7.  Scaled times are seconds at this speed.
REFERENCE_S = 0.17

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def ball(radius):
    """Word lengths of the Z^2 ball of `radius`, by breadth-first search."""
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for r in range(1, radius + 1):
        nxt = []
        for x, y in frontier:
            for dx, dy in _STEPS:
                p = (x + dx, y + dy)
                if p not in dist:
                    dist[p] = r
                    nxt.append(p)
        frontier = nxt
    return dist


def run():
    """ROUNDS balls, each translated and intersected with itself; returns a
    checksum so that no round can be skipped."""
    total = 0
    for k in range(ROUNDS):
        dist = ball(RADIUS)
        moved = {(x + k, y - 1): v for (x, y), v in dist.items()}
        total += sum(v for p, v in moved.items() if p in dist)
    return total


def main():
    return 0 if run() > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
