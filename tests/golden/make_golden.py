"""Regenerate the frozen CLI artifacts compared by test_cli.py.

Run from anywhere:

    python tests/golden/make_golden.py

The inputs are fully deterministic (fixed seeds, dyadic weights) and paths
echoed into reports are repo-relative, so refreshed files are byte-identical
unless behaviour changed on purpose.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

# cocycle untwist goldens: (spec file, report file, group, phi on the
# positive generators, potential weight at e).  Every value is dyadic, so
# the planted psi is read back exactly.
UNTWIST_RUNS = (
    ("coboundary_w0.json", "untwist_report.json", "z^2",
     {"x1+": (0.5, -0.25), "x2+": (0.125, 1.0)}, (0.25, -0.125)),
    ("heisenberg_coboundary_w0.json", "heisenberg_untwist_report.json",
     "heisenberg", {"a": (0.75, -0.5), "b": (0.25, 0.125)}, (-0.375, 0.5)),
)


def untwist_argv(group, spec_name, out):
    return ["cocycle", "untwist", "--group", group,
            "--spec", os.path.join("tests", "golden", spec_name), "--seed", "3",
            "--samples", "10", "--sample-radius", "5", "--sample-cells", "3",
            "--out", out]

# subshift glue goldens: (artifact stem, group, anchor, R, core radius,
# query length, seed).  The core radius is the specification ball radius of
# the anchor and R.  The task is written to <stem>_task.json and the glue
# report to <stem>.json.
# invariants goldens: (artifact stem, argv after "invariants").  Each run's
# five files are copied to <stem>_<file>.
INVARIANTS_RUNS = (
    ("heisenberg_z", ["--group", "heisenberg", "--element", "z", "--radius", "8",
                      "--sdt-base", "0.5", "--sdt-terms", "16"]),
    ("z2diag_11", ["--group", "z^2+diag", "--element", "(1,1)", "--radius", "10",
                   "--sdt-base", "0.5", "--sdt-terms", "12"]),
)
INVARIANTS_FILES = ("powers.csv", "compression.csv", "distortion.csv",
                    "translation.csv", "report.json")

GLUE_RUNS = (
    ("glue_z2", "z^2", "(1,0)", 2, 14, 24, 11),
    ("glue_heisenberg", "heisenberg", "(1,0,0)", 1, 8, 12, 13),
)


def write_coboundary_spec(path, group_name, phi, weight):
    """Coboundary twist of phi by the window-0 potential b(x) = x_e * weight,
    into R^2 over the alphabet {0, 1}."""
    from untwist import (
        RealVector,
        WordMetric,
        coboundary_cocycle,
        cocycle_spec_to_jsonable,
        parse_group,
        weighted_potential,
    )
    from untwist.reporting import dumps

    group = parse_group(group_name)
    metric = WordMetric(group)
    alphabet = (0, 1)
    target = RealVector(2)
    potential = weighted_potential(group, metric, target, 0,
                                   {group.identity: weight}, alphabet)
    spec = coboundary_cocycle(group, target, phi, potential, alphabet,
                              metric=metric)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cocycle_spec_to_jsonable(spec)) + "\n")


def write_glue_task(path, group_name, anchor, radius_R, core, reach, seed):
    """Golden-mean task over the families {e, s} for the first two positive
    generators s (x1+ and x2+ on z^2, a and b on heisenberg): x and x' share
    isolated 1s inside B(core), and each puts its own isolated 1s in the
    annulus out to the query length, half of them within distance 2 of the
    anchor's powers so that the cones catch some."""
    import random

    from untwist import WordMetric, parse_group
    from untwist.reporting import dumps

    group = parse_group(group_name)
    ball = WordMetric(group).ball(reach)
    steps = [group.gens[0][1], group.gens[2][1]]
    neighbours = [s for step in steps for s in (step, group.inv(step))]
    rng = random.Random(seed)

    def add_isolated(support, cells, count):
        cells = list(cells)
        rng.shuffle(cells)
        for cell in cells:
            if count == 0:
                break
            if not any(group.mul(cell, s) in support for s in neighbours):
                support[cell] = 1
                count -= 1
        return support

    near_powers = set()
    a = group.parse_elem(anchor)
    for step in (a, group.inv(a)):
        power = group.identity
        for _ in range(reach):
            power = group.mul(power, step)
            near_powers.update(group.mul(power, b) for b in ball.order
                               if ball.lengths[b] <= 2)
    inner = [g for g in ball.order if ball.lengths[g] <= core]
    outer = [g for g in ball.order if ball.lengths[g] > core]
    axis = [g for g in outer if g in near_powers]
    shared = add_isolated({}, inner, 12)

    def own():
        return add_isolated(add_isolated(dict(shared), axis, 12), outer, 12)

    fmt = group.format_elem

    def jsonable(support):
        return {"alphabet": [0, 1], "background": 0,
                "support": [[fmt(c), 1] for c in sorted(support, key=fmt)]}

    task = {
        "subshift": {"kind": "golden_mean", "alphabet": [0, 1],
                     "families": [[fmt(group.identity), fmt(s)] for s in steps]},
        "anchor": anchor, "R": radius_R, "max_query_length": reach,
        "x": jsonable(own()),
        "x_prime": jsonable(own()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(task) + "\n")


def regenerate():
    from untwist.cli import main

    os.chdir(ROOT)
    tmp = tempfile.mkdtemp()
    try:
        for stem, argv in INVARIANTS_RUNS:
            assert main(["invariants", *argv, "--out", os.path.join(tmp, stem)]) == 0
            for name in INVARIANTS_FILES:
                shutil.copy(os.path.join(tmp, stem, name),
                            os.path.join(HERE, f"{stem}_{name}"))
        assert main(["divergence", "--group", "z", "--nmax", "14", "--seed", "7",
                     "--out", os.path.join(tmp, "divz")]) == 0
        shutil.copy(os.path.join(tmp, "divz", "divergence.csv"),
                    os.path.join(HERE, "divergence_z.csv"))
        assert main(["divergence", "--group", "z^2", "--nmax", "12", "--seed", "7",
                     "--out", os.path.join(tmp, "divz2")]) == 0
        shutil.copy(os.path.join(tmp, "divz2", "divergence.csv"),
                    os.path.join(HERE, "divergence_z2.csv"))
        assert main(["divergence", "--group", "heisenberg", "--nmax", "4",
                     "--seed", "7", "--out", os.path.join(tmp, "divh")]) == 0
        shutil.copy(os.path.join(tmp, "divh", "divergence.csv"),
                    os.path.join(HERE, "divergence_heisenberg.csv"))
        for spec_name, report, group, phi, weight in UNTWIST_RUNS:
            write_coboundary_spec(os.path.join(HERE, spec_name), group, phi, weight)
            assert main(untwist_argv(group, spec_name, os.path.join(tmp, report))) == 0
            shutil.copy(os.path.join(tmp, report), os.path.join(HERE, report))
        for stem, group, anchor, radius_R, core, reach, seed in GLUE_RUNS:
            task = os.path.join("tests", "golden", stem + "_task.json")
            write_glue_task(task, group, anchor, radius_R, core, reach, seed)
            assert main(["subshift", "glue", "--group", group, "--spec", task,
                         "--out", os.path.join(tmp, stem + ".json")]) == 0
            shutil.copy(os.path.join(tmp, stem + ".json"),
                        os.path.join(HERE, stem + ".json"))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    regenerate()
    print("golden artifacts refreshed in", HERE)
