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

SPEC_RELPATH = os.path.join("tests", "golden", "coboundary_w0.json")


def write_cocycle_spec(path):
    from untwist import (
        IntegerLattice,
        RealVector,
        WordMetric,
        coboundary_cocycle,
        weighted_potential,
    )
    from untwist.cocycles import cocycle_spec_to_jsonable
    from untwist.reporting import dumps

    group = IntegerLattice(2)
    metric = WordMetric(group)
    alphabet = (0, 1)
    target = RealVector(2)
    weights = {(0, 0): (0.25, -0.125)}
    potential = weighted_potential(group, metric, target, 0, weights, alphabet)
    phi = {"x1+": (0.5, -0.25), "x2+": (0.125, 1.0)}
    spec = coboundary_cocycle(group, target, phi, potential, alphabet,
                              metric=metric)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cocycle_spec_to_jsonable(spec)) + "\n")


def regenerate():
    from untwist.cli import main

    os.chdir(ROOT)
    write_cocycle_spec(SPEC_RELPATH)
    tmp = tempfile.mkdtemp()
    try:
        assert main(["invariants", "--group", "heisenberg", "--element", "z",
                     "--radius", "8", "--sdt-base", "0.5", "--sdt-terms", "16",
                     "--out", os.path.join(tmp, "inv")]) == 0
        shutil.copy(os.path.join(tmp, "inv", "powers.csv"),
                    os.path.join(HERE, "heisenberg_z_powers.csv"))
        shutil.copy(os.path.join(tmp, "inv", "report.json"),
                    os.path.join(HERE, "heisenberg_z_report.json"))
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
        assert main(["cocycle", "untwist", "--group", "z^2",
                     "--spec", SPEC_RELPATH, "--seed", "3", "--samples", "10",
                     "--sample-radius", "5", "--sample-cells", "3",
                     "--out", os.path.join(tmp, "untwist_report.json")]) == 0
        shutil.copy(os.path.join(tmp, "untwist_report.json"),
                    os.path.join(HERE, "untwist_report.json"))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    regenerate()
    print("golden artifacts refreshed in", HERE)
