"""The paper checks of `paper_checks`, pinned bit for bit on one seeded input.

The other tests assert only the inequalities the paper proves, which a
rewrite of a check could drift under without failing them.  A coboundary
spec corrupted in one table entry is no cocycle, so the holonomy checks read
values well away from zero on it.
"""

import random

from untwist import (ConeParams, DiscreteHeisenberg, IntegerLattice, RealVector, Torus,
                     TransferTable, WordMetric, coboundary_cocycle, cyclic_group,
                     weighted_potential)

from corrupted import corrupted_spec
from homoclinic import pair_agreeing_on_ball, random_homoclinic_pair, random_homoclinic_triple
from paper_checks import (bi_invariance_defect, conjugation_compression_check,
                          holder_modulus, holonomy_identity_check, plus_minus_agree,
                          specification_decay)

Z2 = IntegerLattice(2)
METRIC = WordMetric(Z2)
A = (0, 1)
EPS = 1e-8


def seeded_spec_and_samples():
    r1 = RealVector(1)
    potential = weighted_potential(
        Z2, METRIC, r1, 1,
        {(0, 0): (0.3,), (1, 0): (0.07,), (0, 1): (-0.11,), (-1, 0): (0.013,)}, A)
    spec = coboundary_cocycle(Z2, r1, {"x1+": (0.5,), "x2+": (-0.25,)}, potential, A,
                              metric=METRIC)
    rng = random.Random(2604)
    triples = [random_homoclinic_triple(Z2, METRIC, A, rng) for _ in range(6)]
    pairs = [random_homoclinic_pair(Z2, METRIC, A, rng) for _ in range(6)]
    params_by_R = {R: ConeParams.create(Z2, (1, 0), R, metric=METRIC, max_query_length=100)
                   for R in (2, 4)}
    pairs_by_R = {R: [pair_agreeing_on_ball(Z2, METRIC, A, rng,
                                            params.specification_ball_radius(), shell=3)
                      for _ in range(3)]
                  for R, params in params_by_R.items()}
    pairs_by_N = {N: [pair_agreeing_on_ball(Z2, METRIC, A, rng, N, shell=3)
                      for _ in range(4)]
                  for N in (0, 1, 2, 3)}
    bad = corrupted_spec(spec, "x1+", 0, (0.43,))
    return bad, triples, pairs, params_by_R, pairs_by_R, pairs_by_N


def test_holonomy_checks_reproduce_their_pinned_values():
    spec, triples, pairs, params_by_R, pairs_by_R, pairs_by_N = seeded_spec_and_samples()
    assert holonomy_identity_check(spec, (1, 0), triples, EPS) == 8.881784197001252e-16
    assert plus_minus_agree(spec, (1, 0), pairs, EPS) == 0.48999999999999977
    assert plus_minus_agree(spec, (0, 1), pairs, EPS) == 0.0
    assert specification_decay(spec, params_by_R, pairs_by_R, EPS) == {
        2: (0.21000000000000085, 0.0, 15.776000000284029),
        4: (0.14000000000000057, 0.0, 3.944000000051229),
    }
    assert holder_modulus(TransferTable(spec, (1, 0), EPS), pairs_by_N) == (
        {0: 0.1399999999999999, 1: 0.20999999999999974, 2: 0.20999999999999952,
         3: 0.20999999999999974},
        1.129346935456855,
    )


def test_group_checks_reproduce_their_pinned_values():
    assert conjugation_compression_check(DiscreteHeisenberg(), (1, 0, 0), (0, 1, 0), 8) == (
        1, (4, 4, 4, 4, 4, 4))
    for target, defect in ((RealVector(1), 0.0), (Torus(2), 2.220446049250313e-16),
                           (cyclic_group(5), 0.0)):
        assert bi_invariance_defect(target, random.Random(17), trials=40) == defect
