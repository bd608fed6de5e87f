"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime budget."""

import random
import time
from contextlib import contextmanager

from untwist import (
    ConeParams,
    Configuration,
    CyclicGroup,
    DiscreteHeisenberg,
    IntegerLattice,
    RealVector,
    Torus,
    TransferTable,
    WordMetric,
    build_profile,
    classify_growth,
    coboundary_cocycle,
    default_specification_constants,
    div_pair,
    enumerate_ball,
    extract_homomorphism,
    generator_independence,
    glue,
    holonomy,
    make_query,
    membership_check,
    relation_consistency,
    weighted_potential,
)
from untwist.groups import OutOfRange
from untwist.divergence import FINITE, INFINITE, avoidant_shortest_path, default_obstacles
from untwist.shifts import GoldenMean
from untwist.sampling import random_configuration

from corrupted import corrupted_spec
from homoclinic import cell_pool, pair_agreeing_on_ball, random_homoclinic_pair
from oracles import partial_product
from paper_checks import (conjugation_compression_check, holder_modulus,
                          holonomy_identity_check, plus_minus_agree, specification_decay)

Z2 = IntegerLattice(2)
Z = IntegerLattice(1)
HEIS = DiscreteHeisenberg()
METRIC2 = WordMetric(Z2)
A = (0, 1)
EPS = 1e-8


@contextmanager
def criterion(number, description, budget=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s")
    print(f"PASS  criterion {number}: {description} [{elapsed:.2f}s]")


def test_criterion_1_heisenberg_distortion():
    with criterion(1, "Heisenberg distortion facts at radius 8", budget=30):
        table = enumerate_ball(HEIS, 8)
        assert table.lengths.get((0, 0, 1)) == 4
        assert table.lengths.get((0, 0, 2)) == 6
        assert table.lengths.get((0, 0, 4)) == 8
        profile = build_profile(HEIS, (0, 0, 1), 8)
        for k in (1, 2):  # every k with 4k inside the exact range
            assert profile.distortion(4 * k) >= k * k
        for j in range(1, profile.j_max + 1):
            assert profile.lower_bound.value(j) <= profile.compression(j)
        assert profile.lower_bound.describe() == "sqrt(scale=1)"


def test_criterion_2_translation_numbers():
    with criterion(2, "translation numbers and anchor refusal"):
        diag = build_profile(Z2, (1, 1), 12).translation_data()
        assert all(ratio == 2.0 for _, _, ratio in diag.terms)

        central = build_profile(HEIS, (0, 0, 1), 20).translation_data()
        running = {n: central.running_min[i]
                   for i, (n, _, _) in enumerate(central.terms)}
        assert running[25] < 1.0
        assert min(n for n, v in running.items() if v < 1.0) <= 25
        assert not central.undistorted_witness
        for anchor in ((1, 0), (0, 1)):
            assert build_profile(Z2, anchor, 12).translation_data().undistorted_witness


PROFILES_3 = [
    (Z, ((1,), (2,), (3,)), 12),
    (Z2, ((1, 0), (1, 1), (2, 1)), 10),
    (HEIS, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 10),
]


def test_criterion_3_inequality_suite():
    with criterion(3, "distortion/compression inequality suite", budget=60):
        for group, elements, radius in PROFILES_3:
            for g in elements:
                profile = build_profile(group, g, radius)
                for j, length in profile.entries:
                    assert profile.distortion(length) >= j
                    assert profile.compression(j) <= length
                for x in range(1, radius + 1):
                    if x <= profile.j_max:
                        assert profile.distortion(profile.compression(x) - 1) < x
                    dx = profile.distortion(x)
                    if dx + 1 <= profile.j_max:
                        assert x < profile.compression(dx + 1)
                    try:
                        assert profile.rho_inverse(x) <= dx
                    except OutOfRange:
                        pass
                for x in range(1, profile.j_max + 1):
                    for y in range(1, profile.j_max - x + 1):
                        assert (profile.compression(x + y)
                                <= profile.compression(x) + profile.compression(y))
                for x in range(1, radius + 1):
                    for y in range(1, radius - x + 1):
                        assert (profile.distortion(x + y)
                                >= profile.distortion(x) + profile.distortion(y))
        for group, g, t, radius in ((Z2, (1, 0), (3, -2), 10),
                                    (HEIS, (1, 0, 0), (0, 1, 0), 8),
                                    (HEIS, (0, 1, 0), (1, 0, 0), 8)):
            _, slacks = conjugation_compression_check(group, g, t, radius)
            assert min(slacks) >= 0


def test_criterion_4_divergence():
    with criterion(4, "divergence values and growth classification", budget=120):
        q = make_query(Z, (-6,), (6,), (0,), 24)
        assert avoidant_shortest_path(q).outcome == INFINITE

        rng = random.Random(7)
        for n in range(6, 15):
            a, b = (-n, 0), (n, 0)
            window = 4 * n
            obstacles = default_obstacles(Z2, a, b, window, rng, 10)
            pair = div_pair(Z2, a, b, obstacles, window)
            assert 3 * n - 8 <= pair.value <= 3 * n + 8
            assert pair.value / n <= 4.0

        ns = list(range(4, 32))
        linear = classify_growth(ns, [3.0 * n for n in ns])
        assert abs(linear.degree - 1.0) <= 0.1
        quadratic = classify_growth(ns, [float(n * n) for n in ns])
        assert abs(quadratic.degree - 2.0) <= 0.1


def test_criterion_5_specification_gluing():
    with criterion(5, "specification gluing and cone containment", budget=60):
        rng = random.Random(501)
        total_pairs = 0
        for R in (0, 2, 4):
            params = ConeParams.create(Z2, (1, 0), R, metric=METRIC2,
                                       max_query_length=100)
            n_spec = params.specification_ball_radius()
            for _ in range(168):
                x, xp = pair_agreeing_on_ball(Z2, METRIC2, A, rng, n_spec,
                                              shell=4, n_core=3, n_outer=3)
                result = glue(x, xp, params)  # raises if a post-check fails
                assert result.plus_agrees and result.minus_agrees
                total_pairs += 1
        assert total_pairs >= 500

        window = enumerate_ball(Z2, 20)
        for R in (0, 2, 4):
            params = ConeParams.create(Z2, (1, 0), R, metric=METRIC2,
                                       max_query_length=60)
            bound = params.overlap_window_bound()
            for g in window.order:
                if (params.cone_contains(g, "+")
                        and params.cone_contains(g, "-")):
                    assert METRIC2.length(g) <= bound

        families = (((0, 0), (1, 0)), ((0, 0), (0, 1)))
        gm = GoldenMean(A, families)
        s, t = default_specification_constants(gm, METRIC2)
        params = ConeParams.create(Z2, (1, 0), 2, s, t, METRIC2,
                                   max_query_length=80)
        n_spec = params.specification_ball_radius()
        ball = METRIC2.ball(n_spec + 5)
        inner = [g for g in ball.order if ball.lengths[g] <= n_spec]
        outer = [g for g in ball.order
                 if n_spec < ball.lengths[g] <= n_spec + 5]
        kept = 0
        while kept < 40:
            support = {c: 1 for c in rng.sample(inner, 3) + rng.sample(outer, 3)}
            x = Configuration(Z2, A, 0, support)
            support2 = {c: 1 for c in rng.sample(outer, 3)}
            support2.update({c: support[c] for c in support if c in inner})
            xp = Configuration(Z2, A, 0, support2)
            if not (membership_check(x, gm) and membership_check(xp, gm)):
                continue
            y = glue(x, xp, params).y
            assert membership_check(y, gm)
            kept += 1


def planted_coboundary(target, phi, weights, window):
    potential = weighted_potential(Z2, METRIC2, target, window, weights, A)
    return coboundary_cocycle(Z2, target, phi, potential, A, metric=METRIC2), potential


def test_criterion_6_certificate_soundness():
    with criterion(6, "holonomy certificates and anchor independence",
                   budget=120):
        target = RealVector(1)
        spec, _ = planted_coboundary(
            target, {"x1+": (0.5,), "x2+": (-0.25,)},
            {(0, 0): (0.25,), (1, 0): (0.0625,), (0, -1): (-0.03125,)}, 1)
        rng = random.Random(601)
        pairs = [random_homoclinic_pair(Z2, METRIC2, A, rng, 7, 4)
                 for _ in range(200)]
        anchors = ((1, 0), (0, 1))
        for x, y in pairs:
            for g in anchors:
                value, cert = holonomy(spec, g, x, y, EPS)
                n = max(cert.n_used, 1)
                for n_prime in (n, n + 3, 2 * n):
                    later = partial_product(spec, g, x, y, n_prime, "+")
                    assert target.dist(later, value) <= cert.tail_bound
        triples = [(pairs[i][0], pairs[i][1], pairs[i + 1][0])
                   for i in range(0, 100, 2)]
        for g in anchors:
            assert holonomy_identity_check(spec, g, triples, EPS) <= 3 * EPS
            assert plus_minus_agree(spec, g, pairs, EPS) <= 2 * EPS
        assert generator_independence(spec, anchors[0], anchors[1],
                                      pairs, EPS) <= 2 * EPS


def untwist_case(target, phi, weights, window, samples, tolerance):
    spec, _ = planted_coboundary(target, phi, weights, window)
    elements = [Z2.gen(lab) for lab in Z2.positive_labels]
    report = extract_homomorphism(TransferTable(spec, (1, 0), EPS), elements, samples,
                                  tolerance)
    return spec, report, elements


def test_criterion_7_untwisting_roundtrip():
    with criterion(7, "untwisting roundtrips over three target groups",
                   budget=180):
        rng = random.Random(701)
        cells = cell_pool(METRIC2, 6)
        samples = [random_configuration(Z2, cells, A, rng, 4) for _ in range(100)]

        c5 = CyclicGroup(5)
        spec5, rep5, _ = untwist_case(
            c5, {"x1+": 2, "x2+": 3},
            {(0, 0): 1, (1, 0): 3, (0, 1): 2, (1, 1): 4}, 2, samples, 0.25)
        assert rep5.psi[(1, 0)] == 2 and rep5.psi[(0, 1)] == 3
        assert rep5.constancy_defect == 0.0
        assert rep5.homomorphism_defect == 0.0

        r2 = RealVector(2)
        phi_r2 = {"x1+": (0.5, -0.25), "x2+": (0.125, 1.0)}
        spec_r2, rep_r2, elements = untwist_case(
            r2, phi_r2,
            {(0, 0): (0.25, -0.125), (1, 0): (0.0625, 0.03125),
             (0, 1): (-0.03125, 0.0625), (1, -1): (0.015625, -0.0078125)},
            2, samples, 1e-6)
        for g in elements:
            expected = tuple(g[0] * a + g[1] * b
                             for a, b in zip(phi_r2["x1+"], phi_r2["x2+"]))
            assert r2.dist(rep_r2.psi[g], expected) <= 1e-6
        assert rep_r2.constancy_defect <= 1e-6
        assert rep_r2.homomorphism_defect <= 2e-6

        t1 = Torus(1)
        spec_t, rep_t, _ = untwist_case(
            t1, {"x1+": (0.3,), "x2+": (0.7,)},
            {(0, 0): (0.11,), (1, 0): (0.05,), (0, -1): (0.02,)}, 1,
            samples, 1e-6)
        assert t1.dist(rep_t.psi[(1, 0)], (0.3,)) <= 1e-6
        assert t1.dist(rep_t.psi[(0, 1)], (0.7,)) <= 1e-6
        assert rep_t.constancy_defect <= 1e-6
        assert rep_t.homomorphism_defect <= 2e-6

        bad = corrupted_spec(spec_t, "x1+", 0, (0.43,))
        controls = [Configuration(Z2, A, 0, {})] + samples[:5]
        assert relation_consistency(bad, controls) > 0.0


def test_criterion_8_holder_modulus_and_decay():
    with criterion(8, "transfer-map modulus and specification decay",
                   budget=60):
        rng = random.Random(801)
        target = RealVector(1)
        window = 2
        alpha = 0.125
        ball = METRIC2.ball(window)
        weights = {}
        for cell in sorted(ball.lengths, key=lambda c: (ball.lengths[c], str(c))):
            if ball.lengths[cell] <= window:
                weights[cell] = (alpha ** ball.lengths[cell],)
        spec, _ = planted_coboundary(target, {"x1+": (0.0,), "x2+": (0.0,)},
                                     weights, window)
        transfer = TransferTable(spec, (1, 0), EPS)
        pairs_by_N = {
            N: [pair_agreeing_on_ball(Z2, METRIC2, A, rng, N, shell=3)
                for _ in range(12)]
            for N in (0, 1, 2, 3, 4)
        }
        rows, rate = holder_modulus(transfer, pairs_by_N)
        for N in (0, 1):
            assert rows[N] > 2 * EPS
        for N in (window, window + 1, window + 2):
            assert rows[N] <= 2 * EPS  # certified zero at the epsilon scale
        assert 0.0 < rate <= spec.rate

        # discrete twin: beyond the window the distances are exactly zero
        c5 = CyclicGroup(5)
        spec5, _ = planted_coboundary(c5, {"x1+": 0, "x2+": 0},
                                      {(0, 0): 1, (1, 0): 2, (0, 1): 3}, 2)
        transfer5 = TransferTable(spec5, (1, 0), EPS)
        for N in (2, 3):
            for x, y in pairs_by_N[N]:
                bx, _ = transfer5.value(x)
                by, _ = transfer5.value(y)
                assert c5.dist(bx, by) == 0.0

        params_by_R = {}
        pairs_by_R = {}
        for R in (2, 4, 6, 8):
            params = ConeParams.create(Z2, (1, 0), R, metric=METRIC2,
                                       max_query_length=120)
            params_by_R[R] = params
            n_spec = params.specification_ball_radius()
            pairs_by_R[R] = [
                pair_agreeing_on_ball(Z2, METRIC2, A, rng, n_spec, shell=3)
                for _ in range(8)
            ]
        rows = specification_decay(spec, params_by_R, pairs_by_R, EPS)
        for observed, via_witness, bound in rows.values():
            assert observed <= bound
            assert via_witness <= bound
        bounds = [bound for _, _, bound in rows.values()]
        assert bounds == sorted(bounds, reverse=True)
