import itertools
import math
import random
import re

import pytest

from untwist import (
    BlockMap,
    CocycleError,
    CocycleSpec,
    ConeParams,
    Configuration,
    CyclicGroup,
    DirectProduct,
    DiscreteHeisenberg,
    FiniteGroup,
    FreeGroup,
    InputError,
    IntegerLattice,
    RealVector,
    Torus,
    TransferTable,
    VerificationError,
    WordMetric,
    canonical_cells,
    coboundary_cocycle,
    cocycle_spec_from_jsonable,
    cocycle_spec_to_jsonable,
    extract_homomorphism,
    generator_independence,
    holonomy,
    homomorphism_cocycle,
    parse_group,
    relation_consistency,
    weighted_potential,
)
from untwist.sampling import random_configuration
from untwist.targets import TargetError

from corrupted import corrupted_spec
from homoclinic import (cell_pool, pair_agreeing_on_ball, random_homoclinic_pair,
                        random_homoclinic_triple)
from oracles import partial_product
from paper_checks import (holder_modulus, holonomy_identity_check, plus_minus_agree,
                          specification_decay)
from test_targets import symmetric_group_3

Z2 = IntegerLattice(2)
METRIC = WordMetric(Z2)
A = (0, 1)
R1 = RealVector(1)
EPS = 1e-8

PHI_R1 = {"x1+": (0.5,), "x2+": (-0.25,)}


def window1_potential(scale=0.25):
    weights = {
        (0, 0): (scale,),
        (1, 0): (scale / 4,),
        (0, 1): (-scale / 8,),
        (-1, 0): (scale / 16,),
        (0, -1): (scale / 32,),
    }
    return weighted_potential(Z2, METRIC, R1, 1, weights, A)


def coboundary_spec(phi=PHI_R1, potential=None):
    potential = potential or window1_potential()
    return coboundary_cocycle(Z2, R1, phi, potential, A, metric=METRIC)


def hom_spec(phi=PHI_R1):
    return homomorphism_cocycle(Z2, R1, phi, A)


def phi_value(spec, phi, g):
    """phi extended to the lattice by linearity."""
    x_val = phi["x1+"]
    y_val = phi["x2+"]
    return tuple(g[0] * a + g[1] * b for a, b in zip(x_val, y_val))


def potential_value(potential, x):
    return potential.value(x)


def sample_configs(rng, count, radius=6, cells=4):
    pool = cell_pool(METRIC, radius)
    return [random_configuration(Z2, pool, A, rng, cells) for _ in range(count)]


# -- evaluation ----------------------------------------------------------------

def test_homomorphism_spec_is_constant_in_x():
    spec = hom_spec()
    rng = random.Random(1)
    for x in sample_configs(rng, 5):
        for g in ((1, 0), (2, 3), (-1, 4)):
            assert spec.evaluate(g, x) == phi_value(spec, PHI_R1, g)


def test_evaluate_identity_element():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(1, 1): 1})
    assert spec.evaluate((0, 0), x) == R1.identity


def test_coboundary_evaluate_closed_form():
    potential = window1_potential()
    spec = coboundary_spec(potential=potential)
    rng = random.Random(2)
    for x in sample_configs(rng, 6):
        for g in ((1, 0), (0, 1), (2, -1), (-3, 2)):
            expected = (phi_value(spec, PHI_R1, g)[0]
                        + potential.value(x)[0]
                        - potential.value(x.translate(g))[0])
            got = spec.evaluate(g, x)[0]
            assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)


def test_evaluate_matches_composition():
    spec = coboundary_spec()
    rng = random.Random(3)
    for x in sample_configs(rng, 4):
        for g, h in (((1, 0), (0, 1)), ((2, 1), (-1, 1))):
            lhs = spec.evaluate(Z2.mul(g, h), x)
            rhs = R1.mul(spec.evaluate(g, x.translate(h)), spec.evaluate(h, x))
            assert R1.dist(lhs, rhs) <= 1e-12


# -- relation consistency ---------------------------------------------------------

def test_relation_consistency_homomorphism_exact():
    spec = hom_spec()
    rng = random.Random(4)
    assert relation_consistency(spec, sample_configs(rng, 6)) == 0.0


def test_relation_consistency_coboundary_small():
    spec = coboundary_spec()
    rng = random.Random(5)
    pairs = [((1, 0), (0, 1)), ((1, 1), (1, 0))]
    assert relation_consistency(spec, sample_configs(rng, 6), pairs) <= 1e-12


def test_relation_consistency_flags_corruption():
    spec = corrupted_spec(coboundary_spec(), "x1+", 0, (9.0,))
    samples = [Configuration(Z2, A, 0, {})]
    assert relation_consistency(spec, samples) > 0.1


# -- continuity constants ----------------------------------------------------------

def test_holder_constants_scaling():
    spec = coboundary_spec()
    C1, r = spec.holder_constants((1, 0))
    assert C1 == spec.holder_constant
    C2, _ = spec.holder_constants((2, 0))
    assert math.isclose(C2, spec.holder_constant * (1 + 1 / r))
    C0, _ = spec.holder_constants((0, 0))
    assert C0 == 0.0


def test_holder_constants_of_an_anchor_past_float_range():
    # 0.5 ** -1099 overflows a float.
    z = IntegerLattice(1)
    metric = WordMetric(z)
    x = Configuration(z, A, 0, {(0,): 1})
    y = Configuration(z, A, 0, {})
    hom = homomorphism_cocycle(z, R1, {"x1+": (0.5,)}, A)
    assert hom.holder_constants((1100,)) == (0.0, 0.5)
    value, cert = holonomy(hom, (1100,), x, y, EPS)
    assert value == R1.identity and cert.tail_bound == 0.0
    potential = weighted_potential(z, metric, R1, 1, {(0,): (0.25,)}, A)
    spec = coboundary_cocycle(z, R1, {"x1+": (0.5,)}, potential, A, metric=metric)
    with pytest.raises(CocycleError, match="anchor 1100 of length 1100"):
        holonomy(spec, (1100,), x, y, EPS)


def test_holder_bound_observed_on_samples():
    spec = coboundary_spec()
    rng = random.Random(6)
    for n in (0, 1, 2, 4):
        C_g, r = spec.holder_constants((1, 0))
        for _ in range(10):
            x, y = pair_agreeing_on_ball(Z2, METRIC, A, rng, n, shell=3)
            d = R1.dist(spec.evaluate((1, 0), x), spec.evaluate((1, 0), y))
            assert d <= C_g * r ** n + 1e-12


# -- partial products ---------------------------------------------------------------

def test_partial_products_homomorphism_trivial():
    spec = hom_spec()
    rng = random.Random(7)
    x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
    for n in (1, 2, 5, 9):
        for sign in "+-":
            assert partial_product(spec, (1, 0), x, y, n, sign) == R1.identity


def test_partial_products_equal_points():
    spec = coboundary_spec()
    rng = random.Random(8)
    x = sample_configs(rng, 1)[0]
    for n in (1, 3, 6):
        assert partial_product(spec, (1, 0), x, x, n, "+") == R1.identity


def test_partial_product_coboundary_closed_form():
    potential = window1_potential()
    spec = coboundary_spec(potential=potential)
    rng = random.Random(9)
    g = (1, 0)
    x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
    for n in (1, 2, 4, 8):
        gn = Z2.power(g, n)
        bx = potential.value(x)[0]
        by = potential.value(y)[0]
        bgx = potential.value(x.translate(gn))[0]
        bgy = potential.value(y.translate(gn))[0]
        expected = (bgx - bx) - (bgy - by)
        got = partial_product(spec, g, x, y, n, "+")[0]
        assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)


# -- holonomy -----------------------------------------------------------------------

def test_holonomy_homomorphism_immediate():
    spec = hom_spec()
    rng = random.Random(10)
    x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
    value, cert = holonomy(spec, (1, 0), x, y, EPS)
    assert value == R1.identity
    assert cert.tail_bound == 0.0
    assert cert.n_used <= 1


def test_holonomy_identical_points_exact():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(2, 2): 1})
    value, cert = holonomy(spec, (1, 0), x, x, EPS)
    assert value == R1.identity
    assert cert.n_used == 0 and cert.tail_bound == 0.0


def test_holonomy_coboundary_limit():
    potential = window1_potential()
    spec = coboundary_spec(potential=potential)
    rng = random.Random(11)
    for _ in range(10):
        x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
        for g in ((1, 0), (0, 1)):
            value, cert = holonomy(spec, g, x, y, EPS)
            expected = potential.value(y)[0] - potential.value(x)[0]
            assert abs(value[0] - expected) <= cert.tail_bound * 2 + EPS
            assert cert.tail_bound < EPS


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_epsilon_must_be_finite_and_positive(epsilon):
    # A NaN or infinite epsilon would certify n_used 1 against a bound that
    # means nothing; zero or a negative one would double n up to the cap.
    spec = coboundary_spec()
    x, y = Configuration(Z2, A, 0, {(2, 2): 1}), Configuration(Z2, A, 0, {})
    for build in (lambda: holonomy(spec, (1, 0), x, y, epsilon),
                  lambda: TransferTable(spec, (1, 0), epsilon)):
        with pytest.raises(CocycleError, match=f"epsilon must be finite and > 0, "
                                               f"got {epsilon}"):
            build()


def test_certificate_soundness_longer_truncations():
    spec = coboundary_spec()
    rng = random.Random(12)
    for _ in range(8):
        x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
        value, cert = holonomy(spec, (1, 0), x, y, EPS)
        n = max(cert.n_used, 1)
        for n_prime in (n, n + 1, n + 7, 2 * n):
            later = partial_product(spec, (1, 0), x, y, n_prime, "+")
            assert R1.dist(later, value) <= cert.tail_bound


def test_holonomy_cocycle_identity():
    spec = coboundary_spec()
    rng = random.Random(13)
    triples = [random_homoclinic_triple(Z2, METRIC, A, rng) for _ in range(8)]
    assert holonomy_identity_check(spec, (1, 0), triples, EPS) <= 3 * EPS


def test_holonomy_symmetry():
    spec = coboundary_spec()
    rng = random.Random(14)
    for _ in range(8):
        x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
        hxy, _ = holonomy(spec, (1, 0), x, y, EPS)
        hyx, _ = holonomy(spec, (1, 0), y, x, EPS)
        assert R1.dist(hxy, R1.inv(hyx)) <= 2 * EPS


def test_plus_minus_agreement():
    spec = coboundary_spec()
    rng = random.Random(15)
    pairs = [random_homoclinic_pair(Z2, METRIC, A, rng) for _ in range(8)]
    assert plus_minus_agree(spec, (1, 0), pairs, EPS) <= 2 * EPS
    assert plus_minus_agree(spec, (0, 1), pairs, EPS) <= 2 * EPS


def test_generator_independence():
    spec = coboundary_spec()
    rng = random.Random(16)
    pairs = [random_homoclinic_pair(Z2, METRIC, A, rng) for _ in range(8)]
    assert generator_independence(spec, (1, 0), (0, 1), pairs, EPS) <= 2 * EPS
    # same anchor twice is a degenerate but valid comparison
    assert generator_independence(spec, (1, 0), (1, 0), pairs, EPS) <= 2 * EPS


def test_plus_minus_identical_pair_exact():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(1, 1): 1})
    assert plus_minus_agree(spec, (1, 0), [(x, x)], EPS) == 0.0


def test_spec_refuses_a_table_that_misses_a_pattern():
    # One cell over the alphabet (0, 1) has two patterns; the table lists one.
    bm = BlockMap(R1, ((0, 0),), 0, table={(0,): (1.0,)})
    with pytest.raises(CocycleError, match=r"generator 'x1\+': pattern \[1\] has no value"):
        CocycleSpec(Z2, R1, A, 0, {lab: bm for lab, _ in Z2.gens})


def test_generator_independence_refuses_many_ends():
    free = FreeGroup(2)
    spec = homomorphism_cocycle(free, R1, {"a": (1.0,), "b": (0.0,)}, A)
    x = Configuration(free, A, 0, {})
    with pytest.raises(CocycleError):
        generator_independence(spec, free.parse_elem("a"), free.parse_elem("b"),
                               [(x, x)], EPS)


def test_holonomy_accepts_heisenberg_center():
    heis = DiscreteHeisenberg()
    spec = homomorphism_cocycle(heis, R1, {"a": (0.25,), "b": (-0.5,)}, A)
    x = Configuration(heis, A, 0, {(0, 0, 1): 1})
    xbar = Configuration(heis, A, 0, {})
    value, cert = holonomy(spec, (0, 0, 1), x, xbar, EPS)
    assert value == R1.identity
    assert cert.tail_bound < EPS


def test_holonomy_on_product_group_mixed_anchor():
    prod = DirectProduct(IntegerLattice(1), IntegerLattice(1))
    metric = WordMetric(prod)
    e = prod.identity
    weights = {e: (0.5,), (((1,), (0,))): (0.125,)}
    potential = weighted_potential(prod, metric, R1, 1, weights, A)
    values = {"l:x1+": (0.25,), "r:x1+": (-0.5,)}
    spec = coboundary_cocycle(prod, R1, values, potential, A, metric=metric)
    anchor = ((1,), (1,))  # both components move: summed lower bound
    x = Configuration(prod, A, 0, {e: 1})
    xbar = Configuration(prod, A, 0, {})
    value, cert = holonomy(spec, anchor, x, xbar, EPS)
    expected = potential.value(xbar)[0] - potential.value(x)[0]
    assert abs(value[0] - expected) <= cert.tail_bound + EPS
    assert cert.lower_bound == "sum(linear(slope=1),linear(slope=1))"


def test_holonomy_distorted_anchor_with_positive_constants():
    # sqrt lower bound still certifies a tail, just with a larger n
    heis = DiscreteHeisenberg()
    metric = WordMetric(heis)
    weights = {(0, 0, 0): (0.25,), (1, 0, 0): (0.0625,)}
    potential = weighted_potential(heis, metric, R1, 1, weights, A)
    spec = coboundary_cocycle(heis, R1, {"a": (0.0,), "b": (0.0,)}, potential,
                              A, metric=metric)
    x = Configuration(heis, A, 0, {(0, 0, 0): 1})
    xbar = Configuration(heis, A, 0, {})
    value, cert = holonomy(spec, (0, 0, 1), x, xbar, 1e-3)
    expected = potential.value(xbar)[0] - potential.value(x)[0]
    assert abs(value[0] - expected) <= 2e-3
    assert cert.n_used > 64  # sqrt tails force deep truncation


# -- finite-window cut-off ------------------------------------------------------------
# holonomy evaluates its truncation only up to the last factor that reads a
# cell where x and y differ, and reads y only on such factors; partial_product
# at the certificate's n_used is the full truncation and stays the independent
# route.  Dyadic and cyclic targets make the two routes equal exactly.

HEIS = DiscreteHeisenberg()
HEIS_METRIC = WordMetric(HEIS)


def heisenberg_cyclic_spec():
    target = CyclicGroup(5)
    weights = {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 3}
    potential = weighted_potential(HEIS, HEIS_METRIC, target, 1, weights, A)
    return coboundary_cocycle(HEIS, target, {"a": 2, "b": 4}, potential, A,
                              metric=HEIS_METRIC)


CUT_OFF_CASES = [
    ("z2-generator", lambda: coboundary_spec(), (1, 0), EPS, 6),
    ("z2-diagonal", lambda: coboundary_spec(), (1, 1), EPS, 6),
    ("heisenberg-a", heisenberg_cyclic_spec, (1, 0, 0), EPS, 4),
    ("heisenberg-centre", heisenberg_cyclic_spec, (0, 0, 1), 0.25, 2),
]


@pytest.mark.parametrize("make_spec, anchor, epsilon, pairs",
                         [case[1:] for case in CUT_OFF_CASES],
                         ids=[case[0] for case in CUT_OFF_CASES])
def test_holonomy_equals_the_full_truncation(make_spec, anchor, epsilon, pairs):
    spec = make_spec()
    rng = random.Random(31)
    for _ in range(pairs):
        x, y = random_homoclinic_pair(spec.group, WordMetric(spec.group), A, rng,
                                      max_radius=5)
        for sign in "+-":
            value, cert = holonomy(spec, anchor, x, y, epsilon, sign)
            full = partial_product(spec, anchor, x, y, cert.n_used, sign)
            assert value == full


def touched_by_index(spec, g, sign, differing, n):
    """The factors below n that the orbit read index says read a differing
    cell, checked against the read plans it holds."""
    reads, index, _ = spec._orbit_cache[g, sign]
    touched = {j for d in differing for j in index.get(d, ()) if j < n}
    assert touched == {j for j, plan in enumerate(reads[:n])
                       if not differing.isdisjoint(c for _, cells in plan for c in cells)}
    return touched


def full_walk_touched(spec, g, differing, n, sign):
    """The j < n with step^j . D meeting the read set W_g, by moving every
    differing cell through all n steps."""
    read = {c for _, cells in spec._plan(g) for c in cells}
    step = g if sign == "+" else spec.group.inv(g)
    touched, points = set(), list(differing)
    for j in range(n):
        if not read.isdisjoint(points):
            touched.add(j)
        points = [spec.group.mul(step, p) for p in points]
    return touched


@pytest.mark.parametrize("make_spec, anchor, epsilon, pairs",
                         [case[1:] for case in CUT_OFF_CASES],
                         ids=[case[0] for case in CUT_OFF_CASES])
def test_horizon_count_equals_the_full_walk(make_spec, anchor, epsilon, pairs):
    """holonomy grows the orbit index to the horizon l(D) + radius(W_g) and no
    further; the factors the index finds touched are the full walk's."""
    spec = make_spec()
    rng = random.Random(33)
    cut_off = set()
    for _ in range(3 * pairs):
        x, y = random_homoclinic_pair(spec.group, WordMetric(spec.group), A, rng,
                                      max_radius=5)
        differing = x.differing_cells(y)
        for sign in "+-":
            spec._orbit_cache.clear()
            cert = holonomy(spec, anchor, x, y, epsilon, sign)[1]
            n = cert.n_used
            reads = spec._orbit_cache[anchor, sign][0]
            reach = spec._truncation_cache[anchor, epsilon, cert.agreement_radius][2]
            assert len(reads) == reach <= n
            touched = touched_by_index(spec, anchor, sign, differing, n)
            assert touched == full_walk_touched(spec, anchor, differing, n, sign)
            cut_off.add(bool(touched) and max(touched) + 1 < n)
    assert True in cut_off


def test_heisenberg_centre_cut_off_runs_under_a_sqrt_bound():
    spec = heisenberg_cyclic_spec()
    bound = HEIS.compression_lower_bound((0, 0, 1))
    assert bound.describe() == "sqrt(scale=1)"
    x = Configuration(HEIS, A, 0, {(1, 0, 0): 1, (0, 1, 2): 1})
    value, cert = holonomy(spec, (0, 0, 1), x, spec.background_config, 0.25)
    assert cert.n_used > 64
    assert value == partial_product(spec, (0, 0, 1), x, spec.background_config,
                                    cert.n_used, "+")


def chain_value(spec, labels, x):
    """Cocycle value along a word by the translate chain: the k-th factor is
    the map of s_k on the materialised configuration (s_{k+1}...s_m).x."""
    factors = []
    state = x
    for label in reversed(labels):
        factors.append(spec.maps[label].value(state))
        state = state.translate(spec.group.gen(label))
    value = spec.target.identity
    for factor in reversed(factors):
        value = spec.target.mul(value, factor)
    return value


def chain_partial_product(spec, g, x, y, n, sign):
    """partial_product with every factor read off translated configurations."""
    group, target = spec.group, spec.target
    word = spec.group.geodesic_word(g)
    step, start = (g, 0) if sign == "+" else (group.inv(g), 1)
    px = py = target.identity
    cx, cy = x, y
    for j in range(n):
        if j >= start:
            fx, fy = chain_value(spec, word, cx), chain_value(spec, word, cy)
            if sign == "+":
                fx, fy = target.inv(fx), target.inv(fy)
            px, py = target.mul(px, fx), target.mul(py, fy)
        cx, cy = cx.translate(step), cy.translate(step)
    return target.mul(px, target.inv(py))


def position_sensitive_spec(group, metric):
    """Window-1 maps into Z/7 that weight every cell differently, so a read
    of the wrong cell changes the value (not a cocycle; evaluation only)."""
    target = CyclicGroup(7)
    cells = canonical_cells(metric, 1)
    maps = {}
    for k, (label, _) in enumerate(group.gens):
        def fn(pattern, k=k):
            return sum((i + k + 1) * (i + 2) * s for i, s in enumerate(pattern)) % 7

        maps[label] = BlockMap(target, cells, 1, fn=fn, diameter_bound=1.0)
    return CocycleSpec(group, target, A, 0, maps)


OFFSET_GROUPS = [Z2, HEIS, DirectProduct(IntegerLattice(1), FreeGroup(2))]


@pytest.mark.parametrize("group", OFFSET_GROUPS, ids=lambda g: g.name)
def test_offset_reads_equal_translated_configurations(group):
    metric = WordMetric(group)
    spec = position_sensitive_spec(group, metric)
    rng = random.Random(41)
    elements = canonical_cells(metric, 3)
    for _ in range(6):
        x = random_configuration(group, cell_pool(metric, 4), A, rng, n_cells=12)
        for words in group.defining_relation_word_pairs():
            for word in words:
                assert spec.evaluate_word(word, x) == chain_value(spec, word, x)
        for _ in range(10):
            g, h = rng.choice(elements), rng.choice(elements)
            word = group.geodesic_word(g)
            assert spec.evaluate(g, x) == chain_value(spec, word, x)
            shifted = x.translate(group.inv(h))
            assert spec.evaluate(g, shifted) == chain_value(spec, word, shifted)


@pytest.mark.parametrize("make_spec, anchor, epsilon, pairs",
                         [case[1:] for case in CUT_OFF_CASES],
                         ids=[case[0] for case in CUT_OFF_CASES])
def test_holonomy_builds_no_translated_configuration(monkeypatch, make_spec,
                                                      anchor, epsilon, pairs):
    spec = make_spec()
    rng = random.Random(42)
    cases = []
    for _ in range(pairs):
        x, y = random_homoclinic_pair(spec.group, WordMetric(spec.group), A, rng,
                                      max_radius=4)
        for sign in "+-":
            _, cert = holonomy(spec, anchor, x, y, epsilon, sign)
            n = min(cert.n_used, 40)
            cases.append((x, y, sign, cert,
                          chain_partial_product(spec, anchor, x, y, n, sign)))

    def forbidden(*_):
        raise AssertionError("a translated configuration was built")

    monkeypatch.setattr(Configuration, "translate", forbidden)
    monkeypatch.setattr(Configuration, "_derive", forbidden)
    for x, y, sign, cert, expected in cases:
        value, again = holonomy(spec, anchor, x, y, epsilon, sign)
        assert again == cert
        assert partial_product(spec, anchor, x, y, min(cert.n_used, 40), sign) == expected
        assert value == partial_product(spec, anchor, x, y, cert.n_used, sign)


def read_patterns(spec, g, x):
    """Symbols each block map reads along g's geodesic word, by translation."""
    patterns = []
    state = x
    word = spec.group.geodesic_word(g)
    for k in range(len(word) - 1, -1, -1):
        patterns.append(tuple(state.symbol_at(c) for c in spec.maps[word[k]].cells))
        state = state.translate(spec.group.gen(word[k]))
    return patterns


def last_differing_factor(spec, g, x, y, n, sign):
    """Last j in the truncation at n whose x and y factors read different
    symbols (-1 when none does), by walking both orbits to n."""
    group = spec.group
    step, start = (g, 0) if sign == "+" else (group.inv(g), 1)
    last = -1
    cx, cy = x, y
    for j in range(n):
        if j >= start and read_patterns(spec, g, cx) != read_patterns(spec, g, cy):
            last = j
        cx, cy = cx.translate(step), cy.translate(step)
    return last


def record_lookups(monkeypatch, spec):
    """A list that collects, in order, each pattern a generator map of spec
    looks up."""
    looked_up, lookup, maps = [], BlockMap.lookup, set(spec.maps.values())

    def recording(bm, pattern):
        if bm in maps:
            looked_up.append(pattern)
        return lookup(bm, pattern)

    monkeypatch.setattr(BlockMap, "lookup", recording)
    return looked_up


def plan_patterns(spec, g, x):
    """read_patterns in plan order, the order a factor looks them up in."""
    return read_patterns(spec, g, x)[::-1]


def chain_lookups(spec, g, x, y, n, sign, rule):
    """The patterns looked up over the factors below n, by the translate
    chain.  Rule "pair" (partial_product): per factor, x's patterns then
    y's.  Rule "touched" (holonomy): the same where they differ, x's alone
    where they agree; against a background y, whose factor B is cached, only
    x's and only where they differ."""
    step = g if sign == "+" else spec.group.inv(g)
    cx, cy = (x, y) if sign == "+" else (x.translate(step), y.translate(step))
    expected = []
    for _ in range(n if sign == "+" else n - 1):
        read_x, read_y = plan_patterns(spec, g, cx), plan_patterns(spec, g, cy)
        if rule == "pair":
            expected += read_x + read_y
        elif read_x != read_y:
            expected += read_x + (read_y if y.support else [])
        elif y.support:
            expected += read_x
        cx, cy = cx.translate(step), cy.translate(step)
    return expected


def test_holonomy_evaluates_no_factor_past_the_last_that_can_differ(monkeypatch):
    # A planted coboundary like the untwist benchmark's: window-0 potential.
    target = RealVector(2)
    potential = weighted_potential(Z2, METRIC, target, 0, {(0, 0): (0.375, -0.5)}, A)
    spec = coboundary_cocycle(Z2, target, {"x1+": (0.25, 0.125), "x2+": (-0.75, 1.0)},
                              potential, A, metric=METRIC)
    background = spec.background_config
    looked_up = record_lookups(monkeypatch, spec)
    rng = random.Random(32)
    # The background factor B is read once per anchor and sign, on first use.
    for g, sign in itertools.product(((1, 0), (0, 1)), "+-"):
        looked_up.clear()
        holonomy(spec, g, Configuration(Z2, A, 0, {(0, 0): 1}), background, EPS, sign)
        assert looked_up[:len(spec._plan(g))] == [(0,) * 5] * len(spec._plan(g))
    saved = evaluated = skipped = 0
    for _ in range(12):
        x, y = random_homoclinic_pair(Z2, METRIC, A, rng)
        for g, other in (((1, 0), background), ((0, 1), y)):
            for sign in "+-":
                looked_up.clear()
                value, cert = holonomy(spec, g, x, other, EPS, sign)
                last = last_differing_factor(spec, g, x, other, cert.n_used, sign)
                factors = max(1, last + 1)
                assert looked_up == chain_lookups(spec, g, x, other, factors, sign,
                                                  "touched")
                saved += cert.n_used - factors
                evaluated += factors
                if other is background:  # factors read as B
                    skipped += (factors - (sign == "-")
                                - len(looked_up) // len(spec._plan(g)))
                assert value == partial_product(spec, g, x, other, cert.n_used, sign)
    assert saved > 0 and evaluated > 0 and skipped > 0


def position_sensitive_table(target, cells, values):
    """Tabulated map on A-patterns over cells whose value depends on which
    cells show a 1, drawn from values (not a cocycle; evaluation only)."""
    table = {}
    for pattern in itertools.product(A, repeat=len(cells)):
        code = sum((i + 1) * (i + 3) * s for i, s in enumerate(pattern))
        table[pattern] = values[code % len(values)]
    return BlockMap(target, cells, 1, table=table)


def alternating_spec(target, values):
    cells = canonical_cells(METRIC, 1)
    maps = {label: position_sensitive_table(target, cells, values[k:] + values[:k])
            for k, (label, _) in enumerate(Z2.gens)}
    return CocycleSpec(Z2, target, A, 0, maps)


SYM3 = symmetric_group_3()
ALTERNATING_SPECS = [
    ("sym3", lambda: alternating_spec(SYM3, list(SYM3.elements))),
    # Dyadic values keep every product exact, whatever the grouping.
    ("real_vector", lambda: alternating_spec(
        RealVector(2), [(k / 8, (3 - k) / 4) for k in range(7)])),
]


@pytest.mark.parametrize("make_spec", [case[1] for case in ALTERNATING_SPECS],
                         ids=[case[0] for case in ALTERNATING_SPECS])
def test_y_is_looked_up_only_where_its_read_differs(monkeypatch, make_spec):
    spec = make_spec()
    looked_up = record_lookups(monkeypatch, spec)
    rng = random.Random(43)
    # Flips spaced along both axes: along each anchor's orbit the factors
    # that read a flip alternate with factors that read none.
    flips = [(0, 0), (4, 0), (-4, 0), (9, 1), (-9, -1), (5, 5), (-5, -5)]
    y_lookups = y_reuses = 0
    for _ in range(3):
        y = random_configuration(Z2, cell_pool(METRIC, 12), A, rng, n_cells=20)
        x = Configuration(Z2, A, 0, {**y.support, **{c: 1 - y.symbol_at(c)
                                                     for c in flips}})
        for g in ((1, 0), (1, 1)):
            entries = len(spec._plan(g))
            for sign in "+-":
                looked_up.clear()
                value, cert = holonomy(spec, g, x, y, EPS, sign)
                factors = max(1, last_differing_factor(spec, g, x, y, cert.n_used,
                                                       sign) + 1)
                assert factors <= cert.n_used
                assert looked_up == chain_lookups(spec, g, x, y, factors, sign,
                                                  "touched")
                reads = (factors if sign == "+" else factors - 1) * entries
                y_lookups += len(looked_up) - reads
                y_reuses += 2 * reads - len(looked_up)
                assert value == chain_partial_product(spec, g, x, y, cert.n_used, sign)
                for n in (1, 2, 7, 13):
                    looked_up.clear()
                    product = partial_product(spec, g, x, y, n, sign)
                    assert looked_up == chain_lookups(spec, g, x, y, n, sign, "pair")
                    assert len(looked_up) == 2 * entries * (n if sign == "+" else n - 1)
                    assert product == chain_partial_product(spec, g, x, y, n, sign)
    assert y_lookups > 0 and y_reuses > 0


ROUTE_GROUPS = ["z", "z^2", "z^2+diag", "heisenberg", "free:2", "prod(z,free:2)"]
ROUTE_TARGETS = [
    # Dyadic values keep every product exact, whatever the grouping.
    ("real_vector", lambda: (RealVector(2), [(k / 8, (3 - k) / 4) for k in range(7)])),
    ("sym3", lambda: (SYM3, list(SYM3.elements))),
]


@pytest.mark.parametrize("make_target", [case[1] for case in ROUTE_TARGETS],
                         ids=[case[0] for case in ROUTE_TARGETS])
@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_holonomy_equals_partial_product_on_every_model(name, make_target):
    """Position-sensitive window-1 maps (not cocycles; evaluation only), so a
    factor read on the wrong cells or skipped wrongly changes the value."""
    group = parse_group(name)
    metric = WordMetric(group)
    target, values = make_target()
    cells = canonical_cells(metric, 1)
    maps = {label: position_sensitive_table(target, cells, values[k:] + values[:k])
            for k, (label, _) in enumerate(group.gens)}
    spec = CocycleSpec(group, target, A, 0, maps)
    background = spec.background_config
    gens = [group.gen(label) for label in group.positive_labels]
    anchors = [gens[0], group.mul(gens[0], gens[-1])]
    rng = random.Random(44)
    pairs = [random_homoclinic_pair(group, metric, A, rng, max_radius=3)
             for _ in range(4)]
    pairs += [(x, background) for x, _ in pairs[:2]] + [(background, y) for _, y in pairs[:2]]
    cut_off = 0
    for g in anchors:
        for x, y in pairs:
            for sign in "+-":
                value, cert = holonomy(spec, g, x, y, EPS, sign)
                assert value == partial_product(spec, g, x, y, cert.n_used, sign)
                touched = touched_by_index(spec, g, sign, x.differing_cells(y),
                                           cert.n_used)
                cut_off += bool(touched) and max(touched) + 1 < cert.n_used
    assert cut_off > 0


def test_holonomy_refuses_an_unknown_sign():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(0, 0): 1})
    for y in (spec.background_config, Configuration(Z2, A, 0, {(1, 0): 1})):
        with pytest.raises(CocycleError, match="sign must be"):
            holonomy(spec, (1, 0), x, y, EPS, "*")


# -- specification decay -------------------------------------------------------------

def test_specification_decay_bound_holds():
    spec = coboundary_spec()
    rng = random.Random(17)
    params_by_R = {}
    pairs_by_R = {}
    for R in (2, 4, 6, 8):
        params = ConeParams.create(Z2, (1, 0), R, metric=METRIC,
                                   max_query_length=100)
        params_by_R[R] = params
        N = params.specification_ball_radius()
        pairs_by_R[R] = [pair_agreeing_on_ball(Z2, METRIC, A, rng, N, shell=3)
                         for _ in range(6)]
    rows = specification_decay(spec, params_by_R, pairs_by_R, EPS)
    bounds = [bound for _, _, bound in rows.values()]
    assert bounds == sorted(bounds, reverse=True)
    for observed, via_witness, bound in rows.values():
        assert observed <= bound
        assert via_witness <= bound
    # geometric decay of the bound in R
    assert bounds[-1] <= bounds[0] * (0.5 ** 5)


def test_specification_decay_identical_pairs_zero():
    spec = coboundary_spec()
    params = ConeParams.create(Z2, (1, 0), 2, metric=METRIC)
    x = Configuration(Z2, A, 0, {(20, 0): 1})
    observed, _, _ = specification_decay(spec, {2: params}, {2: [(x, x)]}, EPS)[2]
    assert observed == 0.0


def test_specification_decay_homomorphism_zero_observed():
    spec = hom_spec()
    params = ConeParams.create(Z2, (1, 0), 2, metric=METRIC,
                               max_query_length=80)
    rng = random.Random(28)
    n_spec = params.specification_ball_radius()
    pairs = [pair_agreeing_on_ball(Z2, METRIC, A, rng, n_spec, shell=3)
             for _ in range(4)]
    observed, _, bound = specification_decay(spec, {2: params}, {2: pairs}, EPS)[2]
    # constant generator maps have sharp constant 0, so both sides vanish
    assert observed == bound == 0.0


def test_specification_decay_takes_each_anchor_from_its_cone_data():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(20, 0): 1})
    bounds = [specification_decay(spec, {2: ConeParams.create(Z2, anchor, 2)},
                                  {2: [(x, x)]}, EPS)[2][2]
              for anchor in ((1, 0), (1, 1))]
    # C_g grows with the anchor's length, so the diagonal anchor's bound does.
    assert bounds[1] > bounds[0] > 0


# -- transfer maps ---------------------------------------------------------------------

def test_transfer_background_is_identity():
    spec = coboundary_spec()
    table = TransferTable(spec, (1, 0), EPS)
    value, cert = table.value(spec.background_config)
    assert value == R1.identity and cert.tail_bound == 0.0


def test_transfer_orientation_single_cell_potential():
    weights = {(0, 0): (1.0,)}
    potential = weighted_potential(Z2, METRIC, R1, 0, weights, A)
    spec = coboundary_cocycle(Z2, R1, {"x1+": (0.0,), "x2+": (0.0,)},
                              potential, A, metric=METRIC)
    x = Configuration(Z2, A, 0, {(0, 0): 1})
    value, cert = TransferTable(spec, (1, 0), EPS).value(x)
    assert abs(value[0] - (-1.0)) <= cert.tail_bound + EPS
    assert abs(value[0]) == pytest.approx(1.0, abs=1e-7)


def test_transfer_homomorphism_trivial():
    spec = hom_spec()
    rng = random.Random(18)
    table = TransferTable(spec, (1, 0), EPS)
    for x in sample_configs(rng, 5):
        value, _ = table.value(x)
        assert value == R1.identity


def test_transfer_table_refuses_where_built_an_anchor_holonomy_refuses():
    spec = coboundary_spec()
    x = Configuration(Z2, A, 0, {(0, 0): 1})
    for anchor in ((0, 0), (1, 0, 0), (1.5, 0)):  # the identity, then invalid elements
        with pytest.raises(InputError) as refused:
            holonomy(spec, anchor, x, spec.background_config, EPS)
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            TransferTable(spec, anchor, EPS)
    with pytest.raises(CocycleError, match="holonomy needs an infinite-order anchor"):
        TransferTable(spec, Z2.identity, EPS)


def test_transfer_cache_is_stable():
    spec = coboundary_spec()
    table = TransferTable(spec, (1, 0), EPS)
    x = Configuration(Z2, A, 0, {(1, 2): 1})
    first = table.value(x)
    assert table.value(x) is first


# -- untwisting roundtrips ----------------------------------------------------------

def untwist_elements():
    return [Z2.gen(lab) for lab in Z2.positive_labels]


def test_roundtrip_real_vector():
    target = RealVector(2)
    phi = {"x1+": (0.5, -0.25), "x2+": (0.125, 1.0)}
    weights = {
        (0, 0): (0.25, -0.125), (1, 0): (0.0625, 0.03125),
        (0, 1): (-0.03125, 0.0625), (-1, 0): (0.015625, 0.0),
        (1, 1): (0.0078125, -0.0078125),
    }
    potential = weighted_potential(Z2, METRIC, target, 2, weights, A)
    spec = coboundary_cocycle(Z2, target, phi, potential, A, metric=METRIC)
    rng = random.Random(19)
    samples = sample_configs(rng, 12)
    report = extract_homomorphism(TransferTable(spec, (1, 0), EPS), untwist_elements(),
                                  samples, 1e-6)
    for g in untwist_elements():
        expected = tuple(g[0] * a + g[1] * b
                         for a, b in zip(phi["x1+"], phi["x2+"]))
        assert target.dist(report.psi[g], expected) <= 1e-6
    assert report.constancy_defect <= 1e-6
    assert report.homomorphism_defect <= 2e-6
    assert report.ok


def test_roundtrip_torus():
    target = Torus(1)
    phi = {"x1+": (0.3,), "x2+": (0.7,)}
    weights = {(0, 0): (0.11,), (1, 0): (0.05,), (0, -1): (0.02,)}
    potential = weighted_potential(Z2, METRIC, target, 1, weights, A)
    spec = coboundary_cocycle(Z2, target, phi, potential, A, metric=METRIC)
    rng = random.Random(20)
    samples = sample_configs(rng, 10)
    report = extract_homomorphism(TransferTable(spec, (1, 0), EPS), untwist_elements(),
                                  samples, 1e-6)
    assert target.dist(report.psi[(1, 0)], (0.3,)) <= 1e-6
    assert target.dist(report.psi[(0, 1)], (0.7,)) <= 1e-6
    assert report.ok


def test_roundtrip_cyclic_exact():
    target = CyclicGroup(5)
    phi = {"x1+": 2, "x2+": 3}
    weights = {(0, 0): 1, (1, 0): 3, (0, 1): 2}
    potential = weighted_potential(Z2, METRIC, target, 1, weights, A)
    spec = coboundary_cocycle(Z2, target, phi, potential, A, metric=METRIC)
    rng = random.Random(21)
    samples = sample_configs(rng, 10)
    report = extract_homomorphism(TransferTable(spec, (1, 0), EPS), untwist_elements(),
                                  samples, 0.25)
    assert report.psi[(1, 0)] == 2
    assert report.psi[(0, 1)] == 3
    assert report.constancy_defect == 0.0
    assert report.homomorphism_defect == 0.0


def test_roundtrip_plain_homomorphism_exact():
    spec = hom_spec()
    rng = random.Random(26)
    report = extract_homomorphism(TransferTable(spec, (1, 0), EPS), untwist_elements(),
                                  sample_configs(rng, 8), 1e-6)
    assert report.psi[(1, 0)] == PHI_R1["x1+"]
    assert report.psi[(0, 1)] == PHI_R1["x2+"]
    assert report.constancy_defect == 0.0
    assert report.homomorphism_defect == 0.0


def test_corrupted_spec_fails_verification():
    spec = corrupted_spec(coboundary_spec(), "x1+", 0, (7.0,))
    samples = [Configuration(Z2, A, 0, {}),
               Configuration(Z2, A, 0, {(0, 0): 1}),
               Configuration(Z2, A, 0, {(3, 1): 1})]
    assert relation_consistency(spec, samples) > 0.0
    with pytest.raises(VerificationError):
        extract_homomorphism(TransferTable(spec, (1, 0), EPS), untwist_elements(),
                             samples, 1e-6)


# -- transfer-map modulus -------------------------------------------------------------

def pairs_by_agreement(rng, radii, count=8, shell=3):
    return {N: [pair_agreeing_on_ball(Z2, METRIC, A, rng, N, shell=shell)
                for _ in range(count)]
            for N in radii}


def test_holder_modulus_homomorphism_degenerate_fit():
    spec = hom_spec()
    transfer = TransferTable(spec, (1, 0), EPS)
    rng = random.Random(27)
    rows, rate = holder_modulus(transfer, pairs_by_agreement(rng, (0, 1, 2), count=4))
    assert all(d == 0.0 for d in rows.values())
    assert rate == 0.0


def test_holder_modulus_window1_vanishes_beyond_window():
    potential = window1_potential()
    spec = coboundary_spec(potential=potential)
    transfer = TransferTable(spec, (1, 0), EPS)
    rng = random.Random(22)
    rows, rate = holder_modulus(transfer, pairs_by_agreement(rng, (0, 1, 2, 3)))
    assert rows[0] > 1e-3
    for N in (1, 2, 3):
        assert rows[N] <= 2 * EPS
    assert rate <= spec.rate


def test_holder_modulus_deep_potential():
    rng = random.Random(23)
    alpha = 0.25
    ball3 = METRIC.ball(3)
    weights = {}
    for cell in sorted(ball3.lengths, key=lambda c: (ball3.lengths[c], str(c))):
        if ball3.lengths[cell] <= 3:
            weights[cell] = (alpha ** ball3.lengths[cell] * (0.5 + rng.random()),)
    potential = weighted_potential(Z2, METRIC, R1, 3, weights, A)
    spec = coboundary_cocycle(Z2, R1, {"x1+": (0.0,), "x2+": (0.0,)},
                              potential, A, metric=METRIC)
    transfer = TransferTable(spec, (1, 0), EPS)
    rows, rate = holder_modulus(transfer, pairs_by_agreement(rng, (0, 1, 2, 3, 4)))
    for N in (0, 1, 2):
        assert rows[N] > 2 * EPS
    for N in (3, 4):
        assert rows[N] <= 2 * EPS
    assert rate <= spec.rate


# -- serialisation -------------------------------------------------------------------

def test_spec_json_roundtrip():
    spec = coboundary_spec()
    payload = cocycle_spec_to_jsonable(spec)
    rebuilt = cocycle_spec_from_jsonable(payload)
    rng = random.Random(24)
    for x in sample_configs(rng, 5):
        for g in ((1, 0), (0, 1), (2, -1)):
            assert R1.dist(rebuilt.evaluate(g, x), spec.evaluate(g, x)) == 0.0


def test_spec_json_roundtrip_discrete():
    target = CyclicGroup(5)
    weights = {(0, 0): 1, (1, 0): 2}
    potential = weighted_potential(Z2, METRIC, target, 1, weights, A)
    spec = coboundary_cocycle(Z2, target, {"x1+": 2, "x2+": 3}, potential, A,
                              metric=METRIC)
    rebuilt = cocycle_spec_from_jsonable(cocycle_spec_to_jsonable(spec))
    rng = random.Random(25)
    for x in sample_configs(rng, 5):
        assert rebuilt.evaluate((1, 1), x) == spec.evaluate((1, 1), x)


def test_spec_json_roundtrip_keeps_a_klein_target_named_cyclic():
    klein = FiniteGroup(range(4), {(a, b): a ^ b for a in range(4) for b in range(4)},
                        0, name="cyclic(4)")
    spec = homomorphism_cocycle(Z2, klein, {"x1+": 1, "x2+": 2}, A)
    rebuilt = cocycle_spec_from_jsonable(cocycle_spec_to_jsonable(spec))
    x = Configuration(Z2, A, 0, {})
    assert spec.evaluate((2, 0), x) == rebuilt.evaluate((2, 0), x) == 0  # 1 * 1 in Z/2 x Z/2
    assert rebuilt.evaluate((1, 1), x) == 3

def test_coboundary_of_a_table_missing_a_pattern_is_cocycle_error():
    potential = BlockMap(R1, [(0, 0)], 0, table={(0,): (0.0,)})
    with pytest.raises(CocycleError, match="missing from table"):
        coboundary_cocycle(Z2, R1, PHI_R1, potential, A, metric=METRIC)


def test_table_values_are_validated_where_the_table_enters():
    with pytest.raises(TargetError, match=r"pattern \[1\].*finite numbers.*nan"):
        BlockMap(R1, [(0, 0)], 0, table={(0,): (0.0,), (1,): (math.nan,)})
    with pytest.raises(TargetError, match=r"pattern \[0\].*length-1"):
        BlockMap(R1, [(0, 0)], 0, table={(0,): (0.0, 1.0), (1,): (0.0,)})
    with pytest.raises(TargetError, match=r"pattern \[0\].*7"):
        BlockMap(CyclicGroup(5), [(0, 0)], 0, table={(0,): 7})


@pytest.mark.parametrize("bound", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_block_map_refuses_a_negative_or_non_finite_diameter_bound(bound):
    # The bound scales every continuity constant and so every tail bound: at
    # -1.0, function-backed maps on z^2 gave holonomy a certificate with a
    # negative tail bound.
    with pytest.raises(CocycleError, match=rf"diameter_bound must be finite and >= 0, "
                                           rf"got {re.escape(str(bound))}"):
        BlockMap(R1, [(0, 0)], 0, fn=lambda pattern: (0.0,), diameter_bound=bound)
    with pytest.raises(CocycleError, match="diameter_bound"):
        BlockMap(R1, [(0, 0)], 0, table={(0,): (0.0,), (1,): (0.0,)},
                 diameter_bound=bound)
    assert BlockMap(R1, [(0, 0)], 0, fn=lambda pattern: (0.0,),
                    diameter_bound=0.0).diameter_bound == 0.0


def test_spec_refuses_maps_for_labels_the_group_lacks():
    maps = dict(hom_spec().maps)
    maps["diag+"] = maps["x1+"]
    with pytest.raises(CocycleError, match=r"z\^2 does not have: \['diag\+'\]"):
        CocycleSpec(Z2, R1, A, 0, maps)


def test_spec_from_jsonable_refuses_another_group():
    payload = cocycle_spec_to_jsonable(hom_spec())
    with pytest.raises(CocycleError, match=r"spec is over z\^2, not z\^2\+diag"):
        cocycle_spec_from_jsonable(payload, IntegerLattice(2, diagonal=True))
    assert cocycle_spec_from_jsonable(payload, IntegerLattice(2)).group.name == "z^2"


def test_cell_outside_the_declared_window_is_cocycle_error():
    # Cells of length 1 declared as window 0 would halve the continuity
    # constant and understate every tail bound.
    payload = cocycle_spec_to_jsonable(coboundary_spec())
    payload["generators"][0]["window"] = 0
    with pytest.raises(CocycleError,
                       match=r"'x1\+'.*cell \(-1,0\) has length 1.*window 0"):
        cocycle_spec_from_jsonable(payload)
    maps = dict(hom_spec().maps)
    maps["x2-"] = BlockMap(R1, [(0, 0), (2, 1)], 2,
                           table={(a, b): (0.0,) for a in A for b in A})
    with pytest.raises(CocycleError,
                       match=r"'x2-'.*cell \(2,1\) has length 3.*window 2"):
        CocycleSpec(Z2, R1, A, 0, maps)
