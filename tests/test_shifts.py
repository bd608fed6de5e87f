import json
import os
import random
import re
from collections import Counter

import pytest

from untwist import (
    ConeParams,
    Configuration,
    ContractError,
    DiscreteHeisenberg,
    FullShift,
    GoldenMean,
    GroupError,
    IntegerLattice,
    OutOfRange,
    WordMetric,
    default_specification_constants,
    RealVector,
    glue,
    holonomy,
    homomorphism_cocycle,
    membership_check,
    parse_group,
)
from untwist.cli import main
from untwist.invariants import build_profile
from untwist.sampling import random_configuration

from homoclinic import (cell_pool, homoclinic_agreement_radius, pair_agreeing_on_ball,
                        random_homoclinic_pair)
from oracles import (ball_lengths, cone_cells, cone_walk, free_ball, free_inv, free_mul,
                     golden_mean_member, heisenberg_inv, heisenberg_lengths, heisenberg_mul,
                     l1_ball, l1_length, z2_inv, z2_mul)

Z2 = IntegerLattice(2)
METRIC = WordMetric(Z2)
A = (0, 1)
A3 = (0, 1, 2)


def cfg(support, alphabet=A):
    return Configuration(Z2, alphabet, 0, support)


# -- configurations and the shift action --------------------------------------

def test_background_entries_are_dropped():
    x = cfg({(1, 0): 1, (2, 2): 0})
    assert x.support == {(1, 0): 1}
    assert x.symbol_at((2, 2)) == 0


def test_symbols_validated():
    with pytest.raises(ContractError):
        cfg({(0, 0): 7})
    with pytest.raises(ContractError):
        Configuration(Z2, A, 9, {})


def test_a_cell_listed_twice_is_refused():
    obj = {"alphabet": [0, 1], "background": 0,
           "support": [["(-11,4)", 1], ["(2,0)", 1], ["(-11, 4)", 0]]}
    with pytest.raises(ContractError, match=re.escape("cell (-11,4) is listed twice")):
        Configuration.from_jsonable(Z2, obj)
    obj["support"].pop()
    assert Configuration.from_jsonable(Z2, obj).support == {(-11, 4): 1, (2, 0): 1}


def test_shift_by_identity_and_background_fixed():
    x = cfg({(0, 0): 1, (3, -1): 1})
    assert x.translate((0, 0)) == x
    xbar = Configuration(Z2, A, 0, {})
    assert xbar.translate((5, 7)) == xbar


def test_shift_convention():
    x = cfg({(0, 0): 1})
    assert x.translate((1, 0)).support == {(1, 0): 1}
    # value at k after shifting by h is the value at h^-1 k
    y = x.translate((2, 3))
    assert y.symbol_at((2, 3)) == 1
    assert y.symbol_at((0, 0)) == 0


def test_homoclinic_radius():
    x = cfg({(2, 3): 1})
    y = cfg({})
    assert homoclinic_agreement_radius(x, y) == 5
    assert homoclinic_agreement_radius(x, x) == 0
    z = cfg({(2, 3): 1, (7, 0): 1})
    assert homoclinic_agreement_radius(x, z) == 7


def test_homoclinic_radius_differing_symbols_on_shared_cell():
    x = Configuration(Z2, A3, 0, {(1, 1): 1})
    y = Configuration(Z2, A3, 0, {(1, 1): 2})
    assert homoclinic_agreement_radius(x, y) == 2


@pytest.mark.parametrize("descriptor", ["z^2", "heisenberg"])
def test_holonomy_certificate_agreement_radius_is_the_oracle(descriptor):
    # holonomy reads the radius inline from the differing cells.
    group = parse_group(descriptor)
    metric = WordMetric(group)
    phi = {label: (0.25 * (k + 1),) for k, label in enumerate(group.positive_labels)}
    spec = homomorphism_cocycle(group, RealVector(1), phi, A)
    anchor = group.gen(group.positive_labels[0])
    rng = random.Random(31)
    pairs = [random_homoclinic_pair(group, metric, A, rng, radius, 2)
             for radius in range(1, 7) for _ in range(2)]
    pairs.append((pairs[0][0], pairs[0][0]))
    for x, y in pairs:
        cert = holonomy(spec, anchor, x, y)[1]
        assert cert.agreement_radius == homoclinic_agreement_radius(x, y)


@pytest.mark.parametrize("descriptor", ["z^2", "heisenberg", "free:2"])
def test_translate_matches_checked_construction(descriptor, monkeypatch):
    group = parse_group(descriptor)
    metric = WordMetric(group)
    rng = random.Random(13)
    shifts = list(metric.ball(3).order)

    def refuse(a):
        raise AssertionError("translate re-validated a cell")

    for _ in range(8):
        x = random_configuration(group, cell_pool(metric, 4), A3, rng, 5)
        h = shifts[rng.randrange(len(shifts))]
        expected = Configuration(group, x.alphabet, x.background,
                                 {group.mul(h, c): s for c, s in x.support.items()})
        with monkeypatch.context() as patch:
            patch.setattr(group, "validate", refuse)
            y = x.translate(h)
        assert y == expected and hash(y) == hash(expected)
        with pytest.raises(AttributeError):
            y.support = {}


def test_shift_equivariance_inequality():
    rng = random.Random(4)
    cells = cell_pool(METRIC, 6)
    for _ in range(30):
        x = random_configuration(Z2, cells, A, rng, 3)
        y = random_configuration(Z2, cells, A, rng, 3)
        h = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        lhs = homoclinic_agreement_radius(x.translate(h), y.translate(h))
        assert lhs <= homoclinic_agreement_radius(x, y) + METRIC.length(h)


def test_any_pattern_on_ball_realizable():
    # finite-support points are dense: any ball pattern is realised by one
    ball = METRIC.ball(2)
    rng = random.Random(9)
    cells = list(ball.order)
    for _ in range(20):
        pattern = {c: rng.choice(A) for c in cells}
        x = cfg({c: s for c, s in pattern.items() if s != 0})
        assert all(x.symbol_at(c) == pattern[c] for c in cells)


# -- cones ---------------------------------------------------------------------

def make_params(R, anchor=(1, 0), s=1.0, t=0.0, L=64):
    return ConeParams.create(Z2, anchor, R, s, t, METRIC, max_query_length=L)


def test_identity_in_both_cones():
    params = make_params(0)
    assert params.cone_contains((0, 0), "+")
    assert params.cone_contains((0, 0), "-")


def test_axis_in_plus_cone():
    params = make_params(0)
    for j in range(12):
        assert params.cone_contains((j, 0), "+")
    assert not params.cone_contains((-1, 0), "+")
    assert params.cone_contains((-1, 0), "-")


def test_cone_intersection_within_bound_exhaustive():
    for R in (0, 1, 2, 4):
        params = make_params(R, L=40)
        bound = params.overlap_window_bound()
        table = METRIC.ball(20)
        for g in table.order:
            if table.lengths[g] > 20:
                continue
            if params.cone_contains(g, "+") and params.cone_contains(g, "-"):
                assert METRIC.length(g) <= bound
        # the bound equals l(a) * rho_inverse(4R) + 2R
        assert bound == params.profile.rho_inverse(4 * R) + 2 * R


def test_spec_ball_radius_full_shift():
    # rho(j) = j for the axis anchor, so N = 4R + 2R
    for R in (0, 1, 2, 4):
        params = make_params(R)
        assert params.specification_ball_radius() == 6 * R


def test_heisenberg_central_cone_needs_an_explicit_profile():
    heis = DiscreteHeisenberg()
    with pytest.raises(ContractError, match=r"anchor \(0,0,1\) has no linear certified"):
        ConeParams.create(heis, (0, 0, 1), 1)  # central anchor: no linear bound
    params = ConeParams(build_profile(heis, (0, 0, 1), 10), 0, 1.0, 0.0)
    assert params.cone_contains((0, 0, 0), "+")


def test_cone_profile_radius_past_the_element_budget_is_refused(monkeypatch):
    import untwist.shifts as shifts

    # Axis anchor, R = 4, queries to 64: the profile radius is
    # max(4R + 2, (4 * (64 + R)) // 3 + 2, 4) = 92.
    monkeypatch.setattr(shifts, "DEFAULT_METRIC_BUDGET", 92)
    assert make_params(4).profile.radius == 92
    monkeypatch.setattr(shifts, "DEFAULT_METRIC_BUDGET", 91)
    with pytest.raises(ContractError, match="^R = 4 and max_query_length = 64 need a "
                       "compression profile of radius 92, past the budget of 91 elements$"):
        make_params(4)


def z2_cone_oracle(region, anchor, sign, R):
    step = anchor if sign == "+" else (-anchor[0], -anchor[1])
    j_max = 2 * (max(map(l1_length, region)) + R) + 2
    return cone_cells(region, step, R, j_max, z2_mul, l1_length, l1_ball)


@pytest.mark.parametrize("anchor", [(1, 0), (1, 1), (2, -1)])
@pytest.mark.parametrize("R", [0, 1, 2, 4])
def test_z2_cone_membership_matches_oracle(anchor, R):
    region = l1_ball(10)
    params = make_params(R, anchor=anchor, L=10)
    for sign in "+-":
        inside = z2_cone_oracle(region, anchor, sign, R)
        assert {c for c in region if params.cone_contains(c, sign)} == inside


@pytest.mark.parametrize("R", [0, 1, 2])
def test_heisenberg_cone_membership_matches_oracle(R):
    heis = DiscreteHeisenberg()
    anchor = heis.parse_elem("a")
    lengths = heisenberg_lengths(12)
    region = [g for g, d in lengths.items() if d <= 5]
    params = ConeParams.create(heis, anchor, R, metric=WordMetric(heis),
                               max_query_length=5)

    def ball(m):
        return [g for g, d in lengths.items() if d <= m]

    for sign, step in (("+", anchor), ("-", heisenberg_inv(anchor))):
        inside = cone_cells(region, step, R, 12, heisenberg_mul, lengths.__getitem__, ball)
        assert {c for c in region if params.cone_contains(c, sign)} == inside


@pytest.mark.parametrize("word", ["a", "ab"])
@pytest.mark.parametrize("R", [0, 2])
def test_free_group_cone_membership_matches_oracle(word, R):
    free = parse_group("free:2")
    anchor = free.parse_elem(word)
    region = free_ball(2, 4)
    params = ConeParams.create(free, anchor, R, metric=WordMetric(free),
                               max_query_length=4)
    for sign, step in (("+", anchor), ("-", free.inv(anchor))):
        inside = cone_cells(region, step, R, 10, free_mul, len,
                            lambda m: free_ball(2, m))
        assert {c for c in region if params.cone_contains(c, sign)} == inside


@pytest.mark.parametrize("anchor", [(1, 0), (2, -1)])
@pytest.mark.parametrize("R", [0, 3])
def test_z2_cone_walk_matches_full_walk_on_random_cells(anchor, R):
    """The walk may stop early; on random cells out to the query length it
    agrees with the walk through every piece, hit or miss."""
    rng = random.Random(31)
    params = make_params(R, anchor=anchor, L=40)
    j_max = 4 * (40 + R) // (3 * l1_length(anchor)) + 1
    seen = set()
    for _ in range(200):
        x = rng.randint(-40, 40)
        cell = (x, rng.randint(abs(x) - 40, 40 - abs(x)))
        for sign, step_inv in (("+", (-anchor[0], -anchor[1])), ("-", anchor)):
            expected = cone_walk(cell, step_inv, R, j_max, z2_mul, l1_length)
            assert params.cone_contains(cell, sign) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_heisenberg_cone_walk_matches_full_walk_on_random_cells():
    heis = DiscreteHeisenberg()
    lengths = heisenberg_lengths(14)
    rng = random.Random(37)
    cells = rng.sample(sorted(g for g, d in lengths.items() if d <= 5), 150)
    for word in ("a", "b"):
        anchor = heis.parse_elem(word)
        for R in (0, 2):
            params = ConeParams.create(heis, anchor, R, metric=WordMetric(heis),
                                       max_query_length=5)
            for sign, step_inv in (("+", heisenberg_inv(anchor)), ("-", anchor)):
                hits = [params.cone_contains(c, sign) for c in cells]
                assert hits == [cone_walk(c, step_inv, R, 12, heisenberg_mul,
                                          lambda g: lengths.get(g, 15)) for c in cells]
                assert any(hits) and not all(hits)


def walk_model(name):
    """(anchors, mul, inv, length, cells) of a raw-tuple model of the named
    group: cells lists the ball B(5).  Tabled lengths are exact out to the
    powers a^j for j <= 11 and to every piece radius; a longer element reads
    one more than the table radius, a lower bound, so it is never a hit."""
    if name == "free:2":
        return [(1,), (1, 2)], free_mul, free_inv, len, free_ball(2, 5)
    if name == "z":
        return ([(1,), (2,)], lambda p, q: (p[0] + q[0],), lambda p: (-p[0],),
                lambda p: abs(p[0]), [(i,) for i in range(-5, 6)])
    if name == "z^2+diag":
        gens = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        lengths = ball_lengths((0, 0), gens, z2_mul, 26)
        return ([(1, 0), (1, 1), (1, -1)], z2_mul, z2_inv,
                lambda g: lengths.get(g, 27), [g for g, d in lengths.items() if d <= 5])
    heis = heisenberg_lengths(14)  # prod(z,heisenberg)

    def mul(p, q):
        return (p[0][0] + q[0][0],), heisenberg_mul(p[1], q[1])

    return ([((1,), (0, 0, 0)), ((0,), (1, 0, 0)), ((1,), (0, 1, 0))], mul,
            lambda p: ((-p[0][0],), heisenberg_inv(p[1])),
            lambda p: abs(p[0][0]) + heis.get(p[1], 15),
            [((n,), h) for n in range(-5, 6) for h, d in heis.items() if abs(n) + d <= 5])


@pytest.mark.parametrize("name", ["free:2", "z^2+diag", "z", "prod(z,heisenberg)"])
def test_cone_walk_matches_full_walk_on_more_models(name):
    """The walk jumps past pieces it cannot reach; on random cells of B(5)
    it agrees with the raw walk through every piece, hit or miss."""
    group = parse_group(name)
    anchors, mul, inv, length, cells = walk_model(name)
    rng = random.Random(43)
    cells = rng.sample(sorted(cells), min(150, len(cells)))
    seen = set()
    for anchor in anchors:
        for R in (0, 2):
            params = ConeParams.create(group, anchor, R, metric=WordMetric(group),
                                       max_query_length=5)
            j_max = 4 * (5 + R) // 3 + 2
            for sign, step_inv in (("+", inv(anchor)), ("-", anchor)):
                hits = [params.cone_contains(c, sign) for c in cells]
                assert hits == [cone_walk(c, step_inv, R, j_max, mul, length)
                                for c in cells]
                seen.update(hits)
    assert seen == {True, False}


def test_cone_walk_jumps_past_pieces_it_cannot_reach(monkeypatch):
    params = make_params(4)
    reads = []
    exact_length = Z2.exact_length
    monkeypatch.setattr(Z2, "exact_length", lambda g: reads.append(g) or exact_length(g))
    # (-20,0) reads l = 20 on entry.  Pieces 1..12 lie out of reach at one
    # unit of l per step; at step 13 the point (-33,0) is too far for every
    # piece up to the last one the compression bound leaves, 32.  A walk one
    # step at a time reads 15 lengths here.
    assert not params.cone_contains((-20, 0), "+")
    assert reads == [(-20, 0), (-33, 0)]
    # (-10,5): the read at step 9 gives l = 24, which still leaves pieces 24
    # and 25 in reach by that bound, so a third read settles it.
    reads.clear()
    assert not params.cone_contains((-10, 5), "+")
    assert len(reads) == 3
    reads.clear()
    assert params.cone_contains((-10, 5), "-")  # a^9 (-10,5) = (-1,5) is in piece 9
    assert reads == [(-10, 5), (-1, 5)]


def test_cone_walk_past_the_profile_raises_unless_it_hits_a_piece_first():
    params = make_params(0, L=10)
    assert params.profile.j_max == 15
    # (40,0) meets no piece up to j_max = 15 and 3*L(16) <= 4*40.
    with pytest.raises(OutOfRange):
        params.cone_contains((40, 0), "+")
    # (12,1) reaches past j_max too, but a^-12*(12,1) = (0,1) lies in piece 12.
    assert params.cone_contains((12, 1), "+")
    assert not params.cone_contains((3, 0), "-")


@pytest.mark.parametrize("group, region", [
    (DiscreteHeisenberg(), list(heisenberg_lengths(4))),
    (parse_group("free:2"), free_ball(2, 4)),
], ids=["heisenberg", "free:2"])
def test_cone_queries_grow_no_table_past_create(group, region):
    # Profiles and walks read closed-form lengths: no table at all.
    metric = WordMetric(group)
    params = ConeParams.create(group, group.gens[0][1], 1, metric=metric,
                               max_query_length=4)
    for g in region:
        params.cone_contains(g, "+")
        params.cone_contains(g, "-")
    assert metric._table is None


def test_cone_reads_group_and_anchor_from_its_profile():
    profile = build_profile(Z2, (3, 0), 40)
    params = ConeParams(profile, 2, 1.0, 0.0)
    assert params.group is Z2 and params.anchor == (3, 0)
    assert params.cone_contains((5, 0), "+")


# -- gluing ----------------------------------------------------------------------

def test_glue_identical_inputs():
    params = make_params(2)
    x = cfg({(4, 0): 1, (-4, 0): 1})
    result = glue(x, x, params)
    for cell in list(x.support) + [(0, 0), (9, 9)]:
        in_plus = params.cone_contains(cell, "+")
        in_minus = params.cone_contains(cell, "-")
        if in_plus:
            assert result.y.symbol_at(cell) == x.symbol_at(cell)
        if in_minus:
            assert result.y.symbol_at(cell) == x.symbol_at(cell)
        if not in_plus and not in_minus:
            assert result.y.symbol_at(cell) == 0


def test_glue_backgrounds():
    params = make_params(2)
    xbar = Configuration(Z2, A, 0, {})
    assert glue(xbar, xbar, params).y == xbar


def test_glue_spec_example():
    params = make_params(2)
    x = cfg({(5, 0): 1})
    xp = cfg({(-5, 0): 1})
    result = glue(x, xp, params)
    assert result.y.symbol_at((5, 0)) == 1
    assert result.y.symbol_at((-5, 0)) == 1
    assert result.plus_agrees and result.minus_agrees


def test_glue_rejects_overlap_disagreement():
    params = make_params(0)
    x = cfg({(0, 0): 1})
    xp = cfg({})
    with pytest.raises(ContractError):
        glue(x, xp, params)


def test_glue_accepts_pairs_agreeing_on_spec_ball():
    rng = random.Random(13)
    for R in (0, 2, 4):
        params = make_params(R, L=80)
        N = params.specification_ball_radius()
        for _ in range(15):
            x, xp = pair_agreeing_on_ball(Z2, METRIC, A, rng, N, shell=4)
            result = glue(x, xp, params)
            for cell in x.differing_cells(result.y):
                assert not params.cone_contains(cell, "+")
            for cell in xp.differing_cells(result.y):
                assert not params.cone_contains(cell, "-")


def test_glue_matches_oracle_splice():
    rng = random.Random(31)
    for R in (0, 2, 4):
        params = make_params(R, L=80)
        N = params.specification_ball_radius()
        for _ in range(10):
            x, xp = pair_agreeing_on_ball(Z2, METRIC, A, rng, N, shell=6)
            region = set(x.support) | set(xp.support)
            plus = z2_cone_oracle(region, (1, 0), "+", R)
            minus = z2_cone_oracle(region, (1, 0), "-", R)
            expected = {c: x.symbol_at(c) for c in plus}
            expected.update({c: xp.symbol_at(c) for c in minus - plus})
            assert glue(x, xp, params).y == cfg(expected)


def test_glue_asks_each_cone_once_per_support_cell(monkeypatch):
    calls = []
    original = ConeParams.cone_contains

    def counted(self, k, sign):
        calls.append((k, sign))
        return original(self, k, sign)

    monkeypatch.setattr(ConeParams, "cone_contains", counted)
    rng = random.Random(5)
    params = make_params(2, L=80)
    for _ in range(5):
        x, xp = pair_agreeing_on_ball(Z2, METRIC, A, rng,
                                      params.specification_ball_radius())
        calls.clear()
        glue(x, xp, params)
        assert len(calls) <= 2 * len(set(x.support) | set(xp.support))


def test_golden_glue_validates_each_cell_once_per_configuration(tmp_path, monkeypatch):
    # Configuration validates its cells as it is built; the cone walk trusts
    # them.  The anchor and the family cells are read from the task besides,
    # so they are left out.
    path = os.path.join(os.path.dirname(__file__), "golden", "glue_z2_task.json")
    with open(path, "r", encoding="utf-8") as fh:
        task = json.load(fh)
    validated = Counter()
    validate = IntegerLattice.validate
    monkeypatch.setattr(IntegerLattice, "validate",
                        lambda self, a: validated.update([a]) or validate(self, a))
    assert main(["subshift", "glue", "--group", "z^2", "--spec", path,
                 "--out", str(tmp_path / "glue.json")]) == 0
    listed = Counter(Z2.parse_elem(cell) for name in ("x", "x_prime")
                     for cell, _ in task[name]["support"])
    read_besides = {Z2.parse_elem(task["anchor"])} | {
        Z2.parse_elem(f) for family in task["subshift"]["families"] for f in family}
    assert len(listed) > 50 and set(listed) - read_besides
    for cell, count in listed.items():
        if cell not in read_besides:
            assert validated[cell] == count, cell


def test_glue_refuses_inputs_from_other_groups_or_shift_spaces():
    params = make_params(2)
    x = cfg({(5, 0): 1})
    other_group = Configuration(IntegerLattice(2), A, 0, {(-5, 0): 1})
    with pytest.raises(ContractError, match="different groups"):
        glue(x, other_group, params)
    with pytest.raises(ContractError, match="different groups"):
        glue(other_group, x, params)
    with pytest.raises(ContractError, match="different shift spaces"):
        glue(x, cfg({(-5, 0): 1}, alphabet=A3), params)


def test_glue_overlap_error_names_the_least_disagreeing_cell():
    params = make_params(2)
    cells = l1_ball(4) + [(20, 0)]
    overlap = [c for c in cells
               if params.cone_contains(c, "+") and params.cone_contains(c, "-")]
    assert len(overlap) >= 2 and (20, 0) not in overlap
    least = min(overlap, key=Z2.format_elem)
    with pytest.raises(ContractError, match=f"disagree at {re.escape(Z2.format_elem(least))} "):
        glue(cfg(dict.fromkeys(cells, 1)), cfg({}), params)


def test_glue_output_is_finitely_supported_and_composed():
    params = make_params(2)
    x = cfg({(6, 1): 1, (0, 9): 1})
    xp = cfg({(-7, 0): 1, (0, -9): 1})
    y = glue(x, xp, params).y
    assert set(y.support) <= set(x.support) | set(xp.support)


# -- subshift membership ----------------------------------------------------------

F_HORIZ = ((0, 0), (1, 0))
F_VERT = ((0, 0), (0, 1))
GM = GoldenMean(A, (F_HORIZ, F_VERT))


def test_full_shift_always_member():
    assert membership_check(cfg({(0, 0): 1, (1, 0): 1}), FullShift(A))


def test_background_always_member():
    assert membership_check(Configuration(Z2, A, 0, {}), GM)


def test_adjacent_ones_rejected():
    assert not membership_check(cfg({(0, 0): 1, (1, 0): 1}), GM)
    assert not membership_check(cfg({(3, 3): 1, (3, 4): 1}), GM)


def test_single_one_accepted():
    assert membership_check(cfg({(0, 0): 1}), GM)
    assert membership_check(cfg({(0, 0): 1, (2, 0): 1, (1, 1): 1}), GM)


@pytest.mark.parametrize("name, mul, inv", [
    ("z^2", z2_mul, z2_inv),
    ("heisenberg", heisenberg_mul, heisenberg_inv),
    ("free:2", free_mul, free_inv),
    ("z^2+diag", z2_mul, z2_inv),
])
def test_membership_matches_brute_force_oracle(name, mul, inv):
    """membership_check checks one cell per family; the oracle checks every
    centre in support*F^-1 over all family cells."""
    group = parse_group(name)
    rng = random.Random(47)
    gens = [g for _, g in group.gens]
    near = [group.identity, *gens, *(group.mul(a, b) for a in gens for b in gens)]
    seen, singles = set(), set()
    for _ in range(150):
        families = [tuple(rng.sample(near, rng.choice((1, 2, 2, 3))))
                    for _ in range(rng.randint(1, 3))]
        support = {group.draw(2, rng): rng.choice((1, 2))
                   for _ in range(rng.randint(0, 8))}
        x = Configuration(group, A3, 0, support)
        shift = GoldenMean(A3, families)
        expected = golden_mean_member(x.support, families, mul, inv)
        assert membership_check(x, shift) is expected
        seen.add(expected)
        if any(len(f) == 1 for f in families):
            singles.add(expected)
    assert seen == singles == {True, False}


def test_membership_refuses_malformed_family_or_window_elements():
    x = cfg({(0, 0): 1})
    with pytest.raises(GroupError):
        membership_check(x, GoldenMean(A, (((0, 0), (1, 0, 0)),)))


def test_membership_background_zero_required():
    x = Configuration(Z2, A, 1, {(0, 0): 0})
    with pytest.raises(ContractError):
        membership_check(x, GM)


def test_specification_constants():
    s, t = default_specification_constants(FullShift(A), METRIC)
    assert (s, t) == (1.0, 0.0)
    s, t = default_specification_constants(GM, METRIC)
    assert (s, t) == (1.0, 2.0)


def sample_golden_mean_config(rng, cells_pool, tries=60):
    while True:
        support = {}
        for cell in rng.sample(cells_pool, min(4, len(cells_pool))):
            support[cell] = 1
        x = cfg(support)
        if membership_check(x, GM):
            return x


def test_gluing_preserves_golden_mean_membership():
    rng = random.Random(23)
    table = METRIC.ball(30)
    for R in (2, 4):
        s, t = default_specification_constants(GM, METRIC)
        params = make_params(R, s=s, t=t, L=80)
        N = params.specification_ball_radius()
        inner = [g for g in table.order if table.lengths[g] <= N]
        outer = [g for g in table.order if N < table.lengths[g] <= N + 5]
        for _ in range(20):
            core = sample_golden_mean_config(rng, inner)
            x_extra = sample_golden_mean_config(rng, outer)
            xp_extra = sample_golden_mean_config(rng, outer)
            x = cfg({**core.support, **x_extra.support})
            xp = cfg({**core.support, **xp_extra.support})
            if not (membership_check(x, GM) and membership_check(xp, GM)):
                continue
            y = glue(x, xp, params).y
            assert membership_check(y, GM)
