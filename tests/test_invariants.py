import math

import pytest

from untwist import (
    DiscreteHeisenberg,
    GroupError,
    InfiniteCyclic,
    IntegerLattice,
    OutOfRange,
    WordMetric,
    build_profile,
    parse_group,
    sdt_partial_sum,
)

from oracles import heisenberg_lengths, heisenberg_power
from paper_checks import conjugation_compression_check

Z2 = IntegerLattice(2)
HEIS = DiscreteHeisenberg()
Z = InfiniteCyclic()


# -- power length tables -------------------------------------------------------

def test_z2_generator_power_lengths():
    profile = build_profile(Z2, (1, 0), 10)
    assert profile.entries == tuple((j, j) for j in range(1, 11))


def test_z2_diagonal_power_lengths():
    profile = build_profile(Z2, (1, 1), 10)
    assert profile.entries == tuple((j, 2 * j) for j in range(1, 6))


def test_heisenberg_central_power_lengths_match_oracle():
    oracle = heisenberg_lengths(8)
    profile = build_profile(HEIS, (0, 0, 1), 8)
    expected = []
    j = 1
    while True:
        length = oracle.get(heisenberg_power((0, 0, 1), j))
        if length is None and j > 64:
            break
        if length is not None:
            expected.append((j, length))
        j += 1
    assert list(profile.entries) == expected
    assert (1, 4) in profile.entries
    assert (2, 6) in profile.entries
    assert (4, 8) in profile.entries


def test_power_lengths_ignore_a_table_grown_past_the_radius():
    grown = WordMetric(HEIS)
    grown.table(12)
    for g in [(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 2)]:
        fresh = build_profile(HEIS, g, 8)
        assert build_profile(grown.group, g, 8).entries == fresh.entries


def test_power_lengths_rejects_identity():
    with pytest.raises(GroupError):
        build_profile(Z2, (0, 0), 5)


def test_power_lengths_radius_too_small():
    with pytest.raises(OutOfRange):
        build_profile(HEIS, (0, 0, 1), 2)


def test_profile_reads_the_declared_bound_once(monkeypatch):
    group = IntegerLattice(2)
    original = group.compression_lower_bound
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(group, "compression_lower_bound", counted)
    profile = build_profile(group, (2, 1), 12)
    profile.translation_data()
    assert calls == [(2, 1)]
    assert profile.group is group and profile.g == (2, 1) and profile.radius == 12


# -- distortion / compression ---------------------------------------------------

def test_z2_distortion_is_floor():
    profile = build_profile(Z2, (1, 0), 10)
    for x in range(11):
        assert profile.distortion(x) == x
    assert profile.distortion(7.9) == 7


def test_heisenberg_distortion_facts():
    profile = build_profile(HEIS, (0, 0, 1), 8)
    assert profile.distortion(8) >= 4
    assert profile.distortion(4) == 1
    with pytest.raises(OutOfRange):
        profile.distortion(9)


def test_z2_compression_linear():
    profile = build_profile(Z2, (1, 0), 10)
    for i in range(1, profile.j_max + 1):
        assert profile.compression(i) == i
    profile2 = build_profile(Z2, (1, 1), 10)
    for i in range(1, profile2.j_max + 1):
        assert profile2.compression(i) == 2 * i


def test_heisenberg_compression_values():
    profile = build_profile(HEIS, (0, 0, 1), 8)
    assert profile.compression(1) == 4
    assert profile.compression(2) == 6
    # words evaluating to central elements have even length
    assert all(profile.compression(i) % 2 == 0
               for i in range(1, profile.j_max + 1))


def test_rho_inverse():
    profile = build_profile(HEIS, (0, 0, 1), 8)
    assert profile.rho_inverse(4) == 1
    assert profile.rho_inverse(3) == 0
    lattice = build_profile(Z2, (1, 0), 10)
    for c in range(1, 10):
        assert lattice.rho_inverse(c) == c
    for i in range(1, lattice.j_max):
        assert lattice.rho_inverse(lattice.compression(i)) >= i


def test_rho_inverse_out_of_range_when_uncertifiable():
    profile = build_profile(Z2, (1, 0), 10)
    with pytest.raises(OutOfRange):
        profile.rho_inverse(1000)


def test_lower_bound_validation_is_hard(monkeypatch):
    from untwist.groups import LinearBound

    heis = DiscreteHeisenberg()
    monkeypatch.setattr(heis, "compression_lower_bound", lambda g: LinearBound(5))
    with pytest.raises(GroupError):
        # slope-5 linear bound contradicts rho(1) = 4
        build_profile(heis, (0, 0, 1), 8)


# -- inequality suite (exact ranges) -------------------------------------------

PROFILE_CASES = [
    (Z, (1,), 12), (Z, (2,), 12), (Z, (3,), 12),
    (Z2, (1, 0), 10), (Z2, (1, 1), 10), (Z2, (2, 1), 12),
    (HEIS, (1, 0, 0), 8), (HEIS, (0, 1, 0), 8), (HEIS, (0, 0, 1), 10),
]


@pytest.mark.parametrize("group,g,radius", PROFILE_CASES,
                         ids=lambda v: str(v)[:24])
def test_power_bound_inequalities(group, g, radius):
    profile = build_profile(group, g, radius)
    for j, length in profile.entries:
        assert profile.distortion(length) >= j
        assert profile.compression(j) <= length


@pytest.mark.parametrize("group,g,radius", PROFILE_CASES,
                         ids=lambda v: str(v)[:24])
def test_inverse_sandwich_inequalities(group, g, radius):
    profile = build_profile(group, g, radius)
    for x in range(1, radius + 1):
        if x <= profile.j_max:
            rho_x = profile.compression(x)
            assert profile.distortion(rho_x - 1) < x
        delta_x = profile.distortion(x)
        if delta_x + 1 <= profile.j_max:
            assert x < profile.compression(delta_x + 1)
        try:
            assert profile.rho_inverse(x) <= delta_x
        except OutOfRange:
            pass


@pytest.mark.parametrize("group,g,radius", PROFILE_CASES,
                         ids=lambda v: str(v)[:24])
def test_sub_and_super_additivity(group, g, radius):
    profile = build_profile(group, g, radius)
    for x in range(1, profile.j_max + 1):
        for y in range(1, profile.j_max - x + 1):
            assert profile.compression(x + y) <= profile.compression(x) + profile.compression(y)
    for x in range(1, radius + 1):
        for y in range(1, radius - x + 1):
            assert profile.distortion(x + y) >= profile.distortion(x) + profile.distortion(y)


@pytest.mark.parametrize("group,g,radius", PROFILE_CASES,
                         ids=lambda v: str(v)[:24])
def test_monotone_profiles(group, g, radius):
    profile = build_profile(group, g, radius)
    rho = [profile.compression(i) for i in range(1, profile.j_max + 1)]
    assert rho == sorted(rho)
    delta = [profile.distortion(x) for x in range(radius + 1)]
    assert delta == sorted(delta)


@pytest.mark.parametrize("descriptor, element, radius", [
    ("z", "3", 14), ("z^3", "(1,1,0)", 12), ("z^2+diag", "(2,1)", 12),
    ("heisenberg", "z", 20), ("heisenberg", "(1,1,0)", 12), ("free:2", "abAB", 16),
    ("prod(z,heisenberg)", "(0|z)", 20), ("prod(free:2,z)", "(a|2)", 12),
])
def test_distortion_table_matches_a_scan_of_the_powers(descriptor, element, radius):
    group = parse_group(descriptor)
    profile = build_profile(group, group.parse_elem(element), radius)
    for x in range(-2, radius + 1):
        scan = max((j for j, length in profile.entries if length <= x), default=0)
        assert profile.distortion(x) == profile.distortion(x + 0.5) == scan


@pytest.mark.parametrize("group,g,radius", PROFILE_CASES,
                         ids=lambda v: str(v)[:24])
def test_declared_lower_bound_sound(group, g, radius):
    profile = build_profile(group, g, radius)
    for i in range(1, profile.j_max + 1):
        assert profile.lower_bound.value(i) <= profile.compression(i)


# -- translation numbers ---------------------------------------------------------

def test_translation_z2_diagonal():
    data = build_profile(Z2, (1, 1), 12).translation_data()
    assert all(ratio == 2.0 for _, _, ratio in data.terms)
    assert data.best_upper_bound == 2.0
    assert data.undistorted_witness


def test_translation_z_three():
    data = build_profile(Z, (3,), 15).translation_data()
    assert data.best_upper_bound == 3.0


def test_translation_heisenberg_center_decays():
    profile = build_profile(HEIS, (0, 0, 1), 20)
    data = profile.translation_data()
    by_n = {n: ratio for n, _, ratio in data.terms}
    assert by_n[25] == 20 / 25
    assert data.best_upper_bound <= 0.8
    assert list(data.running_min) == sorted(data.running_min, reverse=True)
    assert not data.undistorted_witness
    assert data.lower_bound is None


def test_translation_z2_generator_witness():
    data = build_profile(Z2, (1, 0), 8).translation_data()
    assert data.undistorted_witness
    assert data.lower_bound == 1.0


def test_diagonal_generating_set_profile():
    # the same element measured against the augmented generating set
    diag = IntegerLattice(2, diagonal=True)
    profile = build_profile(diag, (1, 1), 10)
    assert [profile.compression(i) for i in range(1, profile.j_max + 1)] == \
        list(range(1, profile.j_max + 1))
    assert profile.translation_data().best_upper_bound == 1.0
    standard = build_profile(Z2, (1, 1), 10)
    assert standard.translation_data().best_upper_bound == 2.0
    assert diag.generating_set_description() != Z2.generating_set_description()


# -- summability -----------------------------------------------------------------

def test_sdt_geometric_series_exact():
    profile = build_profile(Z2, (1, 0), 20)
    for T in (4, 9, 16):
        report = sdt_partial_sum(profile, 0.5, T)
        assert math.isclose(report.partial_sum, 1.0 - 2.0 ** (-T), rel_tol=1e-12)
        assert report.tail_bound >= 2.0 ** (-T)
        assert math.isclose(report.tail_bound, 2.0 ** (-T), rel_tol=1e-8)


def test_sdt_heisenberg_center_tail():
    profile = build_profile(HEIS, (0, 0, 1), 10)
    report = sdt_partial_sum(profile, 0.5, 8)
    # brute-force the lower-bound tail with many terms; closed form must dominate
    brute = sum(0.5 ** profile.lower_bound.value(i) for i in range(9, 40000))
    assert report.tail_bound >= brute
    assert report.tail_bound < brute + 1e-4
    assert report.partial_sum > 0


def test_sdt_monotone_in_r():
    profile = build_profile(Z2, (1, 0), 16)
    values = [sdt_partial_sum(profile, r, 10).partial_sum
              for r in (0.5, 0.25, 0.1, 0.01)]
    assert values == sorted(values, reverse=True)


def test_sdt_rejects_bad_base():
    profile = build_profile(Z2, (1, 0), 8)
    with pytest.raises(GroupError):
        sdt_partial_sum(profile, 1.5, 4)


def test_sqrt_tail_closed_form_dominates_brute_force():
    from untwist.groups import SqrtBound

    bound = SqrtBound(1)
    for r in (0.5, 0.3):
        for n in (1, 5, 12, 30):
            brute = sum(r ** bound.value(j) for j in range(n, 60000))
            assert bound.tail(r, n) >= brute * (1.0 - 1e-12)
            assert bound.tail(r, n) <= brute * 1.0001 + 1e-12


def test_linear_tail_closed_form():
    from untwist.groups import LinearBound

    bound = LinearBound(2)
    for r in (0.5, 0.2):
        for n in (0, 1, 7):
            brute = sum(r ** bound.value(j) for j in range(n, 4000))
            assert math.isclose(bound.tail(r, n), brute, rel_tol=1e-8)
            assert bound.tail(r, n) >= brute * (1.0 - 1e-12)


# -- conjugation -----------------------------------------------------------------

def test_product_profile_uses_summed_bound():
    from untwist import DirectProduct

    prod = DirectProduct(Z, Z)
    g = ((1,), (1,))
    profile = build_profile(prod, g, 10)
    assert profile.lower_bound.describe() == "sum(linear(slope=1),linear(slope=1))"
    assert profile.lower_bound.linear_slope() == 2
    for i in range(1, profile.j_max + 1):
        assert profile.compression(i) == 2 * i
    report = sdt_partial_sum(profile, 0.5, 8)
    brute_tail = sum(0.5 ** profile.lower_bound.value(i) for i in range(9, 2000))
    assert report.tail_bound >= brute_tail * (1.0 - 1e-12)


def test_conjugation_by_identity_has_zero_slack():
    t_length, slacks = conjugation_compression_check(Z2, (1, 0), (0, 0), 8)
    assert t_length == 0
    assert all(s == 0 for s in slacks)


def test_conjugation_abelian_slack_nonnegative():
    t_length, slacks = conjugation_compression_check(Z2, (1, 0), (3, -2), 10)
    assert t_length == 5
    assert min(slacks) == 2 * 5  # conjugation is trivial in Z^2


def test_conjugation_heisenberg():
    _, slacks = conjugation_compression_check(HEIS, (1, 0, 0), (0, 1, 0), 8)
    assert min(slacks) >= 0


def recording_ball_starts(monkeypatch):
    import untwist.groups as groups

    enumerate_ball = groups.enumerate_ball
    starts = []

    def counting(group, radius, max_elements=None, start=None):
        starts.append(start)
        return enumerate_ball(group, radius, max_elements, start)

    monkeypatch.setattr(groups, "enumerate_ball", counting)
    return starts


def test_heisenberg_conjugation_check_enumerates_no_ball(monkeypatch):
    starts = recording_ball_starts(monkeypatch)
    _, slacks = conjugation_compression_check(HEIS, (1, 0, 0), (0, 1, 0), 8)
    assert min(slacks) >= 0
    assert starts == []
