import itertools
import json
import math
import random

import pytest

from untwist import (CocycleError, CyclicGroup, FiniteGroup, IntegerLattice, RealVector,
                     Torus, WordMetric, weighted_potential)
from untwist.targets import TargetError, target_from_description

from paper_checks import bi_invariance_defect, random_element


def symmetric_group_3():
    elements = list(itertools.permutations(range(3)))

    def compose(p, q):  # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(3))

    table = {(p, q): compose(p, q) for p in elements for q in elements}
    return FiniteGroup(elements, table, (0, 1, 2), name="sym3")


TARGETS = [RealVector(1), RealVector(2), Torus(1), Torus(2), CyclicGroup(5),
           symmetric_group_3()]


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_bi_invariance(target):
    rng = random.Random(17)
    tol = 0.0 if target.is_discrete else 1e-12
    assert bi_invariance_defect(target, rng, trials=150) <= tol


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_metric_axioms_sampled(target):
    rng = random.Random(5)
    for _ in range(60):
        a = random_element(target, rng)
        b = random_element(target, rng)
        c = random_element(target, rng)
        assert target.dist(a, a) == 0.0
        assert target.dist(a, b) == target.dist(b, a)
        assert target.dist(a, c) <= target.dist(a, b) + target.dist(b, c) + 1e-12


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_group_axioms_sampled(target):
    rng = random.Random(7)
    for _ in range(60):
        a = random_element(target, rng)
        b = random_element(target, rng)
        c = random_element(target, rng)
        lhs = target.mul(target.mul(a, b), c)
        rhs = target.mul(a, target.mul(b, c))
        assert target.dist(lhs, rhs) <= 1e-12
        assert target.dist(target.mul(a, target.inv(a)), target.identity) <= 1e-12


def test_torus_wraps():
    t = Torus(1)
    assert t.mul((0.75,), (0.5,)) == (0.25,)
    assert t.dist((0.95,), (0.05,)) == pytest.approx(0.1)


def test_torus_keeps_coordinates_below_one():
    # (-1e-20) % 1.0 rounds to 1.0, which lies outside [0, 1).
    t = Torus(1)
    for a in (t.inv((1e-20,)), t.wrap((-1e-20,))):
        t.validate(a)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_torus_wrap_refuses_non_finite_values(value):
    with pytest.raises(TargetError, match="non-finite"):
        Torus(2).wrap((0.25, value))


@pytest.mark.parametrize("target", [RealVector(1), Torus(1)], ids=["real", "torus"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_weighted_potential_refuses_non_finite_weights(target, value):
    # Refused where the weight enters, naming its cell: a function-backed
    # map (2^25 patterns at window 2) never validates a value, and a NaN
    # weight would make the diameter bound and every holonomy NaN.
    z2 = IntegerLattice(2)
    for window in (1, 2):
        with pytest.raises(CocycleError, match=r"weight at \(1,0\) is non-finite"):
            weighted_potential(z2, WordMetric(z2), target, window,
                               {(0, 0): (0.5,), (1, 0): (value,)}, (0, 1))


@pytest.mark.parametrize("value", [0.5, 2.0, True, "1", (1,)], ids=repr)
def test_weighted_potential_refuses_a_non_integer_finite_weight(value):
    # Cyclic targets take integer weights modulo the order; a weight of 0.5
    # used to build a potential whose values are not group elements, which
    # failed later with a TargetError naming neither the weight nor its cell.
    z2 = IntegerLattice(2)
    with pytest.raises(CocycleError, match=r"weight at \(0,0\) is not an integer"):
        weighted_potential(z2, WordMetric(z2), CyclicGroup(5), 0, {(0, 0): value}, (0, 1))
    assert weighted_potential(z2, WordMetric(z2), CyclicGroup(5), 0, {(0, 0): 7},
                              (0, 1)).lookup((1,)) == 2


def test_weighted_potential_refuses_a_finite_target_that_is_not_cyclic():
    # The weights used to be added as integers modulo the order: on the
    # two-element table the potential's value at symbol 1 was the integer 1,
    # no element, and on the Klein table 1*1 came out as 2, Z/4's law.
    z2 = IntegerLattice(2)
    two = FiniteGroup(["e", "a"], {(x, y): "e" if x == y else "a"
                                   for x in "ea" for y in "ea"}, "e", name="two")
    klein = FiniteGroup(range(4), {(x, y): x ^ y for x in range(4) for y in range(4)},
                        0, name="klein")
    for target in (two, klein):
        with pytest.raises(CocycleError, match=f"target {target.name}:"):
            weighted_potential(z2, WordMetric(z2), target, 0, {(0, 0): 1}, (0, 1))
    assert weighted_potential(z2, WordMetric(z2), CyclicGroup(5), 0, {(0, 0): 1},
                              (0, 1)).lookup((1,)) == 1


@pytest.mark.parametrize("target, near, far", [
    (RealVector(1), (0.5,), (7.0,)), (Torus(1), (0.5,), (7.0,)), (CyclicGroup(5), 1, 3),
], ids=["real", "torus", "cyclic"])
def test_weighted_potential_refuses_a_weight_outside_the_window(target, near, far):
    # A weight on a cell the window's ball misses used to be dropped, so the
    # potential and its diameter bound silently ignored it.
    z2 = IntegerLattice(2)
    with pytest.raises(CocycleError, match=r"weight at \(1,0\) lies outside the window 0"):
        weighted_potential(z2, WordMetric(z2), target, 0,
                           {(0, 0): near, (1, 0): far}, (0, 1))
    with pytest.raises(CocycleError, match=r"weight at \(2,-1\) lies outside the window 2"):
        weighted_potential(z2, WordMetric(z2), target, 2,
                           {(1, 0): near, (2, -1): far}, (0, 1))
    inside = weighted_potential(z2, WordMetric(z2), target, 1,
                                {(0, 0): near, (1, 0): far}, (0, 1))
    assert inside.diameter_bound > 0


@pytest.mark.parametrize("target, value", [
    (RealVector(2), (math.nan, 0.0)),
    (RealVector(2), (0.0, math.inf)),
    (RealVector(2), (0.5, -0.25, 1.0)),
    (RealVector(2), (0.5,)),
    (RealVector(2), (0.5, "x")),
    (Torus(2), (math.nan, 0.0)),
    (Torus(2), (0.5,)),
    (CyclicGroup(5), 7),
], ids=["nan", "inf", "three-components", "one-component", "string", "torus-nan",
        "torus-one-component", "cyclic-outside"])
def test_validate_refuses_non_finite_or_misdimensioned_values(target, value):
    with pytest.raises(TargetError):
        target.validate(value)


def test_validate_accepts_finite_values_of_the_right_dimension():
    RealVector(2).validate((1, -2.5))
    Torus(2).validate((0.0, 0.75))
    CyclicGroup(5).validate(4)


def test_cyclic_structure():
    c5 = CyclicGroup(5)
    assert c5.mul(3, 4) == 2
    assert c5.inv(2) == 3
    assert c5.dist(1, 1) == 0.0 and c5.dist(1, 2) == 1.0


def test_cyclic_groups_of_any_order_compute_modulo_n():
    # No table of n^2 products is listed, so a huge order builds at once.
    n = 10**12
    big = CyclicGroup(n)
    assert big.mul(n - 1, 2) == 1 and big.inv(1) == n - 1 and big.inv(0) == 0
    assert big.dist(n - 1, n - 1) == 0.0 and big.dist(0, n - 1) == 1.0
    assert big.describe() == {"kind": "cyclic", "n": n}
    assert 0 <= random_element(big, random.Random(3)) < n
    big.validate(n - 1)
    for outside in (n, -1, 2.0, True, "1"):
        with pytest.raises(TargetError, match="is not in the group"):
            big.validate(outside)


def test_cyclic_table_values_are_json_integers():
    c5 = CyclicGroup(5)
    assert c5.from_jsonable_elem(3) == 3
    assert type(c5.from_jsonable_elem(2.0)) is int and c5.from_jsonable_elem(2.0) == 2
    for bad in (True, 2.5, "2", None):
        with pytest.raises(ValueError, match="key 'table' needs an integral number"):
            c5.from_jsonable_elem(bad)


def test_finite_group_table_validation():
    with pytest.raises(TargetError):
        FiniteGroup([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 0)


def test_description_roundtrip():
    for target in (RealVector(3), Torus(2), CyclicGroup(7), symmetric_group_3()):
        rebuilt = target_from_description(target.describe())
        rng = random.Random(1)
        for _ in range(20):
            a = random_element(rebuilt, rng)
            b = random_element(rebuilt, rng)
            assert rebuilt.dist(rebuilt.mul(a, b), rebuilt.mul(a, b)) == 0.0
        assert rebuilt.name == target.name or rebuilt.name.startswith("cyclic")


def test_cyclic_description_is_decided_by_type_not_name():
    # Z/2 x Z/2 under a cyclic-looking name must reload as itself, not as Z/4.
    klein = FiniteGroup(range(4), {(a, b): a ^ b for a in range(4) for b in range(4)},
                        0, name="cyclic(4)")
    assert klein.describe()["kind"] == "finite"
    rebuilt = target_from_description(json.loads(json.dumps(klein.describe())))
    assert rebuilt.name == "cyclic(4)"
    assert rebuilt.mul(1, 1) == 0
    assert all(rebuilt.mul(a, b) == klein.mul(a, b)
               for a in klein.elements for b in klein.elements)
    z4 = CyclicGroup(4)
    assert z4.describe() == {"kind": "cyclic", "n": 4}
    assert target_from_description(z4.describe()).mul(1, 1) == 2


@pytest.mark.parametrize("target, read", [(RealVector(2), (0.25, 1.0)),
                                          (Torus(2), (0.25, 0.0))],
                         ids=["real_vector", "torus"])
def test_table_values_must_be_json_numbers(target, read):
    assert target.from_jsonable_elem([0.25, 1]) == read
    for bad in (["0.25", 0.5], [0.25, True], [None, 0.5]):
        with pytest.raises(ValueError, match="key 'table' needs a number"):
            target.from_jsonable_elem(bad)


@pytest.mark.parametrize("description, key", [
    ({"kind": "real_vector", "dim": 2.7}, "dim"),
    ({"kind": "real_vector", "dim": "2"}, "dim"),
    ({"kind": "torus", "dim": True}, "dim"),
    ({"kind": "cyclic", "n": "3"}, "n"),
    ({"kind": "cyclic", "n": 3.5}, "n"),
], ids=["dim-fraction", "dim-string", "dim-bool", "n-string", "n-fraction"])
def test_target_dimensions_and_orders_must_be_integers(description, key):
    with pytest.raises(ValueError, match=f"key '{key}' needs an integral number"):
        target_from_description(description)
    # An integral float is an integral number.
    integral = dict(description, **{key: 2.0})
    assert target_from_description(integral).describe() == dict(description, **{key: 2})
