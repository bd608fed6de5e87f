import random
from collections import Counter

import pytest

from untwist import (
    DirectProduct,
    DiscreteHeisenberg,
    FreeGroup,
    GroupError,
    InfiniteCyclic,
    IntegerLattice,
    ResourceLimit,
    WordMetric,
    enumerate_ball,
    parse_group,
)

from oracles import (bfs_tree_words, free_mul, heisenberg_lengths, heisenberg_mul,
                     l1_ball_size)

MODELS = [
    IntegerLattice(2),
    IntegerLattice(3),
    IntegerLattice(2, diagonal=True),
    InfiniteCyclic(),
    DiscreteHeisenberg(),
    FreeGroup(2),
    DirectProduct(InfiniteCyclic(), FreeGroup(2)),
]


def random_element(group, rng, steps=8):
    g = group.identity
    for _ in range(rng.randrange(steps + 1)):
        g = group.mul(g, rng.choice(group.gens)[1])
    return g


# -- multiplication normal forms --------------------------------------------

def test_heisenberg_defining_relation():
    h = DiscreteHeisenberg()
    assert h.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_lattice_inverse_product():
    g = IntegerLattice(2)
    assert g.mul((2, 3), (-2, -3)) == (0, 0)


def test_free_reduction():
    f = FreeGroup(2)
    ab = f.parse_elem("ab")
    Ba = f.parse_elem("Ba")
    assert f.mul(ab, Ba) == f.parse_elem("aa")


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_group_axioms_on_samples(group):
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (random_element(group, rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(group.inv(a), a) == group.identity
        assert group.mul(a, group.identity) == a
        group.validate(a)


# FreeGroup.mul has no shape check: every tuple of letters multiplies, and
# validate is what refuses a word of the wrong form (see the free-group test
# below for values that are no words at all).
@pytest.mark.parametrize("group", [
    InfiniteCyclic(), IntegerLattice(2), IntegerLattice(3),
    IntegerLattice(2, diagonal=True), DiscreteHeisenberg(),
    DirectProduct(InfiniteCyclic(), DiscreteHeisenberg()),
], ids=lambda g: g.name)
def test_model_mismatch_is_structural_error(group):
    g = group.gens[0][1]
    wrong_length = g + (0,) if type(group) is not DirectProduct else (g[0],)
    for bad in (wrong_length, 5):
        with pytest.raises(GroupError):
            group.mul(bad, g)
        with pytest.raises(GroupError):
            group.mul(g, bad)
        with pytest.raises(GroupError):
            group.inv(bad)


def test_free_group_refuses_a_non_word_in_mul_and_inv():
    group = FreeGroup(2)
    g = group.gens[0][1]
    for call in (lambda: group.mul(5, g), lambda: group.mul(g, 5),
                 lambda: group.mul(g, ("a",)), lambda: group.inv(5),
                 lambda: group.inv(("a",))):
        with pytest.raises(GroupError, match="free-group model"):
            call()


def test_free_group_refuses_an_unreduced_word():
    with pytest.raises(GroupError):
        FreeGroup(2).validate((1, -1))


# -- ball enumeration ---------------------------------------------------------

def test_z2_radius_one_ball():
    g = IntegerLattice(2)
    table = enumerate_ball(g, 1)
    assert set(table.lengths) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_z2_ball_size_closed_form(n):
    table = enumerate_ball(IntegerLattice(2), n)
    assert len(table) == l1_ball_size(n)


def test_heisenberg_ball_against_oracle():
    oracle = heisenberg_lengths(6)
    table = enumerate_ball(DiscreteHeisenberg(), 6)
    assert table.lengths == oracle
    assert table.length((0, 0, 1)) == 4
    assert table.length((0, 0, 2)) == 6


def test_lengths_symmetric_and_triangle():
    for group in (IntegerLattice(2), DiscreteHeisenberg(), FreeGroup(2)):
        table = enumerate_ball(group, 5)
        for g, length in table.lengths.items():
            assert table.length(group.inv(g)) == length
        rng = random.Random(5)
        elems = list(table.lengths)
        for _ in range(200):
            a = rng.choice(elems)
            b = rng.choice(elems)
            ab = group.mul(a, b)
            if ab in table.lengths:
                assert table.lengths[ab] <= table.lengths[a] + table.lengths[b]


def test_length_increment_under_generators():
    group = DiscreteHeisenberg()
    table = enumerate_ball(group, 5)
    for g, length in table.lengths.items():
        for _, s in group.gens:
            h = group.mul(g, s)
            if h in table.lengths:
                assert abs(table.lengths[h] - length) <= 1


def test_lattice_lengths_match_l1():
    for d, radius in ((1, 12), (2, 7), (3, 5)):
        table = enumerate_ball(IntegerLattice(d), radius)
        for g, length in table.lengths.items():
            assert length == sum(abs(v) for v in g)


def test_diagonal_lattice_exact_length():
    group = IntegerLattice(2, diagonal=True)
    table = enumerate_ball(group, 6)
    for g, length in table.lengths.items():
        assert length == group.exact_length(g)


@pytest.mark.parametrize("group", MODELS + [FreeGroup(3),
                                            parse_group("prod(heisenberg,z^2+diag)")],
                         ids=lambda g: g.name)
def test_exact_length_is_the_word_length(group):
    """The closed form is the only length route: it equals BFS on B(4), and
    off the ball it satisfies f(e) = 0 and f(g) = 1 + min_s f(g*s) for
    g != e, which makes f the word length (induct on f)."""
    f = group.exact_length
    for g, length in enumerate_ball(group, 4).lengths.items():
        assert f(g) == length
    rng = random.Random(12)
    for _ in range(100):
        g = random_element(group, rng, steps=30)
        if g != group.identity:
            assert f(g) == 1 + min(f(group.mul(g, s)) for _, s in group.gens), g


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_geodesic_words_are_valid(group):
    for g, length in enumerate_ball(group, 4).lengths.items():
        word = group.geodesic_word(g)
        assert len(word) == length
        assert group.eval_word(word) == g


def test_geodesic_of_identity_is_empty():
    assert IntegerLattice(2).geodesic_word((0, 0)) == []


@pytest.mark.parametrize("group", MODELS, ids=lambda g: type(g).__name__ + ":" + g.name)
def test_geodesic_words_equal_bfs_tree_words(group):
    """The descent on lengths gives the raw BFS tree's word."""
    heisenberg = isinstance(group, DiscreteHeisenberg)
    mul = heisenberg_mul if heisenberg else group.mul
    tree = bfs_tree_words(group.identity, group.gens, mul, 10 if heisenberg else 5)
    for g, word in tree.items():
        assert group.geodesic_word(g) == word


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_unchecked_product_equals_checked(group):
    # _steps is each model's unchecked generator-step kernel of the BFS.
    for g in enumerate_ball(group, 4).lengths:
        assert group._steps(g) == [group.mul(g, s) for _, s in group.gens]


@pytest.mark.parametrize("group", MODELS + [parse_group("prod(z,heisenberg)")],
                         ids=lambda g: g.name)
def test_distance_from_equals_the_product_route(group):
    # distance_from(u) is the read of d(u,h) that the divergence search
    # makes at each vertex; a model's own fast read must equal l(u^-1 h).
    ball = list(enumerate_ball(group, 3).lengths)
    rng = random.Random(5)
    far = [random_element(group, rng, steps=20) for _ in range(10)]
    for u in ball + far:
        distance = group.distance_from(u)
        for h in ball + far:
            assert distance(h) == group.exact_length(group.mul(group.inv(u), h)), (u, h)


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_length_lower_bound_is_a_consistent_heuristic(group):
    # The search's heuristic is the closed-form length.
    lengths = enumerate_ball(group, 4).lengths
    bound = group.exact_length
    assert any(bound(g) for g in lengths)
    for g, length in lengths.items():
        assert 0 <= bound(g) <= length
        for _, s in group.gens:
            assert abs(bound(group.mul(g, s)) - bound(g)) <= 1


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_compression_lower_bound_never_decreases(group):
    rng = random.Random(5)
    anchors = [g for g in enumerate_ball(group, 4).lengths if g != group.identity]
    sample = rng.sample(anchors, min(12, len(anchors)))
    if isinstance(group, DiscreteHeisenberg):
        sample += [(0, 0, 1), (0, 0, -3)]  # central anchors: sqrt bounds
    for g in sample:
        values = [group.compression_lower_bound(g).value(j) for j in range(201)]
        assert all(a <= b for a, b in zip(values, values[1:]))


# -- what Group does for every model ------------------------------------------

TEMPLATE_MODELS = MODELS + [parse_group("prod(z,heisenberg)"), parse_group("prod(free:2,z)"),
                            parse_group("prod(prod(z,heisenberg),z^2+diag)")]


@pytest.mark.parametrize("group", TEMPLATE_MODELS, ids=lambda g: g.name)
def test_relation_list_holds_every_inverse_pair_once_and_each_pair_holds(group):
    pairs = [(tuple(w1), tuple(w2)) for w1, w2 in group.defining_relation_word_pairs()]
    for label, _ in group.gens:
        assert ((label, group.inverse_label(label)), ()) in pairs
    assert len(set(pairs)) == len(pairs)
    for w1, w2 in pairs:
        assert group.eval_word(w1) == group.eval_word(w2)


@pytest.mark.parametrize("group", TEMPLATE_MODELS, ids=lambda g: g.name)
def test_compression_lower_bound_refuses_the_identity_and_invalid_elements(group):
    with pytest.raises(GroupError, match="identity has no infinite-order power data"):
        group.compression_lower_bound(group.identity)
    with pytest.raises(GroupError):
        group.compression_lower_bound("ab")


def test_product_bound_validates_each_factor_once(monkeypatch):
    group = parse_group("prod(z,heisenberg)")
    calls = []
    for factor in (group.left, group.right):
        def counting(a, validate=factor.validate):
            calls.append(a)
            validate(a)
        monkeypatch.setattr(factor, "validate", counting)
    assert group.compression_lower_bound(((2,), (0, 0, 1))).describe() == (
        "sum(linear(slope=2),sqrt(scale=1))")
    assert calls == [(2,), (0, 0, 1)]


@pytest.mark.parametrize("text", ["(1,,2)", ",1,2", "(1,2,)", "(1,2", "()", "(1;2)"])
def test_lattice_refuses_a_tuple_with_an_empty_or_bad_coordinate(text):
    with pytest.raises(GroupError):
        parse_group("z^2").parse_elem(text)


def test_tuple_syntax_allows_spaces_and_plain_integers():
    assert parse_group("z^2").parse_elem(" ( -11, 4 ) ") == (-11, 4)
    assert parse_group("z").parse_elem("-3") == (-3,)
    assert parse_group("heisenberg").parse_elem("(1, -2, 3)") == (1, -2, 3)
    with pytest.raises(GroupError, match="expected 3 coordinates"):
        parse_group("heisenberg").parse_elem("(1,2)")


@pytest.mark.parametrize("desc, tree", [
    ("z", True), ("z^1+diag", True), ("free:2", True), ("free:1", True),
    ("z^2", False), ("heisenberg", False), ("prod(z,z)", False),
])
def test_cayley_tree_marks_the_models_whose_geodesics_separate(desc, tree):
    assert parse_group(desc).cayley_tree is tree


def test_resource_limit_reports_last_radius():
    with pytest.raises(ResourceLimit) as info:
        enumerate_ball(IntegerLattice(2), 50, max_elements=40)
    assert 0 <= info.value.last_complete_radius < 50


def test_metric_keeps_its_table_when_growth_hits_the_budget():
    heis = DiscreteHeisenberg()
    metric = WordMetric(heis, max_elements=len(enumerate_ball(heis, 7)) + 10)
    table = metric.table(4)
    assert table.radius == 4
    with pytest.raises(ResourceLimit) as info:
        metric.table(9)
    assert info.value.last_complete_radius == 7
    assert metric.table(4) is table
    assert table.lengths == heisenberg_lengths(4)
    # A larger table is enumerated afresh, in the order of a fresh enumeration.
    grown = metric.table(7)
    assert grown is not table and grown.lengths is not table.lengths
    assert list(grown.lengths.items()) == list(enumerate_ball(heis, 7).lengths.items())
    assert grown.lengths == heisenberg_lengths(7)


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_word_metric_grows_exactly_to_the_length_asked(k):
    # The table grows to the radius asked, here l((0,0,k)), and no further.
    metric = WordMetric(DiscreteHeisenberg())
    length = metric.length((0, 0, k))
    metric.table(length - 1)
    table = metric.table(length)
    assert table.radius == length
    assert max(table.lengths.values()) == length
    assert table.length((0, 0, k)) == length == heisenberg_lengths(length)[(0, 0, k)]


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_closed_form_length_builds_no_table(group, monkeypatch):
    import untwist.groups as groups

    def refuse(*args, **kwargs):
        raise AssertionError("closed-form length enumerated a ball")

    monkeypatch.setattr(groups, "enumerate_ball", refuse)
    metric = WordMetric(group)
    rng = random.Random(3)
    for _ in range(20):
        g = random_element(group, rng)
        length = group.exact_length(g)
        assert metric.length(g) == length
        assert len(group.geodesic_word(g)) == length


# -- uniform draws -------------------------------------------------------------

def assert_draws_cover(group, radius, lengths):
    """Ball and sphere draws give exactly the BFS ball and sphere in lengths;
    20 draws per element miss a given one with odds below e^-20."""
    ball = set(lengths)
    sphere = {g for g, k in lengths.items() if k == radius}
    rng = random.Random(radius)
    assert {group.draw(radius, rng) for _ in range(20 * len(ball))} == ball
    assert {group.draw(radius, rng, sphere=True) for _ in range(20 * len(sphere))} == sphere


BOXED = [g for g in MODELS if isinstance(g, (IntegerLattice, DiscreteHeisenberg))]


@pytest.mark.parametrize("group", BOXED, ids=lambda g: g.name)
@pytest.mark.parametrize("radius", range(7))
def test_ball_box_holds_the_raw_ball_and_the_sampler_accepts_exactly_it(group, radius):
    # z^d+diag and the Heisenberg group draw by box rejection: a box that
    # missed part of B(radius), or an acceptance other than the closed
    # form's, would make the draws differ from the raw ball.  Plain lattices
    # unrank their spheres, and a miscount would do the same.  The raw ball
    # comes from BFS over raw tuples: lattices add coordinates, and the
    # Heisenberg ball is the oracle's.
    if isinstance(group, DiscreteHeisenberg):
        lengths = heisenberg_lengths(radius)
    else:
        lengths = {g: len(word) for g, word in bfs_tree_words(
            group.identity, group.gens,
            lambda p, q: tuple(u + v for u, v in zip(p, q)), radius).items()}
    assert_draws_cover(group, radius, lengths)


@pytest.mark.parametrize("radius", range(4))
@pytest.mark.parametrize("group", [FreeGroup(2), FreeGroup(3), parse_group("prod(z,free:2)"),
                                   parse_group("prod(heisenberg,z^2+diag)")],
                         ids=lambda g: g.name)
def test_draws_cover_exactly_the_raw_ball_and_sphere(group, radius):
    # Free groups and prod(z,free:2) count their spheres and draw exactly;
    # prod(heisenberg,z^2+diag) rejects over pairs of factor draws.
    assert_draws_cover(group, radius, enumerate_ball(group, radius).lengths)


def coordinate_sum(p, q):
    return tuple(u + v for u, v in zip(p, q))


def free_reduction_in_each_factor(p, q):
    return free_mul(p[0], q[0]), free_mul(p[1], q[1])


@pytest.mark.parametrize("group, radius, mul", [
    *[(IntegerLattice(10), r, coordinate_sum) for r in range(3)],
    *[(parse_group("prod(free:2,free:2)"), r, free_reduction_in_each_factor)
      for r in range(4)],
], ids=lambda v: getattr(v, "name", None))
def test_counted_draws_cover_exactly_the_raw_ball_and_sphere(group, radius, mul):
    # Both count their spheres and draw exactly; the raw ball is BFS over
    # raw tuples.
    lengths = {g: len(word) for g, word in
               bfs_tree_words(group.identity, group.gens, mul, radius).items()}
    assert_draws_cover(group, radius, lengths)


@pytest.mark.parametrize("group, radius, sphere, chi2_999", [
    (FreeGroup(2), 3, True, 66.62),
    (parse_group("prod(z,free:2)"), 2, False, 56.89),
    (IntegerLattice(3), 2, False, 51.18),
    (IntegerLattice(10), 2, True, 266.39),
    (parse_group("prod(free:2,free:2)"), 2, False, 84.04),
    (DiscreteHeisenberg(), 3, True, 66.62),
], ids=["free:2-S(3)", "prod(z,free:2)-B(2)", "z^3-B(2)", "z^10-S(2)",
        "prod(free:2,free:2)-B(2)", "heisenberg-S(3)"])
def test_draws_are_uniform_on_small_balls_and_spheres(group, radius, sphere, chi2_999):
    # chi2_999 is the 0.999 quantile of chi-square with |target| - 1 degrees
    # of freedom: S(3) has 36 elements on free:2 and on the Heisenberg
    # group, B(2) 29 on prod(z,free:2), 25 on z^3 and 49 on
    # prod(free:2,free:2), and S(2) 200 on z^10.
    rng = random.Random(11)
    target = {g for g, k in enumerate_ball(group, radius).lengths.items()
              if k == radius or not sphere}
    draws = 400 * len(target)
    counts = Counter(group.draw(radius, rng, sphere) for _ in range(draws))
    assert set(counts) == target
    mean = draws / len(target)
    assert sum((k - mean) ** 2 / mean for k in counts.values()) < chi2_999


def test_rejection_draws_stop_at_the_cap(monkeypatch):
    import untwist.groups as groups

    monkeypatch.setattr(groups, "DRAW_TRIES", 10)
    # S(1) holds 26 of the 3^12 points of z^12+diag's box [-1, 1]^12.
    with pytest.raises(GroupError) as info:
        IntegerLattice(12, diagonal=True).draw(1, random.Random(0), sphere=True)
    message = str(info.value)
    assert "z^12" in message and "radius 1" in message and "10 tries" in message


@pytest.mark.parametrize("radius", range(9))
def test_heisenberg_draw_box_holds_the_raw_ball_and_is_tight(radius):
    # A word of length <= r has p a-letters and q b-letters, p + q <= r, and
    # moves z by at most pq <= floor(r^2/4); (floor(r/2), ceil(r/2), pq)
    # attains it.
    ball = heisenberg_lengths(radius)
    assert max(abs(z) for _, _, z in ball) == radius * radius // 4
    assert all(abs(x) + abs(y) <= radius for x, y, _ in ball)
    p, q = radius // 2, radius - radius // 2
    assert ball[(p, q, p * q)] == radius


# -- the closed-form Heisenberg length ----------------------------------------

HEIS = DiscreteHeisenberg()


def test_heisenberg_closed_form_equals_bfs_to_radius_20():
    radius = 20
    oracle = heisenberg_lengths(radius)
    for g, length in oracle.items():
        assert HEIS.exact_length(g) == length
    # A word of length <= R has k <= R steps along a, R - k along b, and each
    # b step moves z by |x| <= k: so |z| <= R^2/4 and the box below holds
    # the ball.  Nothing in it outside the ball may get a formula <= R.
    side, height = radius + 1, radius * radius // 4 + radius
    for x in range(-side, side + 1):
        for y in range(-side, side + 1):
            for z in range(-height, height + 1):
                g = (x, y, z)
                if g not in oracle:
                    assert HEIS.exact_length(g) > radius, g


def test_heisenberg_closed_form_equals_enumerate_ball_to_radius_28():
    for g, length in enumerate_ball(HEIS, 28).lengths.items():
        assert HEIS.exact_length(g) == length


def test_heisenberg_closed_form_satisfies_the_bellman_equation():
    # f(e) = 0 and f(g) = 1 + min_s f(g*s) for g != e make f the word length
    # (induct on f), so this checks the formula far beyond any BFS.
    f = HEIS.exact_length
    rng = random.Random(8)
    points = [(rng.randint(-10**3, 10**3), rng.randint(-10**3, 10**3),
               rng.randint(-10**6, 10**6)) for _ in range(5000)]
    points += [(x, y, z) for x in range(-6, 7) for y in range(-6, 7)
               for z in range(-30, 31)]
    assert f((0, 0, 0)) == 0
    for g in points:
        if g != (0, 0, 0):
            assert f(g) == 1 + min(f(heisenberg_mul(g, s)) for _, s in HEIS.gens), g


def test_within_stops_at_the_first_longer_element():
    table = enumerate_ball(IntegerLattice(2), 6)
    for radius in range(7):
        assert list(table.within(radius)) == [g for g, length in table.lengths.items()
                                              if length <= radius]


def test_product_length_is_sum():
    group = DirectProduct(IntegerLattice(2), InfiniteCyclic())
    table = enumerate_ball(group, 4)
    for (l, r), length in table.lengths.items():
        assert length == abs(l[0]) + abs(l[1]) + abs(r[0])


# -- descriptors, parsing, metadata ------------------------------------------

@pytest.mark.parametrize("desc", ["z", "z^2", "z^3", "z^2+diag", "heisenberg",
                                  "free:2", "prod(z,heisenberg)",
                                  "prod(z^2,free:2)"])
def test_descriptor_roundtrip(desc):
    group = parse_group(desc)
    assert group.name == desc
    again = parse_group(group.name)
    assert again.gens == group.gens


@pytest.mark.parametrize("desc, message", [
    ("free:27", "between 1 and 26"), ("free:0", "between 1 and 26"),
    ("free:x", "bad free-group rank"), ("z^0", "must be >= 1"),
    ("z^0+diag", "must be >= 1"), ("z^x", "bad lattice dimension"),
])
def test_descriptor_errors_name_the_bad_value(desc, message):
    with pytest.raises(GroupError, match=message):
        parse_group(desc)


def test_nested_product_descriptor_and_elements():
    group = parse_group("prod(prod(z,free:2),z^2)")
    rng = random.Random(6)
    for _ in range(15):
        g = random_element(group, rng)
        assert group.parse_elem(group.format_elem(g)) == g
    assert group.ends == "one"


def test_declared_ends():
    assert parse_group("z").ends == "two"
    assert parse_group("z^2").ends == "one"
    assert parse_group("z^3").ends == "one"
    assert parse_group("heisenberg").ends == "one"
    assert parse_group("free:2").ends == "infinitely_many"
    assert parse_group("prod(z,z)").ends == "one"


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_element_format_parse_roundtrip(group):
    rng = random.Random(3)
    for _ in range(25):
        g = random_element(group, rng)
        assert group.parse_elem(group.format_elem(g)) == g


def test_symmetric_generating_sets():
    for group in MODELS:
        elems = {g for _, g in group.gens}
        for _, g in group.gens:
            assert group.inv(g) in elems


def test_word_metric_grows_and_matches_table():
    heis = DiscreteHeisenberg()
    metric = WordMetric(heis)
    assert metric.length((0, 0, 1)) == 4
    assert metric.length((0, 0, 2)) == 6
    assert metric.length(heis.mul(heis.inv((1, 0, 0)), (1, 0, 0))) == 0
    word = heis.geodesic_word((0, 0, 1))
    assert len(word) == 4


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_word_metric_length_validates_once(group, monkeypatch):
    calls = []
    validate = group.validate

    def counting(a):
        calls.append(a)
        validate(a)

    g = group.eval_word([lab for lab, _ in group.gens[:3]])
    monkeypatch.setattr(group, "validate", counting)
    WordMetric(group).length(g)
    assert calls == [g]


@pytest.mark.parametrize("group", MODELS, ids=lambda g: g.name)
def test_geodesic_word_validates_its_element_once(group, monkeypatch):
    with pytest.raises(GroupError):
        group.geodesic_word("ab")
    calls = []
    validate = group.validate

    def counting(a):
        calls.append(a)
        validate(a)

    g = group.eval_word([lab for lab, _ in group.gens[:3]])
    monkeypatch.setattr(group, "validate", counting)
    assert group.eval_word(group.geodesic_word(g)) == g
    assert calls == [g]


def test_word_metric_budget():
    metric = WordMetric(DiscreteHeisenberg(), max_elements=30)
    with pytest.raises(ResourceLimit):
        metric.table(5)
    # Lengths need no table, so the budget does not bound them.
    assert metric.length((0, 0, 5)) == heisenberg_lengths(10)[(0, 0, 5)]


def test_readers_that_list_no_ball_build_no_word_metric(monkeypatch):
    """Divergence, profiles, conjugation checks and cocycle specs read lengths
    and geodesic words from the group, so none of them builds a WordMetric."""
    import json
    import math
    import os

    from untwist import (Configuration, build_profile, cocycle_spec_from_jsonable,
                         div_function, holonomy)
    from paper_checks import conjugation_compression_check

    def refuse(self, *args, **kwargs):
        raise AssertionError("a reader that lists no ball built a WordMetric")

    monkeypatch.setattr(WordMetric, "__init__", refuse)
    assert [row.n for row in div_function(IntegerLattice(2), 8)] == list(range(2, 9))
    # At n = 12 a search on free:2 meets an obstacle it certifies as cutting.
    assert div_function(FreeGroup(2), 12)[-1].value == math.inf
    heis = DiscreteHeisenberg()
    assert build_profile(heis, (0, 0, 1), 8).compression(4) == 8
    assert min(conjugation_compression_check(heis, (1, 0, 0), (0, 1, 0), 8)[1]) >= 0
    path = os.path.join(os.path.dirname(__file__), "golden", "coboundary_w0.json")
    with open(path, encoding="utf-8") as fh:
        spec = cocycle_spec_from_jsonable(json.load(fh))
    x = Configuration(spec.group, spec.alphabet, spec.background, {(0, 0): 1})
    _, cert = holonomy(spec, (1, 0), x, spec.background_config())
    assert cert.tail_bound < cert.epsilon


@pytest.mark.parametrize("seed", range(6))
def test_linear_fit_is_statistics_linear_regression(seed):
    """Bit for bit on the fsum arithmetic of Python 3.10 and 3.11; 3.12 moved
    statistics to math.sumprod, which may round the last bit otherwise."""
    import math
    import statistics
    import sys

    from untwist.divergence import linear_fit

    rng = random.Random(seed)
    n = rng.randint(2, 40)
    xs = [math.log(k) for k in range(2, n + 2)] if seed % 2 else list(range(1, n + 1))
    ys = [rng.uniform(-50.0, 50.0) + 3.7 * x for x in xs]
    expected = statistics.linear_regression(xs, ys)
    slope, intercept = linear_fit(xs, ys)
    if sys.version_info < (3, 12):
        assert (slope, intercept) == (expected.slope, expected.intercept)
    else:
        assert math.isclose(slope, expected.slope, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(intercept, expected.intercept, rel_tol=1e-12, abs_tol=1e-12)
