"""Finitely generated group models with exact arithmetic and word metrics.

Elements are plain hashable normal forms (tuples), so they double as dict
keys in ball tables.  Every model ships a symmetric ordered generating set,
a closed-form word length (the only route by which the package reads one),
uniform draws from its balls and spheres, a certified lower bound for the
compression of powers of its elements, and structural metadata.

This module holds the core every run loads: the `Group` template, the integer
lattices, `parse_group`, ball enumeration and the word metric.  The other
models live in `models`, which `parse_group` imports only for their
descriptors, and the exact draws of the models that count their spheres in
`draws`, which runs at the first such draw.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import takewhile
from math import comb
from operator import add, sub

from . import draws


class InputError(ValueError):
    """Input a run cannot use: a bad descriptor, element or description, or
    a task, spec or config file.  The CLI exits 2 on it."""


class GroupError(InputError):
    """Structurally invalid element or unsupported operation for a model."""


class OutOfRange(LookupError):
    """Requested value lies outside the certified exact range of a table."""


class ResourceLimit(RuntimeError):
    """An enumeration exceeded its element budget."""

    def __init__(self, message: str, last_complete_radius: int):
        super().__init__(message)
        self.last_complete_radius = last_complete_radius


# ---------------------------------------------------------------------------
# Certified lower bounds for word lengths of powers.
#
# A bound object certifies value(j) <= min_{i >= j} l(g^i) for all j >= 1.
# The claim is analytic per model (coordinate/area arguments); profiles
# re-validate it against exact BFS data before any tail bound uses it.
# ---------------------------------------------------------------------------

class LengthLowerBound(ABC):
    """Pointwise lower bound for the compression of <g>, with summable tails."""

    @abstractmethod
    def value(self, j: int) -> int:
        """Certified lower bound for the compression at j >= 0.

        Non-decreasing in j: cone_contains and the holonomy cut-off stop at
        the first j whose value exceeds a radius, for every later j too.
        """

    @abstractmethod
    def tail(self, r: float, n: int) -> float:
        """Closed-form upper bound for sum_{j >= n} r**value(j), 0 < r < 1."""

    def linear_slope(self) -> int | None:
        """Positive slope s with value(j) >= s*j, or None if not linear."""
        return None

    def describe(self) -> str:
        return repr(self)


# Closed-form tails are exact in real arithmetic; this factor absorbs the
# floating-point evaluation error so they always over-approximate.
_TAIL_SAFETY = 1.0 + 1e-9


class LinearBound(LengthLowerBound):
    def __init__(self, slope: int):
        if slope < 1:
            raise GroupError("linear length bound needs slope >= 1")
        self.slope = slope

    def value(self, j):
        return self.slope * j

    def tail(self, r, n):
        q = r ** self.slope
        return q ** n / (1.0 - q) * _TAIL_SAFETY

    def linear_slope(self):
        return self.slope

    def describe(self):
        return f"linear(slope={self.slope})"


# ---------------------------------------------------------------------------
# Group models
# ---------------------------------------------------------------------------

class Group(ABC):
    """A finitely generated group with a fixed symmetric generating set."""

    name: str = "?"
    ends: str = "one"  # "one" | "two" | "infinitely_many"
    subexponential_divergence: bool = False
    # Every path between two elements passes through each vertex of their
    # geodesic: the Cayley graph is a tree, doubled edges aside.
    cayley_tree: bool = False

    @abstractmethod
    def mul(self, a, b):
        ...

    def _steps(self, g):
        """g*s for every generator s, in gens order."""
        mul = self.mul
        return [mul(g, s) for _, s in self.gens]

    @abstractmethod
    def inv(self, a):
        ...

    @abstractmethod
    def validate(self, a) -> None:
        """Raise GroupError unless a is a canonical normal form for this model."""

    @abstractmethod
    def format_elem(self, a) -> str:
        ...

    @abstractmethod
    def parse_elem(self, s: str):
        ...

    def compression_lower_bound(self, g) -> LengthLowerBound:
        """Certified lower bound for the compression of <g>; g must have
        infinite order (all built-ins are torsion-free, so g != identity)."""
        self.validate(g)
        if g == self.identity:
            raise GroupError("identity has no infinite-order power data")
        return self._compression_bound(g)

    @abstractmethod
    def _compression_bound(self, g) -> LengthLowerBound:
        """The bound for a valid g other than the identity."""

    @abstractmethod
    def exact_length(self, a) -> int:
        """Closed-form word length of a normal form, unchecked: callers
        validate elements that come from outside the package."""

    def distance_from(self, u):
        """The map h -> d(u,h) = l(u^-1 h) of a valid u, for many reads from
        one point.  A model may read it without building u^-1 h."""
        length, mul, u_inv = self.exact_length, self.mul, self.inv(u)
        return lambda h: length(mul(u_inv, h))

    def sphere_size(self, k: int) -> int | None:
        """|S(k)| where the model counts its spheres, else None.  A model
        that counts also defines _sphere_element(k, i), the i-th element of
        S(k) for 0 <= i < |S(k)| in an order of its own."""
        return None

    def draw(self, radius: int, rng, sphere: bool = False):
        """A uniform draw, by the random.Random rng, from the ball B(radius),
        or from the sphere S(radius) when sphere is true.  Exact, through
        draws.counted_draw, where the model counts its spheres; a model
        that does not count overrides this with a rejection draw."""
        return draws.counted_draw(self, radius, rng, sphere)

    def defining_relation_word_pairs(self):
        """Pairs of generator words with equal products (cocycle sanity
        checks): s*s^-1 = e for every generator s, then _relations()."""
        inverses = [([lab, self.inverse_label(lab)], []) for lab, _ in self.gens]
        return inverses + self._relations()

    def _relations(self):
        """The model's relations besides s*s^-1 = e."""
        return []

    def gen(self, label: str):
        for lab, g in self.gens:
            if lab == label:
                return g
        raise GroupError(f"unknown generator label {label!r} for {self.name}")

    def inverse_label(self, label: str) -> str:
        g = self.gen(label)
        ig = self.inv(g)
        for lab, h in self.gens:
            if h == ig:
                return lab
        raise GroupError(f"generating set is not symmetric at {label!r}")

    @property
    def positive_labels(self):
        """One label per generator/inverse pair, in declared order."""
        seen = set()
        out = []
        for lab, _ in self.gens:
            if lab in seen:
                continue
            seen.add(lab)
            seen.add(self.inverse_label(lab))
            out.append(lab)
        return out

    def eval_word(self, labels):
        """Left-to-right product of the labelled generators."""
        acc = self.identity
        for lab in labels:
            acc = self.mul(acc, self.gen(lab))
        return acc

    def geodesic_word(self, g):
        """Labels t1..tk with t1*...*tk = g and k = l(g), least in gens order
        letter by letter (shortlex).

        t1 is the first generator s with l(s^-1 g) = k - 1, and the descent
        repeats on s^-1 g.  BFS reaches each element first along this word,
        so it is the word of the BFS tree (Epstein et al., Word Processing
        in Groups, 1992).
        """
        self.validate(g)
        length, mul = self.exact_length, self.mul
        k = length(g)
        back = [(label, self.inv(s)) for label, s in self.gens]
        word = []
        while k:
            k -= 1
            for label, s_inv in back:
                h = mul(s_inv, g)
                if length(h) == k:
                    break
            word.append(label)
            g = h
        return word

    def power(self, g, n: int):
        if n < 0:
            return self.power(self.inv(g), -n)
        acc = self.identity
        for _ in range(n):
            acc = self.mul(acc, g)
        return acc

    def generating_set_description(self) -> str:
        return "{" + ",".join(lab for lab, _ in self.gens) + "}"

    def __repr__(self):
        return f"<group {self.name}>"


def _as_int_tuple(a, d):
    if not (isinstance(a, tuple) and len(a) == d and all(isinstance(v, int) for v in a)):
        raise GroupError(f"expected an integer {d}-tuple, got {a!r}")
    return a


def _parse_int_tuple(s: str, d: int):
    """The integer d-tuple in s, written v1,...,vd, in parentheses or not;
    no coordinate may be empty."""
    s = s.strip()
    parts = (s[1:-1] if s.startswith("(") and s.endswith(")") else s).split(",")
    if len(parts) != d:
        raise GroupError(f"expected {d} coordinates in {s!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise GroupError(f"cannot parse {s!r} as {d} integers") from None


# Tries per rejection draw.  A ball can fill a tiny share of the set drawn
# from (S(1) of z^12+diag holds 26 of the 3^12 points of its box), and the
# draw must still end.
DRAW_TRIES = 1_000_000


def _rejection_draw(group: Group, radius: int, sphere: bool, propose):
    """The first proposal the closed form puts in B(radius), or on S(radius)
    when sphere: proposals uniform on a set holding it make it uniform."""
    for _ in range(DRAW_TRIES):
        g = propose()
        k = group.exact_length(g)
        if k == radius or (k < radius and not sphere):
            return g
    raise GroupError(f"no draw from the {'sphere' if sphere else 'ball'} of radius "
                     f"{radius} of {group.name} in {DRAW_TRIES} tries")


class IntegerLattice(Group):
    """Z^d with the standard basis generators, optionally augmented by the
    all-ones diagonal pair (a second generating set for sensitivity checks)."""

    def __init__(self, dimension: int, diagonal: bool = False):
        if dimension < 1:
            raise GroupError("lattice dimension must be >= 1")
        self.dimension = dimension
        self.diagonal = diagonal
        self.name = f"z^{dimension}" + ("+diag" if diagonal else "")
        self.ends = "two" if dimension == 1 else "one"
        self.subexponential_divergence = dimension >= 2
        self.cayley_tree = dimension == 1
        gens = []
        for i in range(dimension):
            e = tuple(1 if j == i else 0 for j in range(dimension))
            gens.append((f"x{i + 1}+", e))
            gens.append((f"x{i + 1}-", tuple(-v for v in e)))
        if diagonal:
            ones = tuple(1 for _ in range(dimension))
            gens.append(("diag+", ones))
            gens.append(("diag-", tuple(-1 for _ in range(dimension))))
        self.gens = tuple(gens)
        self.identity = (0,) * dimension

    def mul(self, a, b):
        try:
            if self.dimension == 2:
                (x, y), (X, Y) = a, b
                return (x + X, y + Y)
            if len(a) == len(b) == self.dimension:
                return tuple(map(add, a, b))
        except (TypeError, ValueError):
            pass
        raise GroupError("element does not belong to this lattice model")

    def _steps(self, g):
        if self.dimension == 2:
            x, y = g
            steps = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
            if self.diagonal:
                steps += [(x + 1, y + 1), (x - 1, y - 1)]
            return steps
        return [tuple(map(add, g, s)) for _, s in self.gens]

    def inv(self, a):
        try:
            if len(a) == self.dimension:
                return tuple(-x for x in a)
        except TypeError:
            pass
        raise GroupError("element does not belong to this lattice model")

    def validate(self, a):
        _as_int_tuple(a, self.dimension)

    def format_elem(self, a):
        if self.dimension == 1:
            return str(a[0])
        return "(" + ",".join(str(v) for v in a) + ")"

    def parse_elem(self, s):
        return _parse_int_tuple(s, self.dimension)

    def exact_length(self, a):
        if not self.diagonal:
            if self.dimension == 2:
                return abs(a[0]) + abs(a[1])
            return sum(abs(v) for v in a)
        # One diagonal pair: k net diagonal steps plus axis corrections.
        lo = min(0, min(a))
        hi = max(0, max(a))
        return min(abs(k) + sum(abs(v - k) for v in a) for k in range(lo, hi + 1))

    def distance_from(self, u):
        if self.diagonal:
            return super().distance_from(u)
        # The l1 distance, read coordinate by coordinate.
        if self.dimension == 2:
            x, y = u

            def distance(h):
                X, Y = h
                return abs(X - x) + abs(Y - y)
            return distance
        return lambda h: sum(map(abs, map(sub, h, u)))

    def sphere_size(self, n):
        # k nonzero coordinates: their signs, their positions and a
        # composition of n into k positive parts.
        if self.diagonal:
            return None
        d = self.dimension
        return sum(2 ** k * comb(d, k) * comb(n - 1, k - 1)
                   for k in range(1, min(d, n) + 1)) if n else 1

    def _sphere_element(self, n, i):
        return draws.lattice_sphere_element(self.dimension, n, i)

    def draw(self, radius, rng, sphere=False):
        if not self.diagonal:
            return super().draw(radius, rng, sphere)
        # Box rejection: each generator, a diagonal one too, moves each
        # coordinate by at most 1, so B(radius) lies in [-radius, radius]^d.
        span, randrange, coords = 2 * radius + 1, rng.randrange, range(self.dimension)
        return _rejection_draw(self, radius, sphere,
                               lambda: tuple([randrange(span) - radius for _ in coords]))

    def _compression_bound(self, g):
        if not self.diagonal:
            return LinearBound(sum(abs(v) for v in g))
        # Each generator moves every coordinate by at most 1.
        return LinearBound(max(abs(v) for v in g))

    def _relations(self):
        pos = self.positive_labels
        return [([s, t], [t, s]) for i, s in enumerate(pos) for t in pos[i + 1:]]


class InfiniteCyclic(IntegerLattice):
    """Z with generators +-1 (two ends)."""

    def __init__(self):
        super().__init__(1)
        self.name = "z"


def parse_group(descriptor: str) -> Group:
    """Build a group model from a descriptor string.

    Supported forms: ``z``, ``z^d``, ``z^d+diag``, ``heisenberg``,
    ``free:r``, ``prod(desc,desc)``.
    """
    s = descriptor.strip().lower()
    if s == "z":
        return InfiniteCyclic()
    if s == "heisenberg":
        from .models import DiscreteHeisenberg
        return DiscreteHeisenberg()
    if s.startswith("free:"):
        try:
            rank = int(s[len("free:"):])
        except ValueError:
            raise GroupError(f"bad free-group rank in {descriptor!r}") from None
        from .models import FreeGroup
        return FreeGroup(rank)
    if s.startswith("z^"):
        body = s[2:]
        diagonal = body.endswith("+diag")
        if diagonal:
            body = body[:-len("+diag")]
        try:
            dimension = int(body)
        except ValueError:
            raise GroupError(f"bad lattice dimension in {descriptor!r}") from None
        return IntegerLattice(dimension, diagonal=diagonal)
    if s.startswith("prod(") and s.endswith(")"):
        from .models import DirectProduct, _split_top_level
        halves = _split_top_level(s[len("prod("):-1], ",")
        if halves is None:
            raise GroupError(f"no top-level ',' in {descriptor!r}")
        return DirectProduct(parse_group(halves[0]), parse_group(halves[1]))
    raise GroupError(f"unknown group descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# Ball enumeration and the word metric
# ---------------------------------------------------------------------------

class BallTable:
    """Ball of a given radius with exact word lengths, in BFS order.

    `lengths` maps each element of the ball to its word length, inserted in
    BFS discovery order.  Geodesic words are not stored:
    Group.geodesic_word recovers them from the closed form.
    """

    __slots__ = ("radius", "lengths")

    def __init__(self, radius: int, lengths: dict):
        self.radius = radius
        self.lengths = lengths

    @property
    def order(self):
        """Elements in deterministic BFS discovery order, layer by layer."""
        return self.lengths.keys()

    def __len__(self):
        return len(self.lengths)

    def length(self, g) -> int | None:
        """Exact word length, or None when g is outside the table."""
        return self.lengths.get(g)

    def within(self, radius):
        """Elements of length <= radius in BFS order; stops at the first longer one."""
        lengths = self.lengths
        if lengths[next(reversed(lengths))] <= radius:
            return iter(lengths)
        return (g for g, _ in
                takewhile(lambda item: item[1] <= radius, lengths.items()))


def enumerate_ball(group: Group, radius: int, max_elements: int | None = None) -> BallTable:
    """Breadth-first enumeration of every element of word length <= radius.

    Past max_elements it raises ResourceLimit with the last complete radius.
    """
    if radius < 0:
        raise GroupError("ball radius must be >= 0")
    lengths = {group.identity: 0}
    frontier = [group.identity]
    steps = group._steps
    for k in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for h in steps(g):
                if h not in lengths:
                    lengths[h] = k
                    nxt.append(h)
            if max_elements is not None and len(lengths) > max_elements:
                raise ResourceLimit(
                    f"ball enumeration for {group.name} exceeded "
                    f"{max_elements} elements; last complete radius {k - 1}",
                    last_complete_radius=k - 1,
                )
        frontier = nxt
        if not frontier:
            break
    return BallTable(radius, lengths)


DEFAULT_METRIC_BUDGET = 5_000_000


class WordMetric:
    """A ball table under an element budget, for what lists the ball itself:
    `ball`, configuration sample pools and canonical cells.

    It keeps a single table, holding lengths only.  Lengths and geodesic
    words belong to the group: every model reads them in closed form.
    """

    def __init__(self, group: Group, max_elements: int = DEFAULT_METRIC_BUDGET):
        self.group = group
        self.max_elements = max_elements
        self._table: BallTable | None = None

    def table(self, radius: int) -> BallTable:
        # A failed enumeration leaves the old table in place.
        if self._table is None or self._table.radius < radius:
            self._table = enumerate_ball(self.group, radius, self.max_elements)
        return self._table

    def length(self, g) -> int:
        """Exact word length of an element from outside the package."""
        self.group.validate(g)
        return self.group.exact_length(g)

    def ball(self, radius: int) -> BallTable:
        return self.table(radius)
