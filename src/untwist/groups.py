"""Finitely generated group models with exact arithmetic and word metrics.

Elements are plain hashable normal forms (tuples), so they double as dict
keys in ball tables.  Every model ships a symmetric ordered generating set,
a closed-form word length (the only route by which the package reads one),
uniform draws from its balls and spheres, a certified lower bound for the
compression of powers of its elements, and structural metadata.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import takewhile
from operator import add


class InputError(ValueError):
    """Input a run cannot use: a bad descriptor, element or description, or
    a task, spec or config file.  The CLI exits 2 on it."""


class GroupError(InputError):
    """Structurally invalid element or unsupported operation for a model."""


def json_int(value, key: str) -> int:
    """A JSON number read as an integer; a fraction, a non-finite number, a
    boolean or a non-number is refused, naming its key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"key {key!r} needs an integral number, got {value!r}")


def json_float(value, key: str) -> float:
    """A finite JSON number read as a float; a string, a boolean or any other
    non-number is refused, naming its key, and so are the NaN and Infinity
    that json.load reads."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"key {key!r} needs a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"key {key!r} needs a finite number, got {value!r}")
    return float(value)


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


class SqrtBound(LengthLowerBound):
    """value(j) = scale * ceil(sqrt(j)); summable but sublinear."""

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise GroupError("sqrt length bound needs scale >= 1")
        self.scale = scale

    def value(self, j):
        if j <= 0:
            return 0
        return self.scale * (math.isqrt(j - 1) + 1)

    def tail(self, r, n):
        if n <= 0:
            return 1.0 + self.tail(r, 1)
        q = r ** self.scale
        k0 = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        # indices n..k0^2 share the value scale*k0, then blocks of 2k-1.
        total = (k0 * k0 - n + 1) * q ** k0
        m = k0 + 1
        geo = q ** m / (1.0 - q)
        kgeo = q ** m * (m - (m - 1) * q) / (1.0 - q) ** 2
        return (total + 2.0 * kgeo - geo) * _TAIL_SAFETY

    def describe(self):
        return f"sqrt(scale={self.scale})"


class SumBound(LengthLowerBound):
    """Sum of component bounds (used by direct products)."""

    def __init__(self, parts):
        if not parts:
            raise GroupError("sum bound needs at least one part")
        self.parts = tuple(parts)

    def value(self, j):
        return sum(p.value(j) for p in self.parts)

    def tail(self, r, n):
        # r**value(j) <= r**part.value(j) for each part, so any part's tail works.
        return min(p.tail(r, n) for p in self.parts)

    def linear_slope(self):
        slopes = [p.linear_slope() for p in self.parts]
        slopes = [s for s in slopes if s is not None]
        if not slopes:
            return None
        return sum(slopes)

    def describe(self):
        return "sum(" + ",".join(p.describe() for p in self.parts) + ")"


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

    @abstractmethod
    def draw(self, radius: int, rng, sphere: bool = False):
        """A uniform draw, by the random.Random rng, from the ball B(radius),
        or from the sphere S(radius) when sphere is true."""

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


def _split_top_level(body: str, sep: str):
    """(head, tail) around the first sep outside parentheses, or None."""
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            return body[:i], body[i + 1:]
    return None


# Tries per rejection draw.  A ball can fill a tiny share of the set drawn
# from (about 1/d! of its box on z^d), and the draw must still end.
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

    def draw(self, radius, rng, sphere=False):
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


class DiscreteHeisenberg(Group):
    """Integer Heisenberg group, triples under
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y')."""

    name = "heisenberg"
    ends = "one"
    subexponential_divergence = True

    identity = (0, 0, 0)
    gens = (
        ("a", (1, 0, 0)),
        ("A", (-1, 0, 0)),
        ("b", (0, 1, 0)),
        ("B", (0, -1, 0)),
    )

    def mul(self, a, b):
        try:
            (x, y, z), (X, Y, Z) = a, b
            return (x + X, y + Y, z + Z + x * Y)
        except (TypeError, ValueError):
            raise GroupError("element does not belong to the Heisenberg model") from None

    def _steps(self, g):
        x, y, z = g
        return [(x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x)]

    def inv(self, a):
        try:
            x, y, z = a
            return (-x, -y, -z + x * y)
        except (TypeError, ValueError):
            raise GroupError("element does not belong to the Heisenberg model") from None

    def validate(self, a):
        _as_int_tuple(a, 3)

    def format_elem(self, a):
        return "(" + ",".join(str(v) for v in a) + ")"

    def parse_elem(self, s):
        shorthand = {"a": (1, 0, 0), "b": (0, 1, 0), "z": (0, 0, 1),
                     "A": (-1, 0, 0), "B": (0, -1, 0), "Z": (0, 0, -1),
                     "e": (0, 0, 0)}
        return shorthand.get(s.strip()) or _parse_int_tuple(s, 3)

    def exact_length(self, a):
        """Blachère's closed form (Word distance on the discrete Heisenberg
        group, Colloq. Math. 95, 2003).  A word is a lattice path from 0 to
        (x, y) with signed area z; symmetries reduce to 0 <= x <= y, z >= 0.
        Monotone paths, of length x + y, reach every area up to x*y; a larger
        area costs a box of width h >= y and height ceil(z/h) around it."""
        x, y, z = a
        if x < 0:  # a <-> A
            x, z = -x, -z
        if y < 0:  # b <-> B
            y, z = -y, -z
        if z < 0:  # g -> rot_pi(g^-1), which keeps the length
            z = x * y - z
        if x > y:  # a <-> b composed with the line above
            x, y = y, x
        if z <= x * y:
            return x + y
        h = max(y, math.isqrt(z - 1) + 1)  # max(y, ceil(sqrt(z)))
        return 2 * (h - (-z // h)) - x - y

    def draw(self, radius, rng, sphere=False):
        # Box rejection: |x|, |y| <= r and |z| <= r^2 on B(r), since a word of
        # length at most r moves x and y by at most r, and its k-th letter,
        # when a b-letter, moves z by the current x, of size at most k - 1 < r.
        r, r2, randrange = radius, radius * radius, rng.randrange
        return _rejection_draw(self, radius, sphere, lambda: (
            randrange(2 * r + 1) - r, randrange(2 * r + 1) - r, randrange(2 * r2 + 1) - r2))

    def _compression_bound(self, g):
        x, y, _ = g
        if (x, y) != (0, 0):
            # Every generator changes |x| or |y| by at most one.
            return LinearBound(max(abs(x), abs(y)))
        # Central powers: a word for (0,0,m) is a closed lattice loop of
        # enclosed area m, so its length is at least 4*sqrt(|m|).
        return SqrtBound(1)

    def _relations(self):
        zw = ["a", "b", "A", "B"]  # evaluates to the central element (0,0,1)
        return [(["a"] + zw, zw + ["a"]), (["b"] + zw, zw + ["b"])]


class FreeGroup(Group):
    """Free group on `rank` letters; elements are freely reduced tuples of
    signed letter indices (1-based; negative = inverse)."""

    identity = ()
    cayley_tree = True

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise GroupError("free group rank must be between 1 and 26")
        self.rank = rank
        self.name = f"free:{rank}"
        self.ends = "two" if rank == 1 else "infinitely_many"
        self.subexponential_divergence = False
        gens = []
        for i in range(rank):
            gens.append((chr(ord("a") + i), (i + 1,)))
            gens.append((chr(ord("A") + i), (-(i + 1),)))
        self.gens = tuple(gens)

    def mul(self, a, b):
        try:
            word = list(a)
            for letter in b:
                if word and word[-1] == -letter:
                    word.pop()
                else:
                    word.append(letter)
        except TypeError:
            raise GroupError("element does not belong to this free-group model") from None
        return tuple(word)

    def inv(self, a):
        try:
            return tuple(-x for x in reversed(a))
        except TypeError:
            raise GroupError("element does not belong to this free-group model") from None

    def validate(self, a):
        if not isinstance(a, tuple):
            raise GroupError(f"expected a reduced word tuple, got {a!r}")
        for x in a:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise GroupError(f"letter {x!r} is not valid for rank {self.rank}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise GroupError(f"word {a!r} is not freely reduced")

    def format_elem(self, a):
        if not a:
            return "e"
        return "".join(
            chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in a
        )

    def parse_elem(self, s):
        s = s.strip()
        if s in ("", "e"):
            return ()
        word = ()
        for ch in s:
            if "a" <= ch <= "z":
                letter = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                letter = -(ord(ch) - ord("A") + 1)
            else:
                raise GroupError(f"bad letter {ch!r} in free-group word {s!r}")
            if abs(letter) > self.rank:
                raise GroupError(f"letter {ch!r} exceeds rank {self.rank}")
            word = self.mul(word, (letter,))
        return word

    def exact_length(self, a):
        return len(a)

    def draw(self, radius, rng, sphere=False):
        """Exact, by one randrange.  A reduced word's first letter is any of
        the m = 2r letters and each later one any of the m - 1 that do not
        cancel it, so |S(k)| = m(m-1)^(k-1).  A uniform index into B(radius)
        picks k with weight |S(k)|, and its mixed-radix digits the letters."""
        m = 2 * self.rank
        sizes = [1] + [m * (m - 1) ** (k - 1) for k in range(1, radius + 1)]
        i = rng.randrange(sizes[radius] if sphere else sum(sizes))
        k = radius if sphere else 0
        while i >= sizes[k]:
            i -= sizes[k]
            k += 1
        word, j = [], None
        for _ in range(k):
            # gens lists each letter next to its inverse, so j ^ 1 is the one
            # a later letter skips: the m - 1 digits count on from it.
            i, d = divmod(i, m if j is None else m - 1)
            j = d if j is None else ((j ^ 1) + 1 + d) % m
            word.append(self.gens[j][1][0])
        return tuple(word)

    def _compression_bound(self, g):
        # Cyclically reduced core length grows linearly under powers.
        core = list(g)
        while len(core) >= 2 and core[0] == -core[-1]:
            core = core[1:-1]
        return LinearBound(max(1, len(core)))


class DirectProduct(Group):
    """Direct product with the union generating set, so word length is the
    sum of the factor lengths."""

    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right
        self.name = f"prod({left.name},{right.name})"
        # Both factors are infinite, so the product is one-ended and wide.
        self.ends = "one"
        self.subexponential_divergence = True
        gens = [(f"l:{lab}", (g, right.identity)) for lab, g in left.gens]
        gens += [(f"r:{lab}", (left.identity, g)) for lab, g in right.gens]
        self.gens = tuple(gens)
        self.identity = (left.identity, right.identity)

    def mul(self, a, b):
        try:
            (al, ar), (bl, br) = a, b
        except (TypeError, ValueError):
            raise GroupError("element does not belong to this product model") from None
        return (self.left.mul(al, bl), self.right.mul(ar, br))

    def inv(self, a):
        try:
            al, ar = a
        except (TypeError, ValueError):
            raise GroupError("element does not belong to this product model") from None
        return (self.left.inv(al), self.right.inv(ar))

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise GroupError(f"expected a component pair, got {a!r}")
        self.left.validate(a[0])
        self.right.validate(a[1])

    def format_elem(self, a):
        return f"({self.left.format_elem(a[0])}|{self.right.format_elem(a[1])})"

    def parse_elem(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise GroupError(f"expected (left|right), got {s!r}")
        halves = _split_top_level(s[1:-1], "|")
        if halves is None:
            raise GroupError(f"no top-level '|' separator in {s!r}")
        return (self.left.parse_elem(halves[0]), self.right.parse_elem(halves[1]))

    def exact_length(self, a):
        return self.left.exact_length(a[0]) + self.right.exact_length(a[1])

    def draw(self, radius, rng, sphere=False):
        # Lengths add, so B(radius) lies in B_left(radius) x B_right(radius).
        return _rejection_draw(self, radius, sphere, lambda: (
            self.left.draw(radius, rng), self.right.draw(radius, rng)))

    def _compression_bound(self, g):
        parts = [f._compression_bound(h) for f, h in zip((self.left, self.right), g)
                 if h != f.identity]
        return parts[0] if len(parts) == 1 else SumBound(parts)

    def _relations(self):
        pairs = [([f"l:{s}", f"r:{t}"], [f"r:{t}", f"l:{s}"])
                 for s in self.left.positive_labels for t in self.right.positive_labels]
        for side, factor in (("l", self.left), ("r", self.right)):
            pairs += [tuple([f"{side}:{lab}" for lab in w] for w in pair)
                      for pair in factor._relations()]
        return pairs


def parse_group(descriptor: str) -> Group:
    """Build a group model from a descriptor string.

    Supported forms: ``z``, ``z^d``, ``z^d+diag``, ``heisenberg``,
    ``free:r``, ``prod(desc,desc)``.
    """
    s = descriptor.strip().lower()
    if s == "z":
        return InfiniteCyclic()
    if s == "heisenberg":
        return DiscreteHeisenberg()
    if s.startswith("free:"):
        try:
            rank = int(s[len("free:"):])
        except ValueError:
            raise GroupError(f"bad free-group rank in {descriptor!r}") from None
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
