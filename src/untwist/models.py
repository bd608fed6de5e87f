"""Free groups and direct products, with the summed compression bound that
only products need.

`groups.parse_group` imports this module only for the `free:r` and
`prod(...)` descriptors, so a run over a lattice or the Heisenberg group
never loads it.
"""

from __future__ import annotations

from .groups import Group, GroupError, LengthLowerBound, LinearBound, _rejection_draw


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

    def sphere_size(self, k):
        # A reduced word's first letter is any of the m = 2r letters and
        # each later one any of the m - 1 that do not cancel it.
        m = 2 * self.rank
        return m * (m - 1) ** (k - 1) if k else 1

    def _sphere_element(self, k, i):
        """The mixed-radix digits of i pick the letters."""
        m, word, j = 2 * self.rank, [], None
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
        # |S(k)| of the left factor, the right one and the product, for k up
        # to the largest radius counted so far; None where a factor does not
        # count.  Each count is read once, so a nested product draws in time
        # polynomial in the radius.
        counting = None not in (left.sphere_size(0), right.sphere_size(0))
        self._spheres = ([], [], []) if counting else None

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

    def sphere_size(self, n):
        # Lengths add: S(n) is the union over i of S_left(i) x S_right(n - i).
        if self._spheres is None:
            return None
        lefts, rights, spheres = self._spheres
        while len(spheres) <= n:
            m = len(spheres)
            lefts.append(self.left.sphere_size(m))
            rights.append(self.right.sphere_size(m))
            spheres.append(sum(lefts[i] * rights[m - i] for i in range(m + 1)))
        return spheres[n]

    def _sphere_element(self, n, i):
        lefts, rights, _ = self._spheres
        for j in range(n + 1):
            size = lefts[j] * rights[n - j]
            if i < size:
                i, i_right = divmod(i, rights[n - j])
                return (self.left._sphere_element(j, i),
                        self.right._sphere_element(n - j, i_right))
            i -= size

    def draw(self, radius, rng, sphere=False):
        if self._spheres is not None:
            return super().draw(radius, rng, sphere)
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
