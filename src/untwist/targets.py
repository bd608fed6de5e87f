"""Target groups for cocycles: complete groups with bi-invariant metrics.

Instances: real vector groups with the Euclidean metric, tori with the
quotient metric, and finite groups with the discrete metric.  Bi-invariance
is property-tested rather than assumed (abelian and discrete cases make it
automatic, but the interface admits any multiplication table).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from operator import add, neg

from .groups import InputError, json_float, json_int


class TargetError(InputError):
    """Invalid target-group element or inconsistent table."""


class TargetGroup(ABC):
    name: str = "?"
    is_discrete: bool = False
    identity: object

    @abstractmethod
    def mul(self, a, b):
        ...

    @abstractmethod
    def inv(self, a):
        ...

    @abstractmethod
    def dist(self, a, b) -> float:
        ...

    @abstractmethod
    def validate(self, a) -> None:
        ...

    def to_jsonable_elem(self, a):
        return list(a) if isinstance(a, tuple) else a

    def describe(self) -> dict:
        return {"kind": self.name}

    def __repr__(self):
        return f"<target {self.name}>"


class RealVector(TargetGroup):
    """(R^dim, +) with the Euclidean metric."""

    def __init__(self, dim: int):
        if dim < 1:
            raise TargetError("dimension must be >= 1")
        self.dim = dim
        self.name = f"real_vector({dim})"
        self.identity = (0.0,) * dim

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def dist(self, a, b):
        return math.dist(a, b)

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == self.dim
                and all(isinstance(v, (int, float)) and math.isfinite(v) for v in a)):
            raise TargetError(f"expected a length-{self.dim} tuple of finite "
                              f"numbers, got {a!r}")

    def from_jsonable_elem(self, obj):
        return tuple(json_float(v, "table") for v in obj)

    def describe(self):
        return {"kind": "real_vector", "dim": self.dim}


def _unit(v: float) -> float:
    """v mod 1 in [0, 1): a remainder that rounds up to 1.0, as that of a
    tiny negative v does, is 0."""
    r = v % 1.0
    return r if r < 1.0 else 0.0


class Torus(TargetGroup):
    """(R/Z)^dim with the flat quotient metric; coordinates stored in [0,1)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise TargetError("dimension must be >= 1")
        self.dim = dim
        self.name = f"torus({dim})"
        self.identity = (0.0,) * dim

    def mul(self, a, b):
        return tuple((x + y) % 1.0 for x, y in zip(a, b))

    def inv(self, a):
        return tuple(_unit(-x) for x in a)

    def dist(self, a, b):
        total = 0.0
        for x, y in zip(a, b):
            d = abs((x - y) % 1.0)
            d = min(d, 1.0 - d)
            total += d * d
        return math.sqrt(total)

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == self.dim
                and all(isinstance(v, (int, float)) and 0.0 <= v < 1.0 for v in a)):
            raise TargetError(f"expected a length-{self.dim} tuple in [0,1), got {a!r}")

    def wrap(self, values):
        return tuple(_unit(float(v)) for v in values)

    def from_jsonable_elem(self, obj):
        return self.wrap([json_float(v, "table") for v in obj])

    def describe(self):
        return {"kind": "torus", "dim": self.dim}


class FiniteGroup(TargetGroup):
    """Finite group given by a multiplication table, with the discrete metric."""

    is_discrete = True

    def __init__(self, elements, table, identity, name="finite"):
        self.elements = tuple(elements)
        self.table = dict(table)
        self.identity = identity
        self.name = name
        index = set(self.elements)
        if identity not in index:
            raise TargetError("identity must be listed among the elements")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table or self.table[(a, b)] not in index:
                    raise TargetError(f"multiplication table is not closed at ({a},{b})")
            if self.table[(a, identity)] != a or self.table[(identity, a)] != a:
                raise TargetError(f"identity fails at {a}")
        self._inverses = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] == identity and self.table[(b, a)] == identity:
                    self._inverses[a] = b
                    break
            else:
                raise TargetError(f"no inverse for {a}")

    def mul(self, a, b):
        try:
            return self.table[(a, b)]
        except KeyError:
            raise TargetError(f"elements ({a!r},{b!r}) are not in the group") from None

    def inv(self, a):
        try:
            return self._inverses[a]
        except KeyError:
            raise TargetError(f"element {a!r} is not in the group") from None

    def dist(self, a, b):
        return 0.0 if a == b else 1.0

    def validate(self, a):
        if a not in self._inverses:
            raise TargetError(f"element {a!r} is not in the group")

    def from_jsonable_elem(self, obj):
        return obj if not isinstance(obj, list) else tuple(obj)

    def describe(self):
        return {
            "kind": "finite",
            "elements": list(self.elements),
            "identity": self.identity,
            "table": [[a, b, c] for (a, b), c in sorted(self.table.items(),
                                                        key=lambda kv: repr(kv[0]))],
            "name": self.name,
        }


class CyclicGroup(FiniteGroup):
    """Integers modulo n, as built by cyclic_group; described by its order."""

    def describe(self):
        return {"kind": "cyclic", "n": len(self.elements)}


def cyclic_group(n: int) -> CyclicGroup:
    """Integers modulo n with the discrete metric."""
    if n < 1:
        raise TargetError("cyclic order must be >= 1")
    elements = list(range(n))
    table = {(a, b): (a + b) % n for a in elements for b in elements}
    return CyclicGroup(elements, table, 0, name=f"cyclic({n})")


def target_from_description(obj) -> TargetGroup:
    kind = obj.get("kind")
    if kind == "real_vector":
        return RealVector(json_int(obj["dim"], "dim"))
    if kind == "torus":
        return Torus(json_int(obj["dim"], "dim"))
    if kind == "cyclic":
        return cyclic_group(json_int(obj["n"], "n"))
    if kind == "finite":
        table = {(a, b): c for a, b, c in obj["table"]}
        return FiniteGroup(obj["elements"], table, obj["identity"],
                           obj.get("name", "finite"))
    raise TargetError(f"unknown target description {obj!r}")
