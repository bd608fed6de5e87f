"""Finitely supported configurations over a group: the points of a full
shift that differ from a constant background symbol on finitely many cells,
the shift action on them, and the cells where two of them differ.

Configurations are finite-support differences from a constant background
symbol; that is the only homoclinic class represented here, and it is all
the desk-scale pipeline ever evaluates.  Subshifts, cones and gluing are in
`shifts`, which untwisting never loads.
"""

from __future__ import annotations

from .groups import Group, InputError


class ContractError(InputError):
    """A documented precondition of a shift-space operation was violated."""


class Configuration:
    """Immutable point of alphabet**group differing from the background on
    finitely many cells.  Equality and hashing use the reduced support."""

    __slots__ = ("group", "alphabet", "background", "support", "_hash")

    def __init__(self, group: Group, alphabet, background, support):
        alphabet = tuple(alphabet)
        if background not in alphabet:
            raise ContractError("background symbol must belong to the alphabet")
        reduced = {}
        for cell, symbol in dict(support).items():
            group.validate(cell)
            if symbol not in alphabet:
                raise ContractError(f"symbol {symbol!r} is not in the alphabet")
            if symbol != background:
                reduced[cell] = symbol
        self._fill(group, alphabet, background, reduced)

    def _fill(self, group, alphabet, background, support):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_hash",
                           hash((alphabet, background, frozenset(support.items()))))

    def _derive(self, support) -> "Configuration":
        """Same shift space, with a support already checked and reduced."""
        derived = object.__new__(Configuration)
        derived._fill(self.group, self.alphabet, self.background, support)
        return derived

    def __setattr__(self, *_):
        raise AttributeError("Configuration is immutable")

    def symbol_at(self, cell):
        return self.support.get(cell, self.background)

    def translate(self, h) -> "Configuration":
        """Left shift: the new value at k is the old value at h^-1 k."""
        mul = self.group.mul
        return self._derive({mul(h, cell): sym for cell, sym in self.support.items()})

    def _check_space(self, other: "Configuration"):
        if (self.alphabet, self.background) != (other.alphabet, other.background):
            raise ContractError("configurations live in different shift spaces")

    def differing_cells(self, other: "Configuration") -> set:
        """The cells where self and other show different symbols."""
        self._check_space(other)
        return {c for c in self.support.keys() | other.support.keys()
                if self.symbol_at(c) != other.symbol_at(c)}

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.alphabet == other.alphabet
                and self.background == other.background
                and self.support == other.support)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        items = ",".join(
            f"{self.group.format_elem(c)}:{s}"
            for c, s in sorted(self.support.items(), key=lambda kv: self.group.format_elem(kv[0]))
        )
        return f"<config {{{items}}} bg={self.background}>"

    def to_jsonable(self):
        return {
            "alphabet": list(self.alphabet),
            "background": self.background,
            "support": [
                [self.group.format_elem(c), s]
                for c, s in sorted(self.support.items(),
                                   key=lambda kv: self.group.format_elem(kv[0]))
            ],
        }

    @classmethod
    def from_jsonable(cls, group: Group, obj) -> "Configuration":
        support = {}
        for cell, sym in obj["support"]:
            cell = group.parse_elem(cell)
            if cell in support:
                raise ContractError(f"cell {group.format_elem(cell)} is listed twice")
            support[cell] = sym
        return cls(group, tuple(obj["alphabet"]), obj["background"], support)
