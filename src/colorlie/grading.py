"""Finite abelian grading groups and bicharacters.

A grading group is a product of cyclic groups Z_{n1} x ... x Z_{nr} given
by its list of orders (the empty list is the trivial group). A bicharacter
is stored as an r x r exponent table K on the generators, meaning
eps(g_i, g_j) = zeta_m^{K[i][j]} with m the group exponent; biadditivity
extends it to the whole group. The table form makes well-definedness
checkable on generators alone.

Only finite groups are supported: derivation degrees are enumerated over
the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from math import lcm

from .errors import ArityMismatch
from .scalars import CycloScalar


class GradingGroup:
    """Z_{n1} x ... x Z_{nr}; exponent is lcm(n_i) (1 for the trivial group)."""

    __slots__ = ("orders", "exponent")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "exponent", lcm(*orders) if orders else 1)

    def __setattr__(self, name, value):
        raise AttributeError("GradingGroup is immutable")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    def element(self, residues) -> "GroupElement":
        return GroupElement(self, residues)

    def zero(self) -> "GroupElement":
        return GroupElement._of(self, (0,) * self.rank)

    def elements(self) -> list["GroupElement"]:
        """All |G| elements in lexicographic order of residue vectors."""
        return list(_elements(self))

    def __eq__(self, other):
        return isinstance(other, GradingGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"GradingGroup({list(self.orders)})"


@lru_cache(maxsize=64)
def _elements(group: GradingGroup) -> tuple:
    # built once per group: a derivation space lists every element
    return tuple(
        GroupElement._of(group, res) for res in product(*(range(n) for n in group.orders))
    )


class GroupElement:
    """A residue vector, component-wise reduced modulo the cyclic orders."""

    __slots__ = ("group", "residues")

    def __init__(self, group: GradingGroup, residues):
        residues = tuple(int(r) for r in residues)
        if len(residues) != group.rank:
            raise ArityMismatch(
                f"expected {group.rank} residues, got {len(residues)}"
            )
        residues = tuple(r % n for r, n in zip(residues, group.orders))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)

    @staticmethod
    def _of(group: GradingGroup, residues: tuple) -> "GroupElement":
        # the private path, for residues already reduced: nothing is converted or checked
        g = object.__new__(GroupElement)
        object.__setattr__(g, "group", group)
        object.__setattr__(g, "residues", residues)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if len(self.residues) != len(other.residues):
            raise ArityMismatch("adding elements of different ranks")
        return GroupElement._of(self.group, tuple(
            (a + b) % n for a, b, n in zip(self.residues, other.residues, self.group.orders)
        ))

    def __neg__(self) -> "GroupElement":
        return GroupElement._of(self.group, tuple(-a % n for a, n in zip(self.residues, self.group.orders)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if len(self.residues) != len(other.residues):
            raise ArityMismatch("subtracting elements of different ranks")
        return GroupElement._of(self.group, tuple(
            (a - b) % n for a, b, n in zip(self.residues, other.residues, self.group.orders)
        ))

    def is_zero(self) -> bool:
        return not any(self.residues)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.group.orders, self.residues))

    def __repr__(self):
        return f"deg{self.residues}"


@dataclass
class BicharacterReport:
    """Outcome of the generator-table checks; failing pairs are listed, not raised."""

    skew_violations: list = field(default_factory=list)
    order_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.skew_violations and not self.order_violations

    def messages(self) -> list[str]:
        out = []
        for i, j in self.skew_violations:
            out.append(f"skew fails on generators ({i}, {j}): K[{i}][{j}] + K[{j}][{i}] != 0 mod m")
        for i, j in self.order_violations:
            out.append(f"not well-defined on generators ({i}, {j}): order * K[{i}][{j}] != 0 mod m")
        return out


class Bicharacter:
    """eps: G x G -> Q(zeta_m)*, given by an exponent table on generators."""

    __slots__ = ("group", "exponents")

    def __init__(self, group: GradingGroup, exponents):
        r, m = group.rank, group.exponent
        table = tuple(tuple(int(k) % m for k in row) for row in exponents)
        if len(table) != r or any(len(row) != r for row in table):
            raise ValueError(f"exponent table must be {r}x{r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", table)

    def __setattr__(self, name, value):
        raise AttributeError("Bicharacter is immutable")

    def exponent(self, a: GroupElement, c: GroupElement) -> int:
        """The k = sum_{i,j} a_i c_j K[i][j] mod m with eps(a, c) = zeta_m^k."""
        e = 0
        for i, ai in enumerate(a.residues):
            if ai:
                row = self.exponents[i]
                for j, cj in enumerate(c.residues):
                    if cj:
                        e += ai * cj * row[j]
        return e % self.group.exponent

    def eps(self, a: GroupElement, c: GroupElement) -> CycloScalar:
        """zeta_m ** exponent(a, c), the biadditive extension."""
        return CycloScalar.root(self.group.exponent, self.exponent(a, c))

    def validate(self) -> BicharacterReport:
        """Check the skew and well-definedness conditions on all generator pairs.

        A passing table extends to a genuine bicharacter: ``exponent`` is
        biadditive mod m, and the two generator conditions are exactly what
        the inverse-symmetry axiom and the cyclic relations require.
        """
        report = BicharacterReport()
        r, m = self.group.rank, self.group.exponent
        orders = self.group.orders
        for i in range(r):
            for j in range(r):
                if j >= i and (self.exponents[i][j] + self.exponents[j][i]) % m != 0:
                    report.skew_violations.append((i, j))
                if (orders[i] * self.exponents[i][j]) % m != 0 or (
                    orders[j] * self.exponents[i][j]
                ) % m != 0:
                    report.order_violations.append((i, j))
        return report

    def __eq__(self, other):
        return (
            isinstance(other, Bicharacter)
            and self.group == other.group
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.group.orders, self.exponents))

    def __repr__(self):
        return f"Bicharacter({self.group!r}, {[list(r) for r in self.exponents]})"
