"""Shipped example algebras, axiom-validated on construction.

Every entry is rebuilt from its bracket table on each request and passed
through ``ColorAlgebra``'s bicharacter check and the full axiom check; a
failing entry raises instead of returning, so a bad edit here cannot ship
silently.

``abelian(d)`` is parametric; the registry exposes it under the template
name ``abelian(N)``, for N up to ``ABELIAN_MAX_DIM``.
"""

from __future__ import annotations

import re

from .algebra import ColorAlgebra
from .grading import Bicharacter, GradingGroup


def _build(orders, exponents, names, degree_residues, table) -> ColorAlgebra:
    group = GradingGroup(orders)
    bichar = Bicharacter(group, exponents)
    degrees = tuple(group.element(res) for res in degree_residues)
    algebra = ColorAlgebra._from_table(group, bichar, degrees, table, names=names)
    report = algebra.check_axioms()
    if not report.ok:
        raise RuntimeError("catalog entry fails axioms: " + "; ".join(report.messages()))
    return algebra


def sl2() -> ColorAlgebra:
    """Trivially graded, basis (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return _build(
        orders=[],
        exponents=[],
        names=("e", "h", "f"),
        degree_residues=[(), (), ()],
        table={(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
    )


def heis3() -> ColorAlgebra:
    """Heisenberg: [e1,e2] = e3, everything else zero."""
    return _build(
        orders=[],
        exponents=[],
        names=("e1", "e2", "e3"),
        degree_residues=[(), (), ()],
        table={(0, 1): {2: 1}},
    )


def aff2() -> ColorAlgebra:
    """Two-dimensional non-abelian: [e1,e2] = e2."""
    return _build(
        orders=[],
        exponents=[],
        names=("e1", "e2"),
        degree_residues=[(), ()],
        table={(0, 1): {1: 1}},
    )


def abelian(d: int) -> ColorAlgebra:
    """d-dimensional abelian algebra, trivially graded."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return _build(
        orders=[],
        exponents=[],
        names=tuple(f"e{i + 1}" for i in range(d)),
        degree_residues=[()] * d,
        table={},
    )


def color_sl2() -> ColorAlgebra:
    """Z2 x Z2 graded, all eps values on distinct generators equal -1.

    Basis (x, y, z) with degrees (1,0), (0,1), (1,1) and brackets
    [x,y]=z, [y,z]=x, [z,x]=y; distinct basis brackets are symmetric.
    """
    return _build(
        orders=[2, 2],
        exponents=[[0, 1], [1, 0]],
        names=("x", "y", "z"),
        degree_residues=[(1, 0), (0, 1), (1, 1)],
        table={(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
    )


def osp12() -> ColorAlgebra:
    """Orthosymplectic superalgebra: 3 even (e, h, f) and 2 odd (x, y) basis vectors.

    The even part is sl2; odd-odd brackets are the symmetric ones forced by
    the super sign. Constants were fixed against the axiom checker.
    """
    return _build(
        orders=[2],
        exponents=[[1]],
        names=("e", "h", "f", "x", "y"),
        degree_residues=[(0,), (0,), (0,), (1,), (1,)],
        table={
            (0, 1): {0: -2},   # [e,h] = -2e
            (0, 2): {1: 1},    # [e,f] = h
            (0, 4): {3: 1},    # [e,y] = x
            (1, 2): {2: -2},   # [h,f] = -2f
            (1, 3): {3: 1},    # [h,x] = x
            (1, 4): {4: -1},   # [h,y] = -y
            (2, 3): {4: 1},    # [f,x] = y
            (3, 3): {0: -2},   # [x,x] = -2e
            (3, 4): {1: 1},    # [x,y] = h
            (4, 4): {2: 2},    # [y,y] = 2f
        },
    )


_FIXED = {
    "sl2": sl2,
    "heis3": heis3,
    "aff2": aff2,
    "colorSl2": color_sl2,
    "osp12": osp12,
}

_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")

# abelian(N) builds an N^3 grid of constants, and its nDer has dimension
# N^2 whatever n is; at N = 16, der --n 4 takes seconds.
ABELIAN_MAX_DIM = 16


def names() -> list[str]:
    return sorted(_FIXED) + ["abelian(N)"]


def get(name: str) -> ColorAlgebra:
    """Look up a catalog entry by name; abelian takes its dimension inline."""
    if name in _FIXED:
        return _FIXED[name]()
    m = _ABELIAN_RE.match(name)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(ABELIAN_MAX_DIM)) or int(digits) > ABELIAN_MAX_DIM:
            raise KeyError(f"catalog entry abelian(N) takes N <= {ABELIAN_MAX_DIM}")
        return abelian(int(digits))
    raise KeyError(f"unknown catalog entry {name!r}; available: {', '.join(names())}")
