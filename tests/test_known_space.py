"""The known-space route of ``n_derivation_space`` against the full stream.

On a Lie color algebra the kernel route takes the inner derivations as a
known part of every block and solves only for the rest. Forcing the axiom
check to fail makes it stream the whole system instead; both must give the
same canonical bases. On input that breaks Jacobi the known space is not
used, and the tests show it must not be.
"""

import pytest

from colorlie import catalog
from colorlie.algebra import AxiomReport, ColorAlgebra
from colorlie.derivations import (
    ad,
    inner_derivation_space,
    is_n_derivation,
    n_derivation_space,
)
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.scalars import CycloScalar

CATALOG = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(3)")


def _torus3():
    """Color commutator of the Z3 x Z3 group algebra: [u_a, u_b] = (1 - eps(a, b)) u_(a+b)."""
    group = GradingGroup([3, 3])
    bichar = Bicharacter(group, [[0, 1], [2, 0]])
    elements = group.elements()
    d = len(elements)
    one, zero = CycloScalar.one(3), CycloScalar.zero(3)
    constants = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            constants[i][j][elements.index(a + b)] = one - bichar.eps(a, b)
    return ColorAlgebra(group, bichar, elements, constants)


def _fresh(name):
    return _torus3() if name == "torus3" else catalog.get(name)


def _full_stream(a, n, monkeypatch):
    """The space computed with the axiom certificate forced to fail."""
    fresh = ColorAlgebra(a.group, a.bichar, a.degrees, a.constants, names=a.names)
    with monkeypatch.context() as patch:
        patch.setattr(ColorAlgebra, "check_axioms", lambda self: AxiomReport(jacobi=[(0, 0, 0)]))
        return n_derivation_space(fresh, n)


@pytest.mark.parametrize("name", CATALOG + ("torus3",))
@pytest.mark.parametrize("n", (2, 3))
def test_known_space_route_equals_full_stream(name, n, monkeypatch):
    a = _fresh(name)
    assert a.check_axioms().ok
    fast = n_derivation_space(a, n)
    slow = _full_stream(a, n, monkeypatch)
    assert list(fast.blocks) == list(slow.blocks)
    for gamma in fast.blocks:
        assert fast.blocks[gamma] == slow.blocks[gamma], (name, n, gamma)


def _jacobi_breaking_sl2():
    """sl2 with [h, e] = 3e and [e, h] = -3e: graded and antisymmetric, not Jacobi."""
    sl2 = catalog.get("sl2")
    constants = [[list(row) for row in plane] for plane in sl2.constants]
    one = sl2.one_scalar()
    constants[1][0][0] = constants[1][0][0] + one
    constants[0][1][0] = constants[0][1][0] - one
    return ColorAlgebra(sl2.group, sl2.bichar, sl2.degrees, constants, names=sl2.names)


@pytest.mark.parametrize("n", (2, 3))
def test_non_lie_input_takes_the_full_stream(n, monkeypatch):
    a = _jacobi_breaking_sl2()
    report = a.check_axioms()
    assert not report.grading and not report.antisymmetry and report.jacobi
    space = n_derivation_space(a, n)
    assert space.blocks == _full_stream(a, n, monkeypatch).blocks
    assert all(is_n_derivation(a, D, n) for D in space.basis_maps())
    # the inner maps are not n-derivations here, so taking them as known
    # would have put maps into the answer that fail the identity
    outside = [i for i in range(a.dim) if not space.contains_map(ad(a, a.basis_vector(i)))]
    assert outside
    assert not any(is_n_derivation(a, ad(a, a.basis_vector(i)), n) for i in outside)


@pytest.mark.parametrize("name", CATALOG)
def test_inner_in_der_in_nder_blockwise(name):
    a = catalog.get(name)
    inner = inner_derivation_space(a)
    der = n_derivation_space(a, 2)
    for n in (2, 3, 4):
        nder = n_derivation_space(a, n)
        for gamma in a.group.elements():
            assert der.blocks[gamma].contains(inner.blocks[gamma]), (name, gamma)
            assert nder.blocks[gamma].contains(der.blocks[gamma]), (name, n, gamma)
