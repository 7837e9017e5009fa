import pytest

from colorlie.errors import ArityMismatch
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.scalars import CycloScalar


def test_element_arithmetic():
    g = GradingGroup([2, 2])
    assert (g.element((1, 0)) + g.element((0, 1))).residues == (1, 1)
    z3 = GradingGroup([3])
    assert (-z3.element((1,))).residues == (2,)
    assert g.zero().residues == (0, 0)


def test_enumerate_lexicographic():
    g = GradingGroup([2, 2])
    assert [e.residues for e in g.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert GradingGroup([]).size == 1
    assert [e.residues for e in GradingGroup([]).elements()] == [()]


def test_arity_mismatch():
    g = GradingGroup([2, 2])
    with pytest.raises(ArityMismatch):
        g.element((1,))
    h = GradingGroup([2])
    with pytest.raises(ArityMismatch):
        g.element((1, 0)) + h.element((1,))
    with pytest.raises(ArityMismatch):
        g.element((1, 0)) - h.element((1,))


@pytest.mark.parametrize("orders", ([], [2], [3], [2, 2], [4, 6], [3, 3, 2]))
def test_arithmetic_equals_the_public_constructor(orders):
    # +, - and negation build their results from reduced residues; the public
    # constructor converts and reduces what it is given
    G = GradingGroup(orders)
    for x in G.elements():
        a = x.residues
        assert -x == G.element([-r for r in a]) and hash(-x) == hash(G.element([-r for r in a]))
        for y in G.elements():
            b = y.residues
            for got, want in ((x + y, [r + s for r, s in zip(a, b)]), (x - y, [r - s for r, s in zip(a, b)])):
                assert got == G.element(want) and hash(got) == hash(G.element(want))
                assert all(type(r) is int and 0 <= r < n for r, n in zip(got.residues, orders))
    if orders:
        assert G.element([str(n + 1) for n in orders]).residues == (1,) * len(orders)


def test_exponent():
    assert GradingGroup([]).exponent == 1
    assert GradingGroup([2, 2]).exponent == 2
    assert GradingGroup([4, 6]).exponent == 12


def test_eps_trivial_group():
    g = GradingGroup([])
    b = Bicharacter(g, [])
    assert b.eps(g.zero(), g.zero()) == 1


def test_eps_super_sign():
    g = GradingGroup([2])
    b = Bicharacter(g, [[1]])
    assert b.eps(g.element((1,)), g.element((1,))) == -1
    assert b.eps(g.element((1,)), g.element((0,))) == 1


def test_eps_klein_table():
    # exponent of eps((1,0),(1,1)) is 1*1*0 + 1*1*1 = 1, by direct table expansion
    g = GradingGroup([2, 2])
    b = Bicharacter(g, [[0, 1], [1, 0]])
    assert b.eps(g.element((1, 0)), g.element((1, 1))) == -1
    assert b.eps(g.element((1, 0)), g.element((1, 0))) == 1


def test_validate_reports():
    g = GradingGroup([2, 2])
    assert Bicharacter(g, [[0, 1], [1, 0]]).validate().ok

    z3 = GradingGroup([3])
    bad = Bicharacter(z3, [[1]])
    report = bad.validate()
    assert not report.ok
    assert (0, 0) in report.skew_violations

    assert Bicharacter(GradingGroup([]), []).validate().ok


def test_validate_well_definedness():
    # Z2 x Z4 has exponent 4; a generator of order 2 cannot map to zeta_4
    g = GradingGroup([2, 4])
    bad = Bicharacter(g, [[0, 1], [3, 0]])
    report = bad.validate()
    assert not report.ok
    assert report.order_violations


_VALID_CASES = [
    (GradingGroup([]), []),
    (GradingGroup([2]), [[1]]),
    (GradingGroup([2, 2]), [[0, 1], [1, 0]]),
    (GradingGroup([2, 2]), [[1, 1], [1, 0]]),
    (GradingGroup([3, 3]), [[0, 1], [2, 0]]),
    (GradingGroup([4, 2]), [[0, 2], [2, 0]]),
    (GradingGroup([2, 2, 2]), [[0, 1, 0], [1, 0, 1], [0, 1, 1]]),
]


@pytest.mark.parametrize("group,table", _VALID_CASES)
def test_bicharacter_axioms_exhaustive(group, table):
    b = Bicharacter(group, table)
    assert b.validate().ok
    elements = group.elements()
    assert len(elements) <= 16
    one = b.eps(group.zero(), group.zero())
    m = group.exponent
    for a in elements:
        assert b.eps(group.zero(), a) == 1
        assert b.eps(a, group.zero()) == 1
        assert b.eps(a, a) in (1, -1)
        for c in elements:
            assert b.eps(a, c) * b.eps(c, a) == one
            k = b.exponent(a, c)
            assert 0 <= k < m
            assert b.eps(a, c) == CycloScalar.root(m, k)
            for e in elements:
                assert b.eps(a, c + e) == b.eps(a, c) * b.eps(a, e)
                assert b.eps(a + c, e) == b.eps(a, e) * b.eps(c, e)
                # the sum of exponents is what the row assembly carries along a tuple
                assert b.exponent(a, c + e) == (k + b.exponent(a, e)) % m
                assert b.exponent(a + c, e) == (b.exponent(a, e) + b.exponent(c, e)) % m
