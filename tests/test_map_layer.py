"""The map-algebra layer against dense reference computations kept here.

``_solve_ad_preimage`` reads y off one cached factorization of x -> ad x
and certifies ad(y) = target exactly; the reference solves the full
d*d x d coefficient system with ``MatrixExact.solve``. ``map_bracket``
works on nonzero entries only; the reference is the textbook triple loop.
A map is held as its degree and the nonzero (position, value) pairs of
its block, a sparse ``Subspace`` row; the properties below check that
layout against the d x d view ``matrix`` on every support degree of each
catalog entry.
"""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorlie import catalog, derivations
from colorlie.algebra import ColorAlgebra
from colorlie.derivations import (
    GradedMap,
    _ad_basis,
    _ad_preimages,
    _solve_ad_preimage,
    ad,
    block_coordinates,
    delta,
    map_bracket,
    n_derivation_space,
    verify_second_statement,
)
from colorlie.errors import (
    DimensionMismatch,
    NoSolution,
    NotDivisible,
    ParseError,
    PreconditionFailed,
)
from colorlie.fileio import parse_algebra
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.linalg import MatrixExact, _pairs
from colorlie.scalars import CycloScalar

CATALOG = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(3)")


def _torus3(drop_center=False):
    """Color commutator of the Z3 x Z3 group algebra: [u_a, u_b] = (1 - eps(a, b)) u_(a+b).

    u_0 spans the center. With drop_center the basis is the other eight
    u_a: eps(a, -a) = 1, so no bracket of them reaches u_0 and they span a
    centerless quotient.
    """
    group = GradingGroup([3, 3])
    bichar = Bicharacter(group, [[0, 1], [2, 0]])
    elements = group.elements()
    if drop_center:
        elements = [g for g in elements if g != group.zero()]
    d = len(elements)
    one, zero = CycloScalar.one(3), CycloScalar.zero(3)
    constants = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            c = one - bichar.eps(a, b)
            if c:
                constants[i][j][elements.index(a + b)] = c
    return ColorAlgebra(group, bichar, elements, constants)


def _algebra(name):
    if name.startswith("torus3"):
        return _torus3(drop_center=name == "torus3/Z")
    if name == "r11":
        # a zero center, not perfect (see test_premise_controls.py)
        path = Path(__file__).resolve().parent / "data" / "r11.json"
        return parse_algebra(path.read_text(encoding="utf-8"))
    return catalog.get(name)


def _reference_preimage(a, target):
    # rows indexed by (k, l) row-major, columns by i: entry c[i][l][k]
    d, c = a.dim, a.constants
    rows = [[c[i][l][k] for i in range(d)] for k in range(d) for l in range(d)]
    b = [target.matrix[k][l] for k in range(d) for l in range(d)]
    return MatrixExact(a.conductor, rows, cols=d).solve(b)


def _random_homogeneous(rng, a):
    gamma = a.degrees[rng.randrange(a.dim)]
    return tuple(
        a.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if a.degrees[i] == gamma else a.zero_scalar()
        for i in range(a.dim)
    )


@pytest.mark.parametrize("name", CATALOG + ("torus3", "torus3/Z"))
def test_factored_preimage_equals_reference_solve(name):
    a = _algebra(name)
    rng = random.Random(f"preimage:{name}")
    targets = [ad(a, a.basis_vector(i)) for i in range(a.dim)]
    targets += [ad(a, _random_homogeneous(rng, a)) for _ in range(12)]
    if a.center().dim:
        with pytest.raises(PreconditionFailed):
            _solve_ad_preimage(a, targets[0])
        return
    for target in targets:
        assert _solve_ad_preimage(a, target) == _reference_preimage(a, target), name


def test_centerless_cases_are_covered():
    centerless = [n for n in CATALOG + ("torus3", "torus3/Z") if not _algebra(n).center().dim]
    assert centerless == ["sl2", "aff2", "colorSl2", "osp12", "torus3/Z"]


def test_targets_outside_ad_image_raise():
    sl2 = catalog.get("sl2")
    d = sl2.dim
    z, o = sl2.zero_scalar(), sl2.one_scalar()
    identity = GradedMap(sl2, sl2.group.zero(), [[o if k == j else z for j in range(d)] for k in range(d)])
    with pytest.raises(NoSolution):
        _reference_preimage(sl2, identity)
    with pytest.raises(NoSolution):
        _solve_ad_preimage(sl2, identity)
    # ad(e) with each entry in turn bumped by one lies outside ad(L)
    ad_e = ad(sl2, sl2.basis_vector(0))
    for k in range(d):
        for l in range(d):
            grid = [list(row) for row in ad_e.matrix]
            grid[k][l] = grid[k][l] + 1
            bumped = GradedMap(sl2, sl2.group.zero(), grid)
            with pytest.raises(NoSolution):
                _reference_preimage(sl2, bumped)
            with pytest.raises(NoSolution):
                _solve_ad_preimage(sl2, bumped)


def test_delta_surfaces_targets_outside_ad_image():
    # a matrix unit is no derivation; [E_00, ad f] leaves ad(L)
    sl2 = catalog.get("sl2")
    d = sl2.dim
    z, o = sl2.zero_scalar(), sl2.one_scalar()
    unit = GradedMap(sl2, sl2.group.zero(), [[o if k == j == 0 else z for j in range(d)] for k in range(d)])
    with pytest.raises(NoSolution):
        delta(sl2, unit, 3)


def test_preimage_needs_zero_center():
    heis = catalog.get("heis3")
    with pytest.raises(PreconditionFailed):
        _solve_ad_preimage(heis, GradedMap.zero(heis, heis.group.zero()))


def _dense_bracket(d1, d2):
    a = d1.algebra
    d = a.dim
    e = a.bichar.eps(d1.degree, d2.degree)
    m1, m2 = d1.matrix, d2.matrix
    grid = []
    for k in range(d):
        row = []
        for j in range(d):
            acc = a.zero_scalar()
            for l in range(d):
                acc = acc + m1[k][l] * m2[l][j] - e * (m2[k][l] * m1[l][j])
            row.append(acc)
        grid.append(row)
    return GradedMap(a, d1.degree + d2.degree, grid)


@pytest.mark.parametrize("name", ("sl2", "colorSl2", "osp12"))
def test_sparse_map_bracket_equals_dense_reference(name):
    a = catalog.get(name)
    maps = n_derivation_space(a, 2).basis_maps()
    maps += [GradedMap.zero(a, g) for g in (a.group.zero(), a.degrees[-1])]
    for d1 in maps:
        for d2 in maps:
            got, ref = map_bracket(d1, d2), _dense_bracket(d1, d2)
            assert got.degree == ref.degree and got.matrix == ref.matrix, name


@pytest.mark.parametrize("name", ("aff2", "colorSl2", "heis3", "osp12", "sl2", "abelian(2)", "abelian(3)"))
@pytest.mark.parametrize("n", (2, 3))
def test_unchecked_constructions_pass_the_public_support_check(name, n):
    # map_bracket and from_block_vector skip the support check; every map
    # they build must still be accepted by GradedMap(...) unchanged
    a = catalog.get(name)
    rng = random.Random(f"{name}:{n}")
    maps = n_derivation_space(a, n).basis_maps() + list(_ad_basis(a))
    for gamma, coords in a.degree_table().blocks.items():
        vec = [a.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in coords]
        maps.append(GradedMap.from_block_vector(a, gamma, vec))
    built = maps + [map_bracket(d1, d2) for d1 in maps for d2 in maps]
    for D in built:
        checked = GradedMap(a, D.degree, D.matrix)
        assert checked.degree == D.degree and checked.matrix == D.matrix, (name, n)


@pytest.mark.parametrize("length", [1, 4])
def test_ad_and_apply_reject_a_vector_of_the_wrong_length(length):
    # ad((1,)) on sl2 must not read as ad(e), nor apply drop a fourth entry through zip
    sl2 = catalog.get("sl2")
    v = (sl2.one_scalar(),) * length
    with pytest.raises(DimensionMismatch):
        ad(sl2, v)
    with pytest.raises(DimensionMismatch):
        ad(sl2, sl2.basis_vector(1)).apply(v)


def test_constructor_coerces_entries_through_the_algebra():
    sl2 = catalog.get("sl2")
    zero = sl2.group.zero()
    half = sl2.scalar(Fraction(1, 2))
    D = GradedMap(sl2, zero, [["1/2", 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not D.is_zero()
    assert all(isinstance(c, CycloScalar) for row in D.matrix for c in row)
    assert D.block_vector()[0] == half
    assert D.apply(sl2.basis_vector(0)) == (half, sl2.zero_scalar(), sl2.zero_scalar())
    assert not n_derivation_space(sl2, 2).contains_map(D)
    assert GradedMap(sl2, zero, [[0] * 3] * 3).is_zero()
    with pytest.raises(ParseError):
        GradedMap(sl2, zero, [["1/", 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotDivisible):
        GradedMap(sl2, zero, [[CycloScalar.root(3), 0, 0], [0, 0, 0], [0, 0, 0]])
    # from_block_vector coerces the same way; a string "0" is a zero entry, not kept
    size = len(block_coordinates(sl2, zero))
    vec = ["1/2", 0, 2, Fraction(-3, 4), "0"] + [0] * (size - 5)
    E = GradedMap.from_block_vector(sl2, zero, vec)
    assert E.entries == ((0, half), (2, sl2.scalar(2)), (3, sl2.scalar(Fraction(-3, 4))))
    assert all(type(c) is CycloScalar and c.conductor == 1 for _, c in E.entries)
    assert E == GradedMap(sl2, zero, E.matrix)
    assert GradedMap.from_block_vector(sl2, zero, ["0"] * size).is_zero()
    # the oracle multiplies the stored entries by scalars
    assert not derivations.is_n_derivation(sl2, E, 2)
    with pytest.raises(ParseError):
        GradedMap.from_block_vector(sl2, zero, ["1/"] + [0] * (size - 1))
    with pytest.raises(NotDivisible):
        GradedMap.from_block_vector(sl2, zero, [CycloScalar.root(3)] + [0] * (size - 1))


@cache
def _cached(name):
    return _algebra(name)


@st.composite
def _block_vectors(draw, a, gamma):
    # mostly zero entries, the rest small rationals times a root of unity
    m = a.conductor
    entry = st.one_of(
        st.just(a.zero_scalar()),
        st.builds(
            lambda p, q, k: a.scalar(Fraction(p, q)) * CycloScalar.root(m, k),
            st.integers(-3, 3), st.integers(1, 3), st.integers(0, m - 1),
        ),
    )
    size = len(block_coordinates(a, gamma))
    return draw(st.lists(entry, min_size=size, max_size=size))


@st.composite
def _maps(draw):
    a = _cached(draw(st.sampled_from(CATALOG + ("torus3",))))
    support = list(a.degree_table().blocks)
    g1, g2 = draw(st.sampled_from(support)), draw(st.sampled_from(support))
    vec1, vec2 = draw(_block_vectors(a, g1)), draw(_block_vectors(a, g2))
    v = draw(st.lists(st.integers(-2, 2).map(a.scalar), min_size=a.dim, max_size=a.dim))
    return a, (g1, vec1), (g2, vec2), tuple(v)


@settings(deadline=None)
@given(case=_maps())
def test_block_layout_agrees_with_the_dense_view(case):
    a, (g1, vec1), (g2, vec2), v = case
    d1 = GradedMap.from_block_vector(a, g1, vec1)
    d2 = GradedMap.from_block_vector(a, g2, vec2)
    for D, g, vec in ((d1, g1, vec1), (d2, g2, vec2)):
        grid = D.matrix
        assert GradedMap(a, g, grid) == D
        assert D.block_vector() == tuple(vec)
        # the stored form: the nonzero (position, value) pairs of the drawn vector
        assert D.entries == tuple((p, c) for p, c in enumerate(vec) if c)
        dense = tuple(
            sum((grid[k][j] * v[j] for j in range(a.dim)), a.zero_scalar()) for k in range(a.dim)
        )
        assert D.apply(v) == dense
    got, ref = map_bracket(d1, d2), _dense_bracket(d1, d2)
    assert got.degree == ref.degree and got == ref and got.matrix == ref.matrix
    grid = ref.matrix
    dense = [grid[k][j] for k, j in block_coordinates(a, got.degree)]
    assert got.entries == tuple((p, c) for p, c in enumerate(dense) if c)
    if g1 != g2:
        assert GradedMap.zero(a, g1) == GradedMap.zero(a, g2)
        assert (d1 == d2) == (d1.is_zero() and d2.is_zero())


def _assert_stored_form(D):
    # strictly increasing positions inside the block, nonzero CycloScalar values
    positions = [p for p, _ in D.entries]
    assert all(0 <= p < len(block_coordinates(D.algebra, D.degree)) for p in positions)
    assert all(p < q for p, q in zip(positions, positions[1:]))
    assert all(type(c) is CycloScalar and c and c.conductor == D.algebra.conductor for _, c in D.entries)


@pytest.mark.parametrize("name", CATALOG + ("torus3", "r11"))
@pytest.mark.parametrize("n", (2, 3))
def test_every_built_map_holds_the_stored_form(name, n, monkeypatch):
    # the ad maps and basis maps everywhere; on the perfect, centerless entries
    # also delta and part 2's witnesses, with the targets each was solved from
    a = _algebra(name)
    maps = list(_ad_basis(a)) + n_derivation_space(a, n).basis_maps()
    theorem = a.is_perfect() and not a.center().dim
    assert theorem == (name in ("sl2", "colorSl2", "osp12"))
    if theorem:
        solved = []

        def recording(a, degree, targets):
            D = _ad_preimages(a, degree, (solved.append(t) or t for t in targets))
            solved.append(D)
            return D

        monkeypatch.setattr(derivations, "_ad_preimages", recording)
        maps += [delta(a, D, n) for D in n_derivation_space(a, n).basis_maps()]
        assert verify_second_statement(a, n).passed
        maps += solved
    for D in maps:
        _assert_stored_form(D)


@pytest.mark.parametrize("name", ("sl2", "colorSl2", "osp12", "torus3/Z"))
def test_preimage_maps_equal_the_grid_built_from_their_columns(name):
    # the reference: the certified columns zipped into a d x d grid through the public constructor
    a = _algebra(name)
    for D in n_derivation_space(a, 2).basis_maps() + list(_ad_basis(a)):
        columns = [_solve_ad_preimage(a, map_bracket(D, x)) for x in _ad_basis(a)]
        assert delta(a, D, 2) == GradedMap(a, D.degree, zip(*columns)), name


def test_a_preimage_column_outside_the_block_raises(monkeypatch):
    # a certified column cannot leave the block on a centerless algebra, so the
    # solve is replaced by one that puts e_k, odd, into column 0, even
    a = catalog.get("osp12")
    assert a.degrees[0] == a.group.zero()
    k = next(i for i, g in enumerate(a.degrees) if g != a.group.zero())
    monkeypatch.setattr(derivations, "_solve_ad_preimage", lambda a, target: a.basis_vector(k))
    with pytest.raises(ValueError, match=rf"entry \({k}, 0\) violates the degree-deg\(0,\) block support"):
        _ad_preimages(a, a.group.zero(), _ad_basis(a))
