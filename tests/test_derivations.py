import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from colorlie import catalog, cli, derivations
from colorlie.algebra import ColorAlgebra, structure_constants_from_table
from colorlie.cli import run
from colorlie.derivations import (
    DerivationSpace,
    GradedMap,
    ad,
    block_coordinates,
    delta,
    derivation_color_algebra,
    inner_derivation_space,
    is_n_derivation,
    map_bracket,
    n_derivation_space,
    verify_ad_compat,
    verify_centralizer_trivial,
    verify_closure,
    verify_delta_membership,
    verify_inner_ideal,
    verify_nder_equals_der,
    verify_second_statement,
)
from colorlie.errors import (
    AlgebraMismatch,
    BadArity,
    NonHomogeneous,
    NotClosed,
    PreconditionFailed,
)
from colorlie.fileio import Records, json_text, parse_algebra, serialize_algebra
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.linalg import Subspace, kernel_from_rows

from test_cli import _assert_same_text

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def algebras():
    names = ("sl2", "heis3", "aff2", "abelian(2)", "colorSl2", "osp12")
    return {name: catalog.get(name) for name in names}


def test_ad_examples(algebras):
    sl2 = algebras["sl2"]
    adh = ad(sl2, sl2.basis_vector(1))
    # diagonal (2, 0, -2) on basis (e, h, f)
    for k in range(3):
        for j in range(3):
            expected = {0: 2, 1: 0, 2: -2}[j] if k == j else 0
            assert adh.matrix[k][j] == expected

    heis = algebras["heis3"]
    assert ad(heis, heis.basis_vector(2)).is_zero()

    csl2 = algebras["colorSl2"]
    adx = ad(csl2, csl2.basis_vector(0))
    assert adx.degree.residues == (1, 0)
    # support only where deg k = (1,0) + deg j
    for k in range(3):
        for j in range(3):
            if adx.matrix[k][j]:
                assert csl2.degrees[k] == adx.degree + csl2.degrees[j]


def test_ad_requires_homogeneous(algebras):
    csl2 = algebras["colorSl2"]
    with pytest.raises(NonHomogeneous):
        ad(csl2, csl2.vector([1, 1, 0]))


def test_graded_map_block_support(algebras):
    csl2 = algebras["colorSl2"]
    z, o = csl2.zero_scalar(), csl2.one_scalar()
    bad = [[o if (k, j) == (0, 0) else z for j in range(3)] for k in range(3)]
    with pytest.raises(ValueError):
        GradedMap(csl2, csl2.group.element((1, 0)), bad)


def test_block_coordinates_partition(algebras):
    for name, a in algebras.items():
        seen = set()
        for gamma in a.group.elements():
            coords = block_coordinates(a, gamma)
            assert seen.isdisjoint(coords), name
            # plain group arithmetic, independent of the algebra's degree table
            assert all(a.degrees[k] == gamma + a.degrees[j] for k, j in coords), name
            seen.update(coords)
        assert len(seen) == a.dim * a.dim, name


def _color_heisenberg_z12():
    """[x, y] = z with z central, graded by Z12 x Z12 with deg x = (1, 0), deg y = (0, 1)."""
    group = GradingGroup([12, 12])
    bichar = Bicharacter(group, [[0, 1], [11, 0]])
    degrees = tuple(group.element(r) for r in ((1, 0), (0, 1), (1, 1)))
    constants = structure_constants_from_table(group, bichar, degrees, {(0, 1): {2: 1}}, 3)
    a = ColorAlgebra(group, bichar, degrees, constants, names=("x", "y", "z"))
    assert a.check_axioms().ok
    return a


def test_blocks_cover_the_group_with_zero_off_the_support():
    a = _color_heisenberg_z12()
    support = {
        a.degrees[k] - a.degrees[j] for k in range(a.dim) for j in range(a.dim)
    }
    assert len(support) == 7
    space = n_derivation_space(a, 2)
    assert [gamma for gamma, _ in space.walk()] == a.group.elements()
    blocks = dict(space.walk())
    for gamma in a.group.elements():
        assert (blocks[gamma].ambient_dim > 0) == (gamma in support), gamma
    assert space.total_dim == 6
    assert all(is_n_derivation(a, D, 2) for D in space.basis_maps())


def _shuffled(space):
    # the same blocks handed over as a dict in a scrambled order
    items = list(space.blocks.items())
    random.Random(len(items)).shuffle(items)
    return DerivationSpace(space.algebra, space.n, dict(items))


@pytest.mark.parametrize("name", ("colorSl2z15", "cheis3z60"))
def test_space_from_an_unordered_dict_walks_in_group_order(name, monkeypatch):
    path = DATA_DIR / f"{name}.json"
    a = parse_algebra(path.read_text(encoding="utf-8"))
    space = n_derivation_space(a, 2)
    shuffled = _shuffled(space)
    assert list(shuffled.blocks) == list(a.degree_table().blocks)
    assert list(shuffled.walk()) == list(space.walk())
    assert [gamma for gamma, _ in shuffled.walk()] == a.group.elements()
    assert repr(shuffled) == repr(space)
    assert shuffled.basis_maps() == space.basis_maps()

    argvs = (
        ["der", str(path), "--n", "2", "--json"],
        ["verify", str(path), "--n", "3", "--lemmas", "--json"],
    )
    expected = [run(argv) for argv in argvs]
    real = derivations.n_derivation_space

    def scrambled(*args, **kwargs):
        return _shuffled(real(*args, **kwargs))

    monkeypatch.setattr(derivations, "n_derivation_space", scrambled)
    monkeypatch.setattr(cli, "n_derivation_space", scrambled)
    assert [run(argv) for argv in argvs] == expected


def _full_group_rows(s, t):
    # the comparison as it was made over a dict covering the whole group
    rows = []
    s_blocks, t_blocks = dict(s.walk()), dict(t.walk())
    for gamma in s.algebra.group.elements():
        x, y = s_blocks[gamma], t_blocks[gamma]
        rows.append((list(gamma.residues), x.dim, y.dim, x == y))
    return rows, all(row[3] for row in rows)


def _comparison_spaces():
    # spaces over one group: of one algebra, and of another with another support
    a = _color_heisenberg_z12()
    m = a.conductor
    der = n_derivation_space(a, 2)
    populated = [g for g, sub in der.blocks.items() if sub.dim]
    # the same algebra, with populated degrees dropped, zeroed or left out
    spaces = [
        der,
        inner_derivation_space(a),
        DerivationSpace(a, 2, {populated[0]: der.blocks[populated[0]]}),
        DerivationSpace(a, 2, {
            gamma: Subspace.zero(sub.ambient_dim, m) for gamma, sub in der.blocks.items()
        }),
        DerivationSpace(a, 2, {}),
    ]
    # an abelian algebra on the same group whose degree table has another support
    group = a.group
    degrees = tuple(group.element(r) for r in ((2, 0), (0, 3), (5, 7)))
    zeros = structure_constants_from_table(group, a.bichar, degrees, {}, 3)
    b = ColorAlgebra(group, a.bichar, degrees, zeros, names=("u", "v", "w"))
    assert set(b.degree_table().blocks) != set(a.degree_table().blocks)
    spaces += [n_derivation_space(b, 2), DerivationSpace(b, 2, {})]
    return der, spaces


def test_compare_blocks_matches_the_full_group_comparison():
    der, spaces = _comparison_spaces()
    for s in spaces:
        for t in spaces:
            assert derivations._compare_blocks(s, t) == _full_group_rows(s, t)
    assert not derivations._compare_blocks(der, spaces[2])[1]
    assert derivations._compare_blocks(spaces[4], spaces[6])[1]


def test_columns_match_the_walk():
    _, spaces = _comparison_spaces()
    for space in spaces:
        group = space.algebra.group
        empty = derivations._empty_block(space.algebra.conductor)
        walked = list(space.walk())
        # the walk, checked against the group and the support blocks by lookup
        assert [gamma for gamma, _ in walked] == group.elements()
        assert all(sub is space.blocks.get(gamma, empty) for gamma, sub in walked)
        residues, (dims, blocks, degrees) = space._columns(
            lambda gamma, sub: sub.dim, lambda gamma, sub: sub, lambda gamma, sub: gamma
        )
        assert list(residues) == [list(gamma.residues) for gamma, _ in walked]
        assert dims == [sub.dim for _, sub in walked]
        assert all(x is sub for x, (_, sub) in zip(blocks, walked))
        assert degrees == [gamma if gamma in space.blocks else None for gamma, _ in walked]


def _walked_centralizer_dims(a, nder):
    # the per-degree loop over walk(), with the basis maps counted off block by block
    maps = nder.basis_maps()
    dims = []
    start = 0
    for gamma, sub in nder.walk():
        dim = sub.dim
        if dim:
            block_maps = maps[start:start + dim]
            rows = [
                row
                for x in derivations._ad_basis(a)
                for row in zip(*(map_bracket(B, x).block_vector() for B in block_maps))
            ]
            dim = kernel_from_rows(rows, sub.dim, a.conductor).dim
            start += sub.dim
        dims.append((list(gamma.residues), dim))
    return dims


def test_centralizer_columns_match_the_walk_over_3600_degrees(monkeypatch):
    a = parse_algebra((DATA_DIR / "cheis3z60.json").read_text(encoding="utf-8"))
    assert a.group.size == 3600 and not a.is_perfect()
    # the lemma refuses an algebra that is not perfect; its per-degree lists are what is checked
    monkeypatch.setattr(ColorAlgebra, "is_perfect", lambda self: True)
    for n in (2, 3):
        report = verify_centralizer_trivial(a, n)
        expected = _walked_centralizer_dims(a, n_derivation_space(a, n))
        assert [deg for deg, _ in report.block_dims] == [list(g.residues) for g in a.group.elements()]
        assert report.block_dims == expected
        assert report.total_dim == sum(dim for _, dim in expected)
        assert any(sub.dim for sub in n_derivation_space(a, n).blocks.values())


def test_cli_der_lists_every_degree(tmp_path):
    path = tmp_path / "cheis.json"
    path.write_text(serialize_algebra(_color_heisenberg_z12()))
    code, out = run(["der", str(path), "--json"])
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert [b["degree"] for b in blocks] == [
        list(g.residues) for g in GradingGroup([12, 12]).elements()
    ]


def test_inner_space_dims(algebras):
    assert inner_derivation_space(algebras["sl2"]).total_dim == 3
    assert inner_derivation_space(algebras["heis3"]).total_dim == 2
    assert inner_derivation_space(algebras["abelian(2)"]).total_dim == 0
    for name, a in algebras.items():
        assert (
            inner_derivation_space(a).total_dim == a.dim - a.center().dim
        ), name


def test_der_dims_against_independent_oracle(algebras):
    # dimensions frozen from a standalone brute-force elimination over the
    # raw endomorphism coordinates (no shared code)
    assert n_derivation_space(algebras["sl2"], 2).total_dim == 3
    assert n_derivation_space(algebras["heis3"], 2).total_dim == 6
    assert n_derivation_space(algebras["aff2"], 2).total_dim == 2


def test_nder_examples(algebras):
    sl2 = algebras["sl2"]
    der = n_derivation_space(sl2, 2)
    nder3 = n_derivation_space(sl2, 3)
    assert der.total_dim == 3 and nder3.total_dim == 3
    gamma = sl2.group.zero()
    assert der.blocks[gamma] == nder3.blocks[gamma]
    # for this perfect centerless algebra Der coincides with the inner space
    inner = inner_derivation_space(sl2)
    assert der.blocks[gamma] == inner.blocks[gamma]

    ab = algebras["abelian(2)"]
    assert n_derivation_space(ab, 3).total_dim == 4

    # every triple bracket vanishes, so every endomorphism is a 3-derivation
    heis = algebras["heis3"]
    assert n_derivation_space(heis, 3).total_dim == 9


def test_nder_arity_and_cap(algebras):
    with pytest.raises(BadArity):
        n_derivation_space(algebras["sl2"], 1)
    with pytest.raises(BadArity):
        n_derivation_space(algebras["sl2"], 5)
    # explicit override lifts the cap
    assert n_derivation_space(algebras["aff2"], 5, max_n=5).n == 5


def test_is_n_derivation_examples(algebras):
    sl2 = algebras["sl2"]
    adh = ad(sl2, sl2.basis_vector(1))
    assert is_n_derivation(sl2, adh, 3)

    ident = GradedMap(
        sl2,
        sl2.group.zero(),
        [
            [sl2.one_scalar() if i == j else sl2.zero_scalar() for j in range(3)]
            for i in range(3)
        ],
    )
    assert not is_n_derivation(sl2, ident, 3)

    ab = algebras["abelian(2)"]
    ident2 = GradedMap(
        ab,
        ab.group.zero(),
        [
            [ab.one_scalar() if i == j else ab.zero_scalar() for j in range(2)]
            for i in range(2)
        ],
    )
    assert is_n_derivation(ab, ident2, 3)
    with pytest.raises(BadArity):
        is_n_derivation(ab, ident2, 1)


def _random_block_map(rng, a, gamma):
    coords = block_coordinates(a, gamma)
    vec = [
        a.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in coords
    ]
    return GradedMap.from_block_vector(a, gamma, vec)


def test_oracle_equivalence(algebras):
    # kernel route vs brute-force route must agree on members and non-members
    rng = random.Random(42)
    for name, a in algebras.items():
        for n in (2, 3, 4):
            space = n_derivation_space(a, n)
            for D in space.basis_maps():
                assert is_n_derivation(a, D, n), (name, n)
            for _ in range(25 if n < 4 else 8):
                gamma = rng.choice(a.group.elements())
                D = _random_block_map(rng, a, gamma)
                assert space.contains_map(D) == is_n_derivation(a, D, n), (name, n)


def test_map_bracket_examples(algebras):
    sl2 = algebras["sl2"]
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    assert map_bracket(ad(sl2, e), ad(sl2, f)) == ad(sl2, h)

    D = ad(sl2, h)  # degree 0, eps(0,0) = 1
    assert map_bracket(D, D).is_zero()
    zero = GradedMap.zero(sl2, sl2.group.zero())
    assert map_bracket(D, zero).is_zero()


def test_ad_is_homomorphism(algebras):
    for name, a in algebras.items():
        basis = [a.basis_vector(i) for i in range(a.dim)]
        for x in basis:
            for y in basis:
                lhs = map_bracket(ad(a, x), ad(a, y))
                rhs = ad(a, a.bracket(x, y))
                assert lhs == rhs, name


def test_delta_examples(algebras):
    sl2 = algebras["sl2"]
    for i in range(3):
        adx = ad(sl2, sl2.basis_vector(i))
        assert delta(sl2, adx, 3) == adx
    zero = GradedMap.zero(sl2, sl2.group.zero())
    assert delta(sl2, zero, 3).is_zero()
    # fixed point on the whole 3-derivation space
    for D in n_derivation_space(sl2, 3).basis_maps():
        assert delta(sl2, D, 3) == D


def test_delta_preconditions(algebras):
    heis = algebras["heis3"]
    zero = GradedMap.zero(heis, heis.group.zero())
    with pytest.raises(PreconditionFailed):
        delta(heis, zero, 3)
    with pytest.raises(BadArity):
        delta(algebras["sl2"], GradedMap.zero(algebras["sl2"], algebras["sl2"].group.zero()), 1)


def test_derivation_color_algebra(algebras):
    sl2 = algebras["sl2"]
    A = derivation_color_algebra(sl2, n_derivation_space(sl2, 2))
    assert A.dim == 3
    assert A.is_perfect()
    assert A.center().dim == 0
    assert A.check_axioms().ok

    ab1 = catalog.get("abelian(1)")
    B = derivation_color_algebra(ab1, n_derivation_space(ab1, 2))
    assert B.dim == 1
    assert B.derived_subalgebra().dim == 0

    csl2 = algebras["colorSl2"]
    C = derivation_color_algebra(csl2, n_derivation_space(csl2, 2))
    assert C.check_axioms().ok
    assert sorted(tuple(g.residues) for g in C.degrees) == [(0, 1), (1, 0), (1, 1)]


def test_derivation_color_algebra_rejects_a_space_not_closed(algebras):
    # [ad e, ad f] = ad h escapes span{ad e, ad f}; pair (0, 0) brackets to zero
    sl2 = algebras["sl2"]
    gamma = sl2.group.zero()
    rows = [ad(sl2, sl2.basis_vector(i)).block_vector() for i in (0, 2)]
    space = DerivationSpace(sl2, 2, {gamma: Subspace.from_rows(9, rows, sl2.conductor)})
    assert space.total_dim == 2
    with pytest.raises(NotClosed) as err:
        derivation_color_algebra(sl2, space)
    assert err.value.pair == (0, 1)


COORDINATE_ENTRIES = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(2)", "abelian(3)")


@pytest.mark.parametrize("name", COORDINATE_ENTRIES)
def test_coordinates_follow_the_basis_maps(name):
    a = catalog.get(name)
    zero, one = a.zero_scalar(), a.one_scalar()
    rng = random.Random(name)
    outside = 0
    for n in (2, 3):
        space = n_derivation_space(a, n)
        maps = space.basis_maps()
        assert len(maps) == space.total_dim
        for p, D in enumerate(maps):
            unit = tuple(one if q == p else zero for q in range(len(maps)))
            assert space.coordinates(D) == unit, (name, n, p)
        # a combination inside one block comes back as its coefficients
        for gamma, sub in space.blocks.items():
            if not sub.dim:
                continue
            coeffs = [
                a.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(sub.dim)
            ]
            vec = [zero] * sub.ambient_dim
            for c, row in zip(coeffs, sub.basis.entries):
                vec = [x + c * y for x, y in zip(vec, row)]
            got = space.coordinates(GradedMap.from_block_vector(a, gamma, vec))
            start = [mp.degree for mp in maps].index(gamma)
            assert got[start:start + sub.dim] == tuple(coeffs), (name, n, gamma)
            assert not any(got[:start]) and not any(got[start + sub.dim:])
        # a matrix unit lies in the space exactly when it is an n-derivation
        for gamma in a.group.elements():
            assert space.coordinates(GradedMap.zero(a, gamma)) == (zero,) * space.total_dim
            size = len(block_coordinates(a, gamma))
            for pos in range(size):
                vec = [one if q == pos else zero for q in range(size)]
                E = GradedMap.from_block_vector(a, gamma, vec)
                inside = space.coordinates(E) is not None
                assert inside == space.contains_map(E) == is_n_derivation(a, E, n), (name, n)
                outside += not inside
    if name not in ("abelian(2)", "abelian(3)"):
        assert outside, name


def test_coordinates_reject_a_map_over_another_algebra(algebras):
    sl2, heis = algebras["sl2"], algebras["heis3"]
    space = n_derivation_space(sl2, 2)
    for D in (ad(heis, heis.basis_vector(0)), GradedMap.zero(heis, heis.group.zero())):
        with pytest.raises(AlgebraMismatch):
            space.coordinates(D)
        with pytest.raises(AlgebraMismatch):
            space.contains_map(D)


def test_verify_nder_equals_der(algebras):
    rep = verify_nder_equals_der(algebras["sl2"], 3)
    assert rep.equal and rep.passed
    assert rep.der_total == rep.nder_total == 3
    assert rep.delta_fixed_point is True

    rep = verify_nder_equals_der(algebras["colorSl2"], 3)
    assert rep.equal and rep.passed

    rep = verify_nder_equals_der(algebras["heis3"], 3)
    assert not rep.preconditions_hold
    assert rep.delta_fixed_point is None  # nothing asserted
    assert not rep.passed


def test_verify_second_statement(algebras):
    for name in ("sl2", "colorSl2"):
        rep = verify_second_statement(algebras[name], 3)
        assert rep.equal, name
        assert rep.inner_total == rep.nder_total == 3, name
        assert rep.preserves_inner_image, name
        assert not rep.witness_failures, name
        assert all(w is not None for w in rep.witnesses), name
    with pytest.raises(PreconditionFailed):
        verify_second_statement(algebras["heis3"], 3)


def test_verify_closure(algebras):
    assert verify_closure(algebras["sl2"], 3, 100).passed
    assert verify_closure(algebras["abelian(2)"], 3, 10).passed
    assert verify_closure(algebras["colorSl2"], 4, 100).passed
    # deterministic
    r1 = verify_closure(algebras["osp12"], 3, 20)
    r2 = verify_closure(catalog.get("osp12"), 3, 20)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_verify_inner_ideal(algebras):
    assert verify_inner_ideal(algebras["sl2"], 3).passed
    assert verify_inner_ideal(algebras["colorSl2"], 3).passed
    with pytest.raises(PreconditionFailed):
        verify_inner_ideal(algebras["aff2"], 3)


def test_verify_centralizer_trivial(algebras):
    assert verify_centralizer_trivial(algebras["sl2"], 3).total_dim == 0
    assert verify_centralizer_trivial(algebras["colorSl2"], 4).total_dim == 0
    with pytest.raises(PreconditionFailed):
        verify_centralizer_trivial(algebras["abelian(2)"], 3)


def test_verify_delta_membership(algebras):
    assert verify_delta_membership(algebras["sl2"], 3).passed
    assert verify_delta_membership(algebras["sl2"], 4).passed
    with pytest.raises(PreconditionFailed):
        verify_delta_membership(algebras["heis3"], 3)
    with pytest.raises(BadArity):
        verify_delta_membership(algebras["sl2"], 2)


def test_verify_ad_compat(algebras):
    assert verify_ad_compat(algebras["sl2"]).passed
    assert verify_ad_compat(algebras["abelian(2)"]).passed
    assert verify_ad_compat(algebras["colorSl2"]).passed


def test_injectivity_of_ad_on_centerless(algebras):
    for name in ("sl2", "colorSl2", "osp12"):
        a = algebras[name]
        assert inner_derivation_space(a).total_dim == a.dim, name


def test_per_algebra_memo_returns_the_same_object():
    base = catalog.get("sl2")
    a = ColorAlgebra(base.group, base.bichar, base.degrees, base.constants)
    assert not a._cache
    calls = [
        a.degree_table,
        a._grading_scan,
        a._axiom_report,
        a.derived_subalgebra,
        a.center,
        lambda: derivations._ad_basis(a),
        lambda: derivations._basis_bracket_table(a, 2),
        lambda: inner_derivation_space(a),
        lambda: derivations._ad_factor(a),
        lambda: n_derivation_space(a, 2),
    ]
    for call in calls:
        assert call() is call()
    # n is part of the key
    assert derivations._basis_bracket_table(a, 3) is not derivations._basis_bracket_table(a, 2)
    assert n_derivation_space(a, 3) is not n_derivation_space(a, 2)
    assert n_derivation_space(a, 3).n == 3
    # the checks on n run on every call, cached space or not
    with pytest.raises(BadArity):
        n_derivation_space(a, 3, max_n=2)
    with pytest.raises(BadArity):
        n_derivation_space(a, 1)


def test_a_raising_memo_call_keeps_nothing():
    a = catalog.get("heis3")
    derivations._ad_basis(a)
    before = set(a._cache)
    for _ in range(2):
        with pytest.raises(PreconditionFailed):
            derivations._ad_factor(a)
    assert set(a._cache) == before


# -- the per-degree report lists, held as Records -----------------------------


def _part1_display(report) -> list:
    # the list part 1 gave before Records: one dict per degree
    return [
        {"degree": deg, "der_dim": dd, "nder_dim": nd, "equal": eq}
        for deg, dd, nd, eq in report.block_dims
    ]


def _part2_display(report) -> list:
    return [
        {"degree": deg, "inner_dim": idim, "nder_dim": nd, "equal": eq}
        for deg, idim, nd, eq in report.block_dims
    ]


def _centralizer_display(report) -> list:
    return [{"degree": deg, "dim": dim} for deg, dim in report.block_dims]


@pytest.mark.parametrize(
    "name",
    [name.replace("(N)", "(3)") for name in catalog.names()] + ["colorSl2z15.json", "cheis3z60.json"],
)
@pytest.mark.parametrize("n", (2, 3))
def test_report_blocks_are_written_as_the_dict_display(name, n, monkeypatch):
    if name.endswith(".json"):
        a = parse_algebra((DATA_DIR / name).read_text(encoding="utf-8"))
    else:
        a = catalog.get(name)
    reports = [(verify_nder_equals_der(a, n), _part1_display)]
    try:
        reports.append((verify_second_statement(a, n), _part2_display))
    except PreconditionFailed:
        assert name not in ("sl2", "colorSl2", "osp12", "colorSl2z15.json"), name
    with monkeypatch.context() as m:
        # the lemma refuses an algebra that is not perfect; its per-degree list is what is checked
        m.setattr(ColorAlgebra, "is_perfect", lambda self: True)
        reports.append((verify_centralizer_trivial(a, n), _centralizer_display))
    for report, display in reports:
        expected = display(report)
        doc = report.to_jsonable()
        assert isinstance(doc["blocks"], Records), type(report)
        assert len(doc["blocks"]) == len(expected) == a.group.size
        assert doc["blocks"] == expected and list(doc["blocks"]) == expected
        _assert_same_text(json_text(doc), json.dumps(doc | {"blocks": expected}, indent=2, sort_keys=True))
