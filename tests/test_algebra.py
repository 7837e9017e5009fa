import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from colorlie import catalog
from colorlie.algebra import ColorAlgebra, structure_constants_from_table
from colorlie.derivations import derivation_color_algebra, n_derivation_space
from colorlie.errors import (
    DimensionMismatch,
    NonHomogeneous,
    TooFewArguments,
    ValidationError,
)
from colorlie.fileio import parse_algebra, serialize_algebra
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.linalg import Subspace, kernel_from_rows
from colorlie.scalars import CycloScalar

ALL_NAMES = ("sl2", "heis3", "aff2", "abelian(2)", "colorSl2", "osp12")
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def algebras():
    return {name: catalog.get(name) for name in ALL_NAMES}


def test_catalog_entries_pass_axioms(algebras):
    for name, a in algebras.items():
        assert a.bichar.validate().ok, name
        assert a.check_axioms().ok, name


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("nope")
    assert "abelian(N)" in catalog.names()


@pytest.mark.parametrize(
    "orders,table",
    [
        # skew fails: eps(g, g) = zeta_3 is not its own inverse
        ([3], [[1]]),
        # not well defined: on Z2 x Z4, eps((0,1), 2*(1,0)) = 1 but eps((0,1), (1,0))^2 = -1
        ([2, 4], [[0, 1], [3, 0]]),
    ],
)
def test_algebra_refuses_an_invalid_bicharacter(orders, table):
    group = GradingGroup(orders)
    bichar = Bicharacter(group, table)
    assert not bichar.validate().ok
    with pytest.raises(ValueError, match="invalid bicharacter"):
        ColorAlgebra(group, bichar, [group.zero()], [[[0]]])


def _mutate(a, i, j, k, delta):
    constants = [
        [[c for c in row] for row in plane] for plane in a.constants
    ]
    constants[i][j][k] = constants[i][j][k] + a.scalar(delta)
    return ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)


def test_sl2_jacobi_mutation(algebras):
    # basis (e, h, f); bumping the [h, e] -> e constant from 2 to 3 must
    # surface a Jacobi violation on the (h, e, f) triple
    broken = _mutate(algebras["sl2"], 1, 0, 0, 1)
    report = broken.check_axioms()
    assert not report.ok
    assert (1, 0, 2) in report.jacobi


def test_antisymmetry_mutation(algebras):
    broken = _mutate(algebras["sl2"], 0, 2, 1, 1)  # [e,f]: h coefficient 1 -> 2
    report = broken.check_axioms()
    assert (0, 2) in report.antisymmetry


def test_grading_mutation(algebras):
    # colorSl2 diagonal slots all lie outside the degree-sum component
    broken = _mutate(algebras["colorSl2"], 0, 0, 1, 1)
    report = broken.check_axioms()
    assert (0, 0, 1) in report.grading


def test_bracket_examples(algebras):
    sl2 = algebras["sl2"]
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    assert sl2.bracket(h, e) == sl2.vector([2, 0, 0])
    assert sl2.bracket(e, e) == sl2.zero_vector()

    csl2 = algebras["colorSl2"]
    x, y, z = (csl2.basis_vector(i) for i in range(3))
    # [y,x] = -eps(y,x)[x,y] = +z since eps(y,x) = -1
    assert csl2.bracket(y, x) == z


def test_bracket_dimension_mismatch(algebras):
    with pytest.raises(DimensionMismatch):
        algebras["sl2"].bracket((CycloScalar.one(),), algebras["sl2"].zero_vector())


@pytest.mark.parametrize("length", [1, 4])
def test_degree_of_rejects_a_vector_of_the_wrong_length(algebras, length):
    # a short vector must not read its missing entries as zero, nor a long one
    # end in a bare IndexError
    sl2 = algebras["sl2"]
    v = (CycloScalar.one(),) * length
    with pytest.raises(DimensionMismatch):
        sl2.degree_of(v)
    with pytest.raises(DimensionMismatch):
        sl2.is_homogeneous(v)


def test_left_normed_bracket(algebras):
    sl2 = algebras["sl2"]
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    # [[e,f],h] = [h,h] = 0
    assert sl2.left_normed_bracket([e, f, h]) == sl2.zero_vector()
    # [[h,e],f] = [2e,f] = 2h
    assert sl2.left_normed_bracket([h, e, f]) == sl2.vector([0, 2, 0])
    assert sl2.left_normed_bracket([e, sl2.zero_vector(), f]) == sl2.zero_vector()
    with pytest.raises(TooFewArguments):
        sl2.left_normed_bracket([e])


def test_degree_of(algebras):
    csl2 = algebras["colorSl2"]
    assert csl2.degree_of(csl2.basis_vector(0)).residues == (1, 0)
    assert csl2.degree_of(csl2.zero_vector()).is_zero()
    mixed = csl2.vector([1, 1, 0])
    with pytest.raises(NonHomogeneous):
        csl2.degree_of(mixed)
    assert not csl2.is_homogeneous(mixed)


def test_derived_subalgebra(algebras):
    assert algebras["sl2"].derived_subalgebra().dim == 3
    assert algebras["sl2"].is_perfect()
    heis = algebras["heis3"]
    derived = heis.derived_subalgebra()
    assert derived.dim == 1
    assert derived.contains_vector(heis.basis_vector(2))
    assert not heis.is_perfect()
    assert algebras["abelian(2)"].derived_subalgebra().dim == 0
    assert algebras["aff2"].derived_subalgebra().dim == 1


def test_center(algebras):
    assert algebras["sl2"].center().dim == 0
    heis = algebras["heis3"]
    center = heis.center()
    assert center.dim == 1 and center.contains_vector(heis.basis_vector(2))
    ab = algebras["abelian(2)"]
    assert ab.center().dim == ab.dim


def test_centralizer(algebras):
    heis = algebras["heis3"]
    full_basis = [heis.basis_vector(i) for i in range(3)]
    assert heis.centralizer(full_basis) == heis.center()
    # solving [v, e1] = 0 by hand kills the e2 coordinate only
    cent = heis.centralizer([heis.basis_vector(0)])
    expected = Subspace.from_rows(
        3, [heis.basis_vector(0), heis.basis_vector(2)], heis.conductor
    )
    assert cent == expected
    assert heis.centralizer([]).dim == 3


def _sheared_sl2(sl2):
    """sl2 in the basis (e + h, h, f), where [b_i, b_j] has several b_k at once."""
    basis = [sl2.vector(v) for v in ((1, 1, 0), (0, 1, 0), (0, 0, 1))]
    constants = []
    for x in basis:
        plane = []
        for y in basis:
            ve, vh, vf = sl2.bracket(x, y)
            plane.append([ve, vh - ve, vf])
        constants.append(plane)
    return ColorAlgebra(sl2.group, sl2.bichar, sl2.degrees, constants)


def test_centralizer_of_combinations_matches_the_bracket(algebras):
    # a vector with several nonzero coordinates, or a non-monomial basis, sums
    # several constants into one entry of a row
    rng = random.Random(7)
    cases = dict(algebras, sheared_sl2=_sheared_sl2(algebras["sl2"]))
    for name, a in cases.items():
        d = a.dim
        basis = [a.basis_vector(i) for i in range(d)]
        for _ in range(3):
            vectors = [
                a.vector([rng.randint(-2, 2) for _ in range(d)])
                for _ in range(rng.randint(1, 2))
            ]
            rows = [[a.bracket(basis[i], s)[k] for i in range(d)] for s in vectors for k in range(d)]
            assert a.centralizer(vectors) == kernel_from_rows(rows, d, a.conductor), name


def test_center_inside_centralizers(algebras):
    rng = random.Random(5)
    for name, a in algebras.items():
        center = a.center()
        vectors = []
        for i in rng.sample(range(a.dim), k=a.dim):
            vectors.append(a.basis_vector(i))
            cent = a.centralizer(vectors)
            assert cent.contains(center), name
        # centralizer is antitone along the nesting
        prev = a.centralizer(vectors[:1])
        for upto in range(2, len(vectors) + 1):
            cur = a.centralizer(vectors[:upto])
            assert prev.contains(cur)
            prev = cur


def test_antisymmetry_exhaustive(algebras):
    for name, a in algebras.items():
        constants = a.constants
        for i in range(a.dim):
            for j in range(a.dim):
                e = a.bichar.eps(a.degrees[i], a.degrees[j])
                lhs = constants[i][j]
                rhs = constants[j][i]
                assert all((x + e * y) == 0 for x, y in zip(lhs, rhs)), (name, i, j)


def test_derived_is_bracket_closed(algebras):
    for name, a in algebras.items():
        derived = a.derived_subalgebra()
        rows = list(derived.basis.entries)
        for s in rows:
            for t in rows:
                assert derived.contains_vector(a.bracket(s, t)), name


def test_table_fill_and_cross_check():
    group = GradingGroup([])
    bichar = Bicharacter(group, [])
    degrees = [group.zero(), group.zero()]
    constants = structure_constants_from_table(
        group, bichar, degrees, {(0, 1): {1: Fraction(1)}}, 2
    )
    assert constants[1][0][1] == -1
    # a consistent redundant listing is accepted
    structure_constants_from_table(
        group, bichar, degrees, {(0, 1): {1: 1}, (1, 0): {1: -1}}, 2
    )
    with pytest.raises(ValidationError):
        structure_constants_from_table(
            group, bichar, degrees, {(0, 1): {1: 1}, (1, 0): {1: 1}}, 2
        )


def _reference_table_grid(group, bichar, degrees, table, dim):
    # structure_constants_from_table as it filled a dense grid over every k
    m = group.exponent
    zero = CycloScalar.zero(m)
    grid = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), result in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValidationError(f"bracket indices ({i}, {j}) out of range", (i, j))
        for k, c in result.items():
            grid[i][j][k] = c if isinstance(c, CycloScalar) else CycloScalar.from_rational(c, m)
    for (i, j) in table:
        if (j, i) in table:
            if i < j:
                e = bichar.eps(degrees[j], degrees[i])
                for k in range(dim):
                    if grid[j][i][k] != -(e * grid[i][j][k]):
                        raise ValidationError(
                            f"brackets ({i},{j}) and ({j},{i}) violate antisymmetry at k={k}",
                            (j, i, k),
                        )
        elif i != j:
            e = bichar.eps(degrees[j], degrees[i])
            for k in range(dim):
                if grid[i][j][k]:
                    grid[j][i][k] = -(e * grid[i][j][k])
    return grid


def _pairs_of(grid):
    return tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane) for plane in grid)


def _table_outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc), exc.location


@lru_cache(maxsize=None)
def _table_setting(name):
    # gradings with conductors 2, 3 and 30, and the trivial one
    if name in ("osp12", "heis3"):
        return catalog.get(name)
    return parse_algebra((DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))


@st.composite
def _bracket_tables(draw):
    # entries on random pairs, some out of range, and the swapped partners of
    # some of them: exact, or moved at one k so that the cross-check fails
    a = _table_setting(draw(st.sampled_from(("osp12", "torus3", "colorSl2z15", "heis3"))))
    d, m = a.dim, a.conductor
    values = st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
        st.builds(CycloScalar.root, st.just(m), st.integers(0, m - 1)),
    )
    entries = st.dictionaries(st.integers(0, d - 1), values, max_size=3)
    table = draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), entries, max_size=6))
    for (i, j), result in list(table.items()):
        if draw(st.booleans()):
            e = a.bichar.eps(a.degrees[j], a.degrees[i])
            partner = {k: -(e * a.scalar(c)) for k, c in result.items()}
            if draw(st.booleans()):
                k = draw(st.integers(0, d - 1))
                partner[k] = partner.get(k, a.zero_scalar()) + draw(values)
            table.setdefault((j, i), partner)
    if draw(st.integers(0, 9)) == 5:
        table[draw(st.sampled_from(((-1, 0), (0, d), (d, d - 1))))] = draw(entries)
    return a, table


@given(_bracket_tables())
def test_sparse_table_pairs_equal_the_grid_of_the_table(case):
    # the parser's entry builds the pairs with no grid; the grid of
    # structure_constants_from_table and the dense reference fill agree with it,
    # and a failed cross-check gives the same message and location on all three
    a, table = case
    group, bichar, degrees, d = a.group, a.bichar, a.degrees, a.dim
    sparse = _table_outcome(lambda: ColorAlgebra._from_table(group, bichar, degrees, table)._nonzero)
    grid = _table_outcome(lambda: _pairs_of(structure_constants_from_table(group, bichar, degrees, table, d)))
    reference = _table_outcome(lambda: _pairs_of(_reference_table_grid(group, bichar, degrees, table, d)))
    assert sparse == grid == reference


def _reference_axiom_lists(a):
    """Antisymmetry and Jacobi violations by plain bracket evaluation, in index order."""
    d = a.dim
    eps = a.bichar.eps
    basis = [a.basis_vector(i) for i in range(d)]
    # the basis brackets [e_i, e_j], evaluated once; the outer brackets below are evaluated in full
    inner = [[a.bracket(x, y) for y in basis] for x in basis]
    antisymmetry = [
        (i, j)
        for i in range(d)
        for j in range(d)
        if inner[i][j] != tuple(-(eps(a.degrees[i], a.degrees[j]) * c) for c in inner[j][i])
    ]
    jacobi = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = basis[i], basis[j], basis[k]
                terms = (
                    (eps(a.degrees[k], a.degrees[i]), a.bracket(x, inner[j][k])),
                    (eps(a.degrees[i], a.degrees[j]), a.bracket(y, inner[k][i])),
                    (eps(a.degrees[j], a.degrees[k]), a.bracket(z, inner[i][j])),
                )
                total = [sum((t * v[p] for t, v in terms if v[p]), a.zero_scalar()) for p in range(d)]
                if any(total):
                    jacobi.append((i, j, k))
    return antisymmetry, jacobi


def _assert_report_matches_reference(a):
    report = a.check_axioms()
    constants = a.constants
    grading = [
        (i, j, k)
        for i in range(a.dim)
        for j in range(a.dim)
        for k in range(a.dim)
        if constants[i][j][k] and a.degrees[k] != a.degrees[i] + a.degrees[j]
    ]
    assert (report.grading, report.antisymmetry, report.jacobi) == (
        grading,
        *_reference_axiom_lists(a),
    )
    return report


def test_axiom_report_matches_reference_loop(algebras):
    for name, a in algebras.items():
        assert _assert_report_matches_reference(a).ok, name
    rng = random.Random(5)
    for name in ("colorSl2", "osp12"):
        base = algebras[name]
        d, constants = base.dim, base.constants
        slots = [
            (i, j, k)
            for i in range(d)
            for j in range(d)
            for k in range(d)
            if constants[i][j][k]
        ]
        slots += [tuple(rng.randrange(d) for _ in range(3)) for _ in range(6)]
        jacobi_hits = 0
        for i, j, k in slots:
            report = _assert_report_matches_reference(_mutate(base, i, j, k, 1))
            jacobi_hits += bool(report.jacobi)
        assert jacobi_hits >= len(slots) - 6, name
    # in heis3 and aff2 most nested brackets are zero, and a mutation can
    # create one where none was: every single-constant mutation is checked
    for name in ("heis3", "aff2"):
        base = algebras[name]
        for i, j, k in product(range(base.dim), repeat=3):
            _assert_report_matches_reference(_mutate(base, i, j, k, 1))
    # doubling both orders of an osp12 bracket keeps grading and antisymmetry
    osp12 = algebras["osp12"]
    for i, j, k in [(0, 1, 0), (0, 4, 3), (3, 4, 1), (3, 3, 0)]:
        constants = [[list(row) for row in plane] for plane in osp12.constants]
        constants[i][j][k] = constants[i][j][k] * 2
        if i != j:
            constants[j][i][k] = constants[j][i][k] * 2
        mutated = ColorAlgebra(osp12.group, osp12.bichar, osp12.degrees, constants)
        report = _assert_report_matches_reference(mutated)
        assert not report.grading and not report.antisymmetry and report.jacobi


@pytest.mark.parametrize("name", ("torus3", "colorSl2z15"))
def test_axiom_report_matches_reference_loop_at_conductors_3_and_30(name):
    # every nonzero slot and 30 seeded others, moved by zeta_m and by 1 + zeta_m:
    # the products there are not rational, so the reduction mod Phi_m decides
    base = parse_algebra((DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))
    d, zeta, constants = base.dim, CycloScalar.root(base.conductor), base.constants
    slots = [s for s in product(range(d), repeat=3) if constants[s[0]][s[1]][s[2]]]
    rng = random.Random(23)
    others = [s for s in product(range(d), repeat=3) if s not in slots]
    slots += rng.sample(others, min(30, len(others)))
    jacobi_hits = 0
    for delta in (zeta, zeta + 1):
        for i, j, k in slots:
            jacobi_hits += bool(_assert_report_matches_reference(_mutate(base, i, j, k, delta)).jacobi)
    assert jacobi_hits == 2 * len(slots)


def _misgraded_color_sl2():
    # colorSl2 with [x, y] pointed at x, the algebra the parser rejects
    a = catalog.get("colorSl2")
    doc = json.loads(serialize_algebra(a))
    doc["brackets"][0]["result"] = {"x": "1"}
    index = {name: i for i, name in enumerate(a.names)}
    table = {
        (index[b["left"]], index[b["right"]]): {index[k]: v for k, v in b["result"].items()}
        for b in doc["brackets"]
    }
    constants = structure_constants_from_table(a.group, a.bichar, a.degrees, table, a.dim)
    return ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)


def test_grading_scan_equals_the_brute_force_scan():
    from perfbench.algebras import sl

    cases = [catalog.get(name.replace("(N)", "(3)")) for name in catalog.names()]
    cases += [sl(4), _misgraded_color_sl2()]
    for a in cases:
        d, constants = a.dim, a.constants
        brute = [
            (i, j, k)
            for i, j, k in product(range(d), repeat=3)
            if constants[i][j][k] and a.degrees[k] != a.degrees[i] + a.degrees[j]
        ]
        assert a.grading_violations() == brute, a
    assert cases[-1].grading_violations()


def test_axiom_report_is_cached_and_copied(algebras):
    a = algebras["osp12"]
    first = a.check_axioms()
    first.jacobi.append((0, 0, 0))
    assert a.check_axioms().ok


def test_grading_scan_and_axiom_report_are_copied_when_they_find_something():
    a = _misgraded_color_sl2()
    violations = a.grading_violations()
    report = a.check_axioms()
    expected = (list(violations), list(report.antisymmetry), list(report.jacobi))
    assert violations and report.grading == violations
    violations.append((0, 0, 0))
    report.grading.clear()
    report.antisymmetry.append((0, 0))
    again = a.check_axioms()
    assert a.grading_violations() == expected[0]
    assert (again.grading, again.antisymmetry, again.jacobi) == expected


def _built_with_their_grids(monkeypatch):
    # every algebra the catalog, the data files and osp12's derivation algebra
    # build, each with the grid its constructor was given; the parser builds
    # from its sparse table, whose grid is structure_constants_from_table's
    built = []
    init = ColorAlgebra.__init__
    from_table = ColorAlgebra._from_table

    def recording(self, group, bichar, degrees, constants, names=None):
        init(self, group, bichar, degrees, constants, names=names)
        built.append((self, constants))

    def recording_table(group, bichar, degrees, table, names=None):
        a = from_table(group, bichar, degrees, table, names=names)
        built.append((a, structure_constants_from_table(group, bichar, degrees, table, a.dim)))
        return a

    monkeypatch.setattr(ColorAlgebra, "__init__", recording)
    monkeypatch.setattr(ColorAlgebra, "_from_table", staticmethod(recording_table))
    for name in catalog.names():
        catalog.get(name.replace("(N)", "(3)"))
    for path in sorted(DATA_DIR.glob("*.json")):
        if path.name != "report_digests.json":
            parse_algebra(path.read_text(encoding="utf-8"))
    osp12 = catalog.get("osp12")
    derivation_color_algebra(osp12, n_derivation_space(osp12, 3))
    monkeypatch.undo()
    return built


def test_constants_view_equals_the_grid_that_built_the_algebra(monkeypatch):
    built = _built_with_their_grids(monkeypatch)
    # the catalog, the seven algebra files, osp12 once more and its derivation algebra
    assert len(built) == len(catalog.names()) + 7 + 2
    for a, grid in built:
        assert a.constants == tuple(
            tuple(tuple(a.scalar(c) for c in row) for row in plane) for plane in grid
        ), a
        assert a.constants is not a.constants


def test_an_algebra_rebuilt_from_its_constants_view_is_equal(monkeypatch):
    for a, _ in _built_with_their_grids(monkeypatch):
        assert ColorAlgebra(a.group, a.bichar, a.degrees, a.constants, names=a.names) == a


@pytest.mark.parametrize(
    "constants",
    [
        [[[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]]] * 3,
        [[[0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], []]],
        # the shape is checked before any entry is coerced
        [[["not a scalar", 0], [0, 0]], [[0, 0], [0]]],
    ],
    ids=("one_plane", "three_planes", "short_plane", "long_row", "ragged_row", "empty_row", "before_coercion"),
)
def test_a_wrong_size_or_ragged_grid_is_refused(constants):
    group = GradingGroup([])
    bichar = Bicharacter(group, [])
    with pytest.raises(DimensionMismatch, match=r"^structure constants must be 2x2x2$"):
        ColorAlgebra(group, bichar, [group.zero()] * 2, constants)
