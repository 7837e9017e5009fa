"""The compat misses that the verify routines share, against the per-call
loops and the bracket rule they replaced.

Each ``DerivationSpace`` keeps its basis maps and, for each basis map B_p,
its compat misses: the i where [B_p, ad e_i] differs from ad(B_p(e_i)).
They are read off the derivation identity at each (e_i, e_j), on the
integer numerators of the nonzero constants and of the nonzero columns of
B_p, with no map bracketed and no scalar built.
``_reference_misses`` below is the rule they replaced: bracket B_p with
every ad(e_i) and compare. Part 1's fixed point and the inner-ideal,
delta-membership and ad-compat lemmas read the misses; the centralizer
lemma brackets the kept basis maps itself. The ``_reference_*`` report
functions are the loops those routines ran before, kept here only: every
report must equal theirs, on the catalog, on sl(3), and on hand-built
spaces whose basis holds non-derivations. Delta membership now reads the
kernel route ``n_derivation_space(a, n - 1)``; the brute-force oracle
``is_n_derivation`` checks its verdicts.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from colorlie import catalog, derivations
from colorlie.algebra import ColorAlgebra
from colorlie.derivations import (
    AdCompatReport,
    CentralizerReport,
    DeltaMembershipReport,
    DerivationSpace,
    GradedMap,
    InnerIdealReport,
    TheoremPart1Report,
    _ad_basis,
    _compare_blocks,
    _compat_misses,
    ad,
    block_coordinates,
    delta,
    inner_derivation_space,
    is_n_derivation,
    map_bracket,
    verify_ad_compat,
    verify_centralizer_trivial,
    verify_closure,
    verify_delta_membership,
    verify_inner_ideal,
    verify_nder_equals_der,
    verify_second_statement,
)
from colorlie.errors import BadArity, NoSolution, PreconditionFailed
from colorlie.fileio import parse_algebra
from colorlie.linalg import Subspace, kernel_from_rows
from colorlie.scalars import CycloScalar

from test_algebra import _assert_report_matches_reference, _misgraded_color_sl2
from test_closure import _perturbed, _perturbed_files

ENTRIES = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(2)", "abelian(3)")
PERFECT = ("sl2", "colorSl2", "osp12")


DATA_DIR = Path(__file__).resolve().parent / "data"


def _load(name):
    if name == "sl3":
        from perfbench.algebras import sl

        return sl(3)
    if name == "torus3":
        return parse_algebra((DATA_DIR / "torus3.json").read_text(encoding="utf-8"))
    return catalog.get(name)


# -- the loops the routines ran before the table -----------------------------


def _reference_part1(a, n):
    der = derivations.n_derivation_space(a, 2)
    nder = derivations.n_derivation_space(a, n)
    blocks, equal = _compare_blocks(der, nder)
    is_perfect = a.is_perfect()
    center_dim = a.center().dim
    fixed = None
    if is_perfect and center_dim == 0 and a.check_axioms().ok:
        fixed = all(delta(a, D, n) == D for D in nder.basis_maps())
    return TheoremPart1Report(
        n=n,
        is_perfect=is_perfect,
        center_dim=center_dim,
        orders=a.group.orders,
        block_dims=blocks,
        equal=equal,
        der_total=der.total_dim,
        nder_total=nder.total_dim,
        delta_fixed_point=fixed,
    )


def _reference_inner_ideal(a, n):
    if not a.is_perfect():
        raise PreconditionFailed("inner-ideal check needs a perfect algebra")
    nder = derivations.n_derivation_space(a, n)
    inner = inner_derivation_space(a)
    report = InnerIdealReport(n=n)
    for p, D in enumerate(nder.basis_maps()):
        for i, x in enumerate(_ad_basis(a)):
            if not inner.contains_map(map_bracket(D, x)):
                report.failures.append((p, i))
    return report


def _reference_centralizer(a, n):
    if not a.is_perfect():
        raise PreconditionFailed("centralizer check needs a perfect algebra")
    nder = derivations.n_derivation_space(a, n)
    report = CentralizerReport(n=n, orders=a.group.orders)
    for gamma, sub in nder.walk():
        basis = [GradedMap.from_block_vector(a, gamma, row) for row in sub.basis.entries]
        rows = [
            [map_bracket(B, x).matrix[k][l] for B in basis]
            for x in _ad_basis(a)
            for k in range(a.dim)
            for l in range(a.dim)
        ]
        dim = kernel_from_rows(rows, sub.dim, a.conductor).dim if sub.dim else 0
        report.block_dims.append((list(gamma.residues), dim))
        report.total_dim += dim
    return report


def _reference_delta_membership(a, n):
    if n < 3:
        raise BadArity(f"delta membership needs n >= 3, got {n}")
    if not a.is_perfect() or a.center().dim != 0:
        raise PreconditionFailed("delta membership needs a perfect centerless algebra")
    nder = derivations.n_derivation_space(a, n)
    report = DeltaMembershipReport(n=n)
    for idx, D in enumerate(nder.basis_maps()):
        if not is_n_derivation(a, derivations.delta(a, D, n), n - 1):
            report.failures.append(idx)
    return report


def _reference_ad_compat(a):
    der = derivations.n_derivation_space(a, 2)
    report = AdCompatReport()
    for p, D in enumerate(der.basis_maps()):
        for i, x in enumerate(_ad_basis(a)):
            if map_bracket(D, x) != ad(a, D.apply(a.basis_vector(i))):
                report.failures.append((p, i))
    return report


def _reference_misses(space, p):
    # the rule the misses replaced: bracket B_p with every ad(e_i) and compare
    a = space.algebra
    D = space.basis_maps()[p]
    return tuple(
        i for i, x in enumerate(_ad_basis(a))
        if map_bracket(D, x) != ad(a, D.apply(a.basis_vector(i)))
    )


def _bare_ad_grid(a, x):
    # ad x read off all d^3 constants, with no support check and no use of the
    # nonzero-constant lists: M[k][j] = sum_i x_i c[i][j][k]
    r, c = range(a.dim), a.constants
    return [[sum((x[i] * c[i][j][k] for i in r), a.zero_scalar()) for j in r] for k in r]


def _grid_reference_misses(space, p):
    # the same rule on bare grids, with no support check on ad(e_i): what the
    # rule gives where the checked ad(e_i) of a mis-graded algebra raises
    a = space.algebra
    D = space.basis_maps()[p]
    M, r = D.matrix, range(a.dim)
    misses = []
    for i in r:
        A = _bare_ad_grid(a, a.basis_vector(i))
        e = a.bichar.eps(D.degree, a.degrees[i])
        bracket = [
            [sum((M[k][l] * A[l][j] - e * (A[k][l] * M[l][j]) for l in r), a.zero_scalar()) for j in r]
            for k in r
        ]
        if bracket != _bare_ad_grid(a, D.apply(a.basis_vector(i))):
            misses.append(i)
    return tuple(misses)


ROUTES = (
    ("part1", verify_nder_equals_der, _reference_part1, True),
    ("inner_ideal", verify_inner_ideal, _reference_inner_ideal, True),
    ("centralizer", verify_centralizer_trivial, _reference_centralizer, True),
    ("delta_membership", verify_delta_membership, _reference_delta_membership, True),
    ("ad_compat", verify_ad_compat, _reference_ad_compat, False),
)


def _outcome(fn, *args):
    # the report with its verdict, or the exception's type and text
    try:
        report = fn(*args)
    except (PreconditionFailed, BadArity, NoSolution) as exc:
        return type(exc).__name__, str(exc)
    return report.to_jsonable(), report.passed


def _assert_routes_agree(a, n):
    for key, fn, reference, takes_n in ROUTES:
        args = (a, n) if takes_n else (a,)
        assert _outcome(fn, *args) == _outcome(reference, *args), key


@pytest.mark.parametrize("name", ENTRIES + ("sl3",))
@pytest.mark.parametrize("n", (2, 3))
def test_table_routes_equal_the_per_call_loops(name, n):
    _assert_routes_agree(_load(name), n)


# -- hand-built spaces whose basis holds non-derivations ---------------------


def _space(a, n, maps):
    # the span of the given homogeneous maps, one block per degree
    rows = {}
    for D in maps:
        rows.setdefault(D.degree, []).append(D.block_vector())
    blocks = {
        g: Subspace.from_rows(len(block_coordinates(a, g)), vs, a.conductor)
        for g, vs in rows.items()
    }
    return DerivationSpace(a, n, blocks)


def _unit(a, k, j):
    # the matrix unit e_j -> e_k, homogeneous of degree deg e_k - deg e_j
    one, zero = a.one_scalar(), a.zero_scalar()
    grid = [[one if (r, c) == (k, j) else zero for c in range(a.dim)] for r in range(a.dim)]
    return GradedMap(a, a.degrees[k] - a.degrees[j], grid)


def _identity(a):
    one, zero = a.one_scalar(), a.zero_scalar()
    grid = [[one if r == c else zero for c in range(a.dim)] for r in range(a.dim)]
    return GradedMap(a, a.group.zero(), grid)


def _inner_maps(a):
    return [ad(a, a.basis_vector(i)) for i in range(a.dim)]


# (algebra, maps, what delta(B_p) == B_p gives on the first map with a miss)
HAND_BUILT = {
    # the identity commutes with every ad x, so delta of it is 0
    "sl2+id": ("sl2", lambda a: _inner_maps(a) + [_identity(a)], False),
    # [E_ee, ad e] sends h to -2e and f to 0: no ad x does that
    "sl2:E_ee": ("sl2", lambda a: [_unit(a, 0, 0)], NoSolution),
    "colorSl2+id": ("colorSl2", lambda a: _inner_maps(a)[:2] + [_identity(a)], False),
    "osp12+unit": ("osp12", lambda a: _inner_maps(a) + [_unit(a, 1, 1)], None),
}


def _hand_built(key, n, monkeypatch):
    name, build, _ = HAND_BUILT[key]
    a = catalog.get(name)
    space = _space(a, n, build(a))
    real = derivations.n_derivation_space

    def patched(b, k, **kwargs):
        return space if k == n else real(b, k, **kwargs)

    monkeypatch.setattr(derivations, "n_derivation_space", patched)
    return a, space


def _outcome_value(fn):
    try:
        return fn()
    except NoSolution as exc:
        return "NoSolution", str(exc)


@pytest.mark.parametrize("key", sorted(HAND_BUILT))
@pytest.mark.parametrize("n", (2, 3))
def test_fixed_point_on_non_derivations_is_what_delta_gives(key, n, monkeypatch):
    a, space = _hand_built(key, n, monkeypatch)
    expected = HAND_BUILT[key][2]
    misses = [p for p in range(space.total_dim) if _compat_misses(space, p)]
    assert misses, key
    want = _outcome_value(lambda: all(delta(a, D, n) == D for D in space.basis_maps()))
    got = _outcome_value(lambda: verify_nder_equals_der(a, n).delta_fixed_point)
    if expected is NoSolution:
        assert want[0] == "NoSolution"
    elif expected is False:
        assert want is False
    assert got == want
    _assert_routes_agree(a, n)


def test_misses_are_exactly_the_maps_delta_moves():
    # no miss <=> delta(B_p) == B_p, map by map, on a zero-center algebra
    a = catalog.get("sl2")
    space = _space(a, 2, _inner_maps(a) + [_identity(a), _unit(a, 0, 0)])
    for p, D in enumerate(space.basis_maps()):
        fixed = _outcome_value(lambda: delta(a, D, 2) == D)
        assert (fixed is True) == (not _compat_misses(space, p)), p


# -- the misses themselves ---------------------------------------------------


def _assert_misses_equal_the_reference(space):
    a = space.algebra
    for p in range(space.total_dim):
        got = _compat_misses(space, p)
        if a.grading_violations():
            # the checked ad(e_i) of a mis-graded algebra raises; the identity does not
            with pytest.raises(ValueError):
                _reference_misses(space, p)
            assert got == _grid_reference_misses(space, p), p
        else:
            assert got == _reference_misses(space, p), p


@pytest.mark.parametrize("name", ENTRIES + ("sl3", "torus3"))
@pytest.mark.parametrize("n", (2, 3))
def test_misses_equal_the_bracket_rule(name, n):
    _assert_misses_equal_the_reference(derivations.n_derivation_space(_load(name), n))


@pytest.mark.parametrize("key", sorted(HAND_BUILT))
@pytest.mark.parametrize("n", (2, 3))
def test_misses_equal_the_bracket_rule_on_non_derivations(key, n, monkeypatch):
    _, space = _hand_built(key, n, monkeypatch)
    _assert_misses_equal_the_reference(space)
    assert any(_compat_misses(space, p) for p in range(space.total_dim))


def _non_derivations(b, n):
    # the identity and two matrix units, which are derivations of almost nothing
    return _space(b, n, [_identity(b), _unit(b, 0, 0), _unit(b, 0, b.dim - 1)])


def _assert_misses_equal_the_reference_on(b):
    for n in (2, 3):
        _assert_misses_equal_the_reference(derivations.n_derivation_space(b, n))
        _assert_misses_equal_the_reference(_non_derivations(b, n))


@settings(deadline=None)
@given(b=_perturbed())
def test_misses_equal_the_bracket_rule_on_perturbed_catalog_entries(b):
    _assert_misses_equal_the_reference_on(b)


@settings(deadline=None)
@given(b=_perturbed_files())
def test_axioms_and_misses_equal_the_references_on_perturbed_files(b):
    # conductors 3 and 30, where a product of two constants is not a rational
    _assert_report_matches_reference(b)
    _assert_misses_equal_the_reference_on(b)


def _jacobi_broken_sl2():
    return parse_algebra((DATA_DIR / "jacobi_broken_sl2.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("build", (_jacobi_broken_sl2, _misgraded_color_sl2), ids=("jacobi", "grading"))
def test_misses_equal_the_bracket_rule_on_input_that_fails_the_axiom_check(build):
    b = build()
    assert not b.check_axioms().ok
    _assert_misses_equal_the_reference_on(b)


def test_readers_of_ad_basis_name_the_first_misplaced_constant():
    # not the support check deep inside ad(e_i); ad itself keeps that check
    a = _misgraded_color_sl2()
    i, j, k = a._grading_scan()[0]
    want = f"the grading fails at c[{i}][{j}][{k}], so ad({a.names[i]}) is not homogeneous"
    for reader in (_ad_basis, inner_derivation_space, derivations._ad_factor):
        with pytest.raises(ValueError) as err:
            reader(a)
        assert str(err.value) == want
    with pytest.raises(ValueError, match="block support"):
        ad(a, a.basis_vector(i))


@pytest.mark.parametrize("build", (lambda: _load("torus3"), _jacobi_broken_sl2), ids=("torus3", "jacobi"))
def test_axiom_check_and_misses_do_no_scalar_arithmetic(build, monkeypatch):
    # both sum integer numerators; only the kept views they read (the nonzero
    # constants, the grading scan and the columns of each map) touch scalars
    a = build()
    want = a.check_axioms()
    space = _space(a, 2, [_identity(a), _unit(a, 0, 0)] + _inner_maps(a))
    misses = [_reference_misses(space, p) for p in range(space.total_dim)]
    for D in space.basis_maps():
        derivations._columns(D)
    fresh = ColorAlgebra(a.group, a.bichar, a.degrees, a.constants, names=a.names)
    fresh.grading_violations()

    def refuse(*args):
        raise AssertionError("CycloScalar arithmetic in an integer loop")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__bool__"):
        monkeypatch.setattr(CycloScalar, name, refuse)
    assert fresh.check_axioms() == want
    assert [_compat_misses(space, p) for p in range(space.total_dim)] == misses


@pytest.mark.parametrize("name", ("colorSl2", "osp12", "sl3"))
def test_misses_equal_the_reference_and_are_kept(name):
    space = derivations.n_derivation_space(_load(name), 3)
    for p in range(space.total_dim):
        misses = _compat_misses(space, p)
        assert misses == _reference_misses(space, p)
        assert _compat_misses(space, p) is misses
    maps = space.basis_maps()
    assert all(x is y for x, y in zip(space.basis_maps(), maps))
    memo = _compat_misses.__wrapped__
    assert sorted(key[1] for key in space._cache if key[0] is memo) == list(range(space.total_dim))


def _counting_brackets(monkeypatch):
    calls = []
    original = derivations.map_bracket

    def counted(d1, d2):
        calls.append(1)
        return original(d1, d2)

    monkeypatch.setattr(derivations, "map_bracket", counted)
    return calls


def test_misses_bracket_nothing_and_the_lemmas_little(monkeypatch):
    base = catalog.get("osp12")
    a = ColorAlgebra(base.group, base.bichar, base.degrees, base.constants, names=base.names)
    space = derivations.n_derivation_space(a, 2)
    calls = _counting_brackets(monkeypatch)
    assert not any(_compat_misses(space, p) for p in range(space.total_dim))
    # no miss on Der: part 1's fixed point, ad compat and the inner ideal bracket nothing
    verify_nder_equals_der(a, 2)
    verify_ad_compat(a)
    verify_inner_ideal(a, 2)
    assert not calls
    # the centralizer stops at full rank, and part 2 and closure share one pair grid
    verify_centralizer_trivial(a, 2)
    verify_closure(a, 2, 100)
    verify_second_statement(a, 2)
    assert len(calls) <= 25


@pytest.mark.parametrize("key", sorted(HAND_BUILT))
@pytest.mark.parametrize("n", (2, 3))
def test_inner_ideal_brackets_only_at_the_misses(key, n, monkeypatch):
    a, space = _hand_built(key, n, monkeypatch)
    want = _reference_inner_ideal(a, n).failures
    misses = sum(len(_compat_misses(space, p)) for p in range(space.total_dim))
    calls = _counting_brackets(monkeypatch)
    assert verify_inner_ideal(a, n).failures == want
    assert len(calls) == misses
    if key == "sl2:E_ee":
        assert want


# -- delta membership on the kernel route, against the oracle ----------------


def _off_kernel(a, lower, D):
    # D plus each block unit vector outside D's block of the (n-1) space
    gamma = D.degree
    coords = block_coordinates(a, gamma)
    block = lower.blocks[gamma]
    base = list(D.block_vector())
    for c in range(len(coords)):
        unit = [a.one_scalar() if r == c else a.zero_scalar() for r in range(len(coords))]
        if block.ambient_dim and block.contains_vector(unit):
            continue
        yield GradedMap.from_block_vector(
            a, gamma, [x + y for x, y in zip(base, unit)]
        )


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("n", (3, 4))
def test_delta_membership_verdicts_match_the_oracle(name, n):
    a = catalog.get(name)
    if name not in PERFECT:
        with pytest.raises(PreconditionFailed):
            verify_delta_membership(a, n)
        return
    nder = derivations.n_derivation_space(a, n)
    want = [
        p for p, D in enumerate(nder.basis_maps())
        if not is_n_derivation(a, delta(a, D, n), n - 1)
    ]
    assert verify_delta_membership(a, n).failures == want
    lower = derivations.n_derivation_space(a, n - 1)
    broken = 0
    for D in nder.basis_maps():
        image = delta(a, D, n)
        assert lower.contains_map(image) == is_n_derivation(a, image, n - 1)
        for bad in _off_kernel(a, lower, image):
            assert not lower.contains_map(bad)
            assert not is_n_derivation(a, bad, n - 1)
            broken += 1
    assert broken


@pytest.mark.parametrize("inside", (False, True), ids=("off-kernel", "the-map-itself"))
def test_broken_deltas_fail_the_lemma_as_they_fail_the_oracle(inside, monkeypatch):
    # delta is patched to break its result on every map that is not a
    # derivation; the lemma calls delta only on maps with a compat miss, which
    # are exactly those maps here. The broken result is the true one plus an
    # off-kernel block vector outside the hand-built space, or the map itself,
    # which lies in the hand-built space but not in Der
    a, space = _hand_built("sl2+id", 3, monkeypatch)
    lower = derivations.n_derivation_space(a, 2)
    real = derivations.delta

    def broken(b, D, n):
        image = real(b, D, n)
        if is_n_derivation(b, D, 2):
            return image
        if inside:
            return D
        return next(bad for bad in _off_kernel(b, lower, image) if not space.contains_map(bad))

    monkeypatch.setattr(derivations, "delta", broken)
    outside = [p for p, D in enumerate(space.basis_maps()) if not is_n_derivation(a, D, 2)]
    assert outside == [p for p in range(space.total_dim) if _compat_misses(space, p)]
    want = _reference_delta_membership(a, 3).failures
    assert want == outside
    assert verify_delta_membership(a, 3).failures == want


# -- ad and the ad-preimages on blocks, against bare grids --------------------


def _homogeneous_vectors(a, rng):
    # the zero vector, and per degree of the basis seeded combinations of its basis vectors
    yield a.zero_vector()
    for g in dict.fromkeys(a.degrees):
        for _ in range(3):
            yield a.vector([rng.randint(-2, 2) if h == g else 0 for h in a.degrees])


@pytest.mark.parametrize("name", ENTRIES + ("sl3", "torus3"))
def test_ad_equals_the_checked_bare_grid(name):
    a = _load(name)
    for x in _homogeneous_vectors(a, random.Random(29)):
        assert ad(a, x) == GradedMap(a, a.degree_of(x), _bare_ad_grid(a, x))


@settings(deadline=None)
@given(b=_perturbed())
def test_ad_equals_the_checked_bare_grid_on_perturbed_catalog_entries(b):
    # a perturbed entry may be mis-graded: then both routes raise ValueError on e_i
    for i in range(b.dim):
        x = b.basis_vector(i)
        try:
            want = GradedMap(b, b.degrees[i], _bare_ad_grid(b, x))
        except ValueError:
            with pytest.raises(ValueError, match="block support"):
                ad(b, x)
        else:
            assert ad(b, x) == want


CENTERLESS = tuple(name for name in ENTRIES if catalog.get(name).center().dim == 0)


@pytest.mark.parametrize("name", CENTERLESS)
def test_preimage_maps_pass_the_grid_constructor(name, monkeypatch):
    # every map delta and part 2's witnesses build, and on a non-perfect algebra
    # every preimage of the targets [D, ad e_j], re-passes the support check
    a = catalog.get(name)
    made = []
    real = derivations._ad_preimages

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(derivations, "_ad_preimages", recorded)
    for n in (2, 3):
        for D in derivations.n_derivation_space(a, n).basis_maps():
            if a.is_perfect():
                delta(a, D, n)
            else:
                derivations._ad_preimages(a, D.degree, (map_bracket(D, x) for x in _ad_basis(a)))
        if a.is_perfect():
            report = verify_second_statement(a, n)
            assert not report.witness_failures and None not in report.witnesses
    assert made
    for w in made:
        assert GradedMap(w.algebra, w.degree, w.matrix) == w
