"""The known-space route of ``n_derivation_space`` against the full stream.

On a Lie color algebra the kernel route takes the inner derivations as a
known part of every block and solves only for the rest. Forcing the axiom
check to fail makes it stream the whole system instead; both must give the
same canonical bases. On input that breaks Jacobi the known space is not
used, and the tests show it must not be.

The rows each block streams are checked against a brute-force system built
from ``left_normed_bracket``, and the computed spaces and verdicts against
the same algebra after a graded basis change. On certified input the route
streams one tuple of each swapped pair (t1, t2, ..), (t2, t1, ..): the
brute-force system shows that the skipped half repeats the kept rows.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorlie import catalog, derivations
from colorlie.algebra import AxiomReport, ColorAlgebra
from colorlie.derivations import (
    ad,
    inner_derivation_space,
    is_n_derivation,
    n_derivation_space,
    verify_nder_equals_der,
    verify_second_statement,
)
from colorlie.errors import PreconditionFailed
from colorlie.fileio import parse_algebra
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.linalg import _kernel_from_pairs, _pairs, kernel_from_rows
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


R11 = Path(__file__).resolve().parent / "data" / "r11.json"


def _fresh(name):
    if name == "torus3":
        return _torus3()
    if name == "r11":
        return parse_algebra(R11.read_text(encoding="utf-8"))
    return catalog.get(name)


def _full_stream(a, n):
    """The space computed with the axiom certificate forced to fail."""
    fresh = ColorAlgebra(a.group, a.bichar, a.degrees, a.constants, names=a.names)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColorAlgebra, "check_axioms", lambda self: AxiomReport(jacobi=[(0, 0, 0)]))
        return n_derivation_space(fresh, n)


def _assert_same_blocks(fast, slow, *where):
    assert list(fast.blocks) == list(slow.blocks)
    for gamma in fast.blocks:
        assert fast.blocks[gamma] == slow.blocks[gamma], (*where, gamma)


@pytest.mark.parametrize("name", CATALOG + ("torus3",))
@pytest.mark.parametrize("n", (2, 3))
def test_known_space_route_equals_full_stream(name, n):
    a = _fresh(name)
    assert a.check_axioms().ok
    _assert_same_blocks(n_derivation_space(a, n), _full_stream(a, n), name, n)


def _jacobi_breaking_sl2():
    """sl2 with [h, e] = 3e and [e, h] = -3e: graded and antisymmetric, not Jacobi."""
    sl2 = catalog.get("sl2")
    constants = [[list(row) for row in plane] for plane in sl2.constants]
    one = sl2.one_scalar()
    constants[1][0][0] = constants[1][0][0] + one
    constants[0][1][0] = constants[0][1][0] - one
    return ColorAlgebra(sl2.group, sl2.bichar, sl2.degrees, constants, names=sl2.names)


@pytest.mark.parametrize("n", (2, 3))
def test_non_lie_input_takes_the_full_stream(n):
    a = _jacobi_breaking_sl2()
    report = a.check_axioms()
    assert not report.grading and not report.antisymmetry and report.jacobi
    space = n_derivation_space(a, n)
    assert space.blocks == _full_stream(a, n).blocks
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


# -- the row stream against a brute-force system -----------------------------


def _streamed(a, n, monkeypatch):
    """Per block, in degree-table order: the sparse rows streamed into the
    elimination, whether the stream ran to its end, the column count and the
    kernel the elimination returned."""
    streams = []
    real = derivations._kernel_from_pairs

    def capture(rows, cols, m):
        seen = [[], False, cols, None]
        streams.append(seen)

        def recorded():
            for row in rows:
                seen[0].append(row)
                yield row
            seen[1] = True

        seen[3] = real(recorded(), cols, m)
        return seen[3]

    with monkeypatch.context() as patch:
        patch.setattr(derivations, "_kernel_from_pairs", capture)
        n_derivation_space(a, n)
    return streams


def _dense(row, cols, zero):
    out = [zero] * cols
    for col, value in row:
        out[col] = value
    return out


def _basis_brackets(a, n):
    """[..[e_t1, e_t2], .., e_tn] for every basis n-tuple t, in lexicographic order."""
    basis = [a.basis_vector(i) for i in range(a.dim)]
    return {t: a.left_normed_bracket([basis[j] for j in t]) for t in product(range(a.dim), repeat=n)}


def _reference_system(a, brackets, gamma, free):
    """Per basis n-tuple t, in lexicographic order: the d rows, one per output
    coordinate, of D[t] - sum_i eps(gamma, deg t_1 + .. + deg t_(i-1)) [..D(t_i)..]
    over the free coordinates (r, l), D(e_l) = e_r."""
    d = a.dim
    zero = a.zero_scalar()
    system = {}
    for t, bracket in brackets.items():
        rows = [[zero] * len(free) for _ in range(d)]
        for col, (r, l) in enumerate(free):
            rows[r][col] += bracket[l]
        s = a.group.zero()
        for i in range(len(t)):
            e = a.bichar.eps(gamma, s)
            for col, (r, l) in enumerate(free):
                if t[i] == l:
                    term = brackets[t[:i] + (r,) + t[i + 1:]]
                    for k in range(d):
                        rows[k][col] -= e * term[k]
            s = s + a.degrees[t[i]]
        system[t] = rows
    return system


def _kept(a, t):
    """Whether a certified stream takes t: t2 > t1, or t2 = t1 with eps(deg t1, deg t1) = -1."""
    g = a.degrees[t[0]]
    return t[1] > t[0] or t[1] == t[0] and a.bichar.exponent(g, g) != 0


def _reference_rows(a, n, gamma, free, kept_only):
    """(t, row) for the nonzero rows of the reference system in (tuple, output)
    order, over the kept tuples only when ``kept_only``."""
    system = _reference_system(a, _basis_brackets(a, n), gamma, free)
    return [
        (t, row) for t, rows in system.items() if not kept_only or _kept(a, t)
        for row in rows if any(row)
    ]


def _check_stream(a, n, monkeypatch):
    """Match each block's streamed nonzero rows against the reference rows, over
    the kept tuples where the axiom check passes and over every tuple otherwise.
    Gives, per block, whether the stream ran out and the tuples of its rows."""
    streams = _streamed(a, n, monkeypatch)
    certified = a.check_axioms().ok
    known = inner_derivation_space(a).blocks if certified else {}
    blocks = a.degree_table().blocks
    assert len(streams) == len(blocks)
    zero = a.zero_scalar()
    seen = []
    for (gamma, coords), (rows, ran_out, _, _) in zip(blocks.items(), streams):
        taken = set(known[gamma].pivots) if gamma in known else set()
        free = [rl for pos, rl in enumerate(coords) if pos not in taken]
        want = _reference_rows(a, n, gamma, free, certified)
        got = [_dense(row, len(free), zero) for row in rows if any(row)]
        assert got == [row for _, row in want[:len(got)]], (gamma, n)
        if ran_out:
            assert len(got) == len(want), (gamma, n)
        seen.append((ran_out, [t for t, _ in want[:len(got)]]))
    return seen


@pytest.mark.parametrize("name", CATALOG + ("torus3",))
@pytest.mark.parametrize("n", (2, 3))
def test_streamed_rows_match_the_brute_force_system(name, n, monkeypatch):
    _check_stream(_fresh(name), n, monkeypatch)


def test_heis3_streamed_rows_at_n4(monkeypatch):
    _check_stream(catalog.get("heis3"), 4, monkeypatch)


def _swap_rule_misses(a, n):
    """(gamma, t) for every tuple t a certified stream skips, t[0] >= t[1], whose rows are
    neither -eps(deg t[0], deg t[1]) times those of its swap nor zero (t[0] = t[1])."""
    brackets = _basis_brackets(a, n)
    misses = []
    for gamma, coords in a.degree_table().blocks.items():
        system = _reference_system(a, brackets, gamma, coords)
        for t, rows in system.items():
            if _kept(a, t):
                continue
            if t[0] == t[1]:
                repeated = not any(map(any, rows))
            else:
                e = -a.bichar.eps(a.degrees[t[0]], a.degrees[t[1]])
                repeated = rows == [[e * v for v in row] for row in system[(t[1], t[0]) + t[2:]]]
            if not repeated:
                misses.append((gamma, t))
    return misses


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in CATALOG + ("torus3", "r11") for n in (2, 3, 4) if name != "torus3" or n < 4],
)
def test_swapped_tuple_rows_are_multiples(name, n):
    """[y, x] = -eps(y, x) [x, y] makes the identity at (t2, t1, ..) -eps(deg t2, deg t1)
    times that at (t1, t2, ..), and the identity at (t, t, ..) zero where eps(deg t, deg t) = 1:
    every tuple a certified stream skips repeats rows it keeps."""
    a = _fresh(name)
    assert a.check_axioms().ok
    assert _swap_rule_misses(a, n) == []


@pytest.mark.parametrize("n", (2, 3))
def test_jacobi_breaking_sl2_streams_every_row(n, monkeypatch):
    seen = _check_stream(_jacobi_breaking_sl2(), n, monkeypatch)
    assert all(ran_out for ran_out, _ in seen)
    # the half a certified stream skips was streamed and matched
    assert any(t[0] > t[1] for _, tuples in seen for t in tuples)


def _antisymmetry_breaking_osp12():
    """osp12 with the first nonzero c[i][j][k], i < j, doubled and c[j][i][k] kept:
    graded, and not antisymmetric."""
    osp = catalog.get("osp12")
    constants = [[list(row) for row in plane] for plane in osp.constants]
    i, j, k = next(
        (i, j, k) for i, j, k in product(range(osp.dim), repeat=3) if i < j and constants[i][j][k]
    )
    constants[i][j][k] = constants[i][j][k] + constants[i][j][k]
    return ColorAlgebra(osp.group, osp.bichar, osp.degrees, constants, names=osp.names)


@pytest.mark.parametrize("n", (2, 3))
def test_antisymmetry_breaking_input_streams_every_tuple(n, monkeypatch):
    a = _antisymmetry_breaking_osp12()
    report = a.check_axioms()
    assert not report.grading and report.antisymmetry
    # the swap rule fails here, so no tuple may be skipped
    assert _swap_rule_misses(a, n)
    seen = _check_stream(a, n, monkeypatch)
    assert any(t[0] > t[1] for _, tuples in seen for t in tuples)
    assert n_derivation_space(a, n).blocks == _full_stream(a, n).blocks


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("n", (2, 3))
def test_streamed_rows_are_sorted_nonzero_pairs(name, n, monkeypatch):
    a = catalog.get(name)
    zero = a.zero_scalar()
    for rows, _, cols, kernel in _streamed(a, n, monkeypatch):
        for row in rows:
            assert type(row) is list
            assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
            columns = [col for col, _ in row]
            assert columns == sorted(set(columns)) and set(columns) <= set(range(cols))
            assert all(type(v) is CycloScalar and v for _, v in row)
        # the dense entry point agrees with the sparse route on the same system
        dense = [_dense(row, cols, zero) for row in rows]
        assert kernel_from_rows(dense, cols, a.conductor) == kernel
        assert _kernel_from_pairs(map(_pairs, dense), cols, a.conductor) == kernel


# -- invariance under a graded basis change ----------------------------------


def _changed_basis(a, perm, scales, shears):
    """a in the basis f: f_i = s_i e_perm(i), then f_i += c f_j for each shear (i, j, c).

    P holds the f_i as columns in e coordinates and Q = P^-1; every step
    keeps deg f_i = deg e_i, so the degree list is unchanged.
    """
    d = a.dim
    P = [[scales[i] if k == perm[i] else Fraction(0) for i in range(d)] for k in range(d)]
    Q = [[1 / scales[k] if i == perm[k] else Fraction(0) for i in range(d)] for k in range(d)]
    for i, j, c in shears:
        for row in P:
            row[i] += c * row[j]
        Q[j] = [qj - c * qi for qj, qi in zip(Q[j], Q[i])]
    columns = [a.vector([P[k][i] for k in range(d)]) for i in range(d)]
    zero = a.zero_scalar()
    constants = []
    for x in columns:
        plane = []
        for y in columns:
            v = a.bracket(x, y)
            plane.append([sum((v[k] * q for k, q in enumerate(Q[l]) if q), zero) for l in range(d)])
        constants.append(plane)
    return ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)


@st.composite
def _graded_basis_changes(draw, degrees):
    classes = {}
    for i, g in enumerate(degrees):
        classes.setdefault(g, []).append(i)
    perm = list(range(len(degrees)))
    for members in classes.values():
        for i, j in zip(members, draw(st.permutations(members))):
            perm[i] = j
    nonzero = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3))
    scales = draw(st.lists(nonzero, min_size=len(degrees), max_size=len(degrees)))
    pairs = [(i, j) for members in classes.values() for i in members for j in members if i != j]
    shears = []
    if pairs:
        shears = draw(st.lists(st.tuples(st.sampled_from(pairs), nonzero), max_size=3))
    return perm, scales, [(i, j, c) for (i, j), c in shears]


def _invariants(a):
    """Per-degree nDer dimensions for n = 2..4, and the part 1 and part 2 verdicts."""
    dims = [
        {gamma.residues: sub.dim for gamma, sub in n_derivation_space(a, n).blocks.items()}
        for n in (2, 3, 4)
    ]
    part1 = [verify_nder_equals_der(a, n).to_jsonable() for n in (2, 3, 4)]
    part2 = []
    for n in (2, 3, 4):
        try:
            report = verify_second_statement(a, n)
        except PreconditionFailed:
            part2.append(None)
        else:
            part2.append((report.passed, report.block_dims))
    return dims, part1, part2


@lru_cache(maxsize=None)
def _base_invariants(name):
    return _invariants(_fresh(name))


@pytest.mark.parametrize("name", CATALOG + ("torus3",))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_graded_basis_change_keeps_spaces_and_verdicts(name, data):
    a = _fresh(name)
    perm, scales, shears = data.draw(_graded_basis_changes(a.degrees))
    b = _changed_basis(a, perm, scales, shears)
    assert b.check_axioms().ok
    assert _invariants(b) == _base_invariants(name)


@pytest.mark.parametrize("name", ("sl2", "heis3", "colorSl2", "osp12"))
@settings(deadline=None)
@given(data=st.data())
def test_pruned_route_equals_full_stream_after_basis_change(name, data):
    """The certified route, which skips one tuple of each swapped pair and takes the
    inner part as known, against the full stream on a permuted, scaled and sheared basis."""
    a = _fresh(name)
    b = _changed_basis(a, *data.draw(_graded_basis_changes(a.degrees)))
    assert b.check_axioms().ok
    for n in (2, 3):
        _assert_same_blocks(n_derivation_space(b, n), _full_stream(b, n), name, n)
