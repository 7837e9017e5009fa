import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorlie.errors import AmbientMismatch, DimensionMismatch, NoSolution
from colorlie.linalg import MatrixExact, Subspace, _pairs, _rref_rows, kernel_from_rows
from colorlie.scalars import CycloScalar


def M(rows, conductor=1, cols=None):
    return MatrixExact(
        conductor, [[CycloScalar.from_rational(e, conductor) for e in row] for row in rows], cols=cols
    )


def _identity(n):
    return M([[int(i == j) for j in range(n)] for i in range(n)])


def _row_space(mat):
    # the row space of a grid: its RREF is .basis and its rank .dim
    return Subspace.from_rows(mat.cols, mat.entries, mat.conductor)


def _kernel(mat):
    return kernel_from_rows(mat.entries, mat.cols, mat.conductor)


def _matvec(mat, v):
    # the dense product, a test-side reference
    z = CycloScalar.zero(mat.conductor)
    return tuple(sum((a * x for a, x in zip(row, v)), z) for row in mat.entries)


def test_rref_examples():
    assert _row_space(M([[2, 0], [0, 0]])).basis == M([[1, 0]])
    assert _row_space(M([[2, 0], [0, 0]])).dim == 1
    ident = _identity(3)
    assert _row_space(ident).basis == ident and _row_space(ident).dim == 3
    assert Subspace.full(3).basis == ident
    assert _row_space(M([[1, 1], [1, 1]])).basis == M([[1, 1]])


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        r = _row_space(M(rows)).basis
        assert _row_space(r).basis == r


def test_kernel_examples():
    assert _kernel(M([[0, 0, 0], [0, 0, 0]])).dim == 3
    assert _kernel(_identity(3)).dim == 0
    k = _kernel(M([[1, -1]]))
    assert k.dim == 1
    assert k == Subspace.from_rows(2, [M([[1, 1]]).entries[0]], 1)


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        mat = M(rows)
        zero = (CycloScalar.zero(1),) * 3
        for v in _kernel(mat).basis.entries:
            assert _matvec(mat, v) == zero
        assert _kernel(mat).dim == 5 - _row_space(mat).dim


def test_solve_examples():
    ident = _identity(3)
    b = [CycloScalar.from_rational(q) for q in (1, 2, 3)]
    assert ident.solve(b) == tuple(b)
    with pytest.raises(NoSolution):
        M([[1], [1]]).solve([CycloScalar.one(), CycloScalar.from_rational(2)])
    sol = M([[2]]).solve([CycloScalar.from_rational(3)])
    assert sol[0] == Fraction(3, 2)


def test_solve_satisfies_equation():
    rng = random.Random(23)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        mat = M(rows)
        x = [CycloScalar.from_rational(rng.randint(-3, 3)) for _ in range(4)]
        b = _matvec(mat, x)
        sol = mat.solve(b)  # consistent by construction
        assert _matvec(mat, sol) == b


def _rows_then_raise(rows):
    """Yield the rows, then fail if anything asks for one more."""
    yield from rows
    raise AssertionError("a row was pulled after full rank")


def test_rref_stops_pulling_at_full_rank():
    rows = M([[0, 2], [1, 1]]).entries
    reduced, pivots = _rref_rows(_rows_then_raise(map(_pairs, rows)), 2)
    one = CycloScalar.one()
    assert reduced == (((0, one),), ((1, one),)) and pivots == [0, 1]
    # the dense entry point is just as lazy
    assert kernel_from_rows(_rows_then_raise(rows), 2, 1).dim == 0
    # below full rank every row is read, so the generator's error surfaces
    with pytest.raises(AssertionError):
        _rref_rows(_rows_then_raise(map(_pairs, M([[1, 1], [2, 2]]).entries)), 2)


def test_solve_still_detects_inconsistency_at_full_rank():
    # the augmented matrix reaches full rank on its first three rows
    one, two, three = (CycloScalar.from_rational(q) for q in (1, 2, 3))
    mat = M([[1, 0], [0, 1], [1, 1], [2, 2]])
    with pytest.raises(NoSolution):
        mat.solve([one, two, two, two])
    assert mat.solve([one, two, three, CycloScalar.from_rational(6)]) == (one, two)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        M([[1, 2]]).solve([CycloScalar.one(), CycloScalar.one()])


def _span(rows, ambient, conductor=1):
    return Subspace.from_rows(
        ambient,
        [[CycloScalar.from_rational(e, conductor) for e in row] for row in rows],
        conductor,
    )


def test_subspace_examples():
    full = Subspace.full(2)
    e1 = _span([[1, 0]], 2)
    diag = _span([[1, 1]], 2)
    assert full.contains(e1)
    assert e1.intersect(_span([[0, 1]], 2)).dim == 0
    assert e1.sum(diag).dim == 2
    assert e1.sum(diag) == full


def test_subspace_equality_is_canonical():
    s = _span([[1, 2, 3], [0, 1, 1]], 3)
    t = _span([[1, 3, 4], [2, 5, 7]], 3)  # same span, different generators
    assert s == t
    assert s.basis == t.basis


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        _span([[1]], 1).sum(_span([[1, 0]], 2))
    with pytest.raises(AmbientMismatch):
        Subspace.zero(1).contains(Subspace.zero(2))
    one = CycloScalar.one()
    # the dense membership test checks the vector's length
    with pytest.raises(AmbientMismatch):
        Subspace.full(2).contains_vector((one, one, one))
    # the sparse coordinates reject a column past the ambient dimension
    with pytest.raises(AmbientMismatch):
        Subspace.full(2).coordinates_of([(0, one), (2, one)])
    assert Subspace.full(2).coordinates_of([(1, one)]) == [CycloScalar.zero(), one]


def test_grassmann_identity_fuzz():
    rng = random.Random(1234)
    for _ in range(200):
        ambient = rng.randint(1, 8)
        conductor = rng.choice((1, 4))
        s = _random_subspace_simple(rng, ambient, conductor)
        t = _random_subspace_simple(rng, ambient, conductor)
        su, it = s.sum(t), s.intersect(t)
        assert su.dim + it.dim == s.dim + t.dim
        assert su.contains(s) and su.contains(t)
        assert s.contains(it) and t.contains(it)


def _random_subspace_simple(rng, ambient, conductor):
    nrows = rng.randint(0, ambient)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ambient):
            c = CycloScalar.from_rational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)), conductor
            )
            if conductor > 1 and rng.random() < 0.3:
                c = c * CycloScalar.root(conductor, rng.randrange(conductor))
            row.append(c)
        rows.append(row)
    return Subspace.from_rows(ambient, rows, conductor)


# -- sparse elimination against the dense reference --------------------------


def _dense_rref_rows(rows, cols):
    # the dense elimination the sparse one replaced, kept as the reference
    echelon = []
    rows = iter(rows)
    while len(echelon) < cols:
        row = next(rows, None)
        if row is None:
            break
        work = list(row)
        for pc, prow in echelon:
            c = work[pc]
            if c:
                work = [a - c * b for a, b in zip(work, prow)]
        lead = next((i for i, a in enumerate(work) if a), None)
        if lead is None:
            continue
        inv = work[lead].inv()
        work = [a * inv for a in work]
        for idx, (pc, prow) in enumerate(echelon):
            c = prow[lead]
            if c:
                echelon[idx] = (pc, [a - c * b for a, b in zip(prow, work)])
        echelon.append((lead, work))
        echelon.sort(key=lambda t: t[0])
    return [r for _, r in echelon], [pc for pc, _ in echelon]


def _dense_kernel(rows, cols, conductor):
    reduced, pivots = _dense_rref_rows(rows, cols)
    z, o = CycloScalar.zero(conductor), CycloScalar.one(conductor)
    vectors = []
    for f in (f for f in range(cols) if f not in pivots):
        v = [z] * cols
        v[f] = o
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[f]
        vectors.append(v)
    return _dense_rref_rows(vectors, cols)[0]


def _dense_coordinates(basis, vector):
    vec = list(vector)
    coeffs = []
    for row in basis:
        pc = next(i for i, a in enumerate(row) if a)
        c = vec[pc]
        coeffs.append(c)
        vec = [x - c * y for x, y in zip(vec, row)]
    return None if any(vec) else coeffs


@st.composite
def _sparse_systems(draw):
    """Rows over Q(zeta_m) with about 20% nonzero entries, rational or root-of-unity
    multiples, plus rows that are combinations of earlier ones (rank deficiency);
    up to 12 rows on at most 7 columns."""
    m = draw(st.sampled_from((1, 3, 4, 5)))
    cols = draw(st.integers(min_value=1, max_value=7))
    nrows = draw(st.integers(min_value=0, max_value=12))

    def entry():
        if draw(st.integers(min_value=0, max_value=4)):
            return CycloScalar.zero(m)
        q = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
        return q * CycloScalar.root(m, draw(st.integers(min_value=0, max_value=m - 1)))

    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and not draw(st.integers(min_value=0, max_value=3)):
            a, b = draw(st.permutations(range(len(rows))))[:2]
            c = entry() or CycloScalar.one(m)
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append([entry() for _ in range(cols)])
    return m, cols, rows


@settings(max_examples=300, deadline=None)
@given(_sparse_systems())
def test_sparse_elimination_equals_dense_reference(system):
    m, cols, rows = system
    reduced, pivots = _dense_rref_rows(rows, cols)
    sparse = tuple(tuple(_pairs(row)) for row in reduced)
    assert _rref_rows([_pairs(row) for row in rows], cols) == (sparse, pivots)
    assert kernel_from_rows(rows, cols, m).basis.entries == tuple(
        tuple(r) for r in _dense_kernel(rows, cols, m)
    )


@settings(max_examples=200, deadline=None)
@given(_sparse_systems(), st.data())
def test_sparse_coordinates_equal_dense_reference(system, data):
    m, cols, rows = system
    space = Subspace.from_rows(cols, rows, m)
    basis = space.basis.entries
    weights = [
        data.draw(st.integers(min_value=-2, max_value=2)) * CycloScalar.one(m) for _ in basis
    ]
    inside = [CycloScalar.zero(m)] * cols
    for w, row in zip(weights, basis):
        inside = [x + w * y for x, y in zip(inside, row)]
    # coordinates_of reads the sparse form of each vector
    assert space.coordinates_of(_pairs(inside)) == weights
    probe = rows[0] if rows else inside
    outside = list(probe)
    outside[data.draw(st.integers(min_value=0, max_value=cols - 1))] += 1
    for vector in (inside, probe, outside):
        assert space.coordinates_of(_pairs(vector)) == _dense_coordinates(basis, vector)
        assert space.contains_vector(vector) == (_dense_coordinates(basis, vector) is not None)
    if space.dim < cols:
        # every nonzero vector of the span leads at a pivot, so e_f at a free f is outside
        f = next(f for f in range(cols) if f not in space.pivots)
        assert space.coordinates_of([(f, CycloScalar.one(m))]) is None


@settings(max_examples=200, deadline=None)
@given(_sparse_systems(), st.data())
def test_subspace_pivots_are_the_leading_columns(system, data):
    m, cols, rows = system
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    s = Subspace.from_rows(cols, rows[:split], m)
    t = Subspace.from_rows(cols, rows[split:], m)
    spaces = (
        s,
        t,
        kernel_from_rows(rows, cols, m),
        s.sum(t),
        s.intersect(t),
        Subspace.zero(cols, m),
        Subspace.full(cols, m),
    )
    one = CycloScalar.one(m)
    for space in spaces:
        basis = space.basis.entries
        leading = [next(j for j, a in enumerate(row) if a) for row in basis]
        assert list(space.pivots) == leading
        assert len(space.rows) == len(basis)
        for row, pc, dense in zip(space.rows, space.pivots, basis):
            # the stored sparse row: led by (pivot, 1), increasing columns, nonzero values
            assert row[0] == (pc, one)
            assert all(j < k for (j, _), (k, _) in zip(row, row[1:]))
            assert all(v for _, v in row)
            assert tuple(_pairs(dense)) == row


def _stacked_kernel_intersection(s, t):
    # the kernel-of-stacked-bases method Zassenhaus replaced, kept as the
    # reference: solve u*A = v*B over (u, v) and map each u back through A
    p, q, n = s.dim, t.dim, s.ambient_dim
    a, b = s.basis.entries, t.basis.entries
    stacked = ([a[i][r] for i in range(p)] + [-b[j][r] for j in range(q)] for r in range(n))
    z = CycloScalar.zero(s.conductor)
    vectors = []
    for kv in kernel_from_rows(stacked, p + q, s.conductor).basis.entries:
        v = [z] * n
        for i in range(p):
            if kv[i]:
                v = [x + kv[i] * y for x, y in zip(v, a[i])]
        vectors.append(v)
    return Subspace.from_rows(n, vectors, s.conductor)


@settings(max_examples=200, deadline=None)
@given(_sparse_systems(), st.data())
def test_intersection_equals_stacked_kernel_reference(system, data):
    m, cols, rows = system
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    s = Subspace.from_rows(cols, rows[:split], m)
    t = Subspace.from_rows(cols, rows[split:], m)
    for u, w in ((s, t), (t, s), (s, s)):
        got, want = u.intersect(w), _stacked_kernel_intersection(u, w)
        assert got == want and got.pivots == want.pivots
