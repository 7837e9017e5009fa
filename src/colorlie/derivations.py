"""Graded endomorphisms, derivation and n-derivation spaces, and the
verification routines for the main equalities on concrete algebras.

An n-derivation D satisfies, on every n-tuple of homogeneous elements,

    D([[..[[x1,x2],x3],..],xn]) =
        sum_i eps(deg D, deg x1 + .. + deg x_{i-1}) *
              [[..[x1, .., D(x_i)], .., xn]

(the i = 1 term has no twist). Because the twist presupposes a degree for
D, spaces are computed as direct sums of homogeneous blocks, one per
degree of the (finite) grading group; the full space is the span of the
blocks. A degree-gamma map can be nonzero only at coordinates (k, j) with
deg e_k - deg e_j = gamma, its block: a ``GradedMap`` holds the block's
nonzero entries as a sparse ``Subspace`` row. ``ad``, ``map_bracket`` and the
ad-preimages of ``delta`` and part 2 are built and certified on those; the
d x d ``matrix`` view, built on read, is read here only for part 2's witness
strings. Only the degrees of the support (at most d*d, read from
``ColorAlgebra.degree_table``) get a linear system; every other degree
holds the zero space.

Two independent routes exist on purpose: ``n_derivation_space`` assembles
one linear system per degree and takes its kernel, while
``is_n_derivation`` evaluates the defining identity by brute force on
every basis tuple. They share no assembly code and are cross-checked in
the test suite. The lemmas read the kernel route.

The kernel route reads basis brackets from a table of the nonzero ones,
as (k, c) pairs, and builds rows only for the tuples at most one free swap
from a nonzero bracket, so its rows scale with those: a perfect algebra
still pays for nearly all d^n, a nilpotent one for few. It twists the i-th
term by zeta_m^(w[t_1] + .. + w[t_{i-1}]), w[j] being the exponent of
eps(gamma, deg e_j); a bicharacter valid on the group, as ``ColorAlgebra``
requires, is biadditive mod m. Where the axiom check passes, the inner
block is taken as known (see ``n_derivation_space``).

Constraint rows are ordered lexicographically over
(degree, x1..xn, output coordinate); together with canonical echelon
forms this makes every computed space reproducible bit for bit. Where the
axiom check passes, a prefix (t1,) takes only t2 > t1, or t2 = t1 where
eps(deg t1, deg t1) = -1. The identity at (t2, t1, ..) is -eps(deg t2, deg t1)
times that at (t1, t2, ..): [y, x] = -eps(y, x)[x, y], applied to the
innermost bracket, maps each of its terms onto one of the other's, the
twists matching as eps(gamma, t2) eps(t2, gamma) = 1. At (t, t, ..) the
identity is zero where eps(deg t, deg t) = 1. The kept tuple comes first,
so the rank after every position of the full stream, the early exit and
the bases are unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import product
from math import lcm

from .algebra import ColorAlgebra, per_algebra
from .errors import (
    AlgebraMismatch,
    BadArity,
    DimensionMismatch,
    NoSolution,
    NotClosed,
    PreconditionFailed,
)
from .fileio import Records, Residues
from .grading import GroupElement
from .linalg import Subspace, _kernel_from_pairs, _pairs, _sorted_pairs, kernel_from_rows
from .scalars import CycloScalar, _nonzero_sum

DEFAULT_MAX_N = 4


def block_coordinates(a: ColorAlgebra, gamma: GroupElement) -> tuple:
    """Matrix coordinates (k, j) a degree-gamma map may occupy: deg k = gamma + deg j.

    Every (k, j) belongs to exactly one degree, so the blocks partition the
    d*d coordinate space; degrees off the support get ().
    """
    return a.degree_table().blocks.get(gamma, ())


class GradedMap:
    """A homogeneous linear endomorphism, held as its degree and its block entries.

    ``entries`` are the nonzero (position, value) pairs at positions of
    ``block_coordinates(algebra, degree)``, increasing: a sparse ``Subspace``
    row. ``matrix`` is the d x d view, built on each read, in which M[k][j] is
    the e_k coefficient of D(e_j). The public constructors, from such a grid
    or ``from_block_vector``, coerce entries as ``algebra.scalar`` does; the
    grid's rejects a nonzero entry outside the degree block.
    """

    __slots__ = ("algebra", "degree", "entries", "_cols")

    def __new__(cls, algebra: ColorAlgebra, degree: GroupElement, matrix):
        matrix = [[algebra.scalar(c) for c in row] for row in matrix]
        d = algebra.dim
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ValueError(f"matrix must be {d}x{d}")
        differences = algebra.degree_table().differences
        for k in range(d):
            for j in range(d):
                if matrix[k][j] and differences[k][j] != degree:
                    raise ValueError(
                        f"entry ({k}, {j}) violates the degree-{degree} block support"
                    )
        coords = block_coordinates(algebra, degree)
        return GradedMap._of(algebra, degree, tuple(_pairs(matrix[k][j] for k, j in coords)))

    @staticmethod
    def _of(algebra: ColorAlgebra, degree: GroupElement, entries: tuple) -> "GradedMap":
        # the private path, for entries already in the stored form: nothing is coerced
        D = object.__new__(GradedMap)
        for name, value in zip(GradedMap.__slots__, (algebra, degree, entries, None)):
            object.__setattr__(D, name, value)
        return D

    def __setattr__(self, name, value):
        raise AttributeError("GradedMap is immutable")

    @staticmethod
    def zero(algebra: ColorAlgebra, degree: GroupElement) -> "GradedMap":
        return GradedMap._of(algebra, degree, ())

    @property
    def matrix(self) -> tuple:
        """The d x d grid of this map, built on each read."""
        d = self.algebra.dim
        grid = [[self.algebra.zero_scalar()] * d for _ in range(d)]
        for j, col in enumerate(_columns(self)):
            for k, c in col:
                grid[k][j] = c
        return tuple(map(tuple, grid))

    def apply(self, v) -> tuple:
        if len(v) != self.algebra.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {self.algebra.dim}")
        out = [self.algebra.zero_scalar()] * self.algebra.dim
        for vj, col in zip(v, _columns(self)):
            if vj:
                for k, c in col:
                    out[k] = out[k] + c * vj
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def block_vector(self) -> tuple:
        """Entries at this degree's block coordinates, in canonical order; built on each read."""
        vec = [self.algebra.zero_scalar()] * len(block_coordinates(self.algebra, self.degree))
        for p, c in self.entries:
            vec[p] = c
        return tuple(vec)

    @staticmethod
    def from_block_vector(algebra: ColorAlgebra, degree: GroupElement, vec) -> "GradedMap":
        coords = block_coordinates(algebra, degree)
        if len(vec) != len(coords):
            raise ValueError(f"expected {len(coords)} block entries, got {len(vec)}")
        return GradedMap._of(algebra, degree, tuple(_pairs(map(algebra.scalar, vec))))

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        # the zero map belongs to every degree component
        return (self.degree == other.degree or not self.entries) and self.entries == other.entries

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, dim={self.algebra.dim})"


def ad(a: ColorAlgebra, x) -> GradedMap:
    """The inner map y -> [x, y]; requires x homogeneous (NonHomogeneous otherwise).

    Summed on its block from the nonzero constants. A term off the block raises
    ValueError ("block support"); on a mis-graded algebra that now includes an x
    whose misplaced terms cancel, which the summed d x d grid let pass.
    """
    degree = a.degree_of(x)
    table = a.degree_table()
    acc = defaultdict(a.zero_scalar)
    nz = a._nonzero
    for i, xi in enumerate(x):
        if xi:
            for j in range(a.dim):
                for k, c in nz[i][j]:
                    if table.differences[k][j] != degree:
                        raise ValueError(f"entry ({k}, {j}) violates the degree-{degree} block support")
                    acc[table.positions[k, j]] += xi * c
    return GradedMap._of(a, degree, _sorted_pairs(acc))


@per_algebra
def _ad_basis(a: ColorAlgebra) -> tuple:
    """ad(e_i) for every basis index i; a failed grading scan raises a located ValueError."""
    scan = a._grading_scan()
    if scan:
        i, j, k = scan[0]
        raise ValueError(f"the grading fails at c[{i}][{j}][{k}], so ad({a.names[i]}) is not homogeneous")
    return tuple(ad(a, a.basis_vector(i)) for i in range(a.dim))


@cache
def _empty_block(conductor: int) -> Subspace:
    # the zero space of ambient dimension 0, shared by every space of one conductor
    return Subspace.zero(0, conductor)


# fields of DerivationSpace._columns
def _block(gamma, sub):
    return sub


def _dim(gamma, sub) -> int:
    return sub.dim


class DerivationSpace:
    """A per-degree direct sum of graded-map spaces, held on the support only.

    ``blocks`` holds one block per degree of the support (the keys of
    ``ColorAlgebra.degree_table().blocks``), in group order; a support
    degree the caller left out holds the zero space of ambient dimension 0.
    The reports list every degree of the group, in group order, with that
    same shared zero space off the support: ``_columns`` builds their lists
    one field at a time, and ``walk()`` pairs each degree with its block.

    The space owns its basis layout: ``basis_maps()`` lists the block bases
    degree by degree, and ``coordinates(D)`` gives D's coefficients in that
    order, or None when D lies outside the space. The basis maps, the brackets
    of their pairs in those coordinates, and their compat misses are built once
    and kept in ``_cache`` (``per_algebra``).
    """

    __slots__ = ("algebra", "n", "blocks", "total_dim", "_offsets", "_cache")

    def __init__(self, algebra: ColorAlgebra, n: int, blocks: dict):
        empty = _empty_block(algebra.conductor)
        blocks = {gamma: blocks.get(gamma, empty) for gamma in algebra.degree_table().blocks}
        # where each populated block's coefficients start in basis_maps() order
        offsets = {}
        total = 0
        for gamma, sub in blocks.items():
            if sub.dim:
                offsets[gamma] = total
                total += sub.dim
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "total_dim", total)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("DerivationSpace is immutable")

    def walk(self):
        """(gamma, block) for every degree of the group, in group order."""
        _, (blocks,) = self._columns(_block)
        return zip(self.algebra.group.elements(), blocks)

    def _columns(self, *fields) -> tuple:
        """The residues of every degree of the group in group order, as a
        ``fileio.Residues`` that yields a fresh list per degree and that
        ``json_text`` writes with no list rendered one at a time; and one list
        per field over the same degrees.

        A field is called as field(gamma, block) on each support block, in
        group order, and once as field(None, empty) for the shared zero space,
        whose value prefills the list. Group order is the mixed-radix order of
        the residues, so each support block is written in at its index and no
        degree is hashed or searched for.
        """
        group = self.algebra.group
        empty = _empty_block(self.algebra.conductor)
        columns = [[f(None, empty)] * group.size for f in fields]
        for gamma, sub in self.blocks.items():
            i = 0
            for r, order in zip(gamma.residues, group.orders):
                i = i * order + r
            for column, f in zip(columns, fields):
                column[i] = f(gamma, sub)
        return Residues(group.orders), columns

    def basis_maps(self) -> list:
        """Every block-basis vector as a GradedMap, in canonical order; built once, listed afresh."""
        return list(_basis_maps(self))

    def coordinates(self, D: GradedMap):
        """D's coefficients over ``basis_maps()``, or None when D is outside the space."""
        if D.algebra != self.algebra:
            raise AlgebraMismatch("map is over a different algebra")
        start = self._offsets.get(D.degree)
        if start is None:
            return (self.algebra.zero_scalar(),) * self.total_dim if D.is_zero() else None
        local = self.blocks[D.degree].coordinates_of(D.entries)
        if local is None:
            return None
        z = self.algebra.zero_scalar()
        return (z,) * start + tuple(local) + (z,) * (self.total_dim - start - len(local))

    def contains_map(self, D: GradedMap) -> bool:
        return self.coordinates(D) is not None

    def __repr__(self):
        dims = {gamma.residues: sub.dim for gamma, sub in self.walk()}
        return f"DerivationSpace(n={self.n}, dims={dims}, total={self.total_dim})"


@per_algebra
def _basis_maps(space: DerivationSpace) -> tuple:
    # the kept basis maps, which the space's own readers index without a copy
    return tuple(
        GradedMap._of(space.algebra, gamma, row)
        for gamma, sub in space.blocks.items() for row in sub.rows
    )


@per_algebra
def _basis_bracket_table(a: ColorAlgebra, n: int) -> tuple:
    """Nonzero left-normed brackets of basis n-tuples in lexicographic order, as
    (k, c) pairs in increasing k, and ``ahead[p]``: the j with p + (j,) a prefix
    of a key. Only nonzero prefixes are extended; at most d^n keys are held."""
    d = a.dim
    one = a.one_scalar()
    nz = a._nonzero
    level = {(j,): ((j, one),) for j in range(d)}
    for _ in range(n - 1):
        nxt = {}
        for t, vec in level.items():
            for j in range(d):
                out = {}
                for i, vi in vec:
                    for k, c in nz[i][j]:
                        p = vi * c
                        out[k] = out[k] + p if k in out else p
                pairs = _sorted_pairs(out)
                if pairs:
                    nxt[t + (j,)] = pairs
        level = nxt
    ahead = {}
    for t in level:
        for i in range(n):
            ahead.setdefault(t[:i], set()).add(t[i])
    return level, ahead


def n_derivation_space(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> DerivationSpace:
    """Kernel, per degree, of the defining identity on all basis n-tuples.

    n = 2 is the ordinary derivation space Der. Per degree, rows are built
    for the tuples at most one free swap from a nonzero bracket, and on
    input that passes the axiom check for one tuple of each pair
    (t1, t2, ..), (t2, t1, ..) (see the module docstring). Their number
    grows as d^n on a perfect algebra, so n is capped (default 4); pass a
    larger max_n to override deliberately.

    On a Lie color algebra (the axiom check passes) every
    ad x is a derivation, hence an n-derivation, of degree deg x, so each
    block of ``inner_derivation_space`` is a known part K of the kernel.
    The kernel is then K plus the solutions that vanish at the pivots of
    K's canonical basis, so only the other columns are assembled; when
    nDer = Inn in a block they have full rank and the stream stops early.
    Without the certificate K is zero and every column is solved.

    Each constraint row is streamed as sorted (column, value) pairs of its
    nonzero entries over the free columns, ``[]`` when its terms cancel.
    """
    if n < 2:
        raise BadArity(f"n-derivations need n >= 2, got {n}")
    if n > max_n:
        raise BadArity(
            f"n = {n} exceeds the cost cap max_n = {max_n}; "
            f"override max_n explicitly to proceed"
        )
    return _n_derivation_space(a, n)


@per_algebra
def _n_derivation_space(a: ColorAlgebra, n: int) -> DerivationSpace:
    # the kernel route of n_derivation_space, past its checks on n
    d = a.dim
    m = a.conductor
    table, ahead = _basis_bracket_table(a, n)
    certified = a.check_axioms().ok
    known = inner_derivation_space(a).blocks if certified else {}
    blocks = {}
    for gamma, coords in a.degree_table().blocks.items():
        inner = known.get(gamma) or Subspace.zero(len(coords), m)
        taken = set(inner.pivots)
        free = [pos for pos in range(len(coords)) if pos not in taken]
        # free columns (output r, column) of M[r][l] by input l; inputs l by output r
        by_input = [[] for _ in range(d)]
        by_output = [set() for _ in range(d)]
        for col, pos in enumerate(free):
            r, l = coords[pos]
            by_input[l].append((r, col))
            by_output[r].add(l)
        # eps(gamma, deg x1 + .. + deg x_{i-1}) = zeta_m^(w[t_1] + .. + w[t_{i-1}])
        w = [a.bichar.exponent(gamma, g) for g in a.degrees]

        def tuples():
            # depth first, in lexicographic order; enters p + (j,) only when it is
            # at most one free swap (x for t_i, M[x][t_i] free) from a key's prefix
            stack = [()]
            while stack:
                p = stack.pop()
                if len(p) == n:
                    yield p
                    continue
                here = ahead.get(p, ())
                after = set(here)
                for x in here:
                    after |= by_output[x]
                for i, l in enumerate(p):
                    if len(after) == d:
                        break
                    for x, _ in by_input[l]:
                        after.update(ahead.get(p[:i] + (x,) + p[i + 1:], ()))
                if certified and len(p) == 1:
                    # (t2, t1, ..) repeats the rows of (t1, t2, ..); (t, t, ..) is zero unless eps(t, t) = -1
                    t1, g = p[0], a.degrees[p[0]]
                    after = [j for j in after if j > t1 or j == t1 and a.bichar.exponent(g, g)]
                stack.extend(p + (j,) for j in sorted(after, reverse=True))

        def rows():
            # per tuple, only the output coordinates some nonzero term reaches,
            # each summed as {column: value} and yielded as its sorted nonzero
            # pairs, [] when the terms cancel
            for t in tuples():
                acc = defaultdict(dict)
                for l, c in table.get(t, ()):
                    for r, col in by_input[l]:
                        acc[r][col] = c
                k = 0
                for i, j in enumerate(t):
                    e = CycloScalar.root(m, k)
                    for x, col in by_input[j]:
                        for r, c in table.get(t[:i] + (x,) + t[i + 1:], ()):
                            row = acc[r]
                            v = row.get(col)
                            row[col] = -(e * c) if v is None else v - e * c
                    k = (k + w[j]) % m
                for r in sorted(acc):
                    yield [(col, v) for col, v in sorted(acc[r].items()) if v]

        rest = _kernel_from_pairs(rows(), len(free), m)
        if not inner.dim:
            blocks[gamma] = rest
            continue
        shifted = ([(free[col], c) for col, c in row] for row in rest.rows)
        blocks[gamma] = Subspace._from_pairs(len(coords), (*inner.rows, *shifted), m)
    return DerivationSpace(a, n, blocks)


def is_n_derivation(a: ColorAlgebra, D: GradedMap, n: int) -> bool:
    """Brute-force check of the defining identity on every basis n-tuple.

    Deliberately shares no code with the system assembler in
    ``n_derivation_space``: brackets are evaluated by direct bilinear folds.
    """
    if n < 2:
        raise BadArity(f"n-derivations need n >= 2, got {n}")
    if D.algebra != a:
        raise AlgebraMismatch("map is over a different algebra")
    d = a.dim
    basis = [a.basis_vector(i) for i in range(d)]
    gamma = D.degree
    for t in product(range(d), repeat=n):
        xs = [basis[j] for j in t]
        lhs = D.apply(a.left_normed_bracket(xs))
        rhs = [a.zero_scalar()] * d
        s = a.group.zero()
        for i in range(n):
            e = a.bichar.eps(gamma, s)
            ys = list(xs)
            ys[i] = D.apply(ys[i])
            term = a.left_normed_bracket(ys)
            rhs = [acc + e * c for acc, c in zip(rhs, term)]
            s = s + a.degrees[t[i]]
        if tuple(rhs) != lhs:
            return False
    return True


@per_algebra
def inner_derivation_space(a: ColorAlgebra) -> DerivationSpace:
    """Image of x -> ad(x), organized per degree; dimension is d - dim Z."""
    m = a.conductor
    blocks = {}
    for gamma, coords in a.degree_table().blocks.items():
        rows = [x.entries for x in _ad_basis(a) if x.degree == gamma]
        blocks[gamma] = Subspace._from_pairs(len(coords), rows, m)
    return DerivationSpace(a, 2, blocks)


def _columns(D: GradedMap) -> list:
    # per column j, the (k, M[k][j]) with M[k][j] nonzero, k increasing; found once per map
    cols = D._cols
    if cols is None:
        cols = [[] for _ in range(D.algebra.dim)]
        coords = block_coordinates(D.algebra, D.degree)
        for p, c in D.entries:
            k, j = coords[p]
            cols[j].append((k, c))
        object.__setattr__(D, "_cols", cols)
    return cols


def map_bracket(d1: GradedMap, d2: GradedMap) -> GradedMap:
    """d1 o d2 - eps(deg d1, deg d2) * d2 o d1, of degree deg d1 + deg d2.

    Accumulated into the output block from the nonzero entries of both maps:
    d1[k][l] * d2[l][j] != 0 puts (k, j) at degree deg d1 + deg d2.
    """
    if d1.algebra != d2.algebra:
        raise AlgebraMismatch("bracketing maps over different algebras")
    a = d1.algebra
    e = a.bichar.eps(d1.degree, d2.degree)
    degree = d1.degree + d2.degree
    cols1, cols2 = _columns(d1), _columns(d2)
    pos = a.degree_table().positions
    acc = defaultdict(a.zero_scalar)
    for j in range(a.dim):
        # column j of d1 o d2 is sum_l d2[l][j] * (column l of d1)
        for l, b in cols2[j]:
            for k, c in cols1[l]:
                acc[pos[k, j]] += c * b
        for l, b in cols1[j]:
            eb = e * b
            for k, c in cols2[l]:
                acc[pos[k, j]] -= c * eb
    return GradedMap._of(a, degree, _sorted_pairs(acc))


@per_algebra
def _ad_factor(a: ColorAlgebra) -> tuple:
    """Coordinates (k, l) on which y -> ad(y) is invertible, and its inverse there.

    Row i of [ad(e_i) flattened row-major | e_i] has RREF [R | M] with
    M A = R, A the matrix of rows ad(e_i). R is the identity at its pivot
    coordinates P, so M inverts A restricted to P, and ad(y) = T forces
    y_i = sum_s M[s][i] T[P_s]. A pivot in the e_i part means some
    combination of the ad(e_i) vanishes: the center is nonzero. Gives {P_s: s}, M.
    """
    d = a.dim
    rows = (
        [(k * d + l, c) for (k, l), c in ((block_coordinates(a, x.degree)[p], c) for p, c in x.entries)]
        + [(d * d + i, a.one_scalar())]
        for i, x in enumerate(_ad_basis(a))
    )
    span = Subspace._from_pairs(d * d + d, rows, a.conductor)
    if span.pivots and span.pivots[-1] >= d * d:
        raise PreconditionFailed("ad is not injective: the center is nonzero")
    inverse = [[(j - d * d, c) for j, c in row if j >= d * d] for row in span.rows]
    return {divmod(p, d): s for s, p in enumerate(span.pivots)}, inverse


def _solve_ad_preimage(a: ColorAlgebra, target: GradedMap) -> tuple:
    """The unique y with ad(y) = target; needs a zero center (PreconditionFailed).

    y is read off the cached factorization of ad at d coordinates, walking the
    target's entries, then certified exactly: y must be homogeneous and ad(y)
    must equal target as a graded map, otherwise target lies outside ad(L) and
    NoSolution is raised.
    """
    pivots, inverse = _ad_factor(a)
    coords = block_coordinates(a, target.degree)
    y = [a.zero_scalar()] * a.dim
    for p, t in target.entries:
        s = pivots.get(coords[p])
        if s is not None:
            for i, c in inverse[s]:
                y[i] += c * t
    if not (a.is_homogeneous(y) and ad(a, y) == target):
        raise NoSolution("target is outside ad(L)")
    return tuple(y)


def _ad_preimages(a: ColorAlgebra, degree: GroupElement, targets) -> GradedMap:
    """The degree-``degree`` map whose column j is the y with ad(y) = the j-th target.

    Targets are taken one at a time, so none is built after a failing
    column; NoSolution names that column. The j-th target has degree
    ``degree`` + deg e_j; with a zero center (``_ad_factor`` raises otherwise)
    a certified y, homogeneous with ad(y) = target, is zero or of that degree,
    as a part of another degree would be central. So column j lies in the
    block; each nonzero y_k is still checked against it (ValueError) and
    placed at its block position.
    """
    table = a.degree_table()
    entries = {}
    for j, target in enumerate(targets):
        try:
            y = _solve_ad_preimage(a, target)
        except NoSolution as exc:
            raise NoSolution(f"the target for e_{j} fell outside ad(L)") from exc
        for k, c in enumerate(y):
            if c:
                if table.differences[k][j] != degree:
                    raise ValueError(f"entry ({k}, {j}) violates the degree-{degree} block support")
                entries[table.positions[k, j]] = c
    return GradedMap._of(a, degree, _sorted_pairs(entries))


def delta(a: ColorAlgebra, D: GradedMap, n: int) -> GradedMap:
    """The map with [D, ad x] = ad(delta(x)) for all x, for perfect centerless algebras.

    Computed by solving ad(y) = [D, ad e_j] for each basis vector; the zero
    center makes y unique, so no bracket decomposition of x is ever chosen.
    The solve certifies ad(y) = [D, ad e_j] exactly, which is the
    postcondition [D, ad e_j] = ad(delta(e_j)). A failing solve means
    [D, ad x] escaped the inner space, which the inner-ideal property rules
    out; it is surfaced as NoSolution.
    """
    if n < 2:
        raise BadArity(f"n-derivations need n >= 2, got {n}")
    if not a.is_perfect():
        raise PreconditionFailed("delta needs a perfect algebra")
    if a.center().dim != 0:
        raise PreconditionFailed("delta needs a zero center")
    return _ad_preimages(a, D.degree, (map_bracket(D, x) for x in _ad_basis(a)))


@per_algebra
def _pair_brackets(space: DerivationSpace) -> tuple:
    """Coordinates of [B_p, B_q] over ``space.basis_maps()`` for every pair of
    basis maps, None where the bracket escapes the space; built once per space.

    Only p <= q is bracketed: every bicharacter ``ColorAlgebra`` accepts has
    eps(a, b) eps(b, a) = 1, so [B_q, B_p] = -eps(deg B_q, deg B_p) [B_p, B_q],
    and the two escape together. A zero bracket needs no solve: both entries
    get one shared zero tuple.
    """
    maps = _basis_maps(space)
    r = len(maps)
    grid = [[None] * r for _ in range(r)]
    eps = space.algebra.bichar.eps
    zero = (space.algebra.zero_scalar(),) * r
    for p in range(r):
        for q in range(p, r):
            bracket = map_bracket(maps[p], maps[q])
            if bracket.is_zero():
                grid[p][q] = grid[q][p] = zero
                continue
            coords = grid[p][q] = space.coordinates(bracket)
            if coords is not None and q > p:
                e = -eps(maps[q].degree, maps[p].degree)
                grid[q][p] = tuple(e * c if c else c for c in coords)
    return tuple(map(tuple, grid))


@per_algebra
def _compat_misses(space: DerivationSpace, p: int) -> tuple:
    """The i with [B_p, ad e_i] != ad(B_p(e_i)), read off the derivation identity: i is a
    miss at the first j where B_p[e_i, e_j] - [B_p e_i, e_j] - eps(deg B_p, deg e_i)[e_i, B_p e_j]
    is nonzero. Each output coordinate sums integer numerators, of the nonzero constants and
    of the columns of B_p over their own common denominator, with eps = zeta^t as a shift by
    t; one remainder mod Phi_m decides it. No map is bracketed. Where ad is injective (a zero
    center) there are no misses exactly when delta(B_p) = B_p, as
    ad(delta(B_p)(e_i)) = [B_p, ad e_i]. Kept on the space by p."""
    a = space.algebra
    D = _basis_maps(space)[p]
    m, nz = a.conductor, a._integer_constants()
    den = lcm(*(c.den for _, c in D.entries))
    cols = [[(k, tuple(x * (den // c.den) for x in c.num)) for k, c in col] for col in _columns(D)]
    neg = [[(k, tuple(-x for x in b)) for k, b in col] for col in cols]
    by_col = tuple(zip(*nz))  # by_col[j][l] = nz[l][j]
    found = []
    for i in range(a.dim):
        t, nzi = a.bichar.exponent(D.degree, a.degrees[i]), nz[i]
        for j in range(a.dim):
            # minus the identity at k: -c[i][j][l] B[k][l] + B[l][i] c[l][j][k] + zeta^t B[l][j] c[i][l][k]
            if _nonzero_sum([(0, nzi[j], neg), (0, cols[i], by_col[j]), (t, cols[j], nzi)], m):
                found.append(i)
                break
    return tuple(found)


def derivation_color_algebra(a: ColorAlgebra, space: DerivationSpace) -> ColorAlgebra:
    """The map space as a Lie color algebra under map_bracket.

    Basis: the per-degree block bases of ``space`` in canonical order, each
    carrying its block degree; structure constants are the space's cached
    pair brackets (``_pair_brackets``). NotClosed names the first escaping
    pair in row-major order, which has p <= q; the result must pass the
    axiom check.
    """
    maps = space.basis_maps()
    grid = _pair_brackets(space)
    for p, row in enumerate(grid):
        if None in row:
            q = row.index(None)
            raise NotClosed(f"bracket of basis maps ({p}, {q}) escapes the space", (p, q))
    result = ColorAlgebra(
        a.group,
        a.bichar,
        [mp.degree for mp in maps],
        grid,
        names=tuple(f"D{i + 1}" for i in range(len(maps))),
    )
    gate = result.check_axioms()
    if not gate.ok:
        raise RuntimeError(
            "derivation algebra failed the axiom check: " + "; ".join(gate.messages())
        )
    return result


# -- verification reports ----------------------------------------------------


def _compare_blocks(s: DerivationSpace, t: DerivationSpace) -> tuple:
    """Per degree, in group order: (residues, dim in s, dim in t, equal); and all equal."""
    residues, (s_dims, xs) = s._columns(_dim, _block)
    _, (t_dims, ys) = t._columns(_dim, _block)
    equal = [x is y or x == y for x, y in zip(xs, ys)]
    return list(zip(residues, s_dims, t_dims, equal)), all(equal)


def _degree_records(keys: tuple, orders: tuple, block_dims: list) -> Records:
    # block_dims as Records, its degree column the group's residues, which json_text writes in runs
    return Records._of(keys, (Residues(orders),) + Records(keys, block_dims).columns[1:])


@dataclass
class TheoremPart1Report:
    """Whether the n-derivation space coincides with the derivation space."""

    n: int
    is_perfect: bool
    center_dim: int
    orders: tuple  # of the grading group, whose degrees block_dims lists in group order
    block_dims: list  # (degree residues, der dim, nder dim, equal)
    equal: bool
    der_total: int
    nder_total: int
    delta_fixed_point: bool | None  # only evaluated on theorem instances that pass the axioms

    @property
    def preconditions_hold(self) -> bool:
        return self.is_perfect and self.center_dim == 0

    @property
    def passed(self) -> bool:
        return self.equal and self.delta_fixed_point is True

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "is_perfect": self.is_perfect,
            "center_dim": self.center_dim,
            "preconditions_hold": self.preconditions_hold,
            "blocks": _degree_records(("degree", "der_dim", "nder_dim", "equal"), self.orders, self.block_dims),
            "equal": self.equal,
            "der_total": self.der_total,
            "nder_total": self.nder_total,
            "delta_fixed_point": self.delta_fixed_point,
        }


def verify_nder_equals_der(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> TheoremPart1Report:
    """Compare nDer and Der per degree; on perfect centerless algebras they must agree.

    When the hypotheses or the axiom check fail the observed relationship is
    recorded with no claim attached. On theorem instances the report confirms
    delta(D) = D on every basis map: D has no ``_compat_misses``, which are read
    off the derivation identity, or else delta is solved for and compared.
    """
    der = n_derivation_space(a, 2, max_n=max_n)
    nder = n_derivation_space(a, n, max_n=max_n)
    blocks, equal = _compare_blocks(der, nder)
    is_perfect = a.is_perfect()
    center_dim = a.center().dim
    fixed = None
    if is_perfect and center_dim == 0 and a.check_axioms().ok:
        maps = nder.basis_maps()
        fixed = all(not _compat_misses(nder, p) or delta(a, D, n) == D for p, D in enumerate(maps))
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


@dataclass
class SecondStatementReport:
    """Whether every n-derivation of the derivation algebra is inner."""

    n: int
    derivation_algebra_dim: int
    orders: tuple  # of the grading group, whose degrees block_dims lists in group order
    block_dims: list  # (degree residues, inner dim, nder dim, equal)
    equal: bool
    inner_total: int
    nder_total: int
    base_der_equals_nder: bool  # cross-check: on the base algebra Der = nDer
    preserves_inner_image: bool
    witness_failures: list
    witnesses: list  # per nDer basis map: matrix of the witness derivation d

    @property
    def passed(self) -> bool:
        return (
            self.equal
            and self.base_der_equals_nder
            and self.preserves_inner_image
            and not self.witness_failures
        )

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "derivation_algebra_dim": self.derivation_algebra_dim,
            "blocks": _degree_records(("degree", "inner_dim", "nder_dim", "equal"), self.orders, self.block_dims),
            "equal": self.equal,
            "inner_total": self.inner_total,
            "nder_total": self.nder_total,
            "base_der_equals_nder": self.base_der_equals_nder,
            "preserves_inner_image": self.preserves_inner_image,
            "witness_failures": self.witness_failures,
            "witnesses": self.witnesses,
        }


def verify_second_statement(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> SecondStatementReport:
    """Build the derivation algebra A, then check nDer(A) = ad(A) with sub-checks.

    Sub-check one: every basis map of nDer(A) keeps the image of x -> ad(x)
    inside itself. Sub-check two: for each such map D there is a derivation
    d of the base algebra with D(ad x) = ad(d(x)) on all basis x; d is
    solved for and recorded. Requires a perfect algebra with zero center
    that passes the axiom check.
    """
    if not a.is_perfect():
        raise PreconditionFailed("second statement needs a perfect algebra")
    if a.center().dim != 0:
        raise PreconditionFailed("second statement needs a zero center")
    # Der is a Lie color algebra containing ad(L) only when L is one
    if not a.check_axioms().ok:
        raise PreconditionFailed("second statement needs an algebra that passes the axioms")
    der = n_derivation_space(a, 2, max_n=max_n)
    # Der is used as the algebra below; record that it matches nDer on the base
    nder_base = n_derivation_space(a, n, max_n=max_n)
    base_match = _compare_blocks(der, nder_base)[1]
    A = derivation_color_algebra(a, der)
    nder_A = n_derivation_space(A, n, max_n=max_n)
    inner_A = inner_derivation_space(A)
    blocks, equal = _compare_blocks(inner_A, nder_A)

    # coordinates of each ad(e_i) of the base algebra inside A
    ad_image_rows = [der.coordinates(x) for x in _ad_basis(a)]
    if None in ad_image_rows:
        raise NoSolution("an inner map of the base algebra escaped Der")
    ad_image = Subspace.from_rows(A.dim, ad_image_rows, A.conductor)
    # the nonzero block entries of Der's basis maps, from which witness targets are summed
    der_pairs = [row for sub in der.blocks.values() for row in sub.rows]

    def der_map(coeffs, degree) -> GradedMap:
        # D(ad e_i) has degree deg D + deg e_i, so its terms are basis maps of that degree
        acc = defaultdict(a.zero_scalar)
        for c, pairs in zip(coeffs, der_pairs):
            if c:
                for s, v in pairs:
                    acc[s] += c * v
        return GradedMap._of(a, degree, _sorted_pairs(acc))

    preserves = True
    witness_failures = []
    witnesses = []
    for idx, D in enumerate(nder_A.basis_maps()):
        # D keeps ad(L) when it maps each spanning ad(e_i) into it
        images = [D.apply(row) for row in ad_image_rows]
        preserves &= all(map(ad_image.contains_vector, images))
        # witness d with D(ad x) = ad(d(x)) on all basis x
        targets = (der_map(v, D.degree + g) for v, g in zip(images, a.degrees))
        try:
            d_map = _ad_preimages(a, D.degree, targets)
        except NoSolution:
            witness_failures.append(idx)
            witnesses.append(None)
            continue
        witnesses.append([[str(c) for c in row] for row in d_map.matrix])
        # the witness must itself be a derivation of the base algebra
        if not der.contains_map(d_map):
            witness_failures.append(idx)

    return SecondStatementReport(
        n=n,
        derivation_algebra_dim=A.dim,
        orders=A.group.orders,
        block_dims=blocks,
        equal=equal,
        inner_total=inner_A.total_dim,
        nder_total=nder_A.total_dim,
        base_der_equals_nder=base_match,
        preserves_inner_image=preserves,
        witness_failures=witness_failures,
        witnesses=witnesses,
    )


class _LemmaReport:
    """A lemma report that lists its failures; it passes when there are none."""

    @property
    def passed(self) -> bool:
        return not self.failures

    to_jsonable = asdict


@dataclass
class ClosureReport(_LemmaReport):
    """Bracket closure of nDer, decided on the pairs of basis maps.

    ``failures`` lists the pairs (p, q), p <= q, of basis maps whose bracket
    escapes the space, in row-major order. ``trials`` is carried as given.
    """

    n: int
    trials: int
    failures: list = field(default_factory=list)


def verify_closure(a: ColorAlgebra, n: int, trials: int, *, max_n: int = DEFAULT_MAX_N) -> ClosureReport:
    """Bracket closure of nDer, read off ``_pair_brackets``.

    The bracket is bilinear and nDer is a subspace, so nDer is closed exactly
    when [B_p, B_q] lies in it for every pair of basis maps. The twisted
    commutator of two n-derivations is one whenever eps(a, b) eps(b, a) = 1,
    which ``ColorAlgebra`` requires, so no pair escapes a space built by
    ``n_derivation_space``, even on input that fails the axiom check.
    """
    grid = _pair_brackets(n_derivation_space(a, n, max_n=max_n))
    failures = [(p, q) for p, row in enumerate(grid) for q in range(p, len(row)) if row[q] is None]
    return ClosureReport(n, trials, failures)


@dataclass
class InnerIdealReport(_LemmaReport):
    """Whether [nDer, ad(L)] lands back in ad(L)."""

    n: int
    failures: list = field(default_factory=list)  # (basis map index, basis vector index)


def verify_inner_ideal(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> InnerIdealReport:
    if not a.is_perfect():
        raise PreconditionFailed("inner-ideal check needs a perfect algebra")
    nder = n_derivation_space(a, n, max_n=max_n)
    inner = inner_derivation_space(a)
    # with no compat miss at i, [B_p, ad e_i] = ad(B_p(e_i)) lies in ad(L)
    failures = [
        (p, i) for p, D in enumerate(nder.basis_maps()) for i in _compat_misses(nder, p)
        if not inner.contains_map(map_bracket(D, _ad_basis(a)[i]))
    ]
    return InnerIdealReport(n=n, failures=failures)


@dataclass
class CentralizerReport:
    """Dimension of the solution space of [D, ad e_j] = 0 inside each nDer block."""

    n: int
    orders: tuple  # of the grading group, whose degrees block_dims lists in group order
    block_dims: list = field(default_factory=list)  # (degree residues, dim)
    total_dim: int = 0

    @property
    def passed(self) -> bool:
        return self.total_dim == 0

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "blocks": _degree_records(("degree", "dim"), self.orders, self.block_dims),
            "total_dim": self.total_dim,
        }


def verify_centralizer_trivial(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> CentralizerReport:
    if not a.is_perfect():
        raise PreconditionFailed("centralizer check needs a perfect algebra")
    nder = n_derivation_space(a, n, max_n=max_n)
    maps = _basis_maps(nder)

    def kernel_dim(gamma, sub) -> int:
        r = sub.dim
        if not r:
            return 0
        start = nder._offsets[gamma]
        # one ad(e_j) at a time, so no bracket is built once the rows reach rank r
        brackets = ([map_bracket(B, x) for B in maps[start:start + r]] for x in _ad_basis(a))
        # the brackets with one ad(e_j) share the degree gamma + deg e_j
        rows = (row for bs in brackets for row in zip(*(B.block_vector() for B in bs)))
        return kernel_from_rows(rows, r, a.conductor).dim

    residues, (dims,) = nder._columns(kernel_dim)
    return CentralizerReport(n, a.group.orders, list(zip(residues, dims)), sum(dims))


@dataclass
class DeltaMembershipReport(_LemmaReport):
    """Whether delta of every nDer block basis lies in the (n-1)-derivation space."""

    n: int
    failures: list = field(default_factory=list)


def verify_delta_membership(a: ColorAlgebra, n: int, *, max_n: int = DEFAULT_MAX_N) -> DeltaMembershipReport:
    if n < 3:
        raise BadArity(f"delta membership needs n >= 3, got {n}")
    if not a.is_perfect() or a.center().dim != 0:
        raise PreconditionFailed("delta membership needs a perfect centerless algebra")
    nder = n_derivation_space(a, n, max_n=max_n)
    lower = n_derivation_space(a, n - 1, max_n=max_n)
    failures = [
        p for p, D in enumerate(nder.basis_maps())
        if not lower.contains_map(delta(a, D, n) if _compat_misses(nder, p) else D)
    ]
    return DeltaMembershipReport(n=n, failures=failures)


@dataclass
class AdCompatReport(_LemmaReport):
    """Whether [D, ad x] = ad(D(x)) for every derivation basis map and basis x."""

    failures: list = field(default_factory=list)


def verify_ad_compat(a: ColorAlgebra, *, max_n: int = DEFAULT_MAX_N) -> AdCompatReport:
    der = n_derivation_space(a, 2, max_n=max_n)
    return AdCompatReport([(p, i) for p in range(der.total_dim) for i in _compat_misses(der, p)])
