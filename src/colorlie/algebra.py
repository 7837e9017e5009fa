"""Lie color algebras given by structure constants on a homogeneous basis.

An algebra is a grading group, a bicharacter on it, a degree for each of
the d basis vectors, and the structure constants c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k. It is built from the full d x d x d
table, or in the parser from the sparse one, and keeps, for ALL ordered
pairs (i, j), only the nonzero (k, c[i][j][k]) pairs; antisymmetry is
something we validate, not assume, so bad input files surface instead of
being silently symmetrized.

Vectors are plain tuples of CycloScalar of length d. A vector is
homogeneous when its nonzero coordinates all sit at basis indices of one
degree; the zero vector counts as homogeneous of degree 0 by convention.
Degree-dependent operations reject mixed vectors with NonHomogeneous;
``bracket`` itself is bilinear and accepts anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations_with_replacement, product
from math import lcm

from .errors import DimensionMismatch, NonHomogeneous, TooFewArguments, ValidationError
from .grading import Bicharacter, GradingGroup, GroupElement
from .linalg import Subspace, _kernel_from_pairs
from .scalars import CycloScalar, _nonzero_sum, parse_scalar


def per_algebra(fn):
    """Keep fn(a, *args) in ``a._cache`` under (fn, *args); a call that raises keeps nothing.

    ``a`` is any object that holds a ``_cache`` dict: an algebra, or a
    derivation space. The key holds the undecorated ``fn``, so it does not
    change when the decorated name is rebound.
    """

    @wraps(fn)
    def memo(a, *args):
        key = (fn, *args)
        if key not in a._cache:
            a._cache[key] = fn(a, *args)
        return a._cache[key]

    return memo


def _coerce_scalar(value, conductor: int) -> CycloScalar:
    if isinstance(value, CycloScalar):
        return value.lift(conductor) if value.conductor != conductor else value
    if isinstance(value, str):
        return parse_scalar(value, conductor)
    return CycloScalar.from_rational(Fraction(value), conductor)


@dataclass
class AxiomReport:
    """Exhaustive axiom check over basis indices; violations listed, never raised."""

    grading: list = field(default_factory=list)      # (i, j, k) with a misplaced constant
    antisymmetry: list = field(default_factory=list)  # (i, j) pairs
    jacobi: list = field(default_factory=list)        # (i, j, k) triples

    @property
    def ok(self) -> bool:
        return not (self.grading or self.antisymmetry or self.jacobi)

    def messages(self) -> list[str]:
        out = []
        for i, j, k in self.grading:
            out.append(f"grading support fails at c[{i}][{j}][{k}]")
        for i, j in self.antisymmetry:
            out.append(f"antisymmetry fails for basis pair ({i}, {j})")
        for i, j, k in self.jacobi:
            out.append(f"Jacobi identity fails for basis triple ({i}, {j}, {k})")
        return out


@dataclass(frozen=True)
class DegreeTable:
    """The degree owning each endomorphism coordinate (k, j): deg e_k - deg e_j.

    ``blocks`` partitions the coordinates by it, {gamma: (k, j) in order},
    over the support only (at most d*d degrees), in ``group.elements()`` order.
    ``positions[k, j]`` is the index of (k, j) in its degree's block.
    """

    differences: tuple
    blocks: dict
    positions: dict


class ColorAlgebra:
    """Finite-dimensional Lie color algebra held by structure constants.

    Immutable after construction. The constructor takes the d x d x d grid
    and stores only ``_nonzero``: ``_nonzero[i][j]`` is the tuple of (k, c)
    pairs with c = c[i][j][k] nonzero, k increasing. ``constants`` is a view
    that rebuilds the grid on each read. Names are presentation metadata
    (used by the file format and reports) and do not take part in equality.
    An invalid bicharacter (``validate``) is refused with ValueError.
    """

    __slots__ = ("group", "bichar", "dim", "degrees", "_nonzero", "names", "_cache")

    def __init__(self, group: GradingGroup, bichar: Bicharacter, degrees, constants,
                 names=None):
        degrees = tuple(degrees)
        d = len(degrees)
        if len(constants) != d or any(
            len(plane) != d or any(len(row) != d for row in plane)
            for plane in constants
        ):
            raise DimensionMismatch(f"structure constants must be {d}x{d}x{d}")
        m = group.exponent
        nonzero = tuple(
            tuple(tuple((k, c) for k, c in enumerate(_coerce_scalar(x, m) for x in row) if c) for row in plane)
            for plane in constants
        )
        self._set_up(group, bichar, degrees, nonzero, names)

    @classmethod
    def _from_table(cls, group, bichar, degrees, table, names=None) -> "ColorAlgebra":
        """The algebra of a sparse table, read as ``structure_constants_from_table`` reads it."""
        a = object.__new__(cls)
        a._set_up(group, bichar, tuple(degrees), _table_pairs(group, bichar, degrees, table, len(degrees)), names)
        return a

    def _set_up(self, group, bichar, degrees, nonzero, names) -> None:
        # the checks every algebra passes, then its slots; nonzero is the _nonzero pairs
        if bichar.group != group:
            raise ValueError("bicharacter is defined on a different group")
        bc = bichar.validate()
        if not bc.ok:
            raise ValueError("invalid bicharacter: " + "; ".join(bc.messages()))
        d = len(degrees)
        for g in degrees:
            if not isinstance(g, GroupElement) or g.group != group:
                raise ValueError("basis degrees must be elements of the grading group")
        if names is None:
            names = tuple(f"e{i + 1}" for i in range(d))
        else:
            names = tuple(names)
            if len(names) != d or len(set(names)) != d:
                raise ValueError("basis names must be distinct and match the dimension")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bichar", bichar)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_nonzero", nonzero)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("ColorAlgebra is immutable")

    @property
    def conductor(self) -> int:
        return self.group.exponent

    @property
    def constants(self) -> tuple:
        """The grid c[i][j][k] as nested tuples; built on each read."""
        return _grid(self._nonzero, self.zero_scalar(), self.dim)

    # -- scalars and vectors ----------------------------------------------

    def scalar(self, value) -> CycloScalar:
        return _coerce_scalar(value, self.conductor)

    def zero_scalar(self) -> CycloScalar:
        return CycloScalar.zero(self.conductor)

    def one_scalar(self) -> CycloScalar:
        return CycloScalar.one(self.conductor)

    def zero_vector(self) -> tuple:
        return (CycloScalar.zero(self.conductor),) * self.dim

    def basis_vector(self, i: int) -> tuple:
        z = CycloScalar.zero(self.conductor)
        o = CycloScalar.one(self.conductor)
        return tuple(o if k == i else z for k in range(self.dim))

    def vector(self, coeffs) -> tuple:
        v = tuple(self.scalar(c) for c in coeffs)
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {self.dim}")
        return v

    def degree_of(self, v) -> GroupElement:
        """Degree of a homogeneous vector; zero vector counts as degree 0."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {self.dim}")
        deg = None
        for i, c in enumerate(v):
            if c:
                if deg is None:
                    deg = self.degrees[i]
                elif deg != self.degrees[i]:
                    raise NonHomogeneous(
                        f"vector mixes degrees {deg} and {self.degrees[i]}"
                    )
        return deg if deg is not None else self.group.zero()

    def is_homogeneous(self, v) -> bool:
        try:
            self.degree_of(v)
            return True
        except NonHomogeneous:
            return False

    @per_algebra
    def degree_table(self) -> DegreeTable:
        """The degree table; the one place a coordinate gets its degree."""
        differences = tuple(
            tuple(dk - dj for dj in self.degrees) for dk in self.degrees
        )
        blocks = {}
        for k, row in enumerate(differences):
            for j, gamma in enumerate(row):
                blocks.setdefault(gamma, []).append((k, j))
        ordered = sorted(blocks, key=lambda gamma: gamma.residues)
        blocks = {gamma: tuple(blocks[gamma]) for gamma in ordered}
        positions = {kj: s for coords in blocks.values() for s, kj in enumerate(coords)}
        return DegreeTable(differences, blocks, positions)

    # -- brackets -----------------------------------------------------------

    @per_algebra
    def _integer_constants(self):
        # the nonzero constants times their one common denominator: (k, numerator)
        nz = self._nonzero
        den = lcm(*(c.den for plane in nz for pairs in plane for _, c in pairs))
        return tuple(
            tuple(tuple((k, tuple(x * (den // c.den) for x in c.num)) for k, c in pairs) for pairs in plane)
            for plane in nz
        )

    def bracket(self, u, v) -> tuple:
        """Bilinear extension of the structure constants."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("bracket arguments must have length dim")
        out = [CycloScalar.zero(self.conductor)] * self.dim
        nz = self._nonzero
        for i, ui in enumerate(u):
            if not ui:
                continue
            nzi = nz[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                uv = ui * vj
                for k, c in nzi[j]:
                    out[k] = out[k] + uv * c
        return tuple(out)

    def left_normed_bracket(self, xs) -> tuple:
        """[[...[[x1,x2],x3],...],xn], folding from the left."""
        xs = list(xs)
        if len(xs) < 2:
            raise TooFewArguments(f"left-normed bracket needs >= 2 arguments, got {len(xs)}")
        acc = self.bracket(xs[0], xs[1])
        for x in xs[2:]:
            acc = self.bracket(acc, x)
        return acc

    # -- axiom checking -------------------------------------------------------

    def grading_violations(self) -> list:
        """Every (i, j, k) with c[i][j][k] nonzero but deg e_k != deg e_i + deg e_j.

        The scan walks the nonzero constants once per algebra; each call
        returns a fresh list.
        """
        return list(self._grading_scan())

    @per_algebra
    def _grading_scan(self) -> tuple:
        differences = self.degree_table().differences
        return tuple(
            (i, j, k)
            for i, plane in enumerate(self._nonzero)
            for j, pairs in enumerate(plane)
            for k, _ in pairs
            if differences[k][j] != self.degrees[i]
        )

    def check_axioms(self) -> AxiomReport:
        """Exhaustively verify grading support, eps-antisymmetry, eps-Jacobi.

        Every violating index tuple is reported, in index order. Jacobi is
        summed only over the nonzero products c[y][z][l] c[x][l][p]: a triple
        none of whose rotations has one holds trivially. The sums run on the
        integer numerators of ``_integer_constants``, which share one
        denominator, and eps = zeta^t is a shift by t. Each output coordinate
        is decided by one remainder mod Phi_m: Phi_m is monic, so it is zero
        exactly when the sum is zero in Q(zeta_m). The check runs once per
        algebra; each call returns a fresh copy of the report.
        """
        report = self._axiom_report()
        return AxiomReport(
            list(report.grading), list(report.antisymmetry), list(report.jacobi)
        )

    @per_algebra
    def _axiom_report(self) -> AxiomReport:
        report = AxiomReport(grading=self.grading_violations())
        d, m, nz = self.dim, self.conductor, self._integer_constants()
        eps = [[self.bichar.exponent(di, dj) for dj in self.degrees] for di in self.degrees]
        # eps(i, j) eps(j, i) = 1 for a valid bicharacter, so the sum at (j, i)
        # is eps(j, i) times the sum at (i, j): it is decided once per i <= j
        for i, j in combinations_with_replacement(range(d), 2):
            if nz[i][j] or nz[j][i]:
                # [e_i, e_j] + eps(i, j) [e_j, e_i], times zeta^(m - e) if that shift is shorter
                e = eps[i][j]
                t, s = (0, e) if 2 * e <= m else (m - e, 0)
                if _nonzero_sum([(t, ((j, (1,)),), nz[i]), (s, ((i, (1,)),), nz[j])], m):
                    report.antisymmetry.extend({(i, j), (j, i)})
        report.antisymmetry.sort()
        # the cyclic sum of (i, j, k) has the same three terms as those of
        # (j, k, i) and (k, i, j), so it is summed once per rotation class, and
        # only for classes with a nonzero product c[y][z][l] c[x][l][p]
        seen = set()
        for j, k in product(range(d), repeat=2):
            for i in range(d) if nz[j][k] else ():
                if (i, j, k) in seen or not any(nz[i][l] for l, _ in nz[j][k]):
                    continue
                rotations = {(i, j, k), (j, k, i), (k, i, j)}
                seen |= rotations
                # zeta^t c[y][z][l] c[x][l][p] per rotation (x, y, z), t the exponent of eps(z, x)
                ni, nj, nk = nz[i], nz[j], nz[k]
                if _nonzero_sum([(eps[k][i], nj[k], ni), (eps[i][j], nk[i], nj), (eps[j][k], ni[j], nk)], m):
                    report.jacobi.extend(rotations)
        report.jacobi.sort()
        return report

    # -- classical subspaces ---------------------------------------------------

    @per_algebra
    def derived_subalgebra(self) -> Subspace:
        """Span of all brackets of basis pairs, read as sparse rows off the nonzero constants."""
        rows = (pairs for plane in self._nonzero for pairs in plane)
        return Subspace._from_pairs(self.dim, rows, self.conductor)

    def is_perfect(self) -> bool:
        return self.derived_subalgebra().dim == self.dim

    @per_algebra
    def center(self) -> Subspace:
        """Kernel of v -> ([v, e_j])_j."""
        return self.centralizer([self.basis_vector(j) for j in range(self.dim)])

    def centralizer(self, vectors) -> Subspace:
        """Kernel of v -> ([v, s])_{s in vectors}; empty set gives the full space.

        The rows of one s are built only when the elimination asks for them,
        so none is built once the rank is full. Each row k is built sparse,
        as the (i, coefficient of v_i) pairs of its nonzero entries.
        """
        vectors = list(vectors)
        if any(len(s) != self.dim for s in vectors):
            raise DimensionMismatch("centralizer argument has wrong length")
        d = self.dim
        nz = self._nonzero

        def rows():
            for s in vectors:
                # coefficient of v_i in [v, s]_k is sum_j s_j c[i][j][k]
                grid = [{} for _ in range(d)]
                for i in range(d):
                    for j, sj in enumerate(s):
                        if sj:
                            for k, c in nz[i][j]:
                                row = grid[k]
                                v = row.get(i)
                                row[i] = sj * c if v is None else v + sj * c
                # each row's keys were added in increasing i
                for row in grid:
                    yield [(i, v) for i, v in row.items() if v]

        return _kernel_from_pairs(rows(), d, self.conductor)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ColorAlgebra):
            return NotImplemented
        return (
            self.group == other.group
            and self.bichar == other.bichar
            and self.degrees == other.degrees
            and self._nonzero == other._nonzero
        )

    def __repr__(self):
        return (
            f"ColorAlgebra(dim={self.dim}, group={list(self.group.orders)}, "
            f"names={list(self.names)})"
        )


def _grid(nonzero, zero, dim) -> tuple:
    zero_row = (zero,) * dim

    def row(pairs) -> tuple:
        out = list(zero_row)
        for k, c in pairs:
            out[k] = c
        return tuple(out)

    return tuple(tuple(row(pairs) if pairs else zero_row for pairs in plane) for plane in nonzero)


def structure_constants_from_table(group, bichar, degrees, table, dim):
    """Build the full constants grid from a sparse {(i, j): {k: scalar}} table.

    Only pairs with i < j or i = j need be listed; the complement is filled
    in by eps-antisymmetry. When both orders of a pair are given explicitly,
    the redundant entry is cross-checked and a ValidationError raised on
    disagreement, at the first k that disagrees.
    """
    return _grid(_table_pairs(group, bichar, degrees, table, dim), CycloScalar.zero(group.exponent), dim)


def _table_pairs(group, bichar, degrees, table, dim) -> tuple:
    # the _nonzero pairs of the table, k read as a list index: entries coerced in the table's order,
    # then partners filled and redundant pairs cross-checked on the table's own entries
    m = group.exponent
    rows = {}
    for (i, j), result in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValidationError(f"bracket indices ({i}, {j}) out of range", (i, j))
        rows[i, j] = {range(dim)[k]: s for k, c in result.items() if (s := _coerce_scalar(c, m))}
    for (i, j) in table:
        e = bichar.eps(degrees[j], degrees[i])
        if (j, i) not in table:  # so i != j
            rows[j, i] = {k: -(e * c) for k, c in rows[i, j].items()}
        elif i < j:
            row, partner = rows[i, j], rows[j, i]
            for k in sorted(row.keys() | partner.keys()):
                if partner.get(k, 0) != -(e * row.get(k, 0)):
                    message = f"brackets ({i},{j}) and ({j},{i}) violate antisymmetry at k={k}"
                    raise ValidationError(message, (j, i, k))
    return tuple(tuple(tuple(sorted(rows.get((i, j), {}).items())) for j in range(dim)) for i in range(dim))
