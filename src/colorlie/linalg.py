"""Exact linear algebra over Q(zeta_m).

Everything here is deterministic and canonical: Gaussian elimination picks
the leftmost nonzero column and the topmost candidate row, reduced row
echelon form is the unique canonical representative of a row space, kernels
set free variables by the standard unit-vector convention, and ``solve``
puts zeros in the free coordinates. Two subspaces are equal exactly when
their canonical bases are literally equal.

Elimination runs on sparse rows: a row is a list of (column, value) pairs
with strictly increasing columns and nonzero values only, and ``[]`` is the
zero row. Rows stay sparse from the constraint systems to every stored
basis and coordinate read: ``_rref_rows`` returns tuples of pairs, a
``Subspace`` holds them, and ``coordinates_of`` takes one. Rows go dense only
at the edges: ``kernel_from_rows``, ``Subspace.from_rows``, ``contains_vector``
and ``MatrixExact.solve`` pass each dense row through ``_pairs``, and
``Subspace.basis`` is a dense ``MatrixExact`` view built on read.
``MatrixExact`` is only that grid plus ``solve``, a dense reference; ranks and
kernels are read off a ``Subspace``.
"""

from __future__ import annotations

from .errors import AmbientMismatch, DimensionMismatch, NoSolution
from .scalars import CycloScalar


def _pairs(row) -> list:
    """A dense row as a sparse one: the (column, value) pairs of its nonzero entries."""
    return [(j, a) for j, a in enumerate(row) if a]


def _sorted_pairs(acc: dict) -> tuple:
    """A {column: value} dict as a sparse row: its nonzero items, columns increasing."""
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j])


def _subtract(row, c, other):
    # row -= c * other on other's (column, value) pairs; entries that cancel are dropped
    for j, v in other:
        b = row.pop(j, None)
        b = -(c * v) if b is None else b - c * v
        if b:
            row[j] = b


def _rref_rows(rows, cols):
    """Reduce sparse rows; returns (reduced rows, pivot columns).

    ``rows`` is an iterable of sparse rows over ``range(cols)``. Each is
    absorbed into a maintained reduced echelon set, held as one
    {column: value} dict of nonzero entries per pivot column, so at most
    ``cols`` rows stay live regardless of input length. The result is the
    unique RREF of the row space, zero rows dropped, as sparse tuples led by
    (pivot, 1), in pivot order. Once the rank reaches ``cols`` the RREF is
    the identity whatever follows, so no further row is pulled from ``rows``.

    The echelon set is fully reduced, so every echelon row is zero at the
    other pivots: an incoming row is reduced once by each pivot it holds,
    and no reduction step adds an entry at a pivot column. Normalization
    and back-substitution run over the new row's entries only.
    """
    echelon = {}  # pivot column -> {column: nonzero value}, the pivot's 1 left out
    rows = iter(rows)
    while len(echelon) < cols:
        row = next(rows, None)
        if row is None:
            break
        work = dict(row)
        for pc in [j for j in work if j in echelon]:
            _subtract(work, work.pop(pc), echelon[pc].items())
        if not work:
            continue
        lead = min(work)
        inv = work.pop(lead).inv()
        work = {j: v * inv for j, v in work.items()}
        for prow in echelon.values():
            c = prow.pop(lead, None)
            if c is not None:
                _subtract(prow, c, work.items())
        echelon[lead] = work
        m = inv.conductor
    pivots = sorted(echelon)
    reduced = tuple(((pc, CycloScalar.one(m)), *sorted(echelon[pc].items())) for pc in pivots)
    return reduced, pivots


class MatrixExact:
    """A rows x cols grid of CycloScalar sharing one conductor."""

    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, conductor: int, entries, cols: int | None = None):
        entries = tuple(tuple(e for e in row) for row in entries)
        if entries:
            cols = len(entries[0])
            if any(len(row) != cols for row in entries):
                raise DimensionMismatch("ragged matrix rows")
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixExact is immutable")

    def solve(self, b) -> tuple:
        """One particular solution of self @ x = b (free variables zero).

        Raises NoSolution when b is outside the column space.
        """
        b = tuple(b)
        if len(b) != self.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {self.rows}")
        aug = (_pairs((*row, rhs)) for row, rhs in zip(self.entries, b))
        reduced, pivots = _rref_rows(aug, self.cols + 1)
        if self.cols in pivots:
            raise NoSolution("right side is outside the column space")
        z = CycloScalar.zero(self.conductor)
        x = [z] * self.cols
        for prow, pc in zip(reduced, pivots):
            x[pc] = prow[-1][1] if prow[-1][0] == self.cols else z
        return tuple(x)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixExact)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"MatrixExact({self.rows}x{self.cols}, m={self.conductor})"


class Subspace:
    """A subspace of Q(zeta_m)^n held as its unique RREF basis, one sparse row per vector.

    ``rows`` are ``_rref_rows``'s reduced rows, each led by (pivot, 1),
    ``pivots`` lists their pivot columns in order, and ``dim`` is their
    number. ``basis`` is the dense ``MatrixExact`` view, built on each read.
    """

    __slots__ = ("ambient_dim", "conductor", "rows", "pivots", "dim")

    def __init__(self, ambient_dim: int, rows, pivots, conductor: int):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "dim", len(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_rows(ambient_dim: int, rows, conductor: int) -> "Subspace":
        return Subspace._from_pairs(ambient_dim, map(_pairs, rows), conductor)

    @staticmethod
    def _from_pairs(ambient_dim: int, rows, conductor: int) -> "Subspace":
        # the span of sparse rows
        return Subspace(ambient_dim, *_rref_rows(rows, ambient_dim), conductor)

    @staticmethod
    def zero(ambient_dim: int, conductor: int = 1) -> "Subspace":
        return Subspace(ambient_dim, (), [], conductor)

    @staticmethod
    def full(ambient_dim: int, conductor: int = 1) -> "Subspace":
        one = CycloScalar.one(conductor)
        return Subspace._from_pairs(ambient_dim, ([(i, one)] for i in range(ambient_dim)), conductor)

    @property
    def basis(self) -> MatrixExact:
        """The basis rows as a dense grid, built on each read."""
        z = CycloScalar.zero(self.conductor)
        dense = [[z] * self.ambient_dim for _ in self.rows]
        for vec, row in zip(dense, self.rows):
            for j, c in row:
                vec[j] = c
        return MatrixExact(self.conductor, dense, cols=self.ambient_dim)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace._from_pairs(self.ambient_dim, self.rows + other.rows, self.conductor)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the RREF of (u | u), u in self, and (w | 0), w in other,
        over 2n columns has rows (0 | x) past column n; their x span the
        intersection and are its RREF basis."""
        self._check_ambient(other)
        n = self.ambient_dim
        stacked = [u + tuple((n + j, c) for j, c in u) for u in self.rows] + list(other.rows)
        reduced, pivots = _rref_rows(stacked, 2 * n)
        k = sum(pc < n for pc in pivots)
        rows = tuple(tuple((j - n, c) for j, c in row) for row in reduced[k:])
        return Subspace(n, rows, [pc - n for pc in pivots[k:]], self.conductor)

    def coordinates_of(self, row):
        """Coefficients of the sparse ``row`` over the RREF basis, or None if outside."""
        vec = dict(row)
        if vec and max(vec) >= self.ambient_dim:
            raise AmbientMismatch(f"column {max(vec)} is past the ambient dimension {self.ambient_dim}")
        z = CycloScalar.zero(self.conductor)
        coeffs = []
        for prow, pc in zip(self.rows, self.pivots):
            c = vec.pop(pc, z)  # the other basis rows are zero at pc
            coeffs.append(c)
            if c:
                _subtract(vec, c, prow[1:])
        return None if vec else coeffs

    def contains_vector(self, vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise AmbientMismatch(f"vector length {len(vector)} != ambient {self.ambient_dim}")
        return self.coordinates_of(_pairs(vector)) is not None

    def contains(self, other: "Subspace") -> bool:
        return self.sum(other).dim == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim}, m={self.conductor})"


def kernel_from_rows(rows, cols: int, conductor: int) -> Subspace:
    """Null space of a constraint matrix given as an iterable of dense rows.

    Streams the rows through incremental reduction, so callers can generate
    large systems lazily; the answer is the canonical kernel basis.
    """
    return _kernel_from_pairs(map(_pairs, rows), cols, conductor)


def _kernel_from_pairs(rows, cols: int, conductor: int) -> Subspace:
    # kernel_from_rows on sparse rows; the basis vector of a free column f is
    # e_f - sum of prow[f] e_pc, scattered from each row's entries past its pivot
    reduced, pivots = _rref_rows(rows, cols)
    taken = set(pivots)
    vectors = {f: [] for f in range(cols) if f not in taken}
    for (pc, _), *rest in reduced:
        for j, v in rest:
            vectors[j].append((pc, -v))
    one = CycloScalar.one(conductor)
    return Subspace._from_pairs(cols, (v + [(f, one)] for f, v in vectors.items()), conductor)
