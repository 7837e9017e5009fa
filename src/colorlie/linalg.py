"""Exact linear algebra over Q(zeta_m).

Everything here is deterministic and canonical: Gaussian elimination picks
the leftmost nonzero column and the topmost candidate row, reduced row
echelon form is the unique canonical representative of a row space, kernels
set free variables by the standard unit-vector convention, and ``solve``
puts zeros in the free coordinates. Two subspaces are equal exactly when
their canonical bases are literally equal.

Rows are dense lists of scalars, so every entry stays addressable by its
column, but the updates are sparse: elimination and ``coordinates_of``
multiply and subtract only at the nonzero entries of the row they combine,
where most entries of a derivation system are zero.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter

from .errors import AmbientMismatch, DimensionMismatch, NoSolution
from .scalars import CycloScalar


def _rref_rows(rows, cols):
    """Reduce a list of scalar rows; returns (reduced rows, pivot columns).

    Incrementally absorbs each row into a maintained reduced echelon set,
    which keeps at most ``cols`` live rows regardless of input length. The
    result is the unique RREF of the row space, zero rows dropped. Once the
    rank reaches ``cols`` the RREF is the identity whatever follows, so no
    further row is pulled from ``rows``.

    Each echelon row carries the list of its nonzero columns, and every
    update runs over such a list only: an incoming row is reduced at the
    nonzero columns of the echelon rows it meets, normalized at its own,
    and subtracted from the echelon rows at its own; the rows it changed
    then get their column lists refreshed.
    """
    echelon = []  # [pivot_col, normalized row, its nonzero columns], by pivot_col
    rows = iter(rows)
    while len(echelon) < cols:
        row = next(rows, None)
        if row is None:
            break
        work = list(row)
        for pc, prow, pnz in echelon:
            c = work[pc]
            if c:
                for j in pnz:
                    work[j] = work[j] - c * prow[j]
        nz = [i for i, a in enumerate(work) if a]
        if not nz:
            continue
        lead = nz[0]
        inv = work[lead].inv()
        for j in nz:
            work[j] = work[j] * inv
        for entry in echelon:
            prow = entry[1]
            c = prow[lead]
            if c:
                for j in nz:
                    prow[j] = prow[j] - c * work[j]
                entry[2] = [j for j in sorted({*entry[2], *nz}) if prow[j]]
        insort(echelon, [lead, work, nz], key=itemgetter(0))
    return [r for _, r, _ in echelon], [pc for pc, _, _ in echelon]


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

    @staticmethod
    def from_rationals(rows, conductor: int = 1, cols: int | None = None) -> "MatrixExact":
        return MatrixExact(
            conductor,
            [[CycloScalar.from_rational(e, conductor) for e in row] for row in rows],
            cols=cols,
        )

    @staticmethod
    def zero(rows: int, cols: int, conductor: int = 1) -> "MatrixExact":
        z = CycloScalar.zero(conductor)
        return MatrixExact(conductor, [[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int, conductor: int = 1) -> "MatrixExact":
        z, o = CycloScalar.zero(conductor), CycloScalar.one(conductor)
        return MatrixExact(
            conductor, [[o if i == j else z for j in range(n)] for i in range(n)]
        )

    def rref(self) -> "MatrixExact":
        reduced, _ = _rref_rows(self.entries, self.cols)
        return MatrixExact(self.conductor, reduced, cols=self.cols)

    def rank(self) -> int:
        _, pivots = _rref_rows(self.entries, self.cols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Canonical basis of the right null space {v : self @ v = 0}."""
        return kernel_from_rows(self.entries, self.cols, self.conductor)

    def solve(self, b) -> tuple:
        """One particular solution of self @ x = b (free variables zero).

        Raises NoSolution when b is outside the column space.
        """
        b = tuple(b)
        if len(b) != self.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {self.rows}")
        aug = [list(row) + [rhs] for row, rhs in zip(self.entries, b)]
        reduced, pivots = _rref_rows(aug, self.cols + 1)
        if self.cols in pivots:
            raise NoSolution("right side is outside the column space")
        z = CycloScalar.zero(self.conductor)
        x = [z] * self.cols
        for prow, pc in zip(reduced, pivots):
            x[pc] = prow[-1]
        return tuple(x)

    def matvec(self, v) -> tuple:
        v = tuple(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        z = CycloScalar.zero(self.conductor)
        out = []
        for row in self.entries:
            acc = z
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixExact)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"MatrixExact({self.rows}x{self.cols}, m={self.conductor})"


class Subspace:
    """A subspace of Q(zeta_m)^n held as its unique RREF basis, one vector per row."""

    __slots__ = ("ambient_dim", "conductor", "basis")

    def __init__(self, ambient_dim: int, basis: MatrixExact):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "conductor", basis.conductor)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_rows(ambient_dim: int, rows, conductor: int) -> "Subspace":
        reduced, _ = _rref_rows(rows, ambient_dim)
        return Subspace(ambient_dim, MatrixExact(conductor, reduced, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int, conductor: int = 1) -> "Subspace":
        return Subspace(ambient_dim, MatrixExact(conductor, [], cols=ambient_dim))

    @staticmethod
    def full(ambient_dim: int, conductor: int = 1) -> "Subspace":
        return Subspace(ambient_dim, MatrixExact.identity(ambient_dim, conductor))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> list:
        """The pivot column of each basis row, in order."""
        return [next(i for i, a in enumerate(row) if a) for row in self.basis.entries]

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = list(self.basis.entries) + list(other.basis.entries)
        return Subspace.from_rows(self.ambient_dim, rows, self.conductor)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel-of-stacked-bases method: solve u*A = v*B over (u, v)."""
        self._check_ambient(other)
        p, q = self.dim, other.dim
        n = self.ambient_dim
        a, b = self.basis.entries, other.basis.entries
        stacked = MatrixExact(
            self.conductor,
            [
                [a[i][r] for i in range(p)] + [-b[j][r] for j in range(q)]
                for r in range(n)
            ],
            cols=p + q,
        )
        z = CycloScalar.zero(self.conductor)
        vectors = []
        for kv in stacked.kernel().basis.entries:
            v = [z] * n
            for i in range(p):
                if kv[i]:
                    v = [x + kv[i] * y for x, y in zip(v, a[i])]
            vectors.append(v)
        return Subspace.from_rows(n, vectors, self.conductor)

    def coordinates_of(self, vector):
        """Coefficients of ``vector`` over the RREF basis, or None if outside."""
        vec = list(vector)
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch(
                f"vector length {len(vec)} != ambient {self.ambient_dim}"
            )
        coeffs = []
        for row, pc in zip(self.basis.entries, self.pivots):
            c = vec[pc]
            coeffs.append(c)
            if c:
                for j, y in enumerate(row):
                    if y:
                        vec[j] = vec[j] - c * y
        if any(vec):
            return None
        return coeffs

    def contains_vector(self, vector) -> bool:
        return self.coordinates_of(vector) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.basis.entries)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim}, m={self.conductor})"


def kernel_from_rows(rows, cols: int, conductor: int) -> Subspace:
    """Null space of a constraint matrix given as an iterable of rows.

    Streams the rows through incremental reduction, so callers can generate
    large systems lazily; the answer is the canonical kernel basis.
    """
    reduced, pivots = _rref_rows(rows, cols)
    z = CycloScalar.zero(conductor)
    o = CycloScalar.one(conductor)
    pivot_set = set(pivots)
    vectors = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [z] * cols
        v[f] = o
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[f]
        vectors.append(v)
    return Subspace.from_rows(cols, vectors, conductor)
