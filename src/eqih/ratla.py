"""Exact rational dense linear algebra.

Matrices are immutable grids of rationals; subspaces are stored through a
canonical reduced-column-echelon basis, so two equal subspaces compare (and
hash) identically.  Everything downstream relies on that canonicalization.

Every matrix entry is a ``QNUM``.  The public ``Matrix(rows, cols, entries)``
coerces each entry through ``rat`` and checks the declared shape; the private
``Matrix._of`` does neither and takes a tuple of tuples of ``QNUM`` as it is,
so it is used only for entries that come out of ``QNUM`` arithmetic or out of
existing matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

try:
    from gmpy2 import mpq as QNUM
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as QNUM

from .errors import AmbientMismatch, NotASubspace

ZERO = QNUM(0)
ONE = QNUM(1)


def rat(x) -> "QNUM":
    """Coerce ints, 'p/q' strings and rationals to the scalar type."""
    return x if type(x) is QNUM else QNUM(x)


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(rat(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        _SET_ROWS(self, rows)
        _SET_COLS(self, cols)
        _SET_ENTRIES(self, entries)
        _SET_HASH(self, None)

    @classmethod
    def _of(cls, rows, cols, entries) -> "Matrix":
        """Matrix over a tuple of tuples of QNUM, taken without coercion or
        shape check."""
        m = object.__new__(cls)
        _SET_ROWS(m, rows)
        _SET_COLS(m, cols)
        _SET_ENTRIES(m, entries)
        _SET_HASH(m, None)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows_list) -> "Matrix":
        rows_list = list(rows_list)
        cols = len(rows_list[0]) if rows_list else 0
        return Matrix(len(rows_list), cols, rows_list)

    @staticmethod
    def zero(rows, cols) -> "Matrix":
        return Matrix._of(rows, cols, ((ZERO,) * cols,) * rows)

    @staticmethod
    def identity(n) -> "Matrix":
        return Matrix._of(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n))
                                        for i in range(n)))

    @staticmethod
    def from_columns(ambient_dim, columns) -> "Matrix":
        columns = [list(c) for c in columns]
        if any(len(c) != ambient_dim for c in columns):
            raise ValueError("column length mismatch")
        return Matrix(ambient_dim, len(columns),
                      [[columns[j][i] for j in range(len(columns))] for i in range(ambient_dim)])

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._of(self.cols, self.rows, entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            _SET_HASH(self, hash((self.rows, self.cols, self.entries)))
        return self._hash

    def __repr__(self):
        return "Matrix(%d, %d, %s)" % (
            self.rows, self.cols, [[str(x) for x in row] for row in self.entries])

    def __add__(self, other) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._of(self.rows, self.cols,
                          tuple(tuple(a + b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other) -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix._of(self.rows, self.cols,
                          tuple(tuple(c * x for x in row) for row in self.entries))

    def __mul__(self, other) -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # only products of two non-zero factors are added
        nonzero = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.entries]
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, terms in zip(row, nonzero):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix._of(self.rows, other.cols, tuple(out))

    def apply(self, vec):
        """Matrix times a column vector (given as a sequence)."""
        vec = [rat(x) for x in vec]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        terms = [(k, b) for k, b in enumerate(vec) if b]
        return tuple(sum((row[k] * b for k, b in terms if row[k]), ZERO)
                     for row in self.entries)

    def hstack(self, other) -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix._of(self.rows, self.cols + other.cols,
                          tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list).

        The elimination runs on integer rows: each row is scaled to a
        primitive integer row, a pivot row r clears column c of row i by
        row_i <- p*row_i - f*row_r (p the pivot, f the entry of row i), and
        the result is divided by the gcd of its entries.  Only the pivot rows
        are divided by their pivots, at the end.  Every step multiplies a row
        by a non-zero scalar or adds a multiple of another row, so the row
        space is the one of the rational elimination; the reduced row
        echelon form of a row space is unique, so the matrix and pivots are
        exactly those of the rational Gauss-Jordan elimination."""
        nrows, ncols = self.rows, self.cols
        if not nrows or not ncols:
            return self, []
        m = []
        for row in self.entries:
            den = lcm(*[x.denominator for x in row])
            m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
        pivots = []
        r = 0
        for c in range(ncols):
            for pr in range(r, nrows):
                if m[pr][c]:
                    break
            else:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            p = prow[c]
            for i in range(nrows):
                f = m[i][c]
                if f and i != r:
                    m[i] = _primitive([p * a - f * b for a, b in zip(m[i], prow)])
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        out = []
        for row, c in zip(m, pivots):
            p = row[c]
            out.append(tuple(QNUM(a, p) if a else ZERO for a in row))
        out.extend([(ZERO,) * ncols] * (nrows - r))
        return Matrix._of(nrows, ncols, tuple(out)), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis vectors (tuples) of the null space, from the rref free columns."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, target):
        """A particular solution x of self*x = target, or None."""
        target = [rat(t) for t in target]
        if len(target) != self.rows:
            raise ValueError("target length mismatch")
        aug = Matrix(self.rows, self.cols + 1,
                     [list(row) + [t] for row, t in zip(self.entries, target)])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols]
        return tuple(x)


# the slots' own setters, since Matrix.__setattr__ refuses every assignment
_SET_ROWS, _SET_COLS, _SET_ENTRIES, _SET_HASH = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def block_matrix(rows, cols, blocks) -> Matrix:
    """rows x cols matrix holding each (row offset, column offset, Matrix)
    of blocks and zero elsewhere; blocks must not overlap."""
    grid = [[ZERO] * cols for _ in range(rows)]
    for r0, c0, blk in blocks:
        for i, row in enumerate(blk.entries):
            grid[r0 + i][c0:c0 + blk.cols] = row
    return Matrix._of(rows, cols, tuple(map(tuple, grid)))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim given by a reduced-column-echelon basis."""

    ambient_dim: int
    basis: Matrix  # columns are the canonical basis, possibly 0 of them

    @staticmethod
    def from_matrix(m: Matrix) -> "Subspace":
        """Column span of m, canonicalized."""
        if m.cols == 0:
            return Subspace.zero(m.rows)
        red, pivots = m.transpose().rref()
        rows = Matrix._of(len(pivots), m.rows, red.entries[:len(pivots)])
        return Subspace(m.rows, rows.transpose())

    @staticmethod
    def from_vectors(ambient_dim, vectors) -> "Subspace":
        if not vectors:
            return Subspace.zero(ambient_dim)
        return Subspace.from_matrix(Matrix.from_columns(ambient_dim, vectors))

    @staticmethod
    def zero(ambient_dim) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vec) -> bool:
        return self.basis.solve(vec) is not None

    def coords(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside."""
        return self.basis.solve(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch(self.ambient_dim, other.ambient_dim)
        return all(self.contains(c) for c in other.basis.columns())

    def vectors(self):
        return self.basis.columns()


def kernel(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.cols, m.kernel_basis())


def image(m: Matrix) -> Subspace:
    return Subspace.from_matrix(m)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(a.ambient_dim, b.ambient_dim)
    return Subspace.from_matrix(a.basis.hstack(b.basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(a.ambient_dim, b.ambient_dim)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # both bases are canonical, so the other argument is the intersection
    if a.is_full():
        return b
    if b.is_full():
        return a
    # x in both spans: a.basis*s = b.basis*t, so (s,t) in ker[a.basis | -b.basis]
    stacked = a.basis.hstack(b.basis.scale(-1))
    vecs = [a.basis.apply(k[:a.dim]) for k in stacked.kernel_basis()]
    return Subspace.from_vectors(a.ambient_dim, vecs)


def preimage(m: Matrix, w: Subspace) -> Subspace:
    """{x : m*x in w} as a subspace of the domain."""
    if m.rows != w.ambient_dim:
        raise AmbientMismatch(m.rows, w.ambient_dim)
    if w.is_full():
        return Subspace.full(m.cols)
    # m*x = w.basis*t exactly when (x, t) in ker[m | -w.basis]
    stacked = m.hstack(w.basis.scale(-1))
    return Subspace.from_vectors(m.cols, [k[:m.cols] for k in stacked.kernel_basis()])


def map_image(m: Matrix, v: Subspace) -> Subspace:
    """Image m(v) of a subspace under a matrix."""
    if m.cols != v.ambient_dim:
        raise AmbientMismatch(m.cols, v.ambient_dim)
    return Subspace.from_matrix(m * v.basis)


@dataclass(frozen=True)
class QuotientSpace:
    """v/w with a projection defined on all of Q^ambient and a lift section.

    projection*lift = identity, projection kills w, and the kernel of the
    projection restricted to v is exactly w.
    """

    ambient_dim: int
    dim: int
    projection: Matrix  # dim x ambient_dim
    lift: Matrix        # ambient_dim x dim, columns in v

    def class_of(self, vec):
        return self.projection.apply(vec)

    def lift_class(self, coords):
        return self.lift.apply(coords)


def quotient(v: Subspace, w: Subspace) -> QuotientSpace:
    """v/w, with the complement of w in v and the completion to an ambient
    basis taken as the pivot columns of the rref of [w | v | identity]:
    each canonical basis column of v, then each unit vector, is kept when it
    is independent of the columns before it.  The kept v columns are the
    lift, so the class bases that reports print depend only on the two
    canonical arguments."""
    if v.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(v.ambient_dim, w.ambient_dim)
    n = v.ambient_dim
    if v == w:
        return QuotientSpace(n, 0, Matrix.zero(0, n), Matrix.zero(n, 0))
    cands = w.basis.hstack(v.basis).hstack(Matrix.identity(n))
    _, pivots = cands.rref()
    head = w.dim + v.dim
    # dim(w + v) = dim v exactly when w lies in v
    if sum(1 for c in pivots if c < head) != v.dim:
        raise NotASubspace("quotient denominator is not contained in numerator")
    comp = [cands.column(c) for c in pivots if w.dim <= c < head]
    inv = inverse(Matrix.from_columns(n, [cands.column(c) for c in pivots]))
    q = len(comp)
    proj = Matrix(q, n, [inv.entries[w.dim + i] for i in range(q)])
    lift = Matrix.from_columns(n, comp)
    return QuotientSpace(n, q, proj, lift)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    red, pivots = m.hstack(Matrix.identity(m.rows)).rref()
    if len(pivots) != m.rows or pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return Matrix._of(m.rows, m.rows, tuple(row[m.rows:] for row in red.entries))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    c = rat(c)
    return tuple(c * x for x in a)


def zero_vec(n):
    return (ZERO,) * n

