"""Exact rational dense linear algebra.

Matrices are immutable grids of rationals; subspaces are stored through a
canonical reduced-column-echelon basis, so two equal subspaces compare (and
hash) identically.  Everything downstream relies on that canonicalization,
and so do coordinates: each basis column has a leading 1 in a pivot row
where every other basis column is 0, so the coordinates of a vector in the
span are its entries at the pivot rows, with no elimination.  So a
containment is read from coordinates, with no elimination: W contains f(V)
exactly when ``W.coords_of(f * V.basis)`` is not None, and f(V) is not built.

Vectors are worked on a basis at a time, as the columns of one matrix:
products are ``Matrix.__mul__``, which runs on integers (each factor's rows
scaled to integer rows, each sum divided once by both scales, the way
``rref_integer_rows`` eliminates), ``Subspace.coords_of`` reads the
coordinates of every column at the pivots, and ``Matrix.solve`` solves for
a whole matrix of right-hand sides with a single elimination.  One routine,
``_row_span``, canonicalizes a span given by rows; ``Subspace.from_matrix``,
``Subspace.from_vectors`` and the levels of a model document end in it.
``kernel``, ``preimage`` and ``intersect`` need no such second elimination:
one rref of the column-reversed matrix puts every free column f at the head
of its own kernel vector, so those vectors, cut to the domain, already are
the canonical basis (see ``_free_span``), and an intersection is one such
basis times a canonical one, which is canonical too.  So is a preimage
within a subspace V, {x in V : m*x in W}: the solutions of
[m*V.basis | W.basis], cut to V's coordinates, times V.basis, one
elimination where a preimage then an intersection take two.  Tuples stand
for single vectors only at the edges: the rows ``Matrix.kernel_basis``
returns and ``Subspace.vectors``, which serialization and the random
generator read.

An operand that fixes the answer costs no elimination: the kernel of a zero
or empty matrix is the full space, the span of zero rows is the zero space,
the span of rows that already are a reduced row echelon basis has them as
its canonical basis (so a saved model document, whose levels list such
rows, loads with none), a preimage of the zero subspace is a kernel, a
preimage of the full space, or within the zero space, is the space it is
taken within, and full / zero is the identity quotient.  Nor does it cost
a product: a product with an empty factor is the cached ``Matrix.zero``, a
product with the cached ``Matrix.identity`` as a factor (tested with
``is``) is the other factor, coordinates in the zero subspace are read
without one, and a subspace contains itself.

An integral entry is a Python ``int`` on either backend, and any other
entry a ``QNUM``: ``rat`` gives that form, and so do the product, ``rref``,
``kernel``, ``zero``, ``identity`` and ``divide``, the exact quotient of two
entries.  A sum or a scaling may leave an integral ``QNUM``, which every
routine here reads by its value.  The public ``Matrix(rows, cols, entries)``
coerces each entry through ``rat`` and checks the declared shape; the
private ``Matrix._of`` does neither, so it is used only for entries that come
out of scalar arithmetic or out of existing matrices.  Only this module
calls ``QNUM(...)`` or divides, so no entry is a float.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as QNUM
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    QNUM = Fraction

from .errors import AmbientMismatch, NotASubspace
from .value import Value, memo


def rat(x):
    """An int, string or rational as an entry: an int when it is integral,
    else a QNUM.  Strings are read by ``Fraction``'s grammar on either
    backend, so the accepted set and the error texts are the same on both."""
    if type(x) is int:
        return x
    if type(x) is str:
        x = Fraction(x)
    if type(x) is not QNUM:
        x = QNUM(x)
    return int(x.numerator) if x.denominator == 1 else x


def divide(a, b):
    """The exact quotient a / b of two entries, b non-zero, as ``rat`` gives
    it."""
    n, d = a.numerator * b.denominator, a.denominator * b.numerator
    return _ratio(-n, -d) if d < 0 else _ratio(n, d)


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(rat(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        _SET_ROWS(self, rows)
        _SET_COLS(self, cols)
        _SET_ENTRIES(self, entries)

    @classmethod
    def _of(cls, rows, cols, entries) -> "Matrix":
        """Matrix over a tuple of tuples of entries, taken without coercion
        or shape check."""
        m = object.__new__(cls)
        _SET_ROWS(m, rows)
        _SET_COLS(m, cols)
        _SET_ENTRIES(m, entries)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows_list) -> "Matrix":
        rows_list = list(rows_list)
        cols = len(rows_list[0]) if rows_list else 0
        return Matrix(len(rows_list), cols, rows_list)

    # zero, identity, Subspace.zero and Subspace.full are cached per shape:
    # their values are immutable and depend on a few small dimensions only
    @staticmethod
    @cache
    def zero(rows, cols) -> "Matrix":
        return Matrix._of(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    @cache
    def identity(n) -> "Matrix":
        return Matrix._of(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self) -> "Matrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._of(self.cols, self.rows, entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

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
        """c times the matrix: for c = 1 the matrix itself, for c = -1 each
        entry negated, with no product of scalars."""
        if c == 1:
            return self
        if c == -1:
            return Matrix._of(self.rows, self.cols, tuple(tuple([-x for x in row])
                                                          for row in self.entries))
        c = rat(c)
        return Matrix._of(self.rows, self.cols,
                          tuple(tuple(c * x for x in row) for row in self.entries))

    def __mul__(self, other) -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # operands that fix the answer: an empty one, or the cached identity
        if not (self.rows and self.cols and other.cols):
            return Matrix.zero(self.rows, other.cols)
        if self.rows == self.cols and self is Matrix.identity(self.rows):
            return other
        if other.rows == other.cols and other is Matrix.identity(other.rows):
            return self
        # integer rows: other's non-zero entries scaled by the lcm of their
        # denominators, and the non-zero entries of each row of self that
        # meet a non-zero row of other by the lcm of theirs; each sum is
        # divided once, by both scales
        nonzero = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.entries]
        den = lcm(*[b.denominator for terms in nonzero for _, b in terms])
        nonzero = [[(j, b.numerator * (den // b.denominator)) for j, b in terms]
                   for terms in nonzero]
        zero_row = (0,) * other.cols
        out = []
        for row in self.entries:
            parts = [(a, terms) for a, terms in zip(row, nonzero) if terms and a]
            if not parts:
                out.append(zero_row)
                continue
            rden = lcm(*[a.denominator for a, _ in parts])
            acc = [0] * other.cols
            for a, terms in parts:
                a = a.numerator * (rden // a.denominator)
                for j, b in terms:
                    acc[j] += a * b
            d = rden * den
            if d == 1:
                out.append(tuple(acc))
            else:
                out.append(tuple([_ratio(x, d) for x in acc]))
        return Matrix._of(self.rows, other.cols, tuple(out))

    def hstack(self, other) -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix._of(self.rows, self.cols + other.cols,
                          tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list).

        The elimination is ``rref_integer_rows`` on the rows scaled to
        primitive integer rows; only the pivot rows are divided by their
        pivots, at the end; a pivot row whose pivot is 1 or -1 needs no
        division, and keeps its integer entries."""
        nrows, ncols = self.rows, self.cols
        if not nrows or not ncols:
            return self, []
        m = list(map(primitive_row, self.entries))
        pivots = rref_integer_rows(m, ncols)
        out = []
        for row, c in zip(m, pivots):
            p = row[c]
            if p < 0:
                row, p = [-a for a in row], -p
            out.append(tuple(row) if p == 1 else tuple([_ratio(a, p) for a in row]))
        out.extend([(0,) * ncols] * (nrows - len(pivots)))
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
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: "Matrix"):
        """A particular solution X of self*X = rhs, one column per column of
        rhs, from one rref of [self | rhs]; None if a column has none."""
        if rhs.rows != self.rows:
            raise ValueError("right-hand side has %d rows, not %d" % (rhs.rows, self.rows))
        if not rhs.cols:
            return Matrix.zero(self.cols, 0)
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        x = [(0,) * rhs.cols] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols:]
        return Matrix._of(self.cols, rhs.cols, tuple(x))


# the slots' own setters, since Matrix.__setattr__ refuses every assignment
_SET_ROWS, _SET_COLS, _SET_ENTRIES = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _ratio(n, d):
    """n / d for integers n and d > 0: an int when d divides n, else a
    QNUM."""
    q, r = divmod(n, d)
    return QNUM(n, d) if r else int(q)


def primitive_row(row):
    """A row of rationals scaled to a primitive integer row: denominators
    cleared (``int`` turns gmpy2's ``mpz`` into an int), then divided by the
    gcd of the entries."""
    den = lcm(*[x.denominator for x in row])
    ints = ([x.numerator for x in row] if den == 1
            else [int(x.numerator * (den // x.denominator)) for x in row])
    g = gcd(*ints)
    return ints if g <= 1 else [a // g for a in ints]


def rref_integer_rows(m, ncols):
    """Gauss-Jordan elimination of a list of integer rows, in place; returns
    the pivot columns.

    Afterwards ``m[r]`` for r < len(pivots) is an integer row whose entry in
    pivots[r] is its non-zero pivot and whose entries in the other pivot
    columns are zero, and the remaining rows are zero.  The pivot of column
    c comes from the rows at or below r: the first whose entry is 1 or -1,
    so that every update below takes the in-place path, else the first of
    least absolute value.  A pivot row r with pivot p clears column c of
    row i, whose entry there is f, by
    row_i <- q*row_i - (f/g)*row_r with g = gcd(p, f) and q = |p/g| (the
    sign goes into the second term), subtracting only in the columns where
    row_r is non-zero.  When q is 1, as for every pivot 1 or -1, row_i is
    updated in place with no scaling; otherwise the scaled row is divided by
    the gcd of its entries.  Every step multiplies a row by a non-zero
    scalar or adds a multiple of another row, so the row space is the one of
    the rational elimination, whatever row is taken as pivot; the reduced
    row echelon form of a row space is unique, so the pivot columns are
    those of the rational Gauss-Jordan result, and dividing each pivot row
    by its pivot gives exactly its rows."""
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr, best = None, 0
        for i in range(r, nrows):
            a = m[i][c]
            if a:
                if a == 1 or a == -1:
                    pr = i
                    break
                if pr is None or abs(a) < best:
                    pr, best = i, abs(a)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        support = None
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if not f or i == r:
                continue
            if support is None:
                support = [(j, b) for j, b in enumerate(prow) if b]
            g = gcd(p, f)
            q, f = p // g, f // g
            if q < 0:
                q, f = -q, -f
            if q == 1:
                for j, b in support:
                    row[j] -= f * b
            else:
                row = [q * a for a in row]
                for j, b in support:
                    row[j] -= f * b
                g = gcd(*row)
                m[i] = row if g <= 1 else [a // g for a in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def block_matrix(rows, cols, blocks) -> Matrix:
    """rows x cols matrix holding each (row offset, column offset, Matrix)
    of blocks and zero elsewhere; blocks must not overlap."""
    grid = [[0] * cols for _ in range(rows)]
    for r0, c0, blk in blocks:
        for i, row in enumerate(blk.entries):
            grid[r0 + i][c0:c0 + blk.cols] = row
    return Matrix._of(rows, cols, tuple(map(tuple, grid)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: entry (i * b.rows + k, j * b.cols + l) is
    a[i][j] * b[k][l]."""
    return Matrix._of(a.rows * b.rows, a.cols * b.cols,
                      tuple(tuple(x * y for x in arow for y in brow)
                            for arow in a.entries for brow in b.entries))


def _row_span(ambient_dim, rows) -> "Subspace":
    """The span of rows, vectors of Q^ambient_dim, with the non-zero rows
    of their reduced row echelon form as its canonical basis columns; zero
    rows are dropped, and rows that already are that basis
    (``_is_reduced``) are taken as they are, with no elimination."""
    rows = tuple(filter(any, rows))
    if not rows:
        return Subspace.zero(ambient_dim)
    if not _is_reduced(rows):
        red, pivots = Matrix._of(len(rows), ambient_dim, rows).rref()
        rows = red.entries[:len(pivots)]
    return Subspace(ambient_dim, Matrix._of(len(rows), ambient_dim, rows).transpose())


def _is_reduced(rows) -> bool:
    """Whether rows are the non-zero rows of a reduced row echelon form:
    each leads with 1, the leads ascend, and each lead column is 0 in the
    rows above (a row below is 0 there, since its lead comes later)."""
    last = -1
    for i, row in enumerate(rows):
        for lead, x in enumerate(row):
            if x:
                break
        else:
            return False
        if lead <= last or x != 1:
            return False
        for k in range(i):
            if rows[k][lead]:
                return False
        last = lead
    return True


class Subspace(Value):
    """Subspace of Q^ambient_dim given by a reduced-column-echelon basis."""

    __slots__ = ("ambient_dim",
                 "basis",  # columns are the canonical basis, possibly 0 of them
                 "_pivots")

    @staticmethod
    def from_matrix(m: Matrix) -> "Subspace":
        """Column span of m, canonicalized."""
        return _row_span(m.rows, m.transpose().entries)

    @staticmethod
    def from_vectors(ambient_dim, vectors) -> "Subspace":
        """Span of vectors given as sequences of anything ``rat`` takes."""
        rows = [tuple(map(rat, v)) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vector length mismatch")
        return _row_span(ambient_dim, rows)

    @staticmethod
    @cache
    def zero(ambient_dim) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(ambient_dim, 0))

    @staticmethod
    @cache
    def full(ambient_dim) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @memo
    def pivots(self):
        """The row of each basis column's leading 1, its first non-zero
        entry."""
        return tuple(next(i for i, x in enumerate(col) if x) for col in self.vectors())

    def coords_of(self, m: Matrix):
        """Coordinates of m's columns in the canonical basis (m's rows at the
        pivot rows), or None if a column lies outside the span."""
        if m.rows != self.ambient_dim:
            raise AmbientMismatch(self.ambient_dim, m.rows)
        if not self.dim:
            return Matrix.zero(0, m.cols) if m.is_zero() else None
        c = Matrix._of(self.dim, m.cols, tuple(m.entries[r] for r in self.pivots))
        return c if self.basis * c == m else None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch(self.ambient_dim, other.ambient_dim)
        # the operands fix the answer: no product to compare
        if other is self or other.is_zero() or self.is_full():
            return True
        return self.coords_of(other.basis) is not None

    def vectors(self):
        """The canonical basis vectors, as tuples."""
        return self.basis.transpose().entries


def _free_span(a: Matrix, keep) -> Subspace:
    """The kernel of a cut to its first keep coordinates, where no kernel
    vector but 0 vanishes, so every free column is below keep; from one rref
    of a with its columns reversed.  Free column f gives the kernel vector
    with 1 at f, 0 at the other free columns and, at each pivot column,
    minus the rref entry in f.  Reversed, those pivot columns come before f,
    so here they come after it: each vector leads with its own 1, and the
    vectors are the reduced row echelon basis of their span."""
    n = a.cols
    red, pivots = Matrix._of(a.rows, n, tuple(row[::-1] for row in a.entries)).rref()
    row_of = {n - 1 - pc: r for r, pc in enumerate(pivots)}
    free = [f for f in range(keep) if f not in row_of]
    if not free:
        return Subspace.zero(keep)
    back = [n - 1 - f for f in free]
    out = []
    for i in range(keep):
        r = row_of.get(i)
        if r is None:
            out.append(tuple(int(f == i) for f in free))
        else:
            row = red.entries[r]
            out.append(tuple([-row[c] for c in back]))
    return Subspace(keep, Matrix._of(keep, len(free), tuple(out)))


def kernel(m: Matrix) -> Subspace:
    if m.is_zero():
        return Subspace.full(m.cols)
    return _free_span(m, m.cols)


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
    # x = a.basis*s = -b.basis*t for (s, t) in ker[a.basis | b.basis]; a reduced
    # s basis times the reduced column echelon a.basis is reduced column echelon
    s = _free_span(a.basis.hstack(b.basis), a.dim)
    return Subspace(a.ambient_dim, a.basis * s.basis)


def preimage(m: Matrix, w: Subspace, within: Subspace = None) -> Subspace:
    """{x in within : m*x in w} as a subspace of the domain; within is the
    whole domain unless given.  A proper within V takes one elimination,
    of [m*V.basis | w.basis]: its canonical solution basis s, times the
    canonical V.basis, is canonical, as in ``intersect``."""
    if m.rows != w.ambient_dim:
        raise AmbientMismatch(m.rows, w.ambient_dim)
    if within is not None and within.ambient_dim != m.cols:
        raise AmbientMismatch(m.cols, within.ambient_dim)
    if within is None or within.is_full():
        return _preimage(m, w)
    if within.is_zero() or w.is_full():
        return within
    s = _preimage(m * within.basis, w)
    if s.is_zero():
        return Subspace.zero(m.cols)
    if s.is_full():
        return within
    return Subspace(m.cols, within.basis * s.basis)


def _preimage(m: Matrix, w: Subspace) -> Subspace:
    """{x : m*x in w}, for w in m's target."""
    if w.is_full():
        return Subspace.full(m.cols)
    if w.is_zero():
        return kernel(m)
    # m*x = w.basis*t for some t exactly when (x, -t) in ker[m | w.basis]; the
    # columns of w.basis are independent, so no kernel vector but 0 vanishes on x
    return _free_span(m.hstack(w.basis), m.cols)


def map_image(m: Matrix, v: Subspace) -> Subspace:
    """Image m(v) of a subspace under a matrix."""
    if m.cols != v.ambient_dim:
        raise AmbientMismatch(m.cols, v.ambient_dim)
    return Subspace.from_matrix(m * v.basis)


class QuotientSpace(Value):
    """v/w with a projection defined on all of Q^ambient and a lift section.

    projection*lift = identity, projection kills w, and the kernel of the
    projection restricted to v is exactly w.
    """

    __slots__ = ("ambient_dim", "dim",
                 "projection",  # dim x ambient_dim
                 "lift")        # ambient_dim x dim, columns in v


def quotient(v: Subspace, w: Subspace) -> QuotientSpace:
    """v/w, with the complement of w in v and the completion to an ambient
    basis taken as the pivot columns of the rref of [w | v | identity]:
    each canonical basis column of v, then each unit vector, is kept when it
    is independent of the columns before it.  The kept v columns are the
    lift, so the class bases that reports print depend only on the two
    canonical arguments.  The identity block of that rref is the product E
    of its row operations, and E maps the n kept columns to the n pivot
    columns of the rref, which are the unit vectors in order, so E is the
    inverse of kept and the projection is its rows at the kept v columns."""
    if v.ambient_dim != w.ambient_dim:
        raise AmbientMismatch(v.ambient_dim, w.ambient_dim)
    n = v.ambient_dim
    if v == w:
        return QuotientSpace(n, 0, Matrix.zero(0, n), Matrix.zero(n, 0))
    if w.is_zero() and v.is_full():
        return QuotientSpace(n, n, Matrix.identity(n), Matrix.identity(n))
    cands = w.basis.hstack(v.basis).hstack(Matrix.identity(n))
    red, pivots = cands.rref()
    head = w.dim + v.dim
    # dim(w + v) = dim v exactly when w lies in v
    if sum(1 for c in pivots if c < head) != v.dim:
        raise NotASubspace("quotient denominator is not contained in numerator")
    # every w column is a pivot, so the kept v columns come right after them
    q = v.dim - w.dim
    kept = pivots[w.dim:w.dim + q]
    proj = Matrix._of(q, n, tuple(row[head:] for row in red.entries[w.dim:w.dim + q]))
    lift = Matrix._of(n, q, tuple(tuple(row[c] for c in kept) for row in cands.entries))
    return QuotientSpace(n, q, proj, lift)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    red, pivots = m.hstack(Matrix.identity(m.rows)).rref()
    if len(pivots) != m.rows or pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return Matrix._of(m.rows, m.rows, tuple(row[m.rows:] for row in red.entries))

