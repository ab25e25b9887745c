import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqih.errors import AmbientMismatch, NotASubspace
from eqih.ratla import (
    QNUM,
    Matrix,
    Subspace,
    divide,
    image,
    intersect,
    inverse,
    kernel,
    kron,
    map_image,
    preimage,
    quotient,
    rat,
    rref_integer_rows,
    subspace_sum,
    _is_reduced,
    _row_span,
)


def M(rows):
    return Matrix.from_rows(rows)


def columns_matrix(n, vectors):
    """The n-row matrix whose columns are vectors."""
    return Matrix(n, len(vectors), [[v[i] for v in vectors] for i in range(n)])


def contains(space, vector):
    return space.coords_of(columns_matrix(space.ambient_dim, [vector])) is not None


class TestRref:
    def test_identity(self):
        red, piv = M([[1, 0], [0, 1]]).rref()
        assert red == Matrix.identity(2)
        assert piv == [0, 1]

    def test_zero(self):
        red, piv = Matrix.zero(3, 2).rref()
        assert red == Matrix.zero(3, 2)
        assert piv == []

    def test_rank_one(self):
        red, piv = M([[1, 2], [2, 4]]).rref()
        assert red == M([[1, 2], [0, 0]])
        assert piv == [0]


class TestKernelImage:
    def test_kernel_identity(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_kernel_zero(self):
        k = kernel(Matrix.zero(3, 3))
        assert k.is_full()

    def test_kernel_row(self):
        k = kernel(M([[1, 1]]))
        assert k.dim == 1
        (v,) = k.vectors()
        assert v[0] == -v[1] and v[0] != 0

    def test_image_identity(self):
        assert image(Matrix.identity(2)).is_full()

    def test_image_zero(self):
        assert image(Matrix.zero(2, 2)).is_zero()

    def test_image_single_column(self):
        im = image(M([[1], [2]]))
        assert im.dim == 1
        assert contains(im, (1, 2))
        assert not contains(im, (1, 3))


class TestSumIntersect:
    def test_equal_spaces(self):
        a = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 0)])
        assert subspace_sum(a, a) == a
        assert intersect(a, a) == a

    def test_coordinate_planes(self):
        xy = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        xz = Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])
        assert subspace_sum(xy, xz).is_full()
        x_axis = intersect(xy, xz)
        assert x_axis == Subspace.from_vectors(3, [(1, 0, 0)])

    def test_zero_plus_v(self):
        v = Subspace.from_vectors(2, [(1, 2)])
        assert subspace_sum(Subspace.zero(2), v) == v

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_sum(Subspace.zero(2), Subspace.zero(3))


class TestQuotient:
    def test_trivial(self):
        v = Subspace.from_vectors(2, [(1, 0)])
        q = quotient(v, v)
        assert q.dim == 0

    def test_plane_by_axis(self):
        q = quotient(Subspace.full(2), Subspace.from_vectors(2, [(1, 0)]))
        assert q.dim == 1
        assert (q.projection * M([[5], [0]])).is_zero()
        assert not (q.projection * M([[0], [1]])).is_zero()

    def test_dim_count(self):
        v = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        w = Subspace.from_vectors(3, [(1, 1, 0)])
        q = quotient(v, w)
        assert q.dim == 1
        # projection kills w, section splits the projection
        assert (q.projection * M([[1], [1], [0]])).is_zero()
        assert q.projection * q.lift == Matrix.identity(1)

    def test_not_a_subspace(self):
        v = Subspace.from_vectors(3, [(1, 0, 0)])
        w = Subspace.from_vectors(3, [(0, 1, 0)])
        with pytest.raises(NotASubspace):
            quotient(v, w)


class TestSolve:
    def test_identity(self):
        rhs = M([[1, 4], [2, 5], [3, 6]])
        assert Matrix.identity(3).solve(rhs) == rhs

    def test_no_solution(self):
        assert Matrix.zero(2, 2).solve(M([[1], [0]])) is None

    def test_one_unsolvable_column_fails_the_block(self):
        assert M([[1], [2]]).solve(M([[2, 1], [4, 1]])) is None

    def test_scaling(self):
        assert M([[1], [2]]).solve(M([[2, -1], [4, -2]])) == M([[2, -1]])

    def test_empty_block(self):
        assert M([[1, 0], [2, 0]]).solve(Matrix.zero(2, 0)) == Matrix.zero(2, 0)
        with pytest.raises(ValueError):
            M([[1], [2]]).solve(Matrix.zero(3, 1))

    def test_preimage_subspace(self):
        m = M([[1, 0], [0, 1], [0, 0]])
        w = Subspace.from_vectors(3, [(1, 0, 0)])
        assert preimage(m, w) == Subspace.from_vectors(2, [(1, 0)])


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=4):
    """Matrices of 0 to max_dim rows and columns with small integer
    entries, all zero in some draws."""
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.one_of(
                st.just(Matrix.zero(r, c)),
                st.lists(
                    st.lists(small_entries, min_size=c, max_size=c),
                    min_size=r, max_size=r,
                ).map(lambda grid: Matrix(r, c, grid)),
            )
        )
    )


def subspaces(ambient):
    """Spans of up to ambient drawn vectors, and the zero and full spaces."""
    return st.one_of(
        st.just(Subspace.zero(ambient)),
        st.just(Subspace.full(ambient)),
        st.lists(
            st.lists(small_entries, min_size=ambient, max_size=ambient),
            min_size=0, max_size=ambient,
        ).map(lambda vs: Subspace.from_vectors(ambient, vs)),
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(subspaces(4), subspaces(4))
def test_grassmann_identity(a, b):
    s = subspace_sum(a, b)
    i = intersect(a, b)
    assert s.dim + i.dim == a.dim + b.dim
    assert s.contains_subspace(a) and s.contains_subspace(b)
    assert a.contains_subspace(i) and b.contains_subspace(i)


@settings(max_examples=60, deadline=None)
@given(subspaces(4), subspaces(4))
def test_canonical_equality(a, b):
    same = a.contains_subspace(b) and b.contains_subspace(a)
    assert same == (a == b)
    if same:
        assert a.basis.entries == b.basis.entries


@settings(max_examples=40, deadline=None)
@given(matrices(3))
def test_solve_consistency(m):
    target = m * Matrix(m.cols, 2, [[1, k] for k in range(m.cols)])
    x = m.solve(target)
    assert x is not None
    assert m * x == target


def greedy_quotient(v, w):
    """Reference quotient: complete the w basis to a v basis and then to an
    ambient basis one candidate column at a time, and invert."""
    if not v.contains_subspace(w):
        raise NotASubspace("reference")
    n = v.ambient_dim
    chosen = list(w.vectors())
    comp = []
    for c in v.vectors():
        if not contains(Subspace.from_vectors(n, chosen), c):
            chosen.append(c)
            comp.append(c)
    for i in range(n):
        if len(chosen) == n:
            break
        e = tuple(int(j == i) for j in range(n))
        if not contains(Subspace.from_vectors(n, chosen), e):
            chosen.append(e)
    inv = inverse(columns_matrix(n, chosen))
    proj = Matrix(len(comp), n, [inv.entries[w.dim + i] for i in range(len(comp))])
    return proj, columns_matrix(n, comp)


@st.composite
def nested_pairs(draw, ambient=4):
    """(v, w) with w inside v: w is spanned by combinations of v's basis,
    or is v itself or the zero space."""
    v = draw(subspaces(ambient))
    coeffs = draw(st.lists(st.lists(small_entries, min_size=v.dim, max_size=v.dim),
                           max_size=v.dim + 1))
    inner = Subspace.from_matrix(v.basis * columns_matrix(v.dim, coeffs))
    return v, draw(st.sampled_from([inner, v, Subspace.zero(ambient)]))


@settings(max_examples=80, deadline=None)
@given(nested_pairs())
def test_quotient_matches_greedy_reference(pair):
    v, w = pair
    q = quotient(v, w)
    proj, lift = greedy_quotient(v, w)
    assert (q.projection, q.lift) == (proj, lift)
    assert q.dim == v.dim - w.dim


@settings(max_examples=60, deadline=None)
@given(subspaces(3), subspaces(3))
def test_quotient_refuses_like_reference(v, w):
    outcomes = []
    for fn in (quotient, greedy_quotient):
        try:
            fn(v, w)
            outcomes.append(True)
        except NotASubspace:
            outcomes.append(False)
    assert outcomes[0] == outcomes[1] == v.contains_subspace(w)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_preimage_matches_projection_kernel(m, data):
    w = data.draw(subspaces(m.rows))
    reference = kernel(quotient(Subspace.full(m.rows), w).projection * m)
    assert preimage(m, w) == reference


def eliminated_intersection(a, b):
    """Reference: the intersection by general elimination alone, x in both
    spans exactly when (s, t) is in the kernel of [a.basis | -b.basis]."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = a.basis.hstack(b.basis.scale(-1))
    coeffs = [k[:a.dim] for k in stacked.kernel_basis()]
    return Subspace.from_matrix(a.basis * columns_matrix(a.dim, coeffs))


def seeded_subspace(rng, n, dim):
    vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(dim)]
    return Subspace.from_vectors(n, vecs)


def intersection_pairs(seed):
    """Random, full, zero, equal and nested pairs of subspaces of one
    seeded ambient space."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    a = seeded_subspace(rng, n, rng.randint(0, n))
    b = seeded_subspace(rng, n, rng.randint(0, n))
    coeffs = [[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(rng.randint(0, a.dim))]
    inner = Subspace.from_matrix(a.basis * columns_matrix(a.dim, coeffs))
    full, zero = Subspace.full(n), Subspace.zero(n)
    return [(a, b), (a, full), (b, full), (full, full), (a, zero),
            (full, zero), (a, a), (a, inner)]


@pytest.mark.parametrize("seed", range(40))
def test_intersect_matches_general_elimination(seed):
    for x, y in intersection_pairs(seed):
        for first, second in ((x, y), (y, x)):
            got = intersect(first, second)
            want = eliminated_intersection(first, second)
            assert got == want
            assert got.basis.entries == want.basis.entries


# -- coordinates at the pivots against elimination ---------------------------

def solved_column(space, column):
    """Reference: the coordinates of one column by its own elimination,
    basis * x = column, or None if it has no solution."""
    x = space.basis.solve(columns_matrix(space.ambient_dim, [column]))
    return None if x is None else x.transpose().entries[0]


def solved_coords(space, columns):
    """Reference: the coordinates of each column by its own elimination, as
    a matrix, or None if one has no solution."""
    solved = [solved_column(space, c) for c in columns]
    if any(x is None for x in solved):
        return None
    return columns_matrix(space.dim, solved)


def coordinate_cases(seed):
    """(space, columns in its span, columns drawn at random) for seeded
    random subspaces, the zero and full spaces and the ambient-0 space."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    spaces = [seeded_subspace(rng, n, rng.randint(1, n)), seeded_subspace(rng, n, 2),
              Subspace.zero(n), Subspace.full(n), Subspace.zero(0)]
    out = []
    for space in spaces:
        m = space.ambient_dim
        coeffs = [[QNUM(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(space.dim)]
                  for _ in range(3)]
        inside = list((space.basis * columns_matrix(space.dim, coeffs)).transpose().entries)
        drawn = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(3)]
        out.append((space, inside, drawn))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_coordinates_match_solve_reference(seed):
    for space, inside, drawn in coordinate_cases(seed):
        n = space.ambient_dim
        for columns in ([], inside, inside + drawn, drawn[:1], *([v] for v in inside + drawn)):
            want = solved_coords(space, columns)
            assert space.coords_of(columns_matrix(n, columns)) == want
            other = Subspace.from_vectors(n, columns)
            assert space.contains_subspace(other) == \
                (solved_coords(space, other.vectors()) is not None)
        assert space.coords_of(columns_matrix(n, inside)) is not None
    with pytest.raises(AmbientMismatch):
        Subspace.zero(0).coords_of(Matrix.zero(1, 1))


# -- integer elimination against the rational reference ----------------------

def rational_rref(m):
    """Reference: Gauss-Jordan elimination over the rationals, dividing the
    pivot row by its pivot and clearing the pivot column in every other row."""
    rows = [list(map(Fraction, row)) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows)), pivots


def dense_product(a, b):
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), 0)
                       for j in range(b.cols)) for i in range(a.rows))


# zero half the time, otherwise a signed rational with a non-unit denominator
# in most draws
rationals = st.one_of(
    st.just(0),
    st.builds(lambda n, d: rat("%d/%d" % (n, d)),
              st.integers(-7, 7).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 9])))


@st.composite
def rational_matrices(draw, rows=None, max_dim=8, cols=None):
    """Matrices of 0-8 rows and columns mixing drawn rows, zero rows and
    rational combinations of two earlier rows."""
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    grid = []
    for _ in range(r):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "dependent"]))
        if kind == "zero":
            grid.append([0] * c)
        elif kind == "dependent" and grid:
            a, b = draw(st.sampled_from(grid)), draw(st.sampled_from(grid))
            s, t = draw(rationals), draw(rationals)
            grid.append([s * x + t * y for x, y in zip(a, b)])
        else:
            grid.append(draw(st.lists(rationals, min_size=c, max_size=c)))
    return Matrix(r, c, grid)


def canonical(entries):
    """Every entry in the form ``rat`` gives: an int, or a QNUM that is not
    integral."""
    return all(type(x) is int or (type(x) is QNUM and x.denominator != 1)
               for row in entries for x in row)


def scalars(entries):
    """Every entry an int or a QNUM: never a float, bool or str."""
    return all(type(x) is int or type(x) is QNUM for row in entries for x in row)


def sparse_integer_matrix(seed, rows, cols, rank, values):
    """Seeded integer matrix shaped like the random-model generator's
    systems: `rank` sparse rows with entries from values, and the other rows
    combinations of two of them, in shuffled order."""
    rng = random.Random(seed)
    grid = [[rng.choice(values) if rng.random() < 0.06 else 0 for _ in range(cols)]
            for _ in range(rank)]
    while len(grid) < rows:
        a, b = rng.sample(grid[:rank], 2)
        s, t = rng.choice(values), rng.choice(values)
        grid.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(grid)
    return Matrix(rows, cols, grid)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
# unit entries, so that most pivots are 1 or -1
@example(sparse_integer_matrix(1, 150, 130, 30, (-1, 1)))
# no unit entries, so that every row update scales
@example(sparse_integer_matrix(2, 150, 130, 30, (-3, -2, 2, 3, 5)))
@example(sparse_integer_matrix(3, 120, 100, 40, (-2, -1, 1, 2)))
@example(sparse_integer_matrix(4, 60, 90, 50, (-1, 1, 2)))
def test_rref_matches_rational_reference(m):
    red, pivots = m.rref()
    assert (red.entries, pivots) == rational_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols) and canonical(red.entries)


# -- the pivot rule ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(rational_matrices(max_dim=4))
# the only unit of column 0 below a non-unit entry
@example(M([[2, 4, 1], [1, 3, 0], [3, 7, 1]]))
# no unit in column 0, with a tie of least absolute value
@example(M([[4, 1, 3], [-2, 5, 1], [2, 3, 6], [6, 0, 2]]))
# zero columns
@example(M([[0, 2, 0, 3], [0, 4, 0, 1], [0, 6, 0, 4]]))
# more rows than columns
@example(M([[3, 6], [2, 4], [5, 1], [4, 2]]))
def test_rref_is_the_same_for_every_row_order(m):
    """The pivot a column takes depends on the order of the rows, but the
    reduced row echelon form does not."""
    want = m.rref()
    assert (want[0].entries, want[1]) == rational_rref(m)
    for order in itertools.permutations(m.entries):
        assert Matrix._of(m.rows, m.cols, order).rref() == want


@pytest.mark.parametrize("rows, pivot_row", [
    # the only unit of column 0, below a non-unit entry, is the pivot
    ([[2, 1], [1, 0], [3, 5]], [1, 0]),
    # with no unit, the first entry of least absolute value is
    ([[4, 1], [-2, 0], [2, 3]], [-2, 0]),
    ([[6, 1], [9, 0], [3, 0]], [3, 0]),
])
def test_pivot_rule(rows, pivot_row):
    """rref_integer_rows moves the chosen pivot row to the top of its column;
    a row with 0 in every later pivot column is left as it is."""
    m = [list(row) for row in rows]
    assert rref_integer_rows(m, 2) == [0, 1]
    assert m[0] == pivot_row


# -- the form of an entry --------------------------------------------------------

def test_rat_of_integers_and_strings():
    """Integers, their strings and integral rationals give ints; any other
    rational gives a QNUM, and a QNUM that is not integral is itself."""
    for x in range(-70, 71):
        for value in (rat(x), rat(str(x)), rat("%d/1" % x), rat(QNUM(x)), rat(Fraction(2 * x, 2))):
            assert type(value) is int and value == x
    for text in ("1/2", "-7/3", "1.5", "1e-3"):
        value = rat(text)
        assert type(value) is QNUM and value == Fraction(text) and rat(value) is value


def test_integral_values_are_ints():
    """zero, identity, the full space's basis and an integral quotient are
    ints; a quotient that is not integral is a QNUM."""
    assert canonical(Matrix.zero(2, 3).entries) and canonical(Matrix.identity(3).entries)
    assert all(type(x) is int for row in Matrix.identity(3).entries for x in row)
    assert kernel(Matrix.zero(2, 3)).basis is Matrix.identity(3)
    for a, b, want in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, -5, 0),
                       (rat("1/2"), rat("1/4"), 2), (QNUM(4), QNUM(-2), -2)):
        assert type(divide(a, b)) is int and divide(a, b) == want
    for a, b in ((1, 2), (1, -2), (rat("2/3"), 5), (4, rat("3/2"))):
        assert type(divide(a, b)) is QNUM and divide(a, b) == Fraction(a) / Fraction(b)
    with pytest.raises(ZeroDivisionError):
        divide(1, 0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))),
       st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))
       .filter(bool))
def test_divide_matches_the_fraction_quotient(a, b):
    q = divide(rat(a), rat(b))
    assert q == Fraction(a) / Fraction(b) and canonical([[q]])


def blurred(m, data):
    """m with each integral entry drawn as itself or as an equal QNUM."""
    flags = iter(data.draw(st.lists(st.booleans(), min_size=m.rows * m.cols,
                                    max_size=m.rows * m.cols)))
    return Matrix._of(m.rows, m.cols, tuple(
        tuple(QNUM(x) if type(x) is int and next(flags) else x for x in row)
        for row in m.entries))


def blurred_space(space, data):
    return Subspace(space.ambient_dim, blurred(space.basis, data))


def same_entries(got, want):
    """Equal entries, each with the same str."""
    return got == want and [list(map(str, row)) for row in got] == \
        [list(map(str, row)) for row in want]


@settings(max_examples=100, deadline=None)
@given(rational_matrices(max_dim=5), st.data())
def test_integral_qnum_entries_give_the_results_of_ints(m, data):
    """Operands whose integral entries are partly QNUMs give the entries,
    and the strs, that the all-int operands give."""
    b = data.draw(rational_matrices(rows=m.cols, max_dim=5))
    w = Subspace.from_matrix(data.draw(rational_matrices(rows=m.rows, max_dim=3)))
    a = Subspace.from_matrix(data.draw(rational_matrices(rows=m.rows, max_dim=3)))
    v = Subspace.from_matrix(data.draw(rational_matrices(rows=m.cols, max_dim=3)))
    m2, b2 = blurred(m, data), blurred(b, data)
    w2, a2, v2 = (blurred_space(x, data) for x in (w, a, v))
    assert same_entries((m2 * b2).entries, (m * b).entries)
    red2, pivots2 = m2.rref()
    assert same_entries(red2.entries, m.rref()[0].entries) and pivots2 == m.rref()[1]
    results = [(kernel(m2), kernel(m)), (preimage(m2, w2), preimage(m, w)),
               (preimage(m2, w2, v2), preimage(m, w, v)), (intersect(w2, a2), intersect(w, a))]
    for got, want in results:
        assert same_entries(got.basis.entries, want.basis.entries)
    total = subspace_sum(w, a)
    got, want = quotient(blurred_space(total, data), w2), quotient(total, w)
    assert same_entries(got.projection.entries, want.projection.entries)
    assert same_entries(got.lift.entries, want.lift.entries)


def test_unit_pivot_rows_hold_ints():
    """A pivot row with pivot 1 or -1 keeps its integer entries, and every
    entry equals the rational quotient."""
    for rows in ([[1, -1, 0, 2]], [[-1, 1, 0, 3]], [[1, 2], [1, 3]], [[1, 0, -1], [0, -1, 3]]):
        red, _ = M(rows).rref()
        assert red.entries == rational_rref(M(rows))[0]
        assert all(type(x) is int for row in red.entries for x in row)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_product_matches_dense_reference(a, data):
    b = data.draw(rational_matrices(rows=a.cols))
    p = a * b
    assert (p.rows, p.cols, p.entries) == (a.rows, b.cols, dense_product(a, b))


@settings(max_examples=60, deadline=None)
@given(rational_matrices(max_dim=4), rational_matrices(max_dim=4))
def test_kron_matches_its_definition(a, b):
    k = kron(a, b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    assert all(k.entries[i * b.rows + r][j * b.cols + c] == a.entries[i][j] * b.entries[r][c]
               for i in range(a.rows) for j in range(a.cols)
               for r in range(b.rows) for c in range(b.cols))
    assert scalars(k.entries)


@settings(max_examples=50, deadline=None)
@given(rational_matrices())
def test_entries_are_int_or_qnum(m):
    """Eliminations, products and rearrangements of entries in rat's form
    keep that form; sums and scalings hold ints and QNUMs."""
    square = m * m.transpose() + Matrix.identity(m.rows)  # positive definite
    built = [m.rref()[0], m * m.transpose(), m.transpose(), m.hstack(m), m.scale(-1),
             inverse(square)]
    assert all(canonical(x.entries) for x in built)
    assert scalars(m.scale(rat("2/3")).entries) and scalars((m + m).entries)
    assert canonical(m.kernel_basis()) and canonical(kernel(m).basis.entries)
    q = quotient(Subspace.full(m.cols), kernel(m))
    assert canonical(q.projection.entries) and canonical(q.lift.entries)


# -- one elimination against the two-elimination paths -----------------------

def row_span_kernel(m):
    """Reference: the kernel_basis rows canonicalized by a second
    elimination."""
    return _row_span(m.cols, m.kernel_basis())


def row_span_preimage(m, w):
    """Reference: the x parts of the kernel of [m | -w.basis],
    canonicalized by a second elimination."""
    stacked = m.hstack(w.basis.scale(-1))
    return _row_span(m.cols, [k[:m.cols] for k in stacked.kernel_basis()])


def inverted_quotient(v, w):
    """Reference: the projection as the rows of the inverse of the kept
    columns of [w | v | identity] at the kept v columns, and the lift as
    those columns."""
    n = v.ambient_dim
    cands = w.basis.hstack(v.basis).hstack(Matrix.identity(n))
    pivots = cands.rref()[1]
    kept = Matrix(n, n, [[row[c] for c in pivots] for row in cands.entries])
    q = v.dim - w.dim
    proj = Matrix(q, n, inverse(kept).entries[w.dim:w.dim + q])
    lift = Matrix(n, q, [row[w.dim:w.dim + q] for row in kept.entries])
    return proj, lift


def assert_same_space(got, want):
    assert got == want
    assert got.basis.entries == want.basis.entries and canonical(got.basis.entries)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), rational_matrices()))
def test_kernel_matches_row_span_reference(m):
    assert_same_space(kernel(m), row_span_kernel(m))


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), rational_matrices()), st.data())
def test_preimage_matches_row_span_reference(m, data):
    w = data.draw(subspaces(m.rows))
    assert_same_space(preimage(m, w), row_span_preimage(m, w))


def restricted_preimage_cases(seed):
    """(m, w, within) for a seeded m of 0 to 6 rows and columns, zero in
    some draws, every w among two drawn, the zero and the full space of its
    target, and every within among two drawn, the zero and the full space
    of its domain and the kernel of m, which m sends into every w."""
    rng = random.Random(seed)
    r, c = rng.randint(0, 6), rng.randint(0, 6)
    grid = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(c)] for _ in range(r)]
    m = Matrix(r, c, grid) if rng.random() < 0.8 else Matrix.zero(r, c)
    targets = [seeded_subspace(rng, r, rng.randint(0, max(r - 1, 0))) for _ in range(2)]
    targets += [Subspace.zero(r), Subspace.full(r)]
    domains = [seeded_subspace(rng, c, rng.randint(0, max(c - 1, 0))) for _ in range(2)]
    domains += [Subspace.zero(c), Subspace.full(c), kernel(m)]
    return [(m, w, v) for w in targets for v in domains]


@pytest.mark.parametrize("seed", range(60))
def test_restricted_preimage_matches_intersection(monkeypatch, seed):
    """preimage(m, w, within) is intersect(within, preimage(m, w)), basis
    for basis, from at most one elimination."""
    rref = Matrix.rref
    count = collections.Counter()

    def counting_rref(self):
        count["rref"] += 1
        return rref(self)

    for m, w, within in restricted_preimage_cases(seed):
        want = intersect(within, preimage(m, w))
        monkeypatch.setattr(Matrix, "rref", counting_rref)
        count.clear()
        got = preimage(m, w, within=within)
        monkeypatch.setattr(Matrix, "rref", rref)
        assert_same_space(got, want)
        assert count["rref"] <= 1


def test_restricted_preimage_refuses_a_mismatched_ambient():
    m = M([[1, 0, 2], [0, 1, 1]])
    for within in (Subspace.zero(2), Subspace.full(2), Subspace.from_vectors(4, [(1, 0, 0, 0)])):
        with pytest.raises(AmbientMismatch):
            preimage(m, Subspace.full(2), within=within)
    with pytest.raises(AmbientMismatch):
        preimage(m, Subspace.zero(3), within=Subspace.full(3))


@settings(max_examples=100, deadline=None)
@given(nested_pairs())
def test_quotient_matches_inverted_reference(pair):
    v, w = pair
    q = quotient(v, w)
    assert (q.projection, q.lift) == inverted_quotient(v, w)
    assert canonical(q.projection.entries) and canonical(q.lift.entries)




@st.composite
def product_operands(draw):
    """(a, b) of shapes r x k and k x c, each of r, k and c from 0 to 4; an
    operand is drawn, zero, or, when square, the cached identity or an equal
    identity built entry by entry."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))

    def operand(rows, cols):
        kinds = ["drawn", "zero"] + (["cached", "built"] if rows == cols else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return Matrix.zero(rows, cols)
        if kind == "cached":
            return Matrix.identity(rows)
        if kind == "built":
            return Matrix(rows, rows, [[int(i == j) for j in range(rows)] for i in range(rows)])
        return draw(rational_matrices(rows=rows, cols=cols))

    return operand(r, k), operand(k, c)


@settings(max_examples=150, deadline=None)
@given(product_operands())
# each dimension zero in turn, and the cached identity beside a drawn factor
@example((Matrix(0, 3, []), M([[1, 2], [3, 4], [5, 6]])))
@example((Matrix(2, 0, [[], []]), Matrix(0, 3, [])))
@example((M([[1, 2, 3], [4, 5, 6]]), Matrix(3, 0, [[], [], []])))
@example((Matrix.identity(2), M([[1, 2], [3, 4]])))
@example((M([[1, 2], [3, 4]]), Matrix.identity(2)))
def test_product_matches_triple_loop(operands):
    a, b = operands
    p = a * b
    loop = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                loop[i][j] += a.entries[i][t] * b.entries[t][j]
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == tuple(map(tuple, loop)) and canonical(p.entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: rational_matrices(rows=n)))
def test_zero_subspace_coordinates(m):
    coords = Subspace.zero(m.rows).coords_of(m)
    if m.is_zero():
        assert coords == Matrix.zero(0, m.cols)
    else:
        assert coords is None


# -- spans given by reduced rows -------------------------------------------------

def eliminated_span(n, rows):
    """Reference: the span of rows from a forced elimination."""
    red, pivots = Matrix(len(rows), n, rows).rref()
    return Subspace(n, Matrix._of(len(pivots), n, red.entries[:len(pivots)]).transpose())


def near_misses(rows, data):
    """Row lists that differ from the reduced rows `rows` in one way each, so
    that none is a reduced row echelon basis: row i times -1 or 2, a zero
    row or a second copy of row i inserted, and, with two rows or more, row
    i plus a multiple of row j, which is non-zero in the lead column of j,
    and rows i and j swapped."""
    rows = [list(row) for row in rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    out = []
    for factor in (-1, 2):
        scaled = [r[:] for r in rows]
        scaled[i] = [factor * x for x in rows[i]]
        out.append(scaled)
    out.append(rows[:i] + [[0] * len(rows[i])] + rows[i:])
    out.append(rows[:i + 1] + [rows[i]] + rows[i + 1:])
    if len(rows) >= 2:
        j = data.draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        c = data.draw(rationals.filter(bool))
        mixed = [r[:] for r in rows]
        mixed[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        out.append(mixed)
        swapped = [r[:] for r in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(swapped)
    return out


@settings(max_examples=150, deadline=None)
@given(rational_matrices(max_dim=6), st.data())
# reduced rows with a zero column, and a row whose later entries are not 0
@example(M([[1, 0, 2, 0], [0, 0, 0, 1]]), None)
@example(M([[0, 1, -1], [0, 0, 0]]), None)
def test_row_span_matches_forced_elimination(m, data):
    """_row_span takes reduced rows as they are, also with zero rows among
    them, and eliminates every other row set, near misses of reduced rows
    among them, to the same space."""
    n = m.cols
    assert_same_space(_row_span(n, m.entries), eliminated_span(n, m.entries))
    red, pivots = m.rref()
    reduced = red.entries[:len(pivots)]
    if not reduced:
        return
    count = collections.Counter()
    rref = Matrix.rref

    def counting_rref(self):
        count["rref"] += 1
        return rref(self)

    zero = (0,) * n
    padded = [row for r in reduced for row in (zero, r)] + [zero]
    Matrix.rref = counting_rref
    try:
        span = _row_span(n, reduced)
        padded_span = _row_span(n, padded)
    finally:
        Matrix.rref = rref
    assert count["rref"] == 0
    assert_same_space(span, eliminated_span(n, reduced))
    assert padded_span.basis.entries == span.basis.entries
    if data is None:
        return
    for rows in near_misses(reduced, data):
        assert not _is_reduced(rows)
        assert_same_space(_row_span(n, [tuple(map(rat, r)) for r in rows]),
                          eliminated_span(n, rows))


# -- products on integers --------------------------------------------------------

def fraction_product(a, b):
    """Reference: the product summed in rational arithmetic over the terms
    whose two factors are non-zero, as products were computed before they
    ran on integers."""
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.entries]
    out = []
    for row in a.entries:
        acc = [Fraction(0)] * b.cols
        for x, terms in zip(row, nonzero):
            if x:
                for j, y in terms:
                    acc[j] += Fraction(x) * Fraction(y)
        out.append(tuple(acc))
    return tuple(out)


# signed, with numerators and denominators that do and do not cancel
signed_entries = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10])))


@st.composite
def integer_product_operands(draw):
    """(a, b) of shapes r x k and k x c, each of r, k and c from 0 to 6."""
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))

    def operand(rows, cols):
        return Matrix(rows, cols, [[draw(signed_entries) for _ in range(cols)]
                                   for _ in range(rows)])

    return operand(r, k), operand(k, c)


@settings(max_examples=200, deadline=None)
@given(integer_product_operands())
# a denominator cancels to 1, -1 and 0 in one row, and large entries
@example((M([[rat("1/2"), rat("1/3")]]), M([[2, -2, 4], [0, 0, -3]])))
@example((M([[10 ** 30, -1]]), M([[10 ** 30], [rat("1/7")]])))
def test_integer_product_matches_fraction_reference(operands):
    a, b = operands
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == fraction_product(a, b) and canonical(p.entries)


# -- containment of an image, read from coordinates -----------------------------

@st.composite
def image_containments(draw):
    """(w, e, v) with e: Q^n -> Q^m, v in Q^n and w in Q^m, each of n and m
    from 1 to 4 (the examples hold dimension 0).  Some draws zero a block of
    e's last columns, and w is drawn, or spanned by e(v) and drawn vectors,
    or by part of e(v), so that both answers occur."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    v = Subspace.from_matrix(draw(rational_matrices(rows=n, cols=draw(st.integers(1, 3)))))
    e = draw(rational_matrices(rows=m, cols=n))
    zeroed = min(n, draw(st.sampled_from([0, 0, 1, 2])))
    e = Matrix(m, n, [row[:n - zeroed] + (0,) * zeroed for row in e.entries])
    moved = e * v.basis
    kind = draw(st.sampled_from(["drawn", "spans the image", "spans part of the image"]))
    if kind == "drawn":
        return Subspace.from_matrix(draw(rational_matrices(rows=m, max_dim=2))), e, v
    keep = moved.cols
    if kind == "spans part of the image":
        keep = draw(st.integers(0, max(keep - 1, 0)))
    part = Matrix(m, keep, [row[:keep] for row in moved.entries])
    return Subspace.from_matrix(part.hstack(draw(rational_matrices(rows=m, max_dim=1)))), e, v


@settings(max_examples=150, deadline=None)
@given(image_containments())
# v is zero
@example((Subspace.from_vectors(2, [(1, 0)]), M([[1, 2], [3, 4]]), Subspace.zero(2)))
# w is full: the cached full space, and a full span that is not it
@example((Subspace.full(2), M([[1, 2], [0, 0]]), Subspace.full(2)))
@example((Subspace.from_vectors(2, [(1, 1), (1, -1)]), M([[1, 2], [3, 5]]),
          Subspace.from_vectors(2, [(1, 3)])))
# ambient dimension 0, of w and of v
@example((Subspace.zero(0), Matrix.zero(0, 3), Subspace.from_vectors(3, [(1, 0, 2)])))
@example((Subspace.from_vectors(2, [(1, 0)]), Matrix.zero(2, 0), Subspace.zero(0)))
# e is not invertible: e(v) is a line inside w, then outside it
@example((Subspace.from_vectors(3, [(1, 2, 0)]), M([[1, 1, 0], [2, 2, 0], [0, 0, 0]]),
          Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])))
@example((Subspace.from_vectors(3, [(1, 0, 0)]), M([[1, 1, 0], [2, 2, 0], [0, 0, 0]]),
          Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])))
# e has a zero column block: it kills v, then maps part of v outside w
@example((Subspace.zero(2), M([[1, 0, 0], [2, 0, 0]]),
          Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])))
@example((Subspace.from_vectors(2, [(1, 0)]), M([[1, 0, 0], [2, 0, 0]]), Subspace.full(3)))
def test_image_containment_is_read_from_coordinates(case):
    """w contains e(v) exactly when every column of e * v.basis has
    coordinates in w, so the test builds no image subspace; it is also
    decided outright when v is zero or w is full."""
    w, e, v = case
    want = w.contains_subspace(map_image(e, v))
    moved = e * v.basis
    assert want == (w.basis.hstack(moved).rank() == w.dim)
    assert (w.coords_of(moved) is not None) == want
    assert (v.is_zero() or w.is_full() or w.coords_of(moved) is not None) == want
