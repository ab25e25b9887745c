import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqih.errors import AmbientMismatch, NotASubspace
from eqih.ratla import (
    ONE,
    QNUM,
    ZERO,
    Matrix,
    Subspace,
    image,
    intersect,
    inverse,
    kernel,
    preimage,
    quotient,
    rat,
    subspace_sum,
)


def M(rows):
    return Matrix.from_rows(rows)


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
        v = k.basis.column(0)
        assert v[0] == -v[1] and v[0] != 0

    def test_image_identity(self):
        assert image(Matrix.identity(2)).is_full()

    def test_image_zero(self):
        assert image(Matrix.zero(2, 2)).is_zero()

    def test_image_single_column(self):
        im = image(M([[1], [2]]))
        assert im.dim == 1
        assert im.contains((1, 2))
        assert not im.contains((1, 3))


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
        assert q.class_of((5, 0)) == (rat(0),)
        assert q.class_of((0, 1)) != (rat(0),)

    def test_dim_count(self):
        v = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        w = Subspace.from_vectors(3, [(1, 1, 0)])
        q = quotient(v, w)
        assert q.dim == 1
        # projection kills w, section splits the projection
        assert q.class_of((1, 1, 0)) == (rat(0),)
        assert q.projection * q.lift == Matrix.identity(1)

    def test_not_a_subspace(self):
        v = Subspace.from_vectors(3, [(1, 0, 0)])
        w = Subspace.from_vectors(3, [(0, 1, 0)])
        with pytest.raises(NotASubspace):
            quotient(v, w)


class TestSolve:
    def test_identity(self):
        assert Matrix.identity(3).solve((1, 2, 3)) == tuple(map(rat, (1, 2, 3)))

    def test_no_solution(self):
        assert Matrix.zero(2, 2).solve((1, 0)) is None

    def test_scaling(self):
        assert M([[1], [2]]).solve((2, 4)) == (rat(2),)

    def test_preimage_subspace(self):
        m = M([[1, 0], [0, 1], [0, 0]])
        w = Subspace.from_vectors(3, [(1, 0, 0)])
        assert preimage(m, w) == Subspace.from_vectors(2, [(1, 0)])


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(Matrix.from_rows)
        )
    )


def subspaces(ambient):
    return st.lists(
        st.lists(small_entries, min_size=ambient, max_size=ambient),
        min_size=0, max_size=ambient,
    ).map(lambda vs: Subspace.from_vectors(ambient, vs))


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
    target = m.apply([1] * m.cols)
    x = m.solve(target)
    assert x is not None
    assert m.apply(x) == tuple(target)


def greedy_quotient(v, w):
    """Reference quotient: complete the w basis to a v basis and then to an
    ambient basis one candidate column at a time, and invert."""
    if not v.contains_subspace(w):
        raise NotASubspace("reference")
    n = v.ambient_dim
    chosen = list(w.basis.columns())
    comp = []
    for c in v.basis.columns():
        if not Subspace.from_vectors(n, chosen).contains(c):
            chosen.append(c)
            comp.append(c)
    for i in range(n):
        if len(chosen) == n:
            break
        e = tuple(ONE if j == i else ZERO for j in range(n))
        if not Subspace.from_vectors(n, chosen).contains(e):
            chosen.append(e)
    inv = inverse(Matrix.from_columns(n, chosen))
    proj = Matrix(len(comp), n, [inv.entries[w.dim + i] for i in range(len(comp))])
    return proj, Matrix.from_columns(n, comp)


@st.composite
def nested_pairs(draw, ambient=4):
    """(v, w) with w inside v: w is spanned by combinations of v's basis."""
    v = draw(subspaces(ambient))
    coeffs = draw(st.lists(st.lists(small_entries, min_size=v.dim, max_size=v.dim),
                           max_size=v.dim + 1))
    return v, Subspace.from_vectors(ambient, [v.basis.apply(c) for c in coeffs])


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
    vecs = [a.basis.apply(k[:a.dim]) for k in stacked.kernel_basis()]
    return Subspace.from_vectors(a.ambient_dim, vecs)


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
    inner = Subspace.from_vectors(
        n, [a.basis.apply([rng.randint(-2, 2) for _ in range(a.dim)])
            for _ in range(rng.randint(0, a.dim))])
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


# -- integer elimination against the rational reference ----------------------

def rational_rref(m):
    """Reference: Gauss-Jordan elimination over the rationals, dividing the
    pivot row by its pivot and clearing the pivot column in every other row."""
    rows = [list(row) for row in m.entries]
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
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), ZERO)
                       for j in range(b.cols)) for i in range(a.rows))


# zero half the time, otherwise a signed rational with a non-unit denominator
# in most draws
rationals = st.one_of(
    st.just(0),
    st.builds(lambda n, d: rat("%d/%d" % (n, d)),
              st.integers(-7, 7).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 9])))


@st.composite
def rational_matrices(draw, rows=None, max_dim=8):
    """Matrices of 0-8 rows and columns mixing drawn rows, zero rows and
    rational combinations of two earlier rows."""
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim))
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


def all_qnum(entries):
    return all(type(x) is QNUM for row in entries for x in row)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rref_matches_rational_reference(m):
    red, pivots = m.rref()
    assert (red.entries, pivots) == rational_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols) and all_qnum(red.entries)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_product_and_apply_match_dense_reference(a, data):
    b = data.draw(rational_matrices(rows=a.cols))
    p = a * b
    assert (p.rows, p.cols, p.entries) == (a.rows, b.cols, dense_product(a, b))
    vec = data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols))
    col = Matrix(a.cols, 1, [[x] for x in vec])
    assert a.apply(vec) == tuple(row[0] for row in dense_product(a, col))


@settings(max_examples=50, deadline=None)
@given(rational_matrices())
def test_kernel_entries_are_qnum(m):
    square = m * m.transpose() + Matrix.identity(m.rows)  # positive definite
    built = [m.rref()[0], m * m.transpose(), m.transpose(), m.hstack(m),
             m.scale(-1), m.scale(rat("2/3")), m + m, inverse(square)]
    assert all(all_qnum(x.entries) for x in built)
    assert all_qnum(m.kernel_basis())
    q = quotient(Subspace.full(m.cols), kernel(m))
    assert all_qnum(q.projection.entries) and all_qnum(q.lift.entries)
