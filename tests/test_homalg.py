import random

import pytest

from eqih import homalg
from eqih.errors import InternalInvariantViolation, NotAComplex, NotExact
from eqih.homalg import (
    ChainMap,
    Complex,
    Cohomology,
    LongExactSequence,
    SesData,
    chain_map,
    check_exact,
    check_short_exact,
    quotient_complex,
    subcomplex,
)
from eqih.ratla import Matrix, Subspace, image, kernel, quotient


def two_term(n, mat_rows):
    """0 -> Q^n -> Q^m -> 0 in degrees 0,1."""
    d0 = Matrix.from_rows(mat_rows)
    return Complex(0, 1, (n, d0.rows), (d0, Matrix.zero(0, d0.rows)))


class TestComplex:
    def test_zero_complex(self):
        c = Complex.zero(0, 3)
        assert Cohomology(c).dims() == (0, 0, 0, 0)

    def test_acyclic_two_term(self):
        c = two_term(1, [[1]])
        assert Cohomology(c).dims() == (0, 0)

    def test_dd_zero_enforced(self):
        d0 = Matrix.from_rows([[1]])
        d1 = Matrix.from_rows([[1]])
        c = Complex(0, 2, (1, 1, 1), (d0, d1, Matrix.zero(0, 1)))
        with pytest.raises(NotAComplex):
            c.check_square()

    def test_hopf_ambient(self):
        # dims (1, 0, 1), zero differential: cohomology equals the spaces
        c = Complex(0, 2, (1, 0, 1),
                    (Matrix.zero(0, 1), Matrix.zero(1, 0), Matrix.zero(0, 1)))
        assert Cohomology(c).dims() == (1, 0, 1)

    def test_classes_of_refuses_a_non_cocycle(self):
        # Q -> Q^2, 1 -> (1, 1): H^1 is spanned by the class of (1, 0)
        h = Cohomology(two_term(1, [[1], [1]]))
        classes = h.classes_of(1, Matrix.from_rows([[1, 0], [0, -1]]))
        (first, second), = classes.entries
        assert first == second != 0
        with pytest.raises(InternalInvariantViolation):
            h.classes_of(0, Matrix.from_rows([[1]]))

    def test_euler_characteristic_matches_cohomology(self):
        rng = random.Random(7)
        for _ in range(20):
            dims = [rng.randint(0, 3) for _ in range(4)]
            diffs = []
            prev_image_killer = None
            c = _random_complex(rng, dims)
            h = Cohomology(c)
            assert sum((-1) ** k * c.dim(k) for k in c.degrees()) == sum(
                (-1) ** k * h.dim(k) for k in c.degrees())

    def test_each_degree_is_built_on_first_read(self, monkeypatch):
        """Read in a shuffled order, by a random first reader, every degree
        has the dim, lifts and classes of quotient(kernel(d_k),
        image(d_{k-1})); each read degree builds one quotient, and a degree
        never read, or outside the complex, builds none."""
        built = []
        monkeypatch.setattr(homalg, "quotient", lambda v, w: built.append(w) or quotient(v, w))
        seen = set()
        for seed in range(12):
            rng = random.Random(seed)
            dims = [rng.randint(0, 3) for _ in range(5)]
            dims[rng.randrange(5)] = 0
            c = _random_complex(rng, dims)
            h = Cohomology(c)
            degrees = list(c.degrees())
            rng.shuffle(degrees)
            degrees.pop()  # never read
            built.clear()
            for n, k in enumerate(degrees):
                want = quotient(kernel(c.d(k)), image(c.d(k - 1)))
                basis = kernel(c.d(k)).basis
                cocycles = basis * Matrix(basis.cols, 2, [[rng.randint(-2, 2) for _ in range(2)]
                                                          for _ in range(basis.cols)])
                reads = [lambda: h.dim(k) == want.dim,
                         lambda: h.lifts(k) == want.lift,
                         lambda: h.classes_of(k, cocycles) == want.projection * cocycles]
                rng.shuffle(reads)
                assert all(read() for read in reads), (seed, k)
                assert len(built) == n + 1, (seed, k)
                seen.add((c.dim(k), want.dim))
            for k in (c.lo - 1, c.hi + 1):
                assert h.dim(k) == 0 and h.lifts(k) == Matrix.zero(0, 0)
            assert len(built) == len(degrees)
        # empty degrees, and non-empty degrees with and without cohomology
        assert (0, 0) in seen and any(a and not b for a, b in seen) and any(b for _, b in seen)


def _random_complex(rng, dims):
    """Random bounded complex with d.d = 0 by construction."""
    from eqih.ratla import image, quotient, Subspace

    diffs = []
    prev = Matrix.zero(dims[0], 0)
    for k in range(len(dims)):
        nrows = dims[k + 1] if k + 1 < len(dims) else 0
        im = image(prev)
        q = quotient(Subspace.full(dims[k]), im)
        rand = Matrix(nrows, q.dim, [[rng.randint(-2, 2) for _ in range(q.dim)]
                                     for _ in range(nrows)])
        d = rand * q.projection if q.dim else Matrix.zero(nrows, dims[k])
        diffs.append(d)
        prev = d
    return Complex(0, len(dims) - 1, dims, diffs)


class TestSubQuotient:
    def test_subcomplex_induced_differential(self):
        c = two_term(2, [[1, 0]])
        sub, incl = subcomplex(c, {0: Subspace.from_vectors(2, [(0, 1)]),
                                   1: Subspace.zero(1)})
        assert sub.dims == (1, 0)
        incl.check()

    def test_quotient_complex(self):
        c = two_term(2, [[1, 0]])
        quo, proj = quotient_complex(c, {0: Subspace.from_vectors(2, [(0, 1)])})
        assert quo.dims == (1, 1)
        assert Cohomology(quo).dims() == (0, 0)


def split_ses(a: Complex, c: Complex):
    """0 -> A -> A + C -> C -> 0."""
    dims = tuple(a.dim(k) + c.dim(k) for k in a.degrees())
    diffs = []
    for k in a.degrees():
        da, dc = a.d(k), c.d(k)
        rows = []
        for i in range(da.rows):
            rows.append(list(da.entries[i]) + [0] * dc.cols)
        for i in range(dc.rows):
            rows.append([0] * da.cols + list(dc.entries[i]))
        diffs.append(Matrix(da.rows + dc.rows, da.cols + dc.cols, rows))
    b = Complex(a.lo, a.hi, dims, diffs)
    inc = {}
    prj = {}
    for k in a.degrees():
        na, nc = a.dim(k), c.dim(k)
        inc[k] = Matrix(
            na + nc, na,
            [[1 if i == j else 0 for j in range(na)] for i in range(na)]
            + [[0] * na for _ in range(nc)])
        prj[k] = Matrix(
            nc, na + nc,
            [[0] * na + [1 if i == j else 0 for j in range(nc)] for i in range(nc)])
    return chain_map(a, b, inc), chain_map(b, c, prj)


def perturbed_connecting(ses, k):
    """The connecting map of ses with every chosen preimage moved by the
    sum of the kernel basis of s in degree k: a different lift of the same
    classes."""
    pre = ses.s.mat(k).solve(ses.hc.lifts(k))
    ker = kernel(ses.s.mat(k)).basis
    shift = ker * Matrix(ker.cols, pre.cols, [[1] * pre.cols] * ker.cols)
    back = ses.i.mat(k + 1).solve(ses.i.target.d(k) * (pre + shift))
    return ses.ha.classes_of(k + 1, back)


class TestLes:
    def test_split_ses_connecting_zero(self):
        a = two_term(1, [[0]])
        c = two_term(1, [[0]])
        i, s = split_ses(a, c)
        ses = SesData(i, s)
        for k in (0,):
            assert ses.connecting(k).is_zero()
        assert ses.les().exact

    def test_zero_ses(self):
        z = Complex.zero(0, 1)
        i = chain_map(z, z, {})
        s = chain_map(z, z, {})
        seq = SesData(i, s).les()
        assert all(d == 0 for d in seq.dims)
        assert seq.exact

    def test_nonexact_detection(self):
        # Q -> 0 -> Q with identity-ish ends is not exact at the middle
        seq = LongExactSequence(
            ["A", "B", "C"], [1, 0, 1],
            [Matrix.zero(0, 1), Matrix.zero(1, 0)])
        report = check_exact(seq)
        assert report[0]["exact"]  # im 0 == ker 0 at the zero middle node
        assert seq.exactness == report and seq.exact
        # Q -> Q -> Q with both maps zero fails at the middle
        seq2 = LongExactSequence(
            ["A", "B", "C"], [1, 1, 1],
            [Matrix.zero(1, 1), Matrix.zero(1, 1)])
        assert not check_exact(seq2)[0]["exact"]
        assert not seq2.exact

    def test_ses_hypothesis_checked(self):
        a = two_term(1, [[0]])
        c = two_term(1, [[0]])
        i, s = split_ses(a, c)
        check_short_exact(i, s)
        b = i.target
        # the maps of a sequence must share its middle complex
        bad_s = chain_map(c, c, {0: Matrix.zero(1, 1), 1: Matrix.zero(1, 1)})
        with pytest.raises(NotExact):
            SesData(i, bad_s)
        # i not injective, s not surjective, and s.i != 0 (every map of
        # these complexes, whose differentials are zero, is a chain map)
        zero_i = chain_map(a, b, {})
        zero_s = chain_map(b, c, {})
        head = chain_map(b, c, {k: Matrix.from_rows([[1, 0]]) for k in (0, 1)})
        for f, g in ((zero_i, s), (i, zero_s), (i, head)):
            with pytest.raises(NotExact):
                check_short_exact(f, g)

    def test_connecting_nontrivial_and_lift_independent(self):
        # 0 -> Q[1] -> (Q -> Q, d=1) -> Q[0] -> 0 : connecting is an iso
        a = Complex(0, 1, (0, 1), (Matrix.zero(1, 0), Matrix.zero(0, 1)))
        b = two_term(1, [[1]])
        c = Complex(0, 1, (1, 0), (Matrix.zero(0, 1), Matrix.zero(0, 0)))
        i = chain_map(a, b, {1: Matrix.identity(1)})
        s = chain_map(b, c, {0: Matrix.identity(1)})
        ses = SesData(i, s)
        conn = ses.connecting(0)
        assert conn == Matrix.identity(1)
        assert ses.les().exact
        # perturbing the chosen preimage by a kernel element changes nothing
        assert perturbed_connecting(ses, 0) == conn

    def test_connecting_is_lift_independent_random(self):
        rng = random.Random(13)
        for _ in range(10):
            a = _random_complex(rng, [rng.randint(0, 2) for _ in range(4)])
            c = _random_complex(rng, [rng.randint(0, 2) for _ in range(4)])
            i, s = split_ses(a, c)
            ses = SesData(i, s)
            for k in range(3):
                assert perturbed_connecting(ses, k) == ses.connecting(k)

    def test_random_ses_les_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            dims = [rng.randint(0, 2) for _ in range(4)]
            a = _random_complex(rng, dims)
            c = _random_complex(rng, [rng.randint(0, 2) for _ in range(4)])
            i, s = split_ses(a, c)
            assert SesData(i, s).les().exact
