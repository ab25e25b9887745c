import random

import pytest

from eqih.equivariant import build_equivariant
from eqih.errors import NotAConeModel
from eqih.fixtures import cone2, hopf, noperv, random_model, rot
from eqih.localize import (
    PolyMatrix,
    cone_formula_check,
    lambda_u_module,
    localized_connecting,
    localized_gysin,
)
from eqih.model import Perversity, model_from_dict, model_to_dict
from eqih.perverse import cogysin_cohomology
from eqih.ratla import QNUM, Matrix, block_matrix


def P(**kw):
    return Perversity(kw)


def pencil(a, b):
    """The pencil a + u*b of two lists of rows."""
    return PolyMatrix(Matrix.from_rows(a), Matrix.from_rows(b))


# Reference: rank over the fraction field by fraction-free (Bareiss)
# elimination on polynomial entries, the tuples of their coefficients in u.
def _poly(coeffs):
    coeffs = [QNUM(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [QNUM(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly(out)


def _psub(a, b):
    n = max(len(a), len(b))
    return _poly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pdivexact(a, b):
    if not a:
        return ()
    rem = list(a)
    out = [QNUM(0)] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        out[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    assert not any(rem), "inexact polynomial division"
    return _poly(out)


def bareiss_rank(rows, cols, entries):
    work = [list(row) for row in entries]
    rank, prev = 0, _poly([1])
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, rows):
            for c in range(col + 1, cols):
                num = _psub(_pmul(work[rank][col], work[i][c]),
                            _pmul(work[i][col], work[rank][c]))
                work[i][c] = _pdivexact(num, prev)
            work[i][col] = ()
        prev = work[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def random_rows(rng, rows, cols):
    return [[QNUM(rng.choice([0, 0, 0, 1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


class TestPolyMatrix:
    def test_rank_full(self):
        assert pencil([[0, 0], [1, 0]], [[1, 0], [0, 1]]).rank() == 2

    def test_rank_drop(self):
        # [[1, u], [2, 2u]]: the second row is twice the first
        assert pencil([[1, 0], [2, 0]], [[0, 1], [0, 2]]).rank() == 1

    def test_rank_zero(self):
        assert PolyMatrix(Matrix.zero(3, 2), Matrix.zero(3, 2)).rank() == 0
        assert PolyMatrix(Matrix.zero(0, 4), Matrix.zero(0, 4)).rank() == 0

    def test_rank_needs_generic_point(self):
        # [[u]] vanishes at u = 0 but not generically
        assert pencil([[0]], [[1]]).rank() == 1
        assert pencil([[0]], [[1]]).rank_at(0) == 0
        # [[1, u], [u, 1]] is singular at u = 1 but not generically
        assert pencil([[1, 0], [0, 1]], [[0, 1], [1, 0]]).rank() == 2
        assert pencil([[1, 0], [0, 1]], [[0, 1], [1, 0]]).rank_at(1) == 1

    def test_blocks(self):
        # the column (u, 1) from two blocks
        a = block_matrix(2, 1, [(1, 0, Matrix.from_rows([[1]]))])
        b = block_matrix(2, 1, [(0, 0, Matrix.from_rows([[1]]))])
        mat = PolyMatrix(a, b)
        assert (mat.a.rows, mat.a.cols) == (2, 1)
        assert mat.rank() == 1

    def test_diagonal_loses_rank_at_each_first_point(self):
        for n in range(1, 6):
            # diag(u - 1, ..., u - n)
            mat = PolyMatrix(
                Matrix.from_rows([[-(i + 1) if i == j else 0 for j in range(n)]
                                  for i in range(n)]),
                Matrix.identity(n))
            assert [mat.rank_at(t) for t in range(1, n + 1)] == [n - 1] * n
            assert mat.rank() == n

    def test_rank_matches_bareiss_reference(self):
        rng = random.Random(20111)
        for rows in range(8):
            for cols in range(8):
                for trial in range(4):
                    if trial < 2:
                        a = random_rows(rng, rows, cols)
                        b = random_rows(rng, rows, cols)
                    else:
                        # a = X*Y, b = X*Z has rank at most k
                        k = rng.randrange(min(rows, cols) + 1)
                        x = Matrix(rows, k, random_rows(rng, rows, k))
                        a = (x * Matrix(k, cols, random_rows(rng, k, cols))).entries
                        b = (x * Matrix(k, cols, random_rows(rng, k, cols))).entries
                    entries = [[_poly([x, y]) for x, y in zip(ra, rb)]
                               for ra, rb in zip(a, b)]
                    mat = PolyMatrix(Matrix(rows, cols, a), Matrix(rows, cols, b))
                    assert mat.rank() == bareiss_rank(rows, cols, entries), (a, b)


class TestLocalize:
    def test_free_action_vanishes(self):
        assert lambda_u_module(hopf(), Perversity({})).ranks() == (0, 0)

    def test_mobile_fixed_free_euler_vanishes(self):
        assert lambda_u_module(rot(), Perversity({})).ranks() == (0, 0)

    def test_cone_ranks(self):
        m = cone2()
        expect = {-1: (0, 0), 0: (1, 0), 1: (1, 0), 2: (1, 0)}
        for p in m.perversity_set:
            assert lambda_u_module(m, p).ranks() == expect[p.values["apex"]]

    def test_zero_euler_keeps_cogysin_parities(self):
        data = model_to_dict(noperv())
        data["euler_op"] = [[["0"]], [], []]
        data["euler_cocycle"] = ["0"]
        del data["product"]
        m = model_from_dict(data)
        for p in m.perversity_set:
            hk = cogysin_cohomology(m, p)
            expect = tuple(
                sum(hk.dim(k) for k in range(0, 3) if k % 2 == r)
                for r in (0, 1))
            assert lambda_u_module(m, p).ranks() == expect

    def test_zero_model(self):
        m = model_from_dict({
            "name": "empty", "top_degree": 0, "dims": [0], "d": [[]],
            "strata": [], "filtrations": {}, "euler_cocycle": [],
            "euler_op": [[]], "perversities": [{}],
        })
        assert lambda_u_module(m, Perversity({})).ranks() == (0, 0)

    def test_ranks_match_top_window_dims(self):
        # the periodic complex and the folded module are separate paths:
        # above the top degree u is an isomorphism, so the two highest
        # listed dims are the localized ranks of their parities
        models = [hopf(), rot(), cone2(), noperv()]
        models += [random_model(seed) for seed in range(30)]
        for m in models:
            for p in m.perversity_set:
                eq = build_equivariant(m, p)
                ranks = lambda_u_module(m, p).ranks()
                for n in (eq.n_u - 1, eq.n_u):
                    assert eq.dims()[n] == ranks[n % 2], (m.name, p.label(), n)


class TestStoredExpectations:
    def test_fixture_localizations(self):
        import json
        import pathlib

        from eqih.fixtures import make

        expect = json.loads((pathlib.Path(__file__).parent /
                             "expectations.json").read_text())["fixtures"]
        for name, entry in expect.items():
            m = make(name)
            for p in m.perversity_set:
                label = p.label() or "()"
                assert lambda_u_module(m, p).ranks() == tuple(
                    entry["localization"][label]), (name, label)


class TestLocalizedGysin:
    def test_hopf_connecting_matrix(self):
        d = localized_connecting(hopf(), Perversity({}), 0)
        assert d.a == Matrix.from_rows([[0, 0], [1, 0]])
        assert d.b == Matrix.identity(2)
        assert d.rank() == 2
        assert localized_connecting(hopf(), Perversity({}), 1).a.rows == 0

    def test_fixtures_exact(self):
        for m in (hopf(), rot(), cone2(), noperv()):
            for p in m.perversity_set:
                rep = localized_gysin(m, p)
                assert rep["exact"], (m.name, p.label())

    def test_random_models_exact(self):
        for seed in range(12):
            m = random_model(seed)
            for p in m.perversity_set:
                assert localized_gysin(m, p)["exact"], (seed, p.label())

    def test_report_shape(self):
        rep = localized_gysin(cone2(), P(apex=2))
        assert {e["parity"] for e in rep["parities"]} == {0, 1}
        for e in rep["parities"]:
            assert e["predicted_rank"] == e["localized_rank"]


class TestConeFormula:
    def test_cone_all_perversities(self):
        m = cone2()
        expect = {-1: (0, 0), 0: (1, 0), 1: (1, 0), 2: (1, 0)}
        for p in m.perversity_set:
            rep = cone_formula_check(m, p)
            assert rep["match"], p.label()
            assert rep["predicted"] == expect[p.values["apex"]]

    def test_non_cone_rejected(self):
        with pytest.raises(NotAConeModel):
            cone_formula_check(hopf(), Perversity({}))
        with pytest.raises(NotAConeModel):
            cone_formula_check(noperv(), P(apex=0))
