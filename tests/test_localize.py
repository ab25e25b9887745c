import pytest

from eqih.equivariant import build_equivariant
from eqih.errors import NotAConeModel
from eqih.fixtures import cone2, hopf, noperv, random_model, rot
from eqih.localize import (
    PolyMatrix,
    cone_formula_check,
    localize,
    localized_connecting,
    localized_gysin,
)
from eqih.model import Perversity, model_from_dict, model_to_dict
from eqih.perverse import cogysin_cohomology


def P(**kw):
    return Perversity(kw)


def poly_mat(entries):
    return PolyMatrix(len(entries), len(entries[0]) if entries else 0, entries)


U = (0, 1)
ONE = (1,)


class TestPolyMatrix:
    def test_rank_full(self):
        assert poly_mat([[U, ()], [ONE, U]]).rank() == 2

    def test_rank_drop(self):
        # second column is u times the first
        assert poly_mat([[ONE, U], [U, (0, 0, 1)]]).rank() == 1

    def test_rank_zero(self):
        assert PolyMatrix.zero(3, 2).rank() == 0

    def test_rank_needs_generic_point(self):
        # vanishes at u = 0 but not generically
        assert poly_mat([[U]]).rank() == 1
        assert poly_mat([[U]]).rank_at(0) == 0

    def test_blocks(self):
        mat = PolyMatrix.from_blocks(
            [1, 1], [1], {(0, 0): poly_mat([[U]]), (1, 0): poly_mat([[ONE]])})
        assert mat.rows == 2 and mat.cols == 1
        assert mat.rank() == 1


class TestLocalize:
    def test_free_action_vanishes(self):
        assert localize(hopf(), Perversity({})).ranks() == (0, 0)

    def test_mobile_fixed_free_euler_vanishes(self):
        assert localize(rot(), Perversity({})).ranks() == (0, 0)

    def test_cone_ranks(self):
        m = cone2()
        expect = {-1: (0, 0), 0: (1, 0), 1: (1, 0), 2: (1, 0)}
        for p in m.perversity_set:
            assert localize(m, p).ranks() == expect[p.values["apex"]]

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
            assert localize(m, p).ranks() == expect

    def test_zero_model(self):
        m = model_from_dict({
            "name": "empty", "top_degree": 0, "dims": [0], "d": [[]],
            "strata": [], "filtrations": {}, "euler_cocycle": [],
            "euler_op": [[]], "perversities": [{}],
        })
        assert localize(m, Perversity({})).ranks() == (0, 0)

    def test_ranks_match_top_window_dims(self):
        # the periodic complex and the truncated module are separate paths:
        # above the top degree u is an isomorphism, so the two highest
        # trusted window dims are the localized ranks of their parities
        models = [hopf(), rot(), cone2(), noperv()]
        models += [random_model(seed) for seed in range(30)]
        for m in models:
            for p in m.perversity_set:
                eq = build_equivariant(m, p)
                ranks = localize(m, p).ranks()
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
                assert localize(m, p).ranks() == tuple(
                    entry["localization"][label]), (name, label)


class TestLocalizedGysin:
    def test_hopf_connecting_matrix(self):
        d = localized_connecting(hopf(), Perversity({}), 0)
        assert d.rows == d.cols == 2
        assert d.entries == [[U, ()], [ONE, U]]
        assert d.rank() == 2
        assert localized_connecting(hopf(), Perversity({}), 1).rows == 0

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
