import pytest

from eqih import classify
from eqih.classify import (
    ModelIso,
    consequence_check,
    f_related,
    identity_iso,
    is_optimal,
    validate_iso,
)
from eqih.errors import InvalidIso, TheoremViolation
from eqih.fixtures import cone2, hopf, noperv, rot
from eqih.localize import LocalizedModule, lambda_u_module
from eqih.model import model_from_dict, model_to_dict
from eqih.ratla import Matrix, rat


def hopf_doubled_euler():
    data = model_to_dict(hopf())
    data["name"] = "hopf-2e"
    data["euler_cocycle"] = ["2"]
    data["euler_op"] = [[["2"]], [], []]
    del data["product"]
    return model_from_dict(data)


def noperv_shifted_euler():
    # Euler cocycle moved by the exact admissible form d(b) = w
    data = model_to_dict(noperv())
    data["name"] = "noperv-2e"
    data["euler_cocycle"] = ["2"]
    data["euler_op"] = [[["2"]], [], []]
    del data["product"]
    return model_from_dict(data)


def noperv_plain():
    data = model_to_dict(noperv())
    del data["product"]
    return model_from_dict(data)


def cone2_rescaled():
    # basis change v -> 2v in degree 2, Euler data transported along it
    data = model_to_dict(cone2())
    data["name"] = "cone2-rescaled"
    data["euler_cocycle"] = ["1/2"]
    data["euler_op"] = [[["1/2"]], [], []]
    del data["product"]
    return model_from_dict(data)


def cone2_plain():
    data = model_to_dict(cone2())
    del data["product"]
    return model_from_dict(data)


def twoline(level0):
    """One degree of dimension 2, with level 0 spanned by level0."""
    return model_from_dict({
        "name": "twoline",
        "top_degree": 0,
        "dims": [2],
        "d": [[]],
        "strata": [{"name": "s", "kind": "fixed_nonperverse"}],
        "filtrations": {"s": {"0": [level0]}},
        "euler_cocycle": [],
        "euler_op": [[]],
        "perversities": [{"s": 0}, {"s": 1}],
    })


FILTRATION_BREAK = "^filtration level 0 of stratum 's' not preserved in degree 0$"


class TestValidation:
    def test_identity_is_valid(self):
        for m in (hopf(), rot(), cone2(), noperv()):
            validate_iso(identity_iso(m), m, m)

    def test_non_invertible_rejected(self):
        m = hopf()
        iso = identity_iso(m)
        bad = ModelIso({**iso.mats, 2: Matrix.zero(1, 1)}, dict(iso.strata))
        with pytest.raises(InvalidIso, match="^degree-2 matrix is not invertible$"):
            validate_iso(bad, m, m)

    def test_non_chain_map_rejected(self):
        m = noperv_plain()
        iso = identity_iso(m)
        bad = ModelIso({**iso.mats, 2: Matrix.from_rows([[2]])},
                       dict(iso.strata))
        with pytest.raises(InvalidIso, match="^not a chain map in degree 1$"):
            validate_iso(bad, m, m)

    def test_filtration_break_rejected(self):
        m = twoline([["1", "0"]])
        swap = ModelIso({0: Matrix.from_rows([[0, 1], [1, 0]])}, {"s": "s"})
        with pytest.raises(InvalidIso, match=FILTRATION_BREAK):
            validate_iso(swap, m, m)
        keep = ModelIso({0: Matrix.from_rows([[1, 1], [0, 1]])}, {"s": "s"})
        validate_iso(keep, m, m)

    def test_missing_stratum_correspondence(self):
        m = cone2_plain()
        iso = ModelIso(identity_iso(m).mats, {})
        with pytest.raises(InvalidIso,
                           match="^correspondence domain does not cover the strata of 'cone2'$"):
            validate_iso(iso, m, m)

    def test_level_of_another_dimension_rejected(self):
        """An invertible map carries a level onto one of its own dimension,
        so a level of the target with more or fewer vectors is not
        preserved, even where the image lies in it."""
        line, plane = twoline([["1", "0"]]), twoline([["1", "0"], ["0", "1"]])
        iso = ModelIso({0: Matrix.identity(2)}, {"s": "s"})
        for m1, m2 in ((line, plane), (plane, line)):
            with pytest.raises(InvalidIso, match=FILTRATION_BREAK):
                validate_iso(iso, m1, m2)


class TestOptimality:
    def test_identity_optimal(self):
        m = hopf()
        assert is_optimal(identity_iso(m), m, m)

    def test_kind_mismatch_not_optimal(self):
        data = model_to_dict(noperv())
        data["name"] = "noperv-mobile"
        data["strata"] = [{"name": "apex", "kind": "mobile"}]
        del data["product"]
        m2 = model_from_dict(data)
        m1 = noperv_plain()
        iso = identity_iso(m1)
        assert not is_optimal(iso, m1, m2)
        with pytest.raises(InvalidIso, match="^relatedness needs an optimal isomorphism$"):
            f_related(iso, m1, m2)
        with pytest.raises(InvalidIso, match="^relatedness needs an optimal isomorphism$"):
            consequence_check(iso, m1, m2)


class TestRelatedness:
    def test_identity_related_with_zero_witness(self):
        m = noperv_plain()
        ok, gamma = f_related(identity_iso(m), m, m)
        assert ok and all(x == 0 for x in gamma)

    def test_doubled_euler_not_related(self):
        m1, m2 = hopf(), hopf_doubled_euler()
        ok, gamma = f_related(identity_iso(m1), m1, m2)
        assert not ok and gamma is None

    def test_exact_shift_related(self):
        # the cocycles differ by d(b), an admissible exact form
        m1, m2 = noperv_plain(), noperv_shifted_euler()
        ok, gamma = f_related(identity_iso(m1), m1, m2)
        assert ok
        d1 = m1.diff(1)
        gamma = Matrix(len(gamma), 1, [[x] for x in gamma])
        assert d1 * gamma == Matrix.from_rows([[rat(2) - rat(1)]])

    def test_rescaled_cone_related(self):
        m1, m2 = cone2_plain(), cone2_rescaled()
        iso = ModelIso({**identity_iso(m1).mats, 2: Matrix.from_rows([[2]])},
                       {"apex": "apex"})
        ok, gamma = f_related(iso, m1, m2)
        assert ok and all(x == 0 for x in gamma)

    def test_symmetric(self):
        m1, m2 = noperv_plain(), noperv_shifted_euler()
        iso = identity_iso(m1)
        ok_fwd, _ = f_related(iso, m1, m2)
        ok_bwd, _ = f_related(iso, m2, m1)
        assert ok_fwd and ok_bwd


class TestConsequences:
    def test_identity_trivially_equal(self):
        for m in (hopf(), cone2(), noperv()):
            rep = consequence_check(identity_iso(m), m, m)
            assert rep["all_equal"]
            assert len(rep["perversities"]) == len(m.perversity_set)

    def test_rescaled_cone_equal(self):
        m1, m2 = cone2_plain(), cone2_rescaled()
        iso = ModelIso({**identity_iso(m1).mats, 2: Matrix.from_rows([[2]])},
                       {"apex": "apex"})
        rep = consequence_check(iso, m1, m2)
        assert rep["all_equal"]

    def test_shifted_euler_equal(self):
        m1, m2 = noperv_plain(), noperv_shifted_euler()
        rep = consequence_check(identity_iso(m1), m1, m2)
        assert rep["all_equal"]

    def test_a_disagreement_names_its_perversity_and_invariant(self, monkeypatch):
        """The first perversity on which the models differ is named with the
        invariant that differs."""
        m1, m2 = cone2(), cone2()
        real = classify.lambda_u_module

        def localized(m, p):
            return LocalizedModule(9, 9) if m is m2 and p.label() == "apex=1" else real(m, p)

        monkeypatch.setattr(classify, "lambda_u_module", localized)
        with pytest.raises(TheoremViolation, match=(
                r"^related models disagree at perversity apex=1: "
                r"localization_equal is false$")):
            consequence_check(identity_iso(m1), m1, m2)

    def test_unrelated_pair_refused(self):
        # equal vanishing localizations, yet the Euler classes differ:
        # relatedness fails, so the check refuses to run
        m1, m2 = hopf(), rot()
        iso = identity_iso(m1)
        ok, _ = f_related(iso, m1, m2)
        assert not ok
        with pytest.raises(InvalidIso, match="^consequence check needs related models$"):
            consequence_check(iso, m1, m2)
        p1 = list(m1.perversity_set)[0]
        p2 = list(m2.perversity_set)[0]
        assert lambda_u_module(m1, p1).ranks() == lambda_u_module(m2, p2).ranks() == (0, 0)
