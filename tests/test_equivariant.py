import json
import pathlib

import pytest

from eqih.equivariant import (
    EquivariantGysin,
    LambdaExtension,
    build_eq1,
    build_equivariant,
    default_window,
    eq1_cohomology,
    equivariant_gysin_les,
    truncation_stable,
)
from eqih.fixtures import cone2, hopf, noperv, oracle_cohomology, random_model, rot
from eqih.model import Perversity, model_from_dict, model_to_dict
from eqih.perverse import cogysin_cohomology, omega_cohomology
from eqih.ratla import Matrix, block_matrix

EXPECT = json.loads(
    (pathlib.Path(__file__).parent / "expectations.json").read_text())["fixtures"]


def P(**kw):
    return Perversity(kw)


@pytest.fixture
def deep(monkeypatch):
    """Build equivariant complexes to total degree top + 8 instead of top + 4,
    so that chain-level maps can be read raw in every degree a report lists."""
    build = LambdaExtension.__init__

    def deeper(self, base, hi=None, shift=None):
        build(self, base, base.hi + 7 if hi is None else hi, shift)

    monkeypatch.setattr(LambdaExtension, "__init__", deeper)


class TestEq1:
    def test_hopf(self):
        m = hopf()
        eq1 = build_eq1(m, Perversity({}))
        assert eq1.complex.dims == (1, 1, 1, 1)
        assert eq1_cohomology(m, Perversity({})).dims() == (1, 0, 0, 1)

    def test_rot(self):
        assert eq1_cohomology(rot(), Perversity({})).dims() == (1, 1, 1, 1)

    def test_cone_top_perversity(self):
        assert eq1_cohomology(cone2(), P(apex=2)).dims() == (1, 0, 0, 0)

    def test_contains_omega(self):
        from eqih.perverse import perverse_complex
        for m in (cone2(), noperv(), random_model(4)):
            for p in m.perversity_set:
                eq1 = build_eq1(m, p)
                pc = perverse_complex(m, p)
                for k in range(m.top_degree + 1):
                    omega = pc.omega_spaces[k].basis
                    pairs = block_matrix(omega.rows + m.dim(k - 1), omega.cols,
                                         [(0, 0, omega)])
                    assert eq1.space(k).coords_of(pairs) is not None

    def test_differential_squares_to_zero(self):
        for seed in range(10):
            m = random_model(seed)
            for p in m.perversity_set:
                build_eq1(m, p).complex.check_square()


class TestEquivariantComplex:
    def test_matches_expectations_file(self):
        from eqih.fixtures import make
        for name, entry in EXPECT.items():
            m = make(name)
            for label, vals in entry["equivariant"].items():
                p = (Perversity({}) if label == "()" else Perversity(
                    {kv.split("=")[0]: int(kv.split("=")[1])
                     for kv in label.split(",")}))
                eq = build_equivariant(m, p)
                assert list(eq.dims()) == vals["dims"], (name, label)
                assert list(eq.u_ranks()) == vals["u_ranks"], (name, label)

    def test_nabla_squares_to_zero_and_u_commutes(self):
        for m in (hopf(), cone2(), random_model(7), random_model(21)):
            for p in m.perversity_set:
                eq = build_equivariant(m, p)  # build asserts the square
                u, d = eq.ext.u_matrix, eq.complex.d
                for n in range(0, eq.hi - 2):
                    assert u(n + 1) * d(n) == d(n + 2) * u(n), (p, n)

    def test_truncation_independent(self):
        for m in (hopf(), rot(), cone2(), noperv(), random_model(3)):
            for p in m.perversity_set:
                assert truncation_stable(m, p)

    def test_oracle_agreement(self):
        for seed in range(15):
            m = random_model(seed)
            for p in m.perversity_set:
                eq = build_equivariant(m, p)
                o = oracle_cohomology(m, p, default_window(m))
                assert eq.dims() == o["dims"]
                assert eq.u_ranks() == o["u_ranks"]

    def test_free_action_collapse(self):
        # no singular strata: equivariant dims equal the orbit-space dims
        m = hopf()
        p = Perversity({})
        eq = build_equivariant(m, p)
        ih_b = omega_cohomology(m, p).dims()
        for n in range(eq.n_u + 1):
            expect = ih_b[n] if n < len(ih_b) else 0
            assert eq.dims()[n] == expect
        # u acts as Euler-class multiplication: rank 1 exactly in degree 0
        assert eq.u_ranks() == (1,) + (0,) * eq.n_u

    def test_zero_euler_collapse(self):
        # E = 0: dims are IH_p(B) plus the co-Gysin cohomology at every
        # positive u-power
        data = model_to_dict(noperv())
        data["euler_op"] = [[["0"]], [], []]
        data["euler_cocycle"] = ["0"]
        del data["product"]
        m = model_from_dict(data)
        for p in m.perversity_set:
            eq = build_equivariant(m, p)
            ih = omega_cohomology(m, p)
            hk = cogysin_cohomology(m, p)
            for n in range(eq.n_u + 1):
                expect = ih.dim(n) + sum(hk.dim(n - 2 * j)
                                         for j in range(1, n // 2 + 1))
                assert eq.dims()[n] == expect, (p.label(), n)

    def test_u_module_structure(self, deep):
        # u-squared on cohomology equals composing the two single steps
        m = cone2()
        eq = build_equivariant(m, P(apex=2))
        for n in range(eq.n_u - 3):
            one = eq.u_cohomology_matrix(n)
            two = eq.u_cohomology_matrix(n + 2)
            direct_rank = (eq.ext.u_matrix(n + 2) * eq.ext.u_matrix(n)).rank()
            assert (two * one).rank() <= min(two.rank(), one.rank())
            assert (two * one).rank() <= direct_rank


class TestEquivariantGysin:
    def test_hopf_connecting_in_low_degree(self):
        m = hopf()
        gy = EquivariantGysin(m, Perversity({}))
        # H^1 of the tail is spanned by the unit of the Gysin term; its image
        # hits both the Euler class and the unit one u-power up
        conn = gy.ses.connecting(1)
        assert conn == Matrix.from_rows([[1], [1]])

    def test_rot_connecting_is_pure_shift(self):
        m = rot()
        gy = EquivariantGysin(m, Perversity({}))
        conn = gy.ses.connecting(1)
        # only the u-shift part survives (the Euler map vanishes)
        assert conn == Matrix.from_rows([[0], [1]])

    @pytest.mark.parametrize("name", ["hopf", "rot", "cone2", "noperv"])
    def test_exact_and_decomposed(self, name):
        from eqih.fixtures import make
        m = make(name)
        for p in m.perversity_set:
            seq, report = equivariant_gysin_les(m, p)
            assert seq.exact, (name, p.label())
            assert report["decomposition_verified"]

    def test_random_models(self):
        for seed in range(10):
            m = random_model(seed)
            for p in m.perversity_set:
                seq, report = equivariant_gysin_les(m, p)
                assert seq.exact, (seed, p.label())
                assert report["decomposition_verified"]

    def test_maps_commute_with_u(self):
        for m in (cone2(), random_model(2)):
            for p in m.perversity_set:
                gy = EquivariantGysin(m, p)
                for n in range(0, gy.eq.hi - 1):
                    uh = gy.head.u_matrix(n)
                    ue = gy.eq.ext.u_matrix(n)
                    ut = gy.tail.u_matrix(n)
                    assert gy.i.mat(n + 2) * uh == ue * gy.i.mat(n)
                    assert gy.s.mat(n + 2) * ue == ut * gy.s.mat(n)

    def test_connecting_is_u_linear(self, deep):
        for m in (hopf(), cone2(), random_model(6)):
            for p in m.perversity_set:
                gy = EquivariantGysin(m, p)
                hi = gy.eq.hi
                assert hi == m.top_degree + 8
                hc, ha = gy.ses.hc, gy.ses.ha
                # H^{n+3} of the head is the highest degree read, and the
                # complexes are exact below their top degree hi
                for n in range(0, hi - 3):
                    u_on_hc = hc.classes_of(n + 2, gy.tail.u_matrix(n) * hc.lifts(n))
                    u_on_ha = ha.classes_of(n + 3, gy.head.u_matrix(n + 1) * ha.lifts(n + 1))
                    assert gy.ses.connecting(n + 2) * u_on_hc == u_on_ha * gy.ses.connecting(n)

    def test_zero_model(self):
        m = model_from_dict({
            "name": "empty", "top_degree": 0, "dims": [0], "d": [[]],
            "strata": [], "filtrations": {}, "euler_cocycle": [],
            "euler_op": [[]], "perversities": [{}],
        })
        seq, _ = equivariant_gysin_les(m, Perversity({}))
        assert seq.exact
        assert all(d == 0 for d in seq.dims)
