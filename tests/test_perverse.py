import random

import pytest

from eqih.equivariant import gysin_les
from eqih.errors import InputError
from eqih.fixtures import cone2, hopf, noperv, random_model, rot
from eqih.homalg import Cohomology, chain_map
from eqih.model import Perversity, model_from_dict, model_to_dict
from eqih.perverse import (
    cogysin_cohomology,
    cogysin_les,
    euler_map,
    gysin_cohomology,
    inclusion_map,
    omega_cohomology,
    perverse_complex,
)
from eqih.ratla import Matrix, Subspace, kron, quotient


def P(**kw):
    return Perversity(kw)


def comparable_pairs(m):
    ps = list(m.perversity_set)
    return [(p, q) for p in ps for q in ps if p <= q]


def gysin_is_shifted_omega(m, p):
    """Whether G_p equals Omega_{p - xbar} on the nose."""
    pc = perverse_complex(m, p)
    lower = perverse_complex(m, p.minus(m.characteristic_perversity()))
    return all(pc.gysin_spaces[k] == lower.omega_spaces[k]
               for k in pc.ambient.degrees())


def gysin_inclusion(m, p, q):
    """The inclusion G_p -> G_q for p <= q, as a checked chain map."""
    cp = perverse_complex(m, p)
    cq = perverse_complex(m, q)
    maps = {}
    for k in cp.ambient.degrees():
        maps[k] = cq.gysin_ambient_mat(k).solve(cp.gysin_ambient_mat(k))
        assert maps[k] is not None
    return chain_map(cp.gysin, cq.gysin, maps)


class TestOmega:
    def test_no_strata_gives_full_ambient(self):
        m = hopf()
        omega = perverse_complex(m, Perversity({})).omega
        assert omega.dims == m.dims

    def test_cone_low_perversity(self):
        omega = perverse_complex(cone2(), P(apex=0)).omega
        assert omega.dims == (1, 0, 0)

    def test_cone_top_perversity(self):
        omega = perverse_complex(cone2(), P(apex=2)).omega
        assert omega.dims == (1, 0, 1)

    def test_floor_perversity_is_zero_complex(self):
        omega = perverse_complex(cone2(), P(apex=-1)).omega
        assert sum(omega.dims) == 0

    def test_d_condition_enforced(self):
        # noperv at level 0: w has dw = v outside level 0, so degree-1 level
        # forms with unstable differential are excluded
        m = noperv()
        omega = perverse_complex(m, P(apex=0)).omega
        assert omega.dims == (1, 0, 0)

    def test_monotone(self):
        m = cone2()
        for p, q in comparable_pairs(m):
            cp = perverse_complex(m, p)
            cq = perverse_complex(m, q)
            for k in range(3):
                assert cq.omega_spaces[k].contains_subspace(cp.omega_spaces[k])

    def test_inclusions_compose(self):
        m = cone2()
        i01 = inclusion_map(m, P(apex=0), P(apex=1))
        i12 = inclusion_map(m, P(apex=1), P(apex=2))
        i02 = inclusion_map(m, P(apex=0), P(apex=2))
        for k in range(3):
            assert i12.mat(k) * i01.mat(k) == i02.mat(k)

    def test_incomparable_inclusion_rejected(self):
        m = cone2()
        with pytest.raises(InputError):
            inclusion_map(m, P(apex=2), P(apex=0))


class TestGysin:
    def test_free_action_full(self):
        m = hopf()
        assert perverse_complex(m, Perversity({})).gysin.dims == m.dims

    def test_zero_euler_gives_lower_omega(self):
        m = rot()
        assert gysin_is_shifted_omega(m, Perversity({}))

    def test_no_perverse_strata_property(self):
        # e-bar equals x-bar on every stratum, so G_p = Omega_{p - xbar} exactly
        m = noperv()
        for p in m.perversity_set:
            assert gysin_is_shifted_omega(m, p)

    def test_perverse_stratum_breaks_the_identity(self):
        # at p=1 the Euler image of the unit leaves the allowed level, so the
        # Gysin term is strictly smaller than the lower perverse complex
        m = cone2()
        assert not gysin_is_shifted_omega(m, P(apex=1))
        assert sum(perverse_complex(m, P(apex=1)).gysin.dims) == 0
        assert sum(perverse_complex(m, P(apex=0)).omega.dims) == 1

    def test_cone_top_perversity(self):
        g = perverse_complex(cone2(), P(apex=2)).gysin
        assert g.dims == (1, 0, 0)

    def test_gysin_inside_omega_and_d_stable(self):
        for seed in range(10):
            m = random_model(seed)
            for p in m.perversity_set:
                pc = perverse_complex(m, p)  # builders assert both properties
                for k in range(m.top_degree + 1):
                    assert pc.omega_spaces[k].contains_subspace(pc.gysin_spaces[k])

    def test_gysin_monotone(self):
        m = cone2()
        for p, q in comparable_pairs(m):
            cp = perverse_complex(m, p)
            cq = perverse_complex(m, q)
            for k in range(3):
                assert cq.gysin_spaces[k].contains_subspace(cp.gysin_spaces[k])
            gysin_inclusion(m, p, q)


class TestCogysin:
    def test_free_action_quotient_vanishes(self):
        m = hopf()
        k = perverse_complex(m, Perversity({})).cogysin
        assert sum(k.dims) == 0
        seq = cogysin_les(m, Perversity({}))
        assert seq.exact

    def test_cone_concentrated_in_degree_two(self):
        k = perverse_complex(cone2(), P(apex=2)).cogysin
        assert k.dims == (0, 0, 1)

    def test_zero_euler_quotient(self):
        # with E = 0 the quotient is Omega_p / Omega_{p-xbar}
        m = noperv()
        data = model_to_dict(m)
        data["euler_op"] = [[["0"]], [], []]
        data["euler_cocycle"] = ["0"]
        del data["product"]
        m0 = model_from_dict(data)
        p = P(apex=1)
        q = p.minus(m0.characteristic_perversity())
        hk = cogysin_cohomology(m0, p)
        quot_dims = tuple(
            perverse_complex(m0, p).omega.dim(k) - perverse_complex(m0, q).omega.dim(k)
            for k in range(3))
        assert tuple(perverse_complex(m0, p).cogysin.dims) == quot_dims
        assert hk.dims() == Cohomology(perverse_complex(m0, p).cogysin).dims()

    def test_les_exact_random(self):
        for seed in range(10):
            m = random_model(seed)
            for p in m.perversity_set:
                assert cogysin_les(m, p).exact


class TestEulerMap:
    def test_hopf_multiplication_by_euler_class(self):
        m = hopf()
        eub = euler_map(m, Perversity({}))
        assert eub.mat(0) == Matrix.from_rows([[1]])

    def test_rot_zero(self):
        m = rot()
        eub = euler_map(m, Perversity({}))
        for k in range(3):
            assert eub.mat(k).is_zero()

    def test_cone_nonzero(self):
        m = cone2()
        eub = euler_map(m, P(apex=2))
        assert eub.mat(0).rank() == 1

    def test_witness_independence(self):
        # another witness differs by a level form alpha whose d(alpha) is in
        # level, so the image moves by d(alpha) and its class stays; the
        # check means something only where the image does move
        rng = random.Random(5)
        moved_cases = 0
        for seed in range(32):
            m = random_model(seed, 2)
            for p in m.perversity_set:
                eub = euler_map(m, p)
                ih = omega_cohomology(m, p)
                pc = perverse_complex(m, p)
                for k in range(m.top_degree - 1):
                    betas = pc.gysin_ambient_mat(k) * eub.hg.lifts(k)
                    base = eub.cochain_images(k, betas)
                    f1 = m.filtration_level(p, k + 1).basis
                    d_level = m.diff(k + 1) * f1
                    killer = quotient(Subspace.full(m.dim(k + 2)),
                                      m.filtration_level(p, k + 2)).projection
                    shifts = (killer * d_level).kernel_basis()
                    if not shifts or not betas.cols:
                        continue
                    # non-zero coefficients, so that a single freedom with
                    # d(alpha) != 0 always moves the image
                    coeffs = Matrix(len(shifts), betas.cols,
                                    [[rng.choice((-2, -1, 1, 2)) for _ in range(betas.cols)]
                                     for _ in shifts])
                    freedom = Matrix(len(shifts), f1.cols, shifts).transpose()
                    moved = base + d_level * freedom * coeffs
                    moved_cases += moved != base
                    omega = pc.omega_spaces[k + 2]
                    assert ih.classes_of(k + 2, omega.coords_of(base)) == \
                        ih.classes_of(k + 2, omega.coords_of(moved))
        assert moved_cases >= 4

    def test_representative_independence(self):
        rng = random.Random(9)
        for seed in range(8):
            m = random_model(seed)
            for p in m.perversity_set:
                eub = euler_map(m, p)
                ih = omega_cohomology(m, p)
                pc = perverse_complex(m, p)
                for k in range(1, m.top_degree - 1):
                    betas = pc.gysin_ambient_mat(k) * eub.hg.lifts(k)
                    # perturb by Gysin-term coboundaries
                    gmat = pc.gysin_ambient_mat(k - 1)
                    if gmat.cols == 0 or betas.cols == 0:
                        continue
                    gamma = gmat * Matrix(gmat.cols, betas.cols,
                                          [[rng.randint(-2, 2) for _ in range(betas.cols)]
                                           for _ in range(gmat.cols)])
                    moved = betas + m.diff(k - 1) * gamma
                    omega = pc.omega_spaces[k + 2]
                    c1 = ih.classes_of(k + 2, omega.coords_of(eub.cochain_images(k, betas)))
                    c2 = ih.classes_of(k + 2, omega.coords_of(eub.cochain_images(k, moved)))
                    assert c1 == c2

    def test_naturality(self):
        # eub commutes with the perversity inclusions on cohomology
        for m in (cone2(), noperv(), random_model(12), random_model(17)):
            for p, q in comparable_pairs(m):
                ep = euler_map(m, p)
                eq_ = euler_map(m, q)
                hgp = gysin_cohomology(m, p)
                hgq = gysin_cohomology(m, q)
                ihp = omega_cohomology(m, p)
                ihq = omega_cohomology(m, q)
                gi = gysin_inclusion(m, p, q)
                oi = inclusion_map(m, p, q)
                for k in range(m.top_degree + 1):
                    on_g = hgp.induced_map(hgq, gi, k)
                    on_ih = ihp.induced_map(ihq, oi, k + 2)
                    assert eq_.mat(k) * on_g == on_ih * ep.mat(k)


class TestGysinLes:
    def test_hopf_total_space_cohomology(self):
        from eqih.equivariant import eq1_cohomology
        m = hopf()
        seq = gysin_les(m, Perversity({}))
        assert seq.exact
        # middle nodes carry the total-space cohomology (the 3-sphere)
        mids = [seq.dims[i] for i, lab in enumerate(seq.labels) if "(B)" in lab]
        assert tuple(mids[:4]) == (1, 0, 0, 1)
        assert eq1_cohomology(m, Perversity({})).dims() == (1, 0, 0, 1)

    def test_rot_splits(self):
        from eqih.equivariant import eq1_cohomology
        m = rot()
        assert gysin_les(m, Perversity({})).exact
        assert eq1_cohomology(m, Perversity({})).dims() == (1, 1, 1, 1)

    def test_zero_model(self):
        m = model_from_dict({
            "name": "empty", "top_degree": 0, "dims": [0], "d": [[]],
            "strata": [], "filtrations": {}, "euler_cocycle": [],
            "euler_op": [[]], "perversities": [{}],
        })
        seq = gysin_les(m, Perversity({}))
        assert all(d == 0 for d in seq.dims)
        assert seq.exact

    def test_exact_and_connecting_matches_euler_map_random(self):
        # gysin_les internally raises if the connecting morphism differs
        for seed in range(12):
            m = random_model(seed)
            for p in m.perversity_set:
                assert gysin_les(m, p).exact


class TestWedgeCompatibility:
    def test_product_respects_perversity_sum(self):
        for m in (cone2(), noperv()):
            for p in m.perversity_set:
                for q in m.perversity_set:
                    pq = Perversity({k: v + q[k] for k, v in p.items})
                    cp = perverse_complex(m, p)
                    cq = perverse_complex(m, q)
                    for (i, j), table in m.product.items():
                        if i + j > m.top_degree:
                            continue
                        # the products of every pair of basis forms, at once
                        xy = kron(cp.omega_spaces[i].basis, cq.omega_spaces[j].basis)
                        tgt = m.filtration_level(pq, i + j)
                        assert tgt.coords_of(table * xy) is not None
