"""The model families ``sphere(n, e)`` and ``cone(n)`` against their closed
forms, for n = 1..6, through the default window.

Every expected value is computed from a formula in degree k:

* ``sphere(n, e)``, e != 0: H_{S^1}(S^{2n+1}) = H(CP^n) (Borel), so the
  dimension is 1 in each even degree up to 2n, the u-rank 1 in each even
  degree below 2n, and the localization (0, 0).
* ``sphere(n, 0)``: the same dimensions, u-ranks 0, localization (0, 0).
* ``cone(n)``: 0 at apex = -1; at apex >= 0 it is Q[u], dimension and u-rank
  1 in every even degree, and the localization (1, 0), the fixed apex.

Each member also passes strict validation, and for n <= 4 the brute-force
oracle agrees with the engine and the cone formula matches the localization.
"""

import pytest

from eqih import fixtures
from eqih.equivariant import build_equivariant
from eqih.fixtures import cone, oracle_cohomology, sphere
from eqih.localize import cone_formula_check, lambda_u_module
from eqih.model import model_to_dict, validate

DEGREES = range(1, 7)


def even(k):
    return int(k % 2 == 0)


def sphere_answer(n, e, window):
    dims = tuple(even(k) * (k <= 2 * n) for k in range(window + 1))
    u_ranks = tuple(even(k) * (k < 2 * n) * (e != 0) for k in range(window + 1))
    return dims, u_ranks, (0, 0)


def cone_answer(apex, window):
    if apex < 0:
        return (0,) * (window + 1), (0,) * (window + 1), (0, 0)
    q_u = tuple(even(k) for k in range(window + 1))
    return q_u, q_u, (1, 0)


def check_member(m, n, answer):
    assert all(c["passed"] for c in validate(m, strict=True)), m.name
    for p in m.perversity_set:
        eq = build_equivariant(m, p)
        assert eq.n_u == 2 * n + 6
        got = (eq.dims(), eq.u_ranks(), lambda_u_module(m, p).ranks())
        assert got == answer(p, eq.n_u), (m.name, p.label())
        if n <= 4:
            oracle = oracle_cohomology(m, p, eq.n_u)
            assert (oracle["dims"], oracle["u_ranks"]) == (eq.dims(), eq.u_ranks())


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("e", (0, 1, 2, -1, 3))
def test_sphere_closed_form(n, e):
    check_member(sphere(n, e), n, lambda p, window: sphere_answer(n, e, window))


@pytest.mark.parametrize("n", DEGREES)
def test_cone_closed_form(n):
    m = cone(n)
    assert [p["apex"] for p in m.perversity_set] == list(range(-1, 2 * n + 1))
    check_member(m, n, lambda p, window: cone_answer(p["apex"], window))
    if n <= 4:
        for p in m.perversity_set:
            assert cone_formula_check(m, p)["match"], p.label()


@pytest.mark.parametrize("name, member", [
    ("hopf", lambda: sphere(1, 1)),
    ("rot", lambda: sphere(1, 0)),
    ("cone2", lambda: cone(1)),
])
def test_fixtures_are_the_first_members(name, member):
    got = model_to_dict(member())
    got["name"] = name
    assert got == model_to_dict(fixtures.make(name))
