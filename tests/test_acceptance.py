"""End-to-end acceptance suite.

One test per shipped acceptance criterion; each test prints a single
PASS line on success (pytest reports the FAIL side).  All equalities are
exact rational identities -- no tolerances anywhere.
"""

import pytest

from eqih.classify import ModelIso, consequence_check, f_related, identity_iso
from eqih.equivariant import (
    build_equivariant,
    default_window,
    eq1_cohomology,
    equivariant_gysin_les,
    gysin_les,
    truncation_stable,
)
from eqih.fixtures import (
    cone2,
    hopf,
    make,
    noperv,
    oracle_cohomology,
    random_model,
    rot,
)
from eqih.localize import cone_formula_check, lambda_u_module, localized_gysin
from eqih.model import Perversity, model_from_dict, model_to_dict
from eqih.perverse import (
    cogysin_cohomology,
    cogysin_les,
    omega_cohomology,
    perverse_complex,
)
from eqih.ratla import Matrix, kron
from eqih.spectral import (
    d3_check,
    e3_isomorphisms,
    fixed_point_preconditions,
    pages,
    skjelbred,
)

RANDOM_SEEDS = 100


@pytest.fixture(scope="module")
def suite():
    """All fixtures plus the seeded random models, instantiated once so the
    per-model caches are shared across criteria."""
    models = [hopf(), rot(), cone2(), noperv()]
    models += [random_model(seed) for seed in range(RANDOM_SEEDS)]
    return models


def _ok(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


def test_criterion_1_free_action_fixture():
    m = hopf()
    p = Perversity({})
    # the co-Gysin term vanishes for every lattice perversity
    for q in m.perversity_set:
        assert all(d == 0 for d in cogysin_cohomology(m, q).dims())
    assert eq1_cohomology(m, p).dims() == (1, 0, 0, 1)
    eq = build_equivariant(m, p)
    ih = omega_cohomology(m, p)
    for n in range(eq.n_u + 1):
        assert eq.dims()[n] == ih.dim(n)
    assert ih.dims() == (1, 0, 1)
    # in degree 0 the u-action is Euler-class multiplication: the raw
    # matrices agree after rescaling generators by (-1)^(n//2), i.e. the
    # u-matrix is the negative of the wedge-with-epsilon matrix
    pc = perverse_complex(m, p)
    amb = pc.omega_incl.mat(0) * ih.lifts(0)
    prod = m.ambient.product[(2, 0)] * kron(m.ambient.epsilon(), amb)
    e_mult = ih.classes_of(2, pc.omega_spaces[2].coords_of(prod))
    assert eq.u_cohomology_matrix(0) == Matrix.from_rows(
        [[-x for x in row] for row in e_mult.entries])
    assert lambda_u_module(m, p).ranks() == (0, 0)
    _ok(1, "free-action fixture: K = 0, total dims, u = e-multiplication, "
           "vanishing localization")


def test_criterion_2_zero_euler_fixture():
    m = rot()
    p = Perversity({})
    assert eq1_cohomology(m, p).dims() == (1, 1, 1, 1)
    ih = omega_cohomology(m, p).dims()
    expect = tuple((ih[n] if n < len(ih) else 0)
                   + (ih[n - 1] if 0 <= n - 1 < len(ih) else 0)
                   for n in range(4))
    assert eq1_cohomology(m, p).dims() == expect
    pgs, _ = pages(m, p)
    for pg in pgs:
        if pg.r >= 2:
            assert all(mat.is_zero() for mat in pg.differentials.values())
    assert lambda_u_module(m, p).ranks() == (0, 0)
    _ok(2, "zero-Euler fixture: split total dims, degeneration at the "
           "second page, vanishing localization")


def test_criterion_3_cone_fixture():
    m = cone2()
    top = Perversity({"apex": 2})
    assert eq1_cohomology(m, top).dims() == (1, 0, 0, 0)
    assert lambda_u_module(m, top).ranks() == (1, 0)
    for p in m.perversity_set:
        assert cone_formula_check(m, p)["match"], p.label()
    _ok(3, "cone fixture: total dims, localization (1,0), cone formula "
           "agreement at every perversity")


def test_criterion_4_spectral_structure(suite):
    checked = 0
    nonzero_d3 = 0
    for m in suite:
        for p in m.perversity_set:
            # pages() verifies: odd rows vanish, even pages have zero
            # differential (so consecutive pages above E_1 agree), the limit
            # is stable, and the totals converge to the equivariant dims
            pages(m, p)
            # explicit second/third-page identification with the base
            # cohomology (row 0) and the shifted co-Gysin cohomology
            e3_isomorphisms(m, p)
            rep = d3_check(m, p)
            assert rep["all_equal"], (m.name, p.label())
            checked += rep["checked"]
            nonzero_d3 += 1 if rep["any_nonzero"] else 0
    assert checked > 0
    witness = model_from_dict({
        "name": "witness-d3", "top_degree": 4, "dims": [1, 1, 1, 1, 1],
        "d": [[["0"]], [["1"]], [["0"]], [["1"]], []],
        "strata": [{"name": "apex", "kind": "fixed_perverse"}],
        "filtrations": {"apex": {
            "0": [[["1"]], [], [["1"]], [], [["1"]]],
            "1": [[["1"]], [["1"]], [["1"]], [], [["1"]]],
        }},
        "euler_cocycle": ["1"],
        "euler_op": [[["1"]], [["1"]], [["1"]], [], []],
        "perversities": [{"apex": 1}],
    })
    rep = d3_check(witness, Perversity({"apex": 1}))
    assert rep["all_equal"] and rep["any_nonzero"]
    _ok(4, "spectral suite on %d models: vanishing odd rows, even-page "
           "degeneration steps, page identifications, third-differential "
           "formula (%d cells, incl. a nonzero instance)"
        % (len(suite) + 1, checked))


def test_criterion_5_long_exact_sequences(suite):
    nodes = 0
    for m in suite:
        if all(c["passed"] for c in fixed_point_preconditions(m)):
            seq = skjelbred(m)  # raises TheoremViolation on any failed node
            nodes += seq.node_count()
        for p in m.perversity_set:
            for seq in (gysin_les(m, p), cogysin_les(m, p),
                        equivariant_gysin_les(m, p)[0]):
                assert seq.exact, (m.name, p.label())
                nodes += seq.node_count()
            assert localized_gysin(m, p)["exact"], (m.name, p.label())
            nodes += 2
    _ok(5, "exactness at %d nodes across the Gysin, co-Gysin, equivariant, "
           "localized, and fixed-point sequences" % nodes)


def test_criterion_6_connecting_decomposition(suite):
    for m in suite:
        for p in m.perversity_set:
            _, report = equivariant_gysin_les(m, p)
            assert report["decomposition_verified"], (m.name, p.label())
    _ok(6, "connecting morphism decomposes entrywise into the Euler map "
           "plus the u-shifted inclusion on every suite model")


def test_criterion_7_oracle_equivalence(suite):
    pairs = 0
    for m in suite:
        for p in m.perversity_set:
            eq = build_equivariant(m, p)
            oracle = oracle_cohomology(m, p, eq.n_u)
            assert eq.dims() == oracle["dims"], (m.name, p.label())
            assert eq.u_ranks() == oracle["u_ranks"], (m.name, p.label())
            pairs += 1
    _ok(7, "engine dims and u-ranks equal the brute-force oracle on %d "
           "(model, perversity) pairs" % pairs)


def test_criterion_8_classification():
    m1 = hopf()
    data = model_to_dict(hopf())
    data["name"] = "hopf-2e"
    data["euler_cocycle"] = ["2"]
    data["euler_op"] = [[["2"]], [], []]
    del data["product"]
    m2 = model_from_dict(data)
    ok, gamma = f_related(identity_iso(m1), m1, m2)
    assert not ok and gamma is None

    base = model_to_dict(cone2())
    del base["product"]
    c1 = model_from_dict(base)
    scaled = dict(base)
    scaled["name"] = "cone2-rescaled"
    scaled["euler_cocycle"] = ["1/2"]
    scaled["euler_op"] = [[["1/2"]], [], []]
    c2 = model_from_dict(scaled)
    iso = ModelIso({**identity_iso(c1).mats, 2: Matrix.from_rows([[2]])},
                   {"apex": "apex"})
    ok, gamma = f_related(iso, c1, c2)
    assert ok and all(x == 0 for x in gamma)
    assert consequence_check(iso, c1, c2)["all_equal"]

    # regression pair: distinct Euler classes, identical localizations
    ok, _ = f_related(identity_iso(m1), m1, rot())
    assert not ok
    assert lambda_u_module(m1, Perversity({})).ranks() == (0, 0)
    assert lambda_u_module(rot(), Perversity({})).ranks() == (0, 0)
    _ok(8, "doubled Euler class rejected, transported Euler class accepted "
           "with matching invariants, vanishing-localization pair recorded")


def test_criterion_9_truncation_robustness(suite):
    for m in suite:
        for p in m.perversity_set:
            assert truncation_stable(m, p), (m.name, p.label())
    _ok(9, "dims agree between the default truncation window and the "
           "window extended by two on every suite model")
