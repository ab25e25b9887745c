import functools

import pytest

from eqih.equivariant import (
    LambdaExtension,
    build_equivariant,
    default_window,
    equivariant_gysin_les,
)
from eqih.errors import IdentificationFails
from eqih.fixtures import cone, cone2, hopf, make, noperv, random_model, rot, sphere
from eqih.model import Perversity, model_from_dict, model_to_dict, validate
from eqih.perverse import cogysin_cohomology, omega_cohomology, perverse_complex
from eqih.ratla import (
    Matrix,
    Subspace,
    intersect,
    map_image,
    preimage,
    quotient,
    subspace_sum,
)
from eqih.spectral import (
    SpectralPage,
    SpectralSequence,
    _e3_identification,
    d3_check,
    e3_isomorphisms,
    fixed_point_preconditions,
    pages,
    skjelbred,
    spectral_sequence,
)


def P(**kw):
    return Perversity(kw)


def zero_euler_noperv():
    data = model_to_dict(noperv())
    data["euler_op"] = [[["0"]], [], []]
    data["euler_cocycle"] = ["0"]
    del data["product"]
    return model_from_dict(data)


def witness_d3_model():
    """Five one-dimensional degrees 1, a, b, t, w with da = b, dt = w and
    Euler operator 1 -> b, a -> t, b -> w; at the middle perversity the third
    differential out of cell (1, 2) hits a nonzero class in degree 4."""
    return model_from_dict({
        "name": "witness-d3",
        "top_degree": 4,
        "dims": [1, 1, 1, 1, 1],
        "d": [[["0"]], [["1"]], [["0"]], [["1"]], []],
        "strata": [{"name": "apex", "kind": "fixed_perverse"}],
        "filtrations": {"apex": {
            "0": [[["1"]], [], [["1"]], [], [["1"]]],
            "1": [[["1"]], [["1"]], [["1"]], [], [["1"]]],
        }},
        "euler_cocycle": ["1"],
        "euler_op": [[["1"]], [["1"]], [["1"]], [], []],
        "perversities": [{"apex": v} for v in (-1, 0, 1, 2)],
    })


def raw(ss, i, n):
    """Coordinate subspace of C^n spanned by the pair degrees >= i."""
    amb = ss.cx.dim(n)
    vecs = []
    for j, off in ss.eq.ext.offsets.get(n, {}).items():
        k = n - 2 * j
        if k >= i:
            for t in range(off, off + ss.eq.eq1.complex.dim(k)):
                vecs.append([1 if s == t else 0 for s in range(amb)])
    return Subspace.from_vectors(amb, vecs)


def filtration_by_subspaces(ss, i, n):
    """F^i C^n = raw^i C^n intersect D^{-1}(raw^i C^{n+1})."""
    if i <= 0:
        return Subspace.full(ss.cx.dim(n))
    return intersect(raw(ss, i, n), preimage(ss.cx.d(n), raw(ss, i, n + 1)))


def filtration_holds(ss, n_max):
    """F^i is decreasing, D-stable, exhaustive and bounded in degrees
    0..n_max, with F^i C^n read off the engine as Z_0^{i, n - i}."""
    def f(i, n):
        return ss.z(0, i, n - i)

    for n in range(0, n_max + 1):
        if not f(0, n).is_full() or not f(ss.i_top + 1, n).is_zero():
            return False
        for i in range(0, ss.i_top + 2):
            if not f(max(i - 1, 0), n).contains_subspace(f(i, n)):
                return False
            if not f(i, n + 1).contains_subspace(map_image(ss.cx.d(n), f(i, n))):
                return False
    return True


class TestFiltration:
    def test_invariants(self):
        for m in (hopf(), cone2(), random_model(1)):
            for p in m.perversity_set:
                ss = spectral_sequence(m, p)
                assert filtration_holds(ss, ss.eq.hi - 1)

    def test_pair_degree_support(self):
        m = cone2()
        ss = spectral_sequence(m, P(apex=2))
        eq = ss.eq
        for n in range(0, 5):
            for i in range(0, ss.i_top + 2):
                f = ss.z(0, i, n - i)
                # F^i is supported in the components of pair degree >= i
                for j, k in eq.ext.components(n):
                    if k < i:
                        assert eq.ext.component_of(n, f.basis, j).is_zero()
                assert f.dim <= sum(eq.eq1.complex.dim(k)
                                    for _, k in eq.ext.components(n) if k >= i)
        assert ss.z(0, 0, 4).is_full()
        assert ss.z(0, ss.i_top + 1, 4 - ss.i_top - 1).is_zero()

    def test_chain_spans_match_subspace_formula(self):
        # Z_r^{i,j} = F^i C^n intersect D^{-1}(F^{i+r} C^{n+1}), n = i + j
        models = [hopf(), rot(), cone2(), noperv()]
        models += [random_model(seed) for seed in range(4)]
        for m in models:
            for p in m.perversity_set:
                ss = spectral_sequence(m, p)
                # D is built exactly below the top degree hi
                for n in range(0, ss.eq.hi):
                    for i in range(0, ss.i_top + 2):
                        f_i = filtration_by_subspaces(ss, i, n)
                        for r in range(0, ss.r_infinity + 2):
                            ref = intersect(f_i, preimage(
                                ss.cx.d(n), filtration_by_subspaces(ss, i + r, n + 1)))
                            assert ss.z(r, i, n - i) == ref, (m.name, p.label(), r, i, n)


class TestPages:
    def test_free_action_degenerates_at_e2(self):
        m = hopf()
        pgs, limit = pages(m, Perversity({}))
        for pg in pgs:
            if pg.r >= 2:
                assert all(mat.is_zero() for mat in pg.differentials.values())
        e2 = pgs[1]
        assert all(j == 0 for (i, j) in e2.cells)
        assert limit == {(0, 0): 1, (2, 0): 1}

    def test_zero_euler_degenerates_with_nonzero_rows(self):
        m = zero_euler_noperv()
        p = P(apex=0)
        pgs, limit = pages(m, p)
        for pg in pgs:
            if pg.r >= 2:
                assert all(mat.is_zero() for mat in pg.differentials.values())
        assert any(j > 0 for (i, j) in pgs[1].cells)
        assert pgs[1].cells == limit

    def test_cone_row_pattern(self):
        m = cone2()
        pgs, limit = pages(m, P(apex=2))
        e2 = pgs[1]
        assert e2.dim(0, 0) == 1
        n_u = default_window(m)
        for j in range(0, (n_u - 2) // 2 + 1):
            assert e2.dim(2, 2 * j) == 1
        assert e2.cells == limit
        totals = [sum(d for (i, j), d in limit.items() if i + j == n)
                  for n in range(n_u + 1)]
        assert totals == [1 if n % 2 == 0 else 0 for n in range(n_u + 1)]

    def test_returned_page_range(self):
        m = hopf()
        pgs, _ = pages(m, Perversity({}), r_max=2)
        assert [pg.r for pg in pgs] == [1, 2]

    def test_property_suite_random(self):
        # pages() raises PropertyViolation on any failed structural property
        for seed in range(8):
            m = random_model(seed)
            for p in m.perversity_set:
                pages(m, p)

    def test_convergence_matches_equivariant_dims(self):
        for m in (hopf(), rot(), cone2(), noperv()):
            for p in m.perversity_set:
                _, limit = pages(m, p)
                eq = build_equivariant(m, p)
                for n in range(eq.n_u + 1):
                    total = sum(d for (i, j), d in limit.items() if i + j == n)
                    assert total == eq.dims()[n], (m.name, p.label(), n)


class TestE3Identification:
    def test_bijective_on_fixtures(self):
        for m in (hopf(), cone2(), noperv()):
            for p in m.perversity_set:
                phi = e3_isomorphisms(m, p)
                ih = omega_cohomology(m, p)
                hk = cogysin_cohomology(m, p)
                ss = spectral_sequence(m, p)
                for (i, j), mat in phi.items():
                    assert mat.rows == mat.cols == ss.dim(3, i, 2 * j)
                    assert mat.rows == (ih.dim(i) if j == 0 else hk.dim(i))

    def test_row_zero_carries_orbit_space_cohomology(self):
        m = cone2()
        phi = e3_isomorphisms(m, P(apex=2))
        assert phi[(0, 0)].rows == 1 and phi[(2, 0)].rows == 1

    @pytest.mark.parametrize("name, seed, size", [
        (name, None, None) for name in ("hopf", "rot", "cone2", "noperv")] + [
        ("random", seed, size) for seed in range(6) for size in (2, 3)])
    def test_folded_cells_share_one_identification(self, name, seed, size):
        """Every (i, j) of the window, identified on its own, gives the
        matrix e3_isomorphisms holds there, and that matrix is the object
        held at the first (i, j) with its fold key (i, fold(i + 2j),
        j == 0): a folded cell is the same cell."""
        m = make(name, seed, size)
        for p in m.perversity_set:
            phi = e3_isomorphisms(m, p)
            ss, pc = spectral_sequence(m, p), perverse_complex(m, p)
            targets = (cogysin_cohomology(m, p), omega_cohomology(m, p))
            fold = ss.eq.ext.fold
            first = {}
            for (i, j), mat in phi.items():
                assert _e3_identification(ss, pc, targets[j == 0], i, j) == mat, (p, i, j)
                assert first.setdefault((i, fold(i + 2 * j), j == 0), mat) is mat, (p, i, j)
            assert len(first) < len(phi)


class TestD3:
    def test_free_action_zero(self):
        rep = d3_check(hopf(), Perversity({}))
        assert rep["all_equal"] and not rep["any_nonzero"]

    def test_zero_euler_zero(self):
        m = zero_euler_noperv()
        for p in m.perversity_set:
            rep = d3_check(m, p)
            assert rep["all_equal"] and not rep["any_nonzero"]

    def test_cone_forced_zero(self):
        # the composite lands in a vanishing degree, so both sides are zero
        rep = d3_check(cone2(), P(apex=2))
        assert rep["checked"] > 0 and rep["all_equal"] and not rep["any_nonzero"]

    def test_witness_model_nonzero(self):
        m = witness_d3_model()
        assert all(r["passed"] for r in validate(m)
                   if not r["axiom"].startswith("info"))
        rep = d3_check(m, P(apex=1))
        assert rep["all_equal"] and rep["any_nonzero"]
        hot = [c for c in rep["cells"] if c["nonzero"]]
        assert [c["cell"] for c in hot] == [[1, 2]]

    def test_randomized_nonzero_composite(self):
        m = random_model(121, size=3)
        rep = d3_check(m, P(s0=1))
        assert rep["all_equal"] and rep["any_nonzero"]
        assert [0, 2] in [c["cell"] for c in rep["cells"] if c["nonzero"]]

    def test_random_suite(self):
        for seed in range(8):
            m = random_model(seed)
            for p in m.perversity_set:
                assert d3_check(m, p)["all_equal"]


class TestSkjelbred:
    def test_free_action_collapses_to_isomorphism(self):
        m = hopf()
        seq = skjelbred(m)
        # no fixed-point contribution: every third node vanishes and the
        # first map of each triple is an isomorphism
        for idx, lab in enumerate(seq.labels):
            if lab.startswith("A^"):
                assert seq.dims[idx] == 0
        for i in range(0, len(seq.maps), 3):
            mat = seq.maps[i]
            assert mat.rank() == mat.rows == mat.cols

    def test_zero_euler_beta_vanishes(self):
        seq = skjelbred(rot())
        for idx, lab in enumerate(seq.labels[:-1]):
            if lab.startswith("A^"):
                assert seq.maps[idx].is_zero()

    def test_cone_fixed_point_column(self):
        m = cone2()
        seq = skjelbred(m)
        a_dims = {lab: seq.dims[i] for i, lab in enumerate(seq.labels)
                  if lab.startswith("A^")}
        # one co-Gysin class per positive even degree
        for i in range(2, 7):
            assert a_dims["A^%d" % i] == (1 if i % 2 == 0 else 0)

    def test_witness_model_exact(self):
        skjelbred(witness_d3_model())

    def test_preconditions_hold_on_fixtures(self):
        for m in (hopf(), rot(), cone2(), noperv()):
            assert all(c["passed"] for c in fixed_point_preconditions(m))

    def test_identification_failure_rejected(self):
        # a mobile stratum whose Euler image escapes the zero level breaks
        # the Gysin identification, so the sequence must refuse to assemble
        m = model_from_dict({
            "name": "escaping-euler",
            "top_degree": 2,
            "dims": [1, 1, 1],
            "d": [[["0"]], [["0"]], []],
            "strata": [{"name": "orbit", "kind": "mobile"}],
            "filtrations": {"orbit": {
                "0": [[["1"]], [["1"]], []],
            }},
            "euler_cocycle": ["0"],
            "euler_op": [[["1"]], [], []],
            "perversities": [{"orbit": v} for v in (0, 1)],
        })
        checks = fixed_point_preconditions(m)
        assert not all(c["passed"] for c in checks)
        with pytest.raises(IdentificationFails):
            skjelbred(m)

    def test_random_suite(self):
        for seed in range(8):
            m = random_model(seed)
            if all(c["passed"] for c in fixed_point_preconditions(m)):
                skjelbred(m)


def engine_outputs(m):
    """Every windowed output of the engine on m, through default_window."""
    out = {}
    for p in m.perversity_set:
        ss = spectral_sequence(m, p)
        out[p] = (ss.eq.dims(), ss.eq.u_ranks(),
                  [ss.page(r) for r in range(1, ss.r_infinity + 2)],
                  e3_isomorphisms(m, p), equivariant_gysin_les(m, p))
    if all(c["passed"] for c in fixed_point_preconditions(m)):
        out["skjelbred"] = skjelbred(m)
    return out


class TestFold:
    def test_matches_unfolded_reference(self, monkeypatch):
        # the reference reads every degree where it lies, in a complex
        # built to total degree top + 8, and builds every page past
        # r_infinity from its own Z_r
        makers = [hopf, rot, cone2, noperv]
        makers += [functools.partial(random_model, seed) for seed in range(8)]
        folded = [engine_outputs(make()) for make in makers]
        build = LambdaExtension.__init__

        def unfolded(self, base, hi=None, shift=None):
            build(self, base, base.hi + 7 if hi is None else hi, shift)

        monkeypatch.setattr(LambdaExtension, "__init__", unfolded)
        monkeypatch.setattr(LambdaExtension, "fold", lambda self, n: n)
        monkeypatch.setattr(SpectralSequence, "_key", lambda self, r, i, j: (r, i, j))
        for make, want in zip(makers, folded):
            m = make()
            p = next(iter(m.perversity_set))
            assert build_equivariant(m, p).hi == m.ambient.top_degree + 8
            assert engine_outputs(m) == want, m.name


class SubspaceCells(SpectralSequence):
    """The per-cell engine the normal form replaced: every cell, zero or
    not, is the quotient of Z_r by its denominator, every Z_r is the
    subspace formula raw^i intersect D^{-1}(raw^{i+r}), read nowhere from
    the chains, and pages past r_infinity are built from their own Z_r."""

    def __init__(self, eq):
        super().__init__(eq)
        self._z, self._cells = {}, {}

    def _key(self, r, i, j):
        return r, i, self.eq.ext.fold(i + j) - i

    def z(self, r, i, j):
        """Z_r^{i,j} by the subspace formula, built at every key."""
        key = self._key(r, i, j)
        if key not in self._z:
            r, i, j = key
            n = i + j
            self._z[key] = intersect(raw(self, i, n),
                                     preimage(self.cx.d(n), raw(self, i + r, n + 1)))
        return self._z[key]

    def cell(self, r, i, j):
        key = self._key(r, i, j)
        if key not in self._cells:
            r, i, j = key
            moved = map_image(self.cx.d(i + j - 1),
                              self.z(r - 1, i - r + 1, j + r - 2))
            den = subspace_sum(self.z(r - 1, i + 1, j - 1), moved)
            self._cells[key] = quotient(self.z(r, i, j), den)
        return self._cells[key]

    def dim(self, r, i, j):
        return self.cell(r, i, j).dim

    def d_matrix(self, r, i, j):
        key = self._key(r, i, j)
        if key not in self._d:
            r, i, j = key
            tgt = self.cell(r, i + r, j - r + 1)
            self._d[key] = tgt.projection * self.cx.d(i + j) * self.cell(r, i, j).lift
        return self._d[key]


def subspace_cells(m, p) -> SubspaceCells:
    """The reference engine of (m, p), put in m's spectral-sequence cache so
    that every engine function called on m reads its cells."""
    return m.cached(("spectral", p),
                    lambda: SubspaceCells(build_equivariant(m, p)))


def window(ss):
    """Every cell dim and d_r matrix in the listed degrees, on pages
    1..r_infinity + 1, with the projection and lift of each non-zero cell:
    a projection defined on Z_r fixes the kernel there, the denominator."""
    n_u = ss.eq.n_u
    out = []
    for r in range(1, ss.r_infinity + 2):
        for i in range(0, ss.i_top + 1):
            for j in range(0, n_u - i + 1):
                q = ss.cell(r, i, j) if ss.dim(r, i, j) else None
                out.append((r, i, j, ss.dim(r, i, j),
                            ss.d_matrix(r, i, j) if i + j < n_u else None,
                            q and (q.projection, q.lift)))
    return out


class TestPairEngine:
    def test_matches_subspace_cells(self):
        makers = [hopf, rot, cone2, noperv, witness_d3_model]
        makers += [functools.partial(random_model, seed) for seed in range(50)]
        makers += [functools.partial(random_model, seed, size=3) for seed in range(10)]
        makers += [functools.partial(sphere, 2, 1), functools.partial(cone, 2),
                   functools.partial(cone, 3)]
        for make in makers:
            m, ref = make(), make()
            for p in m.perversity_set:
                label = (m.name, p.label())
                assert window(spectral_sequence(m, p)) == window(subspace_cells(ref, p)), label
                assert e3_isomorphisms(m, p) == e3_isomorphisms(ref, p), label


def grid_pages(m, p, r_max=None):
    """The grid walk that pages() replaced: each page visits every (i, j)
    with i + j <= n_u and lists d_r out of every cell below n_u, zero or
    not, and every check runs at every cell of the window."""
    ss = spectral_sequence(m, p)
    eq = ss.eq
    r_inf = ss.r_infinity
    r_keep = r_inf if r_max is None else r_max
    r_max = max(r_keep, r_inf)
    ih = omega_cohomology(m, p)

    def cells_in_window(n_cap):
        return [(i, j) for i in range(0, ss.i_top + 1) for j in range(0, n_cap - i + 1)]

    def page(r):
        cells, diffs = {}, {}
        for i, j in cells_in_window(eq.n_u):
            if ss.dim(r, i, j):
                cells[(i, j)] = ss.dim(r, i, j)
            if i + j <= eq.n_u - 1:
                diffs[(i, j)] = ss.d_matrix(r, i, j) if ss.dim(r, i, j) \
                    else Matrix.zero(ss.dim(r, i + r, j - r + 1), 0)
        return SpectralPage(r, cells, diffs)

    out = [page(r) for r in range(1, r_max + 1)]
    n_cap = eq.n_u - 1
    for pg in out:
        r = pg.r
        for i, j in cells_in_window(n_cap):
            d_out = pg.d(i, j)
            assert not (j % 2 == 1 and pg.dim(i, j))
            if i + j + 1 <= n_cap:
                assert (pg.d(i + r, j - r + 1) * d_out).is_zero()
            if r + 1 <= r_max:
                d_in = pg.d(i - r, j + r - 1)
                assert ss.dim(r + 1, i, j) == pg.dim(i, j) - d_out.rank() - d_in.rank()
            if r >= 2 and r % 2 == 0:
                assert d_out.is_zero()
            assert not (r >= 3 and r % 2 == 1 and j != r - 1 and not d_out.is_zero())
            assert not (r >= 3 and j == 0 and pg.dim(i, 0) > ih.dim(i))

    limit = {}
    for i, j in cells_in_window(eq.n_u):
        if ss.dim(r_inf, i, j):
            limit[(i, j)] = ss.dim(r_inf, i, j)
    for n in range(0, eq.n_u + 1):
        assert sum(d for (i, j), d in limit.items() if i + j == n) == eq.dim(n)
    e3 = e3_isomorphisms(m, p)
    for i, j in cells_in_window(n_cap):
        assert ss.dim(2, i, j) == ss.dim(3, i, j)
        assert not (j % 2 == 0 and (i, j // 2) not in e3 and ss.dim(3, i, j))
    return out[:r_keep], limit


def nonzero_pages(pgs):
    return [(pg.r, pg.cells, {c: mat for c, mat in pg.differentials.items()
                              if not mat.is_zero()}) for pg in pgs]


class TestCellWalk:
    MAKERS = [hopf, rot, cone2, noperv, witness_d3_model]
    MAKERS += [functools.partial(random_model, 121, size=3)]
    MAKERS += [functools.partial(random_model, seed, size=size)
               for size in (2, 3) for seed in range(12)]
    MAKERS += [functools.partial(family, n, *e) for n in (1, 2, 3)
               for family, e in ((sphere, (1,)), (sphere, (0,)), (cone, ()))]

    @pytest.mark.parametrize("make", MAKERS, ids=lambda make: "%s%s" % (
        make.func.__name__, make.args) if isinstance(make, functools.partial) else make.__name__)
    def test_matches_the_grid_walk(self, make):
        m, ref = make(), make()
        for p in m.perversity_set:
            r_inf = spectral_sequence(m, p).r_infinity
            for r_max in (1, 2, None, r_inf + 3):
                pgs, limit = pages(m, p, r_max)
                want_pgs, want_limit = grid_pages(ref, p, r_max)
                label = (m.name, p.label(), r_max)
                assert nonzero_pages(pgs) == nonzero_pages(want_pgs), label
                assert limit == want_limit, label
