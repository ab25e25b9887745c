import json
import pathlib
import random

import pytest

from eqih import fixtures
from eqih.errors import InputError
from eqih.fixtures import FIXTURES, make, oracle_cohomology, random_model
from eqih.model import Perversity, model_from_dict, model_to_dict, validate
from eqih.perverse import ambient_complexes
from eqih.ratla import Matrix

EXPECT = json.loads(
    (pathlib.Path(__file__).parent / "expectations.json").read_text())["fixtures"]

FIXTURE_NAMES = list(FIXTURES)
WINDOW = 8  # top_degree + 6 for every named fixture


def expected_equivariant(name):
    for label, entry in EXPECT[name]["equivariant"].items():
        yield label, tuple(entry["dims"]), tuple(entry["u_ranks"])


def perversity_from_label(m, label):
    if label == "()":
        return Perversity({})
    values = {}
    for part in label.split(","):
        key, _, val = part.partition("=")
        values[key] = int(val)
    return Perversity(values)


class TestNamedFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_strict_validation(self, name):
        assert all(r["passed"] for r in validate(make(name), strict=True))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_ambient_cohomology(self, name):
        m = make(name)
        dims = ambient_complexes(m)[0].cohomology.dims()
        assert list(dims) == EXPECT[name]["ambient_cohomology"]["value"]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_export(self, name):
        m = make(name)
        assert model_to_dict(model_from_dict(model_to_dict(m))) == model_to_dict(m)

    def test_unknown_fixture(self):
        with pytest.raises(InputError):
            make("nope")

    def test_random_requires_seed(self):
        with pytest.raises(InputError):
            make("random")


class TestOracle:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_frozen_values(self, name):
        m = make(name)
        for label, dims, u_ranks in expected_equivariant(name):
            p = perversity_from_label(m, label)
            out = oracle_cohomology(m, p, WINDOW)
            assert out["dims"] == dims, label
            assert out["u_ranks"] == u_ranks, label

    def test_zero_model(self):
        m = model_from_dict({
            "name": "empty", "top_degree": 0, "dims": [0], "d": [[]],
            "strata": [], "filtrations": {}, "euler_cocycle": [],
            "euler_op": [[]], "perversities": [{}],
        })
        out = oracle_cohomology(m, Perversity({}), 4)
        assert out["dims"] == (0,) * 5
        assert out["u_ranks"] == (0,) * 5

    def test_floor_perversity_gives_zero(self):
        m = make("cone2")
        out = oracle_cohomology(m, Perversity({"apex": -1}), WINDOW)
        assert not any(out["dims"])


class TestRandomModels:
    def test_deterministic(self):
        a = model_to_dict(random_model(42))
        b = model_to_dict(random_model(42))
        assert a == b
        assert model_to_dict(random_model(43)) != a

    @pytest.mark.parametrize("seed", range(25))
    def test_strict_validation(self, seed):
        m = random_model(seed)
        assert all(r["passed"] for r in validate(m, strict=True))

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip(self, seed):
        m = random_model(seed)
        assert model_to_dict(model_from_dict(model_to_dict(m))) == model_to_dict(m)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_built_model_is_the_one_its_document_loads_as(self, size):
        """random_model builds its model as values; the checks a load of
        its document would make still hold: the document loads to an equal
        model, saves back to itself, and the model passes strict
        validation."""
        for seed in range(20):
            m = random_model(seed, size)
            doc = model_to_dict(m)
            loaded = model_from_dict(doc)
            assert loaded == m and model_to_dict(loaded) == doc
            assert all(r["passed"] for r in validate(m, strict=True))

    def test_size_parameter(self):
        m = random_model(0, size=3)
        assert max(m.dims) <= 3
        assert all(r["passed"] for r in validate(m, strict=True))


def dense_euler_op(rng, dims, diffs, filtration_constraints):
    """The Euler-operator solver over a dense rational system: chain rows,
    and for each filtration shift E_j(V) inside W the rows of W's killing
    projection applied to E_j v; the operator is the kernel basis of the
    system combined with one random coefficient per basis vector."""
    n = len(dims)

    def dim(k):
        return dims[k] if 0 <= k < n else 0

    def diff(k):
        if 0 <= k < n:
            return diffs[k]
        return Matrix.zero(dim(k + 1), dim(k))

    offsets = {}
    total = 0
    for k in range(n):
        offsets[k] = total
        total += dim(k + 2) * dim(k)
    if total == 0:
        return [Matrix.zero(dim(k + 2), dim(k)) for k in range(n)]

    def var(k, r, c):
        return offsets[k] + r * dim(k) + c

    rows = []
    for k in range(n):
        for i in range(dim(k + 3)):
            for j in range(dim(k)):
                row = [0] * total
                if 0 <= k + 1 < n:
                    for t in range(dim(k + 1)):
                        row[var(k + 1, i, t)] += diff(k).entries[t][j]
                for t in range(dim(k + 2)):
                    row[var(k, t, j)] -= diff(k + 2).entries[i][t]
                if any(x != 0 for x in row):
                    rows.append(row)
    for (j, src, tgt) in filtration_constraints:
        if dim(j + 2) == 0 or src.dim == 0 or tgt.is_full():
            continue
        q = fixtures._killing_projection(tgt)
        for v in src.vectors():
            for r in range(q.rows):
                row = [0] * total
                for t in range(dim(j + 2)):
                    for c in range(dim(j)):
                        row[var(j, t, c)] += q.entries[r][t] * v[c]
                if any(x != 0 for x in row):
                    rows.append(row)

    if rows:
        basis = Matrix(len(rows), total, rows).kernel_basis()
    else:
        basis = [tuple(1 if i == j else 0 for j in range(total))
                 for i in range(total)]
    x = [0] * total
    for b in basis:
        c = rng.randint(-2, 2)
        x = [xi + c * bi for xi, bi in zip(x, b)]
    return [Matrix(dim(k + 2), dim(k),
                   [[x[var(k, r, c)] for c in range(dim(k))] for r in range(dim(k + 2))])
            for k in range(n)]


# (size, seed) of the larger generated models whose documents are pinned
LADDER = [(9, 3), (10, 11), (11, 8), (12, 3), (13, 2), (13, 6)]


@pytest.mark.parametrize("cases", [[(size, seed) for seed in range(40)] for size in range(1, 7)]
                         + [LADDER], ids=["size%d" % size for size in range(1, 7)] + ["ladder"])
def test_euler_op_solver_matches_dense_reference(cases, monkeypatch):
    """Each system random_model solves is solved again by the dense solver
    from the same rng state: same operator, same number of draws."""
    solve = fixtures._solve_euler_op
    calls = []

    def recording(rng, a, constraints):
        before = rng.getstate()
        euler = solve(rng, a, constraints)
        calls.append((before, rng.getstate(), list(a.dims), list(a.d), constraints, euler))
        return euler

    monkeypatch.setattr(fixtures, "_solve_euler_op", recording)
    for size, seed in cases:
        random_model(seed, size)
    assert len(calls) == len(cases)
    for before, after, dims, diffs, constraints, euler in calls:
        rng = random.Random()
        rng.setstate(before)
        assert dense_euler_op(rng, dims, diffs, constraints) == euler
        assert rng.getstate() == after
