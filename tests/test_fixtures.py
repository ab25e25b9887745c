import json
import pathlib

import pytest

from eqih.errors import InputError
from eqih.fixtures import FIXTURE_NAMES, make, oracle_cohomology, random_model
from eqih.homalg import Cohomology
from eqih.model import Perversity, model_from_dict, model_to_dict, validate

EXPECT = json.loads(
    (pathlib.Path(__file__).parent / "expectations.json").read_text())["fixtures"]

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
        dims = Cohomology(m.ambient.complex()).dims()
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

    def test_size_parameter(self):
        m = random_model(0, size=3)
        assert max(m.ambient.dims) <= 3
        assert all(r["passed"] for r in validate(m, strict=True))
