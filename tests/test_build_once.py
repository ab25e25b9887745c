"""Each report command builds every cohomology and every level space once.

The commands run through ``cli.main`` on the four fixtures at every
perversity.  ``Cohomology.__init__`` is wrapped to record the complex it
builds, and ``ModelInstance.filtration_level`` to record the (perversity,
degree) levels it computes: a call that reaches the model's ``intersect``
computes its level, a call that does not read a cached one.
"""

import collections
import contextlib
import io

import pytest

from eqih import fixtures, homalg, model
from eqih.cli import main
from eqih.model import save_model

FIXTURES = ("hopf", "rot", "cone2", "noperv")


def commands(tmp_path):
    out = []
    for name in FIXTURES:
        m = fixtures.make(name)
        path = str(tmp_path / (name + ".json"))
        save_model(m, path)
        for p in m.perversity_set:
            perv = ["-p", p.label()] if p.items else []
            out += [[command, path] + perv
                    for command in ("cohomology", "gysin", "equivariant", "localize")]
    return out


@pytest.fixture()
def builds(monkeypatch):
    """Per command: the complexes whose cohomology was built (held, so no id
    is reused) and the count of computations per (perversity, degree)."""
    record = {"complexes": [], "levels": collections.Counter(), "intersects": 0}

    cohomology_init = homalg.Cohomology.__init__

    def recording_init(self, c, check=True):
        record["complexes"].append(c)
        cohomology_init(self, c, check)

    level = model.ModelInstance.filtration_level
    intersect = model.intersect

    def counting_intersect(a, b):
        record["intersects"] += 1
        return intersect(a, b)

    def recording_level(self, p, degree):
        before = record["intersects"]
        space = level(self, p, degree)
        if record["intersects"] > before:
            record["levels"][(p, degree)] += 1
        return space

    monkeypatch.setattr(homalg.Cohomology, "__init__", recording_init)
    monkeypatch.setattr(model, "intersect", counting_intersect)
    monkeypatch.setattr(model.ModelInstance, "filtration_level", recording_level)
    return record


def test_every_object_is_built_once(tmp_path, builds):
    for argv in commands(tmp_path):
        builds["complexes"].clear()
        builds["levels"].clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        per_complex = collections.Counter(id(c) for c in builds["complexes"])
        assert max(per_complex.values(), default=0) == 1, argv
        twice = [key for key, n in builds["levels"].items() if n > 1]
        assert not twice, (argv, twice)
