"""Report bytes guard.

Every report command on the four fixtures and one random model, run through
``cli.main``, must print the same stdout bytes and exit with the same code as
recorded in ``report_digests.json``.  Per model and perversity the commands
are ``cohomology``, ``gysin``, ``equivariant`` (default window and
``--nu 3``), ``spectral --d3-check`` and ``localize`` (with ``--cone-check``
on cone2); ``skjelbred`` runs once per model.  A few larger random models
are guarded by their ``localize`` reports alone, at every perversity, a few
small ones by their ``spectral --d3-check`` reports alone, and a few
commands read degrees or pages far past where the reports change (``WIDE``,
and ``equivariant --nu 40`` at every fixture perversity).  The family
members of degree 4 and 6 are guarded at every perversity: ``cone(2)`` and
``cone(3)`` by ``spectral --d3-check``, ``equivariant`` and ``localize
--cone-check``, and ``sphere(2, 1)`` and ``sphere(2, 0)`` by ``equivariant``
and ``localize``.

The saved model documents of the seeded generator are guarded the same way:
the kernel bases that ``fixtures.random_model`` solves for decide the bytes
it writes, so a change to exact elimination that altered a basis shows here.

Regenerate the digests, only when a report change is intended, with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from eqih import fixtures
from eqih.cli import main
from eqih.model import save_model

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")

# model token used in the command keys -> fixtures.make arguments
MODELS = {
    "hopf": ("hopf", {}),
    "rot": ("rot", {}),
    "cone2": ("cone2", {}),
    "noperv": ("noperv", {}),
    "random-121-3": ("random", {"seed": 121, "size": 3}),
}

# model token -> fixtures.make arguments, for the models run through
# ``localize`` only
LOCALIZE_MODELS = {
    "random-%d-%d" % (seed, size): ("random", {"seed": seed, "size": size})
    for size in (4, 6) for seed in (0, 1)
}

# model token -> fixtures.make arguments, for the models run through
# ``spectral --d3-check`` only: small random models with non-zero d_r bases
SPECTRAL_MODELS = {
    "random-%d-2" % seed: ("random", {"seed": seed, "size": 2})
    for seed in range(4)
}

# model token -> (family member past n = 1, the commands that guard it at
# every perversity); their digests come from the engine as it was before the
# families were added, run on the documents the families write
CONE_COMMANDS = (["spectral", "--d3-check"], ["equivariant"], ["localize", "--cone-check"])
SPHERE_COMMANDS = (["equivariant"], ["localize"])
FAMILY_MODELS = {
    "cone4": (lambda: fixtures.cone(2), CONE_COMMANDS),
    "cone6": (lambda: fixtures.cone(3), CONE_COMMANDS),
    "sphere5-e1": (lambda: fixtures.sphere(2, 1), SPHERE_COMMANDS),
    "sphere5-e0": (lambda: fixtures.sphere(2, 0), SPHERE_COMMANDS),
}

# argv lists whose window or page count reaches well past the top degree
# and the limit page
WIDE = [
    ["spectral", "cone2", "-p", "apex=2", "--pages", "12"],
    ["equivariant", "hopf", "--nu", "12"],
    ["equivariant", "cone2", "-p", "apex=2", "--nu", "1000"],
]

# model tokens whose ``equivariant`` reports are also guarded at ``--nu 40``,
# at every perversity
WIDE_EQUIVARIANT_MODELS = ["hopf", "rot", "cone2", "noperv"]

# (size, seed) of the generated documents whose saved bytes are recorded
GENERATED = [(9, 3), (10, 11), (11, 8), (12, 3), (13, 2), (13, 6),
             (16, 0), (20, 3), (20, 10)]


def commands():
    """argv lists with the model token in place of the model file."""
    out = []
    for token, (name, kwargs) in MODELS.items():
        m = fixtures.make(name, **kwargs)
        for p in m.perversity_set:
            perv = ["-p", p.label()] if p.items else []
            out += [
                ["cohomology", token] + perv,
                ["gysin", token] + perv,
                ["equivariant", token] + perv,
                ["equivariant", token] + perv + ["--nu", "3"],
                ["spectral", token] + perv + ["--d3-check"],
                ["localize", token] + perv
                + (["--cone-check"] if token == "cone2" else []),
            ]
        out.append(["skjelbred", token])
    for token in WIDE_EQUIVARIANT_MODELS:
        name, kwargs = MODELS[token]
        for p in fixtures.make(name, **kwargs).perversity_set:
            out.append(["equivariant", token]
                       + (["-p", p.label()] if p.items else []) + ["--nu", "40"])
    for token, (name, kwargs) in LOCALIZE_MODELS.items():
        m = fixtures.make(name, **kwargs)
        for p in m.perversity_set:
            out.append(["localize", token]
                       + (["-p", p.label()] if p.items else []))
    for token, (name, kwargs) in SPECTRAL_MODELS.items():
        m = fixtures.make(name, **kwargs)
        for p in m.perversity_set:
            out.append(["spectral", token]
                       + (["-p", p.label()] if p.items else []) + ["--d3-check"])
    for token, (build, family_commands) in FAMILY_MODELS.items():
        for p in build().perversity_set:
            perv = ["-p", p.label()] if p.items else []
            out += [[command, token] + perv + rest for command, *rest in family_commands]
    return out + WIDE


def generated_keys():
    return {"saved random --size %d --seed %d" % (size, seed): (size, seed)
            for size, seed in GENERATED}


def _saved_model_sha(size, seed):
    out = io.StringIO()
    save_model(fixtures.make("random", seed=seed, size=size), out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _write_models(directory):
    paths = {}
    for token, (name, kwargs) in {**MODELS, **LOCALIZE_MODELS,
                                  **SPECTRAL_MODELS}.items():
        paths[token] = os.path.join(directory, token + ".json")
        save_model(fixtures.make(name, **kwargs), paths[token])
    for token, (build, _) in FAMILY_MODELS.items():
        paths[token] = os.path.join(directory, token + ".json")
        save_model(build(), paths[token])
    return paths


def _run(argv, paths):
    """(sha256 of stdout, exit code) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([paths.get(a, a) for a in argv])
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def _load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    return _write_models(str(tmp_path_factory.mktemp("digest_models")))


def test_digest_set_covers_every_command():
    want = [" ".join(a) for a in commands()] + list(generated_keys())
    assert sorted(_load_digests()) == sorted(want)


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_report_bytes_unchanged(model_paths, argv):
    want = _load_digests()[" ".join(argv)]
    assert _run(argv, model_paths) == (want["sha256"], want["exit"])


@pytest.mark.parametrize("key", sorted(generated_keys()))
def test_generated_model_bytes_unchanged(key):
    size, seed = generated_keys()[key]
    assert _saved_model_sha(size, seed) == _load_digests()[key]["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_models(tmp)
        table = {}
        for argv in commands():
            sha, code = _run(argv, paths)
            table[" ".join(argv)] = {"sha256": sha, "exit": code}
    for key, (size, seed) in generated_keys().items():
        table[key] = {"sha256": _saved_model_sha(size, seed)}
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(table), DIGESTS))
