"""The benchmark's tracer wraps eqih functions and methods by name; every
name it lists must still exist, or a traced run breaks."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_resolve(spans):
    for name, (modname, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_method_targets_resolve(spans):
    for name, (modname, cls_name, attr) in spans.METHODS.items():
        cls = getattr(importlib.import_module(modname), cls_name, None)
        assert isinstance(cls, type), name
        assert callable(getattr(cls, attr, None)), name


def test_tracer_installs_and_records(spans):
    import eqih.cli  # noqa: F401  (loads every eqih module the tracer patches)
    from eqih.fixtures import hopf
    from eqih.localize import localize
    from eqih.model import Perversity

    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.run_op(lambda: localize(hopf(), Perversity({})))
    finally:
        tracer.uninstall()
    assert all(tracer.patched_namespaces[name] for name in spans.FUNCTIONS)
    calls = {name: c for name, (c, _) in tracer.summary().items()}
    assert calls["localize.lambda_u"] == 1
