"""The benchmark's tracer wraps eqih functions and methods by name; every
name it lists must still exist, or a traced run breaks."""

import contextlib
import importlib
import importlib.util
import io
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
    from eqih import localize
    from eqih.fixtures import hopf
    from eqih.model import Perversity

    tracer = spans.Tracer()
    try:
        tracer.install()
        # read through the module, whose attribute the tracer replaces
        tracer.run_op(lambda: localize.lambda_u_module(hopf(), Perversity({})))
    finally:
        tracer.uninstall()
    assert all(tracer.patched_namespaces[name] for name in spans.FUNCTIONS)
    calls = {name: c for name, (c, _) in tracer.summary().items()}
    assert calls["localize.lambda_u"] == 1


def test_tracer_sees_the_matrix_kernel(spans, tmp_path):
    from eqih.cli import main
    from eqih.fixtures import hopf
    from eqih.model import save_model

    path = str(tmp_path / "hopf.json")
    save_model(hopf(), path)
    tracer = spans.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run_op(lambda: main(["cohomology", path]))
            # a saved document loads with no entry coerced a second time;
            # the random generator coerces its entries through Matrix(...)
            coerced = tracer.counts["ratla.entries_coerced"]
            built = tracer.run_op(lambda: main(["fixture", "random", "--size", "2"]))
    finally:
        tracer.uninstall()
    assert code == 0 and built == 0
    assert tracer.counts["ratla.rref.max_cells"] > 0
    assert coerced == 0 and tracer.counts["ratla.entries_coerced"] > 0
    assert tracer.summary()["ratla.rref"][0] > 0
