"""End-to-end and per-module benchmark of eqih.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Operations run one at a time in this process, as a closed loop of whole
rounds over the workload's operation list until --seconds have passed.
Each operation is one ``eqih`` command called as ``eqih.cli.main(argv)``
with its output captured (or, for ``roundtrip``, a library load and save);
each command loads its own model file, so eqih's per-model caches start
cold.  Outputs are checked after the timed part.

Times are reported at a reference machine speed.  After every operation
and every set-up the run times a fixed exact elimination (the speed probe);
each time is scaled by REFERENCE_PROBE_S over the median probe time around
it.  The same work's wall time swings by up to 2x for tens of seconds on a
shared machine, and the probe follows those swings.  The result file keeps
the wall-clock figures too.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
round with a round traced by spans around eqih's public functions, for half
of --seconds, and prints the per-module metrics per traced round with the
tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

def import_eqih():
    """A fresh import of eqih from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "eqih" or n.startswith("eqih.")]:
        del sys.modules[name]
    importlib.import_module("eqih.cli")
    mods = {name: sys.modules["eqih." + name]
            for name in ("cli", "fixtures", "model", "perverse", "ratla")}
    return SimpleNamespace(**mods)


def run_op(eqih, op):
    """(exit code, captured stdout, captured stderr) of one operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.kind == "roundtrip":
                eqih.model.save_model(eqih.model.load_model(op.argv[0]), out)
                code = 0
            else:
                code = eqih.cli.main(op.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


# A fixed exact elimination that the benchmark times next to the operations,
# to follow the machine's speed.  On the machines this benchmark runs on, the
# speed of the same pure-Python work swings by up to 2x for tens of seconds
# (other tenants), which no run length within the time budget averages out.
_PROBE_ROWS = [[Fraction((7 * i * i + 3 * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4)
                for j in range(8)] for i in range(7)]
# Probe time at the reference speed: timings are reported in seconds at the
# speed at which one probe takes this long.
REFERENCE_PROBE_S = 0.0025
PROBE_WINDOW = 8


def speed_probe():
    """Wall time of two fixed Gauss-Jordan eliminations over Fraction."""
    t0 = time.perf_counter()
    for _ in range(2):
        m = [row[:] for row in _PROBE_ROWS]
        r = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            m[r] = [x / m[r][c] for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return time.perf_counter() - t0


def at_reference_speed(durations, probes):
    """Each duration scaled by the reference probe time over the median of
    the probes taken around it."""
    out = []
    for i, d in enumerate(durations):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(d * REFERENCE_PROBE_S / statistics.median(near))
    return out


class Loop:
    """Closed-loop runner that keeps the first output of every operation and
    counts later outputs that differ from it."""

    def __init__(self, eqih, ops):
        self.eqih = eqih
        self.ops = ops
        self.first = [None] * len(ops)
        self.durations = []
        self.attempted = 0
        self.failures = []
        self.unstable = 0
        self.round_s = []
        self.probes = []

    def round(self, wrap=None, probe=False):
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            if wrap is None:
                code, out, err = run_op(self.eqih, op)
            else:
                code, out, err = wrap(lambda: run_op(self.eqih, op))
            self.durations.append(time.perf_counter() - t0)
            if probe:
                self.probes.append(speed_probe())
            self.attempted += 1
            if code != 0:
                self.failures.append({"op": op.argv, "code": code, "stderr": err[-2000:]})
            if self.first[i] is None:
                self.first[i] = (code, out)
            elif self.first[i] != (code, out):
                self.unstable += 1

    def run_for(self, seconds):
        """Whole rounds until seconds have passed; returns (rounds, elapsed)."""
        t0 = time.perf_counter()
        rounds = 0
        while True:
            start = time.perf_counter()
            self.round(probe=True)
            self.round_s.append(time.perf_counter() - start)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return rounds, elapsed


def backend(eqih):
    qnum = eqih.ratla.QNUM
    return "%s.%s" % (qnum.__module__, qnum.__name__)


def traced_metrics(loop, seconds):
    """Pairs of one untraced and one traced round until seconds have passed.

    Returns (per-module metrics per traced round, tracer, pairs).  Adjacent
    rounds see the same machine load, so the overhead is the median over
    pairs of traced against untraced round time.
    """
    from spans import Tracer

    tracer = Tracer()
    report_bytes = 0

    def wrap(fn):
        nonlocal report_bytes
        code, out, err = tracer.run_op(fn)
        report_bytes += len(out.encode())
        return code, out, err

    pairs = []
    t_start = time.perf_counter()
    while not pairs or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        loop.round()
        t1 = time.perf_counter()
        tracer.install()
        try:
            loop.round(wrap)
        finally:
            t2 = time.perf_counter()
            tracer.uninstall()
        pairs.append((t1 - t0, t2 - t1))

    n = len(pairs)
    per_round = len(loop.ops) * n

    def mean(total):
        """Per-round value; counts stay whole when every round agrees."""
        return total // n if isinstance(total, int) and total % n == 0 else total / n

    summary = {name: (mean(calls), self_s / n)
               for name, (calls, self_s) in tracer.summary().items()}
    counts = {name: mean(value) for name, value in tracer.counts.items()}
    counts["ratla.rref.max_cells"] = tracer.counts["ratla.rref.max_cells"]
    untraced_s = sum(u for u, _ in pairs)
    traced_s = sum(t for _, t in pairs)
    overhead = statistics.median(100.0 * (t / u - 1.0) for u, t in pairs)

    def calls(name):
        return (summary.get(name, (0, 0.0))[0], "count")

    def self_s(name):
        return (summary.get(name, (0, 0.0))[1], "s")

    hits, misses = counts["model.cache.hits"], counts["model.cache.misses"]
    metrics = {
        "ratla.rref.calls": calls("ratla.rref"),
        "ratla.rref.self_s": self_s("ratla.rref"),
        "ratla.rref.max_cells": (counts["ratla.rref.max_cells"], "count"),
        "ratla.entries_coerced": (counts["ratla.entries_coerced"], "count"),
        "ratla.preimage.calls": calls("ratla.preimage"),
        "ratla.preimage.self_s": self_s("ratla.preimage"),
        "ratla.quotient.calls": calls("ratla.quotient"),
        "ratla.quotient.self_s": self_s("ratla.quotient"),
        "ratla.intersect.self_s": self_s("ratla.intersect"),
        "homalg.cohomology.calls": calls("homalg.cohomology"),
        "homalg.cohomology.self_s": self_s("homalg.cohomology"),
        "homalg.connecting.calls": calls("homalg.connecting"),
        "homalg.connecting.self_s": self_s("homalg.connecting"),
        "homalg.check_exact.self_s": self_s("homalg.check_exact"),
        "model.load.self_s": self_s("model.load"),
        "model.validate.self_s": self_s("model.validate"),
        "model.cache.hits": (hits, "count"),
        "model.cache.misses": (misses, "count"),
        "model.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "perverse.complex.self_s": self_s("perverse.complex"),
        "perverse.euler_map.self_s": self_s("perverse.euler_map"),
        "equivariant.build.calls": calls("equivariant.build"),
        "equivariant.build.self_s": self_s("equivariant.build"),
        "equivariant.cochain_dim": (counts["equivariant.cochain_dim"], "count"),
        "equivariant.gysin.self_s": self_s("equivariant.gysin"),
        "spectral.pages.self_s": self_s("spectral.pages"),
        "spectral.cell.calls": calls("spectral.cell"),
        "spectral.d3_check.self_s": self_s("spectral.d3_check"),
        "spectral.skjelbred.self_s": self_s("spectral.skjelbred"),
        "localize.lambda_u.self_s": self_s("localize.lambda_u"),
        "localize.poly_rank.self_s": self_s("localize.poly_rank"),
        "classify.compare.self_s": self_s("classify.compare"),
        "fixtures.random_model.self_s": self_s("fixtures.random_model"),
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.report_bytes": (mean(report_bytes), "bytes"),
        "trace.spans": (mean(tracer.span_count()), "count"),
        "trace.ops_per_s": (per_round / traced_s, "1/s"),
        "trace.untraced_ops_per_s": (per_round / untraced_s, "1/s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return metrics, tracer, pairs


# ---------------------------------------------------------------------------
# correctness checks, after the timed part


def check_outputs(workload, eqih, loop, docs):
    import checks

    failures = []
    reports = {}
    for op, first in zip(loop.ops, loop.first):
        code, out = first
        if code != 0:
            continue
        if op.kind == "roundtrip":
            failures += checks.roundtrip_failures(Path(op.argv[0]).read_text(), out,
                                                  "roundtrip %s" % op.model)
            continue
        try:
            reports[(op.kind, op.model, op.perversity)] = json.loads(out)
        except json.JSONDecodeError as e:
            failures.append("%s %s: output is not JSON: %s" % (op.kind, op.model, e))
    if loop.unstable:
        failures.append("%d operation outputs differ between rounds" % loop.unstable)

    if workload == "spectral":
        for op in loop.ops:
            rep = reports.get(("spectral", op.model, op.perversity))
            if rep is None:
                continue
            path, doc = docs[op.model]
            side = {}
            for cmd in ("gysin", "equivariant"):
                code, out, _ = run_op(eqih, inputs.Op(cmd, [cmd, str(path), "-p", op.perversity]))
                side[cmd] = json.loads(out) if code == 0 else None
            where = "spectral %s %s" % (op.model, op.perversity)
            if None in side.values():
                failures.append("%s: side reports failed" % where)
                continue
            ih = checks.base_cohomology(doc, checks.perversity_dict(op.perversity))
            failures += checks.spectral_failures(rep, ih, side["gysin"]["cogysin_dims"],
                                                 side["equivariant"]["dims"], where)
    elif workload == "reports":
        expectations = json.loads((ROOT / "tests" / "expectations.json").read_text())
        cone = expectations["fixtures"]["cone2"]["localization"]
        for op in loop.ops:
            where = "%s %s" % (op.model, op.perversity)
            if op.kind == "skjelbred":
                rep = reports.get(("skjelbred", op.model, ""))
                if rep is not None:
                    failures += checks.les_failures(rep["sequence"], "skjelbred " + op.model)
            elif op.kind == "localize":
                reps = {c: reports.get((c, op.model, op.perversity))
                        for c in inputs.REPORT_COMMANDS}
                if None in reps.values():
                    continue
                expected = cone[op.perversity] if op.model == "cone2" else None
                failures += checks.reports_failures(docs[op.model][1], op.perversity, reps,
                                                    expected, where)
    else:
        for op in loop.ops:
            rep = reports.get((op.kind, op.model, op.perversity))
            if rep is None:
                continue
            if op.kind == "validate":
                failures += checks.validate_failures(rep, "validate " + op.model)
            elif op.kind == "compare":
                f1, f2, fiso = (json.loads(Path(p).read_text()) for p in op.extra["files"])
                failures += checks.compare_failures(
                    rep, f1, f2, fiso, op.extra["related"],
                    "compare %s %s" % (op.model, op.extra["other"]))
    return failures


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eqih" / "__init__.py").is_file():
        print("perfbench: no eqih sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = OUT / ("work-%s-%d" % (tag, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag, workdir):
    build = inputs.BUILDERS[args.workload]

    setup_times, setup_wall = [], []

    def setup():
        t0 = time.perf_counter()
        eqih = import_eqih()
        docs, ops = build(eqih, args.seed, workdir)
        wall_s = time.perf_counter() - t0
        probe_s = statistics.median(speed_probe() for _ in range(2 * PROBE_WINDOW + 1))
        setup_wall.append(wall_s)
        setup_times.append(wall_s * REFERENCE_PROBE_S / probe_s)
        return eqih, docs, ops

    # half the set-up samples before the timed part and half after it, so
    # that setup_s spans the run as the timed metrics do
    for _ in range(SETUP_REPEATS):
        eqih, docs, ops = setup()
    if Path(eqih.cli.__file__).resolve().parent != (SRC / "eqih").resolve():
        print("perfbench: eqih imported from %s, not %s" % (eqih.cli.__file__, SRC),
              file=sys.stderr)
        return 2

    loop = Loop(eqih, ops)
    wall = {}
    if args.trace:
        t0 = time.perf_counter()
        metrics, tracer, pairs = traced_metrics(loop, args.seconds / 2)
        elapsed = time.perf_counter() - t0
        rounds = 2 * len(pairs)
        tracer.write(OUT / ("spans-%s.tsv" % tag))
        patched = tracer.patched_namespaces
    else:
        rounds, elapsed = loop.run_for(args.seconds)
        patched, pairs = {}, []
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # a fresh import replaces eqih's modules, and the old ones would mix
        # classes with the new ones, so the checks use the last import
        for _ in range(SETUP_REPEATS):
            eqih, docs, _ = setup()
        op_s = at_reference_speed(loop.durations, loop.probes)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (statistics.median(op_s), "s"),
            "ops_per_s": (loop.attempted / sum(op_s), "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        wall = {"setup_s": statistics.median(setup_wall),
                "op_s_p50": statistics.median(loop.durations),
                "ops_per_s": loop.attempted / sum(loop.durations),
                "probe_s_p50": statistics.median(loop.probes)}

    t0 = time.perf_counter()
    try:
        check_failures = check_outputs(args.workload, eqih, loop, docs)
    except Exception:
        check_failures = ["checker raised:\n" + traceback.format_exc()]
    check_s = time.perf_counter() - t0
    correct = not check_failures
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend(eqih),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "ops_per_round": len(ops), "rounds": rounds, "timed_s": elapsed,
        "round_s": loop.round_s, "trace_pairs_s": pairs, "check_s": check_s,
        "op_samples": len(loop.durations), "setup_samples_s": setup_times,
        "wall_clock": wall, "reference_probe_s": REFERENCE_PROBE_S,
        "attempted": loop.attempted, "failed": len(loop.failures),
        "failures": loop.failures[:20], "check_failures": check_failures[:50],
        "correct": correct, "patched": patched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s.json" % tag)).write_text(json.dumps(result, indent=1) + "\n")

    print("workload %s seed %d trace %d: backend %s, Python %s, %s CPUs" % (
        args.workload, args.seed, args.trace, result["backend"], result["python"],
        result["cpu_count"]))
    print("%d operations per round, %d rounds in %.2f s, %d attempted, %d failed, "
          "%d check failures; op_s_p50 over %d samples" % (
              len(ops), rounds, elapsed, loop.attempted, len(loop.failures),
              len(check_failures), len(loop.durations)))
    for msg in check_failures[:20]:
        print("  check failed: %s" % msg)
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    for name, value in wall.items():
        print("  wall clock %-19s %14.6g" % (name, value))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
