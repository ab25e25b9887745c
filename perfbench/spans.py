"""Spans and counters around eqih's public functions and methods.

The tracer patches the loaded eqih modules from the outside: module
functions are replaced in every eqih namespace that bound them (so a
``from .ratla import preimage`` in another module is caught too), and
methods are replaced on their classes.  Every span records its name,
start, end and parent; self time is a span's duration minus the time its
child spans cover.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> (module, attribute) of a module function
FUNCTIONS = {
    "ratla.preimage": ("eqih.ratla", "preimage"),
    "ratla.quotient": ("eqih.ratla", "quotient"),
    "ratla.intersect": ("eqih.ratla", "intersect"),
    "homalg.check_exact": ("eqih.homalg", "check_exact"),
    "model.load": ("eqih.model", "load_model"),
    "model.validate": ("eqih.model", "validate"),
    "perverse.complex": ("eqih.perverse", "perverse_complex"),
    "perverse.euler_map": ("eqih.perverse", "euler_map"),
    "equivariant.gysin": ("eqih.equivariant", "equivariant_gysin_les"),
    "spectral.pages": ("eqih.spectral", "pages"),
    "spectral.d3_check": ("eqih.spectral", "d3_check"),
    "spectral.skjelbred": ("eqih.spectral", "skjelbred"),
    "localize.lambda_u": ("eqih.localize", "lambda_u_module"),
    "classify.is_optimal": ("eqih.classify", "is_optimal"),
    "classify.f_related": ("eqih.classify", "f_related"),
    "classify.consequence_check": ("eqih.classify", "consequence_check"),
    "fixtures.random_model": ("eqih.fixtures", "random_model"),
    "cli.emit": ("eqih.cli", "_emit"),
}

# span name -> (module, class, method)
METHODS = {
    "ratla.rref": ("eqih.ratla", "Matrix", "rref"),
    "homalg.cohomology": ("eqih.homalg", "Cohomology", "__init__"),
    "homalg.connecting": ("eqih.homalg", "SesData", "connecting"),
    "equivariant.build": ("eqih.equivariant", "EquivariantComplex", "__init__"),
    "spectral.cell": ("eqih.spectral", "SpectralSequence", "cell"),
    "localize.poly_rank": ("eqih.localize", "PolyMatrix", "rank"),
}

# spans whose self times add up to one reported metric
GROUPS = {
    "classify.compare": ("classify.is_optimal", "classify.f_related",
                         "classify.consequence_check"),
}


class Tracer:
    """Span recorder and counters for one traced phase."""

    def __init__(self):
        self.names = ["op"]
        self.name_ids = {"op": 0}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.counts = {"ratla.entries_coerced": 0, "ratla.rref.max_cells": 0,
                       "model.cache.hits": 0, "model.cache.misses": 0,
                       "equivariant.cochain_dim": 0}
        self._undo = []
        self.patched_namespaces = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn):
        """fn wrapped in a span called name."""
        nid = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            self.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, fn):
        """Run one operation under a root span."""
        return self.span("op", fn)()

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, name, original, wrapper):
        hits = []
        for modname, mod in list(sys.modules.items()):
            if (modname == "eqih" or modname.startswith("eqih.")) and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
                        hits.append("%s.%s" % (modname, attr))
        self.patched_namespaces[name] = hits

    def install(self):
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            self._patch_function(name, original, self.span(name, original))
        for name, (modname, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, attr, self.span(name, getattr(cls, attr)))
            self.patched_namespaces[name] = ["%s.%s.%s" % (modname, cls_name, attr)]
        self._install_counters()

    def _install_counters(self):
        counts = self.counts
        ratla = sys.modules["eqih.ratla"]
        model = sys.modules["eqih.model"]
        equivariant = sys.modules["eqih.equivariant"]

        matrix_init = ratla.Matrix.__init__

        def counted_init(mat, rows, cols, entries):
            counts["ratla.entries_coerced"] += rows * cols
            matrix_init(mat, rows, cols, entries)

        self._set(ratla.Matrix, "__init__", counted_init)

        rref = ratla.Matrix.rref

        def sized_rref(mat):
            cells = mat.rows * mat.cols
            if cells > counts["ratla.rref.max_cells"]:
                counts["ratla.rref.max_cells"] = cells
            return rref(mat)

        self._set(ratla.Matrix, "rref", sized_rref)

        cached = model.ModelInstance.cached

        def counted_cached(instance, key, thunk):
            if key in instance._cache:
                counts["model.cache.hits"] += 1
            else:
                counts["model.cache.misses"] += 1
            return cached(instance, key, thunk)

        self._set(model.ModelInstance, "cached", counted_cached)

        eq_init = equivariant.EquivariantComplex.__init__

        def measured_init(eq, *args, **kwargs):
            eq_init(eq, *args, **kwargs)
            counts["equivariant.cochain_dim"] += sum(eq.complex.dims)

        self._set(equivariant.EquivariantComplex, "__init__", measured_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def span_count(self):
        return len(self.span_name)

    def summary(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        names = self.span_name
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        out = {name: (calls[nid], self_s[nid]) for name, nid in self.name_ids.items()}
        for group, members in GROUPS.items():
            out[group] = (sum(out.get(m, (0, 0.0))[0] for m in members),
                          sum(out.get(m, (0, 0.0))[1] for m in members))
        return out

    def write(self, path):
        """Spans as tab-separated lines: index, name, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    i, names[self.span_name[i]], self.span_parent[i],
                    self.span_start[i], self.span_end[i]))
