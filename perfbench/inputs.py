"""Workload inputs: model documents, the operations run on them, and the
seeded change of basis that makes each seed's documents different.

The model population of each workload is fixed (the four fixtures and a
fixed ladder of generator seeds per size).  The workload seed draws, for
every model, an integral change of basis of its ambient complex.  Every
seed therefore computes the same invariants from different matrices: the
work per run stays comparable between seeds, and every reported dimension
and rank must be the same on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

FIXTURES = ("hopf", "rot", "cone2", "noperv")

# (size, generator seed) ladders, the first seeds of each size
SPECTRAL_RANDOM = [(2, g) for g in range(4)] + [(3, g) for g in range(2)]
REPORTS_RANDOM = [(size, g) for size in (2, 3, 4) for g in range(2)] + [(6, 0)]
# sizes above the ladder whose Euler-operator system has 100-150 rows
INGEST_GENERATED = [(9, 3), (10, 11), (11, 8), (12, 3), (13, 2), (13, 6)]
INGEST_DOCUMENTS = [(size, 0) for size in (2, 3, 4, 6)]
INGEST_COMPARE = [(2, 0), (2, 1), (3, 0), (3, 1)]

REPORT_COMMANDS = ("cohomology", "gysin", "equivariant", "localize")


@dataclass
class Op:
    """One operation: a CLI argv, or a library round trip of one file."""

    kind: str
    argv: list
    model: str = ""
    perversity: str = ""
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact integral change of basis on model documents


def _unimodular(rng, n):
    """Random integral matrix of determinant +-1 with its inverse."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    if n == 1:
        if rng.random() < 0.5:
            m, inv = [[Fraction(-1)]], [[Fraction(-1)]]
        return m, inv
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # m <- E m with E adding c * row j to row i; inv <- inv E^-1
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    return m, inv


def _mul(a, b, ncols):
    return [[sum((row[t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(ncols)] for row in a]


def _apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _strs(mat):
    return [[str(x) for x in row] for row in mat]


def change_basis(doc, rng, witness=None):
    """(document of an isomorphic model, iso document).

    The new model has ambient basis f^-1 of the old one, so the iso matrices
    f_k map the new model's degree-k space onto the old one's and form an
    optimal chain isomorphism.  With a degree-1 witness gamma of the old
    model, the new Euler cocycle is moved by f^-1(d gamma), so the two
    models stay related with that witness.
    """
    top = doc["top_degree"]
    dims = doc["dims"]

    def dim(k):
        return dims[k] if 0 <= k <= top else 0

    f, finv = {}, {}
    for k in range(top + 1):
        f[k], finv[k] = _unimodular(rng, dims[k])

    def conj(rows, src, tgt):
        if dim(tgt) == 0:
            return []
        if dim(src) == 0:
            return [[] for _ in range(dim(tgt))]
        return _mul(_mul(finv[tgt], _frac_matrix(rows), dim(src)), f[src], dim(src))

    out = dict(doc)
    out["d"] = [_strs(conj(doc["d"][k], k, k + 1)) for k in range(top + 1)]
    out["euler_op"] = [_strs(conj(doc["euler_op"][k], k, k + 2))
                       for k in range(top + 1)]
    eps = [Fraction(x) for x in doc["euler_cocycle"]]
    if witness is not None and dim(2):
        d1 = _frac_matrix(doc["d"][1])
        eps = [e + x for e, x in zip(eps, _apply(d1, witness))]
    out["euler_cocycle"] = [str(x) for x in _apply(finv[2], eps)] if dim(2) else []
    out["filtrations"] = {
        name: {level: [[[str(x) for x in _apply(finv[deg], _frac_matrix([v])[0])]
                        for v in vecs] for deg, vecs in enumerate(per_degree)]
               for level, per_degree in levels.items()}
        for name, levels in doc["filtrations"].items()}
    if "product" in doc:
        prod = {}
        for key, rows in doc["product"].items():
            i, j = (int(x) for x in key.split(","))
            n = dim(i) * dim(j)
            if dim(i + j) == 0 or n == 0:
                prod[key] = rows
                continue
            kron = [[f[i][a][x] * f[j][b][y]
                     for x in range(dim(i)) for y in range(dim(j))]
                    for a in range(dim(i)) for b in range(dim(j))]
            prod[key] = _strs(_mul(_mul(finv[i + j], _frac_matrix(rows), n), kron, n))
        out["product"] = prod
    iso = {"mats": {str(k): _strs(f[k]) for k in range(top + 1)},
           "strata": {s["name"]: s["name"] for s in doc["strata"]}}
    return out, iso


# ---------------------------------------------------------------------------
# documents and operations per workload


def perversity_args(doc):
    return [",".join("%s=%d" % kv for kv in sorted(p.items()))
            for p in doc["perversities"]]


def _base_doc(eqih, spec):
    if isinstance(spec, str):
        return eqih.model.model_to_dict(eqih.fixtures.make(spec))
    size, gen = spec
    return eqih.model.model_to_dict(eqih.fixtures.random_model(gen, size))


def _write(eqih, doc, path):
    """Write a document the way eqih saves it (canonical bases) and return
    the written document."""
    m = eqih.model.model_from_dict(doc)
    eqih.model.save_model(m, str(path))
    return eqih.model.model_to_dict(m)


def _seeded_docs(eqih, specs, rng, workdir):
    """{name: (path, document as written)} for every spec, after a seeded
    change of basis."""
    out = {}
    for spec in specs:
        doc, _ = change_basis(_base_doc(eqih, spec), rng)
        path = workdir / ("%s.json" % doc["name"])
        out[doc["name"]] = (path, _write(eqih, doc, path))
    return out


def build_spectral(eqih, seed, workdir):
    rng = random.Random("spectral-%d" % seed)
    docs = _seeded_docs(eqih, list(FIXTURES) + SPECTRAL_RANDOM, rng, workdir)
    ops = []
    for name, (path, doc) in docs.items():
        for perv in perversity_args(doc):
            ops.append(Op("spectral", ["spectral", str(path), "-p", perv, "--d3-check"],
                          name, perv))
    return docs, ops


def build_reports(eqih, seed, workdir):
    rng = random.Random("reports-%d" % seed)
    docs = _seeded_docs(eqih, list(FIXTURES) + REPORTS_RANDOM, rng, workdir)
    ops = []
    for name, (path, doc) in docs.items():
        for perv in perversity_args(doc):
            for cmd in REPORT_COMMANDS:
                argv = [cmd, str(path), "-p", perv]
                if cmd == "localize" and name == "cone2":
                    argv.append("--cone-check")
                ops.append(Op(cmd, argv, name, perv))
        ops.append(Op("skjelbred", ["skjelbred", str(path)], name))
    return docs, ops


def build_ingest(eqih, seed, workdir):
    rng = random.Random("ingest-%d" % seed)
    docs = _seeded_docs(eqih, list(FIXTURES) + INGEST_DOCUMENTS, rng, workdir)
    ops = []
    for size, gen in INGEST_GENERATED:
        path = workdir / ("generated-%d-%d.json" % (gen, size))
        ops.append(Op("fixture", ["fixture", "random", "--seed", str(gen), "--size",
                                  str(size), "-o", str(path)], path.stem))
        ops.append(Op("validate", ["validate", "--strict", str(path)], path.stem))
        ops.append(Op("roundtrip", [str(path)], path.stem))
    for name, (path, _) in docs.items():
        ops.append(Op("validate", ["validate", "--strict", str(path)], name))
        ops.append(Op("roundtrip", [str(path)], name))

    pairs = _compare_pairs(eqih, rng, workdir)
    for name1, name2, path1, path2, iso_path, related in pairs:
        for name, path in ((name1, path1), (name2, path2)):
            ops.append(Op("validate", ["validate", "--strict", str(path)], name))
        ops.append(Op("compare", ["compare", str(path1), str(path2), "--iso", str(iso_path)],
                      name1, extra={"other": name2, "related": related,
                                    "files": (str(path1), str(path2), str(iso_path))}))
    return docs, ops


def _admissible_witness(eqih, rng, doc):
    """A random admissible degree-1 form (Euler perversity), or None when
    that space is zero."""
    m = eqih.model.model_from_dict(doc)
    space = eqih.perverse.perverse_complex(m, m.euler_perversity()).omega_spaces.get(1)
    if space is None or space.dim == 0:
        return None
    gamma = [Fraction(0)] * space.ambient_dim
    for v in space.vectors():
        c = rng.choice((-2, -1, 1, 2))
        gamma = [g + c * Fraction(x) for g, x in zip(gamma, v)]
    return gamma


def _compare_pairs(eqih, rng, workdir):
    """(name1, name2, path1, path2, iso path, related) per pair.

    Each random model is compared with a second change of basis of itself
    whose Euler cocycle is moved by d(gamma) for an admissible gamma, so
    the pair is optimal and related by construction.  hopf against rot
    through the identity is optimal and not related.
    """
    pairs = []
    for spec in INGEST_COMPARE:
        doc1, _ = change_basis(_base_doc(eqih, spec), rng)
        doc1["name"] = "cmp-" + doc1["name"]
        gamma = _admissible_witness(eqih, rng, doc1)
        doc2, iso = change_basis(doc1, rng, witness=gamma)
        doc2["name"] = doc1["name"] + "-moved"
        paths = [workdir / ("%s.json" % d["name"]) for d in (doc1, doc2)]
        for d, p in zip((doc1, doc2), paths):
            _write(eqih, d, p)
        iso_path = workdir / ("%s.iso.json" % doc1["name"])
        iso_path.write_text(json.dumps(iso))
        pairs.append((doc1["name"], doc2["name"], paths[0], paths[1], iso_path, True))
    for name in ("hopf", "rot"):
        _write(eqih, _base_doc(eqih, name), workdir / ("plain-%s.json" % name))
    iso_path = workdir / "hopf-rot.iso.json"
    iso_path.write_text(json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]]},
                                    "strata": {}}))
    pairs.append(("plain-hopf", "plain-rot", workdir / "plain-hopf.json",
                  workdir / "plain-rot.json", iso_path, False))
    return pairs


BUILDERS = {"spectral": build_spectral, "reports": build_reports, "ingest": build_ingest}
