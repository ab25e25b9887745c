"""Command-line front end: load and validate models, run each computation,
and emit deterministic JSON reports (schema ``eqih-report/1``).

Every command goes through main: it loads the model file and parses -p
where the command takes them, calls the command's _cmd_* function with
both, and emits the report: schema, command, then model and perversity
where they apply, then the body the command returned.

Exit codes: 0 all checks pass, 1 a verified structural property failed
(engine bug or theorem violation), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fixtures
from .classify import ModelIso, compare
from .equivariant import (
    build_equivariant,
    default_window,
    eq1_cohomology,
    equivariant_gysin_les,
    gysin_les,
    truncation_stable,
)
from .errors import EqihError, InputError, PropertyViolation
from .localize import cone_formula_check, lambda_u_module, localized_gysin
from .model import (
    Perversity,
    int_from_text,
    json_text,
    load_json,
    load_model,
    mat_from_json,
    mat_to_json,
    model_to_dict,
    save_model,
    validate,
)
from .perverse import (
    ambient_complexes,
    cogysin_cohomology,
    cogysin_les,
    euler_map,
    gysin_cohomology,
    omega_cohomology,
)
from .spectral import (
    d3_check,
    fixed_point_preconditions,
    pages,
    skjelbred,
)

SCHEMA = "eqih-report/1"

# the largest --nu and --pages a command accepts: reports grow linearly in
# both, and every listed value repeats with period 2 past the top degree
MAX_WINDOW = 1000


# ---------------------------------------------------------------------------
# serialization helpers


def _les_json(seq):
    return {
        "nodes": [{"label": lab, "dim": dim}
                  for lab, dim in zip(seq.labels, seq.dims)],
        "maps": [mat_to_json(m) for m in seq.maps],
        "exact": seq.exact,
    }


def _perversity(arg: str, m) -> Perversity:
    arg = (arg or "").strip()
    values = {}
    # "()" is the label of the empty perversity, which headers print
    if arg and arg != "()":
        for piece in arg.split(","):
            if "=" not in piece:
                raise InputError(
                    "perversity entries must look like stratum=int: %r" % piece)
            key, _, val = piece.partition("=")
            key = key.strip()
            if key in values:
                raise InputError("perversity gives stratum %r twice" % key)
            values[key] = int_from_text(val, "perversity value")
    p = Perversity(values)
    m.check_perversity(p)
    return p


def _input(path):
    """A file argument: the path, or stdin for -."""
    return sys.stdin if path == "-" else path


def _emit(report, human=False, stream=None):
    stream = stream or sys.stdout
    if human:
        _emit_human(report, stream)
    else:
        stream.write(json_text(report, 2) + "\n")


def _emit_human(node, stream, indent=0):
    pad = "  " * indent
    if isinstance(node, dict):
        for key, val in node.items():
            if isinstance(val, (dict, list)) and val:
                stream.write("%s%s:\n" % (pad, key))
                _emit_human(val, stream, indent + 1)
            else:
                stream.write("%s%s: %s\n" % (pad, key, json.dumps(val)))
    elif isinstance(node, list):
        for val in node:
            if isinstance(val, (dict, list)):
                _emit_human(val, stream, indent)
                stream.write("\n" if indent == 0 else "")
            else:
                stream.write("%s- %s\n" % (pad, json.dumps(val)))
    else:
        stream.write("%s%s\n" % (pad, json.dumps(node)))


# ---------------------------------------------------------------------------
# subcommands: each takes the loaded model m (or None), the parsed
# perversity p (or None) and the arguments, and returns (body, exit code)


def _cmd_validate(m, p, args):
    checks = validate(m, strict=args.strict)
    passed = all(c["passed"] for c in checks)
    return {"strict": args.strict, "checks": checks, "passed": passed}, 0 if passed else 2


def _cmd_cohomology(m, p, args):
    return {"base_dims": list(omega_cohomology(m, p).dims()),
            "total_dims": list(eq1_cohomology(m, p).dims())}, 0


def _cmd_gysin(m, p, args):
    eub = euler_map(m, p)
    top = m.ambient.top_degree
    gles = gysin_les(m, p)
    kles = cogysin_les(m, p)
    body = {
        "gysin_dims": list(gysin_cohomology(m, p).dims()),
        "cogysin_dims": list(cogysin_cohomology(m, p).dims()),
        "euler_maps": {str(k): mat_to_json(eub.mat(k)) for k in range(top + 1)},
        "gysin_les": _les_json(gles),
        "cogysin_les": _les_json(kles),
    }
    return body, 0 if gles.exact and kles.exact else 1


def _cmd_equivariant(m, p, args):
    n_u = args.nu if args.nu is not None else default_window(m)
    if not 1 <= n_u <= MAX_WINDOW:
        raise InputError("--nu must be between 1 and %d, not %d" % (MAX_WINDOW, n_u))
    eq = build_equivariant(m, p)
    seq, decomposition = equivariant_gysin_les(m, p, n_u)
    return {
        "window": n_u,
        "dims": list(eq.dims(n_u)),
        "u_ranks": list(eq.u_ranks(n_u)),
        "les": _les_json(seq),
        "les_checks": {**decomposition, "exactness": seq.exactness, "exact": seq.exact},
    }, 0 if seq.exact else 1


def _cmd_spectral(m, p, args):
    if args.pages is not None and not 1 <= args.pages <= MAX_WINDOW:
        raise InputError("--pages must be between 1 and %d, not %d"
                         % (MAX_WINDOW, args.pages))
    pgs, limit = pages(m, p, r_max=args.pages)
    body = {
        "pages": [{
            "r": pg.r,
            "cells": {"%d,%d" % c: d for c, d in sorted(pg.cells.items())},
            "differentials": {"%d,%d" % c: mat_to_json(mat)
                              for c, mat in sorted(pg.differentials.items())
                              if not mat.is_zero()},
        } for pg in pgs],
        "limit": {"%d,%d" % c: d for c, d in sorted(limit.items())},
    }
    if args.d3_check:
        body["d3"] = d3_check(m, p)
    return body, 0


def _cmd_skjelbred(m, p, args):
    seq = skjelbred(m)
    return {
        "preconditions": fixed_point_preconditions(m),
        "sequence": _les_json(seq),
        "checks": seq.exactness,
    }, 0


def _cmd_localize(m, p, args):
    il = lambda_u_module(m, p)
    body = {
        "ranks": {"even": il.even_rank, "odd": il.odd_rank},
        "gysin": localized_gysin(m, p),
    }
    if args.cone_check:
        body["cone"] = cone_formula_check(m, p)
    ok = not args.cone_check or body["cone"]["match"]
    return body, 0 if ok else 1


def _load_iso(path):
    data = load_json(_input(path))
    if not isinstance(data, dict):
        raise InputError("iso document must be a JSON object")
    raw = data.get("mats", {})
    if not isinstance(raw, dict):
        raise InputError("iso field 'mats' must map degrees to matrices")
    mats = {}
    for key, rows in raw.items():
        degree = int_from_text(key, "iso degree")
        if degree in mats:
            raise InputError("iso degree %r repeats degree %d" % (key, degree))
        mats[degree] = mat_from_json(rows, None, None, ("iso matrix for degree %s", key))
    strata = data.get("strata", {})
    if not isinstance(strata, dict) or not all(isinstance(v, str) for v in strata.values()):
        raise InputError("iso field 'strata' must map stratum names to stratum names")
    return ModelIso(mats, strata)


def _cmd_compare(m, p, args):
    if [args.file1, args.file2, args.iso].count("-") > 1:
        raise InputError("stdin (-) given more than once: it can be read only once")
    m1 = load_model(_input(args.file1))
    m2 = load_model(_input(args.file2))
    for m in (m1, m2):
        ambient_complexes(m)  # refuses a model that fails an axiom
    return {"models": [m1.name, m2.name], **compare(_load_iso(args.iso), m1, m2)}, 0


def _cmd_fixture(m, p, args):
    m = fixtures.make(args.name, seed=args.seed, size=args.size)
    if args.output:
        save_model(m, args.output)
        return {"model": m.name, "written": args.output}, 0
    _emit(model_to_dict(m), human=False)
    return None, 0


def _cmd_selftest(m, p, args):
    if args.seeds < 0:
        raise InputError("--seeds must be at least 0, not %d" % args.seeds)
    models = [build() for build in fixtures.FIXTURES.values()]
    models += [m for n in (2, 3) for m in (fixtures.sphere(n, 1), fixtures.sphere(n, 0),
                                            fixtures.cone(n))]
    models += [fixtures.random_model(seed) for seed in range(args.seeds)]
    counters = {
        "models": len(models),
        "validations": 0,
        "oracle_agreements": 0,
        "exact_sequences": 0,
        "spectral_suites": 0,
        "d3_checks": 0,
        "localizations": 0,
        "truncation_stable": 0,
    }
    for m in models:
        checks = validate(m, strict=True)
        if not all(c["passed"] for c in checks):
            raise PropertyViolation("fixture %r fails validation" % m.name)
        counters["validations"] += 1
        if all(c["passed"] for c in fixed_point_preconditions(m)):
            skjelbred(m)
            counters["exact_sequences"] += 1
        for p in m.perversity_set:
            eq = build_equivariant(m, p)
            oracle = fixtures.oracle_cohomology(m, p, eq.n_u)
            if eq.dims() != oracle["dims"] or eq.u_ranks() != oracle["u_ranks"]:
                raise PropertyViolation(
                    "oracle disagreement on %r at %s" % (m.name, p.label()))
            counters["oracle_agreements"] += 1
            for seq in (gysin_les(m, p), cogysin_les(m, p), equivariant_gysin_les(m, p)[0]):
                if not seq.exact:
                    raise PropertyViolation(
                        "inexact sequence on %r at %s" % (m.name, p.label()))
                counters["exact_sequences"] += 1
            pages(m, p)
            counters["spectral_suites"] += 1
            rep = d3_check(m, p)
            if not rep["all_equal"]:
                raise PropertyViolation("third-differential mismatch")
            counters["d3_checks"] += 1
            localized_gysin(m, p)
            counters["localizations"] += 1
            if not truncation_stable(m, p):
                raise PropertyViolation("truncation instability")
            counters["truncation_stable"] += 1
    return {"seeds": args.seeds, "checks": counters, "passed": True}, 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser():
    """The argument parser and its map from command name to subparser,
    built once per process: parsing changes neither."""
    parser = argparse.ArgumentParser(
        prog="eqih",
        description="Exact computations for circle actions on stratified "
                    "models: perverse, equivariant, and localized "
                    "intersection cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, model_arg=True, perv=False):
        sp = sub.add_parser(name, help=help_text)
        if model_arg:
            sp.add_argument("file", help="model file (JSON), or - for stdin")
        if perv:
            sp.add_argument("-p", "--perversity", default="",
                            help="comma-separated stratum=int assignments")
        sp.add_argument("--human", action="store_true",
                        help="pretty text output instead of JSON")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, "check the model axioms")
    sp.add_argument("--strict", action="store_true")

    add("cohomology", _cmd_cohomology,
        "perverse cohomology of the orbit space and the total model",
        perv=True)
    add("gysin", _cmd_gysin,
        "Gysin/co-Gysin terms, Euler maps, and both long exact sequences",
        perv=True)

    sp = add("equivariant", _cmd_equivariant,
             "equivariant cohomology, u-ranks and Gysin sequence, exact "
             "in every listed degree", perv=True)
    sp.add_argument("--nu", type=int, default=None,
                    help="highest degree to list (1 to %d, default top + 6)"
                    % MAX_WINDOW)

    sp = add("spectral", _cmd_spectral,
             "spectral sequence pages of the u-power filtration", perv=True)
    sp.add_argument("--pages", type=int, default=None,
                    help="highest page to report (1 to %d)" % MAX_WINDOW)
    sp.add_argument("--d3-check", action="store_true",
                    help="verify the closed form of the third differential")

    add("skjelbred", _cmd_skjelbred,
        "fixed-point long exact sequence at the zero perversity")

    sp = add("localize", _cmd_localize,
             "ranks of the localized module and the localized Gysin check",
             perv=True)
    sp.add_argument("--cone-check", action="store_true",
                    help="compare with the cone formula (needs cone metadata)")

    sp = add("compare", _cmd_compare, "compare two models through an isomorphism file",
             model_arg=False)
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--iso", required=True,
                    help="JSON with per-degree matrices and a stratum map")

    sp = add("fixture", _cmd_fixture, "emit a named fixture model", model_arg=False)
    sp.add_argument("name", help="%s, or random" % ", ".join(fixtures.FIXTURES))
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=2)

    sp = add("selftest", _cmd_selftest, "run the full invariant suite", model_arg=False)
    sp.add_argument("--seeds", type=int, default=10,
                    help="number of seeded random models (at least 0)")

    return parser, sub.choices


def main(argv=None) -> int:
    args = _build_parser()[0].parse_args(argv)
    report = {"schema": SCHEMA, "command": args.command}
    try:
        m = p = None
        if "file" in args:
            m = load_model(_input(args.file))
            report["model"] = m.name
        if "perversity" in args:
            p = _perversity(args.perversity, m)
            report["perversity"] = p.label()
        body, code = args.fn(m, p, args)
    except (EqihError, OSError) as e:
        _emit({**report, "error": type(e).__name__, "detail": str(e)}, stream=sys.stderr)
        return 1 if isinstance(e, PropertyViolation) else 2
    if body is not None:
        _emit({**report, **body}, human=args.human)
    return code


if __name__ == "__main__":
    sys.exit(main())
