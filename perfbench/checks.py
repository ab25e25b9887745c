"""Correctness checks on eqih's reports, computed apart from eqih.

Ranks and products come from sympy's exact matrices over QQ.  Every check
returns a list of failure messages; an empty list means the check holds.
Nothing here compares with a stored copy of eqih's own output.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix


def q(x):
    f = Fraction(x)
    return QQ(f.numerator, f.denominator)


def matrix(rows, nrows, ncols):
    """DomainMatrix of a JSON matrix; raises ValueError on a shape mismatch."""
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("matrix is %dx%s, expected %dx%d" % (
            len(rows), len(rows[0]) if rows else "?", nrows, ncols))
    return DomainMatrix([[q(x) for x in r] for r in rows], (nrows, ncols), QQ)


def zeros(nrows, ncols):
    return DomainMatrix.zeros((nrows, ncols), QQ)


def columns(vectors, n):
    """n x len(vectors) matrix with the vectors as columns."""
    return DomainMatrix([[q(v[i]) for v in vectors] for i in range(n)],
                        (n, len(vectors)), QQ)


# ---------------------------------------------------------------------------
# long exact sequences


def les_failures(seq, where):
    """Re-rank a reported long exact sequence: consecutive maps compose to
    zero and rank in + rank out equals the node dimension."""
    dims = [node["dim"] for node in seq["nodes"]]
    out = []
    if len(seq["maps"]) != len(dims) - 1:
        return ["%s: %d maps for %d nodes" % (where, len(seq["maps"]), len(dims))]
    try:
        maps = [matrix(rows, dims[i + 1], dims[i]) for i, rows in enumerate(seq["maps"])]
    except ValueError as e:
        return ["%s: %s" % (where, e)]
    ranks = [m.rank() for m in maps]
    for i in range(1, len(dims) - 1):
        label = seq["nodes"][i]["label"]
        if not (maps[i] * maps[i - 1]).is_zero_matrix:
            out.append("%s: maps around %s do not compose to zero" % (where, label))
        if ranks[i - 1] + ranks[i] != dims[i]:
            out.append("%s: rank in %d + rank out %d != dim %d at %s"
                       % (where, ranks[i - 1], ranks[i], dims[i], label))
    return out


# ---------------------------------------------------------------------------
# the orbit-space intersection cohomology, from the model document


def _annihilator(vectors, n):
    """Rows whose common kernel is the span of the vectors in Q^n."""
    if not vectors:
        return DomainMatrix.eye(n, QQ)
    return DomainMatrix([[q(x) for x in v] for v in vectors], (len(vectors), n),
                        QQ).nullspace()


def _level_constraints(doc, p, k):
    """Constraint rows of F_p^k: the intersection over strata of the level
    p(S) of each stratum filtration, with levels below 0 the zero space and
    levels from the number of stored levels on the full space."""
    n = doc["dims"][k] if 0 <= k <= doc["top_degree"] else 0
    rows = zeros(0, n)
    for s in doc["strata"]:
        levels = doc["filtrations"][s["name"]]
        level = p[s["name"]]
        if level >= len(levels) or n == 0:
            continue
        vecs = [] if level < 0 else levels[str(level)][k]
        rows = DomainMatrix.vstack(rows, _annihilator(vecs, n))
    return rows


def base_cohomology(doc, p):
    """dims of the cohomology of Omega_p = F_p intersect d^-1(F_p)."""
    top, dims = doc["top_degree"], doc["dims"]
    bases = {}
    for k in range(top + 1):
        d = matrix(doc["d"][k], dims[k + 1] if k < top else 0, dims[k])
        here = _level_constraints(doc, p, k)
        nxt = _level_constraints(doc, p, k + 1)
        cons = DomainMatrix.vstack(here, nxt * d) if nxt.shape[0] else here
        kern = cons.nullspace()          # rows are a basis of Omega_p^k
        bases[k] = (d, kern.transpose() if kern.shape[0] else zeros(dims[k], 0))
    rank_out = {k: (d * b).rank() for k, (d, b) in bases.items()}
    return [bases[k][1].shape[1] - rank_out[k] - (rank_out[k - 1] if k else 0)
            for k in range(top + 1)]


def perversity_dict(arg):
    return {k: int(v) for k, v in (piece.split("=") for piece in arg.split(",") if piece)}


# ---------------------------------------------------------------------------
# spectral


def spectral_failures(report, ih, cogysin_dims, eq_dims, where):
    """The spectral report against the third-page description, the page
    differentials and the convergence to the equivariant dims."""
    out = []
    n_max = len(eq_dims) - 1
    pages = report["pages"]
    i_top = len(ih)              # pair degrees run 0 .. top + 1

    def cell(page, i, j):
        return page["cells"].get("%d,%d" % (i, j), 0)

    def diff(page, i, j):
        r = page["r"]
        src, tgt = cell(page, i, j), cell(page, i + r, j - r + 1)
        rows = page["differentials"].get("%d,%d" % (i, j))
        return zeros(tgt, src) if rows is None else matrix(rows, tgt, src)

    for page in pages:
        for key, dim in page["cells"].items():
            i, j = (int(x) for x in key.split(","))
            if j % 2 and dim:
                out.append("%s: odd row cell (%s) = %d on page %d"
                           % (where, key, dim, page["r"]))
    page3 = next((pg for pg in pages if pg["r"] == 3), None)
    if page3 is None:
        out.append("%s: no third page" % where)
    else:
        for i in range(i_top + 1):
            for j in range((n_max - i) // 2 + 1):
                if j == 0:
                    want = ih[i] if i < len(ih) else 0
                else:
                    want = cogysin_dims[i] if i < len(cogysin_dims) else 0
                if cell(page3, i, 2 * j) != want:
                    out.append("%s: E3 cell (%d,%d) = %d, expected %d" % (
                        where, i, 2 * j, cell(page3, i, 2 * j), want))
    try:
        for page, nxt in zip(pages, pages[1:]):
            r = page["r"]
            for i in range(i_top + 1):
                for j in range(n_max - i):
                    d_out = diff(page, i, j)
                    d_in = diff(page, i - r, j + r - 1)
                    want = cell(page, i, j) - d_out.rank() - d_in.rank()
                    if cell(nxt, i, j) != want:
                        out.append("%s: page %d cell (%d,%d) = %d, cohomology of "
                                   "page %d gives %d" % (where, r + 1, i, j,
                                                         cell(nxt, i, j), r, want))
                    if i + j + 1 <= n_max - 1 and \
                            not (diff(page, i + r, j - r + 1) * d_out).is_zero_matrix:
                        out.append("%s: d%d o d%d != 0 at (%d,%d)" % (where, r, r, i, j))
    except ValueError as e:
        out.append("%s: %s" % (where, e))
    totals = [0] * (n_max + 1)
    for key, dim in report["limit"].items():
        i, j = (int(x) for x in key.split(","))
        if i + j <= n_max:
            totals[i + j] += dim
    if totals != list(eq_dims):
        out.append("%s: limit totals %s != equivariant dims %s" % (where, totals, eq_dims))
    if not report.get("d3", {}).get("all_equal"):
        out.append("%s: d3 check not all equal" % where)
    return out


# ---------------------------------------------------------------------------
# reports


def reports_failures(doc, perv, reps, expected_localization, where):
    """reps: {command: report} for one (model, perversity)."""
    out = []
    coh, gys, eq, loc = (reps[c] for c in ("cohomology", "gysin", "equivariant", "localize"))
    ih = base_cohomology(doc, perversity_dict(perv))
    if coh["base_dims"] != ih:
        out.append("%s: base_dims %s, recomputed %s" % (where, coh["base_dims"], ih))
    for name, seq in (("gysin", gys["gysin_les"]), ("co-Gysin", gys["cogysin_les"]),
                      ("equivariant Gysin", eq["les"])):
        out += les_failures(seq, "%s %s" % (where, name))
    ranks = loc["ranks"]
    chi = sum((-1) ** k * x for k, x in enumerate(coh["total_dims"]))
    if ranks["even"] - ranks["odd"] != chi:
        out.append("%s: localized ranks %s against Euler characteristic %d"
                   % (where, ranks, chi))
    dims, u_ranks = eq["dims"], eq["u_ranks"]
    w = len(dims) - 1
    parity = (ranks["even"], ranks["odd"])
    if w < 1 or dims[w] != parity[w % 2] or dims[w - 1] != parity[(w - 1) % 2]:
        out.append("%s: top window dims %s against localized ranks %s"
                   % (where, dims[-2:], ranks))
    for n in range(len(u_ranks)):
        bound = min(dims[n], dims[n + 2]) if n + 2 <= w else dims[n]
        if u_ranks[n] > bound:
            out.append("%s: u rank %d in degree %d exceeds %d" % (where, u_ranks[n], n, bound))
    if expected_localization is not None:
        if not loc.get("cone", {}).get("match"):
            out.append("%s: cone formula does not match" % where)
        if [ranks["even"], ranks["odd"]] != expected_localization:
            out.append("%s: localized ranks %s, hand-computed %s"
                       % (where, ranks, expected_localization))
    return out


# ---------------------------------------------------------------------------
# ingest


def validate_failures(report, where):
    bad = [c["axiom"] for c in report["checks"] if not c["passed"]]
    if not report["strict"] or not report["passed"] or bad:
        return ["%s: strict validation failed %s" % (where, bad)]
    return []


def roundtrip_failures(original, saved, where):
    if original != saved:
        at = next((i for i, (a, b) in enumerate(zip(original, saved)) if a != b),
                  min(len(original), len(saved)))
        return ["%s: saved document differs from the loaded one at byte %d" % (where, at)]
    return []


def compare_failures(report, doc1, doc2, iso, related, where):
    """The verdict known by construction, and d(gamma) = f(eps2) - eps1 for
    a returned witness gamma."""
    out = []
    if report["optimal"] is not True or report.get("related") is not related:
        return ["%s: verdict optimal=%s related=%s, constructed related=%s"
                % (where, report["optimal"], report.get("related"), related)]
    if not related:
        return out
    dims = doc1["dims"]
    gamma = columns([report["witness"]], dims[1])
    d1 = matrix(doc1["d"][1], dims[2], dims[1])
    f2 = matrix(iso["mats"]["2"], dims[2], doc2["dims"][2])
    eps1 = columns([doc1["euler_cocycle"]], dims[2])
    eps2 = columns([doc2["euler_cocycle"]], doc2["dims"][2])
    if d1 * gamma != f2 * eps2 - eps1:
        out.append("%s: witness fails d(gamma) = f(eps2) - eps1" % where)
    if not report.get("consequences", {}).get("all_equal"):
        out.append("%s: consequences of relatedness not all equal" % where)
    return out
