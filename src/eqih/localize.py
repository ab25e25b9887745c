"""Localization of the equivariant cohomology over the fraction field of the
polynomial ring on the degree-2 generator u.

The equivariant cohomology is a module over polynomials in u; inverting u
kills every torsion class and leaves a two-periodic (parity-graded) vector
space over rational functions in u.  Localization is exact, so that space is
the cohomology of the pair complex tensored with Q[u, 1/u]; setting u = 1
identifies it with the two-periodic complex over Q whose parity-r term is
the sum of the pair-complex terms of parity r, with differential d + S.  Its
even/odd dims are two matrix ranks, with no truncation window.  The
localized Gysin sequence expresses the same ranks through the rank over the
fraction field of its connecting matrix, the pencil E + u*i of the Euler map
and the inclusion on cohomology.  Each minor of the pencil is a polynomial
in u of degree at most its smaller side n, so that rank is the largest rank
at u = 1, ..., n + 1.  The cone formula predicts the localized ranks from
link data for cone models.
"""

from __future__ import annotations

from .equivariant import build_eq1, pair_shift
from .errors import InputError, NotAConeModel, TheoremViolation
from .model import (ModelInstance, Perversity, _typed, int_from_json, int_from_text,
                    mat_from_json, per_model)
from .perverse import euler_map, gysin_cohomology, omega_cohomology, perverse_complex
from .ratla import block_matrix
from .value import Value


class PolyMatrix(Value):
    """The pencil a + u*b of two equally shaped rational matrices, with its
    rank over the rational functions in u.

    Every r x r minor of the pencil is a polynomial in u of degree at most
    r <= n = min(rows, cols).  A minor that is not zero has at most n roots,
    so among the n + 1 points u = 1, ..., n + 1 one is a root of no non-zero
    maximal minor and reaches the generic rank; no evaluation exceeds it.  A
    single point is not enough: [[1, u], [u, 1]] has rank 2 but rank 1 at
    u = 1.
    """

    __slots__ = ("a", "b")

    def rank(self) -> int:
        """Rank over the fraction field: the largest rank at u = 1, ...,
        n + 1, stopping once it reaches n."""
        n = min(self.a.rows, self.a.cols)
        rank = 0
        for point in range(1, n + 2):
            if rank == n:
                break
            rank = max(rank, self.rank_at(point))
        return rank

    def rank_at(self, point) -> int:
        """Rank after evaluating u at a rational point (a lower bound for
        the generic rank)."""
        return (self.a + self.b.scale(point)).rank()


# ---------------------------------------------------------------------------
# the u-module and its localization


class LocalizedModule(Value):
    __slots__ = ("even_rank", "odd_rank")

    def ranks(self):
        return (self.even_rank, self.odd_rank)


@per_model("localized")
def lambda_u_module(m: ModelInstance, p: Perversity) -> LocalizedModule:
    """Even/odd ranks of the equivariant cohomology over rational functions
    in u: the cohomology of the two-periodic complex of the pair complex with
    differential d + S."""
    cx = build_eq1(m, p).complex
    shift = pair_shift(m, p)
    offsets = []
    for r in (0, 1):
        off, total = {}, 0
        for k in cx.degrees():
            if k % 2 == r:
                off[k] = total
                total += cx.dim(k)
        offsets.append((off, total))
    ranks = []
    for r in (0, 1):
        (src, cols), (tgt, rows) = offsets[r], offsets[1 - r]
        blocks = []
        for k, col in src.items():
            if k + 1 in tgt:
                blocks.append((tgt[k + 1], col, cx.d(k)))
            if k - 1 in tgt:
                blocks.append((tgt[k - 1], col, shift[k]))
        ranks.append(block_matrix(rows, cols, blocks).rank())
    # dim H_r = dim C_r - rank(C_r -> C_{1-r}) - rank(C_{1-r} -> C_r)
    return LocalizedModule(offsets[0][1] - sum(ranks), offsets[1][1] - sum(ranks))


# ---------------------------------------------------------------------------
# the localized Gysin sequence


def localized_connecting(m: ModelInstance, p: Perversity, parity) -> PolyMatrix:
    """The connecting matrix of the localized Gysin sequence on one parity:
    Euler map (constant in u) plus u times the inclusion, from the Gysin
    cohomology of that parity to the perverse cohomology of the same parity.
    """
    ih = omega_cohomology(m, p)
    hg = gysin_cohomology(m, p)
    gysin_incl = perverse_complex(m, p).gysin_incl
    eub = euler_map(m, p)
    degrees = range(parity, m.ambient.top_degree + 1, 2)
    row_off, rows = {}, 0
    for k in degrees:
        row_off[k] = rows
        rows += ih.dim(k)
    euler, inclusion, cols = [], [], 0
    for k in degrees:
        inclusion.append((row_off[k], cols, hg.induced_map(ih, gysin_incl, k)))
        if k + 2 in row_off:
            euler.append((row_off[k + 2], cols, eub.mat(k)))
        cols += hg.dim(k)
    return PolyMatrix(block_matrix(rows, cols, euler),
                      block_matrix(rows, cols, inclusion))


def localized_gysin(m: ModelInstance, p: Perversity) -> dict:
    """Exactness report for the two-periodic localized Gysin sequence.

    Exactness of the six-term periodic sequence is equivalent to the rank
    bookkeeping  dim IL_r = dim IH_r(B) - rank(delta_r) + dim HG_{1-r} -
    rank(delta_{1-r})  per parity r; both sides are computed independently
    (cohomology of the periodic pair complex vs. fraction-field ranks of the
    connecting matrices) and compared.  A mismatch raises TheoremViolation.
    """
    top = m.ambient.top_degree
    ih = omega_cohomology(m, p)
    hg = gysin_cohomology(m, p)
    il = lambda_u_module(m, p)
    report = {"parities": []}
    b_dims = [sum(ih.dim(k) for k in range(0, top + 1) if k % 2 == r)
              for r in (0, 1)]
    g_dims = [sum(hg.dim(k) for k in range(0, top + 1) if k % 2 == r)
              for r in (0, 1)]
    deltas = [localized_connecting(m, p, r) for r in (0, 1)]
    ranks = [d.rank() for d in deltas]
    for r in (0, 1):
        predicted = b_dims[r] - ranks[r] + g_dims[1 - r] - ranks[1 - r]
        computed = il.ranks()[r]
        entry = {
            "parity": r,
            "dim_base": b_dims[r],
            "dim_gysin": g_dims[r],
            "rank_connecting": ranks[r],
            "predicted_rank": predicted,
            "localized_rank": computed,
            "exact": predicted == computed,
        }
        report["parities"].append(entry)
    report["exact"] = all(entry["exact"] for entry in report["parities"])
    if not report["exact"]:
        raise TheoremViolation(
            "localized Gysin sequence rank bookkeeping fails: %s" % report)
    return report


# ---------------------------------------------------------------------------
# the cone formula


def cone_formula_check(m: ModelInstance, p: Perversity) -> dict:
    """Compare the localized ranks with the link-data prediction for cone
    models: the quotient of the link cohomology one degree below the cone
    degree by the kernel of its Euler map, plus the link cohomology at the
    cone degree, distributed by parity.

    The cone degree is the perversity value on the apex stratum; the link
    quotient cohomology dims and its Euler map are read from the model
    metadata (NotAConeModel if absent, InputError if malformed); the Euler
    map of degree k must be link_dim(k + 2) x link_dim(k).  The metadata's
    own cone_degree must be a JSON integer but is not used.
    """
    meta = (m.metadata or {}).get("cone")
    needed = ("apex_stratum", "cone_degree", "link_quotient_ih", "link_eub")
    if not isinstance(meta, dict) or any(key not in meta for key in needed):
        raise NotAConeModel(
            "model %r lacks cone metadata (%s)" % (m.name, ", ".join(needed)))
    apex = _typed(meta["apex_stratum"], str, "cone apex_stratum")
    int_from_json(meta["cone_degree"], "cone cone_degree")
    values = dict(p.items)
    if apex not in values:
        raise NotAConeModel("perversity does not mention the apex stratum %r" % apex)
    deg = values[apex]
    link = [int_from_json(x, "cone link_quotient_ih")
            for x in _typed(meta["link_quotient_ih"], list, "cone link_quotient_ih")]
    if any(x < 0 for x in link):
        raise InputError("cone link_quotient_ih: a dimension is negative in %r" % link)

    def link_dim(k):
        return link[k] if 0 <= k < len(link) else 0

    eub = {}
    for key, rows in _typed(meta["link_eub"], dict, "cone link_eub").items():
        k = int_from_text(key, "cone link_eub degree")
        if k in eub:
            raise InputError("cone link_eub: degree %r repeats degree %d" % (key, k))
        eub[k] = mat_from_json(rows, None, None, ("cone link_eub %s", key))
        want = (link_dim(k + 2), link_dim(k))
        if (eub[k].rows, eub[k].cols) != want:
            raise InputError("cone link_eub %s is %dx%d, and link_quotient_ih wants %dx%d"
                             % (key, eub[k].rows, eub[k].cols, *want))
    predicted = [0, 0]
    if link_dim(deg):
        predicted[deg % 2] += link_dim(deg)
    if deg >= 1 and link_dim(deg - 1) and deg - 1 in eub:
        predicted[(deg - 1) % 2] += eub[deg - 1].rank()
    computed = lambda_u_module(m, p).ranks()
    return {
        "cone_degree": deg,
        "predicted": tuple(predicted),
        "computed": computed,
        "match": tuple(predicted) == computed,
    }
