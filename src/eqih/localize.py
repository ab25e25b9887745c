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
fraction field of the connecting matrix (Euler map plus u times the
inclusion), and the cone formula predicts them from link data for cone
models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivariant import build_eq1, pair_shift
from .errors import InputError, InternalInvariantViolation, NotAConeModel, NotExact
from .model import ModelInstance, Perversity, _typed, int_from_json, rows_from_json
from .perverse import euler_map, gysin_cohomology, omega_cohomology, perverse_complex
from .ratla import Matrix, Subspace, block_matrix, rat

# ---------------------------------------------------------------------------
# polynomials in u with rational coefficients


def _poly(coeffs) -> tuple:
    coeffs = [rat(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


P_ZERO = ()
P_ONE = _poly([1])
P_U = _poly([0, 1])


def _padd(a, b):
    n = max(len(a), len(b))
    return _poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return P_ZERO
    out = [rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly(out)


def _pneg(a):
    return _poly([-x for x in a])


def _pdivexact(a, b):
    """Quotient of a by b, which must divide exactly."""
    if not a:
        return P_ZERO
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    out = [rat(0)] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        out[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    if any(x != 0 for x in rem):
        raise InternalInvariantViolation("inexact polynomial division")
    return _poly(out)


def _peval(a, point):
    val = rat(0)
    for c in reversed(a):
        val = val * point + c
    return val


class PolyMatrix:
    """Matrix with polynomial entries, supporting exact rank over the
    fraction field by fraction-free elimination."""

    def __init__(self, rows, cols, entries):
        self.rows = rows
        self.cols = cols
        self.entries = [[_poly(e) if not isinstance(e, tuple) else e
                         for e in row] for row in entries]

    @staticmethod
    def zero(rows, cols) -> "PolyMatrix":
        return PolyMatrix(rows, cols, [[P_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def from_blocks(row_dims, col_dims, blocks) -> "PolyMatrix":
        """Assemble from a {(bi, bj): PolyMatrix} dict of blocks."""
        rows, cols = sum(row_dims), sum(col_dims)
        out = PolyMatrix.zero(rows, cols)
        roff = [sum(row_dims[:i]) for i in range(len(row_dims))]
        coff = [sum(col_dims[:j]) for j in range(len(col_dims))]
        for (bi, bj), blk in blocks.items():
            for i in range(blk.rows):
                for j in range(blk.cols):
                    out.entries[roff[bi] + i][coff[bj] + j] = blk.entries[i][j]
        return out

    @staticmethod
    def constant(mat: Matrix) -> "PolyMatrix":
        return PolyMatrix(mat.rows, mat.cols,
                          [[_poly([x]) for x in row] for row in mat.entries])

    @staticmethod
    def u_times(mat: Matrix) -> "PolyMatrix":
        return PolyMatrix(mat.rows, mat.cols,
                          [[_poly([0, x]) for x in row] for row in mat.entries])

    def rank(self) -> int:
        """Exact rank over the fraction field (Bareiss elimination), with a
        random-evaluation lower bound as a cross-check."""
        work = [row[:] for row in self.entries]
        rank = 0
        prev = P_ONE
        for col in range(self.cols):
            pivot = next((i for i in range(rank, self.rows) if work[i][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for i in range(rank + 1, self.rows):
                for c in range(col + 1, self.cols):
                    num = _padd(_pmul(work[rank][col], work[i][c]),
                                _pneg(_pmul(work[i][col], work[rank][c])))
                    work[i][c] = _pdivexact(num, prev)
                work[i][col] = P_ZERO
            prev = work[rank][col]
            rank += 1
            if rank == self.rows:
                break
        lower = self.rank_at(rat("9973/2"))
        if lower > rank:
            raise InternalInvariantViolation(
                "evaluation rank exceeds the fraction-free rank")
        return rank

    def rank_at(self, point) -> int:
        """Rank after evaluating u at a rational point (a lower bound for
        the generic rank)."""
        return Matrix(self.rows, self.cols,
                      [[_peval(e, point) for e in row]
                       for row in self.entries]).rank()


# ---------------------------------------------------------------------------
# the u-module and its localization


@dataclass(frozen=True)
class LocalizedModule:
    even_rank: int
    odd_rank: int

    def ranks(self):
        return (self.even_rank, self.odd_rank)


def lambda_u_module(m: ModelInstance, p: Perversity) -> LocalizedModule:
    """Even/odd ranks of the equivariant cohomology over rational functions
    in u: the cohomology of the two-periodic complex of the pair complex with
    differential d + S."""
    return m.cached(("localized", p), lambda: _periodic_cohomology(m, p))


def _periodic_cohomology(m: ModelInstance, p: Perversity) -> LocalizedModule:
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


def localize(m: ModelInstance, p: Perversity) -> LocalizedModule:
    """Even/odd ranks of the equivariant cohomology over rational functions
    in u."""
    return lambda_u_module(m, p)


# ---------------------------------------------------------------------------
# the localized Gysin sequence


def _inclusion_on_cohomology(m, p, k) -> Matrix:
    """H^k of the Gysin term -> H^k of the perverse complex."""
    pc = perverse_complex(m, p)
    hg = gysin_cohomology(m, p)
    ih = omega_cohomology(m, p)
    cols = []
    for rep in hg.basis_lifts(k):
        amb = pc.gysin_ambient_mat(k).apply(rep)
        c = pc.omega_spaces.get(k, Subspace.zero(m.ambient.dim(k))).coords(amb)
        if c is None:
            raise InternalInvariantViolation(
                "Gysin class escapes the perverse complex in degree %d" % k)
        cols.append(ih.class_of(k, c))
    return Matrix.from_columns(ih.dim(k), cols)


def localized_connecting(m: ModelInstance, p: Perversity, parity) -> PolyMatrix:
    """The connecting matrix of the localized Gysin sequence on one parity:
    Euler map (constant in u) plus u times the inclusion, from the Gysin
    cohomology of that parity to the perverse cohomology of the same parity.
    """
    top = m.ambient.top_degree
    ih = omega_cohomology(m, p)
    hg = gysin_cohomology(m, p)
    eub = euler_map(m, p)
    src = [k for k in range(0, top + 1) if k % 2 == parity]
    tgt = [k for k in range(0, top + 1) if k % 2 == parity]
    blocks = {}
    for bj, k in enumerate(src):
        if k in tgt:
            blocks[(tgt.index(k), bj)] = PolyMatrix.u_times(
                _inclusion_on_cohomology(m, p, k))
        if k + 2 in tgt:
            blocks[(tgt.index(k + 2), bj)] = PolyMatrix.constant(eub.mat(k))
    return PolyMatrix.from_blocks([ih.dim(k) for k in tgt],
                                  [hg.dim(k) for k in src], blocks)


def localized_gysin(m: ModelInstance, p: Perversity) -> dict:
    """Exactness report for the two-periodic localized Gysin sequence.

    Exactness of the six-term periodic sequence is equivalent to the rank
    bookkeeping  dim IL_r = dim IH_r(B) - rank(delta_r) + dim HG_{1-r} -
    rank(delta_{1-r})  per parity r; both sides are computed independently
    (cohomology of the periodic pair complex vs. fraction-field ranks of the
    connecting matrices) and compared.  Raises NotExact on disagreement.
    """
    top = m.ambient.top_degree
    ih = omega_cohomology(m, p)
    hg = gysin_cohomology(m, p)
    il = localize(m, p)
    report = {"parities": [], "exact": True}
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
        if not entry["exact"]:
            report["exact"] = False
    if not report["exact"]:
        raise NotExact("localized Gysin sequence rank bookkeeping fails: %s"
                       % report)
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
    metadata (NotAConeModel if absent, InputError if malformed).
    """
    meta = (m.metadata or {}).get("cone")
    needed = ("apex_stratum", "cone_degree", "link_quotient_ih", "link_eub")
    if not isinstance(meta, dict) or any(key not in meta for key in needed):
        raise NotAConeModel(
            "model %r lacks cone metadata (%s)" % (m.name, ", ".join(needed)))
    apex = _typed(meta["apex_stratum"], str, "cone apex_stratum")
    values = dict(p.items)
    if apex not in values:
        raise NotAConeModel("perversity does not mention the apex stratum %r" % apex)
    deg = values[apex]
    link = [int_from_json(x, "cone link_quotient_ih")
            for x in _typed(meta["link_quotient_ih"], list, "cone link_quotient_ih")]
    if any(x < 0 for x in link):
        raise InputError("cone link_quotient_ih: a dimension is negative in %r" % link)
    eub = {key: rows_from_json(rows, "cone link_eub %s" % key)
           for key, rows in _typed(meta["link_eub"], dict, "cone link_eub").items()}

    def link_dim(k):
        return link[k] if 0 <= k < len(link) else 0

    predicted = [0, 0]
    if link_dim(deg):
        predicted[deg % 2] += link_dim(deg)
    if deg >= 1 and link_dim(deg - 1) and str(deg - 1) in eub:
        predicted[(deg - 1) % 2] += eub[str(deg - 1)].rank()
    computed = localize(m, p).ranks()
    return {
        "cone_degree": deg,
        "predicted": tuple(predicted),
        "computed": computed,
        "match": tuple(predicted) == computed,
    }
