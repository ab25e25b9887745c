"""Comparison of two models through a filtration-compatible chain
isomorphism of their ambient complexes.

An isomorphism is *optimal* when corresponding strata have the same kind.
Two models are *related* through an optimal isomorphism when it carries the
Euler cocycle of one to the other up to the differential of an admissible
1-form (admissible for the Euler perversity).  Relatedness forces the
equivariant invariants to agree; `consequence_check` verifies those
necessary equalities and treats any failure as an internal contradiction.
Each public check validates its isomorphism; `compare`, the body of
``eqih compare``, validates it once and solves for the witness once.
"""

from __future__ import annotations

from .equivariant import build_equivariant
from .errors import InvalidIso, TheoremViolation
from .localize import lambda_u_module
from .model import ModelInstance, Perversity, vec_to_json
from .perverse import omega_spaces
from .ratla import Matrix
from .value import Value


class ModelIso(Value):
    """Degreewise invertible chain map from the ambient of the second model
    to the ambient of the first, with a stratum correspondence (names of the
    second model mapped to names of the first)."""

    __slots__ = ("mats",    # degree -> Matrix A2^k -> A1^k
                 "strata")  # m2 stratum -> m1 stratum

    def __init__(self, mats: dict = None, strata: dict = None):
        super().__init__({} if mats is None else mats, {} if strata is None else strata)

    def mat(self, m1: ModelInstance, m2: ModelInstance, k: int) -> Matrix:
        got = self.mats.get(k)
        if got is None:
            return Matrix.zero(m1.ambient.dim(k), m2.ambient.dim(k))
        return got


def identity_iso(m: ModelInstance) -> ModelIso:
    mats = {k: Matrix.identity(m.ambient.dim(k))
            for k in range(m.ambient.top_degree + 1)}
    return ModelIso(mats, {s: s for s in m.stratum_names()})


def validate_iso(iso: ModelIso, m1: ModelInstance, m2: ModelInstance) -> None:
    """Raise InvalidIso unless iso is a degreewise-invertible,
    filtration-preserving chain isomorphism m2 -> m1."""
    a1, a2 = m1.ambient, m2.ambient
    if a1.top_degree != a2.top_degree:
        raise InvalidIso("ambient top degrees differ: %d vs %d"
                         % (a1.top_degree, a2.top_degree))
    top = a1.top_degree
    for k in sorted(iso.mats):
        if not 0 <= k <= top:
            raise InvalidIso("iso degree %d is outside 0..%d" % (k, top))
    for k in range(top + 1):
        f = iso.mat(m1, m2, k)
        if f.rows != a1.dim(k) or f.cols != a2.dim(k):
            raise InvalidIso("degree-%d matrix has shape %dx%d, expected %dx%d"
                             % (k, f.rows, f.cols, a1.dim(k), a2.dim(k)))
        if f.rows != f.cols or f.rank() != f.rows:
            raise InvalidIso("degree-%d matrix is not invertible" % k)
    for k in range(top):
        lhs = iso.mat(m1, m2, k + 1) * a2.diff(k)
        rhs = a1.diff(k) * iso.mat(m1, m2, k)
        if lhs != rhs:
            raise InvalidIso("not a chain map in degree %d" % k)
    if sorted(iso.strata.keys()) != sorted(m2.stratum_names()):
        raise InvalidIso("correspondence domain does not cover the strata of %r"
                         % m2.name)
    if sorted(iso.strata.values()) != sorted(m1.stratum_names()):
        raise InvalidIso("correspondence image does not cover the strata of %r"
                         % m1.name)
    # f is invertible, so f(src) = tgt exactly when dims agree and f(src) lies in tgt
    for s2, s1 in iso.strata.items():
        kmax = max(len(a1.filtrations.get(s1, ())), len(a2.filtrations.get(s2, ())))
        for level in range(-1, kmax + 1):
            for k in range(top + 1):
                src = a2.filtration(s2, level, k)
                tgt = a1.filtration(s1, level, k)
                if src.dim != tgt.dim or not (tgt.is_full() or tgt.coords_of(
                        iso.mat(m1, m2, k) * src.basis) is not None):
                    raise InvalidIso(
                        "filtration level %d of stratum %r not preserved in "
                        "degree %d" % (level, s2, k))


def is_optimal(iso: ModelIso, m1: ModelInstance, m2: ModelInstance) -> bool:
    """True iff corresponding strata have the same kind."""
    validate_iso(iso, m1, m2)
    return all(m2.stratum(s2).kind == m1.stratum(s1).kind
               for s2, s1 in iso.strata.items())


def f_related(iso: ModelIso, m1: ModelInstance, m2: ModelInstance):
    """Decide whether iso carries the Euler cocycle of m2 to that of m1 up
    to the differential of an admissible 1-form.

    Returns (True, gamma) with gamma an ambient degree-1 witness satisfying
    d(gamma) = f(eps2) - eps1, or (False, None).  The witness is drawn from
    the admissible forms of the Euler perversity of m1.
    """
    if not is_optimal(iso, m1, m2):
        raise InvalidIso("relatedness needs an optimal isomorphism")
    return _witness(iso, m1, m2)


def _witness(iso: ModelIso, m1: ModelInstance, m2: ModelInstance):
    """f_related for an iso already validated and optimal."""
    a1, a2 = m1.ambient, m2.ambient
    diff = iso.mat(m1, m2, 2) * a2.epsilon() - a1.epsilon()
    if diff.is_zero():
        return True, (0,) * a1.dim(1)
    # diff is a non-zero degree-2 form, so degree 1 lies in 0..top
    omega1 = omega_spaces(m1, m1.euler_perversity())[1]
    x = (a1.diff(1) * omega1.basis).solve(diff)
    if x is None:
        return False, None
    return True, (omega1.basis * x).transpose().entries[0]


def consequence_check(iso: ModelIso, m1: ModelInstance, m2: ModelInstance) -> dict:
    """Verify the necessary consequences of relatedness: for every shared
    perversity the graded equivariant dims, the u-action ranks, and the
    localized ranks coincide.  Raises TheoremViolation on any mismatch."""
    if not f_related(iso, m1, m2)[0]:
        raise InvalidIso("consequence check needs related models")
    return _consequences(iso, m1, m2)


def _consequences(iso: ModelIso, m1: ModelInstance, m2: ModelInstance) -> dict:
    """consequence_check for an iso already known to relate m1 and m2."""
    entries = []
    for p2 in sorted(m2.perversity_set, key=Perversity.label):
        p1 = Perversity({iso.strata[s]: v for s, v in p2.items})
        if p1 not in m1.perversity_set:
            continue
        eq1, eq2 = build_equivariant(m1, p1), build_equivariant(m2, p2)
        entries.append({
            "perversity": p2.label(),
            "dims_equal": eq1.dims() == eq2.dims(),
            "u_ranks_equal": eq1.u_ranks() == eq2.u_ranks(),
            "localization_equal":
                lambda_u_module(m1, p1).ranks() == lambda_u_module(m2, p2).ranks(),
        })
    report = {"perversities": entries,
              "all_equal": all(v for e in entries for k, v in e.items() if k != "perversity")}
    if not report["all_equal"]:
        raise TheoremViolation(
            "related models disagree on equivariant invariants: %s" % report)
    return report


def compare(iso: ModelIso, m1: ModelInstance, m2: ModelInstance) -> dict:
    """The verdicts of ``eqih compare``, each asked only if the one before holds."""
    out = {"optimal": is_optimal(iso, m1, m2)}
    if out["optimal"]:
        out["related"], gamma = _witness(iso, m1, m2)
        if out["related"]:
            out["witness"] = vec_to_json(gamma)
            out["consequences"] = _consequences(iso, m1, m2)
    return out
