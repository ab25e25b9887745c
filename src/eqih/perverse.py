"""Perverse complexes, the Gysin term, the co-Gysin quotient and the Gysin
long exact sequence.

For a perversity p the complex Omega_p consists of the forms within the
p-level of every stratum filtration whose differential also stays within
level; the Gysin term G_p collects the forms one characteristic step lower
whose Euler image is trivial up to the p-level (an exactness allowance); the
co-Gysin complex K_p is the quotient Omega_p / G_p.  The Euler map sends a
Gysin-term class to the intersection class of (a corrected copy of) its Euler
image two degrees up, and is the connecting morphism of the Gysin sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalInvariantViolation, WitnessNotFound
from .homalg import (
    ChainMap,
    Cohomology,
    Complex,
    LongExactSequence,
    SesData,
    chain_map,
    quotient_complex,
    subcomplex,
)
from .model import ModelInstance, Perversity
from .ratla import (
    Matrix,
    Subspace,
    intersect,
    map_image,
    preimage,
    quotient,
    subspace_sum,
    vec_add,
    vec_scale,
)


def _sign(k):
    """The degree sign used throughout the twisted constructions."""
    return -1 if (k - 1) % 2 else 1


@dataclass(frozen=True)
class PerverseComplex:
    p: Perversity
    ambient: Complex
    omega: Complex
    omega_incl: ChainMap        # omega -> ambient
    omega_spaces: dict          # degree -> Subspace of the ambient degree
    gysin: Complex
    gysin_incl: ChainMap        # gysin -> omega
    gysin_spaces: dict          # degree -> Subspace of the ambient degree
    cogysin: Complex
    projection: ChainMap        # omega -> cogysin

    def gysin_ambient_mat(self, k) -> Matrix:
        """Basis of G_p^k written in ambient coordinates."""
        return self.omega_incl.mat(k) * self.gysin_incl.mat(k)


def perverse_complex(m: ModelInstance, p: Perversity) -> PerverseComplex:
    return m.cached(("perverse", p), lambda: _build(m, p))


def omega_spaces(m: ModelInstance, p: Perversity) -> dict:
    """The spaces of Omega_p, degree -> Subspace of the ambient degree: the
    forms in the p-level whose differential stays in the level."""
    return m.cached(("omega", p), lambda: {
        k: intersect(m.filtration_level(p, k),
                     preimage(m.ambient.diff(k), m.filtration_level(p, k + 1)))
        for k in range(0, m.ambient.top_degree + 1)})


def _build(m: ModelInstance, p: Perversity) -> PerverseComplex:
    m.check_perversity(p)
    a = m.ambient
    amb = m.cached("ambient_complex", a.complex)
    spaces = omega_spaces(m, p)
    lower = omega_spaces(m, p.minus(m.characteristic_perversity()))

    gysin_spaces = {}
    for k in amb.degrees():
        allowance = subspace_sum(m.filtration_level(p, k + 2),
                                 map_image(a.diff(k + 1), m.filtration_level(p, k + 1)))
        gysin_spaces[k] = intersect(lower[k], preimage(a.euler(k), allowance))
        if not spaces[k].contains_subspace(gysin_spaces[k]):
            raise InternalInvariantViolation(
                "Gysin term escapes the perverse complex in degree %d" % k)

    omega, omega_incl = subcomplex(amb, spaces)

    gysin_in_omega = {}
    for k in amb.degrees():
        coords = [spaces[k].coords(v) for v in gysin_spaces[k].vectors()]
        if any(c is None for c in coords):
            raise InternalInvariantViolation("Gysin coordinates failed in degree %d" % k)
        gysin_in_omega[k] = Subspace.from_vectors(omega.dim(k), coords)

    gysin, gysin_incl = subcomplex(omega, gysin_in_omega)
    cogysin, projection = quotient_complex(omega, gysin_in_omega)

    return PerverseComplex(p, amb, omega, omega_incl, spaces,
                           gysin, gysin_incl, gysin_spaces, cogysin, projection)


def build_cogysin(m: ModelInstance, p: Perversity):
    """The quotient complex K_p with the projection and the connecting data
    of 0 -> G_p -> Omega_p -> K_p -> 0."""
    pc = perverse_complex(m, p)
    ses = m.cached(("cogysin_ses", p),
                   lambda: SesData(pc.gysin_incl, pc.projection, check=False))
    return pc.cogysin, pc.projection, ses


def cogysin_les(m: ModelInstance, p: Perversity) -> LongExactSequence:
    _, _, ses = build_cogysin(m, p)
    return ses.les()


def omega_cohomology(m: ModelInstance, p: Perversity) -> Cohomology:
    return perverse_complex(m, p).omega.cohomology


def gysin_cohomology(m: ModelInstance, p: Perversity) -> Cohomology:
    return perverse_complex(m, p).gysin.cohomology


def cogysin_cohomology(m: ModelInstance, p: Perversity) -> Cohomology:
    return perverse_complex(m, p).cogysin.cohomology


def inclusion_map(m: ModelInstance, p: Perversity, q: Perversity) -> ChainMap:
    """The inclusion Omega_p -> Omega_q for p <= q, in the chosen bases."""
    if not p <= q:
        raise InputError("inclusion needs comparable perversities (p <= q)")
    cp = perverse_complex(m, p)
    cq = perverse_complex(m, q)
    maps = {}
    for k in cp.ambient.degrees():
        cols = []
        for v in cp.omega_spaces[k].vectors():
            c = cq.omega_spaces[k].coords(v)
            if c is None:
                raise InternalInvariantViolation(
                    "monotonicity failed: Omega_p escapes Omega_q in degree %d" % k)
            cols.append(c)
        maps[k] = Matrix.from_columns(cq.omega.dim(k), cols)
    return chain_map(cp.omega, cq.omega, maps)


class EulerMap:
    """Graded map on cohomology H^k(G_p) -> IH^{k+2}_p together with the
    witnesses that realize it on cochains.

    For a Gysin-term cocycle beta of degree k a witness is a level form alpha
    of degree k+1 such that d(alpha) + sign(k+1) E(beta) lies in the level in
    degree k+2; that corrected Euler image is the image cocycle.
    """

    def __init__(self, m: ModelInstance, p: Perversity):
        m.check_perversity(p)
        self.m = m
        self.p = p
        self.pc = perverse_complex(m, p)
        self.hg = gysin_cohomology(m, p)
        self.ih = omega_cohomology(m, p)
        self.mats = {}
        self.witnesses = {}
        self.reps = {}
        for k in self.pc.ambient.degrees():
            cols = []
            wits = []
            reps = []
            for abstract in self.hg.basis_lifts(k):
                beta = self.pc.gysin_ambient_mat(k).apply(abstract)
                omega_vec, alpha = self.cochain_image(k, beta)
                cols.append(self._ih_class(k + 2, omega_vec))
                wits.append(alpha)
                reps.append(beta)
            self.mats[k] = Matrix.from_columns(self.ih.dim(k + 2), cols)
            self.witnesses[k] = wits
            self.reps[k] = reps

    def _ih_class(self, k, ambient_vec):
        space = self.pc.omega_spaces.get(k, Subspace.zero(self.m.ambient.dim(k)))
        coords = space.coords(ambient_vec)
        if coords is None:
            raise InternalInvariantViolation(
                "Euler image misses the perverse complex in degree %d" % k)
        return self.ih.class_of(k, coords)

    def cochain_image(self, k, beta, witness_shift=None):
        """(corrected Euler image, witness alpha) for an ambient G_p-cocycle
        beta of degree k.  witness_shift optionally perturbs the witness by a
        degree-(k+1) vector of coefficients in the level basis (used to prove
        witness independence)."""
        a = self.m.ambient
        s = _sign(k + 1)
        f1 = self.m.filtration_level(self.p, k + 1)
        f2 = self.m.filtration_level(self.p, k + 2)
        ebeta = a.euler(k).apply(beta)
        killer = quotient(Subspace.full(a.dim(k + 2)), f2).projection
        lhs = killer * a.diff(k + 1) * f1.basis
        rhs = vec_scale(-s, killer.apply(ebeta))
        x = lhs.solve(rhs)
        if x is None:
            raise WitnessNotFound("no witness in degree %d" % (k + 1))
        if witness_shift is not None:
            shift = lhs.kernel_basis()
            for c, b in zip(witness_shift, shift):
                x = vec_add(x, vec_scale(c, b))
        alpha = f1.basis.apply(x)
        omega_vec = vec_add(a.diff(k + 1).apply(alpha), vec_scale(s, ebeta))
        return omega_vec, alpha

    def mat(self, k) -> Matrix:
        if k in self.mats:
            return self.mats[k]
        return Matrix.zero(self.ih.dim(k + 2), self.hg.dim(k))


def euler_map(m: ModelInstance, p: Perversity) -> EulerMap:
    return m.cached(("eub", p), lambda: EulerMap(m, p))


def _shift_down(c: Complex) -> Complex:
    """The complex with degree-k space c^{k-1} and the same differentials
    (no sign twist: the twisted middle differential already carries it)."""
    dims = (0,) + c.dims
    diffs = (Matrix.zero(c.dim(c.lo), 0),) + c.diffs
    return Complex.build(c.lo, c.hi + 1, dims, diffs, check=False)


def gysin_maps(m: ModelInstance, p: Perversity):
    """The chain maps (i, s) of 0 -> Omega_p -> (twisted pair complex) ->
    G_p[-1] -> 0.

    The middle term is the complex of admissible pairs; i is
    alpha |-> (alpha, 0) and s is (alpha, beta) |-> beta.
    """
    return m.cached(("gysin_maps", p), lambda: _gysin_maps(m, p))


def _gysin_maps(m: ModelInstance, p: Perversity):
    from .equivariant import build_eq1

    pc = perverse_complex(m, p)
    eq1 = build_eq1(m, p)
    a = m.ambient

    inc = {}
    quo = {}
    for k in range(eq1.complex.lo, eq1.complex.hi + 1):
        na = a.dim(k)
        cols = []
        for v in pc.omega_spaces.get(k, Subspace.zero(na)).vectors():
            pair = tuple(v) + (0,) * a.dim(k - 1)
            c = eq1.space(k).coords(pair)
            if c is None:
                raise InternalInvariantViolation(
                    "Omega_p misses the pair complex in degree %d" % k)
            cols.append(c)
        inc[k] = Matrix.from_columns(eq1.complex.dim(k), cols)
        qcols = []
        for w in eq1.space(k).vectors():
            beta = w[na:]
            c = pc.gysin_spaces.get(k - 1, Subspace.zero(a.dim(k - 1))).coords(beta)
            if c is None:
                raise InternalInvariantViolation(
                    "pair complex tail misses the Gysin term in degree %d" % k)
            qcols.append(c)
        quo[k] = Matrix.from_columns(pc.gysin.dim(k - 1), qcols)

    shifted = _shift_down(pc.gysin)
    omega_ext = Complex.build(eq1.complex.lo, eq1.complex.hi,
                              tuple(pc.omega.dim(k) for k in eq1.complex.degrees()),
                              tuple(pc.omega.d(k) for k in eq1.complex.degrees()),
                              check=False)
    i = chain_map(omega_ext, eq1.complex, inc)
    s = chain_map(eq1.complex, shifted, quo)
    return i, s


def gysin_les(m: ModelInstance, p: Perversity) -> LongExactSequence:
    """The Gysin long exact sequence; its connecting morphism is verified to
    coincide with the Euler map."""
    ses = m.cached(("gysin_ses", p), lambda: SesData(*gysin_maps(m, p)))
    eub = euler_map(m, p)
    seq = ses.les()
    for k in range(ses.i.source.lo, ses.i.source.hi):
        conn = ses.connecting(k)
        if conn != eub.mat(k - 1):
            raise InternalInvariantViolation(
                "Gysin connecting morphism differs from the Euler map in degree %d" % k)
    return seq
