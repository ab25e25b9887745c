"""The ambient and pair complexes of a model, perverse complexes, the Gysin
term, the co-Gysin quotient and the Euler map.

A model gives two complexes, built once it passes its axioms (ambient_complexes):
the ambient complex A with differential d, and the pair complex P with
P^k = A^k + A^{k-1} and (alpha, beta) |-> (d alpha + sign(k) E beta, d beta).
P squares to zero exactly when A does and the Euler operator E is a chain
map; every other complex is a sub- or quotient complex of A or P.

For a perversity p the complex Omega_p consists of the forms within the
p-level of every stratum filtration whose differential also stays within
level; the Gysin term G_p collects the forms one characteristic step lower
whose Euler image is trivial up to the p-level (an exactness allowance); the
co-Gysin complex K_p is the quotient Omega_p / G_p.  The Euler map sends a
Gysin-term class to the intersection class of (a corrected copy of) its Euler
image two degrees up, and is the connecting morphism of the Gysin sequence.
"""

from __future__ import annotations

from .errors import InputError, InternalInvariantViolation, WitnessNotFound
from .homalg import (ChainMap, Cohomology, Complex, LongExactSequence, SesData, chain_map,
                     quotient_complex, subcomplex)
from .model import ModelInstance, Perversity, check_axioms, per_model
from .ratla import Matrix, Subspace, block_matrix, preimage, quotient
from .value import Value


def _sign(k):
    """The degree sign used throughout the twisted constructions."""
    return -1 if (k - 1) % 2 else 1


def _pair_d(a, k) -> Matrix:
    """(alpha, beta) |-> (d alpha + sign * E beta, d beta) in ambient coords."""
    na, nb = a.dim(k), a.dim(k - 1)
    return block_matrix(a.dim(k + 1) + na, na + nb,
                        [(0, 0, a.diff(k)), (0, na, a.euler(k - 1).scale(_sign(k))),
                         (a.dim(k + 1), na, a.diff(k - 1))])


@per_model("ambient_complexes")
def ambient_complexes(m: ModelInstance) -> tuple:
    """(A, P): the ambient complex in degrees 0..top and the pair complex in
    degrees 0..top + 1, built once per model after check_axioms: a model
    that fails an axiom on its spaces and maps is malformed input, and one
    that passes has d.d = 0 on A and, E being a chain map, on P."""
    check_axioms(m)
    a, top = m.ambient, m.ambient.top_degree
    amb = Complex.build(0, top, a.dims, a.d)
    pair = Complex.build(0, top + 1, [a.dim(k) + a.dim(k - 1) for k in range(top + 2)],
                         [_pair_d(a, k) for k in range(top + 2)])
    return amb, pair


class PerverseComplex(Value):
    __slots__ = ("ambient", "omega",
                 "omega_incl",    # omega -> ambient
                 "omega_spaces",  # degree -> Subspace of the ambient degree
                 "gysin",
                 "gysin_incl",    # gysin -> omega
                 "gysin_spaces",  # degree -> Subspace of the ambient degree
                 "cogysin",
                 "projection")    # omega -> cogysin

    def omega_space(self, k) -> Subspace:
        """Omega_p^k as a subspace of the ambient degree; zero outside
        0..top."""
        if k in self.omega_spaces:
            return self.omega_spaces[k]
        return Subspace.zero(self.ambient.dim(k))

    def gysin_space(self, k) -> Subspace:
        """G_p^k as a subspace of the ambient degree; zero outside 0..top."""
        if k in self.gysin_spaces:
            return self.gysin_spaces[k]
        return Subspace.zero(self.ambient.dim(k))

    def gysin_ambient_mat(self, k) -> Matrix:
        """Basis of G_p^k written in ambient coordinates."""
        return self.omega_incl.mat(k) * self.gysin_incl.mat(k)


@per_model("omega")
def omega_spaces(m: ModelInstance, p: Perversity) -> dict:
    """The spaces of Omega_p, degree -> Subspace of the ambient degree: the
    forms in the p-level whose differential stays in the level."""
    return {k: preimage(m.ambient.diff(k), m.filtration_level(p, k + 1),
                        within=m.filtration_level(p, k))
            for k in range(0, m.ambient.top_degree + 1)}


@per_model("perverse")
def perverse_complex(m: ModelInstance, p: Perversity) -> PerverseComplex:
    a = m.ambient
    amb, _ = ambient_complexes(m)
    spaces = omega_spaces(m, p)
    lower = omega_spaces(m, p.minus(m.characteristic_perversity()))

    gysin_spaces = {}
    gysin_in_omega = {}
    for k in amb.degrees():
        # F^{k+2} + d(F^{k+1}), spanned at once
        allowance = Subspace.from_matrix(m.filtration_level(p, k + 2).basis.hstack(
            a.diff(k + 1) * m.filtration_level(p, k + 1).basis))
        gysin_spaces[k] = preimage(a.euler(k), allowance, within=lower[k])
        coords = spaces[k].coords_of(gysin_spaces[k].basis)
        if coords is None:
            raise InternalInvariantViolation(
                "Gysin term escapes the perverse complex in degree %d" % k)
        gysin_in_omega[k] = Subspace.from_matrix(coords)

    omega, omega_incl = subcomplex(amb, spaces)
    gysin, gysin_incl = subcomplex(omega, gysin_in_omega)
    cogysin, projection = quotient_complex(omega, gysin_in_omega)

    return PerverseComplex(amb, omega, omega_incl, spaces,
                           gysin, gysin_incl, gysin_spaces, cogysin, projection)


@per_model("cogysin_ses")
def cogysin_ses(m: ModelInstance, p: Perversity) -> SesData:
    """The connecting data of 0 -> G_p -> Omega_p -> K_p -> 0."""
    pc = perverse_complex(m, p)
    return SesData(pc.gysin_incl, pc.projection)


def cogysin_les(m: ModelInstance, p: Perversity) -> LongExactSequence:
    return cogysin_ses(m, p).les()


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
        maps[k] = cq.omega_spaces[k].coords_of(cp.omega_spaces[k].basis)
        if maps[k] is None:
            raise InternalInvariantViolation(
                "monotonicity failed: Omega_p escapes Omega_q in degree %d" % k)
    return chain_map(cp.omega, cq.omega, maps)


class EulerMap:
    """Graded map on cohomology H^k(G_p) -> IH^{k+2}_p, read from the
    corrected Euler images of the ambient representatives of the canonical
    basis of H^k(G_p), all of a degree at once.

    For a Gysin-term cocycle beta of degree k a witness is a level form alpha
    of degree k+1 such that d(alpha) + sign(k+1) E(beta) lies in the level in
    degree k+2; that corrected Euler image is the image cocycle.
    """

    def __init__(self, m: ModelInstance, p: Perversity):
        self.m = m
        self.p = p
        self.pc = perverse_complex(m, p)
        self.hg = gysin_cohomology(m, p)
        self.ih = omega_cohomology(m, p)
        self.mats = {}
        for k in self.pc.ambient.degrees():
            betas = self.pc.gysin_ambient_mat(k) * self.hg.lifts(k)
            coords = self.pc.omega_space(k + 2).coords_of(self.cochain_images(k, betas))
            if coords is None:
                raise InternalInvariantViolation(
                    "Euler image misses the perverse complex in degree %d" % (k + 2))
            self.mats[k] = self.ih.classes_of(k + 2, coords)

    def cochain_images(self, k, betas: Matrix) -> Matrix:
        """The corrected Euler images of the columns of betas, ambient
        G_p-cocycles of degree k: the witnesses of all columns come from one
        solve against the level-killing projection of degree k+2."""
        a = self.m.ambient
        if not betas.cols:
            return Matrix.zero(a.dim(k + 2), 0)
        s = _sign(k + 1)
        f1 = self.m.filtration_level(self.p, k + 1).basis
        f2 = self.m.filtration_level(self.p, k + 2)
        ebetas = a.euler(k) * betas
        killer = quotient(Subspace.full(a.dim(k + 2)), f2).projection
        d_level = a.diff(k + 1) * f1
        x = (killer * d_level).solve((killer * ebetas).scale(-s))
        if x is None:
            raise WitnessNotFound("no witness in degree %d" % (k + 1))
        return d_level * x + ebetas.scale(s)

    def mat(self, k) -> Matrix:
        if k in self.mats:
            return self.mats[k]
        return Matrix.zero(self.ih.dim(k + 2), self.hg.dim(k))


euler_map = per_model("eub")(EulerMap)
