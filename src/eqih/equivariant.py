"""The invariant-pair complex, the Gysin sequence, the equivariant complex
over the polynomial generator u, and the equivariant Gysin sequence.

The invariant-pair complex Eq1_p is the subcomplex of the model's pair
complex P (see perverse) of the pairs (alpha, beta) with alpha in the
p-level of degree k, beta in the one-step-lower perverse complex of degree
k-1, and d(alpha) + sign * E(beta) again in level; its cohomology plays the
role of the intersection cohomology of the total space.  The Gysin sequence
0 -> Omega_p -> Eq1_p -> G_p[-1] -> 0 is the restriction of A -> P -> A[-1].
Beside its differential d the pair complex carries the signed u-shift
S: (alpha, beta) |-> sign(k) * (beta, 0), one pair degree down.  The
equivariant complex is the pair complex tensored with Q[u] (u of degree 2)
with differential D = d + u * S; u acts by raising the power.

The module over Q[u] is infinite, but every object built from D repeats
with period 2 above the top pair degree (LambdaExtension.fold).  So the
complexes are built once, through total degree top + 4, each degree is read
at its fold and every listed value is exact; n_u only bounds how many
degrees a report lists.  Inverting u: see localize.
"""

from __future__ import annotations

from .errors import DecompositionMismatch, InternalInvariantViolation
from .homalg import (ChainMap, Cohomology, Complex, LongExactSequence, SesData, chain_map,
                     check_short_exact, subcomplex)
from .model import ModelInstance, Perversity, per_model
from .perverse import _sign, ambient_complexes, euler_map, omega_spaces, perverse_complex
from .ratla import (Matrix, Subspace, block_matrix, image, kernel, map_image, preimage,
                    subspace_sum)
from .value import Value


def default_window(m: ModelInstance) -> int:
    return m.top_degree + 6


# ---------------------------------------------------------------------------
# the pair complex


class Eq1Complex(Value):
    __slots__ = ("complex",  # abstract, degrees 0 .. top_degree + 1
                 "spaces")   # degree -> Subspace of Q^{dim(k) + dim(k-1)}

    def space(self, k) -> Subspace:
        if k in self.spaces:
            return self.spaces[k]
        return Subspace.zero(0)


@per_model("eq1")
def build_eq1(m: ModelInstance, p: Perversity) -> Eq1Complex:
    m.check_perversity(p)
    _, pair = ambient_complexes(m)
    lower = omega_spaces(m, p.minus(m.characteristic_perversity()))

    spaces = {}
    for k in pair.degrees():
        na, nb = m.dim(k), m.dim(k - 1)
        fp = m.filtration_level(p, k)
        om = lower[k - 1].basis if k else Matrix.zero(0, 0)
        # product subspace F_p^k x Omega_{p-xbar}^{k-1}: two canonical bases
        # side by side, so already canonical
        prod = Subspace(na + nb, block_matrix(na + nb, fp.dim + om.cols,
                                              [(0, 0, fp.basis), (na, fp.dim, om)]))
        # pairs whose twisted differential head stays in level
        head = Matrix._of(m.dim(k + 1), na + nb, pair.d(k).entries[:m.dim(k + 1)])
        spaces[k] = preimage(head, m.filtration_level(p, k + 1), within=prod)
    cx, _ = subcomplex(pair, spaces)
    return Eq1Complex(cx, spaces)


@per_model("eq1_shift")
def pair_shift(m: ModelInstance, p: Perversity) -> dict:
    """The signed u-shift S_k: Eq1^k -> Eq1^{k-1}, (alpha, beta) |->
    sign(k) * (beta, 0), per pair degree k, in the pair-space bases."""
    eq1 = build_eq1(m, p)
    shift = {}
    for k in eq1.complex.degrees():
        nb = m.dim(k - 1)
        # (alpha, beta) |-> (beta, 0) in ambient coords
        s = block_matrix(nb + m.dim(k - 2), m.dim(k) + nb,
                         [(0, m.dim(k), Matrix.identity(nb))])
        c = eq1.space(k - 1).coords_of(s * eq1.space(k).basis)
        if c is None:
            raise InternalInvariantViolation(
                "u-shift escaped the pair space in degree %d" % k)
        shift[k] = c.scale(_sign(k))
    return shift


def eq1_cohomology(m: ModelInstance, p: Perversity) -> Cohomology:
    """Cohomology of the pair complex: the intersection cohomology of the
    total space."""
    return build_eq1(m, p).complex.cohomology


# ---------------------------------------------------------------------------
# the Gysin sequence


@per_model("gysin_maps")
def gysin_maps(m: ModelInstance, p: Perversity):
    """The chain maps (i, s) of 0 -> Omega_p -> Eq1_p -> G_p[-1] -> 0,
    checked exact once.

    The middle term is the complex of admissible pairs; i is
    alpha |-> (alpha, 0) and s is (alpha, beta) |-> beta.
    """
    pc = perverse_complex(m, p)
    eq1 = build_eq1(m, p)

    inc = {}
    quo = {}
    for k in eq1.complex.degrees():
        na, nb = m.dim(k), m.dim(k - 1)
        omega = pc.omega_space(k).basis
        pairs = block_matrix(na + nb, omega.cols, [(0, 0, omega)])
        inc[k] = eq1.space(k).coords_of(pairs)
        if inc[k] is None:
            raise InternalInvariantViolation(
                "Omega_p misses the pair complex in degree %d" % k)
        pair = eq1.space(k).basis
        tails = Matrix._of(nb, pair.cols, pair.entries[na:])
        quo[k] = pc.gysin_space(k - 1).coords_of(tails)
        if quo[k] is None:
            raise InternalInvariantViolation(
                "pair complex tail misses the Gysin term in degree %d" % k)

    i = chain_map(pc.omega, eq1.complex, inc)
    # G_p[-1]: G_p one degree up with the same differentials (no sign twist:
    # the twisted middle differential already carries it)
    g = pc.gysin
    s = chain_map(eq1.complex, Complex(g.lo + 1, g.hi + 1, g.dims, g.diffs), quo)
    check_short_exact(i, s)
    return i, s


def gysin_les(m: ModelInstance, p: Perversity) -> LongExactSequence:
    """The Gysin long exact sequence; its connecting morphism is verified to
    coincide with the Euler map."""
    ses = SesData(*gysin_maps(m, p))
    eub = euler_map(m, p)
    for k in range(ses.i.target.lo, ses.i.target.hi):
        if ses.connecting(k) != eub.mat(k - 1):
            raise InternalInvariantViolation(
                "Gysin connecting morphism differs from the Euler map in degree %d" % k)
    return ses.les()


# ---------------------------------------------------------------------------
# tensoring with Q[u]


class LambdaExtension:
    """A complex tensored with Q[u] (u of degree 2) in total degrees 0..hi
    (default base.hi + 3, two above the degrees fold reads).  Degree n holds
    one component u^j X^k per base degree k = n - 2j; the differential is the
    base one on each component plus, when shift (a dict of S_k: X^k ->
    X^{k-1}) is given, S one u-power up.

    Degree hi has no outgoing differential, so its quotient is C^hi / B^hi,
    not H^hi (dim(hi) != dim(fold(hi)) for 12 (model, perversity) pairs of
    the fixtures and random_model seeds 0-5 at sizes 2-4).  It is read only
    as the target of u at the last fold, where the rank is still right, as
    H^hi embeds in C^hi / B^hi."""

    def __init__(self, base: Complex, hi=None, shift=None):
        self.base = base
        self.hi = base.hi + 3 if hi is None else hi
        self.offsets = {}
        dims = []
        for n in range(0, self.hi + 1):
            off = {}
            total = 0
            for j, k in self.components(n):
                off[j] = total
                total += base.dim(k)
            self.offsets[n] = off
            dims.append(total)
        self.dims = tuple(dims)
        terms = [(0, base.d)]
        if shift is not None:
            terms.append((1, shift.__getitem__))
        diffs = [self.tensor(n, self, 1, terms) for n in range(0, self.hi + 1)]
        self.complex = Complex(0, self.hi, dims, diffs)
        if shift is not None:
            self.complex.check_square()

    def dim(self, n) -> int:
        return self.dims[n] if 0 <= n <= self.hi else 0

    def fold(self, n) -> int:
        """The built degree whose objects equal those of degree n, entry for
        entry.  For n >= base.hi - 1 the components of C^{n+2} are those of
        C^n one u-power up, in the same order, so u: C^n -> C^{n+2} is the
        identity and D_{n+2} = D_n; everything read from D_{n-1}, D_n and
        D_{n+1} (cohomology, u-ranks, connecting maps, spectral cells) thus
        repeats with period 2 from degree base.hi on."""
        h = self.base.hi
        return n if n <= h + 1 else h + (n - h) % 2

    def components(self, n):
        out = []
        j = 0
        while n - 2 * j >= self.base.lo:
            k = n - 2 * j
            if k <= self.base.hi:
                out.append((j, k))
            j += 1
        return out

    def tensor(self, n, target: "LambdaExtension", degree, terms) -> Matrix:
        """The map from total degree n to total degree n + degree of target
        that sends u^j x, for x in base degree k, to the sum over the terms
        (dj, f) of u^(j+dj) f(k) x; components outside the target window are
        dropped."""
        tgt = target.offsets.get(n + degree, {})
        blocks = []
        for j, col in self.offsets.get(n, {}).items():
            for dj, f in terms:
                if j + dj in tgt:
                    blocks.append((tgt[j + dj], col, f(n - 2 * j)))
        return block_matrix(target.dim(n + degree), self.dim(n), blocks)

    def chain_map(self, target: "LambdaExtension", f) -> ChainMap:
        """The chain map f tensor Q[u] for per-degree base matrices f(k)."""
        maps = {n: self.tensor(n, target, 0, [(0, f)]) for n in range(0, self.hi + 1)}
        return chain_map(self.complex, target.complex, maps)

    def component_of(self, n, cochains: Matrix, j) -> Matrix:
        """The rows of the u^j component of the degree-n cochain columns;
        none if degree n has no u^j component."""
        if j not in self.offsets.get(n, {}):
            return Matrix.zero(0, cochains.cols)
        o = self.offsets[n][j]
        return Matrix._of(self.base.dim(n - 2 * j), cochains.cols,
                          cochains.entries[o:o + self.base.dim(n - 2 * j)])

    def u_matrix(self, n) -> Matrix:
        """The u-action C^n -> C^{n+2}: raise the power by one."""
        return self.tensor(n, self, 2, [(1, lambda k: Matrix.identity(self.base.dim(k)))])

    def u_rank(self, n) -> int:
        """Rank of u: H^n -> H^{n+2}, via cocycle images modulo coboundaries
        (truncation_stable's independent path)."""
        b = image(self.complex.d(n + 1))
        moved = map_image(self.u_matrix(n), kernel(self.complex.d(n)))
        return subspace_sum(moved, b).dim - b.dim


class EquivariantComplex:
    """The equivariant complex: the pair complex tensored with Q[u], with
    the twisted differential d + u * S.  Degree n is read at ext.fold(n);
    n_u is the default highest degree a report lists."""

    def __init__(self, m: ModelInstance, p: Perversity):
        self.m = m
        self.n_u = default_window(m)
        self.eq1 = build_eq1(m, p)
        self.ext = LambdaExtension(self.eq1.complex, shift=pair_shift(m, p))
        self.hi = self.ext.hi
        self.complex = self.ext.complex
        self.cohomology = self.complex.cohomology
        self._folded_u_ranks = {}

    def dim(self, n) -> int:
        return self.cohomology.dim(self.ext.fold(n))

    def dims(self, upto=None):
        """Cohomology dims in total degrees 0..upto (default n_u)."""
        upto = self.n_u if upto is None else upto
        return tuple(self.dim(n) for n in range(0, upto + 1))

    def u_rank(self, n) -> int:
        """Rank of u: H^n -> H^{n+2}, once per fold."""
        f = self.ext.fold(n)
        if f not in self._folded_u_ranks:
            self._folded_u_ranks[f] = self.u_cohomology_matrix(f).rank()
        return self._folded_u_ranks[f]

    def u_ranks(self, upto=None):
        """u-ranks in total degrees 0..upto (default n_u)."""
        upto = self.n_u if upto is None else upto
        return tuple(self.u_rank(n) for n in range(0, upto + 1))

    def u_cohomology_matrix(self, n) -> Matrix:
        """Matrix of u on cohomology H^n -> H^{n+2}."""
        n = self.ext.fold(n)
        h = self.cohomology
        return h.classes_of(n + 2, self.ext.u_matrix(n) * h.lifts(n))


build_equivariant = per_model("equivariant")(EquivariantComplex)


def truncation_stable(m: ModelInstance, p: Perversity) -> bool:
    """The folded dims and u-ranks through degree n_u + 2 equal those of the
    equivariant complex built, without folding, out to degree n_u + 4."""
    eq = build_equivariant(m, p)
    upto = eq.n_u + 2
    ref = LambdaExtension(eq.eq1.complex, upto + 2, pair_shift(m, p))
    h = ref.complex.cohomology
    return (eq.dims(upto) == tuple(h.dim(n) for n in range(0, upto + 1))
            and eq.u_ranks(upto) == tuple(ref.u_rank(n) for n in range(0, upto + 1)))


# ---------------------------------------------------------------------------
# equivariant Gysin sequence


class EquivariantGysin:
    """The Gysin short exact sequence tensored with Q[u], exact because its
    degree n is the direct sum of the Gysin sequence in degrees n - 2j, with
    the verified decomposition of its connecting morphism."""

    def __init__(self, m: ModelInstance, p: Perversity):
        self.eq = build_equivariant(m, p)
        self.pc = perverse_complex(m, p)
        i, s = gysin_maps(m, p)
        self.head = LambdaExtension(self.pc.omega, self.eq.hi)
        self.tail = LambdaExtension(s.target, self.eq.hi)
        self.i = self.head.chain_map(self.eq.ext, i.mat)
        self.s = self.eq.ext.chain_map(self.tail, s.mat)
        self.ses = SesData(self.i, self.s)
        self.eub = euler_map(m, p)

    def expected_connecting(self, n) -> Matrix:
        """The decomposition (Euler map tensor 1 plus signed inclusion tensor
        u) on the lifts of the H^n(C) basis, as classes in H^{n+1}(A).  Tail
        component u^j, of Gysin degree k, sends its Euler images to head
        component u^j and its signed inclusion to head component u^(j+1)."""
        reps = self.ses.hc.lifts(n)
        rows, at = self.head.dim(n + 1), self.head.offsets[n + 1]
        euler, inclusion = [], []
        for j, kk in self.tail.components(n):
            k = kk - 1  # Gysin-term degree of this component
            coords = self.tail.component_of(n, reps, j)
            if not coords.rows:
                continue
            betas = self.pc.gysin_ambient_mat(k) * coords
            head_c = self.pc.omega_space(k + 2).coords_of(self.eub.cochain_images(k, betas))
            if head_c is None:
                raise InternalInvariantViolation("Euler image escaped the perverse complex")
            if j in at:
                euler.append((at[j], 0, head_c))
            inc_c = self.pc.omega_space(k).coords_of(betas)
            if inc_c is None:
                raise InternalInvariantViolation("Gysin term escaped the perverse complex")
            if j + 1 in at:
                inclusion.append((at[j + 1], 0, inc_c.scale(_sign(k + 1))))
        cochains = (block_matrix(rows, reps.cols, euler)
                    + block_matrix(rows, reps.cols, inclusion))
        return self.ses.ha.classes_of(n + 1, cochains)

    def connecting_decomposition_report(self, n_u) -> dict:
        """Entrywise comparison of the generic connecting morphism with the
        Euler-map-plus-shifted-inclusion decomposition, at each fold."""
        for n in sorted({self.eq.ext.fold(k) for k in range(0, n_u)}):
            if self.ses.connecting(n) != self.expected_connecting(n):
                raise DecompositionMismatch(
                    "connecting morphism does not decompose in degree %d" % n)
        return {"decomposition_verified": True, "degrees_checked": list(range(0, n_u))}


def equivariant_gysin_les(m: ModelInstance, p: Perversity, n_u=None):
    """(long exact sequence, connecting decomposition report) for the
    u-extended Gysin sequence."""
    n_u = default_window(m) if n_u is None else n_u
    gy = EquivariantGysin(m, p)
    seq = gy.ses.les(range(n_u), gy.eq.ext.fold)
    return seq, gy.connecting_decomposition_report(n_u)
