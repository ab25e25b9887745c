"""The invariant-pair complex, the equivariant complex over the polynomial
generator u, and the equivariant Gysin sequence.

Degree-k elements of the pair complex are pairs (alpha, beta) with alpha in
the p-level of degree k, beta in the one-step-lower perverse complex of
degree k-1, and d(alpha) + sign * E(beta) again in level; its cohomology
plays the role of the intersection cohomology of the total space.  Beside
its differential d the pair complex carries the signed u-shift
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

from dataclasses import dataclass

from .errors import DecompositionMismatch, InternalInvariantViolation
from .homalg import ChainMap, Cohomology, Complex, LongExactSequence, SesData, chain_map, check_exact
from .model import ModelInstance, Perversity
from .perverse import (
    _sign,
    euler_map,
    gysin_maps,
    perverse_complex,
)
from .ratla import (
    Matrix,
    Subspace,
    block_matrix,
    image,
    intersect,
    kernel,
    map_image,
    preimage,
    subspace_sum,
    vec_add,
    vec_scale,
    zero_vec,
)


def default_window(m: ModelInstance) -> int:
    return m.ambient.top_degree + 6


# ---------------------------------------------------------------------------
# the pair complex


@dataclass(frozen=True)
class Eq1Complex:
    p: Perversity
    complex: Complex    # abstract, degrees 0 .. top_degree + 1
    spaces: dict        # degree -> Subspace of Q^{dim(k) + dim(k-1)}

    def space(self, k) -> Subspace:
        if k in self.spaces:
            return self.spaces[k]
        return Subspace.zero(0)


def build_eq1(m: ModelInstance, p: Perversity) -> Eq1Complex:
    return m.cached(("eq1", p), lambda: _build_eq1(m, p))


def _build_eq1(m: ModelInstance, p: Perversity) -> Eq1Complex:
    m.check_perversity(p)
    a = m.ambient
    pc = perverse_complex(m, p)
    q = p.minus(m.characteristic_perversity())
    lower = perverse_complex(m, q)
    top = a.top_degree

    spaces = {}
    for k in range(0, top + 2):
        na, nb = a.dim(k), a.dim(k - 1)
        fp = m.filtration_level(p, k)
        om = lower.omega_spaces.get(k - 1, Subspace.zero(nb))
        # product subspace F_p^k x Omega_{p-xbar}^{k-1}
        vecs = [tuple(v) + (0,) * nb for v in fp.vectors()]
        vecs += [(0,) * na + tuple(v) for v in om.vectors()]
        prod = Subspace.from_vectors(na + nb, vecs)
        # pairs whose twisted differential head stays in level
        head = a.diff(k).hstack(a.euler(k - 1).scale(_sign(k)))
        spaces[k] = intersect(prod, preimage(head, m.filtration_level(p, k + 1)))

    dims = []
    diffs = []
    for k in range(0, top + 2):
        sp = spaces[k]
        nxt = spaces.get(k + 1, Subspace.zero(a.dim(k + 1) + a.dim(k)))
        cols = []
        for w in sp.vectors():
            img = _twisted_d(a, k, w)
            c = nxt.coords(img)
            if c is None:
                raise InternalInvariantViolation(
                    "pair differential left the pair space in degree %d" % k)
            cols.append(c)
        dims.append(sp.dim)
        diffs.append(Matrix.from_columns(nxt.dim, cols))
    cx = Complex.build(0, top + 1, dims, diffs, check=True)
    return Eq1Complex(p, cx, spaces)


def _twisted_d(a, k, pair_vec):
    """D(alpha, beta) = (d alpha + sign * E beta, d beta) in ambient coords."""
    na = a.dim(k)
    alpha, beta = pair_vec[:na], pair_vec[na:]
    head = vec_add(a.diff(k).apply(alpha),
                   vec_scale(_sign(k), a.euler(k - 1).apply(beta)))
    return tuple(head) + a.diff(k - 1).apply(beta)


def pair_shift(m: ModelInstance, p: Perversity) -> dict:
    """The signed u-shift S_k: Eq1^k -> Eq1^{k-1}, (alpha, beta) |->
    sign(k) * (beta, 0), per pair degree k, in the pair-space bases."""
    return m.cached(("eq1_shift", p), lambda: _pair_shift(m, p))


def _pair_shift(m: ModelInstance, p: Perversity) -> dict:
    a = m.ambient
    eq1 = build_eq1(m, p)
    shift = {}
    for k in eq1.complex.degrees():
        na = a.dim(k)
        cols = []
        for w in eq1.space(k).vectors():
            c = eq1.space(k - 1).coords(tuple(w[na:]) + (0,) * a.dim(k - 2))
            if c is None:
                raise InternalInvariantViolation(
                    "u-shift escaped the pair space in degree %d" % k)
            cols.append(c)
        shift[k] = Matrix.from_columns(eq1.complex.dim(k - 1), cols).scale(_sign(k))
    return shift


def eq1_cohomology(m: ModelInstance, p: Perversity) -> Cohomology:
    """Cohomology of the pair complex: the intersection cohomology of the
    total space."""
    return build_eq1(m, p).complex.cohomology


# ---------------------------------------------------------------------------
# tensoring with Q[u]


class LambdaExtension:
    """A complex tensored with Q[u] (u of degree 2) in total degrees 0..hi
    (default base.hi + 3, two above the degrees fold reads).  Degree n holds
    one component u^j X^k per base degree k = n - 2j; the differential is the
    base one on each component plus, when shift (a dict of S_k: X^k ->
    X^{k-1}) is given, S one u-power up."""

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
        self.complex = Complex.build(0, self.hi, dims, diffs, check=shift is not None)

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

    def inject(self, n, j, coords):
        out = [0] * self.dim(n)
        o = self.offsets[n][j]
        for t, x in enumerate(coords):
            out[o + t] = x
        return tuple(out)

    def coordinates(self, n, lo, hi):
        """Coordinates of total degree n in the components of base degree
        lo <= k < hi."""
        out = []
        for j, off in self.offsets.get(n, {}).items():
            k = n - 2 * j
            if lo <= k < hi:
                out += range(off, off + self.base.dim(k))
        return out

    def component_of(self, n, vec, j):
        if j not in self.offsets[n]:
            return ()
        o = self.offsets[n][j]
        k = n - 2 * j
        return tuple(vec[o:o + self.base.dim(k)])

    def u_matrix(self, n) -> Matrix:
        """The u-action C^n -> C^{n+2}: raise the power by one."""
        return self.tensor(n, self, 2, [(1, lambda k: Matrix.identity(self.base.dim(k)))])

    def u_rank(self, n) -> int:
        """Rank of u: H^n -> H^{n+2}, via cocycle images modulo coboundaries."""
        b = image(self.complex.d(n + 1))
        moved = map_image(self.u_matrix(n), kernel(self.complex.d(n)))
        return subspace_sum(moved, b).dim - b.dim


class EquivariantComplex:
    """The equivariant complex: the pair complex tensored with Q[u], with
    the twisted differential d + u * S.  Degree n is read at ext.fold(n);
    n_u is the default highest degree a report lists."""

    def __init__(self, m: ModelInstance, p: Perversity):
        m.check_perversity(p)
        self.m = m
        self.p = p
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
        f = self.ext.fold(n)
        if f not in self._folded_u_ranks:
            self._folded_u_ranks[f] = self.ext.u_rank(f)
        return self._folded_u_ranks[f]

    def u_ranks(self, upto=None):
        """u-ranks in total degrees 0..upto (default n_u)."""
        upto = self.n_u if upto is None else upto
        return tuple(self.u_rank(n) for n in range(0, upto + 1))

    def u_cohomology_matrix(self, n) -> Matrix:
        """Matrix of u on cohomology H^n -> H^{n+2}."""
        n = self.ext.fold(n)
        h = self.cohomology
        cols = [h.class_of(n + 2, self.ext.u_matrix(n).apply(rep))
                for rep in h.basis_lifts(n)]
        return Matrix.from_columns(h.dim(n + 2), cols)


def build_equivariant(m: ModelInstance, p: Perversity) -> EquivariantComplex:
    return m.cached(("equivariant", p), lambda: EquivariantComplex(m, p))


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
    """The Gysin short exact sequence tensored with Q[u], with its long
    exact sequence and the verified decomposition of the connecting
    morphism."""

    def __init__(self, m: ModelInstance, p: Perversity):
        self.m = m
        self.p = p
        self.eq = build_equivariant(m, p)
        self.pc = perverse_complex(m, p)
        i, s = gysin_maps(m, p)
        self.head = LambdaExtension(self.pc.omega, self.eq.hi)
        self.tail = LambdaExtension(s.target, self.eq.hi)
        self.i = self.head.chain_map(self.eq.ext, i.mat)
        self.s = self.eq.ext.chain_map(self.tail, s.mat)
        self.ses = SesData(self.i, self.s)
        self.eub = euler_map(m, p)
        self._maps = {}

    def maps(self, f):
        """The maps H^f(A) -> H^f(B) -> H^f(C) -> H^{f+1}(A) at a fold f,
        built once per fold."""
        if f not in self._maps:
            ses = self.ses
            self._maps[f] = (ses.ha.induced_map(ses.hb, ses.i, f),
                             ses.hb.induced_map(ses.hc, ses.s, f),
                             ses.connecting(f))
        return self._maps[f]

    def les(self, n_u) -> LongExactSequence:
        """The long exact sequence in degrees 0..n_u - 1, each degree read at
        its fold."""
        ses, fold = self.ses, self.eq.ext.fold
        labels, dims, maps = [], [], []
        for k in range(0, n_u):
            f = fold(k)
            labels += ["H^%d(A)" % k, "H^%d(B)" % k, "H^%d(C)" % k]
            dims += [ses.ha.dim(f), ses.hb.dim(f), ses.hc.dim(f)]
            into_b, into_c, connecting = self.maps(f)
            maps += [into_b, into_c]
            if k < n_u - 1:
                maps.append(connecting)
        return LongExactSequence(labels, dims, maps)

    def expected_connecting_cochain(self, n, tail_vec):
        """Image cochain of the decomposition (Euler map tensor 1 plus signed
        inclusion tensor u) applied to a closed tail element."""
        a = self.m.ambient
        out = zero_vec(self.head.complex.dim(n + 1))
        for j, kk in self.tail.components(n):
            k = kk - 1  # Gysin-term degree of this component
            coords = self.tail.component_of(n, tail_vec, j)
            if not coords:
                continue
            beta = self.pc.gysin_ambient_mat(k).apply(coords)
            omega_vec, _ = self.eub.cochain_image(k, beta)
            head_c = self.pc.omega_spaces.get(
                k + 2, Subspace.zero(a.dim(k + 2))).coords(omega_vec)
            if head_c is None:
                raise InternalInvariantViolation("Euler image escaped the perverse complex")
            if j in self.head.offsets[n + 1]:
                out = vec_add(out, self.head.inject(n + 1, j, head_c))
            # signed inclusion into the next u-power
            inc_c = self.pc.omega_spaces.get(k, Subspace.zero(a.dim(k))).coords(beta)
            if inc_c is None:
                raise InternalInvariantViolation("Gysin term escaped the perverse complex")
            if j + 1 in self.head.offsets[n + 1]:
                out = vec_add(out,
                              self.head.inject(n + 1, j + 1,
                                               vec_scale(_sign(k + 1), inc_c)))
        return out

    def connecting_decomposition_report(self, n_u) -> dict:
        """Entrywise comparison of the generic connecting morphism with the
        Euler-map-plus-shifted-inclusion decomposition, at each fold."""
        for n in sorted({self.eq.ext.fold(k) for k in range(0, n_u)}):
            generic = self.maps(n)[2]
            cols = []
            for rep in self.ses.hc.basis_lifts(n):
                expected = self.expected_connecting_cochain(n, rep)
                cols.append(self.ses.ha.class_of(n + 1, expected))
            expected_mat = Matrix.from_columns(self.ses.ha.dim(n + 1), cols)
            if generic != expected_mat:
                raise DecompositionMismatch(
                    "connecting morphism does not decompose in degree %d" % n)
        return {"decomposition_verified": True, "degrees_checked": list(range(0, n_u))}


def equivariant_gysin_les(m: ModelInstance, p: Perversity, n_u=None):
    """(long exact sequence, report) for the u-extended Gysin sequence."""
    n_u = default_window(m) if n_u is None else n_u
    gy = m.cached(("eq_gysin", p), lambda: EquivariantGysin(m, p))
    seq = gy.les(n_u)
    report = gy.connecting_decomposition_report(n_u)
    report["exactness"] = check_exact(seq)
    report["exact"] = all(r["exact"] for r in report["exactness"])
    return seq, report
