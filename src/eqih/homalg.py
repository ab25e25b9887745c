"""Bounded cochain complexes over the rationals.

Complexes are concrete: the degree-k space is Q^dim(k) and the differential
is an explicit matrix.  Subcomplexes and quotient complexes come with the
chain maps relating them to their parent, and a short exact sequence of chain
maps induces a long exact sequence with an explicitly computed connecting
morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import ratla
from .errors import NotAComplex, NotExact, InternalInvariantViolation
from .ratla import Matrix, Subspace, image, kernel, quotient


@dataclass(frozen=True)
class Complex:
    """Cochain complex supported in degrees lo..hi (inclusive).  Its
    cohomology is built on first use and kept with it."""

    lo: int
    hi: int
    dims: tuple            # dims[k - lo]
    diffs: tuple           # diffs[k - lo]: dim(k+1) x dim(k); empty above hi

    @staticmethod
    def build(lo, hi, dims, diffs, check=True) -> "Complex":
        dims = tuple(dims)
        diffs = tuple(diffs)
        if len(dims) != hi - lo + 1 or len(diffs) != hi - lo + 1:
            raise ValueError("degree range does not match data length")
        c = Complex(lo, hi, dims, diffs)
        for k in range(lo, hi + 1):
            d = diffs[k - lo]
            if d.cols != dims[k - lo] or d.rows != c.dim(k + 1):
                raise ValueError("differential shape mismatch in degree %d" % k)
        if check:
            c.check_square()
        return c

    @staticmethod
    def zero(lo=0, hi=0) -> "Complex":
        n = hi - lo + 1
        return Complex(lo, hi, (0,) * n, (Matrix.zero(0, 0),) * n)

    def dim(self, k) -> int:
        if self.lo <= k <= self.hi:
            return self.dims[k - self.lo]
        return 0

    def d(self, k) -> Matrix:
        if self.lo <= k <= self.hi:
            return self.diffs[k - self.lo]
        return Matrix.zero(self.dim(k + 1), self.dim(k))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_dim(self) -> int:
        return sum(self.dims)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.dim(k) for k in self.degrees())

    def check_square(self):
        """Raise NotAComplex unless d.d = 0 in every degree."""
        for k in range(self.lo, self.hi):
            if not (self.d(k + 1) * self.d(k)).is_zero():
                raise NotAComplex("d.d != 0 in degree %d" % k)

    @cached_property
    def cohomology(self) -> "Cohomology":
        return Cohomology(self, check=False)


@dataclass(frozen=True)
class ChainMap:
    """Degree-preserving chain map given by per-degree matrices.

    maps[k] sends degree k of the source to degree k + shift of the target;
    commutation with the differentials is checked on the nose.
    """

    source: Complex
    target: Complex
    shift: int
    maps: dict = field(compare=False)

    def mat(self, k) -> Matrix:
        m = self.maps.get(k)
        if m is None:
            return Matrix.zero(self.target.dim(k + self.shift), self.source.dim(k))
        return m

    def check(self, degrees=None):
        degs = degrees if degrees is not None else self.source.degrees()
        for k in degs:
            lhs = self.mat(k + 1) * self.source.d(k)
            rhs = self.target.d(k + self.shift) * self.mat(k)
            if lhs != rhs:
                raise NotAComplex("chain map does not commute with d in degree %d" % k)
        return self

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        maps = {k: self.mat(k + other.shift) * other.mat(k) for k in other.source.degrees()}
        return ChainMap(other.source, self.target, self.shift + other.shift, maps)


def chain_map(source, target, maps, shift=0, check=True) -> ChainMap:
    f = ChainMap(source, target, shift, dict(maps))
    if check:
        f.check()
    return f


def subcomplex(parent: Complex, bases: dict) -> tuple:
    """Subcomplex spanned degreewise by the given bases (d-stability checked).

    bases maps degree -> Subspace of Q^parent.dim(k).  Returns the abstract
    complex together with its inclusion chain map into the parent.
    """
    dims = []
    diffs = []
    spaces = {k: bases.get(k, Subspace.zero(parent.dim(k))) for k in parent.degrees()}
    for k in parent.degrees():
        v = spaces[k]
        w_next = spaces.get(k + 1, Subspace.zero(parent.dim(k + 1)))
        cols = []
        for b in v.vectors():
            img = parent.d(k).apply(b)
            coords = w_next.coords(img)
            if coords is None:
                raise NotAComplex("subspace is not d-stable in degree %d" % k)
            cols.append(coords)
        dims.append(v.dim)
        diffs.append(Matrix.from_columns(w_next.dim, cols))
    sub = Complex.build(parent.lo, parent.hi, dims, diffs, check=False)
    incl = ChainMap(sub, parent, 0, {k: spaces[k].basis for k in parent.degrees()})
    return sub, incl


def quotient_complex(parent: Complex, bases: dict) -> tuple:
    """parent / (d-stable graded subspace); returns (complex, projection map)."""
    quots = {}
    for k in parent.degrees():
        w = bases.get(k, Subspace.zero(parent.dim(k)))
        quots[k] = quotient(Subspace.full(parent.dim(k)), w)
    dims = []
    diffs = []
    for k in parent.degrees():
        q, qn = quots[k], quots.get(k + 1)
        nrows = qn.dim if qn is not None else 0
        if nrows and q.dim:
            diffs.append(qn.projection * parent.d(k) * q.lift)
        else:
            diffs.append(Matrix.zero(nrows, q.dim))
        dims.append(q.dim)
    quo = Complex.build(parent.lo, parent.hi, dims, diffs, check=False)
    proj = ChainMap(parent, quo, 0, {k: quots[k].projection for k in parent.degrees()})
    # induced differential must be well defined: projection is a chain map
    proj.check()
    return quo, proj


class Cohomology:
    """Graded cohomology of a complex with class-of and lift maps."""

    def __init__(self, c: Complex, check=True):
        if check:
            c.check_square()
        self.complex = c
        self._quotients = {}
        for k in c.degrees():
            self._quotients[k] = quotient(kernel(c.d(k)), image(c.d(k - 1)))

    def dim(self, k) -> int:
        if k in self._quotients:
            return self._quotients[k].dim
        return 0

    def dims(self):
        return tuple(self.dim(k) for k in self.complex.degrees())

    def class_of(self, k, cocycle):
        if any(self.complex.d(k).apply(cocycle)):
            raise InternalInvariantViolation("vector is not a cocycle in degree %d" % k)
        if k not in self._quotients:
            return ()
        return self._quotients[k].class_of(cocycle)

    def lift(self, k, coords):
        if k not in self._quotients:
            return ratla.zero_vec(self.complex.dim(k))
        return self._quotients[k].lift_class(coords)

    def basis_lifts(self, k):
        """Cocycle representatives of the canonical cohomology basis."""
        return [self.lift(k, _unit(self.dim(k), i)) for i in range(self.dim(k))]

    def induced_map(self, other: "Cohomology", f: ChainMap, k) -> Matrix:
        """Matrix of H^k(f): H^k(self) -> H^{k+shift}(other) for a chain map f."""
        cols = [other.class_of(k + f.shift, f.mat(k).apply(rep)) for rep in self.basis_lifts(k)]
        return Matrix.from_columns(other.dim(k + f.shift), cols)


def _unit(n, i):
    return tuple(ratla.ONE if j == i else ratla.ZERO for j in range(n))


@dataclass
class LongExactSequence:
    """Period-3 long exact sequence: nodes carry labels and dimensions, and
    maps[i] goes from node i to node i+1."""

    labels: list
    dims: list
    maps: list  # len == len(labels) - 1

    def node_count(self):
        return len(self.labels)


def check_exact(seq: LongExactSequence):
    """Per-interior-node report of image/kernel dimensions."""
    report = []
    for i in range(1, seq.node_count() - 1):
        incoming = seq.maps[i - 1]
        outgoing = seq.maps[i]
        im = image(incoming)
        ker = kernel(outgoing)
        ok = im == ker
        report.append({
            "node": seq.labels[i],
            "dim": seq.dims[i],
            "dim_image": im.dim,
            "dim_kernel": ker.dim,
            "exact": ok,
        })
    return report


def is_exact(seq: LongExactSequence) -> bool:
    return all(r["exact"] for r in check_exact(seq))


class SesData:
    """Cohomological data of a short exact sequence 0 -> A -> B -> C -> 0."""

    def __init__(self, i: ChainMap, s: ChainMap, check=True, lift_perturbation=None):
        if i.shift != 0 or s.shift != 0:
            raise NotExact("SES maps must preserve degree")
        if i.target is not s.source:
            raise NotExact("middle complexes differ")
        a, b, c = i.source, i.target, s.target
        if check:
            i.check()
            s.check()
            for k in b.degrees():
                if kernel(i.mat(k)).dim != 0:
                    raise NotExact("first map not injective in degree %d" % k)
                if image(s.mat(k)).dim != c.dim(k):
                    raise NotExact("second map not surjective in degree %d" % k)
                if image(i.mat(k)) != kernel(s.mat(k)):
                    raise NotExact("image != kernel at middle term in degree %d" % k)
        for x in (a, b, c):
            x.check_square()
        self.i, self.s = i, s
        self.ha, self.hb, self.hc = a.cohomology, b.cohomology, c.cohomology
        self._perturb = lift_perturbation

    def connecting(self, k) -> Matrix:
        """H^k(C) -> H^{k+1}(A) via lift, differentiate, i-preimage."""
        a, b = self.i.source, self.i.target
        cols = []
        for z in self.hc.basis_lifts(k):
            pre = self.s.mat(k).solve(z)
            if pre is None:
                raise InternalInvariantViolation("surjectivity failed during connecting map")
            if self._perturb is not None:
                pre = ratla.vec_add(pre, self._perturb(k, self.s.mat(k)))
            db = b.d(k).apply(pre)
            back = self.i.mat(k + 1).solve(db)
            if back is None:
                raise InternalInvariantViolation("connecting image missed the subcomplex")
            cols.append(self.ha.class_of(k + 1, back))
        return Matrix.from_columns(self.ha.dim(k + 1), cols)

    def les(self, lo=None, hi=None) -> LongExactSequence:
        """Long exact sequence over the degree window [lo, hi]."""
        a, c = self.i.source, self.s.target
        lo = a.lo if lo is None else lo
        hi = a.hi if hi is None else hi
        labels, dims, maps = [], [], []
        for k in range(lo, hi + 1):
            labels += ["H^%d(A)" % k, "H^%d(B)" % k, "H^%d(C)" % k]
            dims += [self.ha.dim(k), self.hb.dim(k), self.hc.dim(k)]
            maps.append(self.ha.induced_map(self.hb, self.i, k))
            maps.append(self.hb.induced_map(self.hc, self.s, k))
            if k < hi:
                maps.append(self.connecting(k))
        return LongExactSequence(labels, dims, maps)

