"""Bounded cochain complexes over the rationals.

Complexes are concrete: the degree-k space is Q^dim(k) and the differential
is an explicit matrix.  Subcomplexes and quotient complexes come with the
chain maps relating them to their parent, and a short exact sequence of chain
maps induces a long exact sequence with an explicitly computed connecting
morphism.

Each object is checked once, where it is built.  Complex.build checks
shapes only: d.d = 0 holds on a model's ambient and pair complexes once the
model passes its axioms (model.check_axioms), the u-twisted tensor complex
calls check_square itself, and every other complex is a sub- or quotient
complex, shift or untwisted tensor copy of one of these.  subcomplex checks
d-stability, quotient_complex that its projection is a chain map, chain_map
its maps, and check_short_exact the exactness of two chain maps; Cohomology
and SesData check nothing.  Cohomology builds the quotient of a degree on
its first read, so a degree that no caller reads costs nothing.  A long
exact sequence checks its own exactness once, through check_exact, the
first time it is read, and takes the image and the kernel of each distinct
map object once: the sequence of a u-extension reads its folded degrees at
their fold (see equivariant.LambdaExtension.fold), so their nodes share map
objects.

A degree where an operand is empty is skipped, since every check there
holds between empty matrices: chain map squares whose source degree or
target degree above is 0, d.d where dim(k) or dim(k + 2) is 0, the
d-stability of a zero space, and the cocycle check on no columns or into a
zero degree.  A map on cohomology out of a zero degree is a zero matrix
built without arithmetic.  Every check that can fail still runs.
"""

from __future__ import annotations

from .errors import NotAComplex, NotExact, InternalInvariantViolation
from .ratla import Matrix, Subspace, image, kernel, quotient
from .value import Value, memo


class Complex(Value):
    """Cochain complex supported in degrees lo..hi (inclusive).  Its
    cohomology is built on first use and kept with it."""

    __slots__ = ("lo", "hi",
                 "dims",   # dims[k - lo]
                 "diffs",  # diffs[k - lo]: dim(k+1) x dim(k); empty above hi
                 "_cohomology")

    @staticmethod
    def build(lo, hi, dims, diffs) -> "Complex":
        dims = tuple(dims)
        diffs = tuple(diffs)
        if len(dims) != hi - lo + 1 or len(diffs) != hi - lo + 1:
            raise ValueError("degree range does not match data length")
        c = Complex(lo, hi, dims, diffs)
        for k in range(lo, hi + 1):
            d = diffs[k - lo]
            if d.cols != dims[k - lo] or d.rows != c.dim(k + 1):
                raise ValueError("differential shape mismatch in degree %d" % k)
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

    def check_square(self):
        """Raise NotAComplex, with the first failing degree, unless d.d = 0
        in every degree."""
        for k in range(self.lo, self.hi):
            if self.dim(k) and self.dim(k + 2) and not (self.d(k + 1) * self.d(k)).is_zero():
                raise NotAComplex("d.d != 0 in degree %d" % k)

    @memo
    def cohomology(self) -> "Cohomology":
        return Cohomology(self)


class ChainMap(Value, uncompared=("maps",)):
    """Degree-preserving chain map given by per-degree matrices.

    maps[k] sends degree k of the source to degree k + shift of the target;
    chain_map checks commutation with the differentials on the nose.
    """

    __slots__ = ("source", "target", "shift", "maps")

    def mat(self, k) -> Matrix:
        m = self.maps.get(k)
        if m is None:
            return Matrix.zero(self.target.dim(k + self.shift), self.source.dim(k))
        return m

    def check(self, degrees=None):
        degs = degrees if degrees is not None else self.source.degrees()
        for k in degs:
            # the square holds between empty matrices
            if not (self.source.dim(k) and self.target.dim(k + self.shift + 1)):
                continue
            lhs = self.mat(k + 1) * self.source.d(k)
            rhs = self.target.d(k + self.shift) * self.mat(k)
            if lhs != rhs:
                raise NotAComplex("chain map does not commute with d in degree %d" % k)
        return self


def chain_map(source, target, maps, shift=0) -> ChainMap:
    return ChainMap(source, target, shift, dict(maps)).check()


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
        coords = (w_next.coords_of(parent.d(k) * v.basis) if v.dim
                  else Matrix.zero(w_next.dim, 0))
        if coords is None:
            raise NotAComplex("subspace is not d-stable in degree %d" % k)
        dims.append(v.dim)
        diffs.append(coords)
    sub = Complex.build(parent.lo, parent.hi, dims, diffs)
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
    quo = Complex.build(parent.lo, parent.hi, dims, diffs)
    # induced differential must be well defined: projection is a chain map
    return quo, chain_map(parent, quo, {k: quots[k].projection for k in parent.degrees()})


class Cohomology:
    """Graded cohomology of a complex, each degree built on its first read.
    In degree k, lifts(k) holds cocycle representatives of the canonical
    class basis as columns, and classes_of(k, M) gives the classes of the
    cocycle columns of M in that basis; every map on cohomology is read
    through these two, a whole basis at a time."""

    def __init__(self, c: Complex):
        self.complex = c
        self._quotients = {}

    def _quotient(self, k):
        """H^k as a quotient space, built on first read; None outside the degrees."""
        c = self.complex
        if c.lo <= k <= c.hi and k not in self._quotients:
            self._quotients[k] = quotient(kernel(c.d(k)), image(c.d(k - 1)))
        return self._quotients.get(k)

    def dim(self, k) -> int:
        q = self._quotient(k)
        return 0 if q is None else q.dim

    def dims(self):
        return tuple(self.dim(k) for k in self.complex.degrees())

    def classes_of(self, k, cocycles: Matrix) -> Matrix:
        """The classes of the columns of cocycles, one column each."""
        if not cocycles.cols:
            return Matrix.zero(self.dim(k), 0)
        if self.complex.dim(k + 1) and not (self.complex.d(k) * cocycles).is_zero():
            raise InternalInvariantViolation("vector is not a cocycle in degree %d" % k)
        if not self.dim(k):
            return Matrix.zero(0, cocycles.cols)
        return self._quotient(k).projection * cocycles

    def lifts(self, k) -> Matrix:
        """Cocycle representatives of the canonical cohomology basis, as
        columns."""
        q = self._quotient(k)
        return Matrix.zero(self.complex.dim(k), 0) if q is None else q.lift

    def induced_map(self, other: "Cohomology", f: ChainMap, k) -> Matrix:
        """Matrix of H^k(f): H^k(self) -> H^{k+shift}(other) for a chain map f."""
        if not self.dim(k):
            return Matrix.zero(other.dim(k + f.shift), 0)
        return other.classes_of(k + f.shift, f.mat(k) * self.lifts(k))


class LongExactSequence(Value):
    """Period-3 long exact sequence: nodes carry labels and dimensions, and
    maps[i] goes from node i to node i+1."""

    __slots__ = ("labels", "dims",
                 "maps",  # len == len(labels) - 1
                 "_exactness")

    def node_count(self):
        return len(self.labels)

    @memo
    def exactness(self) -> list:
        """The rows of check_exact, computed on first use."""
        return check_exact(self)

    @property
    def exact(self) -> bool:
        return all(r["exact"] for r in self.exactness)


def check_exact(seq: LongExactSequence):
    """Per-interior-node report of image/kernel dimensions.  The image and
    the kernel of each distinct map object are taken once: the nodes of
    folded degrees share their maps."""
    images, kernels = {}, {}
    report = []
    for i in range(1, seq.node_count() - 1):
        incoming = seq.maps[i - 1]
        outgoing = seq.maps[i]
        if id(incoming) not in images:
            images[id(incoming)] = image(incoming)
        if id(outgoing) not in kernels:
            kernels[id(outgoing)] = kernel(outgoing)
        im = images[id(incoming)]
        ker = kernels[id(outgoing)]
        ok = im == ker
        report.append({
            "node": seq.labels[i],
            "dim": seq.dims[i],
            "dim_image": im.dim,
            "dim_kernel": ker.dim,
            "exact": ok,
        })
    return report


def check_short_exact(i: ChainMap, s: ChainMap):
    """Raise NotExact unless 0 -> A -> B -> C -> 0 is exact in every degree
    of B: i injective, s surjective, s.i = 0 and dim B = dim A + dim C, so
    that the image of i fills the kernel of s."""
    for k in i.target.degrees():
        f, g = i.mat(k), s.mat(k)
        if f.cols and f.rank() != f.cols:
            raise NotExact("first map not injective in degree %d" % k)
        if g.rows and g.rank() != g.rows:
            raise NotExact("second map not surjective in degree %d" % k)
        if f.rows != f.cols + g.rows or not (g * f).is_zero():
            raise NotExact("image != kernel at middle term in degree %d" % k)


class SesData:
    """Cohomological data of a short exact sequence 0 -> A -> B -> C -> 0
    that its caller built exact.  The connecting morphism is computed once
    per degree, on the whole basis of H^k(C) at once, one elimination per
    map it inverts."""

    def __init__(self, i: ChainMap, s: ChainMap):
        if i.shift != 0 or s.shift != 0:
            raise NotExact("SES maps must preserve degree")
        if i.target is not s.source:
            raise NotExact("middle complexes differ")
        self.i, self.s = i, s
        self.ha, self.hb, self.hc = (i.source.cohomology, i.target.cohomology,
                                     s.target.cohomology)
        self._connecting = {}

    def connecting(self, k) -> Matrix:
        """H^k(C) -> H^{k+1}(A), built on first use."""
        if k not in self._connecting:
            self._connecting[k] = self._connect(k)
        return self._connecting[k]

    def _connect(self, k) -> Matrix:
        """Lift the class representatives of H^k(C) through s, differentiate
        in B, and take the i-preimage's classes."""
        if not self.hc.dim(k):
            return Matrix.zero(self.ha.dim(k + 1), 0)
        pre = self.s.mat(k).solve(self.hc.lifts(k))
        if pre is None:
            raise InternalInvariantViolation("surjectivity failed during connecting map")
        back = self.i.mat(k + 1).solve(self.i.target.d(k) * pre)
        if back is None:
            raise InternalInvariantViolation("connecting image missed the subcomplex")
        return self.ha.classes_of(k + 1, back)

    def les(self, degrees=None, at=None) -> LongExactSequence:
        """The long exact sequence over the listed degrees (default: those of
        B), degree k read at degree at(k) (default k).  The maps of each
        degree read are built once, and none leaves the last listed degree."""
        degrees = list(self.i.target.degrees() if degrees is None else degrees)
        induced = {}
        labels, dims, maps = [], [], []
        for n, k in enumerate(degrees):
            f = k if at is None else at(k)
            labels += ["H^%d(A)" % k, "H^%d(B)" % k, "H^%d(C)" % k]
            dims += [self.ha.dim(f), self.hb.dim(f), self.hc.dim(f)]
            if f not in induced:
                induced[f] = [self.ha.induced_map(self.hb, self.i, f),
                              self.hb.induced_map(self.hc, self.s, f)]
            maps += induced[f]
            if n < len(degrees) - 1:
                maps.append(self.connecting(f))
        return LongExactSequence(labels, dims, maps)

