"""The spectral sequence of the equivariant complex and the fixed-point
long exact sequence.

The equivariant complex is filtered by the pair degree: F^i collects the
elements supported in pair degrees >= i whose twisted differential is again
supported there.  One persistence reduction of D per total degree, with its
column operations kept, puts D in normal form: a basis of chains adapted to
the filtration in which D sends each source chain to a boundary and every
other chain to zero.  Every Z_r and every cell denominator of the spectral
sequence is then the span of chains (and boundaries) chosen by filtration
and reach, every cell dimension is counted from the pairs, and a cell is
built as a quotient space, for its d_r and E_3 maps, only where that count
is not zero (see SpectralSequence).  The associated first-quadrant spectral
sequence has even rows only; its third page carries the intersection
cohomology of the orbit space on row zero and the co-Gysin cohomology
(tensored with u-powers) on the higher even rows, with third differential
given by the Euler map composed with the co-Gysin connecting morphism.  When
the Gysin term at the zero perversity coincides with the lower perverse
complex the same data assembles into a long exact sequence relating the
orbit-space cohomology, the equivariant cohomology and the co-Gysin
cohomology at positive u-powers (the co-Gysin term playing the role of the
fixed-point set).
"""

from __future__ import annotations

from functools import cache

from .equivariant import build_equivariant, gysin_maps
from .errors import (
    IdentificationFails,
    InternalInvariantViolation,
    PropertyViolation,
    TheoremViolation,
)
from .homalg import LongExactSequence
from .model import ModelInstance, Perversity, mat_to_json, per_model
from .perverse import (
    cogysin_cohomology,
    cogysin_ses,
    euler_map,
    gysin_cohomology,
    inclusion_map,
    omega_cohomology,
    perverse_complex,
)
from .ratla import (
    Matrix,
    QuotientSpace,
    Subspace,
    block_matrix,
    divide,
    image,
    inverse,
    quotient,
)
from .value import Value


class SpectralPage(Value):
    """One page: cell dimensions and differentials d_r: (i,j) -> (i+r, j-r+1)
    in the total degrees a report lists."""

    __slots__ = ("r",
                 "cells",          # (i, j) -> dimension
                 "differentials")  # (i, j) -> Matrix

    def dim(self, i, j) -> int:
        return self.cells.get((i, j), 0)

    def d(self, i, j) -> Matrix:
        """d_r out of (i, j); an unlisted source is zero, with no columns."""
        if (i, j) in self.differentials:
            return self.differentials[(i, j)]
        return Matrix.zero(self.dim(i + self.r, j - self.r + 1), 0)


class NormalForm(Value):
    """D_n in persistence normal form: D_n sends each source chain to its
    boundary and every other chain to zero."""

    __slots__ = ("tags",         # filtration of each chain of C^n
                 "targets",      # lowest non-zero row of each boundary, None for a cycle
                 "reach",        # filtration of each target, None for a cycle
                 "chains",       # the chains, as vectors of C^n
                 "boundaries")   # D_n of each chain, as vectors of C^{n+1}


class SpectralSequence:
    """Page engine for the equivariant complex filtered by pair degree, in
    the persistence normal form of its differential D.

    Per total degree n the engine keeps a basis of C^n adapted to the
    filtration, each element tagged with the largest i such that it lies in
    F^i (adapted_basis).  It writes D_n in the adapted bases of C^n and
    C^{n+1}, columns and rows from high filtration to low, and reduces it: a
    column is cleared only by earlier columns, and the column operations V,
    unit upper triangular, are kept.  The chains, the adapted basis times V,
    are again adapted, and D_n sends each source chain to its boundary,
    whose lowest non-zero row (the target) differs from every other
    source's, and every other chain to zero: the persistence normal form of
    Barannikov ("The framed Morse complex and its invariants", Adv. Soviet
    Math. 21, 1994) and of Edelsbrunner, Letscher and Zomorodian
    ("Topological persistence and simplification", DCG 28, 2002).  A
    source's reach is the filtration of its target (None for a cycle).  As
    the targets differ, D x lies in F^k exactly when every source in the
    support of x reaches k or more, so
        Z_r^{i,j} = span of the chains of tag >= i and reach None or >= i + r,
    with F^i C^n = Z_0^{i,n-i}.  A boundary that reaches i + 1 or more is a
    cycle in F^{i+1}, so lies in Z_{r-1}^{i+1}; the denominator of
        E_r^{i,j} = Z_r / (Z_{r-1}^{i+1,j-1} + D Z_{r-1}^{i-r+1,j+r-2})
    is thus the direct sum of the chains of Z_{r-1}^{i+1,j-1} and the
    boundaries of the degree i + j - 1 chains of tag >= i - r + 1 that
    reach exactly i.

    A pair with gap reach - tag lives on the pages r <= gap (Basu and
    Parida, "Spectral sequences, exact couples and persistent homology of
    filtrations", Expo. Math. 2017), so dim E_r^{i,j} counts the chains of
    degree i + j and tag i that are unpaired or paired, as source or target,
    at a gap of at least r.  A cell's quotient space, with the lifts that
    d_r and the E_3 maps are read from, is built only where that count is
    non-zero.  Each span is built once per choice of chains and boundaries,
    and each quotient once per choice of numerator and denominator.  From
    page r - 1 to r the chains of Z_r^{i,j} lose the sources of tag >= i
    that reach i + r - 1 (those of Z_{r-1}^{i+1,j-1} a subset of them), and
    the boundaries gain those of the sources of tag i - r + 1 that reach i,
    which are pairs of gap r - 1 at the cell.  So the choices at r and r - 1
    coincide exactly where the Z_r and the cell counts agree, and there the
    page r - 1 span and quotient are reused with no bookkeeping.  Every
    quotient that is built is checked against its count.  Every total
    degree is read at its fold (LambdaExtension.fold) and every page past
    r_infinity at r_infinity, whose cells and differentials it equals, so
    each value is exact.
    """

    def __init__(self, eq):
        self.eq = eq
        self.cx = eq.complex
        # pair degrees run 0 .. top_degree + 1
        self.i_top = eq.eq1.complex.hi
        self._adapted = {}
        self._normal = {}
        self._lives = {}
        self._dims = {}
        self._spans = {}
        self._cells = {}
        self._d = {}
        self._lifted = {}   # id of a held cell -> D applied to its lift

    @property
    def r_infinity(self) -> int:
        """Pages stabilize from this index on."""
        return self.i_top + 2

    def _key(self, r, i, j):
        """(r, i, j) with the page capped at r_infinity and the degree folded."""
        return min(r, self.r_infinity), i, self.eq.ext.fold(i + j) - i

    def z(self, r, i, j) -> Subspace:
        """Z_r^{i,j}: the span of the chains of tag >= i and reach None or
        >= i + r."""
        n = self.eq.ext.fold(i + j)
        return self._span(n, self._chosen(n, i, i + r))

    def _chosen(self, n, tag, reach):
        """The chains of C^n of tag >= tag and reach None or >= reach."""
        nf = self.normal_form(n)
        return tuple(c for c, (t, x) in enumerate(zip(nf.tags, nf.reach))
                     if t >= tag and (x is None or x >= reach))

    def _span(self, n, chains, bounds=()):
        """The span in C^n of the chosen chains of C^n and boundaries of
        C^{n-1} chains, built once per choice."""
        key = (n, chains, bounds)
        if key not in self._spans:
            vecs = [self.normal_form(n).chains[c] for c in chains]
            vecs += [self.normal_form(n - 1).boundaries[c] for c in bounds]
            self._spans[key] = image(
                Matrix._of(len(vecs), self.cx.dim(n), tuple(vecs)).transpose())
        return self._spans[key]

    def adapted_basis(self, n):
        """(basis matrix, filtration of each column) of C^n, from high
        filtration to low: the x of the rref rows (x, D_n x) of the rows
        (e_c, D_n e_c), coordinates in ascending pair degree, each tagged
        with the pair degree of its pivot, so that F^i is spanned by the
        rows whose pivot has pair degree >= i."""
        n = self.eq.ext.fold(n)
        if n not in self._adapted:
            ext, amb = self.eq.ext, self.cx.dim(n)
            degs = [t - 2 * j for t in (n, n + 1) for j in ext.offsets.get(t, {})
                    for _ in range(ext.base.dim(t - 2 * j))]
            order = sorted(range(len(degs)), key=degs.__getitem__)
            rows = (e + de for e, de in zip(Matrix.identity(amb).entries,
                                            self.cx.d(n).transpose().entries))
            red, pivots = Matrix._of(amb, len(order), tuple(
                tuple(row[a] for a in order) for row in rows)).rref()
            # rows by pivot, so tags ascend; x at its own coordinates
            back = sorted(range(len(order)), key=order.__getitem__)[:amb]
            basis = tuple(tuple(row[b] for b in back) for row in red.entries[::-1])
            self._adapted[n] = (Matrix._of(amb, amb, basis).transpose(),
                                [degs[order[c]] for c in pivots[::-1]])
        return self._adapted[n]

    def normal_form(self, n) -> NormalForm:
        """The persistence normal form of D_n: the adapted basis of C^n
        reduced by the kept column operations of the persistence reduction
        of D_n in the adapted bases of C^n and C^{n+1}."""
        n = self.eq.ext.fold(n)
        if n not in self._normal:
            src, tags = self.adapted_basis(n)
            tgt, tgt_tags = self.adapted_basis(n + 1)
            amb = len(tags)
            # an empty D_n is the zero matrix and takes no column operation,
            # so its chains are the adapted basis: no product is taken
            empty = not (amb and tgt_tags)
            d = Matrix.zero(len(tgt_tags), amb) if empty else tgt.solve(self.cx.d(n) * src)
            # the columns of [I; d], each cleared by the earlier ones at its
            # low: the top block becomes V; a cycle's low is its own 1 in V
            reduced, ops, targets = {}, [], []
            for col in map(tuple.__add__, Matrix.identity(amb).entries, d.transpose().entries):
                low = _low(col)
                while low in reduced:
                    f = divide(col[low], reduced[low][low])
                    col = tuple(a - f * b for a, b in zip(col, reduced[low]))
                    low = _low(col)
                reduced[low] = col
                ops.append(col[:amb])
                targets.append(low - amb if low >= amb else None)
            chains = src if empty else src * Matrix._of(amb, amb, tuple(ops)).transpose()
            self._normal[n] = NormalForm(
                tags, targets, [None if t is None else tgt_tags[t] for t in targets],
                chains.transpose().entries,
                (d if empty else self.cx.d(n) * chains).transpose().entries)
        return self._normal[n]

    def lives(self, n):
        """(filtration, gap) of each chain of C^n, with gap None for a chain
        that no pair of D_{n-1} or D_n holds."""
        n = self.eq.ext.fold(n)
        if n not in self._lives:
            nf, below = self.normal_form(n), self.normal_form(n - 1)
            gaps = [None if x is None else x - t for t, x in zip(nf.tags, nf.reach)]
            for t, tgt, x in zip(below.tags, below.targets, below.reach):
                if tgt is None:
                    continue
                if gaps[tgt] is not None:
                    raise InternalInvariantViolation(
                        "basis element %d of degree %d is both a source and a "
                        "target" % (tgt, n))
                gaps[tgt] = x - t
            self._lives[n] = list(zip(nf.tags, gaps))
        return self._lives[n]

    def dim(self, r, i, j) -> int:
        key = (r, i, j)
        if key not in self._dims:
            r, i, j = self._key(r, i, j)
            self._dims[key] = sum(1 for tag, gap in self.lives(i + j)
                                  if tag == i and (gap is None or gap >= r))
        return self._dims[key]

    def cell(self, r, i, j) -> QuotientSpace:
        """The page-r cell Z_r / (Z_{r-1}^{i+1,j-1} + D Z_{r-1}^{i-r+1,j+r-2})
        as a quotient space, whose dimension must equal the pair count;
        callers build it only for non-zero cells."""
        r, i, j = self._key(r, i, j)
        n = i + j
        below = self.normal_form(n - 1)
        key = (n, self._chosen(n, i, i + r), self._chosen(n, i + 1, i + r),
               tuple(c for c, (t, x) in enumerate(zip(below.tags, below.reach))
                     if x == i and t > i - r))
        if key not in self._cells:
            q = quotient(self._span(n, key[1]), self._span(n, key[2], key[3]))
            if q.dim != self.dim(r, i, j):
                raise PropertyViolation(
                    "page %d cell (%d, %d) has dimension %d, its pairs count %d"
                    % (r, i, j, q.dim, self.dim(r, i, j)))
            self._cells[key] = q
        return self._cells[key]

    def d_matrix(self, r, i, j) -> Matrix:
        key = self._key(r, i, j)
        if key not in self._d:
            r, i, j = key
            rows = self.dim(r, i + r, j - r + 1)
            tgt_num = self.z(r, i + r, j - r + 1)
            tgt = self.cell(r, i + r, j - r + 1) if rows else None
            src = self.cell(r, i, j)
            # a cell reused from page r - 1 keeps its image under D
            if id(src) not in self._lifted:
                self._lifted[id(src)] = self.cx.d(i + j) * src.lift
            img = self._lifted[id(src)]
            if tgt_num.coords_of(img) is None:
                raise PropertyViolation(
                    "page %d differential leaves its target cell at (%d, %d)"
                    % (r, i, j))
            self._d[key] = tgt.projection * img if rows else Matrix.zero(0, img.cols)
        return self._d[key]

    def page(self, r) -> SpectralPage:
        """Page r in total degrees 0..eq.n_u, walked over the non-zero cells."""
        cells = {}
        for n in range(0, self.eq.n_u + 1):
            for tag, gap in self.lives(n):
                if gap is None or gap >= r:
                    cells[(tag, n - tag)] = cells.get((tag, n - tag), 0) + 1
        diffs = {(i, j): self.d_matrix(r, i, j) for i, j in cells if i + j < self.eq.n_u}
        return SpectralPage(r, cells, diffs)


def _low(col):
    """Index of the last non-zero entry of col, or None."""
    for k in range(len(col) - 1, -1, -1):
        if col[k]:
            return k
    return None


@per_model("spectral")
def spectral_sequence(m: ModelInstance, p: Perversity) -> SpectralSequence:
    return SpectralSequence(build_equivariant(m, p))


# ---------------------------------------------------------------------------
# page properties and identifications


def pages(m: ModelInstance, p: Perversity, r_max=None):
    """(list of pages 1..r_max, limit-page cell dims) in total degrees
    0..n_u, with all structural properties asserted.

    Asserted: first quadrant; odd rows vanish; d_r composes to zero; the
    cohomology of each page has the dimensions of the next; even pages from
    the second on equal the following odd page; odd differentials beyond the
    third vanish off the single matching row; row zero is a successive
    quotient of the orbit-space intersection cohomology; the limit page dims
    sum to the equivariant cohomology dims.  Any failure raises
    PropertyViolation naming the cell.
    """
    ss = spectral_sequence(m, p)
    eq = ss.eq
    r_inf = ss.r_infinity
    r_keep = r_inf if r_max is None else r_max
    r_max = max(r_keep, r_inf)
    ih = omega_cohomology(m, p)

    out = [ss.page(r) for r in range(1, r_max + 1)]
    n_cap = eq.n_u - 1    # degrees where both in- and outgoing d_r are listed

    # the checks run at the sources of the listed d_r, the non-zero cells
    # below n_u; at a zero cell each holds, as E_{r+1} counts some of E_r's
    # elements and every d_r into or out of the cell is zero
    for pg in out:
        r = pg.r
        # d_in at one cell is d_out at another: each rank is taken once
        ranks = {c: d.rank() for c, d in pg.differentials.items()} if r < r_max else {}
        for (i, j), d_out in pg.differentials.items():
            # odd rows vanish
            if j % 2 == 1:
                raise PropertyViolation(
                    "odd row cell (%d, %d) nonzero on page %d" % (i, j, r))
            # d_r o d_r = 0, which holds where a factor is empty
            d_next = pg.d(i + r, j - r + 1)
            if i + j + 1 <= n_cap and d_next.rows and d_out.rows and d_out.cols:
                if not (d_next * d_out).is_zero():
                    raise PropertyViolation(
                        "page %d differential does not square to zero at (%d, %d)"
                        % (r, i, j))
            # next page is the cohomology of this one
            if r + 1 <= r_max:
                expect = pg.dim(i, j) - ranks[(i, j)] - ranks.get((i - r, j + r - 1), 0)
                if ss.dim(r + 1, i, j) != expect:
                    raise PropertyViolation(
                        "page %d cell (%d, %d) is not the cohomology of page %d"
                        % (r + 1, i, j, r))
            # even pages equal the next odd page
            if r >= 2 and r % 2 == 0:
                if not d_out.is_zero():
                    raise PropertyViolation(
                        "even page %d has a nonzero differential at (%d, %d)"
                        % (r, i, j))
            # odd differentials beyond the third vanish off row r - 1
            if r >= 3 and r % 2 == 1 and j != r - 1 and not d_out.is_zero():
                raise PropertyViolation(
                    "page %d differential nonzero off row %d at (%d, %d)"
                    % (r, r - 1, i, j))
            # row zero stays a quotient of the orbit-space cohomology
            if r >= 3 and j == 0 and pg.dim(i, 0) > ih.dim(i):
                raise PropertyViolation(
                    "row-zero cell (%d, 0) exceeds the orbit-space cohomology "
                    "on page %d" % (i, r))

    # the limit page adds up to the equivariant cohomology
    limit = out[r_inf - 1].cells
    for n in range(0, eq.n_u + 1):
        total = sum(d for (i, j), d in limit.items() if i + j == n)
        if total != eq.dim(n):
            raise PropertyViolation(
                "limit page total in degree %d is %d, cohomology has %d"
                % (n, total, eq.dim(n)))

    # second page already carries the third-page identification
    e3 = e3_isomorphisms(m, p)
    for i, j in out[1].differentials:
        if out[2].dim(i, j) != out[1].dim(i, j):
            raise PropertyViolation(
                "second and third pages differ at (%d, %d)" % (i, j))
        if j % 2 == 0 and (i, j // 2) not in e3:
            raise PropertyViolation(
                "unidentified third-page cell (%d, %d)" % (i, j))

    return out[:r_keep], limit


def _component_pairs(eq, n, cochains: Matrix, j):
    """(alpha, beta): the ambient pair matrices of the u^j components of
    equivariant cochain columns of total degree n, given in the basis of
    degree fold(n)."""
    k = n - 2 * j
    n = eq.ext.fold(n)
    pairs = eq.eq1.space(k).basis * eq.ext.component_of(n, cochains, (n - k) // 2)
    na = eq.m.dim(k)
    return (Matrix._of(na, pairs.cols, pairs.entries[:na]),
            Matrix._of(pairs.rows - na, pairs.cols, pairs.entries[na:]))


@per_model("e3")
def e3_isomorphisms(m: ModelInstance, p: Perversity) -> dict:
    """Explicit isomorphisms identifying the third page: (i, j) -> matrix
    from E_3^{i,2j} onto IH^i (j = 0) or the co-Gysin cohomology H^i(K)
    (j >= 1), keyed by the u-power j.

    Each map reads off the bottom pair component of a representative and
    scales it by the column parity sign (-1)^(i(i+1)/2); with that convention
    the third differential equals the Euler-map composite with no extra sign.
    Every map is checked to kill the cell denominator and to be bijective;
    a zero cell has no representatives, and its denominator is its Z_3.
    All a map reads (Z_3, the cell, the components of degree i + 2j)
    depends only on its fold key (i, fold(i + 2j), j == 0): one map is
    built per key, at its first (i, j), and held at every later one.
    """
    ss = spectral_sequence(m, p)
    pc = perverse_complex(m, p)
    ih = omega_cohomology(m, p)
    hk = cogysin_cohomology(m, p)
    out, built = {}, {}
    for i in range(0, ss.i_top + 1):
        for j in range(0, (ss.eq.n_u - i) // 2 + 1):
            key = (i, ss.eq.ext.fold(i + 2 * j), j == 0)
            if key not in built:
                built[key] = _e3_identification(ss, pc, ih if j == 0 else hk, i, j)
            out[(i, j)] = built[key]
    return out


def _e3_identification(ss, pc, target, i, j) -> Matrix:
    """The checked map from E_3^{i,2j} onto target, IH^i for j = 0 and
    H^i(K) otherwise (see e3_isomorphisms)."""

    def classify(reps):
        alpha, beta = _component_pairs(ss.eq, i + 2 * j, reps, j)
        if not beta.is_zero():
            raise InternalInvariantViolation(
                "bottom component of a filtered representative has a "
                "nonzero tail at (%d, %d)" % (i, 2 * j))
        om = pc.omega_space(i).coords_of(alpha)
        if om is None:
            raise InternalInvariantViolation(
                "bottom component escapes the perverse complex at "
                "(%d, %d)" % (i, 2 * j))
        return target.classes_of(i, om if j == 0 else pc.projection.mat(i) * om)

    # well-defined: the denominator, spanned by (I - lift * projection)
    # Z_3 and so all of Z_3 at a zero cell, maps to zero classes
    phi, den = Matrix.zero(target.dim(i), 0), ss.z(3, i, 2 * j).basis
    if ss.dim(3, i, 2 * j):
        q = ss.cell(3, i, 2 * j)
        phi = classify(q.lift).scale((-1) ** (i * (i + 1) // 2))
        den = den - q.lift * (q.projection * den)
    if den.cols and not classify(den).is_zero():
        raise PropertyViolation(
            "third-page identification not well defined at "
            "(%d, %d)" % (i, 2 * j))
    if phi.rows != phi.cols or (phi.cols and phi.rank() != phi.rows):
        raise PropertyViolation(
            "third-page identification not bijective at (%d, %d): "
            "cell dim %d vs %d" % (i, 2 * j, phi.cols, phi.rows))
    return phi


def d3_check(m: ModelInstance, p: Perversity) -> dict:
    """Entrywise comparison of the engine's third differential with the
    composite of the co-Gysin connecting morphism, the Euler map and (for
    u-powers beyond the first) the co-Gysin projection, under the third-page
    identifications.  Raises TheoremViolation naming the cell on mismatch.
    The cells of one fold key share one identification (e3_isomorphisms),
    each distinct identification is inverted once, and each composite is
    built once per degree i and u-power class.
    """
    ss = spectral_sequence(m, p)
    phi = e3_isomorphisms(m, p)
    pc = perverse_complex(m, p)
    ih = omega_cohomology(m, p)
    hk = cogysin_cohomology(m, p)
    eub = euler_map(m, p)
    ses = cogysin_ses(m, p)
    inverse_of = cache(inverse)

    @cache
    def expected(i, projected) -> Matrix:
        """Euler after connecting map out of degree i, projected for j >= 2."""
        if projected:
            return ih.induced_map(hk, pc.projection, i + 3) * expected(i, False)
        return eub.mat(i + 1) * ses.connecting(i)

    cells = []
    for (i, j), src_phi in sorted(phi.items()):
        if j < 1 or src_phi.cols == 0 or i + 2 * j + 1 > ss.eq.n_u:
            continue
        engine_raw = ss.d_matrix(3, i, 2 * j)
        composite = expected(i, j >= 2)
        if (i + 3, j - 1) in phi:
            engine = phi[(i + 3, j - 1)] * engine_raw * inverse_of(src_phi)
        else:
            # target cell lies outside the first quadrant window: both the
            # engine differential and the composite must vanish
            engine = Matrix.zero(composite.rows, composite.cols) \
                if engine_raw.is_zero() else engine_raw
        entry = {
            "cell": [i, 2 * j],
            "engine": mat_to_json(engine),
            "expected": mat_to_json(composite),
            "equal": engine == composite,
            "nonzero": not engine.is_zero(),
        }
        cells.append(entry)
        if not entry["equal"]:
            raise TheoremViolation(
                "third differential mismatch at cell (%d, %d): engine %s, "
                "expected %s" % (i, 2 * j, entry["engine"], entry["expected"]))
    return {
        "cells": cells,
        "checked": len(cells),
        "all_equal": all(c["equal"] for c in cells),
        "any_nonzero": any(c["nonzero"] for c in cells),
    }


# ---------------------------------------------------------------------------
# the fixed-point long exact sequence


@per_model("fixed_point_preconditions")
def fixed_point_preconditions(m: ModelInstance) -> list:
    """Report of the subspace identifications the fixed-point sequence needs
    (the model-level surrogate for the normality hypothesis):

    - the Gysin term at the zero perversity equals the lower perverse complex,
    - the same one characteristic step further down,
    - the Euler operator maps the lower perverse complex into itself.
    """
    zero = m.zero_perversity()
    q = zero.minus(m.characteristic_perversity())
    pc0 = perverse_complex(m, zero)
    pcq = perverse_complex(m, q)
    checks = []
    checks.append({
        "name": "gysin equals lower perverse complex",
        "passed": all(pc0.gysin_spaces[k] == pcq.omega_spaces[k]
                      for k in pc0.ambient.degrees()),
    })
    checks.append({
        "name": "lower gysin equals lower perverse complex",
        "passed": all(pcq.gysin_spaces[k] == pcq.omega_spaces[k]
                      for k in pc0.ambient.degrees()),
    })
    low = pcq.omega_spaces
    checks.append({
        "name": "euler operator preserves the lower perverse complex",
        "passed": all(low[k].is_zero() or pcq.omega_space(k + 2).is_full()
                      or pcq.omega_space(k + 2).coords_of(m.euler(k) * low[k].basis) is not None
                      for k in pc0.ambient.degrees()),
    })
    return checks


def _require_fixed_point_preconditions(m: ModelInstance):
    failed = [c["name"] for c in fixed_point_preconditions(m) if not c["passed"]]
    if failed:
        raise IdentificationFails(
            "fixed-point sequence unavailable: %s" % "; ".join(failed))


def skjelbred(m: ModelInstance) -> LongExactSequence:
    """The fixed-point long exact sequence at the zero perversity,

        ... -> A^i -> H^{i+1}(B) -> IH^{i+1}_{S^1} -> A^{i+1} -> ...

    where A^i collects the co-Gysin cohomology at positive u-powers (the
    model-level fixed-point contribution).  The first map composes the
    co-Gysin connecting morphism with iterated Euler maps and the perversity
    inclusion, with an alternating sign per u-power; the second sends a class
    to its constant equivariant extension; the third reads off the positive
    u-power components of an equivariant class.

    Requires the subspace identifications of fixed_point_preconditions
    (IdentificationFails otherwise); exactness is checked at every interior
    node, i <= n_u - 2 (TheoremViolation naming the node otherwise).
    """
    _require_fixed_point_preconditions(m)

    zero = m.zero_perversity()
    q = zero.minus(m.characteristic_perversity())
    pc0 = perverse_complex(m, zero)
    pcq = perverse_complex(m, q)
    hb = omega_cohomology(m, zero)
    hq = omega_cohomology(m, q)
    hg0 = gysin_cohomology(m, zero)
    hgq = gysin_cohomology(m, q)
    hk = cogysin_cohomology(m, zero)
    ses0 = cogysin_ses(m, zero)
    eub_q = euler_map(m, q)
    iota = inclusion_map(m, q, zero)
    pair_incl, _ = gysin_maps(m, zero)
    eq = build_equivariant(m, zero)
    heq = eq.cohomology

    def to_lower(k) -> Matrix:
        """Basis change H^k of the Gysin term -> H^k of the lower complex."""
        c = pcq.omega_space(k).coords_of(pc0.gysin_ambient_mat(k) * hg0.lifts(k))
        if c is None:
            raise InternalInvariantViolation(
                "Gysin representative escapes the lower complex in degree %d" % k)
        return hq.classes_of(k, c)

    @cache
    def euler_endo(k) -> Matrix:
        """Euler multiplication H^k -> H^{k+2} on the lower complex."""
        c = pcq.gysin_ambient_mat(k).solve(pcq.omega_incl.mat(k) * hq.lifts(k))
        if c is None:
            raise InternalInvariantViolation(
                "lower class misses its Gysin term in degree %d" % k)
        return eub_q.mat(k) * hgq.classes_of(k, c)

    @cache
    def iterate(s, k) -> Matrix:
        """The connecting map out of H^k(K) followed by s Euler maps, into
        H^{k+1+2s} of the lower complex; each iterate extends the last."""
        if not s:
            return to_lower(k + 1) * ses0.connecting(k)
        last = iterate(s - 1, k)
        return euler_endo(k - 1 + 2 * s) * last

    def a_blocks(i):
        return [(s, i - 2 * s) for s in range(1, i // 2 + 1)]

    def alpha(i) -> Matrix:
        """H^i(B) -> IH^i_{S^1}: constant extension (alpha, 0) u^0."""
        c = pair_incl.mat(i) * hb.lifts(i)
        if not c.cols:
            return Matrix.zero(eq.dim(i), 0)
        cochains = block_matrix(eq.ext.dim(i), c.cols, [(eq.ext.offsets[i][0], 0, c)])
        return heq.classes_of(i, cochains)

    blocks = {}

    def delta(i) -> Matrix:
        """IH^i_{S^1} -> A^i: co-Gysin classes of the positive u-power heads,
        one block of rows per u-power.  The block at base degree k reads only
        the representatives of the folded degree, so it is built once per
        (fold(i), k)."""
        n = eq.ext.fold(i)
        reps = heq.lifts(n)
        rows = []
        for s, k in a_blocks(i):
            if (n, k) not in blocks:
                alpha_s, _ = _component_pairs(eq, i, reps, s)
                om = pc0.omega_space(k).coords_of(alpha_s)
                if om is None:
                    raise IdentificationFails(
                        "equivariant head escapes the perverse complex in "
                        "degree %d at u-power %d" % (i, s))
                blocks[n, k] = hk.classes_of(k, pc0.projection.mat(k) * om).entries
            rows += blocks[n, k]
        return Matrix._of(len(rows), reps.cols, tuple(rows))

    def beta(i) -> Matrix:
        """A^i -> H^{i+1}(B): signed Euler-iterate of the connecting map."""
        blocks = [iterate(s, k).scale((-1) ** s) for s, k in a_blocks(i)]
        if not blocks:
            return Matrix.zero(hb.dim(i + 1), 0)
        out = blocks[0]
        for b in blocks[1:]:
            out = out.hstack(b)
        return hq.induced_map(hb, iota, i + 1) * out

    labels, dims, maps = [], [], []
    i_hi = eq.n_u - 2
    for i in range(0, i_hi + 1):
        labels += ["H^%d(B)" % i, "IH^%d_eq" % i, "A^%d" % i]
        dims += [hb.dim(i), eq.dim(i), sum(hk.dim(k) for _, k in a_blocks(i))]
        maps.append(alpha(i))
        maps.append(delta(i))
        if i < i_hi:
            maps.append(beta(i))
    seq = LongExactSequence(labels, dims, maps)
    if not seq.exact:
        bad = next(r for r in seq.exactness if not r["exact"])
        raise TheoremViolation("fixed-point sequence fails at %s" % bad["node"])
    return seq
