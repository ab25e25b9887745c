"""The spectral sequence of the equivariant complex and the fixed-point
long exact sequence.

The equivariant complex is filtered by the pair degree: F^i collects the
elements supported in pair degrees >= i whose twisted differential is again
supported there.  In the block basis sum_j u^j Eq1^{n-2j} of the complex,
support in pair degrees >= i is a condition on coordinates, so, since
D^2 = 0, every term Z_r of the spectral sequence is the kernel of one block
of D.  Every cell dimension is counted from one persistence reduction of D
per total degree, in a basis adapted to the filtration; a cell is built as
a quotient space, for its d_r and E_3 maps, only where that count is not
zero (see SpectralSequence).  The associated first-quadrant spectral
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

from dataclasses import dataclass

from .errors import (
    IdentificationFails,
    InternalInvariantViolation,
    PropertyViolation,
    TheoremViolation,
)
from .homalg import LongExactSequence, check_exact
from .model import ModelInstance, Perversity, mat_to_json
from .perverse import (
    build_cogysin,
    cogysin_cohomology,
    euler_map,
    gysin_cohomology,
    inclusion_map,
    omega_cohomology,
    perverse_complex,
)
from .ratla import (
    ZERO,
    Matrix,
    QuotientSpace,
    Subspace,
    inverse,
    map_image,
    quotient,
    subspace_sum,
)


@dataclass(frozen=True)
class SpectralPage:
    """One page: cell dimensions and differentials d_r: (i,j) -> (i+r, j-r+1)
    in the total degrees a report lists."""

    r: int
    cells: dict            # (i, j) -> dimension
    differentials: dict    # (i, j) -> Matrix

    def dim(self, i, j) -> int:
        return self.cells.get((i, j), 0)

    def d(self, i, j) -> Matrix:
        if (i, j) in self.differentials:
            return self.differentials[(i, j)]
        return Matrix.zero(0, self.dim(i, j))


class SpectralSequence:
    """Page engine for the equivariant complex filtered by pair degree.

    Each Z_r is one kernel: that of the block of D_{i+j} whose columns are
    the coordinates of C^{i+j} in pair degrees >= i and whose rows are the
    coordinates of C^{i+j+1} in pair degrees < i + r.  The block basis
    sum_j u^j Eq1^{n-2j} spans each raw^i C^n (pair degrees >= i) by
    coordinates, and as D^2 = 0 an element whose image lies in raw^{i+r} has
    its image in F^{i+r} = raw^{i+r} intersect D^{-1}(raw^{i+r}); with
    raw^{i+r} inside raw^i for r >= 0 the subspace formula
        Z_r^{i,j} = F^i C^{i+j} intersect D^{-1}(F^{i+r} C^{i+j+1})
    reduces to raw^i intersect D^{-1}(raw^{i+r}).  F^i C^n itself is
    Z_0^{i,n-i}.

    Cell dimensions are counted, not built.  Per total degree n the engine
    keeps a basis of C^n adapted to the filtration, each element tagged with
    the largest i such that it lies in F^i, and one persistence reduction of
    D_n written in the adapted bases of C^n and C^{n+1}: columns and rows run
    from high filtration to low, a column is cleared only by earlier columns,
    and each non-zero reduced column pairs its source with its lowest
    non-zero row, the target, at a gap of the target's filtration minus the
    source's.  A pair with gap g lives on the pages r <= g (Basu and Parida,
    "Spectral sequences, exact couples and persistent homology of
    filtrations", Expo. Math. 2017), so dim E_r^{i,j} counts the elements of
    degree i + j and filtration i that are unpaired or paired at a gap of at
    least r.  Both structures are built on the first count in a degree.

    A cell's quotient space, with the lifts that d_r and the E_3 maps are
    read from, is built only where the count is non-zero, from
        E_r^{i,j} = Z_r / (Z_{r-1}^{i+1,j-1} + D Z_{r-1}^{i-r+1,j+r-2}).
    Every total degree is read at its fold (LambdaExtension.fold) and every
    page past r_infinity at r_infinity, whose cells and differentials it
    equals, so each value is exact.
    """

    def __init__(self, eq):
        self.eq = eq
        self.cx = eq.complex
        # pair degrees run 0 .. top_degree + 1
        self.i_top = eq.eq1.complex.hi
        self._z = {}
        self._adapted = {}
        self._pairs = {}
        self._lives = {}
        self._dims = {}
        self._cells = {}
        self._d = {}

    @property
    def r_infinity(self) -> int:
        """Pages stabilize from this index on."""
        return self.i_top + 2

    def _key(self, r, i, j):
        """(r, i, j) with the page capped at r_infinity and the degree folded."""
        return min(r, self.r_infinity), i, self.eq.ext.fold(i + j) - i

    def z(self, r, i, j) -> Subspace:
        j = self.eq.ext.fold(i + j) - i
        key = (r, i, j)
        if key not in self._z:
            n = i + j
            amb = self.cx.dim(n)
            cols = self.eq.ext.coordinates(n, i, self.i_top + 1)
            rows = self.eq.ext.coordinates(n + 1, 0, i + r)
            d = self.cx.d(n).entries
            block = Matrix._of(len(rows), len(cols),
                               tuple(tuple(d[a][b] for b in cols) for a in rows))
            vecs = []
            for k in block.kernel_basis():
                v = [ZERO] * amb
                for b, x in zip(cols, k):
                    v[b] = x
                vecs.append(tuple(v))
            self._z[key] = Subspace.from_matrix(
                Matrix._of(len(vecs), amb, tuple(vecs)).transpose())
        return self._z[key]

    def adapted_basis(self, n):
        """(basis matrix, filtration of each column) of C^n: the pivot
        columns of [F^{i_top+1} | ... | F^0], each tagged with the i of its
        block, so F^i C^n is spanned by the columns tagged i or more."""
        n = self.eq.ext.fold(n)
        if n not in self._adapted:
            amb = self.cx.dim(n)
            tagged = [(i, v) for i in range(self.i_top + 1, -1, -1)
                      for v in self.z(0, i, n - i).vectors()]
            cands = tuple(v for _, v in tagged)
            _, pivots = Matrix._of(len(cands), amb, cands).transpose().rref()
            basis = Matrix._of(len(pivots), amb, tuple(cands[c] for c in pivots))
            self._adapted[n] = (basis.transpose(), [tagged[c][0] for c in pivots])
        return self._adapted[n]

    def pairs(self, n):
        """(source, target, gap) of each pivot pair of the persistence
        reduction of D_n in the adapted bases of C^n and C^{n+1}, as column
        indices of those bases."""
        n = self.eq.ext.fold(n)
        if n not in self._pairs:
            src, src_tags = self.adapted_basis(n)
            tgt, tgt_tags = self.adapted_basis(n + 1)
            d = inverse(tgt) * self.cx.d(n) * src
            out = []
            reduced = {}    # low row -> the reduced column that owns it
            for c, col in enumerate(d.transpose().entries):
                low = _low(col)
                while low in reduced:
                    other = reduced[low]
                    f = col[low] / other[low]
                    col = tuple(a - f * b for a, b in zip(col, other))
                    low = _low(col)
                if low is not None:
                    reduced[low] = col
                    out.append((c, low, tgt_tags[low] - src_tags[c]))
            self._pairs[n] = out
        return self._pairs[n]

    def lives(self, n):
        """(filtration, gap) of each adapted basis element of C^n, with gap
        None for an element that no pair of D_{n-1} or D_n holds."""
        n = self.eq.ext.fold(n)
        if n not in self._lives:
            tags = self.adapted_basis(n)[1]
            gaps = [None] * len(tags)
            for src, _, gap in self.pairs(n):
                gaps[src] = gap
            for _, tgt, gap in self.pairs(n - 1):
                if gaps[tgt] is not None:
                    raise InternalInvariantViolation(
                        "basis element %d of degree %d is both a source and a "
                        "target" % (tgt, n))
                gaps[tgt] = gap
            self._lives[n] = list(zip(tags, gaps))
        return self._lives[n]

    def dim(self, r, i, j) -> int:
        key = (r, i, j)
        if key not in self._dims:
            r, i, j = self._key(r, i, j)
            self._dims[key] = sum(1 for tag, gap in self.lives(i + j)
                                  if tag == i and (gap is None or gap >= r))
        return self._dims[key]

    def den(self, r, i, j) -> Subspace:
        """Z_{r-1}^{i+1,j-1} + D Z_{r-1}^{i-r+1,j+r-2}: the page-r cell's
        denominator."""
        r, i, j = self._key(r, i, j)
        moved = map_image(self.cx.d(i + j - 1), self.z(r - 1, i - r + 1, j + r - 2))
        return subspace_sum(self.z(r - 1, i + 1, j - 1), moved)

    def cell(self, r, i, j) -> QuotientSpace:
        """The page-r cell Z_r / den as a quotient space, whose dimension
        must equal the pair count; callers build it only for non-zero
        cells."""
        key = self._key(r, i, j)
        if key not in self._cells:
            r, i, j = key
            q = quotient(self.z(r, i, j), self.den(r, i, j))
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
            if not self.dim(r, i, j):
                self._d[key] = Matrix.zero(rows, 0)
                return self._d[key]
            tgt_num = self.z(r, i + r, j - r + 1)
            tgt = self.cell(r, i + r, j - r + 1) if rows else None
            cols = []
            for rep in self.cell(r, i, j).lift.columns():
                img = self.cx.d(i + j).apply(rep)
                if not tgt_num.contains(img):
                    raise PropertyViolation(
                        "page %d differential leaves its target cell at (%d, %d)"
                        % (r, i, j))
                cols.append(tgt.class_of(img) if rows else ())
            self._d[key] = Matrix.from_columns(rows, cols)
        return self._d[key]

    def page(self, r) -> SpectralPage:
        """Page r in total degrees 0..eq.n_u."""
        cells = {}
        diffs = {}
        for i in range(0, self.i_top + 1):
            for j in range(0, self.eq.n_u - i + 1):
                d = self.dim(r, i, j)
                if d:
                    cells[(i, j)] = d
                if i + j <= self.eq.n_u - 1:
                    diffs[(i, j)] = self.d_matrix(r, i, j)
        return SpectralPage(r, cells, diffs)


def _low(col):
    """Index of the last non-zero entry of col, or None."""
    for k in range(len(col) - 1, -1, -1):
        if col[k]:
            return k
    return None


def spectral_sequence(m: ModelInstance, p: Perversity) -> SpectralSequence:
    from .equivariant import build_equivariant

    return m.cached(("spectral", p),
                    lambda: SpectralSequence(build_equivariant(m, p)))


# ---------------------------------------------------------------------------
# page properties and identifications


def _cells_in_window(ss, n_cap):
    for i in range(0, ss.i_top + 1):
        for j in range(0, n_cap - i + 1):
            yield i, j


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

    for pg in out:
        r = pg.r
        for i, j in _cells_in_window(ss, n_cap):
            d_out = pg.d(i, j)
            # odd rows vanish
            if j % 2 == 1 and pg.dim(i, j):
                raise PropertyViolation(
                    "odd row cell (%d, %d) nonzero on page %d" % (i, j, r))
            # d_r o d_r = 0
            if i + j + 1 <= n_cap:
                if not (pg.d(i + r, j - r + 1) * d_out).is_zero():
                    raise PropertyViolation(
                        "page %d differential does not square to zero at (%d, %d)"
                        % (r, i, j))
            # next page is the cohomology of this one
            if r + 1 <= r_max:
                d_in = pg.d(i - r, j + r - 1)
                expect = pg.dim(i, j) - d_out.rank() - d_in.rank()
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
    limit = {}
    for i, j in _cells_in_window(ss, eq.n_u):
        d = ss.dim(r_inf, i, j)
        if d:
            limit[(i, j)] = d
    for n in range(0, eq.n_u + 1):
        total = sum(d for (i, j), d in limit.items() if i + j == n)
        if total != eq.dim(n):
            raise PropertyViolation(
                "limit page total in degree %d is %d, cohomology has %d"
                % (n, total, eq.dim(n)))

    # second page already carries the third-page identification
    e3 = e3_isomorphisms(m, p)
    for i, j in _cells_in_window(ss, n_cap):
        if ss.dim(2, i, j) != ss.dim(3, i, j):
            raise PropertyViolation(
                "second and third pages differ at (%d, %d)" % (i, j))
        if j % 2 == 0 and (i, j // 2) not in e3 and ss.dim(3, i, j):
            raise PropertyViolation(
                "unidentified third-page cell (%d, %d)" % (i, j))

    return out[:r_keep], limit


def _component_pair(ss, n, vec, j):
    """(alpha, beta) ambient pair of the u^j component of an equivariant
    cochain of total degree n, given in the basis of degree fold(n)."""
    eq = ss.eq
    k = n - 2 * j
    n = eq.ext.fold(n)
    j = (n - k) // 2
    coords = eq.ext.component_of(n, vec, j)
    a = eq.m.ambient
    if not coords:
        return (0,) * a.dim(k), (0,) * a.dim(k - 1)
    pair = eq.eq1.space(k).basis.apply(coords)
    return tuple(pair[:a.dim(k)]), tuple(pair[a.dim(k):])


def e3_isomorphisms(m: ModelInstance, p: Perversity) -> dict:
    """Explicit isomorphisms identifying the third page: (i, j) -> matrix
    from E_3^{i,2j} onto IH^i (j = 0) or the co-Gysin cohomology H^i(K)
    (j >= 1), keyed by the u-power j.

    Each map reads off the bottom pair component of a representative and
    scales it by the column parity sign (-1)^(i(i+1)/2); with that convention
    the third differential equals the Euler-map composite with no extra sign.
    Every map is checked to kill the cell denominator and to be bijective;
    a zero cell has no representatives, so only its denominator is built.
    Computed once per (model, perversity).
    """
    return m.cached(("e3", p), lambda: _e3_isomorphisms(m, p))


def _e3_isomorphisms(m: ModelInstance, p: Perversity) -> dict:
    ss = spectral_sequence(m, p)
    pc = perverse_complex(m, p)
    ih = omega_cohomology(m, p)
    hk = cogysin_cohomology(m, p)
    a = m.ambient
    out = {}
    for i in range(0, ss.i_top + 1):
        for j in range(0, (ss.eq.n_u - i) // 2 + 1):
            target = ih if j == 0 else hk

            def classify(vec, i=i, j=j, target=target):
                alpha, beta = _component_pair(ss, i + 2 * j, vec, j)
                if any(x != 0 for x in beta):
                    raise InternalInvariantViolation(
                        "bottom component of a filtered representative has a "
                        "nonzero tail at (%d, %d)" % (i, 2 * j))
                om = pc.omega_spaces.get(i, Subspace.zero(a.dim(i))).coords(alpha)
                if om is None:
                    raise InternalInvariantViolation(
                        "bottom component escapes the perverse complex at "
                        "(%d, %d)" % (i, 2 * j))
                if j == 0:
                    return target.class_of(i, om)
                return target.class_of(i, pc.projection.mat(i).apply(om))

            reps = ss.cell(3, i, 2 * j).lift.columns() if ss.dim(3, i, 2 * j) else []
            cols = [classify(rep) for rep in reps]
            sign = (-1) ** (i * (i + 1) // 2)
            phi = Matrix.from_columns(target.dim(i), cols).scale(sign)
            # well-defined: the denominator maps to zero classes
            for v in ss.den(3, i, 2 * j).vectors():
                if any(x != 0 for x in classify(v)):
                    raise PropertyViolation(
                        "third-page identification not well defined at "
                        "(%d, %d)" % (i, 2 * j))
            if phi.rows != phi.cols or phi.rank() != phi.rows:
                raise PropertyViolation(
                    "third-page identification not bijective at (%d, %d): "
                    "cell dim %d vs %d" % (i, 2 * j, phi.cols, phi.rows))
            out[(i, j)] = phi
    return out


def d3_check(m: ModelInstance, p: Perversity) -> dict:
    """Entrywise comparison of the engine's third differential with the
    composite of the co-Gysin connecting morphism, the Euler map and (for
    u-powers beyond the first) the co-Gysin projection, under the third-page
    identifications.  Raises TheoremViolation naming the cell on mismatch.
    """
    ss = spectral_sequence(m, p)
    phi = e3_isomorphisms(m, p)
    pc = perverse_complex(m, p)
    ih = omega_cohomology(m, p)
    hk = cogysin_cohomology(m, p)
    eub = euler_map(m, p)
    _, _, ses = build_cogysin(m, p)
    cells = []
    for (i, j), src_phi in sorted(phi.items()):
        if j < 1 or src_phi.cols == 0 or i + 2 * j + 1 > ss.eq.n_u:
            continue
        engine_raw = ss.d_matrix(3, i, 2 * j)
        composite = eub.mat(i + 1) * ses.connecting(i)
        if j >= 2:
            composite = ih.induced_map(hk, pc.projection, i + 3) * composite
        if (i + 3, j - 1) in phi:
            engine = phi[(i + 3, j - 1)] * engine_raw * inverse(src_phi)
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
        if engine != composite:
            raise TheoremViolation(
                "third differential mismatch at cell (%d, %d): engine %s, "
                "expected %s" % (i, 2 * j, engine.entries, composite.entries))
    return {
        "cells": cells,
        "checked": len(cells),
        "all_equal": all(c["equal"] for c in cells),
        "any_nonzero": any(c["nonzero"] for c in cells),
    }


# ---------------------------------------------------------------------------
# the fixed-point long exact sequence


def fixed_point_preconditions(m: ModelInstance) -> list:
    """Report of the subspace identifications the fixed-point sequence needs
    (the model-level surrogate for the normality hypothesis):

    - the Gysin term at the zero perversity equals the lower perverse complex,
    - the same one characteristic step further down,
    - the Euler operator maps the lower perverse complex into itself.
    """
    return m.cached("fixed_point_preconditions", lambda: _fixed_point_preconditions(m))


def _fixed_point_preconditions(m: ModelInstance) -> list:
    zero = m.zero_perversity()
    q = zero.minus(m.characteristic_perversity())
    pc0 = perverse_complex(m, zero)
    pcq = perverse_complex(m, q)
    a = m.ambient
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
    checks.append({
        "name": "euler operator preserves the lower perverse complex",
        "passed": all(
            pcq.omega_spaces.get(k + 2, Subspace.zero(a.dim(k + 2))).contains_subspace(
                map_image(a.euler(k), pcq.omega_spaces[k]))
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
    from .equivariant import build_equivariant

    _require_fixed_point_preconditions(m)

    zero = m.zero_perversity()
    q = zero.minus(m.characteristic_perversity())
    a = m.ambient
    pc0 = perverse_complex(m, zero)
    pcq = perverse_complex(m, q)
    hb = omega_cohomology(m, zero)
    hq = omega_cohomology(m, q)
    hg0 = gysin_cohomology(m, zero)
    hgq = gysin_cohomology(m, q)
    hk = cogysin_cohomology(m, zero)
    _, _, ses0 = build_cogysin(m, zero)
    eub_q = euler_map(m, q)
    iota = inclusion_map(m, q, zero)
    eq = build_equivariant(m, zero)
    heq = eq.cohomology
    ss = spectral_sequence(m, zero)

    def to_lower(k) -> Matrix:
        """Basis change H^k of the Gysin term -> H^k of the lower complex."""
        cols = []
        for rep in hg0.basis_lifts(k):
            amb = pc0.gysin_ambient_mat(k).apply(rep)
            c = pcq.omega_spaces[k].coords(amb)
            if c is None:
                raise InternalInvariantViolation(
                    "Gysin representative escapes the lower complex in "
                    "degree %d" % k)
            cols.append(hq.class_of(k, c))
        return Matrix.from_columns(hq.dim(k), cols)

    def euler_endo(k) -> Matrix:
        """Euler multiplication H^k -> H^{k+2} on the lower complex."""
        cols = []
        for rep in hq.basis_lifts(k):
            amb = pcq.omega_incl.mat(k).apply(rep)
            c = pcq.gysin_ambient_mat(k).solve(amb)
            if c is None:
                raise InternalInvariantViolation(
                    "lower class misses its Gysin term in degree %d" % k)
            cols.append(hgq.class_of(k, c))
        return eub_q.mat(k) * Matrix.from_columns(hgq.dim(k), cols)

    def a_blocks(i):
        return [(s, i - 2 * s) for s in range(1, i // 2 + 1)]

    def alpha(i) -> Matrix:
        """H^i(B) -> IH^i_{S^1}: constant extension (alpha, 0) u^0."""
        cols = []
        for rep in hb.basis_lifts(i):
            amb = pc0.omega_incl.mat(i).apply(rep)
            pair = tuple(amb) + (0,) * a.dim(i - 1)
            c = eq.eq1.space(i).coords(pair)
            if c is None:
                raise InternalInvariantViolation(
                    "constant extension escapes the pair space in degree %d" % i)
            cols.append(heq.class_of(i, eq.ext.inject(i, 0, c)))
        return Matrix.from_columns(eq.dim(i), cols)

    def delta(i) -> Matrix:
        """IH^i_{S^1} -> A^i: co-Gysin classes of the positive u-power heads."""
        rows_total = sum(hk.dim(k) for _, k in a_blocks(i))
        cols = []
        for rep in heq.basis_lifts(eq.ext.fold(i)):
            col = []
            for s, k in a_blocks(i):
                alpha_s, _ = _component_pair(ss, i, rep, s)
                om = pc0.omega_spaces.get(k, Subspace.zero(a.dim(k))).coords(alpha_s)
                if om is None:
                    raise IdentificationFails(
                        "equivariant head escapes the perverse complex in "
                        "degree %d at u-power %d" % (i, s))
                col += list(hk.class_of(k, pc0.projection.mat(k).apply(om)))
            cols.append(tuple(col))
        return Matrix.from_columns(rows_total, cols)

    def beta(i) -> Matrix:
        """A^i -> H^{i+1}(B): signed Euler-iterate of the connecting map."""
        blocks = []
        for s, k in a_blocks(i):
            mat = to_lower(k + 1) * ses0.connecting(k)
            for t in range(s):
                mat = euler_endo(k + 1 + 2 * t) * mat
            mat = hq.induced_map(hb, iota, i + 1) * mat
            blocks.append(mat.scale((-1) ** s))
        if not blocks:
            return Matrix.zero(hb.dim(i + 1), 0)
        out = blocks[0]
        for b in blocks[1:]:
            out = out.hstack(b)
        return out

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
    bad = [r for r in check_exact(seq) if not r["exact"]]
    if bad:
        raise TheoremViolation("fixed-point sequence fails at %s" % bad[0]["node"])
    return seq
