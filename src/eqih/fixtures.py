"""Built-in example models and a seeded random-model generator.

Two families in degree 2n have closed-form answers:

* ``sphere(n, e)`` -- S^{2n+1} over CP^n with Euler class e v, no strata:
  for e != 0, H_{S^1}(S^{2n+1}) = H(CP^n) (Borel), dimension 1 in each even
  degree up to 2n and u-rank 1 below 2n; u-ranks 0 for e = 0; localization
  (0, 0).
* ``cone(n)`` -- its cone with a perverse fixed apex: 0 at apex = -1, else
  Q[u] with localization (1, 0), the apex (Goresky, Kottwitz, MacPherson).

``hopf``, ``rot`` and ``cone2`` are ``sphere(1, 1)``, ``sphere(1, 0)`` and
``cone(1)``; ``noperv`` is an apex variant whose Euler cocycle is exact at
its own level, so the fixed stratum is not perverse.

``random_model`` draws a seeded model that passes strict validation.  It
builds the model as values (``Subspace`` levels, the solved Euler data,
``Stratum`` and ``Perversity`` objects), parsing no document; its document
is ``model_to_dict`` of them.  Its Euler operator E, with
E_k: A^k -> A^{k+2}, is a random solution of one linear system on the
entries of every E_k:

* chain rows, one per matrix entry of E_{k+1} d_k = d_{k+2} E_k;
* annihilator rows, for each filtration shift E_j(V) inside W: the rows
  y (x) v, for v in the canonical basis of V and y in the kernel basis of
  W's basis transposed (the annihilator of W), so that y . E_j v = 0.

Every row is a primitive integer row: a chain row is built from its non-zero
terms alone, with each unknown's column computed in place, and is scaled
before it is written out dense.  One integer Gauss-Jordan elimination
(``ratla.rref_integer_rows``) solves the system.  One coefficient
in -2..2 is drawn per free column, in column order, and each pivot unknown
then follows from its row.  The reduced row echelon form of a row space is
unique, so the free columns and the kernel basis, and with them the rng
draws and the document's bytes, depend only on the row space and the column
order: any rows that span the same space, in any order, give the same
document.

``oracle_cohomology`` is an independent brute-force computation of the
equivariant cohomology dims and u-action ranks: it assembles the full
truncated twisted differential per total degree directly from the defining
linear constraints, with no use of the dedicated pipeline modules.
"""

from __future__ import annotations

import random

from .errors import InputError, InternalInvariantViolation
from .model import (
    CLAMP_FLOOR,
    STRATUM_KINDS,
    AmbientModel,
    ModelInstance,
    Perversity,
    Stratum,
    model_from_dict,
    zero_perversity,
)
from .ratla import (
    Matrix,
    Subspace,
    block_matrix,
    divide,
    image,
    intersect,
    kernel,
    map_image,
    preimage,
    primitive_row,
    quotient,
    rat,
    rref_integer_rows,
    subspace_sum,
)


def _sphere_doc(n, e):
    """S^{2n+1} over CP^n with Euler class e v, unnamed: Q[v]/(v^{n+1}) with
    |v| = 2, d = 0, the Euler operator multiplication by e v, no strata."""
    top = 2 * n

    def one(k):  # dim A^k
        return int(k % 2 == 0 and 0 <= k <= top)

    def mat(r, c, x):  # the map A^c -> A^r, x where both are non-zero
        return [[str(x)] * one(c) for _ in range(one(r))]

    return {
        "top_degree": top,
        "dims": [one(k) for k in range(top + 1)],
        "d": [mat(k + 1, k, 0) for k in range(top + 1)],
        "strata": [],
        "filtrations": {},
        "euler_cocycle": [str(e)],
        "euler_op": [mat(k + 2, k, e) for k in range(top + 1)],
        "product": {"%d,%d" % (i, j): mat(i + j, 0, 1)
                    for i in range(0, top + 1, 2) for j in range(0, top + 1, 2)},
        "perversities": [{}],
        "metadata": {"normal": True, "free": e != 0},
    }


def sphere(n=1, e=1, name=None) -> ModelInstance:
    """``_sphere_doc(n, e)``, by default named sphere<2n+1>-e<e>."""
    return model_from_dict({**_sphere_doc(n, e),
                            "name": name or "sphere%d-e%d" % (2 * n + 1, e)})


def cone(n=1, name=None) -> ModelInstance:
    """The cone over S^{2n+1}: a perverse fixed apex whose level l holds the
    forms of degree <= l (l < 2n), perversities -1..2n, link data as cone
    metadata."""
    doc = _sphere_doc(n, 1)
    top, dims = doc["top_degree"], doc["dims"]
    return model_from_dict({
        **doc,
        "name": name or "cone%d" % top,
        "strata": [{"name": "apex", "kind": "fixed_perverse"}],
        "filtrations": {"apex": {
            str(level): [[["1"]] if dim and k <= level else [] for k, dim in enumerate(dims)]
            for level in range(top)}},
        "perversities": [{"apex": p} for p in range(-1, top + 1)],
        "metadata": {"normal": True, "free": False, "cone": {
            "apex_stratum": "apex", "cone_degree": top, "link_quotient_ih": dims,
            "link_eub": {str(k): [["1"]] for k in range(0, top - 1, 2)}}},
    })


def hopf() -> ModelInstance:
    return sphere(1, 1, "hopf")


def rot() -> ModelInstance:
    return sphere(1, 0, "rot")


def cone2() -> ModelInstance:
    return cone(1, "cone2")


def noperv() -> ModelInstance:
    return model_from_dict({
        "name": "noperv",
        "top_degree": 2,
        "dims": [1, 1, 1],
        "d": [[["0"]], [["1"]], []],
        "strata": [{"name": "apex", "kind": "fixed_nonperverse"}],
        "filtrations": {
            "apex": {
                "0": [[["1"]], [], []],
                "1": [[["1"]], [["1"]], [["1"]]],
            }
        },
        "euler_cocycle": ["1"],
        "euler_op": [[["1"]], [], []],
        "product": {
            "0,0": [["1"]], "0,1": [["1"]], "1,0": [["1"]],
            "0,2": [["1"]], "2,0": [["1"]], "1,1": [["0"]],
            "1,2": [], "2,1": [], "2,2": [],
        },
        "perversities": [{"apex": -1}, {"apex": 0}, {"apex": 1}],
        "metadata": {"normal": True, "free": False},
    })


FIXTURES = {"hopf": hopf, "rot": rot, "cone2": cone2, "noperv": noperv}


def make(name: str, seed=None, size=2) -> ModelInstance:
    name = name.lower()
    if name in FIXTURES:
        return FIXTURES[name]()
    if name == "random":
        if seed is None:
            raise InputError("random fixture needs a seed")
        return random_model(seed, size)
    raise InputError("unknown fixture %r" % name)


# ---------------------------------------------------------------------------
# seeded random models


def _random_vector(rng, n):
    return tuple(rng.randint(-2, 2) for _ in range(n))


def _random_differential(rng, dims):
    """Graded maps with d.d = 0 by construction: each d factors through the
    quotient by the previous image."""
    diffs = []
    prev = Matrix.zero(dims[0], 0)
    for k in range(len(dims)):
        nrows = dims[k + 1] if k + 1 < len(dims) else 0
        q = quotient(Subspace.full(dims[k]), image(prev))
        if q.dim and nrows:
            rand = Matrix(nrows, q.dim,
                          [[rng.randint(-1, 1) for _ in range(q.dim)] for _ in range(nrows)])
            d = rand * q.projection
        else:
            d = Matrix.zero(nrows, dims[k])
        diffs.append(d)
        prev = d
    return diffs


def _random_filtration(rng, dims, kmax):
    """Nested per-degree subspace chains with all degree-0 forms at level 0."""
    levels = []
    prev = [Subspace.full(dims[0])] + [Subspace.zero(n) for n in dims[1:]]
    for level in range(kmax):
        cur = []
        for deg, n in enumerate(dims):
            s = prev[deg]
            if n and rng.random() < 0.7:
                s = subspace_sum(s, Subspace.from_vectors(n, [_random_vector(rng, n)]))
            cur.append(s)
        levels.append(tuple(cur))
        prev = cur
    return tuple(levels)


def _killing_projection(space: Subspace) -> Matrix:
    return quotient(Subspace.full(space.ambient_dim), space).projection


def _solve_euler_op(rng, a: AmbientModel, filtration_constraints):
    """Random graded operator A^k -> A^{k+2} on the spaces and differentials
    of a that is a chain map and respects every required filtration shift;
    found as a random element of the solution space of the combined linear
    system on its entries (see the module docstring)."""
    n = a.top_degree + 1
    offsets = {}
    total = 0
    for k in range(n):
        offsets[k] = total
        total += a.dim(k + 2) * a.dim(k)
    if total == 0:
        return [Matrix.zero(a.dim(k + 2), a.dim(k)) for k in range(n)]

    # unknown (r, c) of E_k is column offsets[k] + r * dim(k) + c
    rows = []
    # chain condition: E_{k+1} d_k = d_{k+2} E_k; the two terms of an entry
    # have their unknowns in different blocks, and only the non-zero
    # (column, value) terms are scaled to a primitive integer row
    for k in range(n):
        d_in, d_out = a.diff(k).entries, a.diff(k + 2).entries
        n0, n1 = a.dim(k), a.dim(k + 1)
        for i in range(a.dim(k + 3)):
            for j in range(n0):
                terms = []
                if k + 1 < n:
                    base = offsets[k + 1] + i * n1
                    terms += [(base + t, d_in[t][j]) for t in range(n1) if d_in[t][j]]
                terms += [(offsets[k] + t * n0 + j, -b) for t, b in enumerate(d_out[i]) if b]
                if terms:
                    cols, values = zip(*terms)
                    row = [0] * total
                    for col, value in zip(cols, primitive_row(values)):
                        row[col] = value
                    rows.append(row)
    # filtration shifts: for each (degree j, source space V, target space W):
    # E_j(V) inside W, i.e. y . E_j v = 0 for basis v of V and y of W's
    # annihilator; the outer product of two primitive rows is primitive
    for (j, src, tgt) in filtration_constraints:
        if a.dim(j + 2) == 0 or src.dim == 0 or tgt.is_full():
            continue
        annihilator = [primitive_row(y) for y in tgt.basis.transpose().kernel_basis()]
        for v in map(primitive_row, src.vectors()):
            for y in annihilator:
                row = [0] * total
                for t, coef in enumerate(y):
                    if coef:
                        base = offsets[j] + t * a.dim(j)
                        for c, b in enumerate(v):
                            row[base + c] = coef * b
                rows.append(row)

    # one coefficient per free column, in column order, then each pivot
    # unknown from its row: p x[pc] + sum over free f of a_f x[f] = 0
    pivots = rref_integer_rows(rows, total)
    pivot_set = set(pivots)
    free = [c for c in range(total) if c not in pivot_set]
    x = [0] * total
    for f in free:
        x[f] = rng.randint(-2, 2)
    for row, pc in zip(rows, pivots):
        x[pc] = divide(-sum(row[f] * x[f] for f in free if row[f]), row[pc])
    return [Matrix(a.dim(k + 2), a.dim(k),
                   [[x[offsets[k] + r * a.dim(k) + c] for c in range(a.dim(k))]
                    for r in range(a.dim(k + 2))])
            for k in range(n)]


# the largest random_model size: over seeds 0-19 the slowest model takes
# 0.25 s of process time at size 20, and seed 13 takes 4.5-5.0 s at size 24
# (Python 3.11, int entries and Fraction for the rest, one core of a 2-CPU
# x86 machine); at size 24 nearly all of it goes to the scaled row updates
# of one 460 x 786 Euler-operator system, whose entries grow to 71 bits
MAX_RANDOM_SIZE = 20


def random_model(seed: int, size: int = 2) -> ModelInstance:
    """Deterministic random model passing strict validation, for property tests."""
    if not 1 <= size <= MAX_RANDOM_SIZE:
        raise InputError("random model size must be 1..%d, not %d" % (MAX_RANDOM_SIZE, size))
    rng = random.Random(("model", seed, size).__repr__())
    top = rng.randint(2, 3)
    dims = [rng.randint(1, size)] + [rng.randint(0, size) for _ in range(top)]

    diffs = _random_differential(rng, dims)

    n_strata = rng.randint(0, 2)
    strata = tuple(Stratum("s%d" % i, rng.choice(STRATUM_KINDS)) for i in range(n_strata))
    filtrations = {s.name: _random_filtration(rng, dims, rng.randint(1, 3)) for s in strata}
    # the spaces, differentials and levels; the Euler data is solved for below
    a = AmbientModel(top, tuple(dims), tuple(diffs), filtrations, (), (), None)

    constraints = []
    for s in strata:
        for level in range(len(filtrations[s.name]) - s.ebar):
            for deg in range(top + 1):
                constraints.append((deg, a.filtration(s.name, level, deg),
                                    a.filtration(s.name, level + s.ebar, deg + 2)))
    euler = _solve_euler_op(rng, a, constraints)

    # closed cocycle inside every stratum's Euler level in degree 2
    levels = Subspace.full(a.dim(2))
    for s in strata:
        levels = intersect(levels, a.filtration(s.name, s.ebar, 2))
    eps_space = preimage(a.diff(2), Subspace.zero(a.dim(3)), within=levels)
    eps = [0] * a.dim(2)
    for b in eps_space.vectors():
        c = rng.randint(-2, 2)
        eps = [x + c * y for x, y in zip(eps, b)]

    # perversity working set closed under subtracting the characteristic one
    xbar = Perversity({s.name: s.xbar for s in strata})
    todo = [zero_perversity(strata), Perversity({s.name: s.ebar for s in strata}),
            Perversity({s.name: rng.randint(CLAMP_FLOOR, len(filtrations[s.name]) + 1)
                        for s in strata})]
    pset = []
    while todo:
        p = todo.pop()
        if p not in pset:
            pset.append(p)
            todo.append(p.minus(xbar))
    pset.sort(key=lambda p: p.items)

    ambient = AmbientModel(top, a.dims, a.d, filtrations, tuple(map(rat, eps)), tuple(euler),
                           None)
    return ModelInstance("random-%d-%d" % (seed, size), ambient, strata, tuple(pset))


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_cohomology(m: ModelInstance, p: Perversity, n_u: int) -> dict:
    """Equivariant cohomology dims and u-ranks straight from the definitions.

    Builds, for every total degree, the space of admissible pairs in each
    u-power component as the kernel of an explicit constraint matrix, writes
    the twisted differential in those bases, and reads off dims by
    rank-nullity and u-ranks by comparing cocycle images with coboundaries.
    Trustworthy in degrees <= n_u.
    """
    a = m.ambient
    q = p.minus(m.characteristic_perversity())
    top = a.top_degree

    fp = {}
    fq = {}
    for k in range(0, top + 2):
        fp[k] = m.filtration_level(p, k)
        fq[k] = m.filtration_level(q, k)

    def flevel(table, k):
        if 0 <= k <= top:
            return table[k]
        return Subspace.zero(a.dim(k))

    def sign(k):
        return -1 if (k - 1) % 2 else 1

    def twisted(k):
        """(alpha, beta) -> (d alpha + sign(k) E beta, d beta) on the pairs
        of degree k."""
        na, nb = a.dim(k), a.dim(k - 1)
        return block_matrix(a.dim(k + 1) + na, na + nb,
                            [(0, 0, a.diff(k)), (0, na, a.euler(k - 1).scale(sign(k))),
                             (a.dim(k + 1), na, a.diff(k - 1))])

    # admissible pairs (alpha, beta) in degree k, as a subspace of
    # Q^{dim k + dim k-1}
    pairs = {}
    for k in range(0, top + 2):
        na, nb = a.dim(k), a.dim(k - 1)
        if na + nb == 0:
            pairs[k] = Subspace.zero(0)
            continue
        rows = []

        def add_block(space, acols, bcols):
            # the rows that kill the part of acols * alpha + bcols * beta
            # outside space
            if not space.is_full():
                rows.extend((_killing_projection(space) * acols.hstack(bcols)).entries)

        # alpha in F_p^k
        add_block(flevel(fp, k), Matrix.identity(na), Matrix.zero(na, nb))
        # beta in F_{p-xbar}^{k-1}
        add_block(flevel(fq, k - 1), Matrix.zero(nb, na), Matrix.identity(nb))
        # d beta in F_{p-xbar}^k
        add_block(flevel(fq, k), Matrix.zero(na, na), a.diff(k - 1))
        # d alpha + sign * E beta in F_p^{k+1}
        add_block(flevel(fp, k + 1), a.diff(k), a.euler(k - 1).scale(sign(k)))
        if rows:
            pairs[k] = kernel(Matrix(len(rows), na + nb, rows))
        else:
            pairs[k] = Subspace.full(na + nb)

    def pair_space(k):
        return pairs.get(k, Subspace.zero(a.dim(k) + a.dim(k - 1)))

    def components(n):
        return [(j, n - 2 * j) for j in range(n // 2 + 1)
                if 0 <= n - 2 * j <= top + 1]

    hi = n_u + 3
    cdim = {}
    offs = {}
    for n in range(hi + 1):
        off = {}
        total = 0
        for j, k in components(n):
            off[j] = total
            total += pair_space(k).dim
        cdim[n] = total
        offs[n] = off

    # per component u^j (x) pairs of degree k: the twisted differential,
    # same u-power, and (beta, 0) one u-power up with the degree sign
    nabla = {}
    umat = {}
    for n in range(hi):
        blocks = []
        for j, k in components(n):
            basis = pair_space(k).basis
            na, nb = a.dim(k), a.dim(k - 1)
            dcoords = pair_space(k + 1).coords_of(twisted(k) * basis)
            if dcoords is None:
                raise InternalInvariantViolation(
                    "differential left the admissible-pair space")
            if j in offs[n + 1]:
                blocks.append((offs[n + 1][j], offs[n][j], dcoords))
            to_beta = block_matrix(nb + a.dim(k - 2), na + nb, [(0, na, Matrix.identity(nb))])
            ucoords = pair_space(k - 1).coords_of(to_beta * basis)
            if ucoords is None:
                raise InternalInvariantViolation(
                    "u-component left the admissible-pair space")
            if j + 1 in offs[n + 1]:
                blocks.append((offs[n + 1][j + 1], offs[n][j], ucoords.scale(sign(k))))
        nabla[n] = block_matrix(cdim[n + 1], cdim[n], blocks)
    for n in range(hi - 1):
        umat[n] = block_matrix(
            cdim[n + 2], cdim[n],
            [(offs[n + 2][j + 1], offs[n][j], Matrix.identity(pair_space(k).dim))
             for j, k in components(n) if j + 1 in offs[n + 2]])

    dims = []
    for n in range(n_u + 1):
        r_out = nabla[n].rank()
        r_in = nabla[n - 1].rank() if n >= 1 else 0
        dims.append(cdim[n] - r_out - r_in)

    u_ranks = []
    for n in range(n_u + 1):
        z = kernel(nabla[n])
        b = image(nabla[n + 1])
        moved = map_image(umat[n], z)
        u_ranks.append(subspace_sum(moved, b).dim - b.dim)

    return {"dims": tuple(dims), "u_ranks": tuple(u_ranks)}
