"""Domain model: strata, perversities, and the filtered ambient complex.

An AmbientModel is a finite graded cochain model of the liftable forms of the
orbit space, together with one nested subspace chain per singular stratum
(the level-k set of forms of perverse degree <= k), an Euler 2-cocycle and
the "multiply by the Euler form" operator.  validate() replays every axiom
that is checkable at this level and reports counterexamples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InputError, StrataMismatch, UnknownStratum
from .homalg import Complex
from .ratla import Matrix, Subspace, intersect, map_image, rat

STRATUM_KINDS = ("mobile", "fixed_nonperverse", "fixed_perverse")

# characteristic and Euler perversity values per stratum kind
_XBAR = {"mobile": 0, "fixed_nonperverse": 1, "fixed_perverse": 1}
_EBAR = {"mobile": 0, "fixed_nonperverse": 1, "fixed_perverse": 2}

CLAMP_FLOOR = -1


@dataclass(frozen=True)
class Stratum:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in STRATUM_KINDS:
            raise InputError("unknown stratum kind %r" % self.kind)


class Perversity:
    """Integer weight per singular stratum; totally defined on a model."""

    __slots__ = ("items",)

    def __init__(self, values: dict):
        object.__setattr__(self, "items", tuple(sorted(values.items())))

    def __setattr__(self, *a):
        raise AttributeError("Perversity is immutable")

    @property
    def values(self) -> dict:
        return dict(self.items)

    def strata(self):
        return tuple(k for k, _ in self.items)

    def __getitem__(self, name):
        for k, v in self.items:
            if k == name:
                return v
        raise UnknownStratum(name)

    def _check_same(self, other: "Perversity"):
        if self.strata() != other.strata():
            raise StrataMismatch("%s vs %s" % (self.strata(), other.strata()))

    def __add__(self, other: "Perversity") -> "Perversity":
        self._check_same(other)
        return Perversity({k: v + other[k] for k, v in self.items})

    def minus(self, other: "Perversity") -> "Perversity":
        """Pointwise difference, clamped at the floor below which the
        perverse complex is zero."""
        self._check_same(other)
        return Perversity({k: max(CLAMP_FLOOR, v - other[k]) for k, v in self.items})

    def __le__(self, other: "Perversity") -> bool:
        self._check_same(other)
        return all(v <= other[k] for k, v in self.items)

    def __eq__(self, other):
        return isinstance(other, Perversity) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return "Perversity(%s)" % (dict(self.items),)

    def label(self) -> str:
        if not self.items:
            return "()"
        return ",".join("%s=%d" % (k, v) for k, v in self.items)


def zero_perversity(strata) -> Perversity:
    return Perversity({s.name: 0 for s in strata})


@dataclass(frozen=True)
class AmbientModel:
    top_degree: int
    dims: tuple
    d: tuple                 # d[k]: dims[k+1] x dims[k], k = 0..top_degree
    filtrations: dict        # stratum name -> {level: tuple of Subspace per degree}
    kmax: dict               # stratum name -> first level at which F is full
    euler_cocycle: tuple     # vector in degree 2
    euler_op: tuple          # E[k]: dims[k+2] x dims[k]
    product: dict = field(default=None)  # (i, j) -> Matrix dims[i+j] x dims[i]*dims[j]

    def dim(self, k) -> int:
        if 0 <= k <= self.top_degree:
            return self.dims[k]
        return 0

    def diff(self, k) -> Matrix:
        if 0 <= k <= self.top_degree:
            return self.d[k]
        return Matrix.zero(self.dim(k + 1), self.dim(k))

    def euler(self, k) -> Matrix:
        if 0 <= k <= self.top_degree:
            return self.euler_op[k]
        return Matrix.zero(self.dim(k + 2), self.dim(k))

    def complex(self) -> Complex:
        return Complex.build(0, self.top_degree, self.dims, self.d, check=False)

    def filtration(self, stratum: str, level: int, degree: int) -> Subspace:
        """F_S^level in one degree, with the level range clamped: the floor
        level is the zero subspace and levels >= kmax are the full space."""
        n = self.dim(degree)
        if stratum not in self.filtrations:
            raise UnknownStratum(stratum)
        if n == 0:
            return Subspace.zero(0)
        if level <= CLAMP_FLOOR:
            return Subspace.zero(n)
        if level >= self.kmax[stratum]:
            return Subspace.full(n)
        return self.filtrations[stratum][level][degree]

    def wedge(self, i: int, j: int, a, b):
        """Product of a degree-i and a degree-j vector (product table required)."""
        if self.product is None:
            raise InputError("model carries no product table")
        m = self.product.get((i, j))
        n = self.dim(i + j)
        if m is None:
            return (rat(0),) * n
        a = list(a)
        b = list(b)
        col = [a[x] * b[y] for x in range(self.dim(i)) for y in range(self.dim(j))]
        return m.apply(col)


@dataclass(frozen=True)
class ModelInstance:
    name: str
    ambient: AmbientModel
    strata: tuple            # of Stratum
    perversity_set: tuple    # of Perversity
    metadata: dict = field(default_factory=dict, compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def stratum(self, name) -> Stratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise UnknownStratum(name)

    def stratum_names(self):
        return tuple(s.name for s in self.strata)

    def characteristic_perversity(self) -> Perversity:
        return Perversity({s.name: _XBAR[s.kind] for s in self.strata})

    def euler_perversity(self) -> Perversity:
        return Perversity({s.name: _EBAR[s.kind] for s in self.strata})

    def zero_perversity(self) -> Perversity:
        return zero_perversity(self.strata)

    def has_perverse_strata(self) -> bool:
        return self.euler_perversity() != self.characteristic_perversity()

    def check_perversity(self, p: Perversity):
        if p.strata() != tuple(sorted(self.stratum_names())):
            raise UnknownStratum("perversity strata %s do not match model strata %s"
                                 % (p.strata(), self.stratum_names()))
        return p

    def filtration_level(self, p: Perversity, degree: int) -> Subspace:
        """F_p in one degree: the intersection over strata of F_S^{p(S)}."""
        return self.cached(("flevel", p, degree),
                           lambda: self._filtration_level(p, degree))

    def _filtration_level(self, p: Perversity, degree: int) -> Subspace:
        self.check_perversity(p)
        space = Subspace.full(self.ambient.dim(degree))
        for s in self.strata:
            space = intersect(space, self.ambient.filtration(s.name, p[s.name], degree))
        return space

    def cached(self, key, thunk):
        """The value of thunk(), computed once per key for this model.

        A key is a kind, or a tuple of a kind and its arguments; among them
        ("flevel", p, degree) holds the level space F_p of one degree and
        ("omega", p) the spaces of Omega_p, degree -> Subspace of the
        ambient degree.  Cached values are shared, never modified.
        """
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]


# ---------------------------------------------------------------------------
# validation


def _check(report, axiom, ok, detail=""):
    report.append({"axiom": axiom, "passed": bool(ok), "detail": detail})
    return ok


def validate(m: ModelInstance, strict: bool = False):
    """Axiom report for a model; strict mode adds the Euler-operator
    filtration shift and the product-compatibility axioms."""
    a = m.ambient
    report = []
    _check(report, "strata: unique names",
           len({s.name for s in m.strata}) == len(m.strata))
    _check(report, "strata: filtration data present",
           set(a.filtrations) == {s.name for s in m.strata},
           "filtrations for %s" % sorted(a.filtrations))

    ok = True
    bad = ""
    for k in range(a.top_degree):
        if not (a.diff(k + 1) * a.diff(k)).is_zero():
            ok, bad = False, "degree %d" % k
            break
    _check(report, "differential: d.d = 0", ok, bad)

    ok, bad = True, ""
    for s in m.strata:
        for level in range(0, a.kmax[s.name]):
            for deg in range(a.top_degree + 1):
                lo = a.filtration(s.name, level - 1, deg)
                hi = a.filtration(s.name, level, deg)
                if not hi.contains_subspace(lo):
                    ok, bad = False, "stratum %s level %d degree %d" % (s.name, level, deg)
    _check(report, "filtration: nested levels", ok, bad)

    ok, bad = True, ""
    for s in m.strata:
        f0 = a.filtration(s.name, 0, 0)
        if not f0.is_full():
            ok, bad = False, "stratum %s" % s.name
    _check(report, "filtration: degree-0 forms have perverse degree 0", ok, bad)

    ok, bad = True, ""
    for k in range(a.top_degree + 1):
        lhs = a.euler(k + 1) * a.diff(k)
        rhs = a.diff(k + 2) * a.euler(k)
        if lhs != rhs:
            ok, bad = False, "degree %d" % k
            break
    _check(report, "euler operator: chain map", ok, bad)

    eps = a.euler_cocycle
    deps = a.diff(2).apply(eps) if a.dim(2) else ()
    _check(report, "euler cocycle: closed", all(x == 0 for x in deps),
           "" if all(x == 0 for x in deps) else "d(epsilon) = %s" % (vec_to_json(deps),))

    ok, bad = True, ""
    ebar = m.euler_perversity()
    for s in m.strata:
        if not a.filtration(s.name, ebar[s.name], 2).contains(eps):
            ok, bad = False, "stratum %s" % s.name
    _check(report, "euler cocycle: lies in the Euler-perversity level", ok, bad)

    # NOTE: no axiom d(F_S^k) <= F_S^k -- the perverse complexes impose the
    # d-condition themselves and the filtration need not be d-stable.

    xbar = m.characteristic_perversity()
    pset = set(m.perversity_set)
    ok = m.zero_perversity() in pset and ebar in pset
    bad = "" if ok else "missing 0-bar or e-bar"
    if ok:
        for p in m.perversity_set:
            if p.minus(xbar) not in pset:
                ok, bad = False, "%s minus characteristic missing" % p.label()
                break
    _check(report, "perversity set: contains 0, e-bar and is closed under p - x-bar",
           ok, bad)

    perverse = [s.name for s in m.strata if s.kind == "fixed_perverse"]
    _check(report, "info: perverse strata", True,
           ("perverse strata: %s" % ", ".join(perverse)) if perverse
           else "no perverse strata")

    if strict:
        ok, bad = True, ""
        for s in m.strata:
            shift = ebar[s.name]
            for level in range(-1, a.kmax[s.name] + 1):
                for deg in range(a.top_degree + 1):
                    src = a.filtration(s.name, level, deg)
                    tgt = a.filtration(s.name, level + shift, deg + 2)
                    if not tgt.contains_subspace(map_image(a.euler(deg), src)):
                        ok, bad = False, ("stratum %s level %d degree %d"
                                          % (s.name, level, deg))
        _check(report, "strict: euler operator shifts filtration by e-bar", ok, bad)

        if a.product is not None:
            _validate_product(m, report)

    return report


def _validate_product(m: ModelInstance, report):
    a = m.ambient

    def unit_vectors(n):
        return [tuple(rat(1 if i == j else 0) for j in range(n)) for i in range(n)]

    ok, bad = True, ""
    for i in range(a.top_degree + 1):
        for x in unit_vectors(a.dim(i)):
            if tuple(a.wedge(i, 2, x, a.euler_cocycle)) != tuple(a.euler(i).apply(x)):
                ok, bad = False, "degree %d" % i
    _check(report, "strict: euler operator equals wedging with the euler cocycle",
           ok, bad)

    ok, bad = True, ""
    for i in range(a.top_degree + 1):
        for j in range(a.top_degree + 1 - i):
            for x in unit_vectors(a.dim(i)):
                for y in unit_vectors(a.dim(j)):
                    lhs = a.wedge(i, j, x, y)
                    rhs = a.wedge(j, i, y, x)
                    sign = -1 if (i % 2 and j % 2) else 1
                    if tuple(lhs) != tuple(rat(sign) * v for v in rhs):
                        ok, bad = False, "degrees (%d, %d)" % (i, j)
    _check(report, "strict: product graded-commutative", ok, bad)

    ok, bad = True, ""
    for i in range(a.top_degree + 1):
        for j in range(a.top_degree + 1 - i):
            for k in range(a.top_degree + 1 - i - j):
                for x in unit_vectors(a.dim(i)):
                    for y in unit_vectors(a.dim(j)):
                        for z in unit_vectors(a.dim(k)):
                            lhs = a.wedge(i + j, k, a.wedge(i, j, x, y), z)
                            rhs = a.wedge(i, j + k, x, a.wedge(j, k, y, z))
                            if tuple(lhs) != tuple(rhs):
                                ok, bad = False, "degrees (%d, %d, %d)" % (i, j, k)
    _check(report, "strict: product associative", ok, bad)

    ok, bad = True, ""
    for s in m.strata:
        km = a.kmax[s.name]
        for k in range(-1, km + 1):
            for l in range(-1, km + 1):
                for i in range(a.top_degree + 1):
                    for j in range(a.top_degree + 1 - i):
                        fk = a.filtration(s.name, k, i)
                        fl = a.filtration(s.name, l, j)
                        tgt = a.filtration(s.name, k + l, i + j)
                        for x in fk.vectors():
                            for y in fl.vectors():
                                if not tgt.contains(a.wedge(i, j, x, y)):
                                    ok, bad = False, (
                                        "stratum %s levels (%d, %d) degrees (%d, %d)"
                                        % (s.name, k, l, i, j))
    _check(report, "strict: product adds perverse degrees", ok, bad)


# ---------------------------------------------------------------------------
# serialization


def rat_from_json(x, where):
    """A JSON integer or 'p/q' string as an exact rational.  A JSON float is
    refused: it arrives as a binary fraction, not the number its text shows."""
    if isinstance(x, (bool, float)):
        raise InputError("%s: %r is not an integer or a 'p/q' string" % (where, x))
    try:
        return rat(x)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise InputError("bad rational in %s: %s" % (where, e))


def int_from_json(x, where):
    """A JSON integer.  Booleans, floats and strings are refused rather than
    truncated or parsed."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("%s: %r is not a JSON integer" % (where, x))
    return x


_JSON_KINDS = {list: "array", dict: "object", str: "string"}


def _typed(x, kind, where):
    if not isinstance(x, kind):
        raise InputError("%s must be a JSON %s, not %r" % (where, _JSON_KINDS[kind], x))
    return x


def vec_to_json(v):
    return [str(x) for x in v]


def mat_to_json(m: Matrix):
    return [vec_to_json(row) for row in m.entries]


def _vec_from_json(v, n, where):
    if len(_typed(v, list, where)) != n:
        raise InputError("vector length %d != %d in %s" % (len(v), n, where))
    return tuple(rat_from_json(x, where) for x in v)


def mat_from_json(rows, nrows, ncols, where) -> Matrix:
    if len(_typed(rows, list, where)) != nrows \
            or any(len(_typed(r, list, where)) != ncols for r in rows):
        raise InputError("matrix shape mismatch in %s (want %dx%d)" % (where, nrows, ncols))
    return Matrix(nrows, ncols, [[rat_from_json(x, where) for x in r] for r in rows])


def rows_from_json(rows, where) -> Matrix:
    """A JSON list of equally long rows as a matrix of that shape."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("%s must be a list of rows" % where)
    return mat_from_json(rows, len(rows), len(rows[0]) if rows else 0, where)


def model_to_dict(m: ModelInstance) -> dict:
    a = m.ambient
    filt = {}
    for s in m.strata:
        levels = {}
        for level in range(0, a.kmax[s.name]):
            levels[str(level)] = [
                [vec_to_json(v) for v in a.filtration(s.name, level, deg).vectors()]
                for deg in range(a.top_degree + 1)
            ]
        filt[s.name] = levels
    out = {
        "name": m.name,
        "top_degree": a.top_degree,
        "dims": list(a.dims),
        "d": [mat_to_json(a.diff(k)) for k in range(a.top_degree + 1)],
        "strata": [{"name": s.name, "kind": s.kind} for s in m.strata],
        "filtrations": filt,
        "euler_cocycle": vec_to_json(a.euler_cocycle),
        "euler_op": [mat_to_json(a.euler(k)) for k in range(a.top_degree + 1)],
        "perversities": [dict(p.items) for p in m.perversity_set],
    }
    if a.product is not None:
        out["product"] = {
            "%d,%d" % key: mat_to_json(mat) for key, mat in sorted(a.product.items())
        }
    if m.metadata:
        out["metadata"] = m.metadata
    return out


def model_from_dict(data: dict) -> ModelInstance:
    _typed(data, dict, "model document")
    for key in ("name", "top_degree", "dims", "d", "strata", "filtrations",
                "euler_cocycle", "euler_op", "perversities"):
        if key not in data:
            raise InputError("missing field %r" % key)
    n = int_from_json(data["top_degree"], "top_degree")
    dims = tuple(int_from_json(x, "dims") for x in _typed(data["dims"], list, "dims"))
    if len(dims) != n + 1:
        raise InputError("dims must have top_degree + 1 entries")
    if any(x < 0 for x in dims):
        raise InputError("dims must not be negative")

    def dim(k):
        return dims[k] if 0 <= k <= n else 0

    if len(_typed(data["d"], list, "d")) != n + 1:
        raise InputError("d must list one matrix per degree")
    d = tuple(mat_from_json(rows, dim(k + 1), dim(k), "d[%d]" % k)
              for k, rows in enumerate(data["d"]))

    strata = []
    for s in _typed(data["strata"], list, "strata"):
        _typed(s, dict, "stratum")
        for key in ("name", "kind"):
            _typed(s.get(key), str, "stratum field %r" % key)
        strata.append(Stratum(s["name"], s["kind"]))
    strata = tuple(strata)
    if len({s.name for s in strata}) != len(strata):
        raise InputError("duplicate stratum names")

    filtrations = {}
    kmax = {}
    filt_json = _typed(data["filtrations"], dict, "filtrations")
    for s in strata:
        levels_json = filt_json.get(s.name)
        if levels_json is None:
            raise InputError("missing filtration for stratum %r" % s.name)
        _typed(levels_json, dict, "filtration of %r" % s.name)
        level_count = len(levels_json)
        if set(levels_json) != {str(level) for level in range(level_count)}:
            raise InputError("filtration levels for %r must be 0..kmax-1" % s.name)
        levels = {}
        for level in range(level_count):
            where = "filtration %s/%d" % (s.name, level)
            per_degree = _typed(levels_json[str(level)], list, where)
            if len(per_degree) != n + 1:
                raise InputError("filtration of %r level %d must list every degree"
                                 % (s.name, level))
            levels[level] = tuple(
                Subspace.from_vectors(
                    dim(deg),
                    [_vec_from_json(v, dim(deg), "%s/%d" % (where, deg))
                     for v in _typed(vecs, list, "%s/%d" % (where, deg))])
                for deg, vecs in enumerate(per_degree)
            )
        filtrations[s.name] = levels
        kmax[s.name] = level_count

    euler_cocycle = _vec_from_json(data["euler_cocycle"], dim(2), "euler_cocycle")
    if len(_typed(data["euler_op"], list, "euler_op")) != n + 1:
        raise InputError("euler_op must list one matrix per degree")
    euler_op = tuple(mat_from_json(rows, dim(k + 2), dim(k), "euler_op[%d]" % k)
                     for k, rows in enumerate(data["euler_op"]))

    product = None
    if "product" in data:
        product = {}
        for key, rows in _typed(data["product"], dict, "product").items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise InputError("bad product key %r" % key)
            product[(i, j)] = mat_from_json(rows, dim(i + j), dim(i) * dim(j),
                                             "product[%s]" % key)

    names = {s.name for s in strata}
    perversities = []
    for entry in _typed(data["perversities"], list, "perversities"):
        if set(_typed(entry, dict, "perversity")) != names:
            raise InputError("perversity %s does not cover the strata" % entry)
        perversities.append(Perversity(
            {k: int_from_json(v, "perversity value") for k, v in entry.items()}))

    metadata = _typed(data.get("metadata", {}), dict, "metadata")
    ambient = AmbientModel(n, dims, d, filtrations, kmax, euler_cocycle, euler_op, product)
    return ModelInstance(str(data["name"]), ambient, strata, tuple(perversities),
                         dict(metadata))


def load_model(path_or_file) -> ModelInstance:
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError("not valid JSON: %s" % e)
    return model_from_dict(data)


def save_model(m: ModelInstance, path_or_file):
    data = model_to_dict(m)
    if hasattr(path_or_file, "write"):
        json.dump(data, path_or_file, indent=1)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(data, fh, indent=1)
