"""Domain model: strata, perversities, and the model of the orbit space.

A ModelInstance is the one model value: a finite graded cochain model of the
liftable forms of the orbit space (the ambient complex A), its singular
strata with one nested subspace chain each (the level-k set of forms of
perverse degree <= k), an Euler 2-cocycle, the "multiply by the Euler form"
operator, an optional product and the perversities to compute at.
validate() replays every axiom that is checkable at this level and reports
counterexamples.
"""

from __future__ import annotations

import json
import re
from functools import wraps
from json.encoder import encode_basestring_ascii

from .errors import InputError, StrataMismatch, UnknownStratum
from .ratla import Matrix, Subspace, _row_span, intersect, kron, rat
from .value import Value, _set

STRATUM_KINDS = ("mobile", "fixed_nonperverse", "fixed_perverse")

# characteristic and Euler perversity values per stratum kind
_XBAR = {"mobile": 0, "fixed_nonperverse": 1, "fixed_perverse": 1}
_EBAR = {"mobile": 0, "fixed_nonperverse": 1, "fixed_perverse": 2}

CLAMP_FLOOR = -1


class Stratum(Value):
    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str):
        if kind not in STRATUM_KINDS:
            raise InputError("unknown stratum kind %r" % kind)
        super().__init__(name, kind)

    @property
    def xbar(self) -> int:
        """The characteristic perversity value of the stratum's kind."""
        return _XBAR[self.kind]

    @property
    def ebar(self) -> int:
        """The Euler perversity value of the stratum's kind."""
        return _EBAR[self.kind]


class Perversity(Value):
    """Integer weight per singular stratum; totally defined on a model."""

    __slots__ = ("items",)  # (stratum, weight) pairs, sorted by stratum

    def __init__(self, values: dict):
        super().__init__(tuple(sorted(values.items())))

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

    def minus(self, other: "Perversity") -> "Perversity":
        """Pointwise difference, clamped at the floor below which the
        perverse complex is zero."""
        self._check_same(other)
        return Perversity({k: max(CLAMP_FLOOR, v - other[k]) for k, v in self.items})

    def __le__(self, other: "Perversity") -> bool:
        self._check_same(other)
        return all(v <= other[k] for k, v in self.items)

    def label(self) -> str:
        if not self.items:
            return "()"
        return ",".join("%s=%d" % (k, v) for k, v in self.items)


def per_model(kind):
    """Decorator: builder(m, *args), a function or a class, is built once per
    model through m.cached, under the key kind when it takes no arguments
    and (kind, *args) otherwise."""
    def decorate(builder):
        @wraps(builder, updated=())
        def built_once(m, *args):
            return m.cached((kind, *args) if args else kind, lambda: builder(m, *args))
        return built_once
    return decorate


class ModelInstance(Value, uncompared=("metadata",)):
    __slots__ = ("name", "top_degree", "dims",
                 "d",               # d[k]: dims[k+1] x dims[k], k = 0..top_degree
                 "filtrations",     # stratum name -> levels 0..kmax-1, each a tuple of
                                    # Subspace per degree; F is full from level kmax on
                 "euler_cocycle",   # vector in degree 2
                 "euler_op",        # E[k]: dims[k+2] x dims[k]
                 "product",         # (i, j) -> Matrix dims[i+j] x dims[i]*dims[j], or None
                 "strata",          # of Stratum
                 "perversity_set",  # of Perversity
                 "metadata", "_cache")

    def __init__(self, name, top_degree, dims, d, filtrations, euler_cocycle, euler_op,
                 product, strata, perversity_set, metadata=None):
        super().__init__(name, top_degree, dims, d, filtrations, euler_cocycle, euler_op,
                         product, strata, perversity_set, {} if metadata is None else metadata)
        _set(self, "_cache", {})

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
        if level >= len(self.filtrations[stratum]):
            return Subspace.full(n)
        return self.filtrations[stratum][level][degree]

    def epsilon(self) -> Matrix:
        """The Euler cocycle as a one-column matrix."""
        return Matrix._of(self.dim(2), 1, tuple((x,) for x in self.euler_cocycle))

    def stratum(self, name) -> Stratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise UnknownStratum(name)

    def stratum_names(self):
        return tuple(s.name for s in self.strata)

    def characteristic_perversity(self) -> Perversity:
        return Perversity({s.name: s.xbar for s in self.strata})

    def euler_perversity(self) -> Perversity:
        return Perversity({s.name: s.ebar for s in self.strata})

    def zero_perversity(self) -> Perversity:
        return Perversity({s.name: 0 for s in self.strata})

    def check_perversity(self, p: Perversity):
        if p.strata() != tuple(sorted(self.stratum_names())):
            raise UnknownStratum("perversity strata %s do not match model strata %s"
                                 % (p.strata(), self.stratum_names()))

    @per_model("flevel")
    def filtration_level(self, p: Perversity, degree: int) -> Subspace:
        """F_p in one degree: the intersection over strata of F_S^{p(S)}."""
        self.check_perversity(p)
        space = Subspace.full(self.dim(degree))
        for s in self.strata:
            space = intersect(space, self.filtration(s.name, p[s.name], degree))
        return space

    def cached(self, key, thunk):
        """The value of thunk(), computed once per key for this model: the
        memo behind per_model, keyed by a builder's kind or (kind, *args).
        The kinds are space_axioms, flevel, ambient_complexes, perverse,
        omega, cogysin_ses, eub, eq1, eq1_shift, gysin_maps, equivariant,
        localized, spectral, e3 and fixed_point_preconditions.  Cached
        values are shared, never modified."""
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]


# ---------------------------------------------------------------------------
# validation


def _check(report, axiom, ok, detail):
    report.append({"axiom": axiom, "passed": bool(ok), "detail": detail})


@per_model("space_axioms")
def _space_axioms(m: ModelInstance) -> list:
    """(axiom, passed, detail) for each axiom on the model's spaces and
    maps, in validate's order.  Every computation on the model assumes them,
    and validate and check_axioms both read them, so they are computed once
    per model."""
    rows = [("strata: unique names", len({s.name for s in m.strata}) == len(m.strata), ""),
            ("strata: filtration data present",
             set(m.filtrations) == {s.name for s in m.strata},
             "filtrations for %s" % sorted(m.filtrations))]

    bad = next(("degree %d" % k for k in range(m.top_degree)
                if not (m.diff(k + 1) * m.diff(k)).is_zero()), "")
    rows.append(("differential: d.d = 0", not bad, bad))

    # the stored levels, read directly; level 0 is skipped, since every
    # space contains the zero space below it
    bad = ""
    for s in m.strata:
        levels = m.filtrations[s.name]
        for level in range(1, len(levels)):
            for deg, (lo, hi) in enumerate(zip(levels[level - 1], levels[level])):
                if not hi.contains_subspace(lo):
                    bad = "stratum %s level %d degree %d" % (s.name, level, deg)
    rows.append(("filtration: nested levels", not bad, bad))

    bad = ""
    for s in m.strata:
        if not m.filtration(s.name, 0, 0).is_full():
            bad = "stratum %s" % s.name
    rows.append(("filtration: degree-0 forms have perverse degree 0", not bad, bad))

    bad = next(("degree %d" % k for k in range(m.top_degree + 1)
                if m.euler(k + 1) * m.diff(k) != m.diff(k + 2) * m.euler(k)), "")
    rows.append(("euler operator: chain map", not bad, bad))

    eps = m.epsilon()
    deps = m.diff(2) * eps
    closed = deps.is_zero()
    rows.append(("euler cocycle: closed", closed, "" if closed else
                 "d(epsilon) = %s" % (vec_to_json(deps.transpose().entries[0]),)))

    bad = ""
    ebar = m.euler_perversity()
    for s in m.strata:
        if m.filtration(s.name, ebar[s.name], 2).coords_of(eps) is None:
            bad = "stratum %s" % s.name
    rows.append(("euler cocycle: lies in the Euler-perversity level", not bad, bad))
    return rows


def check_axioms(m: ModelInstance):
    """Raise InputError naming the first axiom, in validate's order, on the
    model's spaces and maps that m fails, with validate's detail."""
    for axiom, ok, detail in _space_axioms(m):
        if not ok:
            raise InputError("model fails '%s'%s" % (axiom, " in " + detail if detail else ""))


def validate(m: ModelInstance, strict: bool = False):
    """Axiom report for a model; strict mode adds the Euler-operator
    filtration shift and the product-compatibility axioms."""
    report = []
    for row in _space_axioms(m):
        _check(report, *row)
    ebar = m.euler_perversity()

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
        bad = ""
        for s in m.strata:
            shift = ebar[s.name]
            for level in range(-1, len(m.filtrations[s.name]) + 1):
                for deg in range(m.top_degree + 1):
                    src = m.filtration(s.name, level, deg)
                    tgt = m.filtration(s.name, level + shift, deg + 2)
                    if not (src.is_zero() or tgt.is_full()
                            or tgt.coords_of(m.euler(deg) * src.basis) is not None):
                        bad = "stratum %s level %d degree %d" % (s.name, level, deg)
        _check(report, "strict: euler operator shifts filtration by e-bar", not bad, bad)

        if m.product is not None:
            _validate_product(m, report)

    return report


def _validate_product(m: ModelInstance, report):
    """The product axioms, each as one matrix identity per degree tuple on
    the product tables P_ij: A^i (x) A^j -> A^{i+j}, whose column x * dim j
    + y is the product of the x-th basis vector of A^i and the y-th of A^j."""
    top = m.top_degree
    # an identity on a degree tuple with a zero factor holds between empty
    # matrices, so only tuples of degrees with forms are checked
    degrees = [i for i in range(top + 1) if m.dim(i)]
    pairs = [(i, j) for i in degrees for j in degrees if i + j <= top]

    def table(i, j):
        t = m.product.get((i, j))
        return t if t is not None else Matrix.zero(m.dim(i + j), m.dim(i) * m.dim(j))

    def eye(i):
        return Matrix.identity(m.dim(i))

    def swap(i, j):
        """The commutation matrix A^i (x) A^j -> A^j (x) A^i."""
        di, dj = m.dim(i), m.dim(j)
        units = Matrix.identity(di * dj).entries
        return Matrix._of(di * dj, di * dj,
                          tuple(units[x * dj + y] for y in range(dj) for x in range(di)))

    ok, bad = True, ""
    eps = m.epsilon()
    for i in degrees:
        if table(i, 2) * kron(eye(i), eps) != m.euler(i):
            ok, bad = False, "degree %d" % i
    _check(report, "strict: euler operator equals wedging with the euler cocycle",
           ok, bad)

    ok, bad = True, ""
    for i, j in pairs:
        sign = -1 if (i % 2 and j % 2) else 1
        if table(i, j) != (table(j, i) * swap(i, j)).scale(sign):
            ok, bad = False, "degrees (%d, %d)" % (i, j)
    _check(report, "strict: product graded-commutative", ok, bad)

    ok, bad = True, ""
    for i, j in pairs:
        for k in degrees:
            if i + j + k <= top:
                lhs = table(i + j, k) * kron(table(i, j), eye(k))
                rhs = table(i, j + k) * kron(eye(i), table(j, k))
                if lhs != rhs:
                    ok, bad = False, "degrees (%d, %d, %d)" % (i, j, k)
    _check(report, "strict: product associative", ok, bad)

    ok, bad = True, ""
    for s in m.strata:
        km = len(m.filtrations[s.name])
        for k in range(-1, km + 1):
            for l in range(-1, km + 1):
                for i, j in pairs:
                    fk = m.filtration(s.name, k, i).basis
                    fl = m.filtration(s.name, l, j).basis
                    tgt = m.filtration(s.name, k + l, i + j)
                    if fk.cols and fl.cols and \
                            tgt.coords_of(table(i, j) * kron(fk, fl)) is None:
                        ok, bad = False, ("stratum %s levels (%d, %d) degrees (%d, %d)"
                                          % (s.name, k, l, i, j))
    _check(report, "strict: product adds perverse degrees", ok, bad)


# ---------------------------------------------------------------------------
# serialization


def rat_from_json(x, where):
    """A JSON integer, or a string ``ratla.rat`` reads, as an exact rational:
    an int when it is integral, else a QNUM.  ``rat`` reads every string by
    ``Fraction``'s grammar, on either backend: 'p/q', and also signs,
    decimals, exponents, underscores and non-ASCII digits ('+2', '1.5',
    '1e3', '1_0', '\u0663'), as tests/test_model.py pins.  A JSON float is
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


def int_from_text(text, what):
    """The integer that text spells as -?[0-9]+ once stripped of outer
    whitespace.  The forms ``int`` would also take, such as '+2', '1_0' or
    non-ASCII digits, are refused."""
    text = text.strip()
    if not re.fullmatch(r"-?[0-9]+", text):
        raise InputError("%s %r is not an integer" % (what, text))
    return int(text)


_JSON_KINDS = {list: "array", dict: "object", str: "string"}


def _typed(x, kind, where):
    if not isinstance(x, kind):
        raise InputError("%s must be a JSON %s, not %r" % (where, _JSON_KINDS[kind], x))
    return x


def vec_to_json(v):
    return [str(x) for x in v]


def mat_to_json(m: Matrix):
    return [vec_to_json(row) for row in m.entries]


def mat_from_json(rows, nrows, ncols, where, entries=None) -> Matrix:
    """The matrix a JSON list of rows spells, each entry read by
    rat_from_json; nrows None takes any number of rows, and ncols None the
    length of the first.  Given a document's _Entries, a well-formed grid is
    read at once through it, and only a grid it refuses is read again with
    checks, which name the place where, a format and its arguments, and the
    first fault: the list, its length, each row, then each entry."""
    if ncols is None:
        ncols = len(rows[0]) if type(rows) is list and rows and type(rows[0]) is list else 0
    if entries is not None and type(rows) is list:
        try:
            out = tuple([tuple([entries[x] for x in r]) for r in rows
                         if type(r) is list and len(r) == ncols])
        except (TypeError, InputError):
            out = ()
        if len(out) == len(rows) and nrows in (None, len(out)):
            return Matrix._of(len(out), ncols, out)
    where = where[0] % where[1:]
    nrows = len(_typed(rows, list, where)) if nrows is None else nrows
    if len(_typed(rows, list, where)) != nrows \
            or any(len(_typed(r, list, where)) != ncols for r in rows):
        raise InputError("matrix shape mismatch in %s (want %dx%d)" % (where, nrows, ncols))
    return Matrix._of(nrows, ncols, tuple(tuple([rat_from_json(x, where) for x in r])
                                            for r in rows))


class _Entries(dict):
    """Entry -> value for one document, read by rat_from_json at its first
    lookup.  Only strings are kept, so true and 1.0, which equal the integer
    1, are read, and refused, every time."""

    def __missing__(self, x):
        q = rat_from_json(x, "entry")
        if type(x) is str:
            self[x] = q
        return q


def model_to_dict(m: ModelInstance) -> dict:
    filt = {}
    for s in m.strata:
        levels = {}
        for level in range(len(m.filtrations[s.name])):
            levels[str(level)] = [
                [vec_to_json(v) for v in m.filtration(s.name, level, deg).vectors()]
                for deg in range(m.top_degree + 1)
            ]
        filt[s.name] = levels
    out = {
        "name": m.name,
        "top_degree": m.top_degree,
        "dims": list(m.dims),
        "d": [mat_to_json(m.diff(k)) for k in range(m.top_degree + 1)],
        "strata": [{"name": s.name, "kind": s.kind} for s in m.strata],
        "filtrations": filt,
        "euler_cocycle": vec_to_json(m.euler_cocycle),
        "euler_op": [mat_to_json(m.euler(k)) for k in range(m.top_degree + 1)],
        "perversities": [dict(p.items) for p in m.perversity_set],
    }
    if m.product is not None:
        out["product"] = {
            "%d,%d" % key: mat_to_json(mat) for key, mat in sorted(m.product.items())
        }
    if m.metadata:
        out["metadata"] = m.metadata
    return out


def model_from_dict(data: dict) -> ModelInstance:
    """The model a document spells, or an InputError naming its first
    fault.  Every grid (d, each filtration level, euler_cocycle as one row,
    euler_op and product) is read by mat_from_json through one _Entries,
    so each distinct entry string is parsed once into its value, with no
    second coercion, and a place is formatted only for a refusal."""
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

    entries = _Entries()
    if len(_typed(data["d"], list, "d")) != n + 1:
        raise InputError("d must list one matrix per degree")
    d = tuple(mat_from_json(rows, dim(k + 1), dim(k), ("d[%d]", k), entries)
              for k, rows in enumerate(data["d"]))

    strata = []
    for s in _typed(data["strata"], list, "strata"):
        _typed(s, dict, "stratum")
        for key in ("name", "kind"):
            _typed(s.get(key), str, "stratum field %r" % key)
        strata.append(Stratum(s["name"], s["kind"]))
    strata = tuple(strata)
    names = {s.name for s in strata}
    if len(names) != len(strata):
        raise InputError("duplicate stratum names")

    filtrations = {}
    # each distinct level space is canonicalized once per document, and
    # equal ones share one Subspace: its key is the dimension and the JSON
    # entries, read once they have parsed, so they are ints and strings (read
    # before, a level [[true]] would find the space of [[1]], as True == 1)
    spans = {}
    filt_json = _typed(data["filtrations"], dict, "filtrations")
    if set(filt_json) != names:
        raise InputError("filtrations must list the strata %s, not %s"
                         % (sorted(names), sorted(filt_json)))
    for s in strata:
        levels_json = _typed(filt_json[s.name], dict, "filtration of %r" % s.name)
        level_count = len(levels_json)
        if set(levels_json) != {str(level) for level in range(level_count)}:
            raise InputError("filtration levels for %r must be 0..kmax-1" % s.name)
        levels = []
        for level in range(level_count):
            per_degree = levels_json[str(level)]
            if not isinstance(per_degree, list) or len(per_degree) != n + 1:
                _typed(per_degree, list, "filtration %s/%d" % (s.name, level))
                raise InputError("filtration of %r level %d must list every degree"
                                 % (s.name, level))
            spaces = []
            for deg, vecs in enumerate(per_degree):
                vectors = mat_from_json(vecs, None, dims[deg],
                                        ("filtration %s/%d/%d", s.name, level, deg), entries)
                key = (dims[deg], tuple(map(tuple, vecs)))
                if key not in spans:
                    spans[key] = _row_span(dims[deg], vectors.entries)
                spaces.append(spans[key])
            levels.append(tuple(spaces))
        filtrations[s.name] = tuple(levels)

    euler_cocycle = mat_from_json([data["euler_cocycle"]], 1, dim(2), ("euler_cocycle",),
                                  entries).entries[0]
    if len(_typed(data["euler_op"], list, "euler_op")) != n + 1:
        raise InputError("euler_op must list one matrix per degree")
    euler_op = tuple(mat_from_json(rows, dim(k + 2), dim(k), ("euler_op[%d]", k), entries)
                     for k, rows in enumerate(data["euler_op"]))

    product = None
    if "product" in data:
        product = {}
        for key, rows in _typed(data["product"], dict, "product").items():
            pieces = key.split(",")
            if len(pieces) != 2:
                raise InputError("bad product key %r" % key)
            i, j = (int_from_text(x, "product key degree") for x in pieces)
            if (i, j) in product:
                raise InputError("product key %r repeats degrees %d,%d" % (key, i, j))
            product[(i, j)] = mat_from_json(rows, dim(i + j), dim(i) * dim(j),
                                            ("product[%s]", key), entries)

    perversities = []
    for entry in _typed(data["perversities"], list, "perversities"):
        if set(_typed(entry, dict, "perversity")) != names:
            raise InputError("perversity %s does not cover the strata" % entry)
        perversities.append(Perversity(
            {k: int_from_json(v, "perversity value") for k, v in entry.items()}))

    metadata = _typed(data.get("metadata", {}), dict, "metadata")
    return ModelInstance(_typed(data["name"], str, "name"), n, dims, d, filtrations,
                         euler_cocycle, euler_op, product, strata, tuple(perversities),
                         dict(metadata))


def unique_keys(pairs) -> dict:
    """json object_pairs_hook: the object, or InputError for a key given
    twice (plain json keeps the last of two equal keys)."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        raise InputError("repeated key %r" % next(k for k in keys if keys.count(k) > 1))
    return out


def load_json(path_or_file):
    """The JSON document in a file, given by path or open, with repeated keys
    refused (unique_keys).  Text that is not UTF-8 or not JSON, and JSON past
    the parser's limits (nesting depth, integer digits), is an InputError."""
    # JSONDecodeError, UnicodeDecodeError and the digit limit are ValueErrors
    try:
        if hasattr(path_or_file, "read"):
            text = path_or_file.read()
        else:
            with open(path_or_file, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:
        raise InputError("not valid JSON: %s" % e)


def load_model(path_or_file) -> ModelInstance:
    return model_from_dict(load_json(path_or_file))


_INF = float("inf")
# the text of a str, int, bool or None, by exact type, as json writes it
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def json_text(obj, indent) -> str:
    """The text ``json.dumps(obj, indent=indent)`` gives, for a tree of
    dicts with string keys, lists, tuples, strings, ints, floats, booleans
    and None; any other node, and a dict key that is not a string, is a
    TypeError.  json indents through its pure-Python encoder; this writer
    dispatches on exact type, writes a string, int, bool or None member
    inside its parent's loop, with no call of its own, escapes strings
    through json's C escaper and writes ints by ``int.__repr__``."""
    parts = []
    _json_parts(obj, parts, "\n", " " * indent)
    return "".join(parts)


def _json_parts(o, parts, nl, step):
    """Append the text of o, indented by nl, to parts.  A node whose exact
    type is not in _LEAVES takes json's isinstance tests, so a subclass is
    written as its base.  json tests in the order str, None, True, False,
    int, float, list or tuple, dict; None, True and False are in _LEAVES,
    and no type is both a container and a scalar, so testing for the
    containers first gives the same text."""
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        parts.append(leaf(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + step
        sep, comma = "[" + inner, "," + inner
        for x in o:
            leaf = _LEAVES.get(type(x))
            if leaf is not None:
                parts += sep, leaf(x)
            else:
                parts.append(sep)
                _json_parts(x, parts, inner, step)
            sep = comma
        parts.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + step
        sep, comma = "{" + inner, "," + inner
        for k, v in o.items():
            # the escaper refuses a key that is not a string with a TypeError
            leaf = _LEAVES.get(type(v))
            if leaf is not None:
                parts += sep, encode_basestring_ascii(k), ": ", leaf(v)
            else:
                parts += sep, encode_basestring_ascii(k), ": "
                _json_parts(v, parts, inner, step)
            sep = comma
        parts.append(nl + "}")
    elif isinstance(o, str):
        parts.append(encode_basestring_ascii(o))
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        parts.append("NaN" if o != o else "Infinity" if o == _INF else
                     "-Infinity" if o == -_INF else float.__repr__(o))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def save_model(m: ModelInstance, path_or_file):
    """Write m's document, in one write, as json.dump with indent 1 would."""
    text = json_text(model_to_dict(m), 1)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
