"""The product axioms of strict validation, checked as matrix identities,
against a per-vector reference.

``validate(strict=True)`` checks each product axiom as one matrix identity
per degree tuple, with Kronecker products and the commutation matrix.  The
reference below is the direct reading of the axioms: products of single
basis vectors, one pair or triple at a time.  Every report must agree with
it, on the fixtures and on seeded corruptions of their tables, and on a
degree-3 model whose tables have more than one row and column, so that the
Kronecker layout and the orientation of the swap are exercised.
"""

import json
import random

import pytest

from eqih.fixtures import cone, noperv, sphere
from eqih.model import model_from_dict, model_to_dict, validate, vec_to_json
from eqih.ratla import Matrix, image, kron

AXIOMS = (
    "euler cocycle: closed",
    "euler cocycle: lies in the Euler-perversity level",
    "strict: euler operator equals wedging with the euler cocycle",
    "strict: product graded-commutative",
    "strict: product associative",
    "strict: product adds perverse degrees",
)


def apply(m, vec):
    return tuple(sum((row[k] * vec[k] for k in range(m.cols)), 0) for row in m.entries)


def contains(space, vec):
    return space.coords_of(Matrix(len(vec), 1, [[x] for x in vec])) is not None


def wedge(m, i, j, x, y):
    """Product of a degree-i and a degree-j vector; zero without a table."""
    table = m.product.get((i, j))
    if table is None:
        return (0,) * m.dim(i + j)
    return apply(table, [s * t for s in x for t in y])


def units(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def per_vector_report(m):
    """Reference: the report entries of AXIOMS, one vector at a time."""
    top = m.top_degree
    out = []

    def check(axiom, ok, detail):
        out.append({"axiom": axiom, "passed": ok, "detail": detail})

    eps = m.euler_cocycle
    deps = apply(m.diff(2), eps) if m.dim(2) else ()
    closed = all(x == 0 for x in deps)
    check(AXIOMS[0], closed, "" if closed else "d(epsilon) = %s" % (vec_to_json(deps),))

    ok, bad = True, ""
    ebar = m.euler_perversity()
    for s in m.strata:
        if not contains(m.filtration(s.name, ebar[s.name], 2), eps):
            ok, bad = False, "stratum %s" % s.name
    check(AXIOMS[1], ok, bad)

    ok, bad = True, ""
    for i in range(top + 1):
        for x in units(m.dim(i)):
            if wedge(m, i, 2, x, eps) != apply(m.euler(i), x):
                ok, bad = False, "degree %d" % i
    check(AXIOMS[2], ok, bad)

    ok, bad = True, ""
    for i in range(top + 1):
        for j in range(top + 1 - i):
            sign = -1 if (i % 2 and j % 2) else 1
            for x in units(m.dim(i)):
                for y in units(m.dim(j)):
                    if wedge(m, i, j, x, y) != tuple(sign * v for v in wedge(m, j, i, y, x)):
                        ok, bad = False, "degrees (%d, %d)" % (i, j)
    check(AXIOMS[3], ok, bad)

    ok, bad = True, ""
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for k in range(top + 1 - i - j):
                for x in units(m.dim(i)):
                    for y in units(m.dim(j)):
                        for z in units(m.dim(k)):
                            lhs = wedge(m, i + j, k, wedge(m, i, j, x, y), z)
                            rhs = wedge(m, i, j + k, x, wedge(m, j, k, y, z))
                            if lhs != rhs:
                                ok, bad = False, "degrees (%d, %d, %d)" % (i, j, k)
    check(AXIOMS[4], ok, bad)

    ok, bad = True, ""
    for s in m.strata:
        km = len(m.filtrations[s.name])
        for k in range(-1, km + 1):
            for l in range(-1, km + 1):
                for i in range(top + 1):
                    for j in range(top + 1 - i):
                        tgt = m.filtration(s.name, k + l, i + j)
                        for x in m.filtration(s.name, k, i).vectors():
                            for y in m.filtration(s.name, l, j).vectors():
                                if not contains(tgt, wedge(m, i, j, x, y)):
                                    ok, bad = False, (
                                        "stratum %s levels (%d, %d) degrees (%d, %d)"
                                        % (s.name, k, l, i, j))
    check(AXIOMS[5], ok, bad)
    return out


def product_entries(m):
    return [c for c in validate(m, strict=True) if c["axiom"] in AXIOMS]


def degree3_doc():
    """The free graded-commutative algebra on a, b in degree 1, c, d in
    degree 2 and e, f in degree 3, cut off above degree 3: dims (1, 2, 3, 6),
    d = 0, ab = -ba, xy = yx for x in {a, b} and y in {c, d}, and every
    other product of positive degrees zero.  So P_21 is P_12 with its
    columns swapped, and (ab)x = a(bx) = 0 is a non-trivial associativity.
    The Euler cocycle is ab - c + 2d.  One mobile stratum holds a + b in
    degree 1, the Euler cocycle and c in degree 2, and their products in
    degree 3 at level 0."""
    basis = {0: ["1"], 1: ["a", "b"], 2: ["ab", "c", "d"],
             3: ["ac", "ad", "bc", "bd", "e", "f"]}
    products = {("a", "b"): (1, "ab"), ("b", "a"): (-1, "ab")}
    for x in "ab":
        for y in "cd":
            products[x, y] = products[y, x] = (1, x + y)

    def table(i, j):
        rows = [[0] * (len(basis[i]) * len(basis[j])) for _ in basis[i + j]]
        for col, (x, y) in enumerate((x, y) for x in basis[i] for y in basis[j]):
            sign, z = (1, y) if x == "1" else (1, x) if y == "1" else products.get((x, y), (0, ""))
            if sign:
                rows[basis[i + j].index(z)][col] = sign
        return rows

    p12 = table(1, 2)
    eps = [1, -1, 2]
    # E_1 x = x eps
    e1 = [[sum(p12[r][x * 3 + w] * eps[w] for w in range(3)) for x in range(2)]
          for r in range(6)]
    f1 = Matrix.from_rows([[1], [1]])
    f2 = Matrix.from_rows([[1, 0], [-1, 1], [2, 0]])
    f3 = image(Matrix.from_rows(p12) * kron(f1, f2)).vectors()

    def js(rows):
        return [[str(x) for x in row] for row in rows]

    return {
        "name": "degree3", "top_degree": 3, "dims": [1, 2, 3, 6],
        "d": [[["0"]] * 2, [["0"] * 2] * 3, [["0"] * 3] * 6, []],
        "strata": [{"name": "s", "kind": "mobile"}],
        "filtrations": {"s": {"0": [[["1"]], [["1", "1"]], [["1", "-1", "2"], ["0", "1", "0"]],
                                    [vec_to_json(v) for v in f3]]}},
        "euler_cocycle": [str(x) for x in eps],
        "euler_op": [js([[x] for x in eps]), js(e1), [], []],
        "product": {"%d,%d" % (i, j): js(table(i, j))
                    for i in range(4) for j in range(4 - i)},
        "perversities": [{"s": 0}],
    }


def base_docs():
    docs = [model_to_dict(sphere(n, e)) for n in (1, 2) for e in (0, 1, 2)]
    docs += [model_to_dict(cone(n)) for n in (1, 2)]
    return docs + [model_to_dict(noperv()), degree3_doc()]


def corrupted(doc, seed):
    """doc with one or two entries moved by a non-zero integer, all in its
    product tables, its Euler operator, its Euler cocycle or its
    differential, by seed modulo 6."""
    rng = random.Random(seed)
    bad = json.loads(json.dumps(doc))
    field = ("product", "euler_op", "product", "euler_cocycle", "product", "d")[seed % 6]
    if field == "product":
        tables = [bad["product"][key] for key in sorted(bad["product"])]
    elif field == "euler_cocycle":
        tables = [[bad["euler_cocycle"]]]
    else:
        tables = bad[field]
    cells = [(rows, r, c) for rows in tables for r, row in enumerate(rows) for c in range(len(row))]
    for rows, r, c in rng.sample(cells, min(len(cells), rng.randint(1, 2))):
        rows[r][c] = str(int(rows[r][c]) + rng.choice((-2, -1, 1, 2)))
    return bad


def test_reports_match_the_per_vector_reference():
    failed = set()
    cases = 0
    for doc in base_docs():
        m = model_from_dict(doc)
        assert product_entries(m) == per_vector_report(m)
        assert all(c["passed"] for c in validate(m, strict=True)), doc["name"]
        for seed in range(10):
            m = model_from_dict(corrupted(doc, seed))
            got = product_entries(m)
            assert got == per_vector_report(m), (doc["name"], seed)
            failed.update(c["axiom"] for c in got if not c["passed"])
            cases += 1
    assert cases == 100
    # every axiom fails somewhere, so no comparison is vacuous
    assert failed == set(AXIOMS)


def test_degree3_tables_pass_and_a_changed_swap_fails():
    doc = degree3_doc()
    assert all(c["passed"] for c in validate(model_from_dict(doc), strict=True))
    # the tables are not symmetric, so a swap of the wrong orientation
    # would fail commutativity
    assert doc["product"]["1,2"] != doc["product"]["2,1"]
    doc["product"]["2,1"][4][3] = str(int(doc["product"]["2,1"][4][3]) + 1)
    report = {c["axiom"]: c for c in validate(model_from_dict(doc), strict=True)}
    commutative = report["strict: product graded-commutative"]
    assert not commutative["passed"]
    assert commutative["detail"] == "degrees (2, 1)"


@pytest.mark.parametrize("key", ["1,2", "2,1"])
def test_degree3_layout_is_checked_entry_by_entry(key):
    """Moving one entry of P_12 or P_21 breaks the axioms, exactly as the
    per-vector reference says, for a sample of the 36 entries."""
    doc = degree3_doc()
    for r, c in random.Random(key).sample([(r, c) for r in range(6) for c in range(6)], 8):
        bad = json.loads(json.dumps(doc))
        bad["product"][key][r][c] = str(int(bad["product"][key][r][c]) - 1)
        m = model_from_dict(bad)
        got = product_entries(m)
        assert got == per_vector_report(m)
        assert not all(entry["passed"] for entry in got)
