"""Source hygiene of the engine package, read from its syntax trees.

Every name a module imports is used in that module, every module-level
private function or class (``_name``) is referenced somewhere in the
package, and every module-level public function or class, and every
non-dunder method of a package class, is referenced somewhere in the
package, its tests or the benchmark, so deleting a helper or its last
caller cannot leave dead code behind.  Only the model module spells the
name of a ``validate`` axiom, so each axiom is decided in one place, and
only the linear-algebra module calls the scalar type ``QNUM``, so scalars
are coerced in one place, and no other module divides with ``/``, so no
quotient of two int entries becomes a float; the model module builds no matrix through the
coercing ``Matrix(...)`` or ``Matrix.from_rows``, so each document entry is
coerced once.  Only ``model.per_model`` calls
``ModelInstance.cached``, and no two builders it makes share a kind, so
every per-model value is memoized in one place under its own key.  Only
``LongExactSequence`` calls ``check_exact``, so a sequence's exactness is
computed once, by the sequence; only ``model.load_json`` calls
``json.load`` or ``json.loads``, so every JSON document is read, and its
malformations reported, in one place; ``json.dump`` is called nowhere and
``json.dumps`` only for the scalar leaves of the human format, so every
document and report is written by ``model.json_text``; and only the model
module names the
stratum-kind weight tables ``_XBAR`` and ``_EBAR``, so every other module
reads a stratum's weights through ``Stratum.xbar`` and ``Stratum.ebar``.
No module asks ``contains_subspace`` of a ``map_image``: whether W contains
f(V) is read from the coordinates of f * V.basis in W, with no image
subspace built and no elimination.  No module intersects a space with a
``preimage``: {x in V : m*x in W} is ``preimage(m, W, within=V)``, one
elimination where the two calls take two.  Only ``model.mat_from_json`` and the
per-document memo ``_Entries.__missing__`` call ``rat_from_json``, so every
matrix and vector a JSON document carries is read by one reader.  No module
imports ``dataclasses``, which generates each class's methods by compiling
code at import and pulls in ``inspect``: a value class is a ``value.Value``,
and importing ``eqih.cli`` loads neither module.  ``Value.__init__`` sets
every public field of a value, so outside ``value.py`` a store past the
refusing ``__setattr__`` sets only a private slot, the per-model memo
``ModelInstance._cache``.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from eqih.fixtures import cone2
from eqih.model import validate

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eqih"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
# the code that may call the package's public names
CALLERS = [ast.parse(path.read_text(), str(path))
           for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]


def imported_names(tree):
    """(bound name, line) of every import statement, except __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def referenced_names(tree):
    """Every identifier the module reads: names, attribute names and the
    names a from-import pulls in."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def definitions(tree, private):
    """Names of the module-level functions and classes of tree, private
    (``_name``) or public."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name.startswith("_") == private]


def methods(tree):
    """(class, method) names of every non-dunder method defined in a class
    of tree."""
    return [(node.name, f.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def calls(tree, names):
    """(top-level definition, line) of every call of a function in names,
    spelled as a name, as an attribute (``m.cached``), or as an attribute of
    a name (``json.loads``)."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                spelled = {getattr(f, "id", None), getattr(f, "attr", None)}
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    spelled.add("%s.%s" % (f.value.id, f.attr))
                if spelled & names:
                    out.append((getattr(top, "name", None), node.lineno))
    return out


def divisions(tree):
    """(top-level definition, line) of every true division, ``a / b`` or
    ``a /= b``."""
    return [(getattr(top, "name", None), node.lineno) for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


def per_model_kinds(tree):
    """The kind of every ``per_model(kind)`` call, as a decorator or not."""
    return [node.args[0].value for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "per_model"]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(n, line) for n, line in imported_names(tree) if n not in used]
    assert not unused, "%s imports names it never uses: %s" % (name, unused)


def test_every_private_function_is_referenced():
    referenced = set().union(*(referenced_names(t) for t in TREES.values()))
    private = [(name, d) for name, tree in TREES.items() for d in definitions(tree, True)]
    assert private
    unreferenced = [p for p in private if p[1] not in referenced]
    assert not unreferenced, "private names nothing references: %s" % unreferenced


def test_every_public_name_is_referenced():
    referenced = set().union(*map(referenced_names, list(TREES.values()) + CALLERS))
    public = [(name, d) for name, tree in TREES.items() for d in definitions(tree, False)]
    assert public
    unreferenced = [p for p in public if p[1] not in referenced]
    assert not unreferenced, "public names nothing references: %s" % unreferenced


def test_every_method_is_referenced():
    referenced = set().union(*map(referenced_names, list(TREES.values()) + CALLERS))
    found = [(name, cls, m) for name, tree in TREES.items() for cls, m in methods(tree)]
    assert found
    unreferenced = [f for f in found if f[2] not in referenced]
    assert not unreferenced, "methods nothing references: %s" % unreferenced


def test_the_checks_see_dead_code():
    """An unused import and an unreferenced helper are both reported."""
    tree = ast.parse("import os\nfrom .ratla import rat\n\ndef _helper():\n    return rat(1)\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os"]
    assert "_helper" not in referenced_names(tree)


def test_the_checks_see_a_dead_public_name():
    """A public function that only its own definition names is reported,
    and one that a caller imports is not."""
    tree = ast.parse("def unused(x):\n    return x\n\ndef used(x):\n    return x\n"
                     "\nclass Dead:\n    pass\n")
    caller = ast.parse("from .module import used\n")
    assert definitions(tree, False) == ["unused", "used", "Dead"]
    referenced = referenced_names(tree) | referenced_names(caller)
    assert [d for d in definitions(tree, False) if d not in referenced] == ["unused", "Dead"]


def test_the_checks_see_a_dead_method():
    """A method that only its own definition names is reported, one that a
    caller reads as an attribute is not, and dunder methods are skipped."""
    tree = ast.parse("class A:\n    def __init__(self):\n        pass\n\n"
                     "    def dead(self):\n        return 1\n\n"
                     "    def used(self):\n        return self._of()\n\n"
                     "    def _of(self):\n        return 2\n")
    caller = ast.parse("A().used()\n")
    assert methods(tree) == [("A", "dead"), ("A", "used"), ("A", "_of")]
    referenced = referenced_names(tree) | referenced_names(caller)
    assert [m for _, m in methods(tree) if m not in referenced] == ["dead"]


def test_the_oracle_imports_only_errors_model_and_ratla():
    """``fixtures.oracle_cohomology`` checks the pipeline, so fixtures.py
    reads nothing of the package beyond its errors, the model and the
    linear algebra, at module level or inside a function."""
    imported = set()
    for node in ast.walk(TREES["fixtures.py"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "eqih":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "eqih")
    assert imported == {"errors", "model", "ratla"}


def test_only_the_model_spells_an_axiom_name():
    """A string in another module that holds an axiom name decides, or
    reports, that axiom a second time."""
    # cone2 has a product table, so the strict report lists every axiom
    axioms = {row["axiom"] for row in validate(cone2(), strict=True)}
    assert "strict: product associative" in axioms
    spelled = [(name, axiom) for name, tree in TREES.items() if name != "model.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               for axiom in axioms if axiom in node.value]
    assert not spelled, "axiom names spelled outside model.py: %s" % spelled


def test_only_ratla_calls_qnum():
    """Every other module coerces a scalar through ``ratla.rat`` or builds
    it by QNUM arithmetic."""
    assert calls(TREES["ratla.py"], {"QNUM"})
    found = [(name, line) for name, tree in TREES.items() if name != "ratla.py"
             for _, line in calls(tree, {"QNUM"})]
    assert not found, "QNUM called outside ratla.py: %s" % found


def test_the_checks_see_a_qnum_call():
    tree = ast.parse("from .ratla import QNUM, rat\nfrom . import ratla\n\n"
                     "a = QNUM(1)\nb = ratla.QNUM(2, 3)\nc = rat(4) * QNUM\n")
    assert calls(tree, {"QNUM"}) == [(None, 4), (None, 5)]


def test_only_ratla_divides():
    """An integral entry is an int, and int / int is a float: every other
    module divides two entries through ``ratla.divide``."""
    found = [(name, where) for name, tree in TREES.items() if name != "ratla.py"
             for where in divisions(tree)]
    assert not found, "division outside ratla.py: %s" % found


def test_the_checks_see_a_division():
    tree = ast.parse("def f(a, b):\n    return a / b\n\n"
                     "def g(a, b):\n    a /= b\n    return a // b\n\nc = 1 / 2\n")
    assert divisions(tree) == [("f", 2), ("g", 5), (None, 8)]


# the public constructor and from_rows, which calls it, coerce every entry
COERCING = {"Matrix", "from_rows"}


def test_the_model_builds_no_matrix_by_coercion():
    """The model module reads each document entry once into a QNUM and
    builds its matrices with ``Matrix._of``, so no entry is coerced twice."""
    found = calls(TREES["model.py"], COERCING)
    assert not found, "coercing Matrix calls in model.py: %s" % found


def test_the_checks_see_a_coercing_matrix_call():
    tree = ast.parse("def read(rows):\n    return Matrix(1, 1, rows)\n\n"
                     "def swap(rows):\n    return ratla.Matrix.from_rows(rows)\n\n"
                     "def fast(rows):\n    return Matrix._of(1, 1, rows), Matrix.zero(1, 1)\n")
    assert calls(tree, COERCING) == [("read", 2), ("swap", 5)]


def test_only_per_model_calls_cached():
    """Every per-model value is memoized through the per_model decorator."""
    found = [(name, top) for name, tree in TREES.items() for top, _ in calls(tree, {"cached"})]
    assert found == [("model.py", "per_model")]


def test_no_two_builders_share_a_kind():
    kinds = [kind for tree in TREES.values() for kind in per_model_kinds(tree)]
    assert kinds and all(isinstance(kind, str) for kind in kinds)
    assert len(set(kinds)) == len(kinds), sorted(kinds)


def test_the_checks_see_a_stray_cached_call_and_a_shared_kind():
    tree = ast.parse("def per_model(kind):\n    return m.cached(kind, f)\n\n"
                     "@per_model('a')\ndef build(m):\n    return m.cached('b', lambda: 1)\n\n"
                     "other = per_model('a')(Builder)\n")
    assert calls(tree, {"cached"}) == [("per_model", 2), ("build", 6)]
    assert per_model_kinds(tree) == ["a", "a"]


def test_only_long_exact_sequence_calls_check_exact():
    """A sequence's exactness rows are computed once, by the sequence."""
    found = [(name, top) for name, tree in TREES.items()
             for top, _ in calls(tree, {"check_exact"})]
    assert found == [("homalg.py", "LongExactSequence")]


def test_only_load_json_parses_json():
    """Every JSON document enters through one reader, which reports each way
    the text can fail to parse as an InputError."""
    found = [(name, top) for name, tree in TREES.items()
             for top, _ in calls(tree, {"json.load", "json.loads"})]
    assert found == [("model.py", "load_json")]


def test_the_checks_see_stray_check_exact_and_json_calls():
    tree = ast.parse("class LongExactSequence:\n    def exactness(self):\n"
                     "        return check_exact(self)\n\n"
                     "def skjelbred(seq):\n    return homalg.check_exact(seq)\n\n"
                     "def load_json(fh):\n    return json.loads(fh.read())\n\n"
                     "def _load_iso(fh):\n    return json.load(fh), fh.load()\n")
    assert calls(tree, {"check_exact"}) == [("LongExactSequence", 3), ("skjelbred", 6)]
    assert calls(tree, {"json.load", "json.loads"}) == [("load_json", 9), ("_load_iso", 12)]


def test_only_json_text_writes_json():
    """Every document and report is written by one writer, json_text; json's
    own writers serve only the human format's scalar leaves."""
    found = {(name, top) for name, tree in TREES.items()
             for top, _ in calls(tree, {"json.dump", "json.dumps"})}
    assert found == {("cli.py", "_emit_human")}


def test_the_checks_see_stray_json_writes():
    tree = ast.parse("def _emit_human(node, fh):\n    fh.write(json.dumps(node))\n\n"
                     "def save_model(m, fh):\n    json.dump(model_to_dict(m), fh)\n\n"
                     "def _emit(report, fh):\n"
                     "    fh.write(json.dumps(report, indent=2) + json_text(report, 2))\n")
    assert calls(tree, {"json.dump", "json.dumps"}) == [
        ("_emit_human", 2), ("save_model", 5), ("_emit", 8)]


WEIGHT_TABLES = {"_XBAR", "_EBAR"}


def test_only_the_model_names_the_weight_tables():
    """The stratum-kind weights have one owner: other modules read them
    through Stratum.xbar and Stratum.ebar."""
    found = {name: referenced_names(tree) & WEIGHT_TABLES for name, tree in TREES.items()}
    assert found.pop("model.py") == WEIGHT_TABLES
    assert not any(found.values()), "weight tables named outside model.py: %s" % found


def test_the_checks_see_a_weight_table_named_elsewhere():
    """An import of a table, or an attribute read of one, is reported."""
    imported = ast.parse("from .model import _XBAR, Stratum\n\nx = _XBAR['mobile']\n")
    read = ast.parse("from . import model\n\ne = model._EBAR['mobile']\n")
    clean = ast.parse("def weights(s):\n    return s.xbar, s.ebar\n")
    assert referenced_names(imported) & WEIGHT_TABLES == {"_XBAR"}
    assert referenced_names(read) & WEIGHT_TABLES == {"_EBAR"}
    assert not referenced_names(clean) & WEIGHT_TABLES


def nested_calls(tree, outer, inner):
    """(top-level definition, line) of every call of outer, spelled as a
    name or an attribute, with an argument that is a call of inner, written
    inside it (on one line or several) or bound to a name earlier in the
    same definition."""
    def is_call(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    out = []
    for top in tree.body:
        bound = {t.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                 and is_call(node.value, inner) for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            if is_call(node, outer) and any(is_call(a, inner) or getattr(a, "id", None) in bound
                                            for a in node.args):
                out.append((getattr(top, "name", None), node.lineno))
    return out


def image_containments(tree):
    """Every ``contains_subspace`` call of a ``map_image``."""
    return nested_calls(tree, "contains_subspace", "map_image")


def preimage_intersections(tree):
    """Every ``intersect`` call of a ``preimage``."""
    return nested_calls(tree, "intersect", "preimage")


def test_no_containment_builds_an_image():
    """A containment W >= f(V) is read from coordinates, as
    ``W.coords_of(f * V.basis)``, and never by building f(V)."""
    found = [(name, top, line) for name, tree in TREES.items()
             for top, line in image_containments(tree)]
    assert not found, "containments of a built image: %s" % found


def test_no_intersection_of_a_preimage():
    """{x in V : m*x in W} is ``preimage(m, W, within=V)``, one elimination,
    and never the intersection of V with a built preimage, two."""
    found = [(name, top, line) for name, tree in TREES.items()
             for top, line in preimage_intersections(tree)]
    assert not found, "intersections of a built preimage: %s" % found


def test_the_checks_see_an_intersection_of_a_preimage():
    """The nested call on one line or split over lines, and a name bound to
    a preimage, are reported; a restricted preimage and an intersection of
    spaces that are no preimage are not."""
    tree = ast.parse("def one(v, m, w):\n    return intersect(v, preimage(m, w))\n\n"
                     "def split(v, m, w):\n    return ratla.intersect(\n"
                     "        ratla.preimage(m,\n                       w), v)\n\n"
                     "def bound(v, m, w):\n    pre = preimage(m, w)\n"
                     "    return intersect(v, pre).dim\n\n"
                     "def clean(v, m, w, u):\n"
                     "    return preimage(m, w, within=v), intersect(v, u)\n")
    assert preimage_intersections(tree) == [("one", 2), ("split", 5), ("bound", 11)]


def test_the_checks_see_a_containment_of_an_image():
    """The nested call on one line or split over lines, and a name bound to
    a map_image, are reported; a coordinate test and a containment of a
    space that is no image are not."""
    tree = ast.parse("def one(w, e, v):\n    return w.contains_subspace(map_image(e, v))\n\n"
                     "def split(w, e, v):\n    return w.contains_subspace(\n"
                     "        ratla.map_image(e,\n                        v))\n\n"
                     "def bound(w, e, v):\n    img = map_image(e, v)\n"
                     "    return w.contains_subspace(img) and img.dim == w.dim\n\n"
                     "def clean(w, e, v, u):\n"
                     "    return w.coords_of(e * v.basis) is not None and w.contains_subspace(u)\n")
    assert image_containments(tree) == [("one", 2), ("split", 5), ("bound", 11)]


def scopes(tree):
    """(name, node) of every top-level definition, with each member of a
    top-level class named ``Class.member``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from (("%s.%s" % (top.name, getattr(f, "name", None)), f) for f in top.body)
        else:
            yield getattr(top, "name", None), top


def scoped_calls(tree, names):
    """calls(tree, names), with a call inside a method of a top-level class
    named ``Class.method``."""
    return [(name, line) for name, scope in scopes(tree)
            for _, line in calls(ast.Module([scope], []), names)]


def test_only_the_matrix_reader_reads_entries():
    """Every grid of a document, a level, the Euler cocycle, an iso matrix
    or the cone metadata's link_eub, is read by mat_from_json."""
    found = {(name, scope) for name, tree in TREES.items()
             for scope, _ in scoped_calls(tree, {"rat_from_json"})}
    assert found == {("model.py", "mat_from_json"), ("model.py", "_Entries.__missing__")}


def test_the_checks_see_a_second_entry_reader():
    tree = ast.parse("def mat_from_json(rows, where):\n"
                     "    return [[rat_from_json(x, where) for x in r] for r in rows]\n\n"
                     "class _Entries(dict):\n    cache = True\n\n"
                     "    def __missing__(self, x):\n        return rat_from_json(x, 'entry')\n\n"
                     "    def rows(self, rows):\n"
                     "        return [model.rat_from_json(x, 'r') for x in rows]\n\n"
                     "def _vec_from_json(v, where):\n"
                     "    return tuple(rat_from_json(x, where) for x in v)\n")
    assert scoped_calls(tree, {"rat_from_json"}) == [
        ("mat_from_json", 2), ("_Entries.__missing__", 8), ("_Entries.rows", 11),
        ("_vec_from_json", 14)]


def slot_stores(tree):
    """(scope, slot) of every store past ``Value.__setattr__``, a call of
    ``_set`` or ``object.__setattr__``, scoped as by scopes(), with the slot
    its string literal names, or None where it is named otherwise."""
    return [(name, node.args[1].value if isinstance(node.args[1], ast.Constant) else None)
            for name, scope in scopes(tree) for node in ast.walk(scope)
            if isinstance(node, ast.Call) and len(node.args) > 1
            and (getattr(node.func, "id", None) == "_set"
                 or ast.unparse(node.func) == "object.__setattr__")]


def test_only_the_model_memo_is_stored_past_the_constructor():
    """Value.__init__ sets every public field, so outside value.py a store
    past the refusing __setattr__ sets a private slot, and the one such slot
    is the per-model memo."""
    found = {(name, scope, slot) for name, tree in TREES.items() if name != "value.py"
             for scope, slot in slot_stores(tree)}
    assert found == {("model.py", "ModelInstance.__init__", "_cache")}


def test_the_checks_see_a_field_stored_past_the_constructor():
    tree = ast.parse("class A(Value):\n    def __init__(self, x):\n"
                     "        _set(self, 'x', x)\n        _set(self, '_memo', {})\n\n"
                     "class B:\n    def __init__(self, items):\n"
                     "        object.__setattr__(self, 'items', items)\n\n"
                     "def put(obj, slot):\n    _set(obj, slot, 1)\n    setattr(obj, 'y', 2)\n")
    assert slot_stores(tree) == [("A.__init__", "x"), ("A.__init__", "_memo"),
                                 ("B.__init__", "items"), ("put", None)]


def imported_modules(tree):
    """The top-level name of every module an import statement names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    found = [name for name, tree in TREES.items() if "dataclasses" in imported_modules(tree)]
    assert not found, "dataclasses imported by: %s" % found


def test_the_checks_see_a_dataclasses_import():
    tree = ast.parse("from dataclasses import dataclass\nimport dataclasses.x\n"
                     "from .value import Value\n")
    assert imported_modules(tree) == {"dataclasses"}


def test_the_command_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter without ``site``, which imports neither module
    itself, has neither after ``import eqih.cli``."""
    code = ("import eqih.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
