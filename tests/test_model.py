import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqih.errors import InputError, StrataMismatch, UnknownStratum
from eqih.fixtures import cone2, hopf, noperv
from eqih.model import (
    Perversity,
    _Entries,
    json_text,
    load_model,
    mat_from_json,
    model_from_dict,
    model_to_dict,
    rat_from_json,
    save_model,
    validate,
)
from eqih.ratla import QNUM, rat


class TestPerversity:
    def test_zero_is_unit(self):
        p = Perversity({"a": 3, "b": -1})
        z = Perversity({"a": 0, "b": 0})
        assert p.minus(z) == p

    def test_fixed_perverse_euler_minus_characteristic(self):
        e = Perversity({"a": 2})
        x = Perversity({"a": 1})
        assert e.minus(x) == Perversity({"a": 1})

    def test_zero_minus_characteristic_clamps_to_floor(self):
        z = Perversity({"a": 0})
        x = Perversity({"a": 1})
        assert z.minus(x) == Perversity({"a": -1})
        # clamping is idempotent at the floor
        assert z.minus(x).minus(x) == Perversity({"a": -1})

    def test_ordering(self):
        p = Perversity({"a": 0, "b": 0})
        q = Perversity({"a": 1, "b": 0})
        assert p <= q and not q <= p

    def test_clamped_subtraction_is_monotone(self):
        x = Perversity({"a": 1, "b": 0})
        for pa in range(-1, 4):
            for qa in range(pa, 4):
                p = Perversity({"a": pa, "b": 0})
                q = Perversity({"a": qa, "b": 0})
                assert p <= q
                assert p.minus(x) <= q.minus(x)

    def test_strata_mismatch(self):
        with pytest.raises(StrataMismatch):
            Perversity({"a": 0}).minus(Perversity({"b": 0}))
        with pytest.raises(StrataMismatch):
            Perversity({"a": 0}) <= Perversity({"b": 0})

    def test_ops_bundle(self):
        p = Perversity({"a": 2})
        q = Perversity({"a": 1})
        assert p.minus(q) == Perversity({"a": 1})
        assert (p <= q) is False


class TestDistinguishedPerversities:
    def test_all_mobile_model_has_zero_characteristic_and_euler(self):
        m = hopf()  # no singular strata at all
        assert m.characteristic_perversity() == m.euler_perversity() == m.zero_perversity()

    def test_fixed_nonperverse(self):
        m = noperv()
        assert m.characteristic_perversity() == Perversity({"apex": 1})
        assert m.euler_perversity() == Perversity({"apex": 1})

    def test_fixed_perverse(self):
        m = cone2()
        assert m.characteristic_perversity() == Perversity({"apex": 1})
        assert m.euler_perversity() == Perversity({"apex": 2})


class TestFiltrationAccess:
    def test_clamping(self):
        m = cone2()
        assert m.filtration("apex", -1, 0).is_zero()
        assert m.filtration("apex", -5, 0).is_zero()
        assert m.filtration("apex", 2, 2).is_full()
        assert m.filtration("apex", 99, 2).is_full()
        assert m.filtration("apex", 0, 2).is_zero()
        assert m.filtration("apex", 0, 0).is_full()

    def test_unknown_stratum(self):
        with pytest.raises(UnknownStratum):
            cone2().filtration("nope", 0, 0)

    def test_perversity_level_intersection(self):
        m = cone2()
        full = m.filtration_level(Perversity({"apex": 2}), 2)
        assert full.is_full()
        low = m.filtration_level(Perversity({"apex": 0}), 2)
        assert low.is_zero()
        floor = m.filtration_level(Perversity({"apex": -1}), 0)
        assert floor.is_zero()


class TestValidate:
    def test_fixture_passes(self):
        assert all(r["passed"] for r in validate(hopf(), strict=True))

    def test_tampered_differential_fails(self):
        data = model_to_dict(noperv())
        data["d"][0] = [["1"]]  # now d1.d0 != 0
        m = model_from_dict(data)
        rep = validate(m)
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert "differential: d.d = 0" in failed

    def test_euler_cocycle_outside_its_level_fails(self):
        data = model_to_dict(noperv())
        # shrink the level the cocycle must lie in (degree 2 at level 1)
        data["filtrations"]["apex"]["1"][2] = []
        m = model_from_dict(data)
        rep = validate(m)
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert "euler cocycle: lies in the Euler-perversity level" in failed

    def test_broken_nesting_detected(self):
        data = model_to_dict(noperv())
        data["filtrations"]["apex"]["0"][1] = [["1"]]
        data["filtrations"]["apex"]["1"][1] = []
        m = model_from_dict(data)
        rep = validate(m)
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert "filtration: nested levels" in failed

    def test_filtration_need_not_be_d_stable(self):
        # d maps the level-0 degree-0 space outside level 0, and that is fine
        m = model_from_dict({
            "name": "unstable",
            "top_degree": 1,
            "dims": [1, 1],
            "d": [[["1"]], []],
            "strata": [{"name": "s", "kind": "mobile"}],
            "filtrations": {"s": {"0": [[["1"]], []]}},
            "euler_cocycle": [],
            "euler_op": [[], []],
            "perversities": [{"s": -1}, {"s": 0}],
        })
        f0 = m.filtration("s", 0, 1)
        assert f0.coords_of(m.diff(0)) is None
        assert all(r["passed"] for r in validate(m, strict=True))

    def test_perversity_set_closure_checked(self):
        data = model_to_dict(cone2())
        data["perversities"] = [{"apex": 0}, {"apex": 2}]  # missing -1, 1
        rep = validate(model_from_dict(data))
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert any("perversity set" in f for f in failed)

    def test_strict_euler_shift_violation(self):
        data = model_to_dict(noperv())
        # drop the degree-2 space from level 1: E maps level 0 outside level 1
        data["filtrations"]["apex"]["1"][2] = []
        m = model_from_dict(data)
        rep = validate(m, strict=True)
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert "strict: euler operator shifts filtration by e-bar" in failed

    def test_strict_product_euler_consistency(self):
        data = model_to_dict(hopf())
        data["euler_op"][0] = [["2"]]  # no longer multiplication by the cocycle
        rep = validate(model_from_dict(data), strict=True)
        failed = {r["axiom"] for r in rep if not r["passed"]}
        assert "strict: euler operator equals wedging with the euler cocycle" in failed
        # chain map and closedness still hold
        assert "euler operator: chain map" not in failed

    def test_no_perverse_strata_reported(self):
        rep = validate(noperv())
        info = [r for r in rep if r["axiom"] == "info: perverse strata"]
        assert info and info[0]["detail"] == "no perverse strata"
        rep2 = validate(cone2())
        info2 = [r for r in rep2 if r["axiom"] == "info: perverse strata"]
        assert "apex" in info2[0]["detail"]


class TestSerialization:
    def test_round_trip_all_fixtures(self):
        for m in (hopf(), cone2(), noperv()):
            data = model_to_dict(m)
            again = model_to_dict(model_from_dict(data))
            assert data == again

    def test_save_load_stream(self):
        m = cone2()
        buf = io.StringIO()
        save_model(m, buf)
        buf.seek(0)
        m2 = load_model(buf)
        assert model_to_dict(m) == model_to_dict(m2)
        assert m2.metadata["cone"]["apex_stratum"] == "apex"

    def test_missing_field(self):
        data = model_to_dict(hopf())
        del data["euler_cocycle"]
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_bad_matrix_shape(self):
        data = model_to_dict(noperv())
        data["d"][1] = [["1", "0"]]
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_bad_rational(self):
        data = model_to_dict(noperv())
        data["euler_cocycle"] = ["1/0"]
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_bad_filtration_levels(self):
        data = model_to_dict(noperv())
        data["filtrations"]["apex"] = {"0": data["filtrations"]["apex"]["0"],
                                       "2": data["filtrations"]["apex"]["1"]}
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_duplicate_strata(self):
        data = model_to_dict(noperv())
        data["strata"] = [{"name": "apex", "kind": "mobile"},
                          {"name": "apex", "kind": "mobile"}]
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_perversity_must_cover_strata(self):
        data = model_to_dict(noperv())
        data["perversities"] = [{}]
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_not_json(self):
        with pytest.raises(InputError):
            load_model(io.StringIO("{nope"))


def general_rat_from_json(x, where):
    """rat_from_json without its fast path for ints and '-?digits' strings."""
    if isinstance(x, (bool, float)):
        raise InputError("%s: %r is not an integer or a 'p/q' string" % (where, x))
    try:
        return rat(x)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise InputError("bad rational in %s: %s" % (where, e))


def is_entry(x):
    """Whether x is in the form rat gives: an int when it is integral, else a
    QNUM."""
    return type(x) is int if x.denominator == 1 else type(x) is QNUM


def json_outcome(parse, x):
    try:
        value = parse(x, "entry")
    except InputError:
        return ("refused",)
    assert is_entry(value)
    return ("accepted", value)


# JSON scalars, integer strings, strings that Fraction reads but that are not
# plain '-?digits', and strings near those
json_numbers = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.none(),
    st.integers().map(str),
    st.sampled_from(["+3", " 3", "3 ", "3_0", "1.5", "\u0663", "-0", "00", "1/0",
                     "-", "", "--3", "-+3", "1e3", "2/4", "-7/3", "0x10", "\u00b2",
                     "1" * 5000]),
    st.text(alphabet="-+0123456789/_. e\u0663", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(json_numbers)
def test_rat_from_json_fast_path_matches_general_parse(x):
    assert json_outcome(rat_from_json, x) == json_outcome(general_rat_from_json, x)


def test_rat_from_json_of_integers_and_strings():
    """Integers and '-?digits' strings give their values as ints."""
    for x in range(-70, 71):
        for doc in (x, str(x)):
            value = rat_from_json(doc, "entry")
            assert type(value) is int and value == x
    value = rat_from_json("-0", "entry")
    assert type(value) is int and value == 0


# inputs off the '-?digits' fast path and their outcomes: Fraction's reading
# of a string, or the exact refusal
OFF_FAST_PATH = [
    (True, "entry: True is not an integer or a 'p/q' string"),
    (False, "entry: False is not an integer or a 'p/q' string"),
    (1.0, "entry: 1.0 is not an integer or a 'p/q' string"),
    ("", "bad rational in entry: Invalid literal for Fraction: ''"),
    ("\u00b2", "bad rational in entry: Invalid literal for Fraction: '\u00b2'"),
    ("1/0", "bad rational in entry: Fraction(1, 0)"),
    ("+2", Fraction(2)),
    ("1_0", Fraction(10)),
    ("1.0", Fraction(1)),
    ("\u0663", Fraction(3)),
    ("-3/3", Fraction(-1)),
    ("-6/4", Fraction(-3, 2)),
]


@pytest.mark.parametrize("x, outcome", OFF_FAST_PATH, ids=repr)
def test_rat_from_json_off_the_fast_path(x, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InputError) as err:
            rat_from_json(x, "entry")
        assert str(err.value) == outcome
    else:
        value = rat_from_json(x, "entry")
        assert value == outcome and is_entry(value)


# -- the JSON writer -------------------------------------------------------------

# strings with quotes, backslashes, control, non-ASCII, astral and lone
# surrogate characters, and ints past 64 bits
json_strings = st.one_of(st.text(), st.text(
    alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600\ud800 a'))
json_leaves = st.one_of(json_strings, st.integers(), st.integers(-2 ** 200, 2 ** 200),
                        st.booleans(), st.none(), st.just([]), st.just({}), st.just(()))
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(json_strings, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_json_text_matches_json_dumps(tree):
    for indent in (1, 2):
        assert json_text(tree, indent) == json.dumps(tree, indent=indent)


@settings(max_examples=100, deadline=None)
@given(json_trees, st.floats())
@example([], float("nan"))
@example([], float("inf"))
@example({"a": "b"}, float("-inf"))
@example([1], -0.0)
@example([], 1e300)
def test_json_text_writes_floats_as_json_does(tree, x):
    """A float leaf, NaN and the infinities among them, gives json's bytes,
    so a float in a document's metadata saves as json would save it."""
    for doc in (x, [tree, x], {"a": x, "b": [x, tree]}):
        assert json_text(doc, 1) == json.dumps(doc, indent=1)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_json_text_refuses_a_key_that_is_not_a_string(key):
    """json writes int, float, bool and None keys as strings and refuses any
    other key with a TypeError; the writer refuses every key that is not a
    string with a TypeError, since no document or report has one."""
    doc = {"rows": [{key: "1"}]}
    with pytest.raises(TypeError):
        json_text(doc, 2)
    if isinstance(key, tuple):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)


@pytest.mark.parametrize("node", [Fraction(1, 2), {1, 2}, object()])
def test_json_text_refuses_what_json_refuses(node):
    for doc in (node, [node], {"a": node}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError):
            json_text(doc, 1)


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("first, then", [
    (("filtrations", "apex", "0", 0, 0, 0), ("euler_cocycle", 0)),
    (("euler_cocycle", 0), ("euler_op", 0, 0, 0)),
])
def test_a_non_string_equal_to_a_parsed_entry_is_refused(first, then, value):
    """Entries are parsed once per distinct string; true and 1.0 equal the
    integer 1, and are refused after an entry 1 as they are anywhere."""
    doc = model_to_dict(cone2())

    def put(path, x):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = x

    put(first, 1)
    put(then, value)
    with pytest.raises(InputError, match="is not an integer or a 'p/q' string"):
        model_from_dict(doc)


# (level 0 degree 0, a place in level 1, its value, refusal): a level equal
# to an accepted one, as true and 1.0 equal 1, or one that spells the same
# characters or keys as a string or an object, is read and refused on its own
LEVEL_REFUSALS = [
    ([[1]], ("1", 0), [[True]], "filtration apex/1/0: True is not an integer or a 'p/q' string"),
    ([[1]], ("1", 0), [[1.0]], "filtration apex/1/0: 1.0 is not an integer or a 'p/q' string"),
    ([["1"]], ("1", 0), ["1"], "filtration apex/1/0 must be a JSON array, not '1'"),
    ([["1"]], ("1", 0), "1", "filtration apex/1/0 must be a JSON array, not '1'"),
    ([["1"]], ("1", 0), {"1": 0}, "filtration apex/1/0 must be a JSON array, not {'1': 0}"),
    ([["1"]], ("1", 0), [{"1": 0}], "filtration apex/1/0 must be a JSON array, not {'1': 0}"),
    ([["1"]], ("1",), "1", "filtration apex/1 must be a JSON array, not '1'"),
    ([["1"]], ("1",), {"0": [["1"]]},
     "filtration apex/1 must be a JSON array, not {'0': [['1']]}"),
]


@pytest.mark.parametrize("first, path, value, refusal", LEVEL_REFUSALS)
def test_a_level_equal_to_an_accepted_one_is_refused(first, path, value, refusal):
    doc = model_to_dict(cone2())
    levels = doc["filtrations"]["apex"]
    levels["0"][0] = first
    if len(path) == 1:
        levels[path[0]] = value
    else:
        levels[path[0]][path[1]] = value
    with pytest.raises(InputError) as err:
        model_from_dict(doc)
    assert str(err.value) == refusal


# a level vector and the Euler cocycle are read as grids, so their refusals
# name the shape of the grid
GRID_REFUSALS = [
    (("filtrations", "apex", "1", 0), [["1", "0"]],
     "matrix shape mismatch in filtration apex/1/0 (want 1x1)"),
    (("filtrations", "apex", "1", 0), [["1"], ["1", "0"]],
     "matrix shape mismatch in filtration apex/1/0 (want 2x1)"),
    (("euler_cocycle",), [], "matrix shape mismatch in euler_cocycle (want 1x1)"),
    (("euler_cocycle",), ["1", "2"], "matrix shape mismatch in euler_cocycle (want 1x1)"),
    (("euler_cocycle",), "1", "euler_cocycle must be a JSON array, not '1'"),
    (("euler_cocycle",), [True], "euler_cocycle: True is not an integer or a 'p/q' string"),
]


@pytest.mark.parametrize("path, value, refusal", GRID_REFUSALS)
def test_a_malformed_grid_names_its_place_and_shape(path, value, refusal):
    doc = model_to_dict(cone2())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InputError) as err:
        model_from_dict(doc)
    assert str(err.value) == refusal


def read_outcome(rows, nrows, ncols, entries):
    try:
        m = mat_from_json(rows, nrows, ncols, ("grid %s/%d", "a", 1), entries)
    except InputError as e:
        return ("refused", str(e))
    assert all(is_entry(x) for row in m.entries for x in row)
    assert len(m.entries) == m.rows and all(len(row) == m.cols for row in m.entries)
    return ("read", m.rows, m.cols, m.entries)


# entries on and off the fast path, and values no reader takes; grids of
# rows of one length, ragged rows, rows and grids that are not lists
grid_entries = st.one_of(
    st.integers(-3, 3), st.integers(), st.sampled_from(["1", "-1", "0", "12", "2/4", "-7/3"]),
    st.sampled_from(["+2", "1.0", "1_0", "\u0663", "", "1/0", "x", "-"]),
    st.booleans(), st.floats(), st.none(), st.just([]), st.just(["1"]), st.just({}))
well_formed = st.integers(0, 3).flatmap(lambda c: st.lists(
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["1", "0", "-1/2", "+2"])),
             min_size=c, max_size=c), max_size=3))
grids = st.one_of(well_formed, st.lists(st.one_of(st.lists(grid_entries, max_size=3),
                                                  grid_entries), max_size=3),
                  grid_entries, st.text(max_size=2), st.dictionaries(st.text(max_size=1),
                                                                    st.integers(), max_size=2))


@settings(max_examples=400, deadline=None)
@given(grids, st.sampled_from([None, 0, 1, 2, 3]), st.sampled_from([None, 0, 1, 2, 3]))
@example([[1, "1"], [True, "2"]], 2, 2)
@example([[1], [1.0]], None, 1)
@example([["1", "2"], ["3"]], None, None)
@example("", None, 0)
@example({"a": 1}, None, None)
@example([[[1]]], 1, 1)
def test_entries_and_checked_reads_agree(rows, nrows, ncols):
    """A grid read through a fresh _Entries gives the matrix, or the
    refusal, of the checked read."""
    assert read_outcome(rows, nrows, ncols, _Entries()) == read_outcome(rows, nrows, ncols, None)


class Place:
    """A place format that fails the test if it is formatted."""

    def __mod__(self, args):
        raise AssertionError("a place was formatted for %r" % (args,))


def test_a_well_formed_grid_formats_no_place():
    entries = _Entries()
    for rows, nrows, ncols in (([["1", "-1/2"], [0, "3"]], 2, 2), ([["1"]], None, 1),
                               ([], None, 4), ([[]], 1, None)):
        m = mat_from_json(rows, nrows, ncols, (Place(), "a"), entries)
        assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else ncols)
    with pytest.raises(AssertionError, match="a place was formatted"):
        mat_from_json([["1"], ["2", "3"]], None, 1, (Place(), "a"), entries)


def test_save_model_writes_json_dumps_text_once():
    class Stream(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    for m in (hopf(), cone2(), noperv()):
        out = Stream()
        save_model(m, out)
        assert out.writes == 1
        assert out.getvalue() == json.dumps(model_to_dict(m), indent=1)
