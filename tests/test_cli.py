import io
import json
import pathlib
import sys

import pytest

from eqih import cli, fixtures, homalg, localize
from eqih.cli import main
from eqih.fixtures import cone2, hopf, noperv, random_model
from eqih.model import model_from_dict, model_to_dict, save_model, validate


@pytest.fixture()
def cone_file(tmp_path):
    path = tmp_path / "cone2.json"
    save_model(cone2(), str(path))
    return str(path)


@pytest.fixture()
def hopf_file(tmp_path):
    path = tmp_path / "hopf.json"
    save_model(hopf(), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate_with_product_key(capsys, tmp_path, key):
    """validate cone2 with one more product key, holding the (0, 2)
    matrix."""
    data = model_to_dict(cone2())
    data["product"][key] = data["product"]["0,2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return run(capsys, "validate", str(path), "--strict")


def compare_with_iso_key(capsys, tmp_path, key):
    """compare hopf with itself through the identity iso with one more
    degree key."""
    path = tmp_path / "hopf.json"
    save_model(hopf(), str(path))
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]], key: [["1"]]},
                               "strata": {}}))
    return run(capsys, "compare", str(path), str(path), "--iso", str(iso))


class TestBasicCommands:
    def test_validate_ok(self, capsys, cone_file):
        code, out, _ = run(capsys, "validate", cone_file, "--strict")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert report["schema"] == "eqih-report/1"

    def test_parser_keeps_no_option_between_runs(self, capsys, cone_file):
        run(capsys, "validate", cone_file, "--strict")
        code, out, _ = run(capsys, "validate", cone_file)
        assert code == 0 and json.loads(out)["strict"] is False

    def test_validate_malformed_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    def test_cohomology(self, capsys, hopf_file):
        code, out, _ = run(capsys, "cohomology", hopf_file, "-p", "")
        report = json.loads(out)
        assert code == 0
        assert report["base_dims"] == [1, 0, 1]
        assert report["total_dims"] == [1, 0, 0, 1]

    def test_gysin(self, capsys, cone_file):
        code, out, _ = run(capsys, "gysin", cone_file, "-p", "apex=2")
        report = json.loads(out)
        assert code == 0
        assert report["gysin_les"]["exact"]
        assert report["cogysin_les"]["exact"]
        assert report["euler_maps"]["0"] == [["1"]]

    def test_equivariant_window_override(self, capsys, cone_file):
        code, out, _ = run(capsys, "equivariant", cone_file,
                           "-p", "apex=2", "--nu", "10")
        report = json.loads(out)
        assert code == 0 and report["window"] == 10
        assert len(report["dims"]) == 11

    def test_spectral_with_d3(self, capsys, cone_file):
        code, out, _ = run(capsys, "spectral", cone_file, "-p", "apex=2",
                           "--pages", "3", "--d3-check")
        report = json.loads(out)
        assert code == 0
        assert [pg["r"] for pg in report["pages"]] == [1, 2, 3]
        assert report["d3"]["all_equal"]

    def test_skjelbred(self, capsys, cone_file):
        code, out, _ = run(capsys, "skjelbred", cone_file)
        report = json.loads(out)
        assert code == 0 and report["sequence"]["exact"]

    def test_localize_with_cone_check(self, capsys, cone_file):
        code, out, _ = run(capsys, "localize", cone_file, "-p", "apex=2",
                           "--cone-check")
        report = json.loads(out)
        assert code == 0
        assert report["ranks"] == {"even": 1, "odd": 0}
        assert report["cone"]["match"]

    def test_human_mode(self, capsys, hopf_file):
        code, out, _ = run(capsys, "cohomology", hopf_file, "-p", "",
                           "--human")
        assert code == 0
        assert "base_dims" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestCompare:
    def test_identity_compare(self, capsys, tmp_path, hopf_file):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({
            "mats": {"0": [["1"]], "1": [], "2": [["1"]]},
            "strata": {},
        }))
        code, out, _ = run(capsys, "compare", hopf_file, hopf_file,
                           "--iso", str(iso))
        report = json.loads(out)
        assert code == 0
        assert report["optimal"] and report["related"]
        assert report["consequences"]["all_equal"]

    def test_bad_iso_exits_2(self, capsys, tmp_path, hopf_file):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": {"0": [["0"]]}, "strata": {}}))
        code, _, err = run(capsys, "compare", hopf_file, hopf_file,
                           "--iso", str(iso))
        assert code == 2
        assert json.loads(err)["error"] == "InvalidIso"

    @pytest.mark.parametrize("mats", [{"x": [["1"]]}, {"0": [[0.5]]}])
    def test_malformed_iso_exits_2(self, capsys, tmp_path, hopf_file, mats):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": mats, "strata": {}}))
        code, out, err = run(capsys, "compare", hopf_file, hopf_file,
                             "--iso", str(iso))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    # the matrix reader names the iso degree and the first fault
    @pytest.mark.parametrize("mats, detail", [
        ({"0": [["1"], ["1", "0"]]}, "matrix shape mismatch in iso matrix for degree 0 (want 2x1)"),
        ({"0": "1"}, "iso matrix for degree 0 must be a JSON array, not '1'"),
        ({"0": [["1"], 1]}, "iso matrix for degree 0 must be a JSON array, not 1"),
        ({"0": [[True]]}, "iso matrix for degree 0: True is not an integer or a 'p/q' string"),
    ])
    def test_malformed_iso_matrix_names_its_degree(self, capsys, tmp_path, hopf_file, mats,
                                                   detail):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": mats, "strata": {}}))
        code, out, err = run(capsys, "compare", hopf_file, hopf_file, "--iso", str(iso))
        assert code == 2 and not out
        assert json.loads(err) == {"schema": "eqih-report/1", "command": "compare",
                                   "error": "InputError", "detail": detail}

    @pytest.mark.parametrize("strata", [[1], "ab"])
    def test_malformed_iso_strata_exits_2(self, capsys, tmp_path, hopf_file, strata):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": {}, "strata": strata}))
        code, out, err = run(capsys, "compare", hopf_file, hopf_file,
                             "--iso", str(iso))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    # a present field must be a JSON object, even a falsy one
    @pytest.mark.parametrize("value", [[], 0, "", None, [1]])
    @pytest.mark.parametrize("field", ["mats", "strata"])
    def test_iso_field_of_the_wrong_type_exits_2(self, capsys, tmp_path, hopf_file, field,
                                                 value):
        doc = {"mats": {"0": [["1"]], "1": [], "2": [["1"]]}, "strata": {}}
        doc[field] = value
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compare", hopf_file, hopf_file, "--iso", str(iso))
        assert code == 2 and not out
        error = json.loads(err)
        assert error["error"] == "InputError" and "iso field '%s'" % field in error["detail"]

    # an absent field is empty: hopf has no strata, and no matrices leave
    # degree 0 without an invertible one
    @pytest.mark.parametrize("doc, code, error", [
        ({"mats": {"0": [["1"]], "1": [], "2": [["1"]]}}, 0, None),
        ({"strata": {}}, 2, "InvalidIso"),
    ])
    def test_absent_iso_field_is_empty(self, capsys, tmp_path, hopf_file, doc, code, error):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps(doc))
        got, out, err = run(capsys, "compare", hopf_file, hopf_file, "--iso", str(iso))
        assert got == code
        if error:
            assert json.loads(err)["error"] == error
        else:
            assert json.loads(out)["optimal"]


class TestFixtureCommand:
    def test_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "fixture", "cone2", "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_path), "--strict")
        assert code == 0 and json.loads(out)["passed"]

    def test_random_deterministic(self, capsys):
        code, out1, _ = run(capsys, "fixture", "random", "--seed", "7")
        code2, out2, _ = run(capsys, "fixture", "random", "--seed", "7")
        assert code == code2 == 0 and out1 == out2

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "fixture", "nope")
        assert code == 2

    def test_random_size_below_one_exits_2(self, capsys):
        code, out, err = run(capsys, "fixture", "random", "--size", "0")
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    def test_random_size_above_the_bound_exits_2(self, capsys, monkeypatch):
        def generating(*args):
            raise AssertionError("a model was generated")

        monkeypatch.setattr(fixtures, "_random_differential", generating)
        size = str(fixtures.MAX_RANDOM_SIZE + 1)
        code, out, err = run(capsys, "fixture", "random", "--seed", "0", "--size", size)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"


class TestErrors:
    @pytest.mark.parametrize("argv, owner, name, fake", [
        (["skjelbred"], homalg, "check_exact",
         lambda seq: [{"node": "A^0", "exact": False}]),
        (["localize", "-p", "apex=2"], localize.PolyMatrix, "rank",
         lambda self: 99),
    ], ids=["skjelbred", "localize"])
    def test_failed_engine_check_exits_1(self, capsys, monkeypatch, cone_file,
                                         argv, owner, name, fake):
        monkeypatch.setattr(owner, name, fake)
        code, out, err = run(capsys, argv[0], cone_file, *argv[1:])
        assert code == 1 and not out
        assert json.loads(err)["error"] == "TheoremViolation"

    # documents that each fail one axiom on the model's spaces and maps:
    # noperv with d.d != 0; random 121 (size 3) with an Euler operator that
    # is not a chain map; cone2 with the degree-2 form in apex level 0 but
    # not level 1, and without the degree-0 form in level 0; random 29 with
    # a cocycle that is not closed; and noperv with an empty Euler level in
    # degree 2.  Every engine command, and compare with the document in
    # either position, refuses them as input
    @pytest.mark.parametrize("document, perversity, axiom", [
        ("noperv", "apex=1", "differential: d.d = 0"),
        ("random", "s0=2", "euler operator: chain map"),
        ("nested", "apex=2", "filtration: nested levels"),
        ("degree0", "apex=2", "filtration: degree-0 forms have perverse degree 0"),
        ("closed", "s0=0,s1=0", "euler cocycle: closed"),
        ("level", "apex=1", "euler cocycle: lies in the Euler-perversity level"),
    ])
    @pytest.mark.parametrize("argv", [
        ["cohomology"], ["gysin"], ["equivariant"], ["localize"],
        ["spectral", "--d3-check"], ["skjelbred"], ["compare", "first"],
        ["compare", "second"],
    ], ids=lambda argv: argv[0] if argv[0] != "compare" else "-".join(argv))
    def test_model_failing_an_axiom_exits_2(self, capsys, tmp_path, cone_file, document,
                                            perversity, axiom, argv):
        if document == "noperv":
            data = model_to_dict(noperv())
            data["d"][0] = [["1"]]
        elif document == "random":
            data = model_to_dict(random_model(121, size=3))
            assert data["euler_op"][0][2][1] == "-1"
            data["euler_op"][0][2][1] = "3"
        elif document in ("nested", "degree0"):
            data = model_to_dict(cone2())
            degree, form = (2, [["1"]]) if document == "nested" else (0, [])
            data["filtrations"]["apex"]["0"][degree] = form
        elif document == "closed":
            data = model_to_dict(random_model(29))
            assert data["euler_cocycle"] == ["0"]
            data["euler_cocycle"] = ["1"]
        else:
            data = model_to_dict(noperv())
            data["filtrations"]["apex"]["1"][2] = []
        failed = [r["axiom"] for r in validate(model_from_dict(data)) if not r["passed"]]
        assert failed == [axiom]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        if argv[0] == "compare":
            iso = tmp_path / "iso.json"
            iso.write_text(json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]]},
                                       "strata": {"apex": "apex"}}))
            files = [str(path), cone_file] if argv[1] == "first" else [cone_file, str(path)]
            argv = ["compare", *files, "--iso", str(iso)]
        else:
            perv = [] if argv[0] == "skjelbred" else ["-p", perversity]
            argv = [argv[0], str(path), *perv, *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        report = json.loads(err)
        assert report["error"] == "InputError" and axiom in report["detail"]

    def test_error_report_keeps_the_header(self, capsys, tmp_path):
        """A failing run names the command, the model and the perversity of
        the header it was building, then the error and its detail."""
        data = model_to_dict(noperv())
        data["filtrations"]["apex"]["1"][2] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "equivariant", str(path), "-p", "apex=1")
        assert code == 2 and not out
        report = json.loads(err)
        assert list(report) == ["schema", "command", "model", "perversity", "error", "detail"]
        assert report["command"] == "equivariant" and report["model"] == data["name"]
        assert report["perversity"] == "apex=1" and report["error"] == "InputError"

    def test_bad_perversity_syntax(self, capsys, cone_file):
        code, _, err = run(capsys, "cohomology", cone_file, "-p", "apex")
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("perv", [
        "apex=0,apex=2", "apex=1, apex =1", "apex=1_0", "apex=+2", "apex=2.0",
        "apex=",
    ])
    def test_malformed_perversity_exits_2(self, capsys, cone_file, perv):
        code, out, err = run(capsys, "cohomology", cone_file, "-p", perv)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    def test_perversity_value_may_be_padded(self, capsys, cone_file):
        _, want, _ = run(capsys, "cohomology", cone_file, "-p", "apex=-1")
        code, out, _ = run(capsys, "cohomology", cone_file, "-p", " apex = -1 ")
        assert code == 0 and out == want

    def test_the_empty_label_reads_as_no_perversity(self, capsys, hopf_file):
        """A header's "()" given back to -p is the empty perversity."""
        _, want, _ = run(capsys, "cohomology", hopf_file)
        code, out, _ = run(capsys, "cohomology", hopf_file, "-p", "()")
        assert code == 0 and out == want and json.loads(out)["perversity"] == "()"

    def test_unknown_stratum(self, capsys, cone_file):
        code, _, err = run(capsys, "cohomology", cone_file, "-p", "nope=1")
        assert code == 2

    def test_float_entry_exits_2(self, capsys, tmp_path):
        # a JSON float is a binary fraction, never the decimal it shows
        data = model_to_dict(cone2())
        data["euler_cocycle"] = [0.1]
        path = tmp_path / "float.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path), "--strict")
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    # the last value is past the upper bound
    @pytest.mark.parametrize("nu", ["0", "-3", "1001"])
    def test_window_below_one_exits_2(self, capsys, cone_file, nu):
        code, out, err = run(capsys, "equivariant", cone_file, "-p", "apex=2",
                             "--nu", nu)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("argv", [
        ["spectral", "-p", "apex=2", "--pages", "-2"],
        ["spectral", "-p", "apex=2", "--pages", "0"],
        ["selftest", "--seeds", "-2"],
        # past the upper bound
        ["spectral", "-p", "apex=2", "--pages", "1001"],
    ])
    def test_option_below_range_exits_2(self, capsys, cone_file, argv):
        if argv[0] == "spectral":
            argv = argv[:1] + [cone_file] + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(top_degree="2"),
        lambda d: d["strata"][0].pop("kind"),
        lambda d: d.update(filtrations=[]),
        lambda d: d["perversities"][0].update(apex="x"),
        lambda d: d.update(d=5),
        lambda d: d.update(strata=3),
        lambda d: d["filtrations"]["apex"].update(x=d["filtrations"]["apex"].pop("1")),
        # JSON floats that int() would truncate
        lambda d: d.update(dims=[1.0, 0, 1.5]),
        lambda d: d.update(perversities=[{"apex": v} for v in (-1.0, 0.4, 1, 2.9)]),
        # a filtration for a stratum the document does not list
        lambda d: d["filtrations"].update(typo=d["filtrations"]["apex"]),
        # a name that is not a string
        lambda d: d.update(name=[1]),
        lambda d: d.update(name=None),
    ])
    def test_malformed_model_exits_2(self, capsys, tmp_path, edit):
        data = model_to_dict(cone2())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path), "--strict")
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("apex, field, value", [
        ("2", "link_quotient_ih", [1, 0, 0.4]),
        ("2", "link_quotient_ih", [1, "x", 1]),
        ("2", "link_quotient_ih", "abc"),
        ("2", "link_quotient_ih", [1, 0, True]),
        ("2", "link_quotient_ih", [1, 0, -1]),
        ("1", "link_eub", [[["1"]]]),
        ("1", "link_eub", {"0": [["1"], ["1", "2"]]}),
        ("2", "apex_stratum", ["apex"]),
        ("2", "cone_degree", "abc"),
        ("2", "cone_degree", 2.5),
        ("2", "cone_degree", True),
        # integer keys in another form, or repeated once parsed
        ("1", "link_eub", {"0_0": [["1"]]}),
        ("1", "link_eub", {"+0": [["1"]]}),
        ("1", "link_eub", {"0": [["1"]], " 0": [["1"]]}),
        # well-formed grids of the wrong shape for link_quotient_ih [1, 0, 1]
        ("1", "link_eub", {"0": []}),
        ("1", "link_eub", {"0": [["1", "2"]]}),
    ])
    def test_malformed_cone_metadata_exits_2(self, capsys, tmp_path, apex, field, value):
        data = model_to_dict(cone2())
        data["metadata"]["cone"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "localize", str(path), "-p", "apex=" + apex,
                             "--cone-check")
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("link_eub, detail", [
        ({"0": "1"}, "cone link_eub 0 must be a JSON array, not '1'"),
        ({"0": [["1"], "1"]}, "cone link_eub 0 must be a JSON array, not '1'"),
        ({"0": [["1"], ["1", "2"]]}, "matrix shape mismatch in cone link_eub 0 (want 2x1)"),
        ({"0": []}, "cone link_eub 0 is 0x0, and link_quotient_ih wants 1x1"),
        ({"0": [["1", "2"]]}, "cone link_eub 0 is 1x2, and link_quotient_ih wants 1x1"),
    ])
    def test_malformed_link_eub_names_its_degree(self, capsys, tmp_path, link_eub, detail):
        data = model_to_dict(cone2())
        data["metadata"]["cone"]["link_eub"] = link_eub
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "localize", str(path), "-p", "apex=1", "--cone-check")
        assert code == 2 and not out
        assert json.loads(err)["detail"] == detail

    @pytest.mark.parametrize("with_key, key", [
        (validate_with_product_key, "0, 2"), (compare_with_iso_key, " 2"),
    ])
    def test_repeated_integer_key_exits_2(self, capsys, tmp_path, with_key, key):
        code, out, err = with_key(capsys, tmp_path, key)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("with_key, key", [
        (validate_with_product_key, "+0,2"), (validate_with_product_key, "0,2,0"),
        (compare_with_iso_key, "1_0"), (compare_with_iso_key, "+2"),
    ])
    def test_integer_key_in_another_form_exits_2(self, capsys, tmp_path, with_key, key):
        code, out, err = with_key(capsys, tmp_path, key)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("anchor, member", [
        ('"product": {', '"0,2": [["2"]], '),
        ('"perversities": [{', '"apex": 7, '),
        ('"filtrations": {"apex": {', '"1": [[], [], []], '),
    ])
    def test_repeated_literal_key_exits_2(self, capsys, tmp_path, anchor, member):
        # plain json would keep the second value and drop the first
        text = json.dumps(model_to_dict(cone2()))
        assert anchor in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(anchor, anchor + member, 1))
        code, out, err = run(capsys, "validate", str(path), "--strict")
        assert code == 2 and not out
        error = json.loads(err)
        assert error["error"] == "InputError" and "repeated key" in error["detail"]

    def test_repeated_literal_iso_degree_exits_2(self, capsys, tmp_path, hopf_file):
        iso = tmp_path / "iso.json"
        iso.write_text('{"mats": {"2": [["5"]], "0": [["1"]], "1": [], "2": [["1"]]}, '
                       '"strata": {}}')
        code, out, err = run(capsys, "compare", hopf_file, hopf_file, "--iso", str(iso))
        assert code == 2 and not out
        error = json.loads(err)
        assert error["error"] == "InputError" and "repeated key" in error["detail"]

    @pytest.mark.parametrize("key", ["3", "7", "-1"])
    def test_iso_degree_outside_the_model_exits_2(self, capsys, tmp_path, key):
        code, out, err = compare_with_iso_key(capsys, tmp_path, key)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "InvalidIso"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/model.json")
        assert code == 2

    # a document that is not JSON, not UTF-8, nested deeper than the parser
    # recurses, or holding an integer longer than Python converts is
    # malformed input, as a model or an iso, from a file or from stdin
    @pytest.mark.parametrize("content", [b"not json", b'\xff\xfe{"a":1}',
                                         b"[" * 200000 + b"]" * 200000,
                                         b'{"top_degree": 1' + b"0" * 5000 + b"}"],
                             ids=["not-json", "not-utf8", "nested", "long-integer"])
    @pytest.mark.parametrize("role", ["model", "iso"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_unreadable_json_exits_2(self, capsys, monkeypatch, tmp_path, hopf_file,
                                     source, role, content):
        path = "-"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content),
                                                               encoding="utf-8"))
        else:
            path = str(tmp_path / "bad.json")
            pathlib.Path(path).write_bytes(content)
        argv = (["validate", path] if role == "model"
                else ["compare", hopf_file, hopf_file, "--iso", path])
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        error = json.loads(err)
        assert error["error"] == "InputError"
        assert error["detail"].startswith("not valid JSON: ")

    @pytest.mark.parametrize("role", ["model", "iso"])
    def test_dash_reads_stdin(self, capsys, monkeypatch, hopf_file, role):
        if role == "model":
            argv, doc = ["validate", "-"], pathlib.Path(hopf_file).read_text()
        else:
            argv = ["compare", hopf_file, hopf_file, "--iso", "-"]
            doc = json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]]}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["passed" if role == "model" else "related"]

    # compare reads each of its three documents once, so stdin can stand
    # for at most one of them
    @pytest.mark.parametrize("args", [("-", "-", "iso"), ("-", "model", "-"),
                                      ("model", "-", "-"), ("-", "-", "-")])
    def test_stdin_given_twice_exits_2(self, capsys, monkeypatch, tmp_path, hopf_file, args):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]]}}))
        named = {"-": "-", "model": hopf_file, "iso": str(iso)}
        file1, file2, iso_arg = (named[a] for a in args)
        monkeypatch.setattr(sys, "stdin", io.StringIO(pathlib.Path(hopf_file).read_text()))
        code, out, err = run(capsys, "compare", file1, file2, "--iso", iso_arg)
        assert code == 2 and not out
        error = json.loads(err)
        assert error["error"] == "InputError" and "more than once" in error["detail"]


def top_level_keys(text):
    """The keys of a report's top level, from its JSON or its human text,
    where each top-level key starts a line that has no indent."""
    if text.startswith("{"):
        return list(json.loads(text))
    return [line.split(":")[0] for line in text.splitlines() if line and line[0] != " "]


class TestDispatch:
    """main loads the model and parses -p for every command that takes
    them, and writes schema, command, then model and perversity where they
    apply, before the body."""

    def argvs(self, tmp_path, cone_file, hopf_file):
        """command -> (its arguments, the report fields after schema and
        command that it must start with)."""
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"mats": {"0": [["1"]], "1": [], "2": [["1"]]}}))
        perv = ["-p", "apex=2"]
        model = {"model": "cone2"}
        both = {"model": "cone2", "perversity": "apex=2"}
        return {
            "validate": ([cone_file], model),
            "cohomology": ([cone_file, *perv], both),
            "gysin": ([cone_file, *perv], both),
            "equivariant": ([cone_file, *perv], both),
            "spectral": ([cone_file, *perv], both),
            "skjelbred": ([cone_file], model),
            "localize": ([cone_file, *perv], both),
            "compare": ([hopf_file, hopf_file, "--iso", str(iso)], {"models": ["hopf", "hopf"]}),
            "fixture": (["cone2", "-o", str(tmp_path / "out.json")], model),
            "selftest": (["--seeds", "0"], {"seeds": 0}),
        }

    def test_every_command_writes_its_header_first(self, capsys, tmp_path, cone_file,
                                                   hopf_file):
        argvs = self.argvs(tmp_path, cone_file, hopf_file)
        _, commands = cli._build_parser()
        assert set(argvs) == set(commands)
        for command, (rest, head) in argvs.items():
            want = {"schema": "eqih-report/1", "command": command, **head}
            for human in ([], ["--human"]):
                code, out, _ = run(capsys, command, *rest, *human)
                assert code == 0, command
                assert top_level_keys(out)[:len(want)] == list(want), (command, human)
                if not human:
                    assert {key: json.loads(out)[key] for key in want} == want, command

    def test_refused_argv_reads_as_under_the_full_parser(self, capsys, cone_file, tmp_path):
        """main reads argv by the full parser: help exits 0 and every other
        argv here exits 2, each having written its help, usage or error."""
        argvs = [[], ["-h"], ["nosuch", cone_file], ["--human", "validate", cone_file],
                 ["cohomology", "-h"], ["cohomology"],
                 ["cohomology", str(tmp_path / "missing.json")],
                 ["equivariant", cone_file, "--nu", "x"], ["cohomology", cone_file, "extra"],
                 ["cohomology", cone_file, "--bogus"], ["validate", "--strict=1", cone_file]]
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out = capsys.readouterr()
            assert code == (0 if "-h" in argv else 2), argv
            assert out.out or out.err, argv


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, cone_file):
        _, out1, _ = run(capsys, "spectral", cone_file, "-p", "apex=1")
        _, out2, _ = run(capsys, "spectral", cone_file, "-p", "apex=1")
        assert out1 == out2


class TestSelftest:
    def test_small_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seeds", "2")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert report["checks"]["models"] == 12
