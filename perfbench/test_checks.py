"""The benchmark's checks accept eqih's reports and reject a report with one
corrupted entry, so no check passes vacuously.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from eqih import cli, fixtures  # noqa: E402
from eqih.model import model_to_dict, save_model  # noqa: E402


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def cone2(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "cone2.json"
    m = fixtures.cone2()
    save_model(m, str(path))
    return str(path), model_to_dict(m)


def reports_for(path, perv):
    return {cmd: report([cmd, path, "-p", perv] + (["--cone-check"] if cmd == "localize" else []))
            for cmd in ("cohomology", "gysin", "equivariant", "localize")}


def test_spectral_page3_cell_corrupted(cone2):
    path, doc = cone2
    perv = "apex=2"
    spec = report(["spectral", path, "-p", perv, "--d3-check"])
    cogysin = report(["gysin", path, "-p", perv])["cogysin_dims"]
    eq_dims = report(["equivariant", path, "-p", perv])["dims"]
    ih = checks.base_cohomology(doc, checks.perversity_dict(perv))
    assert checks.spectral_failures(spec, ih, cogysin, eq_dims, "cone2") == []

    bad = copy.deepcopy(spec)
    page3 = next(pg for pg in bad["pages"] if pg["r"] == 3)
    page3["cells"]["0,0"] = page3["cells"].get("0,0", 0) + 1
    assert any("E3 cell (0,0)" in f
               for f in checks.spectral_failures(bad, ih, cogysin, eq_dims, "cone2"))


def test_les_map_entry_corrupted(cone2):
    path, _ = cone2
    seq = report(["gysin", path, "-p", "apex=2"])["gysin_les"]
    assert checks.les_failures(seq, "gysin") == []
    bad = copy.deepcopy(seq)
    i, row, col = next((i, r, c) for i, m in enumerate(bad["maps"])
                       for r, entries in enumerate(m) for c, x in enumerate(entries)
                       if x != "0")
    bad["maps"][i][row][col] = "0"
    assert checks.les_failures(bad, "gysin") != []


def test_localized_rank_corrupted(cone2):
    path, doc = cone2
    reps = reports_for(path, "apex=2")
    assert checks.reports_failures(doc, "apex=2", reps, [1, 0], "cone2") == []
    bad = copy.deepcopy(reps)
    bad["localize"]["ranks"]["odd"] += 1
    failures = checks.reports_failures(doc, "apex=2", bad, [1, 0], "cone2")
    assert any("Euler characteristic" in f for f in failures)
    assert any("hand-computed" in f for f in failures)


def test_base_dims_corrupted(cone2):
    path, doc = cone2
    reps = reports_for(path, "apex=0")
    assert checks.reports_failures(doc, "apex=0", reps, [1, 0], "cone2") == []
    reps["cohomology"]["base_dims"][0] += 1
    assert any("base_dims" in f
               for f in checks.reports_failures(doc, "apex=0", reps, [1, 0], "cone2"))


def test_roundtrip_byte_corrupted(cone2):
    path, _ = cone2
    original = Path(path).read_text()
    saved = io.StringIO()
    save_model(fixtures.cone2(), saved)
    assert checks.roundtrip_failures(original, saved.getvalue(), "cone2") == []
    flipped = original[:10] + chr(ord(original[10]) ^ 1) + original[11:]
    assert checks.roundtrip_failures(original, flipped, "cone2") == [
        "cone2: saved document differs from the loaded one at byte 10"]


def test_compare_witness_corrupted(tmp_path):
    m = fixtures.cone2()
    doc1 = model_to_dict(m)
    doc2 = copy.deepcopy(doc1)
    doc2["euler_cocycle"] = ["2"]
    iso = {"mats": {"0": [["1"]], "1": [], "2": [["1/2"]]}, "strata": {"apex": "apex"}}
    paths = []
    for name, d in (("a", doc1), ("b", doc2), ("iso", iso)):
        paths.append(tmp_path / ("%s.json" % name))
        paths[-1].write_text(json.dumps(d))
    rep = report(["compare", str(paths[0]), str(paths[1]), "--iso", str(paths[2])])
    assert checks.compare_failures(rep, doc1, doc2, iso, True, "cone2") == []
    assert checks.compare_failures(rep, doc1, doc2, iso, False, "cone2") != []
    doc2["euler_cocycle"] = ["4"]
    assert checks.compare_failures(rep, doc1, doc2, iso, True, "cone2") != []
