"""The form of a matrix entry, across the engine.

An integral entry is a Python int and any other entry a ``ratla.QNUM``, on
either backend; no entry is a float, a bool or a string.  Every matrix that
one ``selftest`` and one ``compare`` build is checked for that.  Then every
report and saved document in ``report_digests.json``, the four fixtures'
among them, is made again in a subprocess with ``StandIn``, a minimal
rational that is not a ``Fraction``, in place of ``QNUM``: the same bytes
show that no module outside ``ratla`` reaches for ``Fraction`` or for a
``QNUM`` attribute beyond the ones ``StandIn`` has.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from eqih import ratla
from eqih.cli import main
from eqih.fixtures import cone2
from eqih.model import save_model

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_selftest_and_compare_build_only_int_and_qnum_entries(tmp_path, monkeypatch):
    seen = {}
    of, init = ratla.Matrix._of.__func__, ratla.Matrix.__init__

    def note(m):
        for row in m.entries:
            for x in row:
                seen[type(x)] = seen.get(type(x), 0) + 1

    def checked_of(cls, rows, cols, entries):
        m = of(cls, rows, cols, entries)
        note(m)
        return m

    def checked_init(self, rows, cols, entries):
        init(self, rows, cols, entries)
        note(self)

    path, iso = tmp_path / "cone2.json", tmp_path / "iso.json"
    save_model(cone2(), str(path))
    dims = cone2().ambient.dims
    iso.write_text(json.dumps({
        "mats": {str(k): [[str(int(i == j)) for j in range(n)] for i in range(n)]
                 for k, n in enumerate(dims)},
        "strata": {s.name: s.name for s in cone2().strata}}))
    monkeypatch.setattr(ratla.Matrix, "_of", classmethod(checked_of))
    monkeypatch.setattr(ratla.Matrix, "__init__", checked_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["selftest", "--seeds", "2"]) == 0
        assert main(["compare", str(path), str(path), "--iso", str(iso)]) == 0
    assert set(seen) == {int, ratla.QNUM}, seen


def test_the_backend_is_mpq_when_gmpy2_is_installed():
    gmpy2 = pytest.importorskip("gmpy2", reason="gmpy2 is absent: the mpq backend is not run")
    assert ratla.QNUM is gmpy2.mpq
    assert type(ratla.rat("1/2")) is gmpy2.mpq and type(ratla.rat("4/2")) is int


class StandIn:
    """A minimal exact rational that is not a ``Fraction``: an int numerator
    and a positive int denominator in lowest terms, arithmetic with ints
    and with itself, a hash equal to that of an equal int, and ``str`` as
    'p/q'."""

    __slots__ = ("numerator", "denominator")
    made = 0

    def __init__(self, n, d=1):
        n, d = n.numerator * d.denominator, n.denominator * d.numerator
        if not d:
            raise ZeroDivisionError("StandIn(%d, 0)" % n)
        if d < 0:
            n, d = -n, -d
        g = math.gcd(n, d)
        self.numerator, self.denominator = n // g, d // g
        StandIn.made += 1

    def __add__(self, other):
        if not isinstance(other, (int, StandIn)):
            return NotImplemented
        return StandIn(self.numerator * other.denominator + other.numerator * self.denominator,
                       self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return StandIn(-self.numerator, self.denominator)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, (int, StandIn)):
            return NotImplemented
        return StandIn(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (int, StandIn)):
            return NotImplemented
        return (self.numerator, self.denominator) == (other.numerator, other.denominator)

    def __hash__(self):
        if self.denominator == 1:
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def __bool__(self):
        return self.numerator != 0

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return "%d/%d" % (self.numerator, self.denominator)

    def __repr__(self):
        return "StandIn(%d, %d)" % (self.numerator, self.denominator)


# run with tests/ and src/ on the path: QNUM is replaced before any other
# engine module is imported, then every command and saved document of the
# digest guard is run as the guard runs it
STAND_IN_RUN = """
import json, tempfile
from eqih import ratla
from test_scalars import StandIn
ratla.QNUM = StandIn
import test_report_digests as guard

assert type(ratla.rat("1/2")) is StandIn and type(ratla.rat("4/2")) is int
want = guard._load_digests()
with tempfile.TemporaryDirectory() as tmp:
    paths = guard._write_models(tmp)
    got = {" ".join(a): list(guard._run(a, paths)) for a in guard.commands()}
got.update({key: [guard._saved_model_sha(*args), None]
            for key, args in guard.generated_keys().items()})
bad = [key for key, (sha, code) in got.items()
       if [sha, code] != [want[key]["sha256"], want[key].get("exit")]]
print(json.dumps({"ran": sorted(got), "bad": bad, "made": StandIn.made}))
"""


def test_reports_are_the_same_with_a_stand_in_scalar():
    """The fixtures' reports hold integers only; the random models' reports
    and saved documents hold non-integral values, so StandIn values reach
    the engine's arithmetic and its writer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", STAND_IN_RUN], env=env, cwd=str(TESTS),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(TESTS / "report_digests.json") as fh:
        assert result["ran"] == sorted(json.load(fh))
    assert result["bad"] == [] and result["made"] > 1000
