"""Each report command builds every cohomology, every level space, every
connecting map and every spectral cell denominator once, and checks every
complex and every chain map at most once.

The commands run through ``cli.main`` on the four fixtures, at every
perversity, and ``skjelbred`` once per fixture.  ``Cohomology.__init__`` is wrapped to record the complex it
builds, ``SesData._connect`` to record the (sequence, degree) pairs whose
connecting map it computes, ``Complex.check_square`` and ``ChainMap.check``
to record the objects they check, and ``ModelInstance.filtration_level`` to
record the (perversity, degree) levels it computes: a call that reaches the
model's ``intersect`` computes its level, a call that does not read a
cached one.  The spectral
module's ``quotient`` is counted, and ``SpectralSequence._span`` records
the spans of chosen chains it returns: every cell denominator is such a
span, and no span is built outside a ``z`` or ``cell`` call, so an E_3 map
builds no denominator of its own.

The page engine builds each span of chosen chains and each quotient once,
and a Z_r or a cell differs from its page r - 1 object exactly where a
count changes: ``SpectralSequence._span`` is wrapped to record the choice
of every span it eliminates, ``quotient`` is counted, and the objects
``SpectralSequence.z`` and ``.cell`` return are compared page to page
against counts read from the normal form.

A map on cohomology is computed on a whole basis at once: with
``Matrix.rref`` counted, a connecting map takes two eliminations and the
Euler map at most three per degree, however many classes they carry.
Whole commands are held to their counted eliminations and products too,
which are the same on every machine.  A filtration level that repeats in a
model document loads as one space, canonicalized once, and a saved
document, whose levels list reduced row echelon bases, loads with no
elimination at all, and its strict validation takes none either.  ``eqih
compare`` validates its isomorphism once and solves for its witness once.
A third-page identification is built once per fold key of its window,
and so is each block of ``skjelbred``'s delta maps.

Every per-model builder is made by ``model.per_model``: a second call
returns the object of the first, held under the builder's kind, or the
kind and the arguments, and a selftest caches under exactly those kinds.
"""

import collections
import contextlib
import importlib
import inspect
import io
import json

import pytest

from eqih import classify, equivariant, fixtures, homalg, model, perverse, ratla, spectral
from eqih.cli import main
from eqih.errors import InputError
from eqih.model import save_model

FIXTURES = ("hopf", "rot", "cone2", "noperv")


def commands(tmp_path):
    out = []
    for name in FIXTURES:
        m = fixtures.make(name)
        path = str(tmp_path / (name + ".json"))
        save_model(m, path)
        for p in m.perversity_set:
            perv = ["-p", p.label()] if p.items else []
            out += [[command, path] + perv
                    for command in ("cohomology", "gysin", "equivariant", "localize")]
            out.append(["spectral", path] + perv + ["--d3-check"])
        out.append(["skjelbred", path])
    return out


@pytest.fixture()
def builds(monkeypatch):
    """Per command: the complexes whose cohomology was built, the (sequence,
    degree) pairs whose connecting map was computed and the complexes and
    chain maps checked (all held, so no id is reused), the count of computations per (perversity,
    degree), the spectral quotients with their denominators, the spans of
    chosen chains (all held) and the spans built outside a z or cell call."""
    record = {"complexes": [], "connecting": [], "checked": [], "levels": collections.Counter(),
              "intersects": 0, "denominators": [], "spans": [], "stray_spans": 0}
    depth = [0]

    cohomology_init = homalg.Cohomology.__init__

    def recording_init(self, c):
        record["complexes"].append(c)
        cohomology_init(self, c)

    connect = homalg.SesData._connect

    def recording_connect(self, k):
        record["connecting"].append((self, k))
        return connect(self, k)

    check_square = homalg.Complex.check_square
    check = homalg.ChainMap.check

    def recording_check_square(self):
        record["checked"].append(self)
        return check_square(self)

    def recording_check(self, *args, **kwargs):
        record["checked"].append(self)
        return check(self, *args, **kwargs)

    level = model.ModelInstance.filtration_level
    intersect = model.intersect

    def counting_intersect(a, b):
        record["intersects"] += 1
        return intersect(a, b)

    def recording_level(self, p, degree):
        before = record["intersects"]
        space = level(self, p, degree)
        if record["intersects"] > before:
            record["levels"][(p, degree)] += 1
        return space

    quotient = spectral.quotient
    span = spectral.SpectralSequence._span

    def recording_quotient(v, w):
        record["denominators"].append(w)
        return quotient(v, w)

    def recording_span(self, *choice):
        record["stray_spans"] += not depth[0]
        out = span(self, *choice)
        record["spans"].append(out)
        return out

    def nesting(method):
        def wrapper(self, r, i, j):
            depth[0] += 1
            try:
                return method(self, r, i, j)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(homalg.Cohomology, "__init__", recording_init)
    monkeypatch.setattr(homalg.SesData, "_connect", recording_connect)
    monkeypatch.setattr(homalg.Complex, "check_square", recording_check_square)
    monkeypatch.setattr(homalg.ChainMap, "check", recording_check)
    monkeypatch.setattr(model, "intersect", counting_intersect)
    monkeypatch.setattr(model.ModelInstance, "filtration_level", recording_level)
    monkeypatch.setattr(spectral, "quotient", recording_quotient)
    monkeypatch.setattr(spectral.SpectralSequence, "_span", recording_span)
    for name in ("z", "cell"):
        monkeypatch.setattr(spectral.SpectralSequence, name,
                            nesting(getattr(spectral.SpectralSequence, name)))
    return record


def test_every_object_is_built_once(tmp_path, builds):
    for argv in commands(tmp_path):
        builds["complexes"].clear()
        builds["connecting"].clear()
        builds["checked"].clear()
        builds["levels"].clear()
        builds["denominators"].clear()
        builds["spans"].clear()
        builds["stray_spans"] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        per_complex = collections.Counter(id(c) for c in builds["complexes"])
        assert max(per_complex.values(), default=0) == 1, argv
        per_map = collections.Counter((id(ses), k) for ses, k in builds["connecting"])
        assert all(n == 1 for n in per_map.values()), argv
        per_object = collections.Counter(id(x) for x in builds["checked"])
        assert max(per_object.values(), default=0) == 1, argv
        twice = [key for key, n in builds["levels"].items() if n > 1]
        assert not twice, (argv, twice)
        # every cell denominator is a span of chosen chains, and no span is
        # built outside the page engine's z and cell, so none for the E_3 maps
        spans = {id(space) for space in builds["spans"]}
        assert all(id(w) in spans for w in builds["denominators"]), argv
        assert builds["stray_spans"] == 0, argv


def test_skjelbred_checks_exactness_once(tmp_path, monkeypatch):
    """``eqih skjelbred`` reports the exactness rows the engine computed."""
    calls = []
    check_exact = homalg.check_exact

    def counting_check_exact(seq):
        calls.append(seq)
        return check_exact(seq)

    monkeypatch.setattr(homalg, "check_exact", counting_check_exact)
    for name in FIXTURES:
        path = str(tmp_path / (name + ".json"))
        save_model(fixtures.make(name), path)
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["skjelbred", path]) == 0
        assert len(calls) == 1, name


def test_exactness_takes_each_map_once(monkeypatch):
    """The cone2 equivariant Gysin sequence reads its folded degrees at
    their fold, so its nodes share map objects: checking its exactness takes
    one image per distinct incoming map and one kernel per distinct
    outgoing map."""
    m = fixtures.cone2()
    p = next(p for p in m.perversity_set if p.label() == "apex=2")
    seq, _ = equivariant.equivariant_gysin_les(m, p)
    taken = {"image": [], "kernel": []}

    def recording(name, fn):
        def wrapper(mat):
            taken[name].append(mat)
            return fn(mat)
        return wrapper

    for name in taken:
        monkeypatch.setattr(homalg, name, recording(name, getattr(homalg, name)))
    assert seq.exact
    incoming, outgoing = seq.maps[:-1], seq.maps[1:]
    assert len({id(f) for f in seq.maps}) < len(seq.maps)
    assert sorted(map(id, taken["image"])) == sorted({id(f) for f in incoming})
    assert sorted(map(id, taken["kernel"])) == sorted({id(f) for f in outgoing})


def test_gysin_sequence_starts_at_the_perverse_complex():
    """The Gysin sequence's first term is Omega_p itself, so the cohomology
    its sequence reads is the one ``omega_cohomology`` built, not a copy."""
    for name in FIXTURES:
        m = fixtures.make(name)
        for p in m.perversity_set:
            equivariant.gysin_les(m, p)
            ses = homalg.SesData(*equivariant.gysin_maps(m, p))
            assert ses.ha is perverse.omega_cohomology(m, p), (name, p)


@pytest.fixture()
def calls(monkeypatch):
    """count(owner, *names): from then on, the calls of each named attribute
    of owner, a class or a module, counted under its name in one Counter,
    which count returns."""
    counter = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count(owner, *names):
        for name in names:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return counter

    return count


# Matrix.rref calls per command: kernel, preimage and quotient take one
# elimination each, none where a zero or empty operand fixes the answer,
# and so does a preimage within a subspace; an exactness check takes one
# image and one kernel per distinct map of its sequence; a span whose rows
# already are a reduced row echelon basis takes none, so a saved document
# loads with none; the pair-space product F_p^k x Omega^{k-1} is two
# canonical bases side by side, so it takes none; a cohomology degree that
# nothing reads, and a third-page cell whose fold key is already
# identified, take none
ELIMINATIONS = {
    ("cohomology", "cone2", "apex=2"): 1,
    ("gysin", "cone2", "apex=2"): 9,
    ("equivariant", "cone2", "apex=2"): 27,
    ("localize", "cone2", "apex=2"): 4,
    ("spectral", "hopf", None): 28,
    ("spectral", "cone2", "apex=2"): 39,
}

# Matrix.__mul__ calls per command: a degree whose operand is empty takes
# no product, nor does a d_r o d_r check or a spectral normal form with an
# empty factor; a normal form solves for D in its target basis, one product
# before its solve; the d_3 check builds each composite once per degree, and
# skjelbred each map of a degree once and each block of its delta maps once
# per fold key
PRODUCTS = {
    ("cohomology", "cone2", "apex=2"): 23,
    ("gysin", "cone2", "apex=2"): 61,
    ("equivariant", "cone2", "apex=2"): 121,
    ("localize", "cone2", "apex=2"): 45,
    ("spectral", "hopf", None): 97,
    ("spectral", "cone2", "apex=2"): 101,
    ("skjelbred", "cone2", None): 98,
}


def run_counted(tmp_path, counter, command, name, perversity):
    """counter after one command on a fixture; spectral runs --d3-check."""
    path = str(tmp_path / (name + ".json"))
    save_model(fixtures.make(name), path)
    argv = [command, path] + (["-p", perversity] if perversity else [])
    if command == "spectral":
        argv.append("--d3-check")
    counter.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return counter


@pytest.mark.parametrize("command, name, perversity", ELIMINATIONS)
def test_commands_take_their_counted_eliminations(tmp_path, calls, command, name, perversity):
    counted = run_counted(tmp_path, calls(ratla.Matrix, "rref"), command, name, perversity)
    assert counted["rref"] == ELIMINATIONS[(command, name, perversity)]


@pytest.mark.parametrize("command, name, perversity", PRODUCTS)
def test_commands_take_their_counted_products(tmp_path, calls, command, name, perversity):
    counted = run_counted(tmp_path, calls(ratla.Matrix, "__mul__"), command, name, perversity)
    assert counted["__mul__"] == PRODUCTS[(command, name, perversity)]


def test_each_fold_key_is_identified_once(tmp_path, calls):
    """``spectral --d3-check`` on cone2 builds one E_3 identification per
    distinct fold key (i, fold(i + 2j), j == 0) of its window, so its
    component reads are those of identifying each key once, fewer than one
    identification per cell would make."""
    m, label = fixtures.cone2(), "apex=2"
    p = next(p for p in m.perversity_set if p.label() == label)
    cells = spectral.e3_isomorphisms(m, p)
    ss, pc = spectral.spectral_sequence(m, p), perverse.perverse_complex(m, p)
    targets = (perverse.cogysin_cohomology(m, p), perverse.omega_cohomology(m, p))
    first = {}
    for i, j in cells:
        first.setdefault((i, ss.eq.ext.fold(i + 2 * j), j == 0), (i, j))
    counted = calls(spectral, "_component_pairs", "_e3_identification")
    per_cell = 0
    for i, j in cells:
        spectral._e3_identification(ss, pc, targets[j == 0], i, j)
        per_cell += counted.pop("_component_pairs", 0)
    for i, j in first.values():
        spectral._e3_identification(ss, pc, targets[j == 0], i, j)
    per_key = counted.pop("_component_pairs", 0)
    counted = run_counted(tmp_path, counted, "spectral", "cone2", label)
    assert counted["_e3_identification"] == len(first) < len(cells)
    assert counted["_component_pairs"] == per_key < per_cell


def test_each_identification_is_inverted_once(monkeypatch):
    """``d3_check`` inverts each distinct E_3 identification once: on noperv
    at apex=0 its three checked cells map out of two identifications of two
    fold keys, and both are the matrix [[1]]."""
    m = fixtures.noperv()
    p = next(p for p in m.perversity_set if p.label() == "apex=0")
    inverted = []

    def inverse(phi):
        inverted.append(phi)
        return ratla.inverse(phi)

    monkeypatch.setattr(spectral, "inverse", inverse)
    assert spectral.d3_check(m, p)["all_equal"]
    assert len(inverted) == len(set(inverted)) == 1


@pytest.mark.parametrize("name", FIXTURES)
def test_skjelbred_reads_each_folded_block_once(tmp_path, calls, name):
    """``skjelbred`` reads the u-power components behind a block of its
    delta maps once per (fold(i), k), the folded degree and the base degree
    of the block: 6 reads for the 9 blocks of each fixture's window."""
    m = fixtures.make(name)
    eq = equivariant.build_equivariant(m, m.zero_perversity())
    blocks = [(i, i - 2 * s) for i in range(eq.n_u - 1) for s in range(1, i // 2 + 1)]
    keys = {(eq.ext.fold(i), k) for i, k in blocks}
    counted = run_counted(tmp_path, calls(spectral, "_component_pairs"), "skjelbred", name, None)
    assert counted["_component_pairs"] == len(keys) == 6 and len(blocks) == 9


def test_equal_levels_load_as_one_space(tmp_path):
    """cone2's levels 0 and 1 are equal, so they load as one Subspace per
    degree, and the model saves to the bytes it was loaded from."""
    path = tmp_path / "cone2.json"
    save_model(fixtures.cone2(), str(path))
    loaded = model.load_model(str(path))
    levels = loaded.filtrations["apex"]
    assert all(a is b for a, b in zip(levels[0], levels[1]))
    out = io.StringIO()
    save_model(loaded, out)
    assert out.getvalue() == path.read_text()


def test_bad_entry_in_repeated_level_names_its_first_place():
    doc = model.model_to_dict(fixtures.cone2())
    for level in ("0", "1"):
        doc["filtrations"]["apex"][level][0] = [["1/0"]]
    with pytest.raises(InputError, match="filtration apex/0/0"):
        model.model_from_dict(doc)


# every fixture, and random models of three seeds at six sizes
SAVED = [(name, None, None) for name in FIXTURES] + [
    ("random", seed, size) for seed in range(3) for size in (2, 3, 4, 6, 9, 13)]


def saved_text(m):
    out = io.StringIO()
    save_model(m, out)
    return out.getvalue()


@pytest.mark.parametrize("name, seed, size", SAVED)
def test_saved_documents_load_without_elimination(calls, name, seed, size):
    """A saved level lists the reduced row echelon basis of its space, which
    loads as it is, and each entry is read once into its value: no matrix is
    built through the coercing ``Matrix.__init__``."""
    m = fixtures.make(name, seed, size)
    text = saved_text(m)
    counted = calls(ratla.Matrix, "rref", "__init__")
    counted.clear()
    loaded = model.load_model(io.StringIO(text))
    assert counted["rref"] == 0 and counted["__init__"] == 0
    assert model.model_to_dict(loaded) == model.model_to_dict(m)


# (seed, size, perversity) of a random model: the eliminations of its
# perverse complex once its Omega spaces are built.  The Gysin allowance
# F^{k+2} + d(F^{k+1}) is one span per degree, zero rows cost none, and
# the Gysin term, the allowance's preimage within the lower Omega space,
# takes at most one more per degree
ALLOWANCE = {(0, 6, "s0=0"): 1, (10, 6, "()"): 2, (13, 6, "s0=1,s1=2"): 3}


@pytest.mark.parametrize("seed, size, label", ALLOWANCE)
def test_the_gysin_allowance_is_one_span(calls, seed, size, label):
    m = fixtures.random_model(seed, size)
    p = next(p for p in m.perversity_set if p.label() == label)
    perverse.ambient_complexes(m)
    for q in (p, p.minus(m.characteristic_perversity())):
        perverse.omega_spaces(m, q)
    rrefs = calls(ratla.Matrix, "rref")
    perverse.perverse_complex(m, p)
    assert rrefs["rref"] == ALLOWANCE[(seed, size, label)]


# every fixture, and random models of three seeds at sizes 2, 3, 6 and 13
STRICT = [(name, None, None) for name in FIXTURES] + [
    ("random", seed, size) for seed in range(3) for size in (2, 3, 6, 13)]


@pytest.mark.parametrize("name, seed, size", STRICT)
def test_strict_validation_takes_no_elimination(tmp_path, calls, name, seed, size):
    """A saved document loads with no elimination, and the strict
    Euler-operator shift, E(F_l) inside F_{l + e}, is read from the
    coordinates of E times each level basis: no image space is built."""
    path = tmp_path / "model.json"
    path.write_text(saved_text(fixtures.make(name, seed, size)))
    rrefs = calls(ratla.Matrix, "rref")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "--strict", str(path)]) == 0
    assert rrefs["rref"] == 0
    checks = json.loads(out.getvalue())["checks"]
    assert any(c["axiom"].startswith("strict: euler") and c["passed"] for c in checks)


def shifted_noperv():
    """noperv with its Euler cocycle moved by an exact admissible form, so
    that relatedness to noperv needs a witness solved for."""
    doc = model.model_to_dict(fixtures.noperv())
    doc["name"] = "noperv-2e"
    doc["euler_cocycle"] = ["2"]
    doc["euler_op"] = [[["2"]], [], []]
    del doc["product"]
    return model.model_from_dict(doc)


@pytest.mark.parametrize("first, second, related", [
    (fixtures.noperv, shifted_noperv, True), (fixtures.hopf, fixtures.rot, False)])
def test_compare_validates_once_and_solves_once(tmp_path, monkeypatch, first, second, related):
    """``eqih compare`` validates its isomorphism once and solves for the
    relatedness witness once (``classify._witness``), though it reports
    optimality, relatedness and, for a related pair, the consequences."""
    m1, m2 = first(), second()
    files = []
    for i, m in enumerate((m1, m2)):
        files.append(str(tmp_path / ("%d.json" % i)))
        save_model(m, files[-1])
    iso = classify.identity_iso(m1)
    iso_path = tmp_path / "iso.json"
    mats = {str(k): model.mat_to_json(f) for k, f in iso.mats.items()}
    iso_path.write_text(json.dumps({"mats": mats, "strata": iso.strata}))
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classify, "validate_iso", counted("validate_iso", classify.validate_iso))
    monkeypatch.setattr(classify, "_witness", counted("witness", classify._witness))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compare", *files, "--iso", str(iso_path)]) == 0
    report = json.loads(out.getvalue())
    assert report["optimal"] and report["related"] == related
    assert ("consequences" in report) == related
    assert calls == {"validate_iso": 1, "witness": 1}


# levels of up to 1, 5 and 8 vectors
@pytest.mark.parametrize("seed, size", [(0, 6), (0, 9), (0, 13)])
def test_a_level_in_another_basis_loads_to_the_same_space(calls, seed, size):
    """Every level, its basis reordered and scaled, loads to the space of
    the saved document, with the same canonical basis."""
    m = fixtures.random_model(seed, size)
    doc = model.model_to_dict(m)
    moved = 0
    for levels in doc["filtrations"].values():
        for per_degree in levels.values():
            for vecs in per_degree:
                if vecs:
                    vecs.reverse()
                    vecs[0] = [str(ratla.rat("-2/3") * ratla.rat(x)) for x in vecs[0]]
                    moved += 1
    assert moved
    rrefs = calls(ratla.Matrix, "rref")
    got = model.model_from_dict(doc)
    assert rrefs["rref"] > 0
    for name, levels in m.filtrations.items():
        for level, spaces in enumerate(levels):
            for a, b in zip(got.filtrations[name][level], spaces):
                assert a == b and a.basis.entries == b.basis.entries
    assert saved_text(got) == saved_text(m)


def test_connecting_map_takes_two_eliminations(calls):
    rrefs = calls(ratla.Matrix, "rref")
    m = fixtures.random_model(2)
    p = m.zero_perversity()
    ses = homalg.SesData(*equivariant.gysin_maps(m, p))
    for k in ses.i.target.degrees():
        rrefs.clear()
        ses.connecting(k)
        assert rrefs["rref"] == (2 if ses.hc.dim(k) else 0), k
    assert max(ses.hc.dims()) >= 2


def test_euler_map_takes_three_eliminations_per_degree(calls):
    m = fixtures.random_model(5)
    p = model.Perversity({"s0": 0})
    eub = perverse.euler_map(m, p)
    rrefs = calls(ratla.Matrix, "rref")
    perverse.EulerMap(m, p)
    degrees = [k for k in eub.pc.ambient.degrees() if eub.hg.dim(k)]
    assert rrefs["rref"] <= 3 * len(degrees)
    # a degree with two classes whose level-killing projection is built
    assert any(eub.hg.dim(k) >= 2 and not m.filtration_level(p, k + 2).is_full()
               for k in degrees)


def z_count(ss, r, i, j):
    """dim Z_r^{i,j} from the normal form of D_{i+j}: the chains of
    filtration >= i that are cycles, or whose target has filtration >= i + r."""
    nf = ss.normal_form(i + j)
    return sum(1 for t, x in zip(nf.tags, nf.reach) if t >= i and (x is None or x >= i + r))


@pytest.fixture()
def page_builds(monkeypatch):
    """Per kind ("cell" or "z"): the (sequence, key, object) of every call
    of SpectralSequence.cell or .z; the (sequence, choice) of every span
    SpectralSequence._span eliminates; and the count of quotients built.
    The sequences and objects are held, so no id is reused."""
    record = {"cell": [], "z": [], "spans": [], "quotients": 0, "eliminations": 0}

    def asking(kind, method):
        def wrapper(self, r, i, j):
            out = method(self, r, i, j)
            record[kind].append((self, self._key(r, i, j), out))
            return out
        return wrapper

    span = spectral.SpectralSequence._span
    image = spectral.image
    quotient = spectral.quotient

    def recording_span(self, *choice):
        before = record["eliminations"]
        out = span(self, *choice)
        if record["eliminations"] > before:
            record["spans"].append((self, choice))
        return out

    def counting_image(m):
        record["eliminations"] += 1
        return image(m)

    def counting_quotient(v, w):
        record["quotients"] += 1
        return quotient(v, w)

    monkeypatch.setattr(spectral, "quotient", counting_quotient)
    monkeypatch.setattr(spectral, "image", counting_image)
    monkeypatch.setattr(spectral.SpectralSequence, "_span", recording_span)
    for kind in ("cell", "z"):
        monkeypatch.setattr(spectral.SpectralSequence, kind,
                            asking(kind, getattr(spectral.SpectralSequence, kind)))
    return record


def test_pages_build_only_where_a_count_changes(page_builds):
    # random-121-3 has a non-zero d_3, so its Z_r counts move on page 3
    models = [fixtures.make(name) for name in FIXTURES]
    for m in models + [fixtures.cone(3), fixtures.random_model(121, size=3)]:
        for p in m.perversity_set:
            spectral.pages(m, p)
    # every span and every quotient is built once
    spans = collections.Counter((id(ss), choice) for ss, choice in page_builds["spans"])
    assert spans and all(n == 1 for n in spans.values())
    assert page_builds["quotients"] == len({id(q) for _, _, q in page_builds["cell"]})
    # a Z_r or a cell is its page r - 1 object exactly where no count changes
    for kind, first in (("cell", 1), ("z", 0)):
        for ss, (r, i, j), out in list(page_builds[kind]):
            same = r > 0 and z_count(ss, r, i, j) == z_count(ss, r - 1, i, j)
            if kind == "cell":
                assert r <= ss.r_infinity and ss.dim(r, i, j), (r, i, j)
                same = same and r > 1 and ss.dim(r, i, j) == ss.dim(r - 1, i, j)
            if r > first:
                assert (getattr(ss, kind)(r - 1, i, j) is out) == same, (kind, r, i, j)


# every per-model builder, by module and name, with its key kind
BUILDERS = {
    ("model", "_space_axioms"): "space_axioms",
    ("model", "ModelInstance.filtration_level"): "flevel",
    ("perverse", "ambient_complexes"): "ambient_complexes",
    ("perverse", "omega_spaces"): "omega",
    ("perverse", "perverse_complex"): "perverse",
    ("perverse", "cogysin_ses"): "cogysin_ses",
    ("perverse", "euler_map"): "eub",
    ("equivariant", "build_eq1"): "eq1",
    ("equivariant", "pair_shift"): "eq1_shift",
    ("equivariant", "gysin_maps"): "gysin_maps",
    ("equivariant", "build_equivariant"): "equivariant",
    ("localize", "lambda_u_module"): "localized",
    ("spectral", "spectral_sequence"): "spectral",
    ("spectral", "e3_isomorphisms"): "e3",
    ("spectral", "fixed_point_preconditions"): "fixed_point_preconditions",
}


def per_model_builders():
    """{(module, name): (builder, kind)} for every function of the engine
    modules, and every method of ModelInstance, that model.per_model made:
    its code is per_model's, and its closure holds the kind."""
    code = model.per_model("probe")(lambda m: m).__code__
    modules = {name: importlib.import_module("eqih." + name)
               for name in ("model", "perverse", "equivariant", "localize", "spectral")}
    candidates = [(modname, name, value) for modname, module in modules.items()
                  for name, value in vars(module).items()
                  if getattr(value, "__module__", None) == module.__name__]
    candidates += [("model", "ModelInstance." + name, value)
                   for name, value in vars(model.ModelInstance).items()]
    return {(modname, name): (value, inspect.getclosurevars(value).nonlocals["kind"])
            for modname, name, value in candidates
            if getattr(value, "__code__", None) is code}


def builder_arguments(m, p, kind):
    """The argument tuples a builder of this kind takes on m at p."""
    if kind == "flevel":
        return [(p, k) for k in range(m.top_degree + 1)]
    if kind in ("space_axioms", "ambient_complexes", "fixed_point_preconditions"):
        return [()]
    return [(p,)]


def test_every_builder_is_decorated_with_its_kind():
    found = per_model_builders()
    assert {key: kind for key, (_, kind) in found.items()} == BUILDERS


@pytest.mark.parametrize("name", FIXTURES)
def test_each_builder_builds_once_under_its_key(name):
    """A second call returns the object of the first, and the model holds
    it under the kind, or the kind and the arguments."""
    m = fixtures.make(name)
    for p in m.perversity_set:
        for (_, builder_name), (builder, kind) in per_model_builders().items():
            for args in builder_arguments(m, p, kind):
                out = builder(m, *args)
                assert builder(m, *args) is out, (builder_name, args)
                key = (kind, *args) if args else kind
                assert m.cached(key, None) is out, (builder_name, key)


def test_a_selftest_creates_every_kind(monkeypatch):
    """One selftest pass caches under exactly the builders' kinds."""
    kinds = collections.Counter()
    cached = model.ModelInstance.cached

    def recording_cached(m, key, thunk):
        kinds[key if isinstance(key, str) else key[0]] += 1
        return cached(m, key, thunk)

    monkeypatch.setattr(model.ModelInstance, "cached", recording_cached)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["selftest", "--seeds", "0"]) == 0
    assert set(kinds) == set(BUILDERS.values())
