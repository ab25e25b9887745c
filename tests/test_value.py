"""The value classes compare, hash and refuse assignment the way frozen
dataclasses did: equality over the compared fields of two values of one
class, a hash over the same fields (so a value with a dict or list field
has none), and no field may be set or deleted once built.  A value is
built from one argument per field, and another count is a TypeError."""

import pytest

from eqih import classify, equivariant, fixtures, localize, perverse, spectral
from eqih.errors import InputError
from eqih.homalg import ChainMap, Complex
from eqih.localize import LocalizedModule
from eqih.model import ModelInstance, Perversity, Stratum
from eqih.ratla import Matrix, Subspace, quotient
from eqih.value import Value


def built(m):
    """One value of each class, built from the model m."""
    p = m.zero_perversity()
    pc = perverse.perverse_complex(m, p)
    v = Subspace.from_vectors(3, [[1, 2, 0], [0, 1, 1]])
    return {
        "Matrix": pc.omega_incl.mat(1),
        "Subspace": v,
        "QuotientSpace": quotient(Subspace.full(3), v),
        "Complex": pc.omega,
        "ChainMap": pc.omega_incl,
        "LongExactSequence": spectral.skjelbred(m),
        "Stratum": m.strata[0],
        "Perversity": p,
        "ModelInstance": m,
        "PerverseComplex": pc,
        "Eq1Complex": equivariant.build_eq1(m, p),
        "PolyMatrix": localize.localized_connecting(m, p, 0),
        "LocalizedModule": localize.lambda_u_module(m, p),
        "SpectralPage": spectral.spectral_sequence(m, p).page(2),
        "NormalForm": spectral.spectral_sequence(m, p).normal_form(2),
        "ModelIso": classify.identity_iso(m),
    }


HASHABLE = {"Matrix", "Subspace", "QuotientSpace", "Complex", "ChainMap", "Stratum",
            "Perversity", "PolyMatrix", "LocalizedModule"}
CLASSES = sorted(HASHABLE | {"LongExactSequence", "ModelInstance",
                             "PerverseComplex", "Eq1Complex", "SpectralPage", "NormalForm",
                             "ModelIso"})


@pytest.fixture(scope="module")
def values():
    """The values of two separately built cone2 models, class by class."""
    pair = built(fixtures.cone2()), built(fixtures.cone2())
    assert sorted(pair[0]) == CLASSES
    return pair


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_values_compare_and_hash_equal(values, cls):
    a, b = values[0][cls], values[1][cls]
    assert type(a).__name__ == cls
    assert a == b and not a != b
    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CLASSES)
def test_a_field_cannot_be_set_or_deleted(values, cls):
    value = values[0][cls]
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_a_field_that_differs_or_another_class_is_unequal():
    assert Stratum("s", "mobile") != Stratum("s", "fixed_perverse")
    assert Stratum("s", "mobile") != Stratum("t", "mobile")
    assert Subspace.zero(2) != Subspace.full(2)
    c = Complex.zero()
    assert c != ChainMap(c, c, {}) and c != (0, 0, (0,), (Matrix.zero(0, 0),))
    assert Matrix.zero(1, 2) != Matrix.zero(2, 1) and Matrix.zero(0, 0) != ((),)


def test_model_equality_ignores_metadata_and_the_memo():
    m = fixtures.cone2()
    perverse.perverse_complex(m, m.zero_perversity())
    data = (m.top_degree, m.dims, m.d, m.filtrations, m.euler_cocycle, m.euler_op, m.product,
            m.strata, m.perversity_set)
    other = ModelInstance(m.name, *data, {"note": 1})
    assert m._cache and not other._cache and m.metadata != other.metadata
    assert m == other
    assert m != ModelInstance("other", *data)
    # each model gets its own metadata and memo when none is given
    bare = ModelInstance(m.name, *data)
    assert bare.metadata == {} and bare.metadata is not other.metadata
    assert bare._cache == {} and bare._cache is not other._cache
    assert "_cache" not in repr(bare) and "metadata={}" in repr(bare)


def test_chain_map_equality_ignores_the_maps():
    c = Complex(0, 0, [1], [Matrix.zero(0, 1)])
    f = ChainMap(c, c, {0: Matrix.identity(1)})
    g = ChainMap(c, c, {0: Matrix.zero(1, 1)})
    assert f == g and hash(f) == hash(g)
    assert f != ChainMap(c, Complex.zero(), {0: Matrix.identity(1)})


def test_memo_is_kept_and_not_compared():
    c = Complex(0, 1, [1, 1], [Matrix.identity(1), Matrix.zero(0, 1)])
    fresh = Complex(0, 1, [1, 1], [Matrix.identity(1), Matrix.zero(0, 1)])
    assert c.cohomology is c.cohomology
    assert c == fresh and hash(c) == hash(fresh)
    with pytest.raises(AttributeError):
        c.cohomology = None


def test_defaults_and_repr():
    iso = classify.ModelIso()
    assert iso.mats == {} and iso.strata == {} and iso.mats is not classify.ModelIso().mats
    assert repr(Stratum("s", "mobile")) == "Stratum(name='s', kind='mobile')"
    assert repr(Perversity({"b": 0, "a": 1})) == "Perversity(items=(('a', 1), ('b', 0)))"


def test_a_wrong_number_of_fields_is_refused():
    with pytest.raises(TypeError, match=r"^LocalizedModule takes 2 fields "
                                        r"\(even_rank, odd_rank\), not 1$"):
        LocalizedModule(1)
    with pytest.raises(TypeError, match="^Subspace takes 2 fields"):
        Subspace(2, Matrix.zero(2, 0), None)


def test_a_complex_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="^degree range does not match data length$"):
        Complex(0, 1, [1], [Matrix.zero(0, 1)])
    with pytest.raises(ValueError, match="^differential shape mismatch in degree 1$"):
        Complex(1, 2, [1, 2], [Matrix.zero(1, 1), Matrix.zero(0, 2)])
    with pytest.raises(ValueError, match="^differential shape mismatch in degree 2$"):
        Complex(1, 2, [1, 1], [Matrix.identity(1), Matrix.zero(1, 1)])


def test_unknown_stratum_kind_is_refused():
    with pytest.raises(InputError, match="^unknown stratum kind 'bogus'$"):
        Stratum("s", "bogus")


def test_only_a_class_that_checks_or_defaults_defines_a_constructor():
    """Every other value class is built by Value.__init__ alone."""
    own = {cls.__name__ for cls in Value.__subclasses__() if "__init__" in vars(cls)}
    assert own == {"Matrix", "Complex", "Stratum", "Perversity", "ModelInstance", "ModelIso"}
