"""The contract every immutable value type keeps, pinned once for all 14.

Each case builds one instance by keyword and checks: positional construction
gives an equal object; equality holds only against the same class with the
same compared fields; the hash is the hash of the compared-field tuple; the
exact ``repr``; assignment and deletion raise ``AttributeError``; a pickle
round trip gives an equal object; defaults fill omitted trailing fields; and
omitting the last required argument raises the usual ``TypeError``.  Then
the methods ``Value`` writes for every subclass from its ``__slots__``.
"""

import pickle

import pytest

from valleydyck._value import Value
from valleydyck.bijections import (
    MAPS,
    DecoratedStructure,
    MapSpec,
    PartDecoration,
    TauDecorated,
    TauFactor,
)
from valleydyck.params import A, Q
from valleydyck.paths import Path, Pyramid, ValleyBlock, ValleyStructure
from valleydyck.polynomials import Polynomial
from valleydyck.series import Equation, TruncatedSeries
from valleydyck.verify import CheckResult, VerifyReport
from valleydyck.weights import WeightSpec

ONE = Polynomial.one()

THETA_FIELDS = dict(
    target=("schroder_large", "y_filter"), target_weighting="schroder_q",
    registry="schroder_large_q", formula="schroder_large_diff",
    decoration="schroder_large", decoration_weighting="schroder_q",
    tail=(("H", "H", Q), ("ud", "UD", ONE)), offset=0, core=None,
)

# name -> (class, keyword fields in declaration order, number of required
# fields, compared fields beyond the init fields, repr, an unequal instance)
CASES = {
    "Path": (
        Path, dict(family="dyck", steps="UD"), 1, (),
        "Path(family='dyck', steps='UD')",
        Path("dyck", "UUDD"),
    ),
    "Pyramid": (Pyramid, dict(height=2), 1, (), "Pyramid(height=2)", Pyramid(3)),
    "ValleyBlock": (
        ValleyBlock, dict(ascent=1, heights=(1, 2)), 1, (),
        "ValleyBlock(ascent=1, heights=(1, 2))",
        ValleyBlock(1, (2, 1)),
    ),
    "ValleyStructure": (
        ValleyStructure, dict(parts=(Pyramid(2), ValleyBlock(1, (1, 1)))), 0, (),
        "ValleyStructure(parts=(Pyramid(height=2), ValleyBlock(ascent=1, heights=(1, 1))))",
        ValleyStructure((ValleyBlock(1, (1, 1)), Pyramid(2))),
    ),
    "TruncatedSeries": (
        TruncatedSeries, dict(coeffs=(ONE, A)), 1, (), "TruncatedSeries(order=1, [0: 1 ; 1: a])",
        TruncatedSeries((ONE, Q)),
    ),
    "Equation": (
        Equation, dict(terms=((0, 0, ONE), (2, 1, A))), 1, (),
        "Equation(terms=((0, 0, Polynomial(1)), (2, 1, Polynomial(a))))",
        Equation(((0, 0, ONE), (2, 1, Q))),
    ),
    "WeightSpec": (
        WeightSpec, dict(alpha=(A,), beta=(ONE,), gamma=(Polynomial.zero(),)), 3, (),
        "WeightSpec(alpha=(Polynomial(a),), beta=(Polynomial(1),), gamma=(Polynomial(0),))",
        WeightSpec((A,), (ONE,), (ONE,)),
    ),
    "MapSpec": (
        MapSpec, THETA_FIELDS, 7, (("H", "ud"),),
        "MapSpec(target=('schroder_large', 'y_filter'), target_weighting='schroder_q', "
        "registry='schroder_large_q', formula='schroder_large_diff', "
        "decoration='schroder_large', decoration_weighting='schroder_q', "
        "tail=(('H', 'H', Polynomial(q)), ('ud', 'UD', Polynomial(1))), offset=0, "
        "core=None, symbols=('H', 'ud'))",
        MAPS["sigma"],
    ),
    "PartDecoration": (
        PartDecoration, dict(subpath=Path("schroder_large", "H"), symbols=("H",)), 1, (),
        "PartDecoration(subpath=Path(family='schroder_large', steps='H'), symbols=('H',))",
        PartDecoration(Path("schroder_large", "H"), ("ud",)),
    ),
    "DecoratedStructure": (
        DecoratedStructure,
        dict(map_id="rho", structure=ValleyStructure((Pyramid(2),)),
             decorations=(PartDecoration(Path("dyck", "UD")),)),
        2, (),
        "DecoratedStructure(map_id='rho', structure=ValleyStructure(parts=(Pyramid(height=2),)), "
        "decorations=(PartDecoration(subpath=Path(family='dyck', steps='UD'), symbols=()),))",
        DecoratedStructure("psi", ValleyStructure((Pyramid(2),)),
                           (PartDecoration(Path("dyck", "UD")),)),
    ),
    "TauFactor": (
        TauFactor, dict(ascent=2, heights=(1,), letters=("1h",)), 2, (),
        "TauFactor(ascent=2, heights=(1,), letters=('1h',))",
        TauFactor(2, (1,), ("1",)),
    ),
    "TauDecorated": (
        TauDecorated, dict(side="src_4372", factors=(TauFactor(2, (1,), ("1h",)),)), 1, (),
        "TauDecorated(side='src_4372', factors=(TauFactor(ascent=2, heights=(1,), "
        "letters=('1h',)),))",
        TauDecorated("src_4372", (TauFactor(2, (1,), ("1",)),)),
    ),
    "CheckResult": (
        CheckResult,
        dict(name="tau_exchange", status="pass", detail="", bound=3, compared=12), 2, (),
        "CheckResult(name='tau_exchange', status='pass', detail='', bound=3, compared=12)",
        CheckResult("tau_exchange", "pass", "", 3, 13),
    ),
    "VerifyReport": (
        VerifyReport,
        dict(suite="tau", max_n=3, results=(CheckResult("tau_exchange", "pass", "", 3, 12),)),
        3, (),
        "VerifyReport(suite='tau', max_n=3, results=(CheckResult(name='tau_exchange', "
        "status='pass', detail='', bound=3, compared=12),))",
        VerifyReport("tau", 4, (CheckResult("tau_exchange", "pass", "", 3, 12),)),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    cls, fields, required, derived, text, other = CASES[name]
    obj = cls(**fields)
    assert type(obj) is cls
    for field, value in fields.items():
        assert getattr(obj, field) == value

    # positional construction, equality and the hash of the compared fields
    twin = cls(*fields.values())
    assert twin == obj and not twin != obj
    compared = tuple(fields.values()) + derived
    assert hash(obj) == hash(twin) == hash(compared)
    assert obj != other and type(other) is cls
    assert obj.__eq__(compared) is NotImplemented
    assert obj != compared and obj != object()

    assert repr(obj) == text

    # immutable: no field can be assigned or deleted, and no attribute added
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(other, first))
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == twin and repr(obj) == text

    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and hash(back) == hash(obj)
    assert repr(back) == text

    # omitting the last required argument names it
    names = list(fields)
    if required:
        with pytest.raises(TypeError) as err:
            cls(*list(fields.values())[: required - 1])
        missing = names[required - 1]
        assert str(err.value) == (
            f"{cls.__name__}.__init__() missing 1 required positional argument: '{missing}'"
        )


def test_value_type_defaults():
    sub = Path("dyck", "UD")
    assert Path("dyck").steps == ""
    assert PartDecoration(sub).symbols == ()
    assert ValleyStructure().parts == ()
    assert DecoratedStructure("rho", ValleyStructure()).decorations == ()
    assert TauFactor(1, (2,)).letters == ()
    assert TauDecorated("dst_2174").factors == ()
    assert CheckResult("x", "skip") == CheckResult("x", "skip", "", 0, 0)
    spec = MapSpec(**{k: v for k, v in THETA_FIELDS.items() if k not in ("offset", "core")})
    assert spec == MapSpec(**THETA_FIELDS) and spec.offset == 0 and spec.core is None


def test_map_spec_derives_symbols():
    spec = MapSpec(**THETA_FIELDS)
    assert spec.symbols == ("H", "ud")
    assert pickle.loads(pickle.dumps(spec)).symbols == spec.symbols
    for map_id, spec in MAPS.items():
        assert spec.symbols == tuple(s for s, _, _ in spec.tail if s is not None), map_id
    # the derived field is not an init argument
    with pytest.raises(TypeError):
        MapSpec(**THETA_FIELDS, symbols=("H",))


# -- the methods Value writes from __slots__ -----------------------------------

GENERATED = ("__eq__", "__hash__", "_fill", "_trusted")


class One(Value):
    __slots__ = ("x",)

    def __init__(self, x):
        if x < 0:
            raise ValueError("x must be nonnegative")
        self._fill(x)


class OtherOne(Value):
    __slots__ = ("x",)

    def __init__(self, x):
        self._fill(x)


class Three(Value):
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c=0):
        if a > b:
            raise ValueError("a must not exceed b")
        self._fill(a, b, c)


def test_generated_equality_holds_only_within_the_class():
    assert One(1) == One(1) and not One(1) != One(1)
    assert One(1) != One(2) and Three(1, 2, 3) != Three(1, 2, 4) != Three(0, 2, 4)
    assert Three(1, 2) == Three(1, 2, 0)
    assert One(1) != OtherOne(1) and One(1).__eq__(OtherOne(1)) is NotImplemented
    assert One(1).__eq__((1,)) is NotImplemented
    assert Three(1, 2, 3).__eq__((1, 2, 3)) is NotImplemented


def test_generated_hash_is_the_field_tuple_hash():
    assert hash(One(5)) == hash((5,))
    assert hash(Three(1, 2, 3)) == hash((1, 2, 3))
    assert len({Three(1, 2, 3), Three._trusted(1, 2, 3), Three(1, 2, 4)}) == 2


def test_generated_trusted_skips_the_check():
    with pytest.raises(ValueError):
        One(-1)
    obj = One._trusted(-1)
    assert type(obj) is One and obj.x == -1 and repr(obj) == "One(x=-1)"
    obj = Three._trusted(3, 2, 1)
    assert (obj.a, obj.b, obj.c) == (3, 2, 1)
    with pytest.raises(AttributeError):
        obj.a = 0


def test_generated_fill_takes_every_field_exactly():
    obj = Three(1, 2, 3)
    for values in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(TypeError):
            obj._fill(*values)
        with pytest.raises(TypeError):
            Three._trusted(*values)
    with pytest.raises(TypeError):
        One._trusted()
    assert (obj.a, obj.b, obj.c) == (1, 2, 3)


def test_generated_functions_carry_the_class_names():
    for cls in (One, Three):
        for name in GENERATED:
            fn = getattr(cls, name)
            assert fn.__qualname__ == f"{cls.__qualname__}.{name}"
            assert fn.__module__ == __name__


def _package_value_types():
    found, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("valleydyck."):
                found.append(sub)
    return found


def test_every_package_value_type_uses_the_generated_methods():
    types = _package_value_types()
    assert {cls.__name__ for cls in types} == set(CASES)
    for cls in types:
        fields = f"<{cls.__module__}.{cls.__qualname__} fields>"
        for name in GENERATED:
            fn = getattr(cls, name)
            assert fn.__code__.co_filename == fields, (cls, name)
            assert fn.__qualname__ == f"{cls.__qualname__}.{name}", (cls, name)
