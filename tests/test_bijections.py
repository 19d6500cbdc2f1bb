import json

import pytest

from valleydyck import verify
from valleydyck.bijections import (
    MAPS,
    TAU_SIDES,
    DecoratedStructure,
    PartDecoration,
    TauDecorated,
    TauFactor,
    decorated_weight,
    decorations,
    enumerate_decorated,
    enumerate_tau,
    forward,
    inverse,
    tau_structure,
    tau_value,
)
from valleydyck.errors import InvalidDecoration, NotInTargetFamily
from valleydyck.paths import (
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    valley_structures,
)
from valleydyck.params import B
from valleydyck.polynomials import Polynomial
from valleydyck.weights import registry_get, structure_weight, target_weight

MAX_N = 5  # per-map exhaustive bound for the unit suite; acceptance pushes to 6


def test_phi_smallest_object():
    objects = list(enumerate_decorated(2, "phi"))
    assert len(objects) == 1
    obj = objects[0]
    assert obj.structure == ValleyStructure((Pyramid(2),))
    assert obj.decorations[0].subpath == Path("motzkin", "")
    assert decorated_weight(obj) == B
    assert forward("phi", obj) == Path("motzkin", "UD")


def test_phi_size_one_is_empty():
    assert list(enumerate_decorated(1, "phi")) == []
    assert list(decorations(ValleyStructure((Pyramid(1),)), "phi")) == []
    assert list(enumerate_family("motzkin", 1, "first_not_flat")) == []


def test_phi_inverse_of_udf():
    obj = inverse("phi", Path("motzkin", "UDF"))
    assert obj.structure == ValleyStructure((ValleyBlock(1, (1, 1)),))
    assert obj.decorations[0].subpath == Path("motzkin", "")
    assert forward("phi", obj) == Path("motzkin", "UDF")


def test_inverse_rejects_outside_family():
    with pytest.raises(NotInTargetFamily):
        inverse("phi", Path("motzkin", "FUD"))
    with pytest.raises(NotInTargetFamily):
        inverse("theta", Path("schroder_large", "HH"))
    with pytest.raises(NotInTargetFamily):
        inverse("rho", Path("dyck", "UDUD"))


@pytest.mark.parametrize("map_id", MAPS)
def test_decorated_weight_is_the_product_over_parts(map_id):
    spec = MAPS[map_id]
    unit_weight = {symbol: weight for symbol, _, weight in spec.tail}
    for n in range(7):
        for obj in enumerate_decorated(n, map_id):
            expected = Polynomial.one()
            for part, deco in zip(obj.structure.parts, obj.decorations):
                if spec.core is not None:
                    expected = expected * spec.core
                expected = expected * target_weight(deco.subpath, spec.decoration_weighting)
                units = 1 if isinstance(part, Pyramid) else len(part.heights)
                chosen = deco.symbols if spec.symbols else [None] * (units - 1)
                for symbol in chosen:
                    expected = expected * unit_weight[symbol]
            assert decorated_weight(obj) == expected, obj


@pytest.mark.parametrize("map_id", MAPS)
def test_decoration_sum_reproduces_structure_weight(map_id):
    # structures outside the map's domain have no decorations and weigh 0 in its table
    spec = registry_get(MAPS[map_id].registry, MAX_N + 1)
    for n in range(MAX_N + 1):
        for structure in valley_structures(n):
            objects = list(decorations(structure, map_id))
            assert all(obj.structure == structure for obj in objects)
            total = Polynomial.sum(decorated_weight(obj) for obj in objects)
            assert total == structure_weight(structure, spec), (map_id, structure)


def _validated(obj: DecoratedStructure) -> DecoratedStructure:
    """``obj`` rebuilt through the validating constructors, from its fields."""
    decos = tuple(
        PartDecoration(Path(d.subpath.family, d.subpath.steps), d.symbols)
        for d in obj.decorations
    )
    return DecoratedStructure(obj.map_id, obj.structure, decos)


@pytest.mark.parametrize("map_id", MAPS)
def test_unchecked_objects_pass_the_constructors(map_id):
    # decorations() and inverse build their objects unchecked, through
    # PartDecoration._trusted and DecoratedStructure._trusted; the validating
    # constructors must accept each one, and the rebuild must equal it
    family, filt = MAPS[map_id].target
    for n in range(7):
        for obj in enumerate_decorated(n, map_id):
            assert _tuple_fields(obj)
            assert _validated(obj) == obj, obj
        for target in enumerate_family(family, n, filt):
            obj = inverse(map_id, target)
            assert _tuple_fields(obj)
            assert _validated(obj) == obj, target


# -- tau ------------------------------------------------------------------------


def test_tau_small_cases():
    assert [tau_structure(t).semilength for t in enumerate_tau(2, "src_4372")] == [2]
    only = next(iter(enumerate_tau(2, "src_4372")))
    assert tau_value(only) == 7
    three = list(enumerate_tau(3, "src_4372"))
    assert sorted(tau_value(t) for t in three) == [7, 7, 7, 21]
    assert sum(tau_value(t) for t in three) == 42  # 7 * (D0*D1 + D1*D0)


def test_enumerate_tau_builds_its_objects_unchecked(monkeypatch):
    # enumerate_tau builds through TauFactor._trusted and TauDecorated._trusted,
    # so it runs with both validating constructors refusing; restored, they
    # must accept each object it yielded, with tuple fields, and equal it
    def refuse(self, *args):
        raise AssertionError("enumerate_tau ran a validating constructor")

    monkeypatch.setattr(TauFactor, "__init__", refuse)
    monkeypatch.setattr(TauDecorated, "__init__", refuse)
    objs = [obj for side in TAU_SIDES for n in range(8) for obj in enumerate_tau(n, side)]
    monkeypatch.undo()
    assert objs
    for obj in objs:
        assert type(obj.factors) is tuple
        factors = []
        for f in obj.factors:
            assert type(f.heights) is tuple and type(f.letters) is tuple
            factors.append(TauFactor(f.ascent, f.heights, f.letters))
        assert TauDecorated(obj.side, factors) == obj


def test_enumerate_tau_builds_only_factors_it_yields(monkeypatch):
    # a structure with an axis pyramid of height 1 has no object, so none of
    # its parts' factors may be built: every TauFactor._trusted call's result
    # sits in some yielded object
    built = []
    trusted = TauFactor._trusted

    def counting(*fields):
        built.append(trusted(*fields))
        return built[-1]

    monkeypatch.setattr(TauFactor, "_trusted", staticmethod(counting))
    objs = [obj for side in TAU_SIDES for obj in enumerate_tau(5, side)]
    held = {id(f) for obj in objs for f in obj.factors}
    assert len(built) == len(held) == 88
    assert held == {id(f) for f in built}


def test_tau_values_match_registry_weights():
    for n in range(2, 6):
        for side, (a, b, c, d) in (
            ("src_4372", (4, 3, 7, 2)),
            ("dst_2174", (2, 1, 7, 4)),
        ):
            spec = registry_get("delannoy_tuple", n, a=a, b=b, c=c, d=d)
            totals: dict = {}
            for obj in enumerate_tau(n, side):
                key = tau_structure(obj)
                totals[key] = totals.get(key, 0) + tau_value(obj)
            for structure, total in totals.items():
                assert total == structure_weight(structure, spec).constant_value()


def test_tau_json_round_trip():
    src = verify.EXCHANGE_SOURCE
    assert TauDecorated.from_json(src.to_json()) == src


def test_tau_letter_validation():
    with pytest.raises(InvalidDecoration):
        TauDecorated("src_4372", (TauFactor(2, (1,), ("3h",)),))
    with pytest.raises(InvalidDecoration):
        TauFactor(2, (1,), ())  # needs ascent-1 letters


def test_decorated_json_round_trip():
    for n in (3, 4):
        for obj in enumerate_decorated(n, "theta"):
            assert DecoratedStructure.from_json(obj.to_json()) == obj


def _tuple_fields(obj: DecoratedStructure) -> bool:
    blocks = [p for p in obj.structure.parts if isinstance(p, ValleyBlock)]
    return (
        type(obj.decorations) is tuple
        and type(obj.structure.parts) is tuple
        and all(type(b.heights) is tuple for b in blocks)
        and all(type(d.symbols) is tuple for d in obj.decorations)
    )


def test_list_input_is_stored_as_tuples(monkeypatch, capsys):
    # enumerated objects arrive with tuple fields; JSON brings lists, which the
    # constructors still convert, so both kinds compare and hash alike
    from valleydyck import bijections, cli

    block = ValleyBlock(2, [1, 1])
    assert type(block.heights) is tuple and hash(block) == hash(ValleyBlock(2, (1, 1)))
    structure = ValleyStructure([Pyramid(3), block])
    assert type(structure.parts) is tuple
    assert hash(structure) == hash(ValleyStructure((Pyramid(3), ValleyBlock(2, (1, 1)))))
    deco = PartDecoration(Path("schroder_large", "H"), ["H", "ud"])
    assert deco == PartDecoration(Path("schroder_large", "H"), ("H", "ud"))
    assert type(deco.symbols) is tuple

    seen = []
    real_forward = bijections.forward

    def recording_forward(map_id, obj):
        seen.append(obj)
        return real_forward(map_id, obj)

    monkeypatch.setattr(bijections, "forward", recording_forward)
    for map_id in ("phi", "psi", "rho", "sigma", "theta"):
        for obj in enumerate_decorated(4, map_id):
            assert _tuple_fields(obj)
            back = DecoratedStructure.from_json(obj.to_json())
            assert _tuple_fields(back) and back == obj and hash(back) == hash(obj)
        assert obj.map_id == map_id
        assert cli.main(["biject", "--map", map_id, "--apply", json.dumps(obj.to_json())]) == 0
        applied = seen.pop()
        assert _tuple_fields(applied) and applied == obj and hash(applied) == hash(obj)
        image = json.dumps(forward(map_id, obj).to_json(), indent=2)
        assert capsys.readouterr().out == image + "\n"
