from fractions import Fraction

import pytest

from valleydyck.bijections import MAPS, decorated_weight, decorations
from valleydyck.errors import BadParams, NotValleyUniform
from valleydyck.paths import (
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    is_valley_uniform,
    valley_structures,
)
from valleydyck import paths, weights
from valleydyck.params import A, A_INV, B, Q, T, T1_INV, Arity, read_params, signature
from valleydyck.polynomials import Polynomial
from valleydyck.series import named_series, valley_series, valley_series_ab
from valleydyck.verify import DECORATED_EXAMPLES, INTRO_EXAMPLE
from valleydyck.weights import (
    REGISTRY,
    WeightSpec,
    part_weight,
    path_weight,
    registry_get,
    spec_from_series,
    structure_weight,
    target_weight,
    target_weight_sum,
    valley_weight_sum,
)


def sym(stem, k):
    return Polynomial.var(f"{stem}{k}")


def test_worked_examples_weigh_alike_by_structure_and_by_path():
    # worked_examples pins the intro path's weight and each decoration sum
    spec = registry_get("generic", 14)
    intro = ValleyStructure((ValleyBlock(3, (3, 1, 1)), ValleyBlock(2, (1, 1)), Pyramid(2)))
    assert intro.to_path() == INTRO_EXAMPLE
    assert structure_weight(intro, spec) == path_weight(INTRO_EXAMPLE, spec)
    for obj in DECORATED_EXAMPLES.values():
        spec = registry_get(MAPS[obj.map_id].registry, 14)
        summed = Polynomial.sum(decorated_weight(c) for c in decorations(obj.structure, obj.map_id))
        assert structure_weight(obj.structure, spec) == summed, obj.map_id
        assert path_weight(obj.structure.to_path(), spec) == summed, obj.map_id


def test_single_pyramid_weight():
    spec = registry_get("generic", 5)
    for k in range(1, 6):
        assert structure_weight(ValleyStructure((Pyramid(k),)), spec) == sym("gamma", k)


def test_the_path_route_reaches_no_structure_code(monkeypatch):
    spec = registry_get("generic", 7)
    sums = [valley_weight_sum(n, spec) for n in range(8)]

    def unreachable(*args):
        raise AssertionError("the path route reached the structure route")

    for module, name in ((paths, "valley_structures"), (paths, "primitive_part"),
                         (weights, "valley_structures"), (weights, "part_weight"),
                         (weights, "structure_weight")):
        monkeypatch.setattr(module, name, unreachable)
    for n in range(8):
        total = Polynomial.zero()
        for path in enumerate_family("dyck", n):
            if is_valley_uniform(path):
                total += path_weight(path, spec)
            else:
                with pytest.raises(NotValleyUniform):
                    path_weight(path, spec)
        assert total == sums[n], n


def test_weight_sums_small_generic():
    spec = registry_get("generic", 4)
    assert valley_weight_sum(0, spec) == 1
    assert valley_weight_sum(1, spec) == sym("gamma", 1)
    expected3 = (
        sym("gamma", 3)
        + 2 * sym("gamma", 2) * sym("gamma", 1)
        + sym("gamma", 1) ** 3
        + sym("beta", 1) * sym("alpha", 1) ** 2
    )
    assert valley_weight_sum(3, spec) == expected3


def test_geom_3x_values():
    spec = registry_get("geom_3x", 6)
    values = [valley_weight_sum(n, spec).constant_value() for n in range(6)]
    assert values == [1, 0, 1, 4, 13, 40]


def test_registry_motzkin_coefficients():
    spec = registry_get("motzkin_ab", 4)
    m = [Polynomial.one(), A, A * A + B, A**3 + 3 * A * B]
    assert spec.alpha == (A, Polynomial.zero(), Polynomial.zero(), Polynomial.zero())
    assert spec.beta == tuple(B * A_INV * mk for mk in m)
    assert spec.gamma == (Polynomial.zero(), B * m[0], B * m[1], B * m[2])


def test_registry_delannoy_tuple_sequences():
    # a table of numbers stores its entries as numbers
    spec = registry_get("delannoy_tuple", 3, a=4, b=3, c=7, d=2)
    assert spec.alpha == (1, 3, 9)
    assert spec.beta == (7, 14, 28)
    assert spec.gamma == (0, 7, 35)
    other = registry_get("delannoy_tuple", 4, a=2, b=1, c=7, d=4)
    assert other.gamma == (
        0,
        7,
        Fraction(7, 3) * (16 - 1),
        7 * (16 + 4 + 1),
    )
    assert {type(v) for v in spec.alpha + spec.beta + spec.gamma + other.gamma} == {int}


def test_registry_schroder_and_narayana_divisibility():
    spec = registry_get("schroder_large_q", 5)
    assert spec.alpha[0] == Q + 1
    assert spec.beta[0] == 1  # R_1/(q+1)
    spec_n = registry_get("narayana_t", 5)
    assert spec_n.beta[0] == 1  # N_1/t
    assert spec_n.gamma[1] == T  # N_1


def test_registry_narayana_shift_entries():
    spec = registry_get("narayana_shift_t", 4)
    assert spec.alpha[0] == T + 1
    # beta_1 = t/(1+t) = 1 - 1/(1+t)
    assert spec.beta[0] == 1 - T1_INV
    # products with alpha_1^r recombine to polynomials
    assert spec.beta[0] * spec.alpha[0] == T
    assert spec.gamma[1] == T  # t * f_0


def test_spec_round_trips_through_series_and_json():
    spec = registry_get("motzkin_ab", 5)
    rebuilt = spec_from_series(*spec.to_series())
    assert rebuilt == spec
    assert WeightSpec.from_json(spec.to_json()) == spec


def test_registry_entries_match_ab_series():
    # every table but generic and fuss_cubic, whose gamma is not alpha * beta
    order = 10
    numbers = {"chebyshev_abcd": dict(a=4, b=3, c=7, d=2), "chebyshev_second": dict(a=1, b=2, c=1)}
    for name in [name for name in REGISTRY if name not in ("generic", "fuss_cubic")]:
        spec = registry_get(name, order, **numbers.get(name, _DECLARED.get(name, {})))
        alpha, beta, gamma = spec.to_series()
        assert gamma == alpha * beta, name
        series = valley_series_ab(alpha, beta)
        for n in range(order + 1):
            assert valley_weight_sum(n, spec) == series.coefficient(n), (name, n)


def test_gamma_not_product_table_triple_agreement():
    # the one registry entry whose gamma is not alpha*beta
    spec = registry_get("fuss_cubic", 6, m=3, r=2)
    series = valley_series(*spec.to_series())
    from valleydyck.oracles import formula_vn

    for n in range(7):
        by_enum = valley_weight_sum(n, spec)
        assert by_enum == series.coefficient(n)
        assert by_enum == formula_vn("fuss_cubic", n, m=3, r=2)


def _level_peaks_by_steps(steps):
    """The level_peaks weight read one step at a time: a peak weighs t + 1 when
    its U step leaves the axis, and t elsewhere."""
    weight, level = Polynomial.one(), 0
    for ch, after in zip(steps, steps[1:]):
        if ch + after == "UD":
            weight = weight * (T + 1 if level == 0 else T)
        level += paths.STEP_RISE[ch]
    return weight


def test_target_weightings():
    assert target_weight(Path("motzkin", "UFDF"), "motzkin_ab") == A * A * B
    assert target_weight(Path("schroder_large", "HUHD"), "schroder_q") == Q * Q
    assert target_weight(Path("dyck", "UDUUDD"), "narayana_t") == T * T
    lp = target_weight(Path("dyck", "UDUUDD"), "level_peaks")
    assert lp == (T + 1) * T
    for n in range(7):
        for path in enumerate_family("dyck", n):
            assert target_weight(path, "narayana_t") == T ** path.steps.count("UD")
    # level_peaks counts its axis peaks off the whole string; Delannoy paths dip below the axis
    for family in paths.FAMILY_STEPS:
        for n in range(6):
            for path in enumerate_family(family, n):
                assert target_weight(path, "level_peaks") == _level_peaks_by_steps(path.steps)


def test_the_tally_equals_the_per_path_fold():
    # target_weight_sum builds each distinct weight once and multiplies it by
    # its count; the plain sum of target_weight over the same paths must agree
    for family in paths.FAMILY_STEPS:
        for filt in paths.FILTERS:
            for n in range(10 if family == "motzkin" else 7):
                family_paths = list(enumerate_family(family, n, filt))
                for weighting in weights.TARGET_WEIGHTINGS:
                    folded = Polynomial.sum(target_weight(p, weighting) for p in family_paths)
                    got = target_weight_sum(n, family, filt, weighting)
                    assert got == folded, (family, filt, n, weighting)


def test_target_weight_sums_match_differences():
    # weighted Dyck paths of semilength n sum to the Narayana polynomial
    from valleydyck.oracles import narayana_polynomial

    for n in range(6):
        assert target_weight_sum(n, "dyck", "none", "narayana_t") == narayana_polynomial(n)
    assert target_weight_sum(2, "motzkin", "first_not_flat", "motzkin_ab") == B
    assert target_weight_sum(2, "schroder_large", "y_filter", "schroder_q") == Q + 1


def _reference_structure_weight(structure, spec):
    """The part-by-part product, one factor at a time from 1."""
    total = Polynomial.one()
    for part in structure.parts:
        if isinstance(part, Pyramid):
            total = total * spec.gamma_at(part.height)
        else:
            total = total * spec.beta_at(part.ascent)
            for h in part.heights:
                total = total * spec.alpha_at(h)
    return total


@pytest.mark.parametrize(
    "table, params, max_n",
    [
        ("generic", {}, 7),
        ("motzkin_ab", {}, 7),  # a_inv inside beta
        ("narayana_shift_t", {}, 6),  # t1_inv inside beta
        # every entry a number, so the sums are multiplied and added as numbers
        *(("delannoy_tuple", dict(zip("abcd", values)), 10)
          for values, _ in weights.DELANNOY_TUPLES),
        ("geom_3x", {}, 10),
        ("geom_fib", {}, 10),
    ],
)
def test_memoized_weight_sum_matches_reference(table, params, max_n):
    spec = registry_get(table, max_n, **params)
    for n in range(max_n + 1):
        reference = Polynomial.zero()
        for structure in valley_structures(n):
            weight = _reference_structure_weight(structure, spec)
            assert structure_weight(structure, spec) == weight
            reference = reference + weight
        assert valley_weight_sum(n, spec) == reference, (table, n)


def _by_polynomials(n, spec):
    return Polynomial.sum(_reference_structure_weight(s, spec) for s in valley_structures(n))


def test_a_symbolic_entry_takes_the_polynomial_route(monkeypatch):
    spec = registry_get("delannoy_tuple", 6, a=4, b=3, c=7, d=2)
    z = Polynomial.var("z")
    mixed = WeightSpec(spec.alpha[:1] + (z,) + spec.alpha[2:], spec.beta, spec.gamma)
    summed = []
    monkeypatch.setattr(weights, "_number_sum", lambda rows: summed.append(rows) or 0)
    # alpha2 is an entry from n = 2 on, and a part from n = 4 on; the sums
    # below it are constants, but a table with a symbolic sequence never sums
    # as numbers
    for n in range(1, 7):
        got = valley_weight_sum(n, mixed)
        assert got == _by_polynomials(n, mixed)
        assert ("z" in got.variables()) == (n >= 4)
    assert summed == []


def test_a_table_of_numbers_sums_without_polynomials(monkeypatch):
    specs = [registry_get("delannoy_tuple", 8, a=2, b=1, c=7, d=4), registry_get("geom_fib", 8)]
    sums = [[_by_polynomials(n, spec) for n in range(9)] for spec in specs]
    for spec in specs:
        for structure in valley_structures(8):
            assert {type(part_weight(p, spec)) for p in structure.parts} <= {int, Fraction}

    def unreachable(*args):
        raise AssertionError("the number route multiplied or added polynomials")

    monkeypatch.setattr(Polynomial, "product", unreachable)
    monkeypatch.setattr(Polynomial, "sum", unreachable)
    for spec, want in zip(specs, sums):
        assert [valley_weight_sum(n, spec) for n in range(9)] == want
    with pytest.raises(AssertionError):
        valley_weight_sum(2, registry_get("generic", 2))


def test_a_table_built_from_numbers_is_its_polynomial_twin():
    # entries are read as a series reads its coefficients: ints and Fractions
    # are stored as numbers, and so are polynomials when all are constants
    values = ((1, 2, Fraction(-1, 2)), (3, 0, 4), (5, -6, Fraction(4, 2)))
    numbers = WeightSpec(*values)
    twin = WeightSpec(*(tuple(map(Polynomial.const, table)) for table in values))
    assert numbers == twin and hash(numbers) == hash(twin) and repr(numbers) == repr(twin)
    assert numbers.gamma == (5, -6, 2) and type(numbers.gamma[2]) is int
    assert numbers.alpha_at(3) == Polynomial.const(Fraction(-1, 2))
    for n in range(4):
        assert valley_weight_sum(n, numbers) == _by_polynomials(n, twin), n
    assert valley_weight_sum(2, WeightSpec((1, 2), (3, 4), (5, 6))) == 31  # gamma2 + gamma1^2


def test_to_series_gives_new_series_at_each_call():
    # fuss_sym's alpha and beta sequences are equal, but they are two series,
    # so a product of them is not taken as a square
    spec = registry_get("fuss_sym", 6, m=2, r=2)
    first, again = spec.to_series(), spec.to_series()
    assert spec.alpha == spec.beta and first[0] is not first[1]
    assert first == again and all(a is not b for a, b in zip(first, again))
    assert spec_from_series(*first) == spec


def test_is_numeric_reads_every_entry():
    spec = registry_get("delannoy_tuple", 6, a=4, b=3, c=7, d=2)
    mixed = WeightSpec(spec.alpha[:1] + (Polynomial.var("z"),) + spec.alpha[2:],
                       spec.beta, spec.gamma)
    assert spec.is_numeric() and not mixed.is_numeric()


def test_part_weight_of_each_part_kind():
    spec = registry_get("generic", 4)
    assert part_weight(Pyramid(3), spec) == sym("gamma", 3)
    assert part_weight(ValleyBlock(2, (1, 2)), spec) == (
        sym("beta", 2) * sym("alpha", 1) * sym("alpha", 2)
    )


def test_weight_sum_memo_is_per_call():
    # back-to-back sums with different tables must not share part weights
    n = 6
    first = registry_get("generic", n)
    second = registry_get("geom_3x", n)
    third = registry_get("delannoy_tuple", n, a=2, b=1, c=7, d=4)
    values = [valley_weight_sum(n, spec) for spec in (first, second, third, first)]
    assert values[0] == values[3] and values[0].variables()
    assert values[1] == 121
    assert values[2] == Polynomial.sum(
        _reference_structure_weight(s, third) for s in valley_structures(n)
    )


def test_read_params_by_annotation():
    # annotations evaluated here, as text in the package's modules
    def body(n: int, r: Arity, x: Fraction, t: Polynomial):
        return None

    kinds = signature(body)
    assert kinds == {"r": "Arity", "x": "Fraction", "t": "Polynomial"}
    read = read_params(kinds, {"r": "6/2", "x": "7/3", "t": "2", "zz": 5}, "body")
    assert read == {"r": 3, "x": Fraction(7, 3), "t": Polynomial.const(2)}
    assert type(read["r"]) is int
    assert read_params(kinds, {"r": 2, "x": 0, "t": "sym"}, "body")["t"] == T
    assert read_params(kinds, {"r": 2, "x": 0}, "body")["t"] == T


def test_registry_caches_read_values():
    # equal values spelled differently build the table once
    assert registry_get("fuss_sym", 5, m="3", r=2) is registry_get("fuss_sym", 5, m=3, r="4/2")
    assert registry_get("chebyshev_abcd", 3) is registry_get("chebyshev_abcd", 3, a="sym")


# -- pinned tables: built from their values, equal to the symbolic table substituted

# the parameters each table declares, and values for those that must have one
_PARAMETERS = {"chebyshev_abcd": "abcd", "chebyshev_second": "abc", "delannoy_tuple": "abcd",
               **dict.fromkeys(("fuss_sym", "fuss_asym", "fuss_cubic"), "mr")}
_DECLARED = {
    "delannoy_tuple": dict(a=4, b=3, c=7, d=2),
    "fuss_sym": dict(m=2, r=2),
    "fuss_asym": dict(m=3, r=2),
    "fuss_cubic": dict(m=1, r=3),
}

# pins of every kind: negative, fractional, 0, -1, partial, mixed with sym, and
# names that are no variable of the table (at some or at every order)
_PINS = {
    "generic": [dict(alpha1=3), dict(beta2=-1, gamma3="1/2"), dict(alpha1=0, gamma1="sym"),
                dict(alpha2=-1, beta1="-3/2"), dict(alpha7=2), dict(zz=1)],
    "geom_3x": [dict(x=1)],
    "geom_fib": [dict(a=1)],
    "motzkin_ab": [dict(a=2, b=3), dict(a=0), dict(b=0), dict(a=-1), dict(a="-3/2", b="1/2"),
                   dict(a="sym", b=5), dict(a=0, b=0), dict(b=-1), dict(a=1, zz=1)],
    "schroder_large_q": [dict(q=-1), dict(q=0), dict(q="-3/2"), dict(q=5), dict(q="sym"),
                         dict(q=-2), dict(t=1)],
    "schroder_small_q": [dict(q=-1), dict(q=-2), dict(q=0), dict(q="1/2"), dict(q=1, zz=1)],
    "narayana_t": [dict(t=0), dict(t=-1), dict(t="1/3"), dict(t=7), dict(t="sym"), dict(t=-2),
                   dict(zz=1)],
    "narayana_shift_t": [dict(t=-1), dict(t=0), dict(t="1/3"), dict(t="-1/2"), dict(t=2),
                         dict(t1_inv="sym", zz=1)],
    "chebyshev_abcd": [dict(z=1), dict(a=1, z=1)],
    "chebyshev_second": [dict(c=0, z=1)],
    "delannoy_tuple": [dict(e=1)],
    "fuss_sym": [dict(x=1)],
    "fuss_asym": [dict(m=1)],
    "fuss_cubic": [dict(r=2, x=1)],
}


def _substituted(name, order, params):
    """The route that solved symbolically first: the symbolic table at order
    2 or more (at the order for generic, whose entries are its variables),
    each pin named in it, the pins substituted into every entry, and the
    table cut to the order."""
    names = tuple(_PARAMETERS.get(name, ""))
    declared = {k: v for k, v in params.items() if k in names}
    at = order if name == "generic" else max(order, 2)
    symbolic = registry_get(name, at, **{**_DECLARED.get(name, {}), **declared})
    pinned = {k: v for k, v in params.items() if k not in declared}
    present = symbolic.variables()
    unknown = [k for k in pinned if k not in present]
    if unknown:
        has = f"parameters: {', '.join(names)}; " if names else ""
        has += f"variables: {', '.join(present) or 'none'}"
        raise BadParams(f"{name} at order {order} has no parameter or variable "
                        f"{', '.join(unknown)} ({has})")
    return symbolic.substitute(
        {k: Polynomial.const(Fraction(v)) for k, v in pinned.items() if v != "sym"}
    ).truncated(order)


def _outcome(build):
    try:
        return build()
    except (BadParams, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_pinned_table_equals_the_symbolic_table_substituted(name):
    assert set(_PINS) == set(REGISTRY)
    for params in _PINS[name]:
        for order in range(9):
            want = _outcome(lambda: _substituted(name, order, params))
            got = _outcome(lambda: registry_get(name, order, **{**_DECLARED.get(name, {}),
                                                                **params}))
            assert got == want, (name, order, params)


def test_a_formal_inverse_variable_is_pinned_only_as_sym():
    # its value is fixed by its base variable's; "sym" leaves it as it is
    for name, inv in (("motzkin_ab", "a_inv"), ("narayana_shift_t", "t1_inv")):
        assert registry_get(name, 4, **{inv: "sym"}) == registry_get(name, 4)


def test_pins_reach_the_builder_and_no_full_symbolic_table_is_built(monkeypatch):
    calls = []
    for name in ("motzkin_ab", "generic"):
        original, data, kinds = REGISTRY[name]

        def recording(order, *, pins=(), original=original, **data):
            calls.append((order, pins))
            return original(order, **data, pins=pins)

        monkeypatch.setitem(REGISTRY, name, (recording, data, kinds))
    weights._registry_get_cached.cache_clear()
    two, three = Polynomial.const(2), Polynomial.const(3)
    # the names a pin may bind are read off the row, so the table is built
    # once, from the values
    registry_get("motzkin_ab", 30, a=2, b=3)
    assert calls == [(30, (("a", two), ("b", three)))]
    calls.clear()
    registry_get("generic", 8, alpha5=3, beta1="sym")
    assert calls == [(8, (("alpha5", three),))]
    weights._registry_get_cached.cache_clear()


@pytest.mark.parametrize("name", REGISTRY)
def test_each_row_names_every_variable_its_table_has(name):
    # pins are checked against the row's variables: each variable of the built
    # table, and from order 2 on (every order for generic) no other
    _, data, kinds = REGISTRY[name]
    declared = read_params(kinds, _DECLARED.get(name, {}), name)
    for order in range(9):
        table = registry_get(name, order, **_DECLARED.get(name, {}))
        built, row = table.variables(), weights._variables(name, order, data, declared)
        exact = order >= 2 or name == "generic"
        assert built == row if exact else set(built) <= set(row), (order, built, row)
        assert table.is_numeric() == (not built), order


def test_an_unknown_pin_is_refused_without_solving_at_the_order_asked(monkeypatch):
    solved = []
    monkeypatch.setattr(weights, "named_series", lambda *args, **kw: solved.append(args))
    weights._registry_get_cached.cache_clear()
    try:
        with pytest.raises(BadParams) as info:
            registry_get("motzkin_ab", 204, zz=1)
    finally:
        weights._registry_get_cached.cache_clear()
    assert str(info.value) == (
        "motzkin_ab at order 204 has no parameter or variable zz (variables: a, a_inv, b)"
    )
    assert solved == []


def test_division_free_betas_equal_the_exact_quotients():
    for order in range(21):
        r = named_series("schroder_large", order)
        assert named_series("schroder_large_beta", order) == (r - 1).div_poly(Q + 1), order
        n = named_series("narayana", order)
        assert named_series("narayana_beta", order) == (n - 1).div_poly(T), order
