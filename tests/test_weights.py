from fractions import Fraction

import pytest

from valleydyck.bijections import MAPS, decorated_weight, decorations
from valleydyck.errors import BadParams, NotValleyUniform, OrderExceeded
from valleydyck.paths import (
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    analyze,
    enumerate_family,
    valley_structures,
)
from valleydyck import weights
from valleydyck.params import A, A_INV, B, Q, T, T1_INV
from valleydyck.polynomials import Polynomial
from valleydyck.series import named_series, valley_series, valley_series_ab
from valleydyck.verify import DECORATED_EXAMPLES, INTRO_EXAMPLE
from valleydyck.weights import (
    REGISTRY,
    Arity,
    WeightSpec,
    part_weight,
    path_weight,
    read_params,
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


def test_order_exceeded():
    spec = registry_get("generic", 2)
    with pytest.raises(OrderExceeded):
        structure_weight(ValleyStructure((Pyramid(3),)), spec)


def test_path_weight_rejects_nonuniform():
    spec = registry_get("generic", 6)
    with pytest.raises(NotValleyUniform):
        path_weight(Path("dyck", "UUUDUDDUDD"), spec)


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
    spec = registry_get("delannoy_tuple", 3, a=4, b=3, c=7, d=2)
    assert [p.constant_value() for p in spec.alpha] == [1, 3, 9]
    assert [p.constant_value() for p in spec.beta] == [7, 14, 28]
    assert [p.constant_value() for p in spec.gamma] == [0, 7, 35]
    other = registry_get("delannoy_tuple", 4, a=2, b=1, c=7, d=4)
    assert [p.constant_value() for p in other.gamma] == [
        0,
        7,
        Fraction(7, 3) * (16 - 1),
        7 * (16 + 4 + 1),
    ]


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
    order = 10
    for name, params in [
        ("geom_3x", {}),
        ("geom_fib", {}),
        ("motzkin_ab", {}),
        ("schroder_large_q", {}),
        ("schroder_small_q", {}),
        ("narayana_t", {}),
        ("narayana_shift_t", {}),
        ("fuss_sym", {"m": 2, "r": 2}),
        ("fuss_asym", {"m": 3, "r": 2}),
        ("chebyshev_abcd", {"a": 4, "b": 3, "c": 7, "d": 2}),
        ("chebyshev_second", {"a": 1, "b": 2, "c": 1}),
    ]:
        spec = registry_get(name, order, **params)
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


def test_target_weightings():
    assert target_weight(Path("motzkin", "UFDF"), "motzkin_ab") == A * A * B
    assert target_weight(Path("schroder_large", "HUHD"), "schroder_q") == Q * Q
    assert target_weight(Path("dyck", "UDUUDD"), "narayana_t") == T * T
    lp = target_weight(Path("dyck", "UDUUDD"), "level_peaks")
    assert lp == (T + 1) * T
    for n in range(7):
        for path in enumerate_family("dyck", n):
            assert target_weight(path, "narayana_t") == T ** len(analyze(path).peaks)


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
    # alpha2 is an entry from n = 2 on, and a part from n = 4 on
    assert valley_weight_sum(1, mixed) == 0 and len(summed) == 1
    for n in range(2, 7):
        got = valley_weight_sum(n, mixed)
        assert got == _by_polynomials(n, mixed)
        assert ("z" in got.variables()) == (n >= 4)
    assert len(summed) == 1


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
    def body(n: int, m: int, r: Arity, x: Fraction, t: Polynomial):
        return None

    read = read_params(body, {"m": "6/2", "r": 1, "x": "7/3", "t": "2", "zz": 5}, "body")
    assert read == {"m": 3, "r": 1, "x": Fraction(7, 3), "t": Polynomial.const(2)}
    assert type(read["m"]) is int
    assert read_params(body, {"m": 0, "r": 2, "x": 0, "t": "sym"}, "body")["t"] == T
    assert read_params(body, {"m": 0, "r": 2, "x": 0}, "body")["t"] == T
    for params, message in [
        ({"m": "1.5", "r": 1, "x": 0}, "body: parameter m must be an integer, got '1.5'"),
        ({"m": 1, "r": 0, "x": 0}, "body: parameter r must be an integer >= 1, got 0"),
        ({"m": 1, "r": "sym", "x": 0}, "parameter r must be an integer >= 1, got 'sym'"),
        ({"m": 1, "r": 1, "x": "sym"}, "parameter x must be a rational number, got 'sym'"),
        ({"m": 1, "r": 1, "x": 0, "t": "1/0"}, "parameter t must be a rational number or 'sym'"),
        ({"m": 1, "x": 0}, "body needs the parameter r"),
    ]:
        with pytest.raises(BadParams, match=message.replace("(", "\\(").replace(")", "\\)")):
            read_params(body, params, "body")


def test_registry_caches_read_values():
    # equal values spelled differently build the table once
    assert registry_get("fuss_sym", 5, m="3", r=2) is registry_get("fuss_sym", 5, m=3, r="4/2")
    assert registry_get("chebyshev_abcd", 3) is registry_get("chebyshev_abcd", 3, a="sym")
    with pytest.raises(BadParams, match="fuss_asym: parameter r must be an integer >= 1"):
        registry_get("fuss_asym", 3, m=1, r="1.9")


# -- pinned tables: built from their values, equal to the symbolic table substituted

# the parameters a table declares, which are built in and never pinned
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
    "schroder_small_q": [dict(q=-1), dict(q=-2), dict(q=0), dict(q="1/2")],
    "narayana_t": [dict(t=0), dict(t=-1), dict(t="1/3"), dict(t=7), dict(t="sym"), dict(t=-2)],
    "narayana_shift_t": [dict(t=-1), dict(t=0), dict(t="1/3"), dict(t="-1/2"), dict(t=2)],
    "chebyshev_abcd": [dict(z=1), dict(a=1, z=1)],
    "chebyshev_second": [dict(c=0, z=1)],
    "delannoy_tuple": [dict(e=1)],
    "fuss_sym": [dict(x=1)],
    "fuss_asym": [dict(m=1)],
    "fuss_cubic": [dict(r=2, x=1)],
}


def _substituted(name, order, params):
    """The route that solved symbolically first: the symbolic table, each pin
    named in it, and the pins substituted into every entry."""
    code = REGISTRY[name].__code__
    names = code.co_varnames[1:code.co_argcount]  # the builder's parameters after the order
    declared = {k: v for k, v in params.items() if k in names}
    symbolic = registry_get(name, order, **{**_DECLARED.get(name, {}), **declared})
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
    )


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


@pytest.mark.parametrize("name, order, params, message", [
    ("motzkin_ab", 0, dict(a=0), "motzkin_ab at order 0 has no parameter or variable a "
     "(variables: none)"),
    ("motzkin_ab", 5, dict(a=0), "binding a that way leaves no rational value for a_inv"),
    ("motzkin_ab", 2, dict(a=2, zz=1), "motzkin_ab at order 2 has no parameter or variable zz "
     "(variables: a, a_inv, b)"),
    ("narayana_shift_t", 5, dict(t=-1), "binding t that way leaves no rational value for t1_inv"),
    ("schroder_large_q", 2, dict(t=1), "schroder_large_q at order 2 has no parameter or "
     "variable t (variables: q)"),
    ("generic", 2, dict(alpha9=1), "generic at order 2 has no parameter or variable alpha9 "
     "(variables: alpha1, alpha2, beta1, beta2, gamma1, gamma2)"),
    ("chebyshev_abcd", 5, dict(a=1, z=1), "chebyshev_abcd at order 5 has no parameter or "
     "variable z (parameters: a, b, c, d; variables: b, c, d)"),
    ("delannoy_tuple", 2, dict(a=4, b=3, c=7, d=2, e=1), "delannoy_tuple at order 2 has no "
     "parameter or variable e (parameters: a, b, c, d; variables: none)"),
    ("geom_3x", 2, dict(x=1), "geom_3x at order 2 has no parameter or variable x "
     "(variables: none)"),
])
def test_pin_errors_keep_their_text(name, order, params, message):
    with pytest.raises((BadParams, ValueError)) as info:
        registry_get(name, order, **params)
    assert str(info.value) == message
    assert info.type is (ValueError if message.startswith("binding") else BadParams)


def test_a_formal_inverse_variable_is_not_pinned():
    # its value is fixed by its base variable's; "sym" leaves it as it is
    for name, inv, base in (("motzkin_ab", "a_inv", "a"), ("narayana_shift_t", "t1_inv", "t")):
        with pytest.raises(BadParams) as info:
            registry_get(name, 4, **{inv: 3})
        assert str(info.value) == (
            f"{name} at order 4: {inv} is the formal inverse of {base}; pin {base} instead"
        )
        assert registry_get(name, 4, **{inv: "sym"}) == registry_get(name, 4)


def test_pins_reach_the_builder_and_no_full_symbolic_table_is_built(monkeypatch):
    calls = []
    for name in ("motzkin_ab", "generic"):
        original = REGISTRY[name]

        def recording(order: int, *, pins=(), original=original):
            calls.append((order, pins))
            return original(order, pins=pins)

        monkeypatch.setitem(REGISTRY, name, recording)
    weights._registry_get_cached.cache_clear()
    two, three = Polynomial.const(2), Polynomial.const(3)
    registry_get("motzkin_ab", 30, a=2, b=3)
    # the names are read off the table at order 2, so the table at order 30 is
    # built once, from the values
    assert calls == [(2, ()), (30, (("a", two), ("b", three)))]
    calls.clear()
    # generic is only its variables: its names are read off the symbolic table
    # at the order asked
    registry_get("generic", 8, alpha5=3, beta1="sym")
    assert calls == [(8, ()), (8, (("alpha5", three),))]
    weights._registry_get_cached.cache_clear()


@pytest.mark.parametrize("name", [name for name in REGISTRY if name != "generic"])
def test_every_table_but_generic_has_all_its_variables_by_order_2(name):
    # registry_builder reads the names a pin may bind off the table at order 2
    def variables(order):
        return registry_get(name, order, **_DECLARED.get(name, {})).variables()

    assert variables(2) == variables(12)


def test_an_unknown_pin_is_refused_without_solving_at_the_order_asked(monkeypatch):
    orders = []

    def recording(name, order, r=None, pins=()):
        orders.append(order)
        return named_series(name, order, r, pins)

    monkeypatch.setattr(weights, "named_series", recording)
    weights._registry_get_cached.cache_clear()
    try:
        with pytest.raises(BadParams) as info:
            registry_get("motzkin_ab", 204, zz=1)
    finally:
        weights._registry_get_cached.cache_clear()
    assert str(info.value) == (
        "motzkin_ab at order 204 has no parameter or variable zz (variables: a, a_inv, b)"
    )
    # the names are read off the table at order 2; the table at order 204 is never built
    assert orders == [2]


def test_division_free_betas_equal_the_exact_quotients():
    for order in range(21):
        r = named_series("schroder_large", order)
        assert named_series("schroder_large_beta", order) == (r - 1).div_poly(Q + 1), order
        n = named_series("narayana", order)
        assert named_series("narayana_beta", order) == (n - 1).div_poly(T), order
