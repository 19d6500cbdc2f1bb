"""The verify runner: effective bounds, skipped checks, clamp notes, and faults."""

import json
from itertools import groupby

import pytest

from valleydyck import bijections, cli, paths, polynomials, series, verify, weights
from valleydyck.bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    decorated_weight,
    decorations,
    inverse,
    tau_structure,
    tau_ustep_weights,
    tau_value,
)
from valleydyck.errors import InvalidDecoration, NegativeLevel
from valleydyck.oracles import (
    catalan_number,
    delannoy_convolution,
    delannoy_hstep_count,
    delannoy_number,
    formula_vn,
    narayana_polynomial,
    schroder_small_polynomial,
)
from valleydyck.params import A, B, Q, T
from valleydyck.paths import Path, enumerate_family
from valleydyck.series import Equation, valley_series
from valleydyck.verify import CHECKS
from valleydyck.weights import DELANNOY_TUPLES, path_weight, registry_get, valley_weight_sum

# the clamp each check puts on the requested bound
UPTO = {
    "master_triple_agreement": 7,
    **{f"bijection_{map_id}": 6 for map_id in MAPS},
    "target_difference_enumeration": 6,
    "tau_exchange": 8,
    "delannoy_scaled_sums": 9,
    "fuss_formulas": 9,
    "delannoy_axis_hsteps": 5,
}
LEAST = {"chebyshev_rational_identity": 2, "delannoy_table": 4, "oracle_bridges": 12}
UNCLAMPED = {"geom_3x_values", "geom_fib_values", "worked_examples"} | {
    c for c in CHECKS if c.startswith("diff_")
}
SKIPPED_AT_0 = ("tau_exchange", "delannoy_scaled_sums", "delannoy_axis_hsteps")


def test_check_bounds_match_their_clamps():
    assert set(UPTO) | set(LEAST) | UNCLAMPED == set(CHECKS)
    for name, check in CHECKS.items():
        for max_n in (0, 6, 50) if name in UPTO else (0, 6):
            want = max(min(max_n, UPTO.get(name, max_n)), LEAST.get(name, 0))
            result = check(max_n)
            assert result.bound == want, (name, max_n)
            skips = max_n == 0 and name in SKIPPED_AT_0
            assert result.status == ("skip" if skips else "pass"), (name, max_n, result)
            assert (result.compared == 0) == skips


def test_checks_that_compare_nothing_skip(capsys):
    for max_n, skipped in ((0, SKIPPED_AT_0), (1, SKIPPED_AT_0[:2])):
        argv = ["verify", "--suite", "all", "--max-n", str(max_n)]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        statuses = {line.split()[1]: line.split()[0] for line in lines[1:-1]}
        assert [name for name, s in statuses.items() if s != "PASS"] == list(skipped)
        assert {statuses[name] for name in skipped} == {"SKIP"}
        assert lines[-1] == "result: PASS"
        assert cli.main(argv + ["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"] if c["status"] == "skip"] == list(skipped)
    assert cli.main(["biject", "--map", "tau", "--n", "1", "--roundtrip"]) == 0
    assert capsys.readouterr().out == "SKIP tau_exchange\n"


def test_clamped_bound_is_noted_on_stderr(capsys):
    assert cli.main(["biject", "--map", "phi", "--n", "30", "--roundtrip"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS bijection_phi\n"
    assert captured.err == "note: bijection_phi checked n <= 6, not 30\n"

    assert cli.main(["verify", "--suite", "delannoy", "--max-n", "10"]) == 0
    captured = capsys.readouterr()
    assert "note" not in captured.out
    assert [line for line in captured.err.splitlines() if line.startswith("note: ")] == [
        "note: tau_exchange checked n <= 8, not 10",
        "note: delannoy_scaled_sums checked n <= 9, not 10",
        "note: delannoy_axis_hsteps checked n <= 5, not 10",
    ]
    # a bound every check reaches draws no note
    assert cli.main(["verify", "--suite", "delannoy", "--max-n", "5"]) == 0
    assert "note" not in capsys.readouterr().err


def _formula_off_at_one(name, n, **params):
    value = formula_vn(name, n, **params)
    return value + 1 if n == 1 else value


_FORMULA_CHECKS = (
    "geom_3x_values",
    "geom_fib_values",
    "diff_motzkin",
    "diff_schroder_large",
    "diff_schroder_small",
    "diff_narayana",
    "diff_narayana_shift",
    "chebyshev_rational_identity",
    "fuss_formulas",
)

# one wrong input in the verify namespace per check: (name, replacement)
FAULTS = {
    **{check: ("formula_vn", _formula_off_at_one) for check in _FORMULA_CHECKS},
    "master_triple_agreement": ("path_weight", lambda p, spec: 2 * path_weight(p, spec)),
    "tau_exchange": ("delannoy_convolution", lambda n, gap: delannoy_convolution(n + 1, gap)),
    "delannoy_scaled_sums": (
        "delannoy_convolution", lambda n, gap: delannoy_convolution(n + 1, gap)
    ),
    "oracle_bridges": ("catalan_number", lambda n: catalan_number(n) + 1),
    "delannoy_table": ("DELANNOY_TUPLES", ((DELANNOY_TUPLES[0][0], 8),) + DELANNOY_TUPLES[1:]),
    "delannoy_axis_hsteps": ("delannoy_hstep_count", lambda n: delannoy_hstep_count(n) + 1),
    "worked_examples": (
        "INTRO_EXAMPLE", Path("dyck", verify.INTRO_EXAMPLE.steps.replace("UDUD", "UUDD", 1))
    ),
}


def test_every_check_has_a_fault():
    # the bijection checks and target_difference_enumeration are faulted in test_bijections
    faulted_elsewhere = {f"bijection_{map_id}" for map_id in MAPS}
    faulted_elsewhere.add("target_difference_enumeration")
    assert set(FAULTS) == set(CHECKS) - faulted_elsewhere


@pytest.mark.parametrize("check", FAULTS)
def test_check_fails_on_a_wrong_input(check, monkeypatch):
    assert CHECKS[check](3).status == "pass"
    monkeypatch.setattr(verify, *FAULTS[check])
    result = CHECKS[check](3)
    assert result.status == "fail"
    assert " != " in result.detail, result.detail  # a comparison caught it, not an exception


def test_binomial_forms_of_delannoy_fail_by_comparison(monkeypatch):
    # delannoy_number computes one form; oracle_bridges compares it with the other
    monkeypatch.setattr(verify, "delannoy_number", lambda n: delannoy_number(n) + (n == 7))
    result = CHECKS["oracle_bridges"](3)
    assert result.detail == "Delannoy binomial forms, n=7: 48640 != 48639"


def _other(obj):
    """A decoration of ``obj``'s structure other than ``obj`` itself."""
    return next(c for c in decorations(obj.structure, obj.map_id) if c != obj)


def _other_example(name):
    return {**verify.DECORATED_EXAMPLES, name: _other(verify.DECORATED_EXAMPLES[name])}


def _doubled(fn):
    return lambda *args: 2 * fn(*args)


def _doubled_shape(two_weights):
    """valley_series, doubled only where gamma == alpha*beta is ``two_weights``."""
    def broken(alpha, beta, gamma):
        right = valley_series(alpha, beta, gamma)
        return 2 * right if (gamma == alpha * beta) == two_weights else right
    return broken


def _doubled_for(table):
    """valley_series, doubled only on the series of one registry table."""
    def broken(alpha, beta, gamma):
        right = valley_series(alpha, beta, gamma)
        ours = registry_get(table, alpha.order).to_series() == (alpha, beta, gamma)
        return 2 * right if ours else right
    return broken


def _formula_off_for(name):
    return lambda f, n, **params: formula_vn(f, n, **params) + (f == name)


# decorations that only the checks of the validating constructors reject;
# decorations() and inverse build theirs unchecked, so the round trip must catch them
UNCHECKED_FAULTS = {
    # one tail symbol more than the part has further peaks
    "theta": lambda deco: PartDecoration._trusted(deco.subpath, deco.symbols + ("H",)),
    # a Dyck subpath one size larger than its part takes
    "rho": lambda deco: PartDecoration._trusted(
        Path._trusted("dyck", "UD" + deco.subpath.steps), deco.symbols
    ),
}


def _corrupted_inverse(map_id, target):
    """``inverse``, with its first decoration replaced by the map's fault."""
    obj = inverse(map_id, target)
    if not obj.decorations:
        return obj
    first, *rest = obj.decorations
    return DecoratedStructure._trusted(
        map_id, obj.structure, (UNCHECKED_FAULTS[map_id](first), *rest)
    )


_SWAP_UD = str.maketrans("UD", "DU")


def _with_stray_path(family, n, filt="none"):
    """enumerate_family, plus its first path with U and D swapped, which dips below the axis."""
    paths = list(enumerate_family(family, n, filt))
    if paths and paths[0].steps:
        paths.append(Path._trusted(family, paths[0].steps.translate(_SWAP_UD)))
    return paths


@pytest.mark.parametrize("map_id", UNCHECKED_FAULTS)
def test_constructors_reject_the_unchecked_faults(map_id):
    family, filt = MAPS[map_id].target
    for n in range(2, 5):
        for target in enumerate_family(family, n, filt):
            obj = _corrupted_inverse(map_id, target)
            with pytest.raises(InvalidDecoration):
                DecoratedStructure(map_id, obj.structure, obj.decorations)


def test_the_stray_path_is_outside_its_family():
    stray = _with_stray_path("schroder_small", 2, "first_two_not_ud")[-1]
    with pytest.raises(NegativeLevel):
        Path(stray.family, stray.steps)


# one property a check compares, broken in the verify namespace, and the label
# of the comparison that must catch it: (check, attribute, replacement, label)
PROPERTY_FAULTS = {
    **{
        f"{name}_example": ("worked_examples", "DECORATED_EXAMPLES", _other_example(name),
                            f"{name.capitalize()} image shape")
        for name in ("motzkin", "schroder", "narayana")
    },
    "example_weight": ("worked_examples", "decorated_weight", _doubled(decorated_weight),
                       "Motzkin example weight"),
    "theta_inverse": (
        "worked_examples", "inverse",
        lambda m, p: _other(inverse(m, p)) if m == "theta" else inverse(m, p),
        "Schroder inverse of the image",
    ),
    "exchange_letters": ("worked_examples", "tau_ustep_weights",
                         lambda f, side: tau_ustep_weights(f, side)[::-1],
                         "exchange source letters"),
    "exchange_image": ("worked_examples", "EXCHANGE_IMAGE", verify.EXCHANGE_SOURCE.to_path(),
                       "exchange image path"),
    **{
        f"tau_values_n{n}": (
            "tau_exchange", "tau_value",
            lambda t, n=n: tau_value(t) + (t.side == "dst_2174" and tau_structure(t).semilength == n),
            f"n={n}: letter values",
        )
        for n in range(2, 7)
    },
    "narayana_bridge": ("oracle_bridges", "narayana_polynomial",
                        lambda n: narayana_polynomial(n) * T,
                        "t -> q+1 bridge, n=0"),
    "small_schroder_scaling": ("oracle_bridges", "schroder_small_polynomial",
                               _doubled(schroder_small_polynomial), "small/large Schroder, n=1"),
    # every check whose series has gamma == alpha*beta reads it through
    # valley_series, the route the series command takes
    **{
        f"{check}_two_weight_series": (check, "valley_series", _doubled_shape(True), label)
        for check, label in {
            "geom_3x_values": "geom_3x n=0",
            "geom_fib_values": "geom_fib n=0",
            **{
                "diff_" + spec.formula.removesuffix("_diff"): f"{spec.formula} n=0"
                for spec in MAPS.values()
            },
            "chebyshev_rational_identity": "chebyshev_closed n=0",
            "delannoy_table": "tuple (4, 3, 7, 2) vs 1 + 7x^2/(1-6x+x^2)",
        }.items()
    },
    "fuss_two_weight_series": ("fuss_formulas", "valley_series", _doubled_shape(True),
                               "fuss_sym {'m': 1, 'r': 1} n=0"),
    "fuss_three_weight_series": ("fuss_formulas", "valley_series", _doubled_shape(False),
                                 "fuss_cubic {'m': 1, 'r': 1} n=0"),
    "fuss_asym_collapse": ("fuss_formulas", "formula_vn", _formula_off_for("fuss_asym_collapse"),
                           "asymmetric collapse r=1 n=0"),
    "fuss_cubic_collapse": ("fuss_formulas", "formula_vn", _formula_off_for("fuss_cubic_collapse"),
                            "cubic collapse r=1 n=0"),
    "master_structure_sums": ("master_triple_agreement", "valley_weight_sum",
                              _doubled(valley_weight_sum), "n=0: structures vs series"),
    "geom_3x_structure_sums": ("geom_3x_values", "valley_weight_sum",
                               _doubled(valley_weight_sum), "enumeration n=0"),
    "geom_fib_structure_sums": ("geom_fib_values", "valley_weight_sum",
                                _doubled(valley_weight_sum), "enumeration n=0"),
    "chebyshev_second_kind": ("chebyshev_rational_identity", "valley_series",
                              _doubled_for("chebyshev_second"), "chebyshev_second n=0"),
    **{
        f"unchecked_{map_id}_decoration": (f"bijection_{map_id}", "inverse", _corrupted_inverse,
                                           "n=2: inverse(forward)")
        for map_id in UNCHECKED_FAULTS
    },
    "stray_target_path": ("bijection_sigma", "enumerate_family", _with_stray_path,
                          "n=2: image multiset"),
}


@pytest.mark.parametrize("fault", PROPERTY_FAULTS)
def test_check_catches_a_broken_property(fault, monkeypatch):
    # test_check_bounds_match_their_clamps shows each check passes unbroken
    check, attr, replacement, label = PROPERTY_FAULTS[fault]
    monkeypatch.setattr(verify, attr, replacement)
    result = CHECKS[check](6)
    assert result.status == "fail"
    assert result.detail.startswith(f"{label}: ") and " != " in result.detail, result.detail


# one side's marker set to the other side's in the side table that tau_value and
# tau_ustep_weights read, and the worked example that catches it
@pytest.mark.parametrize("side, marker, example", [
    ("src_4372", "1", "exchange source letters"),
    ("dst_2174", "3", "exchange image letters"),
])
def test_checks_catch_a_wrong_tau_marker(side, marker, example, monkeypatch):
    letters, _, far = bijections.TAU_TABLE[side]
    monkeypatch.setitem(bijections.TAU_TABLE, side, (letters, marker, far))
    for check, detail in (("tau_exchange", "n=3: letter values: 21 != 7"),
                          ("worked_examples", f"{example}: ")):
        result = CHECKS[check](6)
        assert result.status == "fail" and result.detail.startswith(detail), result.detail


_WRONG_SCHRODER_BETA = Equation(((0, 1, 1), (1, 1, Q + 2), (2, 1, Q + 2)))

# a wrong coefficient in one entry of series.EQUATIONS, which the weight
# table is built from, or which oracle_bridges solves on its own; the oracle
# side is a binomial sum that never sees it.
# Both Schroder tables solve the large beta series, since S - 1 = (R - 1) / (q + 1)
EQUATION_FAULTS = {
    "diff_motzkin": ("motzkin_ab", Equation(((0, 0, 1), (1, 1, A), (2, 2, 2 * B)))),
    "diff_schroder_large": ("schroder_large_beta", _WRONG_SCHRODER_BETA),
    "diff_schroder_small": ("schroder_large_beta", _WRONG_SCHRODER_BETA),
    "oracle_bridges": ("narayana", Equation(((0, 0, 1), (1, 1, T - 2), (2, 1, 1)))),
}


def _clear_series_caches():
    series.named_series.cache_clear()
    weights._registry_get_cached.cache_clear()


@pytest.mark.parametrize("check", EQUATION_FAULTS)
def test_diff_check_fails_on_a_wrong_equation(check, monkeypatch):
    name, wrong = EQUATION_FAULTS[check]
    assert verify.run_check(check, 6).passed
    monkeypatch.setitem(series.EQUATIONS, name, wrong)
    _clear_series_caches()
    try:
        report = verify.run_check(check, 6)
    finally:
        monkeypatch.undo()
        _clear_series_caches()
    (result,) = report.results
    assert not report.passed and result.status == "fail"
    assert " != " in result.detail, result.detail  # a comparison caught it, not an exception


_MAC = series._mac


def _dropping_first_pair(pairs):
    """The scalar kernel, broken: a coefficient of two or more pairs of factors
    loses its first pair."""
    return _MAC(pairs[1:] if len(pairs) > 1 else pairs)


# checks whose tables are all numbers, so every convolution in them runs on
# the scalar kernel, and the comparison that catches it broken
KERNEL_FAULTS = {
    "geom_3x_values": "geom_3x n=2",
    "delannoy_scaled_sums": "n=2, tuple (4, 3, 7, 2) vs 7 * convolution",
    "fuss_formulas": "fuss_sym {'m': 1, 'r': 1} n=3",
}


@pytest.mark.parametrize("check", KERNEL_FAULTS)
def test_check_catches_a_broken_scalar_kernel(check, monkeypatch):
    assert verify.run_check(check, 6).passed
    alpha, beta, _ = registry_get("geom_3x", 8).to_series()
    product = alpha * beta
    monkeypatch.setattr(series, "_mac", _dropping_first_pair)
    # the fault reaches a product of two weight series, whose b_0 is 0
    assert alpha * beta != product
    _clear_series_caches()
    try:
        result = CHECKS[check](6)
    finally:
        monkeypatch.undo()
        _clear_series_caches()
    assert result.status == "fail"
    assert result.detail.startswith(f"{KERNEL_FAULTS[check]}: ") and " != " in result.detail


# checks whose tables hold a formal inverse variable, and the comparison that
# catches products that skip the inverse rewrite
INVERSE_FAULTS = {
    "diff_motzkin": "motzkin_diff n=2",
    "diff_narayana_shift": "narayana_shift_diff n=2",
}


@pytest.mark.parametrize("check", INVERSE_FAULTS)
def test_check_catches_products_that_skip_the_inverse_rewrite(check, monkeypatch):
    assert verify.run_check(check, 6).passed
    # the finishing pass of every product then looks for guard bits only
    monkeypatch.setattr(polynomials, "_FLAGS", polynomials._GUARD)
    _clear_series_caches()
    try:
        result = CHECKS[check](6)
    finally:
        monkeypatch.undo()
        _clear_series_caches()
    assert result.status == "fail"
    assert result.detail.startswith(f"{INVERSE_FAULTS[check]}: ") and " != " in result.detail


def _without_h_above_the_axis(family, n, filt="none"):
    """enumerate_family, broken: the walk never takes an H step above the axis."""
    for path in enumerate_family(family, n, filt):
        if not any(ch == "H" and level for ch, level in zip(path.steps, path.levels())):
            yield path


_NUMBER_SUM = weights._number_sum


def _dropping_last_structure(rows):
    """The numeric structure sum, broken: the last structure's weight is left out."""
    return _NUMBER_SUM(list(rows)[:-1])


def _longer_runs(steps):
    """valley_factors, broken: each maximal pyramid is as high as its longer run."""
    for start, end, valleys, _ in paths.valley_factors(steps):
        runs = [len(list(run)) for _, run in groupby(steps[start:end])]
        yield start, end, valleys, [max(pair) for pair in zip(runs[::2], runs[1::2])]


# faults in the brute-force routes, each set in the module that runs it, and
# the comparison that catches it: (check, module, attribute, replacement, label)
BRUTE_FORCE_FAULTS = {
    "walker_targets": ("bijection_theta", verify, "enumerate_family",
                       _without_h_above_the_axis, "n=2: image multiset"),
    "walker_target_sums": ("target_difference_enumeration", weights, "enumerate_family",
                           _without_h_above_the_axis, "schroder_large/schroder_q at n=2"),
    "numeric_geom_sum": ("geom_3x_values", weights, "_number_sum", _dropping_last_structure,
                         "enumeration n=0"),
    "numeric_delannoy_sum": ("delannoy_scaled_sums", weights, "_number_sum",
                             _dropping_last_structure,
                             "n=2, tuple (4, 3, 7, 2) vs 7 * convolution"),
    "path_reader": ("master_triple_agreement", weights, "valley_factors", _longer_runs,
                    "n=3: paths vs series"),
}


@pytest.mark.parametrize("fault", BRUTE_FORCE_FAULTS)
def test_check_catches_a_broken_brute_force_route(fault, monkeypatch):
    check, module, attr, replacement, label = BRUTE_FORCE_FAULTS[fault]
    assert CHECKS[check](6).status == "pass"
    monkeypatch.setattr(module, attr, replacement)
    result = CHECKS[check](6)
    assert result.status == "fail"
    assert result.detail.startswith(f"{label}: ") and " != " in result.detail, result.detail


def test_max_n_cap(assert_capped):
    # the cap lets every check reach its own clamp and admits the largest
    # bound the tests use (10)
    clamps = max(max(UPTO.values()), max(LEAST.values()))
    assert set(cli.SIZE_CAPS["verify"][2]) == set(verify.SUITES)
    for suite in verify.SUITES:
        assert_capped("verify", suite, in_use=max(10, clamps))
