"""The verify runner: effective bounds, skipped checks, clamp notes, and faults.

Every fault test is one row of ``FAULTS``, run by one harness: a fault put
into the program must make its check fail with the comparison, or the error,
that the row names.  A new check adds a row, and so does the fix for a mutant
that the verify suites let survive (the mutation sweep in ROADMAP.md).
"""

import json
import sys
from itertools import groupby

import pytest

from conftest import rebuilt
from valleydyck import bijections, cli, paths, polynomials, series, verify, weights
from valleydyck.bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    decorated_weight,
    decorations,
    enumerate_decorated,
    enumerate_tau,
    inverse,
    tau_apply,
    tau_structure,
    tau_ustep_weights,
    tau_value,
)
from valleydyck.errors import InvalidDecoration, NegativeLevel, NotAContraction
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
from valleydyck.polynomials import Polynomial
from valleydyck.series import Equation, TruncatedSeries, valley_series
from valleydyck.verify import CHECKS
from valleydyck.weights import (
    DELANNOY_TUPLES,
    path_weight,
    registry_get,
    target_weight,
    valley_weight_sum,
)

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


def _doubled(fn, when=lambda *args, **kw: True):
    """``fn``, its value doubled where ``when`` holds of the arguments."""
    return lambda *args, **kw: (2 if when(*args, **kw) else 1) * fn(*args, **kw)


def _plus_one(fn, when=lambda *args, **kw: True):
    """``fn``, its value plus one where ``when`` holds of the arguments."""
    return lambda *args, **kw: fn(*args, **kw) + bool(when(*args, **kw))


def _two_weights(alpha, beta, gamma):
    """Whether the series are those of a two-weight table, gamma == alpha*beta."""
    return gamma == alpha * beta


def _other(obj):
    """A decoration of ``obj``'s structure other than ``obj`` itself."""
    return next(c for c in decorations(obj.structure, obj.map_id) if c != obj)


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


def _without_h_above_the_axis(family, n, filt="none"):
    """enumerate_family, broken: the walk never takes an H step above the axis."""
    for path in enumerate_family(family, n, filt):
        if not any(ch == "H" and level for ch, level in zip(path.steps, path.levels())):
            yield path


_MAC = series._mac
_NUMBER_SUM = weights._number_sum


def _dropping_first_pair(products):
    """The scalar kernel, broken: a coefficient of two or more products (pairs
    of factors, multiplied) loses its first product."""
    return _MAC(products[1:] if len(products) > 1 else products)


def _dropping_last_structure(rows):
    """The numeric structure sum, broken: the last structure's weight is left out."""
    return _NUMBER_SUM(list(rows)[:-1])


def _longer_runs(steps):
    """valley_factors, broken: each maximal pyramid is as high as its longer run."""
    for start, end, valleys, _ in paths.valley_factors(steps):
        runs = [len(list(run)) for _, run in groupby(steps[start:end])]
        yield start, end, valleys, [max(pair) for pair in zip(runs[::2], runs[1::2])]


# the label of the first coefficient comparison of each check that compares a
# series with a closed form
SERIES_LABELS = {
    "geom_3x_values": "geom_3x",
    "geom_fib_values": "geom_fib",
    **{"diff_" + spec.formula.removesuffix("_diff"): spec.formula for spec in MAPS.values()},
    "chebyshev_rational_identity": "chebyshev_closed",
    "fuss_formulas": "fuss_sym {'m': 1, 'r': 1}",
}
_WRONG_SCHRODER_BETA = Equation(((0, 1, 1), (1, 1, Q + 2), (2, 1, Q + 2)))

ONE = Polynomial.one()

# Every check's faults, one a row: (check, target, name, replacement, label).
# The target is a module, whose attribute ``name`` is set to the replacement,
# or a table, whose entry ``name`` is; the check must then fail with a detail
# that starts "{label}: ", the comparison that catches the fault or the error
# it raises.
FAULTS = [
    # a closed form off by one at n = 1, on the oracle side
    *((check, verify, "formula_vn", _plus_one(formula_vn, lambda f, n, **kw: n == 1),
       f"{label} n=1") for check, label in SERIES_LABELS.items()),
    # every series with gamma == alpha*beta is read through valley_series, the
    # route the series command takes; Fuss's third table has gamma == alpha
    *((check, verify, "valley_series", _doubled(valley_series, _two_weights), f"{label} n=0")
      for check, label in SERIES_LABELS.items()),
    ("delannoy_table", verify, "valley_series", _doubled(valley_series, _two_weights),
     "tuple (4, 3, 7, 2) vs 1 + 7x^2/(1-6x+x^2)"),
    ("fuss_formulas", verify, "valley_series",
     _doubled(valley_series, lambda *s: not _two_weights(*s)), "fuss_cubic {'m': 1, 'r': 1} n=0"),
    ("chebyshev_rational_identity", verify, "valley_series",
     _doubled(valley_series,
              lambda *s: s == registry_get("chebyshev_second", s[0].order).to_series()),
     "chebyshev_second n=0"),
    ("fuss_formulas", verify, "formula_vn",
     _plus_one(formula_vn, lambda f, n, **kw: f == "fuss_asym_collapse"),
     "asymmetric collapse r=1 n=0"),
    ("fuss_formulas", verify, "formula_vn",
     _plus_one(formula_vn, lambda f, n, **kw: f == "fuss_cubic_collapse"),
     "cubic collapse r=1 n=0"),
    # the structure sums and the path sums
    *((check, verify, "valley_weight_sum", _doubled(valley_weight_sum), label)
      for check, label in (("master_triple_agreement", "n=0: structures vs series"),
                           ("geom_3x_values", "enumeration n=0"),
                           ("geom_fib_values", "enumeration n=0"))),
    ("master_triple_agreement", verify, "path_weight", _doubled(path_weight),
     "n=0: paths vs series"),
    ("master_triple_agreement", weights, "valley_factors", _longer_runs, "n=3: paths vs series"),
    ("geom_3x_values", weights, "_number_sum", _dropping_last_structure, "enumeration n=0"),
    ("delannoy_scaled_sums", weights, "_number_sum", _dropping_last_structure,
     "n=2, tuple (4, 3, 7, 2) vs 7 * convolution"),
    # the scalar kernel: these checks' tables are all numbers
    ("geom_3x_values", series, "_mac", _dropping_first_pair, "geom_3x n=2"),
    ("delannoy_scaled_sums", series, "_mac", _dropping_first_pair,
     "n=2, tuple (4, 3, 7, 2) vs 7 * convolution"),
    ("fuss_formulas", series, "_mac", _dropping_first_pair, "fuss_sym {'m': 1, 'r': 1} n=3"),
    # products that skip the inverse rewrite, in the tables that hold a formal
    # inverse: the finishing pass then looks for guard bits only (those of the
    # variables assigned when this module is imported, every variable they read)
    ("diff_motzkin", polynomials, "_FLAGS", polynomials._GUARD, "motzkin_diff n=2"),
    ("diff_narayana_shift", polynomials, "_FLAGS", polynomials._GUARD, "narayana_shift_diff n=2"),
    # a wrong coefficient in an equation a table is built from, or one
    # oracle_bridges solves on its own; both Schroder tables solve the large
    # beta series, since S - 1 = (R - 1) / (q + 1)
    ("diff_motzkin", series.EQUATIONS, "motzkin_ab",
     Equation(((0, 0, 1), (1, 1, A), (2, 2, 2 * B))), "motzkin_diff n=4"),
    ("diff_schroder_large", series.EQUATIONS, "schroder_large_beta", _WRONG_SCHRODER_BETA,
     "schroder_large_diff n=4"),
    ("diff_schroder_small", series.EQUATIONS, "schroder_large_beta", _WRONG_SCHRODER_BETA,
     "schroder_small_diff n=4"),
    ("oracle_bridges", series.EQUATIONS, "narayana",
     Equation(((0, 0, 1), (1, 1, T - 2), (2, 1, 1))), "narayana n=1"),
    # the oracles and bridges
    ("oracle_bridges", verify, "catalan_number", _plus_one(catalan_number),
     "peak polynomial at t=1, n=0"),
    ("oracle_bridges", verify, "narayana_polynomial", lambda n: narayana_polynomial(n) * T,
     "t -> q+1 bridge, n=0"),
    ("oracle_bridges", verify, "schroder_small_polynomial", _doubled(schroder_small_polynomial),
     "small/large Schroder, n=1"),
    # delannoy_number computes one binomial form; oracle_bridges compares it with the other
    ("oracle_bridges", verify, "delannoy_number", _plus_one(delannoy_number, lambda n: n == 7),
     "Delannoy binomial forms, n=7"),
    ("delannoy_axis_hsteps", verify, "delannoy_hstep_count", _plus_one(delannoy_hstep_count),
     "n=1"),
    ("delannoy_table", verify, "DELANNOY_TUPLES",
     ((DELANNOY_TUPLES[0][0], 8), *DELANNOY_TUPLES[1:]),
     "tuple (4, 3, 7, 2) vs 1 + 8x^2/(1-6x+x^2)"),
    *((check, verify, "delannoy_convolution", lambda n, gap: delannoy_convolution(n + 1, gap),
       label) for check, label in (("tau_exchange", "n=2: far-side sum vs 7 * convolution"),
                                   ("delannoy_scaled_sums",
                                    "n=2, tuple (4, 3, 7, 2) vs 7 * convolution"))),
    # the exchange: one side's pyramid marker set to the other side's, and the
    # letter values of the far side's objects of one size
    *((check, bijections.TAU_TABLE, side, (letters, bijections.TAU_TABLE[far][1], far), label)
      for (side, (letters, _, far)), role in zip(bijections.TAU_TABLE.items(), ("source", "image"))
      for check, label in (("tau_exchange", "n=3: letter values"),
                           ("worked_examples", f"exchange {role} letters"))),
    *(("tau_exchange", verify, "tau_value",
       _plus_one(tau_value, lambda t, n=n:
                 t.side == "dst_2174" and tau_structure(t).semilength == n),
       f"n={n}: letter values") for n in range(2, 7)),
    # the worked examples
    ("worked_examples", verify, "INTRO_EXAMPLE",
     Path("dyck", verify.INTRO_EXAMPLE.steps.replace("UDUD", "UUDD", 1)),
     "introductory example weight"),
    *(("worked_examples", verify, "DECORATED_EXAMPLES",
       {**verify.DECORATED_EXAMPLES, name: _other(verify.DECORATED_EXAMPLES[name])},
       f"{name.capitalize()} image shape") for name in ("motzkin", "schroder", "narayana")),
    ("worked_examples", verify, "decorated_weight", _doubled(decorated_weight),
     "Motzkin example weight"),
    ("worked_examples", verify, "inverse",
     lambda m, p: _other(inverse(m, p)) if m == "theta" else inverse(m, p),
     "Schroder inverse of the image"),
    ("worked_examples", verify, "tau_ustep_weights",
     lambda f, side: tau_ustep_weights(f, side)[::-1], "exchange source letters"),
    ("worked_examples", verify, "EXCHANGE_IMAGE", verify.EXCHANGE_SOURCE.to_path(),
     "exchange image path"),
    # the bijections: a round trip, completeness and weights, each broken for every map
    *((f"bijection_{map_id}", verify, "inverse",
       lambda m, p: next(iter(enumerate_decorated(p.size, m))), f"n={n}: inverse(forward)")
      for map_id, n in {"phi": 3, "theta": 2, "sigma": 2, "rho": 3, "psi": 3}.items()),
    *((f"bijection_{map_id}", verify, name, replacement, f"n=0: {label}")
      for map_id in MAPS
      for name, replacement, label in (
          ("enumerate_family",
           lambda family, n, filt="none": list(enumerate_family(family, n, filt))[1:],
           "image multiset"),
          ("target_weight", _doubled(target_weight), "(image, weight)"))),
    *((f"bijection_{map_id}", verify, "inverse", _corrupted_inverse, "n=2: inverse(forward)")
      for map_id in UNCHECKED_FAULTS),
    ("bijection_sigma", verify, "enumerate_family", _with_stray_path, "n=2: image multiset"),
    ("bijection_theta", verify, "enumerate_family", _without_h_above_the_axis,
     "n=2: image multiset"),
    ("target_difference_enumeration", weights, "enumerate_family", _without_h_above_the_axis,
     "schroder_large/schroder_q at n=2"),
    # one wrong fact in a map's record
    ("bijection_psi", MAPS, "psi", rebuilt(MAPS["psi"], tail=((None, "UD", T),)),
     "n=3: (image, weight)"),
    ("bijection_sigma", MAPS, "sigma", rebuilt(MAPS["sigma"], tail=((None, "H", ONE),)),
     "FamilyViolation"),
    ("bijection_theta", MAPS, "theta",
     rebuilt(MAPS["theta"], tail=(("H", "H", ONE), ("ud", "UD", ONE))),
     "n=3: (image, weight)"),
    ("bijection_phi", MAPS, "phi", rebuilt(MAPS["phi"], core=A), "n=2: (image, weight)"),
    ("bijection_rho", MAPS, "rho", rebuilt(MAPS["rho"], target_weighting="level_peaks"),
     "n=3: (image, weight)"),
    ("target_difference_enumeration", MAPS, "sigma",
     rebuilt(MAPS["sigma"], formula="schroder_large_diff"),
     "schroder_small/schroder_q at n=3"),
]


def _clear_series_caches():
    series.named_series.cache_clear()
    weights._registry_get_cached.cache_clear()


def test_every_check_has_a_fault():
    assert {row[0] for row in FAULTS} == set(CHECKS)


@pytest.mark.parametrize("check, target, name, replacement, label", FAULTS,
                         ids=[f"{row[0]}-{row[2]}" for row in FAULTS])
def test_check_catches_its_fault(check, target, name, replacement, label, monkeypatch):
    # test_check_bounds_match_their_clamps shows each check passes unbroken
    _clear_series_caches()
    patch = monkeypatch.setitem if isinstance(target, dict) else monkeypatch.setattr
    patch(target, name, replacement)
    try:
        result = CHECKS[check](6)
    finally:
        monkeypatch.undo()
        _clear_series_caches()
    assert result.status == "fail"
    assert result.detail.startswith(f"{label}: "), result.detail


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


def test_the_kernel_fault_changes_a_product(monkeypatch):
    # every numeric convolution calls the kernel itself: a product of two
    # weight series, whose b_0 is 0, a square, a quotient, and the solver's
    # step that forms F's next coefficient, whose own check then fails
    alpha, beta, _ = registry_get("geom_3x", 8).to_series()
    one = TruncatedSeries.one(8)
    den = one - alpha - alpha * beta
    results = (alpha * beta, (one - alpha) ** 2, (one - alpha) / den)
    callers = set()

    def dropping(products):
        callers.add(sys._getframe(1).f_code.co_name)
        return _dropping_first_pair(products)

    _clear_series_caches()
    monkeypatch.setattr(series, "_mac", dropping)
    faulty = (alpha * beta, (one - alpha) ** 2, (one - alpha) / den)
    assert all(map(TruncatedSeries.__ne__, faulty, results))
    assert callers == {"_product", "__truediv__"}
    callers.clear()
    pins = (("a", Polynomial.const(2)), ("b", Polynomial.const(3)))
    with pytest.raises(NotAContraction):
        series.named_series("motzkin_ab", 8, pins=pins)
    assert "solve_equation" in callers


@pytest.mark.parametrize("check", [
    *(f"bijection_{map_id}" for map_id in MAPS), "tau_exchange",
    "target_difference_enumeration", "worked_examples", "delannoy_axis_hsteps",
])
def test_brute_force_checks_reach_no_series_code(check):
    # neither series.py nor the methods Value compiles for TruncatedSeries;
    # with the caches cleared, a cached table cannot hide a call
    series_code = {series.__file__, TruncatedSeries.__eq__.__code__.co_filename}
    reached = set()
    _clear_series_caches()
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code.co_filename))
    try:
        result = CHECKS[check](6)
    finally:
        sys.setprofile(None)
    assert result.status == "pass"
    assert not reached & series_code, reached & series_code


@pytest.mark.parametrize("map_id", MAPS)
def test_a_bijection_check_inverts_each_object_once(map_id, monkeypatch):
    # the multiset of images already implies forward(inverse(p)) == p
    inverted = []
    monkeypatch.setattr(verify, "inverse", lambda m, p: inverted.append(p) or inverse(m, p))
    assert CHECKS[f"bijection_{map_id}"](6).status == "pass"
    assert len(inverted) == sum(1 for n in range(7) for _ in enumerate_decorated(n, map_id))


def test_the_exchange_check_applies_tau_only_to_source_objects_and_their_images(monkeypatch):
    # the far side equals the images, whose round trips already passed
    far_side, applied = [], []

    def enumerating(n, side):
        for obj in enumerate_tau(n, side):
            if side == "dst_2174":
                far_side.append(obj)
            yield obj

    monkeypatch.setattr(verify, "enumerate_tau", enumerating)
    monkeypatch.setattr(verify, "tau_apply", lambda t: applied.append(t) or tau_apply(t))
    assert CHECKS["tau_exchange"](8).status == "pass"
    sources = sum(1 for n in range(2, 9) for _ in enumerate_tau(n, "src_4372"))
    assert len(applied) == 2 * sources
    # both lists hold their objects, so no two of them share an id
    assert not {id(obj) for obj in far_side} & {id(obj) for obj in applied}


def test_max_n_cap(assert_capped):
    # the cap lets every check reach its own clamp and admits the largest
    # bound the tests use (10)
    clamps = max(max(UPTO.values()), max(LEAST.values()))
    assert set(cli.SIZE_CAPS["verify"][2]) == set(verify.SUITES)
    for suite in verify.SUITES:
        assert_capped("verify", suite, in_use=max(10, clamps))
