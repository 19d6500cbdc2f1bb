"""Named verification suites behind the command line ``verify`` subcommand.

Each check is a pure function of the sweep bound ``max_n`` returning a
:class:`CheckResult`; suites are ordered tuples of check names, and a run
reports results in declaration order no matter how many worker processes
computed them, so reports are byte-identical for any ``--jobs`` value.
Checks that enumerate objects exhaustively clamp their own bound where the
underlying identity was only ever stated for a finite range.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    TauDecorated,
    TauFactor,
    decorations,
    enumerate_decorated,
    enumerate_tau,
    forward,
    inverse,
    decorated_weight,
    tau_apply,
    tau_ustep_weights,
    tau_value,
)
from .errors import BadParams
from .oracles import (
    catalan_number,
    delannoy_hstep_count,
    delannoy_number,
    formula_vn,
    narayana_polynomial,
    schroder_large_polynomial,
    schroder_small_polynomial,
)
from .paths import (
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    is_valley_uniform,
)
from .polynomials import Polynomial
from .series import TruncatedSeries, valley_series, valley_series_ab
from .weights import (
    DELANNOY_TUPLES,
    path_weight,
    registry_get,
    target_weight,
    target_weight_sum,
    valley_weight_sum,
)

_A = Polynomial.var("a")
_B = Polynomial.var("b")
_Q = Polynomial.var("q")
_T = Polynomial.var("t")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    max_n: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
                for r in self.results
            ],
        }


CHECKS: dict[str, Callable[[int], CheckResult]] = {}


def _check(name: str):
    def wrap(fn):
        CHECKS[name] = fn
        return fn

    return wrap


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _ok(name: str) -> CheckResult:
    return CheckResult(name, True)


@_check("master_triple_agreement")
def _master_triple(max_n: int) -> CheckResult:
    """Structure sums, series coefficients, and raw path sums all agree."""
    bound = min(max_n, 7)
    spec = registry_get("generic", bound)
    series = valley_series(*spec.to_series())
    for n in range(bound + 1):
        by_structures = valley_weight_sum(n, spec)
        by_series = series.coefficient(n)
        by_paths = Polynomial.sum(
            path_weight(p, spec) for p in enumerate_family("dyck", n) if is_valley_uniform(p)
        )
        if not (by_structures == by_series == by_paths):
            return _fail(
                "master_triple_agreement",
                f"n={n}: structures {by_structures} / series {by_series} / paths {by_paths}",
            )
    return _ok("master_triple_agreement")


def _geom_check(check_name: str, table: str, formula: str, max_n: int) -> CheckResult:
    spec = registry_get(table, max(max_n, 1))
    alpha, beta, _ = spec.to_series()
    series = valley_series_ab(alpha, beta)
    for n in range(max_n + 1):
        want = formula_vn(formula, n)
        if series.coefficient(n) != want:
            return _fail(check_name, f"n={n}: series {series.coefficient(n)} != {want}")
    small_spec = registry_get(table, min(max_n, 6))
    for n in range(min(max_n, 6) + 1):
        if valley_weight_sum(n, small_spec) != formula_vn(formula, n):
            return _fail(check_name, f"n={n}: enumeration disagrees with the closed form")
    return _ok(check_name)


@_check("geom_3x_values")
def _geom_3x(max_n: int) -> CheckResult:
    return _geom_check("geom_3x_values", "geom_3x", "geom_3x", max_n)


@_check("geom_fib_values")
def _geom_fib(max_n: int) -> CheckResult:
    return _geom_check("geom_fib_values", "geom_fib", "geom_fib", max_n)


def _difference_check(check_name: str, map_id: str, max_n: int) -> CheckResult:
    spec = MAPS[map_id]
    alpha, beta, gamma = registry_get(spec.registry, max(max_n, 1)).to_series()
    series = valley_series_ab(alpha, beta)
    if gamma != alpha * beta:
        return _fail(check_name, "registry gamma is not alpha*beta")
    for n in range(max_n + 1):
        want = formula_vn(spec.formula, n)
        got = series.coefficient(n)
        if got != want:
            return _fail(check_name, f"n={n}: {got} != {want}")
    return _ok(check_name)


for _map, _spec in MAPS.items():
    # diff_motzkin checks the map whose summed weight is motzkin_diff, and so on
    _name = "diff_" + _spec.formula.removesuffix("_diff")
    CHECKS[_name] = (lambda nm, m: lambda max_n: _difference_check(nm, m, max_n))(_name, _map)


def _bijection_check(map_id: str, max_n: int) -> CheckResult:
    name = f"bijection_{map_id}"
    bound = min(max_n, 6)
    spec = MAPS[map_id]
    family, filt = spec.target
    weighting = spec.target_weighting
    for n in range(bound + 1):
        weights = []
        images = []
        for obj in enumerate_decorated(n, map_id):
            image = forward(map_id, obj)
            if inverse(map_id, image) != obj:
                return _fail(name, f"n={n}: inverse(forward) is not the identity")
            weight = decorated_weight(obj)
            if weight != target_weight(image, weighting):
                return _fail(name, f"n={n}: weight not preserved on {image.steps!r}")
            weights.append(weight)
            images.append(image.steps)
        targets = [p.steps for p in enumerate_family(family, n, filt)]
        if Counter(images) != Counter(targets):
            return _fail(name, f"n={n}: image multiset differs from the target family")
        for p in enumerate_family(family, n, filt):
            if forward(map_id, inverse(map_id, p)).steps != p.steps:
                return _fail(name, f"n={n}: forward(inverse) moved {p.steps!r}")
        total = Polynomial.sum(weights)
        want = formula_vn(spec.formula, n)
        if total != want:
            return _fail(name, f"n={n}: aggregate {total} != {want}")
    return _ok(name)


for _map in MAPS:
    CHECKS[f"bijection_{_map}"] = (lambda m: lambda max_n: _bijection_check(m, max_n))(_map)


def _structure_total(map_id: str, structure: ValleyStructure) -> Polynomial:
    """Summed weight of every decoration of one valley structure."""
    return Polynomial.sum(decorated_weight(c) for c in decorations(structure, map_id))


_INTRO_EXAMPLE = "UUU" + "UUUDDD" + "UDUD" + "DDD" + "UU" + "UDUD" + "DD" + "UU" + "DD"


@_check("worked_examples")
def _worked_examples(max_n: int) -> CheckResult:
    name = "worked_examples"
    # valley-weight product of the introductory example path
    spec = registry_get("generic", 14)
    var = Polynomial.var
    want = var("alpha1") ** 4 * var("alpha3") * var("beta2") * var("beta3") * var("gamma2")
    if path_weight(Path("dyck", _INTRO_EXAMPLE), spec) != want:
        return _fail(name, "introductory example weight is wrong")

    # Motzkin example: image shape and the summed structure weight
    structure = ValleyStructure((Pyramid(5), ValleyBlock(3, (1, 1, 1, 1)), Pyramid(2)))
    obj = DecoratedStructure(
        "phi",
        structure,
        (
            PartDecoration(Path("motzkin", "FFF")),
            PartDecoration(Path("motzkin", "FF")),
            PartDecoration(Path("motzkin", "")),
        ),
    )
    if forward("phi", obj).steps != "UFFFDUFFDFFFUD":
        return _fail(name, "Motzkin image shape is wrong")
    total = _structure_total("phi", structure)
    if total != _A**3 * _B**3 * (_A**2 + _B) * (_A**3 + 3 * _A * _B):
        return _fail(name, "Motzkin example weight is wrong")

    # Schroder example
    structure = ValleyStructure((Pyramid(3), ValleyBlock(1, (1, 1, 1))))
    obj = DecoratedStructure(
        "theta",
        structure,
        (
            PartDecoration(Path("schroder_large", "HH")),
            PartDecoration(Path("schroder_large", "H"), ("H", "ud")),
        ),
    )
    if forward("theta", obj).steps != "UHHDUHDHUD":
        return _fail(name, "Schroder image shape is wrong")
    total = _structure_total("theta", structure)
    if total != (_Q + 2) * (_Q + 1) ** 4:
        return _fail(name, "Schroder example weight is wrong")

    # Narayana example
    structure = ValleyStructure((Pyramid(3), ValleyBlock(2, (1, 1, 1, 1))))
    obj = DecoratedStructure(
        "rho",
        structure,
        (PartDecoration(Path("dyck", "UUDD")), PartDecoration(Path("dyck", "UDUD"))),
    )
    if forward("rho", obj).steps != "UUUDDDUUDUDDUDUDUD":
        return _fail(name, "Narayana image shape is wrong")
    total = _structure_total("rho", structure)
    if total != (_T + _T * _T) ** 2 * _T**3:
        return _fail(name, "Narayana example weight is wrong")

    # the integer-weight exchange example
    src = TauDecorated(
        "src_4372",
        (TauFactor(8, (3, 1, 2), ("1", "1h", "1", "1", "1h", "1h", "1h")),),
    )
    if tau_ustep_weights(src.factors[0], "src_4372") != (
        "7", "1", "1h", "1", "1", "1h", "1h", "1h", "3", "3", "1", "1", "3", "1",
    ):
        return _fail(name, "exchange source letters are wrong")
    dst = tau_apply(src)
    if dst.to_path().steps != "U" * 6 + "UUUUDDDD" + "UD" + "UUDD" + "UD" + "D" * 6:
        return _fail(name, "exchange image path is wrong")
    if tau_ustep_weights(dst.factors[0], "dst_2174") != (
        "7", "3h", "1", "1", "3h", "3h", "1", "1", "1", "1", "1", "1", "1", "1",
    ):
        return _fail(name, "exchange image letters are wrong")
    if tau_apply(dst) != src or tau_value(src) != tau_value(dst):
        return _fail(name, "exchange round trip failed")
    return _ok(name)


@_check("chebyshev_rational_identity")
def _chebyshev_identity(max_n: int) -> CheckResult:
    name = "chebyshev_rational_identity"
    order = max(max_n, 2)
    alpha, beta, gamma = registry_get("chebyshev_abcd", order).to_series()
    series = valley_series_ab(alpha, beta)
    if gamma != alpha * beta:
        return _fail(name, "gamma is not alpha*beta")
    for n in range(order + 1):
        want = formula_vn("chebyshev_closed", n)
        if series.coefficient(n) != want:
            return _fail(name, f"n={n}: symbolic identity fails")
    instances = [
        ("abcd_power", dict(a=2, b=1, c=2, d=1)),
        ("abcd_power", dict(a=3, b=1, c=3, d=2)),
        ("abcd_chebyshev", dict(a=3, b=2, c=2, d=1)),
        ("abcd_chebyshev", dict(a=2, b=1, c=1, d=1)),
        ("abcd_fibonacci", dict(a=2, b=1, c=1, d=1)),
    ]
    for formula, params in instances:
        spec = registry_get("chebyshev_abcd", order, **params)
        a2, b2, _ = spec.to_series()
        inst = valley_series_ab(a2, b2)
        for n in range(order + 1):
            if inst.coefficient(n) != formula_vn(formula, n, **params):
                return _fail(name, f"{formula} {params} fails at n={n}")
    second = registry_get("chebyshev_second", order)
    series2 = valley_series(*second.to_series())
    for n in range(order + 1):
        if series2.coefficient(n) != formula_vn("chebyshev_second", n):
            return _fail(name, f"second family fails symbolically at n={n}")
    return _ok(name)


@_check("delannoy_table")
def _delannoy_table(max_n: int) -> CheckResult:
    name = "delannoy_table"
    order = max(max_n, 4)
    kernel = TruncatedSeries.from_coeffs([1, -6, 1], order).inverse()
    x2 = TruncatedSeries.x(order) ** 2
    series_by_tuple = {}
    for (a, b, c, d), multiplier in DELANNOY_TUPLES:
        alpha, beta, _ = registry_get("delannoy_tuple", order, a=a, b=b, c=c, d=d).to_series()
        got = valley_series_ab(alpha, beta)
        want = TruncatedSeries.one(order) + x2.scale(multiplier) * kernel
        if got != want:
            return _fail(name, f"tuple {(a, b, c, d)} does not match 1 + {multiplier}x^2/(1-6x+x^2)")
        series_by_tuple[(a, b, c, d)] = (multiplier, got)
    groups: dict[int, list] = {}
    for key, (multiplier, got) in series_by_tuple.items():
        groups.setdefault(multiplier, []).append(got)
    for multiplier, members in groups.items():
        if any(m != members[0] for m in members[1:]):
            return _fail(name, f"tuples with multiplier {multiplier} disagree")
    v4 = series_by_tuple[(4, 3, 7, 2)][1].coefficient(4)
    if v4 != 245:
        return _fail(name, f"pair-one value at n=4 is {v4}, not 245")
    return _ok(name)


@_check("tau_exchange")
def _tau_exchange(max_n: int) -> CheckResult:
    name = "tau_exchange"
    for n in range(2, min(max_n, 8) + 1):
        src_objects = list(enumerate_tau(n, "src_4372"))
        dst_objects = list(enumerate_tau(n, "dst_2174"))
        images = []
        total_src = 0
        for obj in src_objects:
            image = tau_apply(obj)
            if tau_apply(image) != obj:
                return _fail(name, f"n={n}: round trip failed")
            if tau_value(image) != tau_value(obj):
                return _fail(name, f"n={n}: letter values not preserved")
            total_src += tau_value(obj)
            images.append(image)
        if Counter(images) != Counter(dst_objects):
            return _fail(name, f"n={n}: image is not the full far side")
        for obj in dst_objects:
            if tau_apply(tau_apply(obj)) != obj:
                return _fail(name, f"n={n}: reverse round trip failed")
        conv = 7 * sum(delannoy_number(i) * delannoy_number(n - 2 - i) for i in range(n - 1))
        total_dst = sum(tau_value(t) for t in dst_objects)
        if not total_src == total_dst == conv:
            return _fail(name, f"n={n}: sums {total_src}/{total_dst} != {conv}")
    return _ok(name)


@_check("delannoy_scaled_sums")
def _delannoy_scaled(max_n: int) -> CheckResult:
    name = "delannoy_scaled_sums"
    bound = min(max_n, 9)
    specs = [
        (registry_get("delannoy_tuple", bound, a=a, b=b, c=c, d=d), multiplier, (a, b, c, d))
        for (a, b, c, d), multiplier in DELANNOY_TUPLES
    ]
    for n in range(2, bound + 1):
        conv = sum(delannoy_number(i) * delannoy_number(n - 2 - i) for i in range(n - 1))
        for spec, multiplier, key in specs:
            total = valley_weight_sum(n, spec).constant_value()
            if total != multiplier * conv:
                return _fail(name, f"n={n}, tuple {key}: {total} != {multiplier}*{conv}")
    return _ok(name)


@_check("delannoy_axis_hsteps")
def _delannoy_hsteps(max_n: int) -> CheckResult:
    name = "delannoy_axis_hsteps"
    for n in range(1, min(max_n, 5) + 1):
        try:
            delannoy_hstep_count(n)  # raises if brute force and convolution differ
        except ArithmeticError as exc:
            return _fail(name, str(exc))
    return _ok(name)


@_check("fuss_formulas")
def _fuss_formulas(max_n: int) -> CheckResult:
    name = "fuss_formulas"
    bound = min(max_n, 9)
    for r in (1, 2, 3):
        for m in (r, r + 1, r + 2):
            alpha, beta, _ = registry_get("fuss_sym", bound, m=m, r=r).to_series()
            series = valley_series_ab(alpha, beta)
            for n in range(bound + 1):
                if series.coefficient(n) != formula_vn("fuss_sym", n, m=m, r=r):
                    return _fail(name, f"symmetric r={r} m={m} fails at n={n}")
            alpha, beta, _ = registry_get("fuss_asym", bound, m=m, r=r).to_series()
            series = valley_series_ab(alpha, beta)
            for n in range(bound + 1):
                if series.coefficient(n) != formula_vn("fuss_asym", n, m=m, r=r):
                    return _fail(name, f"asymmetric r={r} m={m} fails at n={n}")
            cubic = valley_series(*registry_get("fuss_cubic", bound, m=m, r=r).to_series())
            for n in range(bound + 1):
                if cubic.coefficient(n) != formula_vn("fuss_cubic", n, m=m, r=r):
                    return _fail(name, f"cubic r={r} m={m} fails at n={n}")
        for n in range(bound + 1):
            if formula_vn("fuss_asym_collapse", n, r=r) != formula_vn(
                "fuss_asym", n, m=r + 1, r=r
            ):
                return _fail(name, f"asymmetric collapse fails at r={r}, n={n}")
            if formula_vn("fuss_cubic_collapse", n, r=r) != formula_vn(
                "fuss_cubic", n, m=r + 1, r=r
            ):
                return _fail(name, f"cubic collapse fails at r={r}, n={n}")
    return _ok(name)


@_check("oracle_bridges")
def _oracle_bridges(max_n: int) -> CheckResult:
    name = "oracle_bridges"
    bound = max(max_n, 12)
    for n in range(bound + 1):
        nar = narayana_polynomial(n)
        if nar.substitute({"t": 1}) != catalan_number(n):
            return _fail(name, f"peak polynomial at t=1 misses the Catalan value at n={n}")
        if nar.substitute({"t": _Q + 1}) != schroder_large_polynomial(n):
            return _fail(name, f"t -> q+1 bridge fails at n={n}")
        if n >= 1 and (_Q + 1) * schroder_small_polynomial(n) != schroder_large_polynomial(n):
            return _fail(name, f"small/large Schroder scaling fails at n={n}")
    for n in range(21):
        delannoy_number(n)  # both binomial forms compared internally
    return _ok(name)


@_check("target_difference_enumeration")
def _target_differences(max_n: int) -> CheckResult:
    name = "target_difference_enumeration"
    bound = min(max_n, 6)
    for spec in MAPS.values():
        family, filt = spec.target
        weighting = spec.target_weighting
        for n in range(bound + 1):
            got = target_weight_sum(n, family, filt, weighting)
            want = formula_vn(spec.formula, n)
            if got != want:
                return _fail(name, f"{family}/{weighting} at n={n}: {got} != {want}")
    return _ok(name)


SUITES: dict[str, tuple[str, ...]] = {
    "master": ("master_triple_agreement",),
    "closed_forms": ("geom_3x_values", "geom_fib_values"),
    "motzkin": ("diff_motzkin", "bijection_phi"),
    "schroder": (
        "diff_schroder_large",
        "diff_schroder_small",
        "bijection_theta",
        "bijection_sigma",
    ),
    "narayana": (
        "diff_narayana",
        "diff_narayana_shift",
        "bijection_rho",
        "bijection_psi",
    ),
    "chebyshev": ("chebyshev_rational_identity",),
    "delannoy": (
        "delannoy_table",
        "tau_exchange",
        "delannoy_scaled_sums",
        "delannoy_axis_hsteps",
    ),
    "fuss": ("fuss_formulas",),
    "bijections": (
        "bijection_phi",
        "bijection_theta",
        "bijection_sigma",
        "bijection_rho",
        "bijection_psi",
        "tau_exchange",
    ),
    "weights": (
        "master_triple_agreement",
        "target_difference_enumeration",
        "worked_examples",
    ),
    "oracles": ("oracle_bridges", "delannoy_axis_hsteps"),
}


def _all_checks() -> tuple[str, ...]:
    seen: list[str] = []
    for names in SUITES.values():
        for name in names:
            if name not in seen:
                seen.append(name)
    return tuple(seen)


SUITES["all"] = _all_checks()


def _execute(args: tuple[str, int]) -> CheckResult:
    name, max_n = args
    try:
        return CHECKS[name](max_n)
    except Exception as exc:  # surface, never crash the report
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _require_bound(max_n: int) -> None:
    if max_n < 0:
        raise BadParams(f"the sweep bound must be nonnegative, got {max_n}")


def run_suite(suite: str, max_n: int, jobs: int = 1) -> VerifyReport:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    _require_bound(max_n)
    names = SUITES[suite]
    # more workers than checks or CPUs only costs start-up time and memory
    jobs = min(jobs, len(names), os.cpu_count() or 1)
    if jobs <= 1:
        results = tuple(_execute((name, max_n)) for name in names)
    else:
        # imported here: it pulls in logging, and most runs start no pool
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = tuple(pool.map(_execute, [(name, max_n) for name in names]))
    return VerifyReport(suite, max_n, results)


def run_check(check_name: str, max_n: int) -> VerifyReport:
    """Run one named check as a single-entry report."""
    if check_name not in CHECKS:
        raise KeyError(f"unknown check {check_name!r}")
    _require_bound(max_n)
    return VerifyReport(check_name, max_n, (_execute((check_name, max_n)),))
