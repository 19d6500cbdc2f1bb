"""Named verification suites behind the command line ``verify`` subcommand.

Each check is a generator of ``(where, got, want)`` comparisons over a sweep
bound.  ``_check`` registers it once, with its clamp: ``upto`` caps the
requested ``max_n`` where an identity is only enumerated exhaustively over a
finite range, and ``least`` raises it where a check needs a minimum order.
One runner, ``_sweep``, applies the clamp, counts the comparisons and stops
at the first mismatch, reported as ``"{where}: {got} != {want}"``; an
exception is a failure too.  The :class:`CheckResult` keeps the effective
bound and the count.  A check that compared nothing at its bound (the
exchange check below n = 2, say) reports ``skip``, which does not fail a
suite.  No check makes a comparison that its earlier ones imply: such a
comparison could never be the first mismatch.

Suites are ordered tuples of check names, and a run reports results in
declaration order no matter how many worker processes computed them, so
reports are byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import partial
from typing import Callable, Iterator

from ._value import Value
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
    delannoy_convolution,
    delannoy_hstep_count,
    delannoy_number,
    formula_vn,
    narayana_polynomial,
    schroder_large_polynomial,
    schroder_small_polynomial,
)
from .params import A, B, Q, T
from .paths import Path, Pyramid, ValleyBlock, ValleyStructure, enumerate_family, is_valley_uniform
from .polynomials import Polynomial, binomial
from .series import TruncatedSeries, named_series, valley_series
from .weights import (
    DELANNOY_TUPLES,
    path_weight,
    registry_get,
    target_weight,
    target_weight_sum,
    valley_weight_sum,
)


Comparison = tuple[str, object, object]


class CheckResult(Value):
    """One check's outcome: ``status`` is ``"pass"``, ``"fail"`` or ``"skip"``.

    ``bound`` is the sweep bound after the check's clamp, ``compared`` the
    number of comparisons made, and ``detail`` names the first mismatch.
    """

    __slots__ = ("name", "status", "detail", "bound", "compared")

    def __init__(self, name: str, status: str, detail: str = "", bound: int = 0, compared: int = 0):
        self._fill(name, status, detail, bound, compared)

    @property
    def passed(self) -> bool:
        return self.status != "fail"


class VerifyReport(Value):
    __slots__ = ("suite", "max_n", "results")

    def __init__(self, suite: str, max_n: int, results: tuple[CheckResult, ...]):
        self._fill(suite, max_n, results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "status": r.status, "detail": r.detail} for r in self.results
            ],
        }


CHECKS: dict[str, Callable[[int], CheckResult]] = {}


def _check(name: str, upto: int | None = None, least: int | None = None):
    """Register a comparison generator as the check ``name``, with its clamp."""

    def register(comparisons: Callable[[int], Iterator[Comparison]]):
        def run(max_n: int) -> CheckResult:
            bound = max_n if upto is None else min(max_n, upto)
            return _sweep(name, comparisons, bound if least is None else max(bound, least))

        CHECKS[name] = run
        return comparisons

    return register


def _sweep(name: str, comparisons, bound: int) -> CheckResult:
    compared = 0
    try:
        for where, got, want in comparisons(bound):
            compared += 1
            if got != want:
                return CheckResult(name, "fail", f"{where}: {got} != {want}", bound, compared)
    except Exception as exc:  # surface, never crash the report
        return CheckResult(name, "fail", f"{type(exc).__name__}: {exc}", bound, compared)
    return CheckResult(name, "pass" if compared else "skip", "", bound, compared)


def _coefficients(series, formula: str, bound: int, **params) -> Iterator[Comparison]:
    """Coefficients 0..bound of ``series`` against the closed form ``formula``."""
    label = f"{formula} {params} n=" if params else f"{formula} n="
    for n in range(bound + 1):
        yield f"{label}{n}", series.coefficient(n), formula_vn(formula, n, **params)


@_check("master_triple_agreement", upto=7)
def _master_triple(bound: int) -> Iterator[Comparison]:
    """Structure sums, series coefficients, and raw path sums all agree."""
    spec = registry_get("generic", bound)
    series = valley_series(*spec.to_series())
    for n in range(bound + 1):
        by_series = series.coefficient(n)
        yield f"n={n}: structures vs series", valley_weight_sum(n, spec), by_series
        by_paths = Polynomial.sum(
            path_weight(p, spec) for p in enumerate_family("dyck", n) if is_valley_uniform(p)
        )
        yield f"n={n}: paths vs series", by_paths, by_series


def _geom(table: str, bound: int) -> Iterator[Comparison]:
    """The series and, up to n = 6, the structure sums against the closed form."""
    series = valley_series(*registry_get(table, bound).to_series())
    yield from _coefficients(series, table, bound)
    small = min(bound, 6)
    spec = registry_get(table, small)
    for n in range(small + 1):
        yield f"enumeration n={n}", valley_weight_sum(n, spec), formula_vn(table, n)


_check("geom_3x_values")(partial(_geom, "geom_3x"))
_check("geom_fib_values")(partial(_geom, "geom_fib"))


def _difference(map_id: str, bound: int) -> Iterator[Comparison]:
    spec = MAPS[map_id]
    alpha, beta, gamma = registry_get(spec.registry, bound).to_series()
    yield "registry gamma vs alpha*beta", gamma, alpha * beta
    yield from _coefficients(valley_series(alpha, beta, gamma), spec.formula, bound)


def _bijection(map_id: str, bound: int) -> Iterator[Comparison]:
    spec = MAPS[map_id]
    family, filt = spec.target
    weighting = spec.target_weighting
    for n in range(bound + 1):
        # labels once per n; the objects themselves go into the compared values
        inverted = f"n={n}: inverse(forward)"
        preserved = f"n={n}: (image, weight)"
        weights = []
        images = []
        for obj in enumerate_decorated(n, map_id):
            image = forward(map_id, obj)
            yield inverted, inverse(map_id, image), obj
            weight = decorated_weight(obj)
            yield preserved, (image.steps, weight), (image.steps, target_weight(image, weighting))
            weights.append(weight)
            images.append(image.steps)
        targets = enumerate_family(family, n, filt)
        # inverse undoes forward, and equal multisets make it onto: no forward(inverse) pass
        yield f"n={n}: image multiset", Counter(images), Counter(p.steps for p in targets)
        yield f"n={n}: aggregate", Polynomial.sum(weights), formula_vn(spec.formula, n)


for _map_id, _spec in MAPS.items():
    # diff_motzkin checks the map whose summed weight is motzkin_diff, and so on
    _check("diff_" + _spec.formula.removesuffix("_diff"))(partial(_difference, _map_id))
    _check(f"bijection_{_map_id}", upto=6)(partial(_bijection, _map_id))


# The worked examples of the paper, each written once: ``worked_examples``
# compares them with the values the paper gives, and the tests take them as
# inputs, among them the golden table's ``render`` of each one's path.
INTRO_EXAMPLE = Path("dyck", "UUU" + "UUUDDD" + "UDUD" + "DDD" + "UU" + "UDUD" + "DD" + "UU" + "DD")
DECORATED_EXAMPLES = {
    "motzkin": DecoratedStructure(
        "phi",
        ValleyStructure((Pyramid(5), ValleyBlock(3, (1, 1, 1, 1)), Pyramid(2))),
        (PartDecoration(Path("motzkin", "FFF")), PartDecoration(Path("motzkin", "FF")),
         PartDecoration(Path("motzkin", ""))),
    ),
    "schroder": DecoratedStructure(
        "theta",
        ValleyStructure((Pyramid(3), ValleyBlock(1, (1, 1, 1)))),
        (PartDecoration(Path("schroder_large", "HH")),
         PartDecoration(Path("schroder_large", "H"), ("H", "ud"))),
    ),
    "narayana": DecoratedStructure(
        "rho",
        ValleyStructure((Pyramid(3), ValleyBlock(2, (1, 1, 1, 1)))),
        (PartDecoration(Path("dyck", "UUDD")), PartDecoration(Path("dyck", "UDUD"))),
    ),
}
EXCHANGE_SOURCE = TauDecorated(
    "src_4372", (TauFactor(8, (3, 1, 2), ("1", "1h", "1", "1", "1h", "1h", "1h")),)
)
EXCHANGE_IMAGE = Path("dyck", "U" * 6 + "UUUUDDDD" + "UD" + "UUDD" + "UD" + "D" * 6)


@_check("worked_examples")
def _worked_examples(bound: int) -> Iterator[Comparison]:
    # valley-weight product of the introductory example path
    var = Polynomial.var
    yield (
        "introductory example weight",
        path_weight(INTRO_EXAMPLE, registry_get("generic", 14)),
        var("alpha1") ** 4 * var("alpha3") * var("beta2") * var("beta3") * var("gamma2"),
    )

    # image shape, inverse and summed structure weight of the Motzkin, Schroder
    # and Narayana examples, all above the bijection checks' clamp
    expected = {
        "motzkin": ("UFFFDUFFDFFFUD", A**3 * B**3 * (A**2 + B) * (A**3 + 3 * A * B)),
        "schroder": ("UHHDUHDHUD", (Q + 2) * (Q + 1) ** 4),
        "narayana": ("UUUDDDUUDUDDUDUDUD", (T + T * T) ** 2 * T**3),
    }
    for name, obj in DECORATED_EXAMPLES.items():
        steps, total = expected[name]
        label = name.capitalize()
        image = forward(obj.map_id, obj)
        yield f"{label} image shape", image.steps, steps
        yield f"{label} inverse of the image", inverse(obj.map_id, image), obj
        summed = Polynomial.sum(map(decorated_weight, decorations(obj.structure, obj.map_id)))
        yield f"{label} example weight", summed, total

    # the integer-weight exchange example
    src = EXCHANGE_SOURCE
    yield "exchange source letters", tau_ustep_weights(src.factors[0], "src_4372"), (
        "7", "1", "1h", "1", "1", "1h", "1h", "1h", "3", "3", "1", "1", "3", "1",
    )
    dst = tau_apply(src)
    yield "exchange image side", dst.side, "dst_2174"
    yield "exchange image path", dst.to_path(), EXCHANGE_IMAGE
    yield "exchange image letters", tau_ustep_weights(dst.factors[0], "dst_2174"), (
        "7", "3h", "1", "1", "3h", "3h", "1", "1", "1", "1", "1", "1", "1", "1",
    )
    yield "exchange round trip", tau_apply(dst), src
    yield "exchange letter values", tau_value(dst), tau_value(src)


@_check("chebyshev_rational_identity", least=2)
def _chebyshev_identity(bound: int) -> Iterator[Comparison]:
    alpha, beta, gamma = registry_get("chebyshev_abcd", bound).to_series()
    yield "gamma vs alpha*beta", gamma, alpha * beta
    yield from _coefficients(valley_series(alpha, beta, gamma), "chebyshev_closed", bound)
    instances = [
        ("abcd_power", dict(a=2, b=1, c=2, d=1)),
        ("abcd_power", dict(a=3, b=1, c=3, d=2)),
        ("abcd_chebyshev", dict(a=3, b=2, c=2, d=1)),
        ("abcd_chebyshev", dict(a=2, b=1, c=1, d=1)),
        ("abcd_fibonacci", dict(a=2, b=1, c=1, d=1)),
    ]
    for formula, params in instances:
        series = valley_series(*registry_get("chebyshev_abcd", bound, **params).to_series())
        yield from _coefficients(series, formula, bound, **params)
    second = valley_series(*registry_get("chebyshev_second", bound).to_series())
    yield from _coefficients(second, "chebyshev_second", bound)


@_check("delannoy_table", least=4)
def _delannoy_table(bound: int) -> Iterator[Comparison]:
    kernel = TruncatedSeries.from_coeffs([1, -6, 1], bound).inverse()
    x2 = TruncatedSeries.x(bound) ** 2
    series = {}
    for key, multiplier in DELANNOY_TUPLES:
        a, b, c, d = key
        spec = registry_get("delannoy_tuple", bound, a=a, b=b, c=c, d=d)
        series[key] = valley_series(*spec.to_series())
        want = TruncatedSeries.one(bound) + x2.scale(multiplier) * kernel
        yield f"tuple {key} vs 1 + {multiplier}x^2/(1-6x+x^2)", series[key], want
    yield "pair-one value at n=4", series[(4, 3, 7, 2)].coefficient(4), 245


@_check("tau_exchange", upto=8)
def _tau_exchange(bound: int) -> Iterator[Comparison]:
    for n in range(2, bound + 1):
        round_trip = f"n={n}: round trip"
        values = f"n={n}: letter values"
        images = []
        for obj in enumerate_tau(n, "src_4372"):
            image = tau_apply(obj)
            yield round_trip, tau_apply(image), obj
            yield values, tau_value(image), tau_value(obj)
            images.append(image)
        dst_objects = list(enumerate_tau(n, "dst_2174"))
        # each far-side object is then an image whose round trip passed: no reverse pass
        yield f"n={n}: image vs far side", Counter(images), Counter(dst_objects)
        total_dst = sum(tau_value(t) for t in dst_objects)
        yield f"n={n}: far-side sum vs 7 * convolution", total_dst, 7 * delannoy_convolution(n, 2)


@_check("delannoy_scaled_sums", upto=9)
def _delannoy_scaled(bound: int) -> Iterator[Comparison]:
    specs = [
        (registry_get("delannoy_tuple", bound, a=a, b=b, c=c, d=d), multiplier, (a, b, c, d))
        for (a, b, c, d), multiplier in DELANNOY_TUPLES
    ]
    for n in range(2, bound + 1):
        conv = delannoy_convolution(n, 2)
        for spec, multiplier, key in specs:
            total = valley_weight_sum(n, spec).constant_value()
            yield f"n={n}, tuple {key} vs {multiplier} * convolution", total, multiplier * conv


@_check("delannoy_axis_hsteps", upto=5)
def _delannoy_hsteps(bound: int) -> Iterator[Comparison]:
    # the brute-force count of axis-level double flats against the convolution
    for n in range(1, bound + 1):
        yield f"n={n}", delannoy_hstep_count(n), delannoy_convolution(n, 1)


@_check("fuss_formulas", upto=9)
def _fuss_formulas(bound: int) -> Iterator[Comparison]:
    for r in (1, 2, 3):
        for m in (r, r + 1, r + 2):
            for formula in ("fuss_sym", "fuss_asym", "fuss_cubic"):
                series = valley_series(*registry_get(formula, bound, m=m, r=r).to_series())
                yield from _coefficients(series, formula, bound, m=m, r=r)
        for n in range(bound + 1):
            yield (
                f"asymmetric collapse r={r} n={n}",
                formula_vn("fuss_asym_collapse", n, r=r),
                formula_vn("fuss_asym", n, m=r + 1, r=r),
            )
            yield (
                f"cubic collapse r={r} n={n}",
                formula_vn("fuss_cubic_collapse", n, r=r),
                formula_vn("fuss_cubic", n, m=r + 1, r=r),
            )


@_check("oracle_bridges", least=12)
def _oracle_bridges(bound: int) -> Iterator[Comparison]:
    # the named series no weight table reads, each against its oracle
    for name in ("catalan", "narayana", "schroder_large", "schroder_small"):
        yield from _coefficients(named_series(name, bound), name, bound)
    for n in range(bound + 1):
        nar = narayana_polynomial(n)
        large = schroder_large_polynomial(n)
        yield f"peak polynomial at t=1, n={n}", nar.substitute({"t": 1}), catalan_number(n)
        yield f"t -> q+1 bridge, n={n}", nar.substitute({"t": Q + 1}), large
        if n >= 1:
            yield f"small/large Schroder, n={n}", (Q + 1) * schroder_small_polynomial(n), large
    # the two binomial forms of the central Delannoy numbers, and the recurrence
    d = [delannoy_number(n) for n in range(21)]
    for n in range(21):
        second = sum(binomial(n, i) ** 2 * 2**i for i in range(n + 1))
        yield f"Delannoy binomial forms, n={n}", d[n], second
    for n in range(2, 21):
        want = 3 * (2 * n - 1) * d[n - 1] - (n - 1) * d[n - 2]
        yield f"Delannoy recurrence, n={n}", n * d[n], want


@_check("target_difference_enumeration", upto=6)
def _target_differences(bound: int) -> Iterator[Comparison]:
    for spec in MAPS.values():
        family, filt = spec.target
        weighting = spec.target_weighting
        for n in range(bound + 1):
            got = target_weight_sum(n, family, filt, weighting)
            yield f"{family}/{weighting} at n={n}", got, formula_vn(spec.formula, n)


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


SUITES["all"] = tuple(dict.fromkeys(name for names in SUITES.values() for name in names))


def _execute(args: tuple[str, int]) -> CheckResult:
    name, max_n = args
    return CHECKS[name](max_n)


def _require_bound(max_n: int) -> None:
    if max_n < 0:
        raise BadParams(f"the sweep bound must be nonnegative, got {max_n}")


def run_suite(suite: str, max_n: int, jobs: int = 1) -> VerifyReport:
    if suite not in SUITES:
        raise BadParams(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    _require_bound(max_n)
    if jobs < 1:
        raise BadParams(f"the number of jobs must be at least 1, got {jobs}")
    names = SUITES[suite]
    # more workers than checks or usable CPUs only costs start-up time and memory
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, len(names), cpus or 1)
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
        raise BadParams(f"unknown check {check_name!r}")
    _require_bound(max_n)
    return VerifyReport(check_name, max_n, (_execute((check_name, max_n)),))
