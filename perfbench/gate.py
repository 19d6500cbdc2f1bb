"""The correctness gate: each job's output checked by a second route.

It runs in the benchmark's parent process after the timed run, so it shares
no cache with the workload process and costs nothing inside the timed region.

* ``series`` jobs: coefficients against ``oracles.formula_vn`` wherever a
  closed form exists (every coefficient up to n = 10 and the top one; up to
  n = 12 for the three closed forms that are themselves series solves at the
  job's order), and against the structure sums for the generic table.
* ``structure_sum`` jobs against the series coefficient (generic) or the
  Delannoy closed form; ``path_sum`` jobs against the structure route;
  ``target_sum`` jobs against the closed form.
* Bijection jobs: every round trip held, the image multiset equals the
  target family, and the total weight equals the closed form.
* Command-line jobs: exit code 0, every verify line PASS, and a second route
  for each quick call's printed value.

``check(job, output, fault=True)`` perturbs one expected value, so the
benchmark's self-test can prove that a wrong value is counted.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from valleydyck.bijections import MAP_TARGET, enumerate_tau
from valleydyck.oracles import delannoy_number, formula_vn
from valleydyck.paths import enumerate_family
from valleydyck.polynomials import Polynomial
from valleydyck.series import TruncatedSeries, valley_series
from valleydyck.weights import registry_get, valley_weight_sum

SERIES_FORMULA = {
    "geom_3x": "geom_3x",
    "geom_fib": "geom_fib",
    "motzkin_ab": "motzkin_diff",
    "schroder_large_q": "schroder_large_diff",
    "schroder_small_q": "schroder_small_diff",
    "narayana_t": "narayana_diff",
    "narayana_shift_t": "narayana_shift_diff",
    "chebyshev_abcd": "chebyshev_closed",
    "chebyshev_second": "chebyshev_second",
    "delannoy_tuple": "chebyshev_closed",
    "fuss_sym": "fuss_sym",
    "fuss_asym": "fuss_asym",
    "fuss_cubic": "fuss_cubic",
}
# closed forms evaluated through named_series at order n: checking the top
# coefficient would replay the job's own solver at full cost
SOLVED_FORMULAS = {"motzkin_diff", "schroder_large_diff", "schroder_small_diff"}

TARGET_FORMULA = {
    "motzkin_ab": "motzkin_diff",
    "schroder_q/schroder_large": "schroder_large_diff",
    "schroder_q/schroder_small": "schroder_small_diff",
    "narayana_t": "narayana_diff",
    "level_peaks": "narayana_shift_diff",
}
MAP_FORMULA = {
    "phi": "motzkin_diff",
    "theta": "schroder_large_diff",
    "sigma": "schroder_small_diff",
    "rho": "narayana_diff",
    "psi": "narayana_shift_diff",
}


def _want(value, fault: bool):
    """The expected value, or a wrong one when the self-test injects a fault."""
    if not fault:
        return value
    if isinstance(value, str):
        return value + " (injected)"
    return value + 1


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    return f"{what}: got {str(got)[:100]}, expected {str(want)[:100]}"


# -- expected values, cached for the whole gate pass --------------------------------


@lru_cache(maxsize=None)
def _formula(name: str, n: int, params: tuple) -> Polynomial:
    pinned = dict(params)
    value = formula_vn(name, n, **pinned)
    bound = {k: Polynomial.const(Fraction(v)) for k, v in pinned.items() if k in value.variables()}
    return value.substitute(bound) if bound else value


@lru_cache(maxsize=None)
def _structure_sum(table: str, n: int, params: tuple) -> Polynomial:
    return valley_weight_sum(n, registry_get(table, max(n, 1), **dict(params)))


@lru_cache(maxsize=None)
def _generic_series(order: int) -> TruncatedSeries:
    return valley_series(*registry_get("generic", max(order, 1)).to_series())


def _delannoy_conv(n: int) -> int:
    return sum(delannoy_number(i) * delannoy_number(n - 2 - i) for i in range(n - 1))


# -- per job kind ---------------------------------------------------------------------


def _check_series(job, output, fault):
    series = TruncatedSeries.from_json(json.loads(output))
    order, table = job["order"], job["table"]
    if series.order != order:
        return f"series order {series.order} != {order}"
    params = tuple(sorted(job["params"].items()))
    if table == "generic":
        checks = [
            (n, lambda n: _structure_sum("generic", n, params)) for n in range(min(order, 7) + 1)
        ]
    else:
        name = SERIES_FORMULA[table]
        cap = 12 if name in SOLVED_FORMULAS else 10
        indices = sorted(set(range(min(order, cap) + 1)) | ({order} if cap == 10 else set()))
        checks = [(n, lambda n: _formula(name, n, params)) for n in indices]
    for position, (n, expected) in enumerate(checks):
        problem = _mismatch(f"{table} coefficient {n}", series.coefficient(n),
                            _want(expected(n), fault and position == 0))
        if problem:
            return problem
    return None


def _check_structure_sum(job, output, fault):
    got = Polynomial.from_json(json.loads(output))
    n = job["n"]
    if job["table"] == "generic":
        want = _generic_series(n).coefficient(n)
    else:
        want = formula_vn("delannoy_convolution", n, multiplier=job["multiplier"])
    return _mismatch(f"{job['table']} weight sum at n={n}", got, _want(want, fault))


def _check_path_sum(job, output, fault):
    got = Polynomial.from_json(json.loads(output))
    want = _structure_sum(job["table"], job["n"], ())
    return _mismatch(f"raw-path sum at n={job['n']}", got, _want(want, fault))


def _check_target_sum(job, output, fault):
    got = Polynomial.from_json(json.loads(output))
    key = job["weighting"]
    if key == "schroder_q":
        key += "/" + job["family"]
    want = _formula(TARGET_FORMULA[key], job["n"], ())
    what = f"{job['family']}/{job['weighting']} at n={job['n']}"
    return _mismatch(what, got, _want(want, fault))


def _check_bijection(job, output, fault):
    data = json.loads(output)
    map_id, n = job["map"], job["n"]
    if data["roundtrip_failures"]:
        return f"{map_id} n={n}: {data['roundtrip_failures']} round trips failed"
    family, filt = MAP_TARGET[map_id]
    targets = Counter(p.steps for p in enumerate_family(family, n, filt))
    if Counter(data["images"]) != targets:
        return f"{map_id} n={n}: image multiset differs from the target family"
    weight = Polynomial.from_json(data["weight"])
    return _mismatch(f"{map_id} n={n} total weight", weight,
                     _want(_formula(MAP_FORMULA[map_id], n, ()), fault))


def _check_tau(job, output, fault):
    data = json.loads(output)
    n = job["n"]
    if data["roundtrip_failures"]:
        return f"tau n={n}: {data['roundtrip_failures']} round trips failed"
    far_side = Counter(
        json.dumps(t.to_json(), sort_keys=True, separators=(",", ":"))
        for t in enumerate_tau(n, "dst_2174")
    )
    if Counter(data["images"]) != far_side:
        return f"tau n={n}: image multiset is not the far side"
    want = 7 * _delannoy_conv(n)
    return _mismatch(f"tau n={n} value sum", data["value_sum"], _want(want, fault))


def _is_dyck(word: str) -> bool:
    level = 0
    for step in word:
        level += 1 if step == "U" else -1 if step == "D" else 10**9
        if level < 0 or level > len(word):
            return False
    return level == 0


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_cli(job, output, fault):
    data = json.loads(output)
    argv, text = job["argv"], data["stdout"]
    if data["rc"] != 0:
        return f"{' '.join(argv)}: exit {data['rc']}"
    what = job["check"]
    if what == "verify":
        lines = text.rstrip("\n").split("\n")
        bad = [ln for ln in lines[1:-1] if ln.split()[:1] != ["PASS"]]
        if bad or lines[-1] != _want("result: PASS", fault) or not lines[0].startswith("suite "):
            return f"{' '.join(argv)}: not every line PASS"
        return None
    if what == "series":
        series = TruncatedSeries.from_json(json.loads(text))
        for n in range(series.order + 1):
            want = _want(formula_vn(job["table"], n), fault and n == 0)
            if series.coefficient(n) != want:
                return f"series {job['table']} coefficient {n} != {want}"
        return None
    if what == "count":
        n = int(_arg(argv, "--n"))
        got = Polynomial.from_json(json.loads(text)["value"])
        want = formula_vn("delannoy_convolution", n, multiplier=job["multiplier"])
        return _mismatch(f"count delannoy n={n}", got, _want(want, fault))
    if what == "biject":
        map_id = _arg(argv, "--map")
        name = "tau_exchange" if map_id == "tau" else f"bijection_{map_id}"
        return _mismatch("biject --roundtrip", text.strip(), _want(f"PASS {name}", fault))
    if what == "oracle":
        n = int(_arg(argv, "--n"))
        r = int(_arg(argv, "--param").split("=")[1]) if "--param" in argv else 1
        want = math.comb((r + 1) * n, n) // (r * n + 1)
        got = Polynomial.from_json(json.loads(text)["value"])
        return _mismatch(f"oracle {_arg(argv, '--name')} n={n}", got, _want(want, fault))
    if what == "enumerate":
        n = int(_arg(argv, "--n"))
        words = text.split()
        well_formed = all(len(w) == 2 * n and _is_dyck(w) for w in words)
        if len(set(words)) != len(words) or not well_formed:
            return f"enumerate dyck n={n}: malformed listing"
        return _mismatch(f"enumerate dyck n={n} count", len(words),
                         _want(math.comb(2 * n, n) // (n + 1), fault))
    if what == "render":
        steps = _arg(argv, "--path")
        got = (text.count("/"), text.count("\\"))
        want = (steps.count("U"), steps.count("D"))
        if fault:
            want = (want[0] + 1, want[1])
        return _mismatch(f"render {steps}", got, want)
    return f"unknown command-line check {what!r}"


CHECKERS = {
    "series": _check_series,
    "structure_sum": _check_structure_sum,
    "path_sum": _check_path_sum,
    "target_sum": _check_target_sum,
    "bijection": _check_bijection,
    "tau": _check_tau,
    "cli": _check_cli,
}


def check(job: dict, output: str | None, fault: bool = False) -> str | None:
    """None when the output is right, else a one-line reason."""
    if output is None:
        return "no output"
    try:
        return CHECKERS[job["kind"]](job, output, fault)
    except Exception as exc:  # a malformed output is a failed job, not a crash
        return f"{type(exc).__name__}: {exc}"
