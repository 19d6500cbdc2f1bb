"""Closed-form and recurrence evaluators for the named sequences.

These are the independent side of every dual-route check: where the series
module obtains a family from its functional equation, the oracle here uses
the explicit binomial formula or three-term recurrence, so agreement between
the two is meaningful.  The Fibonacci convention is fixed globally at
F0 = 0, F1 = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import BadParams, IndexOutOfRange
from .paths import enumerate_family
from .polynomials import Polynomial, binomial
from .series import named_series

_A = Polynomial.var("a")
_B = Polynomial.var("b")
_C = Polynomial.var("c")
_D = Polynomial.var("d")
_Q = Polynomial.var("q")
_T = Polynomial.var("t")

Number = Union[int, Fraction]


def catalan_number(n: int) -> int:
    if n < 0:
        raise IndexOutOfRange("catalan index must be nonnegative")
    return binomial(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def fibonacci_number(k: int) -> int:
    if k < 0:
        raise IndexOutOfRange("fibonacci index must be nonnegative")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def narayana_polynomial(n: int) -> Polynomial:
    """N_n(t) from the explicit binomial formula (independent of the series)."""
    if n < 0:
        raise IndexOutOfRange("narayana index must be nonnegative")
    if n == 0:
        return Polynomial.one()
    return Polynomial.sum(
        Polynomial.const(Fraction(binomial(n, i) * binomial(n, i - 1), n)) * _T**i
        for i in range(1, n + 1)
    )


def motzkin_polynomial(n: int) -> Polynomial:
    """The weighted Motzkin value in a and b, from the functional equation."""
    if n < 0:
        raise IndexOutOfRange("motzkin index must be nonnegative")
    return named_series("motzkin_ab", n).coefficient(n)


def schroder_large_polynomial(n: int) -> Polynomial:
    if n < 0:
        raise IndexOutOfRange("schroder index must be nonnegative")
    return named_series("schroder_large", n).coefficient(n)


def schroder_small_polynomial(n: int) -> Polynomial:
    if n < 0:
        raise IndexOutOfRange("schroder index must be nonnegative")
    return named_series("schroder_small", n).coefficient(n)


def chebyshev_u_at(n: int, argument) -> Polynomial:
    """U_n evaluated at a rational or polynomial argument, by the recurrence."""
    if n < 0:
        raise IndexOutOfRange("chebyshev index must be nonnegative")
    arg = argument if isinstance(argument, Polynomial) else Polynomial.const(argument)
    prev, cur = Polynomial.one(), 2 * arg
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2 * arg * cur - prev
    return cur


def chebyshev_u_polynomial(n: int) -> Polynomial:
    return chebyshev_u_at(n, _T)


@lru_cache(maxsize=None)
def delannoy_number(n: int) -> int:
    """Central Delannoy number; both binomial forms are computed and compared."""
    if n < 0:
        raise IndexOutOfRange("delannoy index must be nonnegative")
    first = sum(binomial(n, i) * binomial(n + i, i) for i in range(n + 1))
    second = sum(binomial(n, i) ** 2 * 2**i for i in range(n + 1))
    if first != second:
        raise ArithmeticError(f"delannoy binomial forms disagree at {n}")
    return first


def fuss_catalan_number(n: int, r: int) -> int:
    if n < 0:
        raise IndexOutOfRange("fuss index must be nonnegative")
    if r < 1:
        raise BadParams("fuss needs r >= 1")
    value = Fraction(binomial(n * (r + 1), n), n * r + 1)
    if value.denominator != 1:
        raise ArithmeticError(f"fuss value is not integral at n={n}, r={r}")
    return value.numerator


_ORACLES = {
    "catalan": lambda n, p: Polynomial.const(catalan_number(n)),
    "fibonacci": lambda n, p: Polynomial.const(fibonacci_number(n)),
    "motzkin_ab": lambda n, p: motzkin_polynomial(n),
    "schroder_large": lambda n, p: schroder_large_polynomial(n),
    "schroder_small": lambda n, p: schroder_small_polynomial(n),
    "narayana": lambda n, p: narayana_polynomial(n),
    "chebyshev_u": lambda n, p: chebyshev_u_polynomial(n),
    "delannoy": lambda n, p: Polynomial.const(delannoy_number(n)),
    "fuss": lambda n, p: Polynomial.const(fuss_catalan_number(n, int(p["r"]))),
}


def oracle(name: str, n: int, **params) -> Polynomial:
    """Exact value of a named sequence; symbolic where the family is weighted."""
    try:
        fn = _ORACLES[name]
    except KeyError:
        raise BadParams(f"unknown oracle {name!r}; known: {', '.join(_ORACLES)}") from None
    if name == "fuss" and "r" not in params:
        raise BadParams("fuss needs the parameter r")
    value = fn(n, params)
    substitutions = {
        k: v for k, v in params.items() if k in ("a", "b", "c", "d", "q", "t") and v != "sym"
    }
    if substitutions:
        value = value.substitute({k: Polynomial.const(Fraction(v)) for k, v in substitutions.items()})
    return value


# -- closed forms for the weighted sums V_n -------------------------------------


def _num(params: dict, key: str) -> Fraction:
    if key not in params:
        raise BadParams(f"formula needs the parameter {key}")
    return Fraction(params[key])


def _abcd(params: dict) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return tuple(_num(params, k) for k in ("a", "b", "c", "d"))  # type: ignore[return-value]


def _formula_geom_3x(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return Polynomial.const(Fraction(3 ** (n - 1) - 1, 2))


def _formula_geom_fib(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return Polynomial.const(fibonacci_number(2 * (n - 1)))


def _formula_motzkin_diff(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return motzkin_polynomial(n) - _A * motzkin_polynomial(n - 1)


def _formula_schroder_large_diff(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return schroder_large_polynomial(n) - (_Q + 1) * schroder_large_polynomial(n - 1)


def _formula_schroder_small_diff(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return schroder_small_polynomial(n) - schroder_small_polynomial(n - 1)


def _formula_narayana_diff(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    return narayana_polynomial(n) - _T * narayana_polynomial(n - 1)


def _formula_narayana_shift_diff(n: int, params: dict) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    diff = narayana_polynomial(n + 1) - (_T + 1) * narayana_polynomial(n)
    return diff.exact_div(_T)


def _symbolic_or(params: dict, key: str, default: Polynomial) -> Polynomial:
    value = params.get(key, "sym")
    if value == "sym":
        return default
    if isinstance(value, Polynomial):
        return value
    return Polynomial.const(Fraction(value))


def _formula_chebyshev_closed(n: int, params: dict) -> Polynomial:
    """Coefficient of the rational form 1 + (a-b)c x^2 / (1-(a+d)x+(ad-(a-b)c)x^2)."""
    a = _symbolic_or(params, "a", _A)
    b = _symbolic_or(params, "b", _B)
    c = _symbolic_or(params, "c", _C)
    d = _symbolic_or(params, "d", _D)
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    s = a + d
    e = a * d - (a - b) * c
    # walk the kernel coefficients w_k of 1/(1 - sx + ex^2) up to k = n - 2
    prev, cur = Polynomial.one(), s
    for _ in range(n - 2):
        prev, cur = cur, s * cur - e * prev
    return (a - b) * c * prev


def _formula_abcd_power(n: int, params: dict) -> Polynomial:
    a, b, c, d = _abcd(params)
    if a * d != (a - b) * c:
        raise BadParams("this closed form needs ad = (a-b)c")
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    return Polynomial.const(a * d * (a + d) ** (n - 2))


def _formula_abcd_chebyshev(n: int, params: dict) -> Polynomial:
    a, b, c, d = _abcd(params)
    if a * d != (a - b) * c + 1:
        raise BadParams("this closed form needs ad = (a-b)c + 1")
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    value = (a * d - 1) * chebyshev_u_at(n - 2, (a + d) / 2).constant_value()
    if value.denominator != 1:
        raise ArithmeticError("expected an integer value from the Chebyshev recurrence")
    return Polynomial.const(value)


def _formula_abcd_fibonacci(n: int, params: dict) -> Polynomial:
    a, b, c, d = _abcd(params)
    if a + d != 3 or a * d != (a - b) * c + 1:
        raise BadParams("this closed form needs a + d = 3 and ad = (a-b)c + 1")
    if n == 0:
        return Polynomial.one()
    return Polynomial.const((a * d - 1) * fibonacci_number(2 * n - 2))


def _formula_chebyshev_second(n: int, params: dict) -> Polynomial:
    a = _symbolic_or(params, "a", _A)
    b = _symbolic_or(params, "b", _B)
    c = _symbolic_or(params, "c", _C)
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    return 2 * a * b * chebyshev_u_at(n - 2, b + c)


def _formula_delannoy_convolution(n: int, params: dict) -> Polynomial:
    multiplier = _num(params, "multiplier")
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    conv = sum(delannoy_number(i) * delannoy_number(n - 2 - i) for i in range(n - 1))
    return Polynomial.const(multiplier * conv)


def _fuss_params(params: dict) -> tuple[int, int]:
    m = int(_num(params, "m"))
    r = int(_num(params, "r"))
    if r < 1:
        raise BadParams("fuss formulas need r >= 1")
    return m, r


def _formula_fuss_sym(n: int, params: dict) -> Polynomial:
    m, r = _fuss_params(params)
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.zero()
    total = Fraction(0)
    for k in range(1, n):
        weight = m * (k + 1) * fibonacci_number(k)
        if weight == 0:
            continue
        denom = n * (r + 1) + (m - r - 1) * (k + 1)
        total += Fraction(weight, denom) * binomial(denom, n - k - 1)
    return Polynomial.const(total)


def _formula_fuss_asym(n: int, params: dict) -> Polynomial:
    m, r = _fuss_params(params)
    if n == 0:
        return Polynomial.one()
    total = Fraction(0)
    for k in range(n // 2 + 1):
        for j in range(n - 2 * k + 1):
            outer = binomial(k * (m - r - 1), j)
            if outer == 0:
                continue
            total += Fraction(outer * (2 * k + j), n) * binomial(n * (r + 1), n - 2 * k - j)
    return Polynomial.const(total)


def _formula_fuss_asym_collapse(n: int, params: dict) -> Polynomial:
    r = int(_num(params, "r"))
    if r < 1:
        raise BadParams("fuss formulas need r >= 1")
    if n == 0:
        return Polynomial.one()
    total = sum(
        Fraction(2 * k, n) * binomial(n * (r + 1), n - 2 * k) for k in range(n // 2 + 1)
    )
    return Polynomial.const(total)


def _formula_fuss_cubic(n: int, params: dict) -> Polynomial:
    m, r = _fuss_params(params)
    if n == 0:
        return Polynomial.one()
    total = Fraction(0)
    for k in range(n // 3 + 1):
        for j in range(n - 3 * k + 1):
            outer = binomial(k * (m - r - 1) + 1, j)
            if outer == 0:
                continue
            total += Fraction(outer * (3 * k + j), n) * binomial(n * (r + 1), n - 3 * k - j)
    return Polynomial.const(total)


def _formula_fuss_cubic_collapse(n: int, params: dict) -> Polynomial:
    r = int(_num(params, "r"))
    if r < 1:
        raise BadParams("fuss formulas need r >= 1")
    if n == 0:
        return Polynomial.one()
    total = sum(
        Fraction(3 * k * r + 3 * k + 1, n * r + 3 * k + 1) * binomial(n * (r + 1), n - 3 * k)
        for k in range(n // 3 + 1)
    )
    return Polynomial.const(total)


_FORMULAS = {
    "geom_3x": _formula_geom_3x,
    "geom_fib": _formula_geom_fib,
    "motzkin_diff": _formula_motzkin_diff,
    "schroder_large_diff": _formula_schroder_large_diff,
    "schroder_small_diff": _formula_schroder_small_diff,
    "narayana_diff": _formula_narayana_diff,
    "narayana_shift_diff": _formula_narayana_shift_diff,
    "chebyshev_closed": _formula_chebyshev_closed,
    "abcd_power": _formula_abcd_power,
    "abcd_chebyshev": _formula_abcd_chebyshev,
    "abcd_fibonacci": _formula_abcd_fibonacci,
    "chebyshev_second": _formula_chebyshev_second,
    "delannoy_convolution": _formula_delannoy_convolution,
    "fuss_sym": _formula_fuss_sym,
    "fuss_asym": _formula_fuss_asym,
    "fuss_asym_collapse": _formula_fuss_asym_collapse,
    "fuss_cubic": _formula_fuss_cubic,
    "fuss_cubic_collapse": _formula_fuss_cubic_collapse,
}


def formula_names() -> tuple[str, ...]:
    return tuple(_FORMULAS)


def formula_vn(name: str, n: int, **params) -> Polynomial:
    """Closed-form value of the weighted sum V_n for a named specialization.

    The stated boundary conventions are honored: every formula returns 1 at
    n = 0, and the forms that start at n = 2 return 0 at n = 1.
    """
    try:
        fn = _FORMULAS[name]
    except KeyError:
        raise BadParams(f"unknown formula {name!r}; known: {', '.join(_FORMULAS)}") from None
    if n < 0:
        raise IndexOutOfRange("formula index must be nonnegative")
    return fn(n, params)


def delannoy_hstep_count(n: int) -> int:
    """Number of axis-level double flats over all Delannoy paths of semilength n.

    Counted by brute force over the full enumeration and checked against the
    convolution of consecutive central Delannoy numbers before returning.
    """
    if n < 1:
        raise IndexOutOfRange("axis H-step counting starts at semilength 1")
    count = 0
    for path in enumerate_family("delannoy", n):
        level = 0
        for ch in path.steps:
            if ch == "H" and level == 0:
                count += 1
            level += {"U": 1, "D": -1, "H": 0}[ch]
    expected = sum(delannoy_number(i) * delannoy_number(n - 1 - i) for i in range(n))
    if count != expected:
        raise ArithmeticError(
            f"axis H-step brute force {count} disagrees with convolution {expected} at n={n}"
        )
    return count
