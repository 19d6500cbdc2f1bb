"""Closed-form and recurrence evaluators for the named sequences.

These are the independent side of every dual-route check: where the series
module obtains a family from its functional equation, the oracle here uses
the explicit binomial formula or three-term recurrence, so agreement between
the two is meaningful.  Nothing here imports the series module: the
Motzkin and Schroder polynomials are binomial sums too.  The Fibonacci
convention is fixed globally at F0 = 0, F1 = 1.

``ORACLES`` is the one table of the 27 names ``oracle`` evaluates: the nine
sequences and the 18 closed forms of the weighted sums V_n.  Each entry
declares its first index, its body and any condition on its parameters.
Below the first index a closed form is 1 at n = 0 and 0 at n = 1.  The
body's keyword parameters and their annotations declare the parameters the
name takes and their kinds (:func:`valleydyck.params.signature`), read by
the registry's rule, :func:`valleydyck.params.read_params`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import BadParams, IndexOutOfRange
from .paths import STEP_RISE, enumerate_family
from .polynomials import Polynomial, binomial
from .params import Arity, Q, T, read_params, signature


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
        Polynomial.const(Fraction(binomial(n, i) * binomial(n, i - 1), n)) * T**i
        for i in range(1, n + 1)
    )


def motzkin_polynomial(n: int) -> Polynomial:
    """M_n(a, b), the sum over k of C(n, 2k) Cat_k a^(n-2k) b^k."""
    if n < 0:
        raise IndexOutOfRange("motzkin index must be nonnegative")
    return Polynomial({
        (("a", n - 2 * k), ("b", k)): binomial(n, 2 * k) * catalan_number(k)
        for k in range(n // 2 + 1)
    })


def schroder_large_polynomial(n: int) -> Polynomial:
    """R_n(q), the sum over k of C(n+k, 2k) Cat_k q^(n-k)."""
    if n < 0:
        raise IndexOutOfRange("schroder index must be nonnegative")
    return Polynomial({
        (("q", n - k),): binomial(n + k, 2 * k) * catalan_number(k) for k in range(n + 1)
    })


def schroder_small_polynomial(n: int) -> Polynomial:
    """S_n(q): S_0 = 1, and (q + 1) S_n = R_n for n >= 1."""
    if n < 0:
        raise IndexOutOfRange("schroder index must be nonnegative")
    if n == 0:
        return Polynomial.one()
    return schroder_large_polynomial(n).exact_div(Q + 1)


def chebyshev_u_at(n: int, argument) -> Polynomial:
    """U_n evaluated at a rational or polynomial argument, by the recurrence."""
    if n < 0:
        raise IndexOutOfRange("chebyshev index must be nonnegative")
    arg = argument if isinstance(argument, Polynomial) else Polynomial.const(argument)
    prev, cur = Polynomial.zero(), Polynomial.one()  # U_-1 and U_0
    for _ in range(n):
        prev, cur = cur, 2 * arg * cur - prev
    return cur


@lru_cache(maxsize=None)
def delannoy_number(n: int) -> int:
    """Central Delannoy number, the sum over i of C(n, i) C(n+i, i)."""
    if n < 0:
        raise IndexOutOfRange("delannoy index must be nonnegative")
    return sum(binomial(n, i) * binomial(n + i, i) for i in range(n + 1))


def fuss_catalan_number(n: int, r: int) -> int:
    if n < 0:
        raise IndexOutOfRange("fuss index must be nonnegative")
    if r < 1:
        raise BadParams("fuss needs r >= 1")
    return binomial(n * (r + 1), n) // (n * r + 1)


def delannoy_convolution(n: int, gap: int) -> int:
    """The sum of D(i) * D(n - gap - i) over i = 0..n - gap."""
    return sum(delannoy_number(i) * delannoy_number(n - gap - i) for i in range(n - gap + 1))


# -- the bodies of the oracles that take parameters --------------------------------
# A variable parameter arrives as its symbol or as the constant it is pinned
# to; a body may compute with it or leave the symbol, which oracle() pins.


def _motzkin_ab(n: int, a: Polynomial, b: Polynomial) -> Polynomial:
    return motzkin_polynomial(n)


def _schroder_large(n: int, q: Polynomial) -> Polynomial:
    return schroder_large_polynomial(n)


def _schroder_small(n: int, q: Polynomial) -> Polynomial:
    return schroder_small_polynomial(n)


def _narayana(n: int, t: Polynomial) -> Polynomial:
    return narayana_polynomial(n)


def _chebyshev_u(n: int, t: Polynomial) -> Polynomial:
    return chebyshev_u_at(n, t)


def _fuss(n: int, r: Arity) -> Polynomial:
    return Polynomial.const(fuss_catalan_number(n, r))


def _motzkin_diff(n: int, a: Polynomial, b: Polynomial) -> Polynomial:
    return motzkin_polynomial(n) - a * motzkin_polynomial(n - 1)


def _schroder_large_diff(n: int, q: Polynomial) -> Polynomial:
    return schroder_large_polynomial(n) - (q + 1) * schroder_large_polynomial(n - 1)


def _schroder_small_diff(n: int, q: Polynomial) -> Polynomial:
    return schroder_small_polynomial(n) - schroder_small_polynomial(n - 1)


def _narayana_diff(n: int, t: Polynomial) -> Polynomial:
    return narayana_polynomial(n) - t * narayana_polynomial(n - 1)


def _narayana_shift_diff(n: int, t: Polynomial) -> Polynomial:
    # divided by the symbol t, so that a pin to t = 0 is taken after the division
    diff = narayana_polynomial(n + 1) - (T + 1) * narayana_polynomial(n)
    return diff.exact_div(T)


def _chebyshev_closed(
    n: int, a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial
) -> Polynomial:
    """Coefficient of the rational form 1 + (a-b)c x^2 / (1-(a+d)x+(ad-(a-b)c)x^2)."""
    s = a + d
    e = a * d - (a - b) * c
    # walk the kernel coefficients w_k of 1/(1 - sx + ex^2) up to k = n - 2
    prev, cur = Polynomial.one(), s
    for _ in range(n - 2):
        prev, cur = cur, s * cur - e * prev
    return (a - b) * c * prev


def _abcd_power(n: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Polynomial:
    return Polynomial.const(a * d * (a + d) ** (n - 2))


def _abcd_chebyshev(n: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Polynomial:
    return Polynomial.const((a * d - 1) * chebyshev_u_at(n - 2, (a + d) / 2).constant_value())


def _abcd_fibonacci(n: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Polynomial:
    return Polynomial.const((a * d - 1) * fibonacci_number(2 * n - 2))


def _chebyshev_second(n: int, a: Polynomial, b: Polynomial, c: Polynomial) -> Polynomial:
    return 2 * a * b * chebyshev_u_at(n - 2, b + c)


def _delannoy_convolution(n: int, multiplier: Fraction) -> Polynomial:
    return Polynomial.const(multiplier * delannoy_convolution(n, 2))


def _fuss_sym(n: int, m: Arity, r: Arity) -> Polynomial:
    total = Fraction(0)
    for k in range(1, n):
        weight = m * (k + 1) * fibonacci_number(k)
        denom = n * (r + 1) + (m - r - 1) * (k + 1)
        total += Fraction(weight, denom) * binomial(denom, n - k - 1)
    return Polynomial.const(total)


def _fuss_asym(n: int, m: Arity, r: Arity) -> Polynomial:
    total = Fraction(0)
    for k in range(n // 2 + 1):
        for j in range(n - 2 * k + 1):
            outer = binomial(k * (m - r - 1), j)
            if outer == 0:
                continue
            total += Fraction(outer * (2 * k + j), n) * binomial(n * (r + 1), n - 2 * k - j)
    return Polynomial.const(total)


def _fuss_asym_collapse(n: int, r: Arity) -> Polynomial:
    total = sum(
        Fraction(2 * k, n) * binomial(n * (r + 1), n - 2 * k) for k in range(n // 2 + 1)
    )
    return Polynomial.const(total)


def _fuss_cubic(n: int, m: Arity, r: Arity) -> Polynomial:
    total = Fraction(0)
    for k in range(n // 3 + 1):
        for j in range(n - 3 * k + 1):
            outer = binomial(k * (m - r - 1) + 1, j)
            if outer == 0:
                continue
            total += Fraction(outer * (3 * k + j), n) * binomial(n * (r + 1), n - 3 * k - j)
    return Polynomial.const(total)


def _fuss_cubic_collapse(n: int, r: Arity) -> Polynomial:
    total = sum(
        Fraction(3 * k * r + 3 * k + 1, n * r + 3 * k + 1) * binomial(n * (r + 1), n - 3 * k)
        for k in range(n // 3 + 1)
    )
    return Polynomial.const(total)


# name: (first index, body, condition on the parameters or None).  The nine
# sequences start at 0; each closed form of the weighted sum V_n is 1 at
# n = 0, and one that starts at 2 is also 0 at n = 1.
ORACLES: dict[str, tuple[int, Callable[..., Polynomial], tuple | None]] = {
    "catalan": (0, lambda n: Polynomial.const(catalan_number(n)), None),
    "fibonacci": (0, lambda n: Polynomial.const(fibonacci_number(n)), None),
    "motzkin_ab": (0, _motzkin_ab, None),
    "schroder_large": (0, _schroder_large, None),
    "schroder_small": (0, _schroder_small, None),
    "narayana": (0, _narayana, None),
    "chebyshev_u": (0, _chebyshev_u, None),
    "delannoy": (0, lambda n: Polynomial.const(delannoy_number(n)), None),
    "fuss": (0, _fuss, None),
    "geom_3x": (1, lambda n: Polynomial.const(Fraction(3 ** (n - 1) - 1, 2)), None),
    "geom_fib": (1, lambda n: Polynomial.const(fibonacci_number(2 * (n - 1))), None),
    "motzkin_diff": (1, _motzkin_diff, None),
    "schroder_large_diff": (1, _schroder_large_diff, None),
    "schroder_small_diff": (1, _schroder_small_diff, None),
    "narayana_diff": (1, _narayana_diff, None),
    "narayana_shift_diff": (1, _narayana_shift_diff, None),
    "chebyshev_closed": (2, _chebyshev_closed, None),
    "abcd_power": (2, _abcd_power, (
        "ad = (a-b)c", lambda a, b, c, d: a * d == (a - b) * c)),
    "abcd_chebyshev": (2, _abcd_chebyshev, (
        "ad = (a-b)c + 1", lambda a, b, c, d: a * d == (a - b) * c + 1)),
    "abcd_fibonacci": (1, _abcd_fibonacci, (
        "a + d = 3 and ad = (a-b)c + 1",
        lambda a, b, c, d: a + d == 3 and a * d == (a - b) * c + 1)),
    "chebyshev_second": (2, _chebyshev_second, None),
    "delannoy_convolution": (2, _delannoy_convolution, None),
    "fuss_sym": (2, _fuss_sym, None),
    "fuss_asym": (1, _fuss_asym, None),
    "fuss_asym_collapse": (1, _fuss_asym_collapse, None),
    "fuss_cubic": (1, _fuss_cubic, None),
    "fuss_cubic_collapse": (1, _fuss_cubic_collapse, None),
}


def oracle(name: str, n: int, **params) -> Polynomial:
    """Exact value of the named sequence or closed form at index n.

    The parameters are those the name's body declares, read by
    :func:`valleydyck.params.read_params`; any other raises ``BadParams``,
    as does a value that breaks the name's condition, at every n.  A value
    stays symbolic in the variables no parameter pins.
    """
    try:
        start, body, condition = ORACLES[name]
    except KeyError:
        raise BadParams(f"unknown oracle {name!r}; known: {', '.join(ORACLES)}") from None
    if n < 0:
        raise IndexOutOfRange(f"{name} index must be nonnegative")
    values = read_params(signature(body), params, name)
    unknown = [k for k in params if k not in values]
    if unknown:
        has = ", ".join(values) or "none"
        raise BadParams(f"{name} has no parameter {', '.join(unknown)} (parameters: {has})")
    if condition and not condition[1](**values):
        raise BadParams(f"{name} needs {condition[0]}")
    if n < start:
        return Polynomial.one() if n == 0 else Polynomial.zero()
    value = body(n, **values)
    pins = {k: v for k, v in values.items() if isinstance(v, Polynomial) and v.is_constant}
    return value.substitute(pins) if pins and not value.is_constant else value


# the same function under the closed forms' name, bound after ``oracle``:
# perfbench's tracer wraps a function two names share under the later name,
# and counts oracles.formula_vn_calls under this one
formula_vn = oracle


def delannoy_hstep_count(n: int) -> int:
    """Number of axis-level double flats over all Delannoy paths of semilength n.

    Counted by brute force over the full enumeration; ``delannoy_axis_hsteps``
    compares it with the convolution of consecutive central Delannoy numbers.
    """
    if n < 1:
        raise IndexOutOfRange("axis H-step counting starts at semilength 1")
    count = 0
    for path in enumerate_family("delannoy", n):
        level = 0
        for ch in path.steps:
            level += STEP_RISE[ch]  # an H step is flat, so it is on the axis iff it ends there
            count += ch == "H" and not level
    return count
