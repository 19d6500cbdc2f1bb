"""Truncated formal power series in x over polynomial coefficients.

A series of order N stores the coefficients of x^0 .. x^N exactly; all
arithmetic is the truncated ring arithmetic and never consults anything
beyond the stored order.  Generating functions defined by a quadratic (or
higher) functional equation are produced by :func:`solve_fixed_point`, which
lifts the solution one order at a time and then *checks* the fixed-point
property instead of trusting convergence; no square root is ever taken.

The equation maps handed to the solver are order-polymorphic: a map takes a
series of any order and returns one of the same order, so it builds its
constants from ``f.order`` (``1 + f`` or :meth:`TruncatedSeries.times_x`)
instead of capturing series of one fixed order.  Since such a map is an
x-adic contraction, running it at order k on the solution known to order
k - 1 (padded with one zero coefficient) fixes coefficient k exactly, so
step k of the solver costs one order-k evaluation, not a full-order one.

Products skip zero coefficients, stop at the truncation order, reuse a
factor that is the constant 1 instead of multiplying by it, form each cross
product of a square only once, and add each output coefficient up once with
:meth:`Polynomial.sum`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    BadParams,
    NonzeroConstantTerm,
    NotAContraction,
    NotAUnit,
    NotDivisibleByX,
    OrderMismatch,
)
from .polynomials import Polynomial, binomial

CoeffLike = Union[Polynomial, int, Fraction]


_ZERO = Polynomial.zero()
_ONE = Polynomial.one()


def _coeff(value: CoeffLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.const(value)


def _nonzero(coeffs: Sequence[Polynomial]) -> list[tuple[int, Polynomial, bool]]:
    """(index, coefficient, is the constant 1) for each nonzero coefficient."""
    return [(i, c, c == _ONE) for i, c in enumerate(coeffs) if c]


def _total(terms: list[Polynomial]) -> Polynomial:
    return terms[0] if len(terms) == 1 else Polynomial.sum(terms)


class TruncatedSeries:
    """Coefficients c0..cN of a formal power series in x, each a Polynomial."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike]):
        data = tuple(_coeff(c) for c in coeffs)
        if not data:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        object.__setattr__(self, "_coeffs", data)

    @classmethod
    def _trusted(cls, coeffs: tuple[Polynomial, ...]) -> "TruncatedSeries":
        """Wrap a nonempty tuple of Polynomials without coercing it."""
        series = object.__new__(cls)
        object.__setattr__(series, "_coeffs", coeffs)
        return series

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # the default slot restore would go through the raising __setattr__
        return (TruncatedSeries, (self._coeffs,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[CoeffLike], order: int | None = None) -> "TruncatedSeries":
        data = list(coeffs)
        if order is not None:
            if len(data) > order + 1:
                data = data[: order + 1]
            data.extend([0] * (order + 1 - len(data)))
        return cls(data)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: CoeffLike, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([value], order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([0, 1], order)

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside stored order {self.order}")
        return self._coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return " ; ".join(f"{n}: {c}" for n, c in enumerate(self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, [{self}])"

    def pretty(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self._coeffs))

    # -- arithmetic --------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        self._match(other)
        return TruncatedSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.scale(other)
        self._match(other)
        n = self.order
        left = _nonzero(self._coeffs)
        square = other is self
        right = left if square else _nonzero(other._coeffs)
        terms: list[list[Polynomial]] = [[] for _ in range(n + 1)]
        for pos, (i, a, a_one) in enumerate(left):
            # a square needs each product a_i * a_j only once, for i <= j
            for j, b, b_one in right[pos:] if square else right:
                if i + j > n:
                    break
                product = b if a_one else a if b_one else a * b
                terms[i + j].append(product)
                if square and j != i:
                    terms[i + j].append(product)
        return TruncatedSeries._trusted(tuple(_total(t) for t in terms))

    __rmul__ = __mul__

    def scale(self, factor: CoeffLike) -> "TruncatedSeries":
        factor = _coeff(factor)
        return TruncatedSeries([c * factor for c in self._coeffs])

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self._coeffs[0]
        if not c0.is_constant or not c0:
            raise NotAUnit(f"constant term {c0} is not a nonzero rational")
        inv0 = Fraction(1) / c0.constant_value()
        neg_inv0 = Polynomial.const(-inv0)
        tail = _nonzero(self._coeffs)[1:]
        out = [Polynomial.const(inv0)]
        for n in range(1, self.order + 1):
            terms = []
            for i, ci, ci_one in tail:
                if i > n:
                    break
                prev = out[n - i]
                if prev:
                    terms.append(prev if ci_one else ci * prev)
            acc = _total(terms)
            out.append(-acc if inv0 == 1 else acc * neg_inv0)
        return TruncatedSeries._trusted(tuple(out))

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.div_poly(other)
        self._match(other)
        return self * other.inverse()

    def times_x(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k at the same order; the top k coefficients drop."""
        if k < 0:
            raise ValueError("times_x needs a nonnegative power")
        k = min(k, self.order + 1)
        return TruncatedSeries._trusted((_ZERO,) * k + self._coeffs[: self.order + 1 - k])

    def shift_div_x(self, k: int = 1) -> "TruncatedSeries":
        """Divide by x^k exactly; the order drops to N - k."""
        if not 0 <= k <= self.order:
            raise NotDivisibleByX(f"cannot divide an order-{self.order} series by x^{k}")
        if any(self._coeffs[i] for i in range(k)):
            raise NotDivisibleByX("leading coefficients are not all zero")
        return TruncatedSeries(self._coeffs[k:])

    def div_poly(self, divisor: CoeffLike) -> "TruncatedSeries":
        """Divide every coefficient exactly by a scalar polynomial."""
        divisor = _coeff(divisor)
        return TruncatedSeries([c.exact_div(divisor) for c in self._coeffs])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self._coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "TruncatedSeries":
        coeffs = [Polynomial.from_json(c) for c in data["coeffs"]]
        if len(coeffs) != data["order"] + 1:
            raise ValueError("series JSON: coefficient count does not match order")
        return cls(coeffs)


def solve_fixed_point(
    phi: Callable[[TruncatedSeries], TruncatedSeries], order: int
) -> TruncatedSeries:
    """Unique fixed point of an x-adically contracting series map.

    ``phi`` must be order-polymorphic: it takes a series of any order and
    returns one of the same order, the truncation of what it would return at
    a higher order.  A map that captures series of one fixed order fails with
    OrderMismatch at the first lower order it is given.

    The map is probed at the full order with two series that differ only in
    the top coefficient; a contraction must send them to equal truncations.
    The solution then grows from the constant seed at order 0: step k runs
    the map at order k on the solution known to order k - 1, padded with one
    zero coefficient, which fixes coefficient k exactly.  The fixed-point
    property is asserted at the full order rather than assumed.
    """
    zero = TruncatedSeries.zero(order)
    bumped = TruncatedSeries.from_coeffs([0] * order + [1], order)
    image = phi(zero)
    if image != phi(bumped):
        raise NotAContraction("map distinguishes series that agree below the top order")
    current = TruncatedSeries._trusted((image.coefficient(0),))
    for k in range(1, order + 1):
        current = phi(TruncatedSeries._trusted(current._coeffs + (_ZERO,)))
        if current.order != k:
            raise OrderMismatch(f"map returned order {current.order} for an order-{k} series")
    if phi(current) != current:
        raise NotAContraction("iteration did not reach a fixed point")
    return current


def _delannoy_number(n: int) -> int:
    return sum(binomial(n, i) * binomial(n + i, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def named_series(name: str, order: int, r: int | None = None) -> TruncatedSeries:
    """Generating functions used throughout, each from its defining relation.

    Symbolic parameters stay symbolic: motzkin_ab in a and b, the Schroder
    families in q, the Narayana family and chebyshev_u in t.  ``fuss``
    requires the arity parameter ``r >= 1``; ``delannoy`` is built from the
    central Delannoy binomial sum.
    """
    if order < 0:
        raise BadParams("order must be nonnegative")
    if name != "fuss" and r is not None:
        raise BadParams(f"series {name!r} takes no r parameter")
    a, b = Polynomial.var("a"), Polynomial.var("b")
    q, t = Polynomial.var("q"), Polynomial.var("t")
    if name == "catalan":
        return solve_fixed_point(lambda f: 1 + (f * f).times_x(), order)
    if name == "motzkin_ab":
        return solve_fixed_point(
            lambda f: 1 + f.times_x().scale(a) + (f * f).times_x(2).scale(b), order
        )
    if name == "schroder_large":
        return solve_fixed_point(lambda f: 1 + f.times_x().scale(q) + (f * f).times_x(), order)
    if name == "schroder_small":
        return solve_fixed_point(
            lambda f: 1 - f.times_x().scale(q) + (f * f).times_x().scale(q + 1), order
        )
    if name == "narayana":
        return solve_fixed_point(
            lambda f: 1 + f.times_x().scale(t - 1) + (f * f).times_x(), order
        )
    if name == "narayana_shift":
        # the series whose n-th coefficient is the (n+1)-st Narayana polynomial over t
        def narayana_shift(f: TruncatedSeries) -> TruncatedSeries:
            xf = f.times_x()
            return (1 + xf) * (1 + xf.scale(t))

        return solve_fixed_point(narayana_shift, order)
    if name == "chebyshev_u":
        return TruncatedSeries.from_coeffs([1, -2 * t, 1], order).inverse()
    if name == "fuss":
        if r is None or r < 1:
            raise BadParams("fuss needs an integer parameter r >= 1")
        return solve_fixed_point(lambda f: 1 + (f ** (r + 1)).times_x(), order)
    if name == "delannoy":
        return TruncatedSeries([_delannoy_number(n) for n in range(order + 1)])
    raise BadParams(f"unknown series name {name!r}")


def _require_weight_series(*series: TruncatedSeries) -> None:
    first = series[0]
    for s in series:
        if s.order != first.order:
            raise OrderMismatch("weight series must share one order")
        if s.coefficient(0):
            raise NonzeroConstantTerm(f"weight series has constant term {s.coefficient(0)}")


def valley_series(
    alpha: TruncatedSeries, beta: TruncatedSeries, gamma: TruncatedSeries
) -> TruncatedSeries:
    """Master generating function 1 / (1 - gamma - alpha^2 beta / (1 - alpha))."""
    _require_weight_series(alpha, beta, gamma)
    one = TruncatedSeries.one(alpha.order)
    pyramids_above = (alpha * alpha * beta) * (one - alpha).inverse()
    return (one - gamma - pyramids_above).inverse()


def valley_series_ab(alpha: TruncatedSeries, beta: TruncatedSeries) -> TruncatedSeries:
    """Specialization gamma = alpha*beta: (1 - alpha) / (1 - alpha - alpha*beta)."""
    _require_weight_series(alpha, beta)
    one = TruncatedSeries.one(alpha.order)
    return (one - alpha) * (one - alpha - alpha * beta).inverse()
