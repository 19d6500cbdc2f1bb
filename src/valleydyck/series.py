"""Truncated formal power series in x over polynomial coefficients.

A series of order N stores the coefficients of x^0 .. x^N exactly; all
arithmetic is the truncated ring arithmetic and never consults anything
beyond the stored order.  No square root is ever taken.

The named series, each the solution of an algebraic equation
F = sum_j c_j(x) F^j, are one table, ``EQUATIONS``: each entry lists the terms of its equation, and
its constructor checks the contraction condition c_j(0) = 0 for j >= 1
once.  One online solver, :func:`solve_equation`, serves every entry: it
reads coefficient k of F off the power tables [x^m] F^j for m < k, grows
each table by one convolution, and at the end checks the equation at the
full order with the ordinary arithmetic below instead of trusting it.

Every convolution, the product, the square, the quotient and the solver's
power tables, hands each output coefficient's pairs of factors to one
multiply-accumulate kernel, chosen once per call by :func:`_kernel`.  When
every coefficient of every operand is a constant, the pairs are numbers and
``_mac`` sums their products as ``int`` and ``Fraction``; the results become
constant polynomials once, at the end.  Otherwise :meth:`Polynomial.dot`
multiplies and adds them into one term map without building any product on
its own.  Products skip zero coefficients and stop at the truncation order,
and a square forms each cross product a_i a_j, i < j, only once, against
2 a_j.  A quotient N / D is one pass, never N times the inverse of D, and
the inverse is the quotient 1 / D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

from ._value import Value
from .errors import (
    BadParams,
    NonzeroConstantTerm,
    NotAContraction,
    NotAUnit,
    NotDivisibleByX,
    OrderMismatch,
)
from .params import A, B, Q, T
from .polynomials import Polynomial, Scalar, _square_and_multiply

CoeffLike = Union[Polynomial, int, Fraction]


_ZERO = Polynomial.zero()
_ONE = Polynomial.one()


def _nonzero(coeffs: Sequence[Polynomial]) -> list[tuple[int, Polynomial]]:
    """(index, coefficient) for each nonzero coefficient."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _values(coeffs: Sequence[Polynomial]) -> list[Scalar] | None:
    """The value of each coefficient, or None if one is not a constant."""
    values = []
    for c in coeffs:
        value = c.scalar
        if value is None:
            return None
        values.append(value)
    return values


def _mac(pairs: Iterable[tuple[Scalar, Scalar]]) -> Scalar:
    """Sum of the products a * b over ``pairs`` of numbers; an integral sum is an int."""
    total = sum(starmap(mul, pairs))
    return total if type(total) is int or total.denominator != 1 else total.numerator


def _constants(values: Iterable[Scalar]) -> tuple[Polynomial, ...]:
    return tuple(map(Polynomial.const, values))


def _kernel(*operands: Sequence[Polynomial]) -> tuple[Sequence, Callable, Callable]:
    """(operands, dot, wrap) for a convolution of ``operands``: their values,
    ``_mac`` and ``_constants`` when every coefficient is a constant, else the
    operands themselves, :meth:`Polynomial.dot` and ``tuple``.  ``dot`` maps
    an output coefficient's pairs of factors to its value, and ``wrap`` turns
    the values into coefficients."""
    values = [_values(operand) for operand in operands]
    if None in values:
        return operands, Polynomial.dot, tuple
    return values, _mac, _constants


class TruncatedSeries(Value):
    """Coefficients c0..cN of a formal power series in x, each a Polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike]):
        data = tuple(map(Polynomial._coerce, coeffs))
        if not data:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        self._fill(data)

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
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside stored order {self.order}")
        return self.coeffs[n]

    def __str__(self) -> str:
        return " ; ".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, [{self}])"

    def pretty(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        self._match(other)
        return TruncatedSeries._trusted(tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(tuple(map(neg, self.coeffs)))

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        self._match(other)
        return TruncatedSeries._trusted(tuple(map(sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.scale(other)
        self._match(other)
        n = self.order
        square = other is self
        (mine, theirs), dot, wrap = _kernel(self.coeffs, () if square else other.coeffs)
        left = _nonzero(mine)
        # a square forms each cross product a_i a_j, i < j, once, against 2 a_j
        right = [(j, b * 2) for j, b in left] if square else _nonzero(theirs)
        pairs: list[list[tuple]] = [[] for _ in range(n + 1)]
        for pos, (i, a) in enumerate(left):
            if square:
                if 2 * i > n:
                    break
                pairs[2 * i].append((a, a))
            for j, b in right[pos + 1:] if square else right:
                if i + j > n:
                    break
                pairs[i + j].append((a, b))
        return TruncatedSeries._trusted(wrap(map(dot, pairs)))

    __rmul__ = __mul__

    def scale(self, factor: CoeffLike) -> "TruncatedSeries":
        factor = Polynomial._coerce(factor)
        return TruncatedSeries._trusted(tuple(c * factor for c in self.coeffs))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        return _square_and_multiply(self, exponent)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, the quotient 1 / self."""
        return TruncatedSeries.one(self.order) / self

    def __truediv__(self, other) -> "TruncatedSeries":
        """N / D in one pass, q_n = (N_n - sum of D_i q_(n-i), i >= 1) / D_0, one
        multiply-accumulate per q_n; D_0 must be a nonzero rational.  A scalar
        divides each coefficient."""
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.div_poly(other)
        self._match(other)
        d0 = other.coeffs[0]
        if not d0.is_constant or not d0:
            raise NotAUnit(f"constant term {d0} is not a nonzero rational")
        # the factor 1/D_0 rides on N_n and, negated, on each D_i, once
        inv0 = Polynomial.const(Fraction(1) / d0.constant_value())
        divisor = _nonzero(other.coeffs)[1:]
        (nums, (inv0, *scaled)), dot, wrap = _kernel(
            self.coeffs, [inv0] + [c * -inv0 for _, c in divisor]
        )
        tail = [(i, d) for (i, _), d in zip(divisor, scaled)]
        out: list = []
        for n, num in enumerate(nums):
            out.append(dot([(num, inv0)] + [(d, out[n - i]) for i, d in tail if i <= n]))
        return TruncatedSeries._trusted(wrap(out))

    def times_x(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k at the same order; the top k coefficients drop."""
        if k < 0:
            raise ValueError("times_x needs a nonnegative power")
        k = min(k, self.order + 1)
        return TruncatedSeries._trusted((_ZERO,) * k + self.coeffs[: self.order + 1 - k])

    def shift_div_x(self, k: int = 1) -> "TruncatedSeries":
        """Divide by x^k exactly; the order drops to N - k."""
        if not 0 <= k <= self.order:
            raise NotDivisibleByX(f"cannot divide an order-{self.order} series by x^{k}")
        if any(self.coeffs[i] for i in range(k)):
            raise NotDivisibleByX("leading coefficients are not all zero")
        return TruncatedSeries(self.coeffs[k:])

    def div_poly(self, divisor: CoeffLike) -> "TruncatedSeries":
        """Divide every coefficient exactly by a scalar polynomial."""
        divisor = Polynomial._coerce(divisor)
        return TruncatedSeries._trusted(tuple(c.exact_div(divisor) for c in self.coeffs))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "TruncatedSeries":
        coeffs = [Polynomial.from_json(c) for c in data["coeffs"]]
        if len(coeffs) != data["order"] + 1:
            raise ValueError("series JSON: coefficient count does not match order")
        return cls(coeffs)


ARITY = "r+1"  # a power of F that is the equation's parameter r plus one


class Equation:
    """The algebraic equation F = sum of c x^i F^j over its terms (j, i, c).

    A term with j >= 1 must have i >= 1: each c_j(x) but c_0 vanishes at
    x = 0, so the map is an x-adic contraction with one fixed point.  The
    constructor checks that, once per equation, and :func:`solve_equation`
    relies on it.  The power j may be ``ARITY``, which stands for r + 1, where
    r >= 1 is the parameter the equation then takes.
    """

    __slots__ = ("terms",)

    def __init__(self, *terms: tuple[int | str, int, CoeffLike]):
        checked = []
        for j, i, c in terms:
            if j != ARITY and not (isinstance(j, int) and j >= 0) or i < 0:
                raise ValueError(f"term ({j}, {i}) needs a power of F >= 0 and of x >= 0")
            if j != 0 and i == 0:
                raise NotAContraction(f"the coefficient of F^{j} must vanish at x = 0")
            checked.append((j, i, Polynomial._coerce(c)))
        object.__setattr__(self, "terms", tuple(checked))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Equation is immutable")

    @property
    def takes_r(self) -> bool:
        return any(j == ARITY for j, _, _ in self.terms)

    def substitute(self, bindings: Mapping[str, Polynomial]) -> "Equation":
        """The equation with ``bindings`` substituted into every coefficient; a
        term whose coefficient becomes zero is dropped."""
        terms = [(j, i, c.substitute(bindings)) for j, i, c in self.terms]
        return Equation(*[(j, i, c) for j, i, c in terms if c])


def solve_equation(equation: Equation, order: int, r: int | None = None) -> TruncatedSeries:
    """The solution F of ``equation`` to order ``order``, solved online, then checked.

    Coefficient k of F is read off the terms and the power tables
    [x^m] F^j for m < k, which is all a term with i >= 1 needs; then each
    table grows by one coefficient, one convolution (the relaxed method of
    van der Hoeven, "Relax, but don't be too lazy", 2002).  That is O(d k)
    products for coefficient k, d the top power, where rerunning the whole
    map at every order costs O(k^2).  F^j is kept as the square of F^(j/2)
    for even j, which takes half the products, and as F^(j-1) F for odd j.
    The result is checked at the full order with ordinary series arithmetic:
    the sum of the terms must give F back, else NotAContraction.
    """
    terms = [(r + 1 if j == ARITY else j, i, c) for j, i, c in equation.terms]
    # the powers of F the terms read, and the powers those are built from
    chain: dict[int, int] = {}
    todo = [j for j, _, _ in terms]
    while todo:
        j = todo.pop()
        if j >= 2 and j not in chain:
            chain[j] = j // 2 if j % 2 == 0 else j - 1
            todo.append(chain[j])
    f: list = []
    powers: dict[int, list] = {1: f}
    powers.update((j, []) for j in chain)
    steps = sorted(chain)
    # 1 and the terms' coefficients, as the kernel reads them
    ((one, *cs),), dot, wrap = _kernel([_ONE] + [c for _, _, c in terms])
    reads = [(powers[j], i, c) for (j, i, _), c in zip(terms, cs) if j]
    constants = [(i, c) for (j, i, _), c in zip(terms, cs) if j == 0]
    # for a square F^j = (F^h)^2: the coefficients 2 [x^m] F^h, so that each
    # cross product is formed once
    twice: dict[int, list] = {j: [] for j in steps if j == 2 * chain[j]}
    for k in range(order + 1):
        pairs = [(c, one) for i, c in constants if i == k]
        pairs += [(row[k - i], c) for row, i, c in reads if i <= k]
        f.append(dot(pairs))
        if k == order:
            break
        for j in steps:
            row = powers[chain[j]]
            if j in twice:
                doubled = twice[j]
                doubled.append(row[k] * 2)
                pairs = [(row[m], doubled[k - m]) for m in range((k + 1) // 2)]
                if k % 2 == 0:
                    pairs.append((row[k // 2], row[k // 2]))
            else:
                pairs = [(row[m], f[k - m]) for m in range(k + 1)]
            powers[j].append(dot(pairs))
    solution = TruncatedSeries._trusted(wrap(f))
    image = TruncatedSeries.zero(order)
    for j, i, c in terms:
        term = (solution**j).times_x(i)
        image = image + (term if c == _ONE else term.scale(c))
    if image != solution:
        raise NotAContraction("the solution does not satisfy its equation")
    return solution


# the named series, each the solution of its algebraic equation
EQUATIONS: dict[str, Equation] = {
    "catalan": Equation((0, 0, 1), (2, 1, 1)),
    "motzkin_ab": Equation((0, 0, 1), (1, 1, A), (2, 2, B)),
    "schroder_large": Equation((0, 0, 1), (1, 1, Q), (2, 1, 1)),
    "schroder_small": Equation((0, 0, 1), (1, 1, -Q), (2, 1, Q + 1)),
    "narayana": Equation((0, 0, 1), (1, 1, T - 1), (2, 1, 1)),
    # (1 + xF)(1 + txF): the n-th coefficient is the (n+1)-st Narayana polynomial
    "narayana_shift": Equation((0, 0, 1), (1, 1, T + 1), (2, 2, T)),
    "fuss": Equation((0, 0, 1), (ARITY, 1, 1)),
    # the beta series of two weight tables, solved without dividing:
    # (R - 1) / (q + 1) for R = schroder_large and (N - 1) / t for N = narayana
    "schroder_large_beta": Equation((0, 1, 1), (1, 1, Q + 2), (2, 1, Q + 1)),
    "narayana_beta": Equation((0, 1, 1), (1, 1, T + 1), (2, 1, T)),
}

# numeric values for some of an equation's variables, as sorted (name, value)
# pairs, so that they can key a cache
Pins = tuple[tuple[str, Polynomial], ...]


@lru_cache(maxsize=None)
def named_series(
    name: str, order: int, r: int | None = None, pins: Pins = ()
) -> TruncatedSeries:
    """The solution of the equation ``EQUATIONS[name]``, by :func:`solve_equation`.

    Symbolic parameters stay symbolic: motzkin_ab in a and b, the Schroder
    families in q, the Narayana family in t.  ``pins`` binds some of them to
    values in the equation's coefficients before it is solved, which gives
    the symbolic solution with those values substituted.  ``fuss`` requires
    the arity parameter ``r >= 1``.
    """
    if order < 0:
        raise BadParams("order must be nonnegative")
    equation = EQUATIONS.get(name)
    if equation is None:
        raise BadParams(f"unknown series name {name!r}")
    if not equation.takes_r and r is not None:
        raise BadParams(f"series {name!r} takes no r parameter")
    if equation.takes_r and (r is None or r < 1):
        raise BadParams(f"{name} needs an integer parameter r >= 1")
    if pins:
        equation = equation.substitute(dict(pins))
    return solve_equation(equation, order, r)


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
    """Master generating function 1 / (1 - gamma - alpha^2 beta / (1 - alpha)); alpha*beta
    is formed once, and if gamma equals it the series is the one quotient of valley_series_ab."""
    _require_weight_series(alpha, beta, gamma)
    one = TruncatedSeries.one(alpha.order)
    alpha_beta = alpha * beta
    if gamma == alpha_beta:
        return (one - alpha) / (one - alpha - alpha_beta)
    return (one - gamma - alpha * alpha_beta / (one - alpha)).inverse()


def valley_series_ab(alpha: TruncatedSeries, beta: TruncatedSeries) -> TruncatedSeries:
    """Specialization gamma = alpha*beta: (1 - alpha) / (1 - alpha - alpha*beta).

    Outside the tests, its only caller is the benchmark worker
    (``perfbench/worker.py``); the CLI, the verify checks and the demos call
    :func:`valley_series`."""
    _require_weight_series(alpha, beta)
    one = TruncatedSeries.one(alpha.order)
    return (one - alpha) / (one - alpha - alpha * beta)
