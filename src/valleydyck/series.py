"""Truncated formal power series in x over polynomial coefficients.

A series of order N stores the coefficients of x^0 .. x^N exactly; all
arithmetic is the truncated ring arithmetic and never consults anything
beyond the stored order.  No square root is ever taken.

A series whose coefficients are all constants stores them as numbers, an
``int`` when integral and a ``Fraction`` otherwise; any other series stores
``Polynomial`` coefficients.  Each value has that one stored form, whatever
built it, so equality and hashing read the stored field.  Arithmetic
between two series of numbers runs on numbers throughout; a series of
numbers that meets a symbolic one is converted to polynomials once, and a
result whose symbols cancel is stored as numbers again.  A coefficient
becomes a ``Polynomial`` only where a caller asks for one, ``coefficient``
and ``coeffs``: the text forms and ``to_json`` write a number from the
number, and a weight table (``weights.WeightSpec``) stores its sequences
in this same form, so a table of numbers passes to and from its series as
numbers.

The named series, each the solution of an algebraic equation
F = sum_j c_j(x) F^j, are one table, ``EQUATIONS``; each entry's constructor
checks the contraction condition c_j(0) = 0 for j >= 1 once.  One online solver,
:func:`solve_equation`, serves every entry: it reads coefficient k of F off
the power tables [x^m] F^j for m < k, grows each table by one coefficient of
its product, and at the end checks the equation at the full order with the
ordinary arithmetic below instead of trusting it.

Every product is one coefficient stream, :func:`_product`: it forms
coefficient k of a * b when read, from the entries up to k, so ``*`` reads
it to the truncation order, the solver's power tables read it as F grows,
and no product holds more than one coefficient's terms.  It skips the zeros
of its first factor, and a square forms each cross product a_i a_j, i < j,
once, against 2 a_j.  A coefficient of a product, of a quotient or of a
solved F is one multiply-accumulate.  For series of numbers the terms are
the products themselves, one list of numbers, and ``_mac`` sums it; that
sum is already in stored form, so a numeric product, quotient or solution
is stored as the kernel made it.  For polynomial series the terms are pairs
of factors, which :meth:`Polynomial.dot` multiplies and adds into one term
map.  A quotient N / D is one pass, never N times the inverse of D, and the
inverse is the quotient 1 / D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from operator import add, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
from .polynomials import (
    Polynomial,
    Scalar,
    _coeff_json,
    _number,
    _scalar,
    _square_and_multiply,
    _stored_form,
)
from .polynomials import _trusted as _wrapped

CoeffLike = Union[Polynomial, int, Fraction]


_ZERO = Polynomial.zero()
_ONE = Polynomial.one()


def _mac(products: list[Scalar]) -> Scalar:
    """Sum of ``products``, the terms of one coefficient of a convolution of
    numbers, in stored form: an integral sum is an int."""
    total = sum(products)
    return total if type(total) is int or total.denominator != 1 else total.numerator


def _ints(values: Iterable[Scalar]) -> tuple[Scalar, ...]:
    """``values`` with each integral ``Fraction`` an ``int``."""
    return tuple([v if type(v) is int or v.denominator != 1 else v.numerator for v in values])


def _polynomials(stored: tuple) -> tuple[Polynomial, ...]:
    """Stored coefficients as polynomials; a stored number is already
    canonical, so it is wrapped as it is."""
    if type(stored[0]) is Polynomial:
        return stored
    return tuple([_wrapped({0: c}) if c else _ZERO for c in stored])


def _series(coeffs: Iterable) -> "TruncatedSeries":
    """The series of ``coeffs``, all numbers or all polynomials, in its stored
    form: numbers with each integral one an ``int``, and polynomials as their
    values when every one is a constant."""
    coeffs = tuple(coeffs)
    if type(coeffs[0]) is not Polynomial:
        return TruncatedSeries._trusted(_ints(coeffs))
    if all(c.scalar is not None for c in coeffs):
        coeffs = tuple(c.scalar for c in coeffs)
    return TruncatedSeries._trusted(coeffs)


def _product(a: Sequence, b: Sequence, numbers: bool) -> Iterator:
    """Coefficients 0, 1, 2, ... of a * b, each formed when it is read, from
    the entries of a and b up to its index, so both may still be growing.
    Numbers pass the products a_i b_(k-i) to ``_mac``; polynomials pass the
    pairs (a_i, b_(k-i)) to ``Polynomial.dot``.  The zeros of a are skipped;
    a square (a is b) forms each cross product a_i a_j, i < j, once, against
    2 a_j."""
    support: list[int] = []  # the indices i of the nonzero a_i that coefficient k reads
    if a is not b:
        for k in count():
            if a[k]:
                support.append(k)
            if numbers:
                yield _mac([a[i] * b[k - i] for i in support])
            else:
                yield Polynomial.dot([(a[i], b[k - i]) for i in support])
    doubled: list = []
    for k in count():
        doubled.append(a[k] * 2)
        mid = a[k // 2]
        if k % 2 and mid:
            support.append(k // 2)  # a square reads a_i against 2 a_(k-i) once 2 i < k
        middle = k % 2 == 0 and mid  # the one term a_(k/2)^2
        if numbers:
            products = [a[i] * doubled[k - i] for i in support]
            if middle:
                products.append(mid * mid)
            yield _mac(products)
        else:
            pairs = [(a[i], doubled[k - i]) for i in support]
            if middle:
                pairs.append((mid, mid))
            yield Polynomial.dot(pairs)


class TruncatedSeries(Value):
    """Coefficients c0..cN of a formal power series in x: numbers when every
    one is a constant, else polynomials (``stored``).  ``coeffs`` and
    ``coefficient`` give them as polynomials either way."""

    __slots__ = ("stored",)

    def __init__(self, coeffs: Iterable[CoeffLike]):
        data = tuple(coeffs)
        if not data:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        self._fill(_stored_form(data))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[CoeffLike], order: int | None = None) -> "TruncatedSeries":
        data = list(coeffs)
        if order is not None:
            data = data[: order + 1] + [0] * (order + 1 - len(data))
        return cls(data)

    @classmethod
    def _padded(cls, head: tuple, order: int) -> "TruncatedSeries":
        """The series of ``head`` followed by zeros, to ``order``: only the
        head is read into stored form, and the zeros take that form."""
        if order < 0:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        head = _stored_form(head)
        zero = _ZERO if type(head[0]) is Polynomial else 0
        return cls._trusted((head + (zero,) * order)[: order + 1])

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls._padded((0,), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls._padded((1,), order)

    @classmethod
    def constant(cls, value: CoeffLike, order: int) -> "TruncatedSeries":
        return cls._padded((value,), order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls._padded((0, 1), order)

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.stored) - 1

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        """The coefficients as polynomials."""
        return _polynomials(self.stored)

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside stored order {self.order}")
        return Polynomial._coerce(self.stored[n])

    def __str__(self) -> str:
        return " ; ".join(f"{n}: {c}" for n, c in enumerate(self.stored))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, [{self}])"

    def pretty(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.stored))

    # -- arithmetic --------------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> tuple[tuple, tuple, bool]:
        """The stored coefficients of self and other in one form, numbers when
        both are series of numbers, else polynomials, and whether they are numbers."""
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")
        mine, theirs = self.stored, other.stored
        if type(mine[0]) is not Polynomial and type(theirs[0]) is not Polynomial:
            return mine, theirs, True
        return _polynomials(mine), _polynomials(theirs), False

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        mine, theirs, _ = self._match(other)
        return _series(map(add, mine, theirs))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(tuple(map(neg, self.stored)))

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        mine, theirs, _ = self._match(other)
        return _series(map(sub, mine, theirs))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.scale(other)
        mine, theirs, numbers = self._match(other)
        if other is self:
            theirs = mine
        elif sum(map(bool, theirs)) < sum(map(bool, mine)):
            mine, theirs = theirs, mine  # the sparser factor first: its zeros are skipped
        coeffs = islice(_product(mine, theirs, numbers), self.order + 1)
        return TruncatedSeries._trusted(tuple(coeffs)) if numbers else _series(coeffs)

    __rmul__ = __mul__

    def scale(self, factor: CoeffLike) -> "TruncatedSeries":
        number = _number(factor)
        if number is not None and type(self.stored[0]) is not Polynomial:
            return _series([c * number for c in self.stored])
        factor = Polynomial._coerce(factor)
        return _series([c * factor for c in _polynomials(self.stored)])

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
        nums, dens, numbers = self._match(other)
        d0 = dens[0]
        value = d0 if numbers else d0.scalar
        if not value:  # None or 0
            raise NotAUnit(f"constant term {d0} is not a nonzero rational")
        # the factor 1/D_0 rides on N_n and, negated, on each D_i, once
        inv0 = _scalar(Fraction(1) / value)
        tail = [(i, c * -inv0) for i, c in enumerate(dens) if c][1:]
        out: list = []
        if numbers:
            for n, num in enumerate(nums):
                out.append(_mac([num * inv0] + [d * out[n - i] for i, d in tail if i <= n]))
            return TruncatedSeries._trusted(tuple(out))
        inv0 = Polynomial.const(inv0)
        for n, num in enumerate(nums):
            out.append(Polynomial.dot([(num, inv0)] + [(d, out[n - i]) for i, d in tail if i <= n]))
        return _series(out)

    def times_x(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k at the same order; the top k coefficients drop."""
        if k < 0:
            raise ValueError("times_x needs a nonnegative power")
        k = min(k, self.order + 1)
        stored = self.stored
        zero = _ZERO if type(stored[0]) is Polynomial else 0
        return _series((zero,) * k + stored[: self.order + 1 - k])

    def shift_div_x(self, k: int = 1) -> "TruncatedSeries":
        """Divide by x^k exactly; the order drops to N - k."""
        if not 0 <= k <= self.order:
            raise NotDivisibleByX(f"cannot divide an order-{self.order} series by x^{k}")
        if any(self.stored[i] for i in range(k)):
            raise NotDivisibleByX("leading coefficients are not all zero")
        return _series(self.stored[k:])

    def div_poly(self, divisor: CoeffLike) -> "TruncatedSeries":
        """Divide every coefficient exactly by a scalar polynomial."""
        divisor = Polynomial._coerce(divisor)
        return _series([c.exact_div(divisor) for c in _polynomials(self.stored)])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": list(map(_coeff_json, self.stored))}

    @classmethod
    def from_json(cls, data: Mapping) -> "TruncatedSeries":
        coeffs = [Polynomial.from_json(c) for c in data["coeffs"]]
        if len(coeffs) != data["order"] + 1:
            raise ValueError("series JSON: coefficient count does not match order")
        return cls(coeffs)


ARITY = "r+1"  # a power of F that is the equation's parameter r plus one


class Equation(Value):
    """The algebraic equation F = sum of c x^i F^j over its terms (j, i, c).

    A term with j >= 1 must have i >= 1: each c_j(x) but c_0 vanishes at
    x = 0, so the map is an x-adic contraction with one fixed point.  The
    constructor checks that, once per equation, and :func:`solve_equation`
    relies on it.  The power j may be ``ARITY``, which stands for r + 1, where
    r >= 1 is the parameter the equation then takes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int | str, int, CoeffLike]]):
        checked = []
        for j, i, c in terms:
            if j != ARITY and not (isinstance(j, int) and j >= 0) or i < 0:
                raise ValueError(f"term ({j}, {i}) needs a power of F >= 0 and of x >= 0")
            if j != 0 and i == 0:
                raise NotAContraction(f"the coefficient of F^{j} must vanish at x = 0")
            checked.append((j, i, Polynomial._coerce(c)))
        self._fill(tuple(checked))

    @property
    def takes_r(self) -> bool:
        return any(j == ARITY for j, _, _ in self.terms)

    def substitute(self, bindings: Mapping[str, Polynomial]) -> "Equation":
        """The equation with ``bindings`` substituted into every coefficient; a
        term whose coefficient becomes zero is dropped."""
        terms = [(j, i, c.substitute(bindings)) for j, i, c in self.terms]
        return Equation((j, i, c) for j, i, c in terms if c)


def solve_equation(equation: Equation, order: int, r: int | None = None) -> TruncatedSeries:
    """The solution F of ``equation`` to order ``order``, solved online, then checked.

    Coefficient k of F is read off the terms and the power tables
    [x^m] F^j for m < k, which is all a term with i >= 1 needs; then each
    table reads coefficient k off its product stream (the relaxed method of
    van der Hoeven, "Relax, but don't be too lazy", 2002).  That is O(d k)
    products for coefficient k, d the top power, where rerunning the whole
    map at every order costs O(k^2).  F^j is kept as the square of F^(j/2)
    for even j, which takes half the products, and as F^(j-1) F for odd j.
    The result is checked at the full order with ordinary series arithmetic:
    the sum of the terms must give F back, else NotAContraction.
    """
    terms = [(r + 1 if j == ARITY else j, i, c) for j, i, c in equation.terms]
    # the powers of F the terms read, and the two powers each is the product of
    chain: dict[int, tuple[int, int]] = {}
    todo = [j for j, _, _ in terms]
    while todo:
        j = todo.pop()
        if j >= 2 and j not in chain:
            chain[j] = (j // 2, j // 2) if j % 2 == 0 else (j - 1, 1)
            todo.extend(chain[j])
    f: list = []
    powers: dict[int, list] = {1: f, **{j: [] for j in chain}}
    # the terms' coefficients as numbers when every one is a constant
    cs = [c.scalar for _, _, c in terms]
    numbers = None not in cs
    if not numbers:
        cs = [c for _, _, c in terms]
    reads = [(powers[j], i, c) for (j, i, _), c in zip(terms, cs) if j]
    constants = [(i, c) for (j, i, _), c in zip(terms, cs) if j == 0]
    # each table with its product stream, lower powers first, as higher ones read them
    tables = [
        (powers[j], _product(powers[h], powers[g], numbers))
        for j, (h, g) in sorted(chain.items())
    ]
    for k in range(order + 1):
        if numbers:
            products = [c for i, c in constants if i == k]
            f.append(_mac(products + [row[k - i] * c for row, i, c in reads if i <= k]))
        else:
            pairs = [(c, _ONE) for i, c in constants if i == k]
            f.append(Polynomial.dot(pairs + [(row[k - i], c) for row, i, c in reads if i <= k]))
        if k == order:
            break
        for row, product in tables:
            row.append(next(product))
    solution = TruncatedSeries._trusted(tuple(f)) if numbers else _series(f)
    image = TruncatedSeries.zero(order)
    for j, i, c in terms:
        term = (solution**j).times_x(i)
        image = image + (term if c == _ONE else term.scale(c))
    if image != solution:
        raise NotAContraction("the solution does not satisfy its equation")
    return solution


# the named series, each the solution of its algebraic equation
EQUATIONS: dict[str, Equation] = {
    "catalan": Equation(((0, 0, 1), (2, 1, 1))),
    "motzkin_ab": Equation(((0, 0, 1), (1, 1, A), (2, 2, B))),
    "schroder_large": Equation(((0, 0, 1), (1, 1, Q), (2, 1, 1))),
    "schroder_small": Equation(((0, 0, 1), (1, 1, -Q), (2, 1, Q + 1))),
    "narayana": Equation(((0, 0, 1), (1, 1, T - 1), (2, 1, 1))),
    # (1 + xF)(1 + txF): the n-th coefficient is the (n+1)-st Narayana polynomial
    "narayana_shift": Equation(((0, 0, 1), (1, 1, T + 1), (2, 2, T))),
    "fuss": Equation(((0, 0, 1), (ARITY, 1, 1))),
    # the beta series of two weight tables, solved without dividing:
    # (R - 1) / (q + 1) for R = schroder_large and (N - 1) / t for N = narayana
    "schroder_large_beta": Equation(((0, 1, 1), (1, 1, Q + 2), (2, 1, Q + 1))),
    "narayana_beta": Equation(((0, 1, 1), (1, 1, T + 1), (2, 1, T))),
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
        if s.stored[0]:
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
