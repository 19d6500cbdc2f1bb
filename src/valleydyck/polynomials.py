"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  An integral coefficient is stored as an ``int`` and any other
as a ``Fraction``, so every coefficient has exactly one representation.  A
monomial is a tuple of ``(variable, exponent)`` pairs with positive integer
exponents, sorted by variable.  The zero polynomial has an empty term map,
and two polynomials are equal exactly when their term maps are equal, so
identity testing is fully reliable.

Variables are plain names such as ``a``, ``q``, ``t`` or members of the
indexed families ``alpha1``, ``beta3``, ``gamma2``.  Two distinguished
*formal inverse* variables exist so that weight tables whose entries are
honest rational functions of a single quantity stay inside one ring:

* ``a_inv`` satisfies ``a * a_inv = 1``;
* ``t1_inv`` satisfies ``(t + 1) * t1_inv = 1``.

Canonicalization rewrites any monomial containing both a base variable and
its inverse, so products such as ``a**3 * a_inv`` reduce to ``a**2``
automatically and never leak out of arithmetic.

The public constructor coerces and canonicalizes whatever it is given.  The
ring operations build their results through a trusted internal constructor
instead: their operands are already canonical, so only the new coefficients
need normalizing, and only a product whose operands hold an inverse variable
needs the rewrite.  A product of one term by one term, the common case when
path weights are multiplied out part by part, takes one monomial merge and
one coefficient product.  Powers are built by repeated squaring starting
from the base itself, so ``p ** 1`` takes no product and ``p ** 2`` one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Mapping, Union

from .errors import NotDivisible

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]
PolyLike = Union["Polynomial", int, Fraction]

# Formal inverse variables: name -> (base variable, shift); the pair means
# name = 1 / (base + shift), rewritten via base * name = 1 - shift * name.
INVERSE_VARS: dict[str, tuple[str, int]] = {
    "a_inv": ("a", 0),
    "t1_inv": ("t", 1),
}

_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)(\d*)$")


@lru_cache(maxsize=4096)
def var_key(name: str) -> tuple[str, int]:
    """Sort key that orders indexed variables numerically (alpha2 < alpha10)."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"bad variable name: {name!r}")
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1)


def _scalar(value) -> Scalar:
    """Canonical coefficient: ``int`` when integral, ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _canonical(raw: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """Drop zero coefficients and store integral ones as ``int``."""
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in raw.items()
        if c
    }


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_sort_key(mono: Monomial):
    # Graded lexicographic, encoded so that plain ascending sort puts the
    # leading monomial first: higher total degree first, then earlier
    # variables with larger exponents first.
    return (-_mono_degree(mono), tuple((var_key(v), -e) for v, e in mono))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: one merge of the two sorted factor lists."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif var_key(v1) < var_key(v2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _freeze(mono: Mapping[str, int]) -> Monomial:
    return tuple(sorted(((v, e) for v, e in mono.items() if e), key=lambda it: var_key(it[0])))


def _needs_reduction(raw: Mapping[Monomial, Scalar]) -> bool:
    for mono in raw:
        names = {v for v, _ in mono}
        for inv, (base, _) in INVERSE_VARS.items():
            if inv in names and base in names:
                return True
    return False


def _reduce_inverses(raw: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """Apply the base*inverse rewrite rules until no monomial holds both."""
    if not _needs_reduction(raw):
        return raw
    out: dict[Monomial, Scalar] = {}
    stack: list[tuple[dict[str, int], Scalar]] = [(dict(m), c) for m, c in raw.items()]
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        rule = None
        for inv, (base, shift) in INVERSE_VARS.items():
            if mono.get(inv, 0) > 0 and mono.get(base, 0) > 0:
                rule = (inv, base, shift)
                break
        if rule is None:
            key = _freeze(mono)
            out[key] = out.get(key, 0) + coeff
            continue
        inv, base, shift = rule
        lowered = dict(mono)
        lowered[base] -= 1
        cancelled = dict(lowered)
        cancelled[inv] -= 1
        stack.append((cancelled, coeff))
        if shift:
            stack.append((lowered, -shift * coeff))
    return _canonical(out)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    # _inv caches whether a monomial holds an inverse variable: None until
    # the first product asks, then a bool that never changes
    __slots__ = ("_terms", "_inv")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        raw = {} if terms is None else {m: _scalar(c) for m, c in terms.items() if c}
        object.__setattr__(self, "_terms", _reduce_inverses(raw))
        object.__setattr__(self, "_inv", None)

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Scalar], inv: bool | None = None) -> "Polynomial":
        """Wrap a term map that is already canonical, without copying or checking it."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_inv", inv)
        return poly

    def _holds_inverse(self) -> bool:
        inv = self._inv
        if inv is None:
            inv = any(v in INVERSE_VARS for mono in self._terms for v, _ in mono)
            object.__setattr__(self, "_inv", inv)
        return inv

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # the default slot restore would go through the raising __setattr__
        return (Polynomial, (self._terms,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.const(1)

    @classmethod
    def const(cls, value: Scalar) -> "Polynomial":
        value = _scalar(value)
        return cls._trusted({(): value} if value else {})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        var_key(name)  # validates
        return cls._trusted({((name, 1),): 1})

    @classmethod
    def monomial(cls, coeff: Scalar, powers: Mapping[str, int]) -> "Polynomial":
        for v, e in powers.items():
            var_key(v)
            if e < 0:
                raise ValueError("monomial exponents must be nonnegative")
        return cls({_freeze(powers): coeff})

    @classmethod
    def sum(cls, items: Iterable[PolyLike]) -> "Polynomial":
        """Sum of many polynomials, accumulated in place in one term map."""
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        for item in items:
            for m, c in cls._coerce(item)._terms.items():
                acc[m] = get(m, 0) + c
        return cls._trusted(_canonical(acc))

    @classmethod
    def product(cls, items: Iterable[PolyLike]) -> "Polynomial":
        """Product of many polynomials, starting from the first factor; 1 when empty."""
        result = None
        for item in items:
            result = cls._coerce(item) if result is None else result * item
        return cls.one() if result is None else result

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: PolyLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.const(value)
        raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")

    def __add__(self, other: PolyLike) -> "Polynomial":
        other = self._coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        # canonical operands have canonical monomials, so their sum needs no
        # inverse rewrite; only merged coefficients can become zero or integral
        out = dict(self._terms)
        for m, c in other._terms.items():
            if m in out:
                c = out[m] + c
                if not c:
                    del out[m]
                    continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
            out[m] = c
        return Polynomial._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({m: -c for m, c in self._terms.items()}, self._inv)

    def __sub__(self, other: PolyLike) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "Polynomial":
        other = self._coerce(other)
        left, right = self._terms, other._terms
        if not left or not right:
            return Polynomial()
        if len(left) == 1 and len(right) == 1:
            # one term times one term: one monomial merge, one coefficient product
            ((m1, c1),) = left.items()
            ((m2, c2),) = right.items()
            c = c1 * c2
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            out = {_mono_mul(m1, m2): c}
        else:
            out = {}
            get = out.get
            for m1, c1 in left.items():
                for m2, c2 in right.items():
                    m = _mono_mul(m1, m2)
                    out[m] = get(m, 0) + c1 * c2
            out = _canonical(out)
        if self._holds_inverse() or other._holds_inverse():
            return Polynomial._trusted(_reduce_inverses(out))
        return Polynomial._trusted(out, False)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if exponent == 0:
            return Polynomial.one()
        # square-and-multiply from the base itself: p ** 1 takes no product
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- structure ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a ``Fraction``."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[()])

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def variables(self) -> tuple[str, ...]:
        seen = {v for m in self._terms for v, _ in m}
        return tuple(sorted(seen, key=var_key))

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items(), key=lambda item: _mono_sort_key(item[0]))

    def leading_term(self) -> tuple[Monomial, Scalar]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self._terms, key=_mono_sort_key)
        return mono, self._terms[mono]

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        Unbound variables stay symbolic; binding every variable to a rational
        yields a constant polynomial.  Binding the base of a formal inverse
        variable also binds the inverse to the reciprocal value, so the
        defining relation survives every substitution.
        """
        bound = {v: self._coerce(val) for v, val in bindings.items()}
        present = {v for m in self._terms for v, _ in m}
        for inv, (base, shift) in INVERSE_VARS.items():
            if inv in present and inv not in bound and base in bound:
                value = bound[base] + Polynomial.const(shift)
                if not value.is_constant or not value:
                    raise ValueError(
                        f"binding {base} that way leaves no rational value for {inv}"
                    )
                bound[inv] = Polynomial.const(Fraction(1) / value.constant_value())
        powers: dict[tuple[str, int], Polynomial] = {}  # (variable, exponent) -> power
        pieces = []
        for mono, coeff in self._terms.items():
            piece = Polynomial.const(coeff)
            residual = []
            for factor in mono:
                v, e = factor
                if v in bound:
                    power = powers.get(factor)
                    if power is None:
                        power = powers[factor] = bound[v] ** e
                    piece = piece * power
                else:
                    residual.append(factor)
            if residual:
                # a sub-monomial of a canonical monomial is itself canonical
                piece = piece * Polynomial._trusted({tuple(residual): 1})
            pieces.append(piece)
        return Polynomial.sum(pieces)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at rational values for every variable of the polynomial."""
        return self.substitute(bindings).constant_value()

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: PolyLike) -> "Polynomial":
        """Return ``q`` with ``q * divisor == self``; raise NotDivisible otherwise."""
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return Polynomial()
        lead_mono, lead_coeff = divisor.leading_term()
        lead_exp = dict(lead_mono)
        remainder = dict(self._terms)
        quotient: dict[Monomial, Scalar] = {}
        while remainder:
            mono = min(remainder, key=_mono_sort_key)
            coeff = remainder[mono]
            exps = dict(mono)
            for v, e in lead_exp.items():
                if exps.get(v, 0) < e:
                    raise NotDivisible(f"({self}) is not divisible by ({divisor})")
                exps[v] = exps.get(v, 0) - e
            q_mono = _freeze(exps)
            q_coeff = _scalar(Fraction(coeff) / lead_coeff)
            quotient[q_mono] = quotient.get(q_mono, 0) + q_coeff
            piece = Polynomial._trusted({q_mono: q_coeff}) * divisor
            for m, c in piece._terms.items():
                new = remainder.get(m, 0) - c
                if new:
                    remainder[m] = new
                else:
                    remainder.pop(m, None)
        result = Polynomial._trusted(_canonical(quotient))
        if result * divisor != self:
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return result

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            chunks.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(coeff), "monomial": {v: e for v, e in mono}}
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "Polynomial":
        terms: dict[Monomial, Scalar] = {}
        for entry in data:
            mono = _freeze(dict(entry["monomial"]))
            terms[mono] = terms.get(mono, 0) + Fraction(entry["coeff"])
        return cls(terms)


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient via the falling factorial.

    Defined for any integer ``n``: zero when ``k < 0``, otherwise
    ``n (n-1) ... (n-k+1) / k!``, which is always an integer.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)
