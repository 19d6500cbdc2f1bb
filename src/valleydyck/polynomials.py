"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  An integral coefficient is stored as an ``int`` and any other
as a ``Fraction``, so every coefficient has exactly one representation.  The
zero polynomial has an empty term map, and two polynomials are equal exactly
when their term maps are equal, so identity testing is fully reliable.

Monomials have a public view and a packed storage form.  The public view is
a tuple of ``(variable, exponent)`` pairs with positive exponents, sorted by
``var_key``: the constructor, ``monomial`` and ``from_json`` take it, and
``sorted_terms``, text, JSON and pickles give it back.
Inside, a monomial is one ``int`` holding a packed exponent vector (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", 2007).  Each variable owns a bit field of ``_WIDTH`` bits,
assigned the first time the process sees the variable, so the product of two
monomials is one integer addition.  The top bit of every field is a guard
bit: no exponent may exceed ``MAX_EXPONENT`` (32767), and an operation that
would go past it raises ``OverflowError`` naming the variable instead of
carrying into the next field.  Field positions differ from process to
process, so nothing packed leaves one: a pickle holds the public view.

Terms are ordered graded lexicographically: higher total degree first, then
the larger exponent vector read in ``var_key`` order.  One pass over a packed
monomial's nonzero fields gives its sort key, a single ``int``: the total
degree above the monomial *repacked* with its fields in ``var_key`` order,
the first variable topmost.  Keys are distinct, so a reverse sort of plain
ints puts the leading term first, and the public view is read off the
repacked fields from the top down, already in ``var_key`` order.

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
instead: their operands are already canonical, so only what the operation
made needs a look.  A sum of products, each coefficient of a series
convolution that is not all numbers, is one multiply-accumulate,
``Polynomial.dot``: every term product goes straight into one term map.  A
product of two polynomials is ``dot`` of one pair, and a product of one
term by one term, the common case when path weights are multiplied out part
by part, is one integer addition and one coefficient product.  Both end in
one finishing pass: one scan of the result's monomials for a set guard bit
or an inverse field, then the canonical pass, and the inverse rewrite only
when some monomial holds an inverse variable.  Whether an operand holds an
inverse variable is never recorded: the product's own monomials say whether
the rewrite can apply.  A power of one term is one integer product of its
monomial and one coefficient power; any other power, of a polynomial or of
a series, is built by ``_square_and_multiply`` starting from the base
itself, so ``p ** 1`` takes no product and ``p ** 2`` one.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
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


# -- packed monomials ----------------------------------------------------------
#
# Field i occupies bits [i * _WIDTH, (i + 1) * _WIDTH); its top bit is the
# guard bit.  Every stored monomial has all guard bits clear, so adding two of
# them puts at most 2 * MAX_EXPONENT < 2 ** _WIDTH in each field: nothing
# carries into the next field, and a field that went past MAX_EXPONENT shows
# as a set guard bit.  The monomial 1 is the int 0.

_WIDTH = 16
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1

_SHIFT: dict[str, int] = {}  # variable -> bit offset of its field
_NAMES: list[str] = []  # field index -> variable
# The layout of the sort keys, (fields, places, mask), rebuilt with every new
# field.  A monomial *repacked* in var_key order puts the field of the first
# variable topmost, and mask covers all its fields, span bits.  Both tables
# are indexed by the bit length of what is left to read, so the top field is
# one lookup away.  fields[n] is (shift, scale, below) for the field holding
# bit n - 1 of a packed monomial: scale is (1 << place) + (1 << span), place
# being where the variable's field lands when repacked, so the sum of
# e * scale over a monomial's fields is its key, (degree << span) | repacked.
# places[n] is (place, variable, below) for a repacked monomial.  below masks
# the bits under the field.  Places move when a variable is added, so a call
# reads the layout once and compares only the keys it made.
_LAYOUT: tuple[list, list, int] = ([None], [None], 0)
_GUARD = 0  # the guard bits of every assigned field
# the bits a product's finishing pass looks for: every guard bit and the
# fields of the assigned inverse variables
_FLAGS = 0
# (inverse field, inverse unit, base field, base unit, shift) for each
# inverse variable whose base and inverse both have fields
_RULES: tuple[tuple[int, int, int, int, int], ...] = ()
_ASSIGN_LOCK = threading.Lock()


def _shift(name: str) -> int:
    """Bit offset of the field of ``name``, assigning one on first sight."""
    shift = _SHIFT.get(name)
    return _assign(name) if shift is None else shift


def _assign(name: str) -> int:
    global _GUARD, _FLAGS, _RULES, _LAYOUT
    var_key(name)  # validates
    with _ASSIGN_LOCK:
        shift = _SHIFT.get(name)
        if shift is not None:
            return shift
        shift = len(_NAMES) * _WIDTH
        _NAMES.append(name)
        ranked = sorted(_NAMES, key=lambda v: (var_key(v), v))
        span = len(ranked) * _WIDTH
        place = {v: span - (rank + 1) * _WIDTH for rank, v in enumerate(ranked)}
        fields, places = [None], [None]
        for i, v in enumerate(_NAMES):
            fields += [(i * _WIDTH, (1 << place[v]) + (1 << span), (1 << i * _WIDTH) - 1)] * _WIDTH
        for v in reversed(ranked):
            places += [(place[v], v, (1 << place[v]) - 1)] * _WIDTH
        _LAYOUT = (fields, places, (1 << span) - 1)
        _GUARD |= 1 << (shift + _WIDTH - 1)
        _FLAGS |= 1 << (shift + _WIDTH - 1)
        if name in INVERSE_VARS:
            _FLAGS |= MAX_EXPONENT << shift
        _SHIFT[name] = shift
        _RULES = tuple(
            (MAX_EXPONENT << _SHIFT[inv], 1 << _SHIFT[inv],
             MAX_EXPONENT << _SHIFT[base], 1 << _SHIFT[base], step)
            for inv, (base, step) in INVERSE_VARS.items()
            if inv in _SHIFT and base in _SHIFT
        )
        return shift


def _overflow(mono: int) -> OverflowError:
    names = [v for i, v in enumerate(_NAMES) if mono >> (i * _WIDTH + _WIDTH - 1) & 1]
    return OverflowError(f"exponent of {', '.join(names)} would exceed {MAX_EXPONENT}")


def _pack(pairs: Iterable[tuple[str, int]]) -> int:
    """Packed form of ``(variable, exponent)`` pairs, in any order."""
    mono = 0
    for v, e in pairs:
        if e < 0:
            raise ValueError("monomial exponents must be nonnegative")
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} of {v} exceeds {MAX_EXPONENT}")
        if e:
            mono += e << _shift(v)
            if mono & _GUARD:
                raise _overflow(mono)
    return mono


def _key(mono: int, fields: list) -> int:
    """Sort key of a packed monomial, (degree << span) | repacked; visits its nonzero fields only."""
    key = 0
    while mono:
        shift, scale, below = fields[mono.bit_length()]
        key += (mono >> shift) * scale  # the top field, so no mask is needed
        mono &= below
    return key


def _view(key: int, places: list, mask: int) -> dict[str, int]:
    """The variables and exponents of a sort key, read off its repacked fields
    from the top down, so already in var_key order."""
    repacked = key & mask
    view = {}
    while repacked:
        place, name, below = places[repacked.bit_length()]
        view[name] = repacked >> place
        repacked &= below
    return view


def _decoded(terms: dict[int, Scalar]) -> list[tuple[dict[str, int], Scalar]]:
    """``(variable -> exponent, coefficient)`` rows, the leading term first."""
    fields, places, mask = _LAYOUT
    keyed = {_key(m, fields): c for m, c in terms.items()}
    # distinct monomials have distinct keys, so plain ints sort the rows
    return [(_view(k, places, mask), keyed[k]) for k in sorted(keyed, reverse=True)]


def _scalar(value) -> Scalar:
    """Canonical coefficient: ``int`` when integral, ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _canonical(raw: dict[int, Scalar]) -> dict[int, Scalar]:
    """Drop zero coefficients and store integral ones as ``int``."""
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in raw.items()
        if c
    }


def _reduce_inverses(raw: dict[int, Scalar]) -> dict[int, Scalar]:
    """Apply the base*inverse rewrite rules until no monomial holds both."""
    rules = _RULES
    if not any(m & inv and m & base for m in raw for inv, _, base, _, _ in rules):
        return raw
    out: dict[int, Scalar] = {}
    stack = list(raw.items())
    while stack:
        mono, coeff = stack.pop()
        for inv, inv_unit, base, base_unit, step in rules:
            if mono & inv and mono & base:
                lowered = mono - base_unit
                stack.append((lowered - inv_unit, coeff))
                if step:
                    stack.append((lowered, -step * coeff))
                break
        else:
            out[mono] = out.get(mono, 0) + coeff
    return _canonical(out)


def _collect(terms: Iterable[tuple[Iterable[tuple[str, int]], Scalar]]) -> dict[int, Scalar]:
    """Canonical term map of ``(public monomial, coefficient)`` pairs; repeats add up."""
    raw: dict[int, Scalar] = {}
    for mono, c in terms:
        m = _pack(mono)
        raw[m] = raw.get(m, 0) + _scalar(c)
    return _reduce_inverses(_canonical(raw))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)  # packed monomial -> coefficient

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        object.__setattr__(self, "_terms", _collect((terms or {}).items()))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # the default slot restore would go through the raising __setattr__,
        # and field positions are per process, so pickle the public view
        return (Polynomial, ({tuple(v.items()): c for v, c in _decoded(self._terms)},))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _trusted({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.const(1)

    @classmethod
    def const(cls, value: Scalar) -> "Polynomial":
        value = _scalar(value)
        return _trusted({0: value} if value else {})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return _trusted({1 << _shift(name): 1})

    @classmethod
    def monomial(cls, coeff: Scalar, powers: Mapping[str, int]) -> "Polynomial":
        for v in powers:
            var_key(v)
        return cls({tuple(powers.items()): coeff})

    @classmethod
    def sum(cls, items: Iterable[PolyLike]) -> "Polynomial":
        """Sum of many polynomials, accumulated in place in one term map."""
        acc: dict[int, Scalar] = {}
        get = acc.get
        for item in items:
            terms = item._terms if isinstance(item, Polynomial) else cls._coerce(item)._terms
            if not acc:
                acc.update(terms)
                continue
            for m, c in terms.items():
                acc[m] = get(m, 0) + c
        return _trusted(_canonical(acc))

    @staticmethod
    def dot(pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """Sum of the products a * b over ``pairs``, multiplied and added into one term map.

        No product is built on its own: the sum gets one finishing pass
        (``_finished``).  The inverse rewrite is linear, so rewriting the sum
        is summing the rewritten products.
        """
        acc: dict[int, Scalar] = {}
        get = acc.get
        for a, b in pairs:
            left, right = a._terms, b._terms
            if len(left) > len(right):
                left, right = right, left
            terms = right.items()
            for m1, c1 in left.items():
                for m2, c2 in terms:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        return _finished(acc)

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
        return self._merged(other._terms.items())

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "Polynomial":
        other = self._coerce(other)
        return self._merged([(m, -c) for m, c in other._terms.items()])

    def _merged(self, terms) -> "Polynomial":
        """self plus ``terms``, the terms of another polynomial or of its
        negation, merged into a copy of self's term map."""
        if not terms:
            return self
        # canonical operands have canonical monomials, so their sum needs no
        # inverse rewrite; only merged coefficients can become zero or integral
        out = dict(self._terms)
        for m, c in terms:
            if m in out:
                c = out[m] + c
                if not c:
                    del out[m]
                    continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
            out[m] = c
        return _trusted(out)

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: PolyLike) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self._coerce(other)
        left, right = self._terms, other._terms
        if len(left) == 1 and len(right) == 1:
            # one term times one term: one integer addition, one coefficient product
            ((m1, c1),) = left.items()
            ((m2, c2),) = right.items()
            return _finished({m1 + m2: c1 * c2})
        return Polynomial.dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if exponent == 0:
            return Polynomial.one()
        terms = self._terms
        if len(terms) == 1:
            # one term: its monomial times the exponent, if no field passes
            # MAX_EXPONENT, and its coefficient to that power
            ((mono, coeff),) = terms.items()
            fields = _LAYOUT[0]
            rest = mono
            while rest:
                shift, _, below = fields[rest.bit_length()]
                if (rest >> shift) * exponent > MAX_EXPONENT:
                    break  # the products below raise the overflow
                rest &= below
            else:
                return _trusted({mono * exponent: coeff**exponent})
        return _square_and_multiply(self, exponent)

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
    def scalar(self) -> Scalar | None:
        """The value of a constant polynomial as stored, an ``int`` when integral,
        else a ``Fraction``; ``None`` for a polynomial that is not a constant."""
        terms = self._terms
        return (terms.get(0) if len(terms) == 1 else None) if terms else 0

    @property
    def is_constant(self) -> bool:
        return self.scalar is not None

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a ``Fraction``."""
        value = self.scalar
        if value is None:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(value)

    def _support(self) -> int:
        """Union of the monomials: a field is nonzero where some term has it."""
        support = 0
        for m in self._terms:
            support |= m
        return support

    def variables(self) -> tuple[str, ...]:
        fields, places, mask = _LAYOUT
        return tuple(_view(_key(self._support(), fields), places, mask))

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return [(tuple(v.items()), c) for v, c in _decoded(self._terms)]

    def _leading(self) -> int:
        fields = _LAYOUT[0]
        return max(self._terms, key=lambda m: _key(m, fields))

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        Unbound variables stay symbolic; binding every variable to a rational
        yields a constant polynomial.  Binding the base of a formal inverse
        variable also binds the inverse to the reciprocal value, so the
        defining relation survives every substitution.
        """
        bound = {v: self._coerce(val) for v, val in bindings.items()}
        support = self._support()
        for inv, (base, shift) in INVERSE_VARS.items():
            held = inv in _SHIFT and support >> _SHIFT[inv] & MAX_EXPONENT
            if held and inv not in bound and base in bound:
                value = bound[base] + Polynomial.const(shift)
                if not value.is_constant or not value:
                    raise ValueError(
                        f"binding {base} that way leaves no rational value for {inv}"
                    )
                bound[inv] = Polynomial.const(Fraction(1) / value.constant_value())
        # the bound variables that have a field, in var_key order; a variable
        # without a field is in no monomial
        order = sorted((var_key(v), v, _SHIFT[v]) for v in bound if v in _SHIFT)
        mask = 0
        for _, _, shift in order:
            mask |= MAX_EXPONENT << shift
        powers: dict[tuple[str, int], Polynomial] = {}  # (variable, exponent) -> power
        pieces = []
        for mono, coeff in self._terms.items():
            piece = Polynomial.const(coeff)
            split = mono & mask
            residual = mono ^ split
            for _, v, shift in order:
                if not split:
                    break
                e = split >> shift & MAX_EXPONENT
                if e:
                    split -= e << shift
                    factor = (v, e)
                    power = powers.get(factor)
                    if power is None:
                        power = powers[factor] = bound[v] ** e
                    piece = piece * power
            if residual:
                # a sub-monomial of a canonical monomial is itself canonical
                piece = piece * _trusted({residual: 1})
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
            return _trusted({})
        lead = divisor._leading()
        lead_coeff = divisor._terms[lead]
        guard = _GUARD
        remainder = dict(self._terms)
        # each monomial's sort key, decoded once, when it enters the remainder
        fields = _LAYOUT[0]
        keys = {m: _key(m, fields) for m in remainder}
        quotient: dict[int, Scalar] = {}
        while remainder:
            mono = max(remainder, key=keys.__getitem__)
            coeff = remainder[mono]
            # every field at once: a field of mono below the lead's borrows
            # its own guard bit and no other
            lifted = (mono | guard) - lead
            if lifted & guard != guard:
                raise NotDivisible(f"({self}) is not divisible by ({divisor})")
            q_mono = lifted - guard
            q_coeff = _scalar(Fraction(coeff) / lead_coeff)
            quotient[q_mono] = quotient.get(q_mono, 0) + q_coeff
            piece = _trusted({q_mono: q_coeff}) * divisor
            for m, c in piece._terms.items():
                new = remainder.get(m, 0) - c
                if new:
                    if m not in keys:
                        keys[m] = _key(m, fields)
                    remainder[m] = new
                else:
                    remainder.pop(m, None)
        result = _trusted(_canonical(quotient))
        if result * divisor != self:
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return result

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in _decoded(self._terms):
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono.items())
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
        return [{"coeff": str(coeff), "monomial": mono} for mono, coeff in _decoded(self._terms)]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "Polynomial":
        """Read ``to_json`` output.  A coefficient is an int or an exact string such as
        "1/10"; a JSON float is refused, as it holds a binary fraction, not what was written.
        An exponent is an int; JSON ``true`` is refused, though Python counts it as 1."""
        terms = [(entry["monomial"].items(), entry["coeff"]) for entry in data]
        for mono, coeff in terms:
            if type(coeff) is not int and type(coeff) is not str:
                raise TypeError(f"a coefficient must be an integer or a string, got {coeff!r}")
            for v, e in mono:
                if type(e) is not int:
                    raise TypeError(f"the exponent of {v} must be an integer, got {e!r}")
        return _trusted(_collect(terms))


_new = object.__new__
_set_terms = Polynomial._terms.__set__


def _trusted(terms: dict[int, Scalar]) -> Polynomial:
    """Wrap a term map that is already canonical, without copying or checking it."""
    poly = _new(Polynomial)
    _set_terms(poly, terms)
    return poly


def _finished(raw: dict[int, Scalar]) -> Polynomial:
    """The polynomial of a product's raw term map, each key a sum of canonical
    monomials.  Fields never carry, so a pair of terms that went past
    ``MAX_EXPONENT`` left its guard bit in a key, and one scan of the keys
    for ``_FLAGS`` finds every overflow and every monomial the inverse
    rewrite could touch."""
    flags = _FLAGS
    for m in raw:
        if m & flags:
            break
    else:
        return _trusted(_canonical(raw))
    guard = _GUARD
    if any(map(guard.__and__, raw)):
        raise _overflow(next(m for m in raw if m & guard))
    return _trusted(_reduce_inverses(_canonical(raw)))


def _number(value: PolyLike) -> Scalar | None:
    """The value of a number or of a constant polynomial, an ``int`` when
    integral; ``None`` for a polynomial that is not a constant."""
    return value if type(value) is int else Polynomial._coerce(value).scalar


def _stored_form(values: tuple) -> tuple:
    """``values`` in the one form a series stores its coefficients and a weight
    table each of its sequences: numbers, each integral one an ``int``, when
    every value is a constant, else polynomials.  A value that is neither a
    number nor a polynomial raises ``Polynomial._coerce``'s ``TypeError``."""
    numbers = tuple(map(_number, values))
    return tuple(map(Polynomial._coerce, values)) if None in numbers else numbers


def _coeff_json(value: Polynomial | Scalar) -> list[dict]:
    """``to_json`` of a polynomial, or of the constant polynomial a stored
    number stands for, written from the number."""
    if type(value) is Polynomial:
        return value.to_json()
    return [{"coeff": str(value), "monomial": {}}] if value else []


def _square_and_multiply(base, exponent: int):
    """``base ** exponent``, ``exponent >= 1``, by repeated squaring from the
    base itself: ``base ** 1`` takes no product and ``base ** 2`` one."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient.

    Defined for any integer ``n``: zero when ``k < 0``, otherwise the falling
    factorial ``n (n-1) ... (n-k+1) / k!``, which is always an integer.  For
    ``n >= 0`` that is ``math.comb``; a negative ``n`` takes the product.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    return prod(range(n, n - k, -1)) // factorial(k)
