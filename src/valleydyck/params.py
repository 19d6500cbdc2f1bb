"""The paper's parameters: their symbols, and how a named one is read.

The symbols are made here, once, for every module and test that needs them:
a and b weight (a,b)-Motzkin paths, q weights q-Schroder paths and t counts
Narayana peaks; ``a_inv`` and ``t1_inv`` are the formal inverses of a and of
t + 1 (see :mod:`valleydyck.polynomials`).  They are not made in the
polynomial kernel because a variable's packed field is assigned when the
process first sees it, and the kernel is tested alone for output that does
not depend on that order.

One rule reads a parameter, for the weight registry and the oracles: a
function declares its parameters as keyword parameters after its first, and
each parameter's annotation says what its value must be.  This module
imports only the polynomial kernel, so the oracles read parameters without
loading the series code the registry is built on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Union

from .errors import BadParams
from .polynomials import Polynomial

ParamValue = Union[int, Fraction, str]

A, B, Q, T, A_INV, T1_INV = map(Polynomial.var, ("a", "b", "q", "t", "a_inv", "t1_inv"))


class Arity(int):
    """The annotation of an integer parameter that must be at least 1."""


# how a declared parameter is read, by its annotation: what it must be, and
# the value it becomes (None when the rational does not qualify)
_KINDS: dict[str, tuple[str, Callable[[Fraction], object]]] = {
    "int": ("an integer", lambda q: int(q) if q.denominator == 1 else None),
    "Arity": ("an integer >= 1", lambda q: int(q) if q.denominator == 1 and q >= 1 else None),
    "Fraction": ("a rational number", lambda q: q),
    "Polynomial": ("a rational number or 'sym'", Polynomial.const),
}


def _read(name: str, kind: str, value: ParamValue | None, label: str):
    if kind == "Polynomial" and value in (None, "sym"):
        return Polynomial.var(name)
    if value is None:
        raise BadParams(f"{label} needs the parameter {name}")
    what, convert = _KINDS[kind]
    try:
        read = convert(Fraction(value))
    except (TypeError, ValueError, ZeroDivisionError):
        read = None
    if read is None:
        raise BadParams(f"{label}: parameter {name} must be {what}, got {value!r}")
    return read


def read_params(fn: Callable, params: Mapping[str, ParamValue], label: str) -> dict:
    """Read from ``params`` each keyword parameter ``fn`` declares after its first.

    The parameter's annotation says how: ``int`` is an integer (a rational
    that is integral), ``Arity`` an integer >= 1, ``Fraction`` a rational,
    and ``Polynomial`` a variable of that name, which a rational pins and
    ``"sym"`` (or no value) leaves symbolic.  Values may be ints, Fractions
    or fraction strings like ``"7/3"``; a missing or unreadable one raises
    ``BadParams`` naming the parameter.  Names ``fn`` does not declare are
    left to the caller.
    """
    code, kinds = fn.__code__, fn.__annotations__
    return {  # an annotation is its name as text, or the class when evaluated
        name: _read(name, getattr(kinds[name], "__name__", kinds[name]), params.get(name), label)
        for name in code.co_varnames[1 : code.co_argcount]
    }
