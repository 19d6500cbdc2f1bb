"""How a named parameter is read from its text or number.

One rule serves the weight registry and the oracles: a function declares
its parameters as keyword parameters after its first, and each parameter's
annotation says what its value must be.  This module imports only the
polynomial kernel, so the oracles read parameters without loading the
series code the registry is built on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Union

from .errors import BadParams
from .polynomials import Polynomial

ParamValue = Union[int, Fraction, str]


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
