"""The base of the package's immutable value types.

Public constructors validate: every object built from outside input (a
constructor call, ``from_json``, the command line) is checked once, there.
Unchecked construction, ``cls._trusted(*fields)``, is kept for the places
whose output is valid by construction, and never for a map the checks test:
the enumerators, the inverse maps, the series arithmetic, whose
coefficients are numbers or polynomials computed from operands already
canonical and stored in the one form their value has, the series
constructors ``zero``, ``one``, ``constant`` and ``x``, which read their
first entries into that form and pad them with zeros of it, and the weight
tables and series that ``spec_from_series`` and ``WeightSpec.to_series``
read off one another in that same form.
"""

_new = object.__new__


class Value:
    """An immutable record whose fields are its ``__slots__``.

    A subclass declares its fields once, in ``__slots__``, and writes one
    validating ``__init__`` that stores them with ``self._fill(*fields)``.
    ``__init_subclass__`` writes the rest from ``__slots__``, as source
    compiled once per class, the way ``dataclasses`` does: ``__eq__`` (the
    same class, then the fields), ``__hash__`` (of the field tuple),
    ``_fill`` (exactly one value per field) and ``_trusted``, which builds an
    instance from its fields without running ``__init__``.  They are written
    out per class because a generic one, reading the fields through a
    getter, costs about 130 ns more per call on the brute-force path.  A
    subclass that defines one of the four is refused.  ``repr`` reads every
    slot unless the subclass writes its own, and pickling rebuilds through
    ``__init__``, whose parameters name fields.
    """

    __slots__ = ("__weakref__",)  # objects stay weakly referenceable

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._params = code.co_varnames[1 : code.co_argcount]
        for name, fn in _methods(cls).items():
            if name in cls.__dict__:
                raise TypeError(f"{cls.__qualname__} must not define {name}: Value writes it")
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            fn.__module__ = cls.__module__
            setattr(cls, name, staticmethod(fn) if name == "_trusted" else fn)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the default slot restore would go through the raising __setattr__
        return type(self), tuple(getattr(self, p) for p in self._params)


def _methods(cls) -> dict:
    """``__eq__``, ``__hash__``, ``_fill`` and ``_trusted`` over ``cls.__slots__``.

    Each field is stored through its slot's ``__set__``, which bypasses the
    raising ``__setattr__``.
    """
    fields = cls.__slots__
    args = ", ".join(fields)
    mine = ", ".join(f"self.{f}" for f in fields)
    theirs = ", ".join(f"other.{f}" for f in fields)
    # one field compares bare, two or more as tuples
    same = f"{mine} == {theirs}" if len(fields) == 1 else f"({mine}) == ({theirs})"
    stores = "".join(f"    _set_{f}(self, {f})\n" for f in fields)
    source = (
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return {same}\n"
        "def __hash__(self):\n"
        f"    return hash(({mine},))\n"
        f"def _fill(self, {args}):\n{stores}"
        f"def _trusted({args}):\n"
        "    self = _new(cls)\n"
        f"{stores}"
        "    return self\n"
    )
    namespace = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    namespace.update(_new=_new, cls=cls)
    exec(compile(source, f"<{cls.__module__}.{cls.__qualname__} fields>", "exec"), namespace)
    return {name: namespace[name] for name in ("__eq__", "__hash__", "_fill", "_trusted")}
