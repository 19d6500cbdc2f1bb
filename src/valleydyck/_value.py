"""The base of the package's immutable value types.

Public constructors validate: every object built from outside input (a
constructor call, ``from_json``, the command line) is checked once, there.
Unchecked construction, a private ``_trusted_*`` function that stores the
fields through :func:`slot_setters`, is kept for the places whose output is
valid by construction (the enumerators and the inverse maps), and never for
a map the checks test.
"""

from operator import attrgetter


class Value:
    """An immutable record whose fields are its ``__slots__``.

    A subclass writes one validating ``__init__`` that stores the fields with
    ``_fill``, or through :func:`slot_setters` where objects are built in
    bulk; such a subclass, and any with one field, also writes ``__eq__`` and
    ``__hash__`` over an explicit field tuple, which is faster than a getter.
    Equality, hash and ``repr`` read every slot, and pickling rebuilds
    through ``__init__``, whose parameters name fields.
    """

    __slots__ = ("__weakref__",)  # objects stay weakly referenceable

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = staticmethod(attrgetter(*cls.__slots__))  # a tuple for two fields or more
        code = cls.__init__.__code__
        cls._params = code.co_varnames[1 : code.co_argcount]

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

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


def slot_setters(cls) -> tuple:
    """Each slot's ``__set__``, in slot order; they bypass ``__setattr__``."""
    return tuple(getattr(cls, f).__set__ for f in cls.__slots__)
