"""Exception types shared across the library.

Each type here derives from :class:`ValleyDyckError`; arithmetic failures
also from :class:`ArithmeticError` and input validation errors from
:class:`ValueError`.  Some refusals raise a built-in type alone, such as
``enumerate_family``'s ``ValueError("size must be nonnegative")``, so one
base class does not catch every refusal; ``LIBRARY_REFUSALS`` in
``tests/test_validation_contract.py`` lists each with its type.
"""


class ValleyDyckError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(ValleyDyckError, ArithmeticError):
    """Exact division was requested but no exact quotient exists."""


class OrderMismatch(ValleyDyckError, ValueError):
    """Binary series operation on series of different truncation orders."""


class NotAUnit(ValleyDyckError, ArithmeticError):
    """Series inversion needs a nonzero rational constant term."""


class NotDivisibleByX(ValleyDyckError, ArithmeticError):
    """Division by a power of x needs that many leading zero coefficients."""


class NotAContraction(ValleyDyckError, ValueError):
    """The functional-equation map does not contract coefficient by coefficient."""


class NonzeroConstantTerm(ValleyDyckError, ValueError):
    """A weight series must have zero constant term."""


class IllegalCharacter(ValleyDyckError, ValueError):
    """A step string contains a character outside the family alphabet."""


class NegativeLevel(ValleyDyckError, ValueError):
    """A path dipped below the axis in a family that forbids it."""


class NonzeroEnd(ValleyDyckError, ValueError):
    """A path does not return to level zero."""


class FamilyViolation(ValleyDyckError, ValueError):
    """A path breaks a family-specific structural rule."""


class NotValleyUniform(ValleyDyckError, ValueError):
    """A primitive factor has valleys at more than one level."""


class OrderExceeded(ValleyDyckError, ValueError):
    """A weight index exceeds the order the weight table was built for."""


class InvalidDecoration(ValleyDyckError, ValueError):
    """A decorated object violates its map's structural preconditions."""


class NotInTargetFamily(ValleyDyckError, ValueError):
    """An inverse map was applied to a path outside the target family or filter."""


class UniqueFactorizationFailure(ValleyDyckError, RuntimeError):
    """The unique factorization underlying an inverse map broke down (a bug)."""


class BadParams(ValleyDyckError, ValueError):
    """Unknown or out-of-range parameters for an oracle or registry entry."""


class IndexOutOfRange(ValleyDyckError, ValueError):
    """A closed-form evaluator was asked for an index outside its stated range."""
