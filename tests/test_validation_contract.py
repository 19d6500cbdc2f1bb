"""What the library accepts, and exactly how it refuses the rest.

``Path`` is compared, over every step string of length <= 6 on ``UDFHX``,
with a reference validator written out below.  Every other refusal of
``src/valleydyck`` is a row of ``LIBRARY_REFUSALS``, which pins its type and
message, and an ``ast`` scan holds each ``raise`` to some row.
"""

import ast
import re
from fractions import Fraction
from itertools import product
from pathlib import Path as FilePath

import pytest

from conftest import message_pattern, rebuilt

import valleydyck
from valleydyck import oracles
from valleydyck._value import Value
from valleydyck.bijections import (
    MAPS,
    DecoratedStructure,
    PartDecoration,
    TauDecorated,
    TauFactor,
    decorations,
    enumerate_decorated,
    enumerate_tau,
    forward,
    inverse,
)
from valleydyck.errors import (
    BadParams,
    FamilyViolation,
    IllegalCharacter,
    IndexOutOfRange,
    InvalidDecoration,
    NegativeLevel,
    NonzeroConstantTerm,
    NonzeroEnd,
    NotAContraction,
    NotAUnit,
    NotDivisible,
    NotDivisibleByX,
    NotInTargetFamily,
    NotValleyUniform,
    OrderExceeded,
    OrderMismatch,
    UniqueFactorizationFailure,
)
from valleydyck.params import A, A_INV, B, T, Arity, read_params, signature
from valleydyck.paths import (
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    enumerate_family,
    is_valley_uniform,
    passes_filter,
    valley_structures,
)
from valleydyck.polynomials import MAX_EXPONENT, Polynomial, var_key
from valleydyck.series import (
    ARITY,
    EQUATIONS,
    Equation,
    TruncatedSeries,
    named_series,
    solve_equation,
    valley_series_ab,
)
from valleydyck.verify import SUITES, run_check, run_suite
from valleydyck.weights import (
    REGISTRY,
    WeightSpec,
    path_weight,
    registry_get,
    structure_weight,
    target_weight,
    target_weight_sum,
    valley_weight_sum,
)

FAMILIES = ("dyck", "motzkin", "schroder_large", "schroder_small", "delannoy")
REFERENCE_ALPHABET = {
    "dyck": "UD",
    "motzkin": "UDF",
    "schroder_large": "UDH",
    "schroder_small": "UDH",
    "delannoy": "UDH",
}


def reference_check(family: str, steps: str):
    """The path rules as a plain loop: None, or (error type, message)."""
    if family not in REFERENCE_ALPHABET:
        return FamilyViolation, f"unknown family {family!r}"
    level = 0
    for ch in steps:
        if ch not in REFERENCE_ALPHABET[family]:
            return IllegalCharacter, f"step {ch!r} is not allowed in {family}"
        if family == "schroder_small" and ch == "H" and level == 0:
            return FamilyViolation, "small Schroder paths have no H-step on the axis"
        level += {"U": 1, "D": -1}.get(ch, 0)
        if level < 0 and family != "delannoy":
            return NegativeLevel, f"path dips to level {level}"
    if level != 0:
        return NonzeroEnd, f"path ends at level {level}"
    return None


def outcome(build):
    try:
        build()
    except Exception as exc:  # the contract compares whatever is raised
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("family", FAMILIES + ("bogus",))
def test_path_validation_matches_reference(family):
    accepted = 0
    for length in range(7):
        for chars in product("UDFHX", repeat=length):
            steps = "".join(chars)
            want = reference_check(family, steps)
            assert outcome(lambda: Path(family, steps)) == want, (family, steps)
            if want is None:
                accepted += 1
                path = Path(family, steps)
                assert (path.family, path.steps) == (family, steps)
    assert (accepted > 0) == (family != "bogus")


def _structure(*parts):
    return ValleyStructure(tuple(parts))


# a Path that skipped validation, to reach the factorization guards
_unchecked_path = Path._trusted


# with the filter lifted, a leading ud is a core factor with an empty subpath
LIFTED = {map_id: rebuilt(MAPS[map_id], target=(MAPS[map_id].target[0], "none"))
          for map_id in ("rho", "theta")}


def _body(n: int, r: Arity, x: Fraction, t: Polynomial):
    """Parameters of each kind ``read_params`` reads."""


DYCK, UD = Path("dyck"), Path("dyck", "UD")
SERIES, TOP = TruncatedSeries.one(3), Polynomial.monomial(1, {"a": MAX_EXPONENT, "b": 1})
NUMBERS, SYMBOLS = TruncatedSeries.from_coeffs([1, 2], 3), TruncatedSeries.from_coeffs([1, A], 3)
TAU = TauFactor(2, (1,), ("1",))
OVER = f"exponent of a would exceed {MAX_EXPONENT}"


# Every refusal of the library, as (call, type, message) or (call, type,
# message, patch): with patch, an (object, name, value) set for the call, the
# call must raise exactly type with exactly the one argument message.  A patch
# reaches a check that only a fault can trip, as the verify FAULTS do
LIBRARY_REFUSALS = [
    # the package and the value types
    (lambda: valleydyck.nope, AttributeError, "module 'valleydyck' has no attribute 'nope'"),
    (lambda: type("HandWritten", (Value,), {"__slots__": ("x",), "__init__": lambda self, x: None,
                                            "__eq__": lambda self, other: True}),
     TypeError, "HandWritten must not define __eq__: Value writes it"),
    (lambda: setattr(UD, "steps", "UUDD"), AttributeError, "Path is immutable"),
    (lambda: delattr(UD, "steps"), AttributeError, "Path is immutable"),
    # paths
    (lambda: Path("bogus"), FamilyViolation, "unknown family 'bogus'"),
    (lambda: Path("dyck", "DU"), NegativeLevel, "path dips to level -1"),
    (lambda: Path("schroder_small", "H"), FamilyViolation,
     "small Schroder paths have no H-step on the axis"),
    (lambda: Path("dyck", "UFD"), IllegalCharacter, "step 'F' is not allowed in dyck"),
    (lambda: Path("dyck", "UDU"), NonzeroEnd, "path ends at level 1"),
    (lambda: Path.from_json({"family": "dyck", "steps": ["U", "D"]}), TypeError,
     "path steps must be a string, got list"),
    (lambda: passes_filter("UD", "nope"), ValueError, "unknown filter 'nope'"),
    (lambda: list(enumerate_family("dyck", -1)), ValueError, "size must be nonnegative"),
    (lambda: list(enumerate_family("dyck", 1, "nope")), ValueError, "unknown filter 'nope'"),
    (lambda: list(enumerate_family("bogus", 1)), FamilyViolation, "unknown family 'bogus'"),
    (lambda: Pyramid(0), ValueError, "pyramid height must be positive"),
    (lambda: ValleyBlock(0, (1, 1)), ValueError, "block ascent must be positive"),
    # a block's heights default to (), which its own check then rejects
    (lambda: ValleyBlock(1), ValueError, "a block needs at least two positive pyramid heights"),
    (lambda: ValleyBlock(1, (1, 0)), ValueError,
     "a block needs at least two positive pyramid heights"),
    (lambda: is_valley_uniform(Path("motzkin")), FamilyViolation,
     "the valley condition applies to Dyck paths"),
    (lambda: list(valley_structures(-1)), ValueError, "size must be nonnegative"),
    # the domain-only walks share the structure walk and its refusal
    (lambda: list(enumerate_decorated(-1, "phi")), ValueError, "size must be nonnegative"),
    (lambda: list(enumerate_tau(-1, "src_4372")), ValueError, "size must be nonnegative"),
    # the decorated objects: the first bad part is reported, and a part's
    # form is checked before its decoration
    (lambda: DecoratedStructure("nope", _structure(Pyramid(2)), (PartDecoration(UD),)),
     BadParams, "unknown map 'nope'"),
    (lambda: DecoratedStructure("rho", _structure(Pyramid(2), Pyramid(2)), (PartDecoration(UD),)),
     InvalidDecoration, "one decoration per part is required"),
    (lambda: DecoratedStructure("rho", _structure(Pyramid(2)),
                                (PartDecoration(Path("motzkin", "F")),)),
     InvalidDecoration, "rho decorations are dyck paths"),
    (lambda: DecoratedStructure("rho", _structure(Pyramid(3)), (PartDecoration(UD),)),
     InvalidDecoration, "decoration size 1 does not match part size 2"),
    (lambda: DecoratedStructure("phi", _structure(Pyramid(2)),
                                (PartDecoration(Path("motzkin", "F")),)),
     InvalidDecoration, "decoration size 1 does not match part size 0"),
    (lambda: DecoratedStructure("theta", _structure(ValleyBlock(1, (1, 1, 1))),
                                (PartDecoration(Path("schroder_large", "UD"), ("H",)),)),
     InvalidDecoration, "theta needs r-1 symbols"),
    (lambda: DecoratedStructure("theta", _structure(Pyramid(2)),
                                (PartDecoration(Path("schroder_large", "UD"), ("ud",)),)),
     InvalidDecoration, "theta needs r-1 symbols"),
    (lambda: DecoratedStructure("rho", _structure(Pyramid(2)), (PartDecoration(UD, ("H",)),)),
     InvalidDecoration, "rho takes no symbols"),
    (lambda: DecoratedStructure("rho", _structure(Pyramid(2), Pyramid(1)),
                                (PartDecoration(UD), PartDecoration(Path("motzkin")))),
     InvalidDecoration, "rho admits no axis pyramid of height 1"),
    (lambda: DecoratedStructure("rho", _structure(ValleyBlock(1, (1, 2))),
                                (PartDecoration(DYCK),)),
     InvalidDecoration, "rho admits only blocks with unit inner pyramids"),
    (lambda: DecoratedStructure.from_json(
        {"map": "rho", "parts": [{"kind": "pyramid", "height": 1.5, "sub": ""}]}),
     TypeError, "a part's height, ascent and heights must be integers"),
    (lambda: PartDecoration(DYCK, ("H", "zz", "yy")), InvalidDecoration,
     "unknown decoration symbol 'zz'"),
    (lambda: PartDecoration(DYCK, "UD"), InvalidDecoration, "unknown decoration symbol 'U'"),
    (lambda: forward("tau", UD), BadParams, "tau applies to marked, lettered objects"),
    (lambda: forward("rho", inverse("psi", Path("dyck", "UUDD"))), BadParams,
     "object does not belong to map 'rho'"),
    # the inverse maps
    (lambda: inverse("rho", Path("motzkin", "UD")), NotInTargetFamily,
     "rho inverts paths of family 'dyck'"),
    (lambda: inverse("phi", "UD"), NotInTargetFamily, "phi inverts paths of family 'motzkin'"),
    (lambda: inverse("rho", Path("dyck", "UDUD")), NotInTargetFamily,
     "path 'UDUD' fails the first_two_not_ud condition"),
    (lambda: inverse("phi", Path("motzkin", "FUD")), NotInTargetFamily,
     "path 'FUD' fails the first_not_flat condition"),
    (lambda: inverse("theta", Path("schroder_large", "HUD")), NotInTargetFamily,
     "path 'HUD' fails the y_filter condition"),
    (lambda: inverse("rho", _unchecked_path("dyck", "DU")), UniqueFactorizationFailure,
     "expected an up step at 0 in 'DU'"),
    (lambda: inverse("psi", _unchecked_path("dyck", "UUDDDU")), UniqueFactorizationFailure,
     "expected an up step at 4 in 'UUDDDU'"),
    (lambda: inverse("rho", _unchecked_path("dyck", "UUD")), UniqueFactorizationFailure,
     "unbalanced factor at 0 in 'UUD'"),
    (lambda: inverse("sigma", _unchecked_path("schroder_small", "UUDDUUD")),
     UniqueFactorizationFailure, "unbalanced factor at 4 in 'UUDDUUD'"),
    (lambda: inverse("rho", UD), UniqueFactorizationFailure, "empty core factor at 2 in 'UD'",
     (MAPS, "rho", LIFTED["rho"])),
    (lambda: inverse("rho", Path("dyck", "UDUDUD")), UniqueFactorizationFailure,
     "empty core factor at 6 in 'UDUDUD'", (MAPS, "rho", LIFTED["rho"])),
    (lambda: inverse("theta", Path("schroder_large", "H")), UniqueFactorizationFailure,
     "expected an up step at 0 in 'H'", (MAPS, "theta", LIFTED["theta"])),
    # tau: the ascent is checked before the heights, the heights before the letters
    (lambda: TauFactor(0, (1,), ()), InvalidDecoration,
     "the marked ascent must have length at least 1"),
    (lambda: TauFactor(0, (), ("1",)), InvalidDecoration,
     "the marked ascent must have length at least 1"),
    (lambda: TauFactor(1, (), ()), InvalidDecoration, "inner pyramid heights must be positive"),
    (lambda: TauFactor(1, (2, 0, 1), ()), InvalidDecoration,
     "inner pyramid heights must be positive"),
    (lambda: TauFactor(2, (0,), ()), InvalidDecoration, "inner pyramid heights must be positive"),
    (lambda: TauFactor(3, (1,), ("1",)), InvalidDecoration, "a factor carries ascent-1 letters"),
    (lambda: TauFactor(2, (1,), ()), InvalidDecoration, "a factor carries ascent-1 letters"),
    (lambda: TauDecorated("left", (TAU,)), BadParams, "unknown tau side 'left'"),
    (lambda: TauDecorated("src_4372", (TAU, TauFactor(4, (1,), ("3h", "1", "7")),
                                       TauFactor(2, (1,), ("3",)))),
     InvalidDecoration, "letters ['3h', '7'] are not allowed on side src_4372"),
    (lambda: TauDecorated("dst_2174", (TauFactor(3, (1,), ("3h", "1h")),)), InvalidDecoration,
     "letters ['1h'] are not allowed on side dst_2174"),
    (lambda: TauDecorated.from_json(
        {"side": "src_4372", "parts": [{"k0": 1.5, "letters": [], "blocks": [1]}]}),
     TypeError, "a tau part needs an integer k0 and a list of integer blocks"),
    (lambda: list(enumerate_tau(2, "left")), BadParams, "unknown tau side 'left'"),
    # the polynomial kernel
    (lambda: var_key("1a"), ValueError, "bad variable name: '1a'"),
    (lambda: setattr(A, "x", 1), AttributeError, "Polynomial is immutable"),
    (lambda: delattr(A, "_terms"), AttributeError, "Polynomial is immutable"),
    (lambda: Polynomial.monomial(1, {"a": -1}), ValueError,
     "monomial exponents must be nonnegative"),
    (lambda: Polynomial.monomial(1, {"a": MAX_EXPONENT + 1}), OverflowError,
     f"exponent {MAX_EXPONENT + 1} of a exceeds {MAX_EXPONENT}"),
    (lambda: Polynomial({(("a", MAX_EXPONENT), ("a", 1)): 1}), OverflowError, OVER),
    (lambda: TOP * A, OverflowError, OVER),  # one term times one term
    (lambda: (TOP + B) * (A + 1), OverflowError, OVER),  # the term-pair loop
    (lambda: A ** (MAX_EXPONENT + 1), OverflowError, OVER),
    (lambda: A + "1", TypeError, "cannot treat str as a polynomial"),
    (lambda: A**-1, ValueError, "polynomial powers must be nonnegative integers"),
    (lambda: A.constant_value(), ValueError, "not a constant polynomial: a"),
    (lambda: (B * A_INV).substitute({"a": 0}), ValueError,
     "binding a that way leaves no rational value for a_inv"),
    (lambda: A.exact_div(0), ZeroDivisionError, "division by the zero polynomial"),
    (lambda: (T + 1).exact_div(T), NotDivisible, "(t + 1) is not divisible by (t)"),
    (lambda: (T + 1).exact_div(T + 1), NotDivisible, "(t + 1) is not divisible by (t + 1)",
     (Polynomial, "__eq__", lambda self, other: False)),
    # a JSON float is a binary fraction (0.1 is not 1/10), and true is no
    # coefficient; Python counts true as the int 1, but an exponent is a JSON integer
    *[(lambda coeff=coeff: Polynomial.from_json([{"coeff": coeff, "monomial": {}}]), TypeError,
       f"a coefficient must be an integer or a string, got {coeff!r}")
      for coeff in (0.1, 2.0, True)],
    *[(lambda e=e: Polynomial.from_json([{"coeff": 1, "monomial": {"a": e}}]), TypeError,
       f"the exponent of a must be an integer, got {e!r}") for e in (True, 1.0, "1")],
    # series
    (lambda: TruncatedSeries([]), ValueError,
     "a truncated series needs at least the x^0 coefficient"),
    (lambda: TruncatedSeries(["1/2"]), TypeError, "cannot treat str as a polynomial"),
    (lambda: SERIES.coefficient(4), IndexError, "coefficient 4 outside stored order 3"),
    (lambda: SERIES + TruncatedSeries.one(5), OrderMismatch, "orders differ: 3 vs 5"),
    (lambda: SYMBOLS / TruncatedSeries.one(4), OrderMismatch, "orders differ: 3 vs 4"),
    (lambda: SERIES**-1, ValueError, "series powers must be nonnegative integers"),
    (lambda: TruncatedSeries.from_coeffs([0, 1], 2).inverse(), NotAUnit,
     "constant term 0 is not a nonzero rational"),
    (lambda: SYMBOLS / TruncatedSeries.from_coeffs([0, 1], 3), NotAUnit,
     "constant term 0 is not a nonzero rational"),
    (lambda: NUMBERS / TruncatedSeries.from_coeffs([T, 1], 3), NotAUnit,
     "constant term t is not a nonzero rational"),
    (lambda: SERIES.times_x(-1), ValueError, "times_x needs a nonnegative power"),
    (lambda: SERIES.shift_div_x(4), NotDivisibleByX, "cannot divide an order-3 series by x^4"),
    (lambda: SERIES.shift_div_x(1), NotDivisibleByX, "leading coefficients are not all zero"),
    (lambda: TruncatedSeries.from_json({"order": 2, "coeffs": [[]]}), ValueError,
     "series JSON: coefficient count does not match order"),
    (lambda: Equation(((0, 0, 1), (-1, 1, 1))), ValueError,
     "term (-1, 1) needs a power of F >= 0 and of x >= 0"),
    (lambda: Equation(((0, -1, 1),)), ValueError,
     "term (0, -1) needs a power of F >= 0 and of x >= 0"),
    (lambda: Equation(((0, 0, 1), (1, 1, 1), (2, 0, B))), NotAContraction,
     "the coefficient of F^2 must vanish at x = 0"),
    (lambda: Equation(((0, 0, 1), (ARITY, 0, 1))), NotAContraction,
     "the coefficient of F^r+1 must vanish at x = 0"),
    (lambda: solve_equation(EQUATIONS["catalan"], 3), NotAContraction,
     "the solution does not satisfy its equation",
     (TruncatedSeries, "__eq__", lambda self, other: False)),
    *[(lambda args=args: named_series(*args), BadParams, message) for args, message in [
        (("fuss", 3), "fuss needs an integer parameter r >= 1"),
        (("fuss", 3, 0), "fuss needs an integer parameter r >= 1"),
        (("catalan", 3, 2), "series 'catalan' takes no r parameter"),
        (("nope", 3), "unknown series name 'nope'"),
        (("nope", 3, 1), "unknown series name 'nope'"),
        (("delannoy", 3), "unknown series name 'delannoy'"),
        (("chebyshev_u", 3), "unknown series name 'chebyshev_u'"),
        (("catalan", -1), "order must be nonnegative"),
    ]],
    (lambda: valley_series_ab(TruncatedSeries.zero(3), TruncatedSeries.zero(2)), OrderMismatch,
     "weight series must share one order"),
    (lambda: valley_series_ab(SERIES, TruncatedSeries.zero(3)), NonzeroConstantTerm,
     "weight series has constant term 1"),
    # weights and the weight registry
    (lambda: WeightSpec((), (A,), ()), ValueError, "weight sequences must share one length"),
    # a table entry is read as a series coefficient is: a number or a polynomial
    (lambda: WeightSpec((1.5,), (1,), (A,)), TypeError, "cannot treat float as a polynomial"),
    (lambda: WeightSpec((1,), ("a",), (A,)), TypeError, "cannot treat str as a polynomial"),
    (lambda: WeightSpec((1,), (1,), (None,)), TypeError, "cannot treat NoneType as a polynomial"),
    # a table of numbers sums on numbers, and refuses an index past it as any table does
    (lambda: valley_weight_sum(3, WeightSpec((1, 2), (3, 4), (5, 6))), OrderExceeded,
     "index 3 outside the table order 2"),
    (lambda: structure_weight(_structure(Pyramid(3)), registry_get("generic", 2)), OrderExceeded,
     "index 3 outside the table order 2"),
    (lambda: path_weight(Path("motzkin"), registry_get("generic", 2)), FamilyViolation,
     "valley weights apply to Dyck paths"),
    (lambda: path_weight(Path("dyck", "UUUDUDDUDD"), registry_get("generic", 6)),
     NotValleyUniform, "valleys of 'UUUDUDDUDD' sit at several levels"),
    (lambda: target_weight(DYCK, "nope"), BadParams, "unknown target weighting 'nope'"),
    # refused before any path is walked, also where no path passes the filter
    (lambda: target_weight_sum(1, "schroder_large", "y_filter", "nope"), BadParams,
     "unknown target weighting 'nope'"),
    (lambda: registry_get("nope", 1), BadParams,
     f"unknown weight table 'nope'; known: {', '.join(REGISTRY)}"),
    (lambda: registry_get("generic", -1), BadParams, "order must be nonnegative"),
    *[(lambda args=args, params=params: registry_get(*args, **params), kind, message)
      for args, params, kind, message in [
        (("fuss_asym", 3), dict(m=1, r="1.9"), BadParams,
         "fuss_asym: parameter r must be an integer >= 1, got '1.9'"),
        (("fuss_cubic", 3), dict(m=0, r=1), BadParams,
         "fuss_cubic: parameter m must be an integer >= 1, got 0"),
        (("motzkin_ab", 0), dict(a=0), ValueError,
         "binding a that way leaves no rational value for a_inv"),
        (("motzkin_ab", 5), dict(a=0), ValueError,
         "binding a that way leaves no rational value for a_inv"),
        (("motzkin_ab", 2), dict(a=2, zz=1), BadParams,
         "motzkin_ab at order 2 has no parameter or variable zz (variables: a, a_inv, b)"),
        (("narayana_shift_t", 5), dict(t=-1), ValueError,
         "binding t that way leaves no rational value for t1_inv"),
        (("schroder_large_q", 2), dict(t=1), BadParams,
         "schroder_large_q at order 2 has no parameter or variable t (variables: q)"),
        (("generic", 2), dict(alpha9=1), BadParams, "generic at order 2 has no parameter or "
         "variable alpha9 (variables: alpha1, alpha2, beta1, beta2, gamma1, gamma2)"),
        (("chebyshev_abcd", 5), dict(a=1, z=1), BadParams, "chebyshev_abcd at order 5 has no "
         "parameter or variable z (parameters: a, b, c, d; variables: b, c, d)"),
        # the variables are the declared parameters left symbolic, at every
        # order and whatever factor a value zeroes
        (("chebyshev_abcd", 1), dict(z=1), BadParams, "chebyshev_abcd at order 1 has no "
         "parameter or variable z (parameters: a, b, c, d; variables: a, b, c, d)"),
        (("chebyshev_abcd", 5), dict(c=0, z=1), BadParams, "chebyshev_abcd at order 5 has no "
         "parameter or variable z (parameters: a, b, c, d; variables: a, b, d)"),
        (("chebyshev_second", 5), dict(b=0, z=1), BadParams, "chebyshev_second at order 5 has "
         "no parameter or variable z (parameters: a, b, c; variables: a, c)"),
        (("delannoy_tuple", 2), dict(a=4, b=3, c=7, d=2, e=1), BadParams, "delannoy_tuple at "
         "order 2 has no parameter or variable e (parameters: a, b, c, d; variables: none)"),
        (("geom_3x", 2), dict(x=1), BadParams,
         "geom_3x at order 2 has no parameter or variable x (variables: none)"),
        (("motzkin_ab", 4), dict(a_inv=3), BadParams,
         "motzkin_ab at order 4: a_inv is the formal inverse of a; pin a instead"),
        (("narayana_shift_t", 4), dict(t1_inv=3), BadParams,
         "narayana_shift_t at order 4: t1_inv is the formal inverse of t; pin t instead"),
    ]],
    *[(lambda params=params: read_params(signature(_body), params, "body"), BadParams, message)
      for params, message in [
        ({"r": 0, "x": 0}, "body: parameter r must be an integer >= 1, got 0"),
        ({"r": "sym", "x": 0}, "body: parameter r must be an integer >= 1, got 'sym'"),
        ({"r": 1, "x": "sym"}, "body: parameter x must be a rational number, got 'sym'"),
        ({"r": 1, "x": 0, "t": "1/0"},
         "body: parameter t must be a rational number or 'sym', got '1/0'"),
        ({"x": 0}, "body needs the parameter r"),
    ]],
    # the oracles
    (lambda: oracles.catalan_number(-1), IndexOutOfRange, "catalan index must be nonnegative"),
    (lambda: oracles.fibonacci_number(-1), IndexOutOfRange, "fibonacci index must be nonnegative"),
    (lambda: oracles.narayana_polynomial(-1), IndexOutOfRange,
     "narayana index must be nonnegative"),
    (lambda: oracles.motzkin_polynomial(-1), IndexOutOfRange, "motzkin index must be nonnegative"),
    (lambda: oracles.schroder_large_polynomial(-1), IndexOutOfRange,
     "schroder index must be nonnegative"),
    (lambda: oracles.schroder_small_polynomial(-1), IndexOutOfRange,
     "schroder index must be nonnegative"),
    (lambda: oracles.chebyshev_u_at(-1, 2), IndexOutOfRange,
     "chebyshev index must be nonnegative"),
    (lambda: oracles.delannoy_number(-1), IndexOutOfRange, "delannoy index must be nonnegative"),
    (lambda: oracles.fuss_catalan_number(-1, 2), IndexOutOfRange,
     "fuss index must be nonnegative"),
    (lambda: oracles.fuss_catalan_number(2, 0), BadParams, "fuss needs r >= 1"),
    (lambda: oracles.delannoy_hstep_count(0), IndexOutOfRange,
     "axis H-step counting starts at semilength 1"),
    (lambda: oracles.oracle("unknown", 1), BadParams,
     f"unknown oracle 'unknown'; known: {', '.join(oracles.ORACLES)}"),
    (lambda: oracles.oracle("geom_3x", -1), IndexOutOfRange, "geom_3x index must be nonnegative"),
    (lambda: oracles.oracle("fuss", 2), BadParams, "fuss needs the parameter r"),
    (lambda: oracles.oracle("fuss_asym_collapse", 2, r=1, m=2), BadParams,
     "fuss_asym_collapse has no parameter m (parameters: r)"),
    (lambda: oracles.oracle("abcd_power", 4, a=2, b=1, c=3, d=1), BadParams,
     "abcd_power needs ad = (a-b)c"),
    # verify
    (lambda: run_suite("nope", 1), BadParams, f"unknown suite 'nope'; known: {', '.join(SUITES)}"),
    (lambda: run_suite("master", -1), BadParams, "the sweep bound must be nonnegative, got -1"),
    (lambda: run_suite("master", 1, jobs=0), BadParams,
     "the number of jobs must be at least 1, got 0"),
    (lambda: run_check("nope", 1), BadParams, "unknown check 'nope'"),
    (lambda: run_check("worked_examples", -2), BadParams,
     "the sweep bound must be nonnegative, got -2"),
]


def refused(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and info.value.args == (message,)


@pytest.mark.parametrize("call, kind, message, patch",
                         [(*row, None)[:4] for row in LIBRARY_REFUSALS],
                         ids=[row[2][:60] for row in LIBRARY_REFUSALS])
def test_library_refusal(call, kind, message, patch, monkeypatch):
    if patch is not None:
        target, name, value = patch
        (monkeypatch.setitem if type(target) is dict else monkeypatch.setattr)(target, name, value)
    refused(call, kind, message)


def library_raises():
    """Each raise in ``src/valleydyck`` but ``cli.py``, as (where, exception
    name, message); a raise of what a helper returns, ``raise _overflow(mono)``,
    stands for the exception the helper builds."""
    for file in sorted(FilePath(valleydyck.__file__).parent.glob("*.py")):
        if file.name == "cli.py":
            continue
        tree = ast.parse(file.read_text())
        helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                where, exc = f"{file.name}:{node.lineno}", node.exc
                if getattr(getattr(exc, "func", None), "id", None) in helpers:
                    returns = ast.walk(helpers[exc.func.id])
                    exc = next(n.value for n in returns if isinstance(n, ast.Return))
                # a bare raise, ``raise err`` or ``raise errors.X(...)`` names no class to match
                assert isinstance(exc, ast.Call) and type(exc.func) is ast.Name and exc.args, where
                yield where, exc.func.id, exc.args[0]


def test_every_library_refusal_has_a_row():
    # each message the library raises, its fields read as wildcards, matches a row of its type
    raised = list(library_raises())
    assert len(raised) >= 100
    for where, name, message in raised:
        pattern = message_pattern(message)
        assert any(kind.__name__ == name and re.fullmatch(pattern, text)
                   for _, kind, text, *_ in LIBRARY_REFUSALS), where


def test_part_form_raise_branches():
    for map_id, spec in MAPS.items():
        sub = PartDecoration(Path(spec.decoration, ""))
        refused(lambda: DecoratedStructure(map_id, _structure(Pyramid(1)), (sub,)),
                InvalidDecoration, f"{map_id} admits no axis pyramid of height 1")
        refused(lambda: DecoratedStructure(map_id, _structure(ValleyBlock(1, (1, 2))), (sub,)),
                InvalidDecoration, f"{map_id} admits only blocks with unit inner pyramids")
        assert list(decorations(_structure(Pyramid(1)), map_id)) == []
        assert list(decorations(_structure(Pyramid(2), ValleyBlock(2, (2, 1))), map_id)) == []


def test_constructors_store_sequences_as_tuples():
    assert PartDecoration(DYCK, ["ud", "H"]).symbols == ("ud", "H")
    factor = TauFactor(2, [3, 1], ["1h"])
    assert (factor.heights, factor.letters) == ((3, 1), ("1h",))
    tau = TauDecorated("dst_2174", [TauFactor(3, (1,), ("3h", "1"))])
    assert tau.factors[0].letters == ("3h", "1")
