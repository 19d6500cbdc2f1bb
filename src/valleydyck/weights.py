"""Valley weight tables, brute-force weight sums, and the specialization registry.

A weight table stores, up to a chosen order, the three weight sequences of
the valley system: ``alpha[k]`` for an inner maximal pyramid of height k,
``beta[k]`` for the ascent of a valley-bearing primitive factor whose
valleys sit at level k, and ``gamma[k]`` for a maximal pyramid of height k
on the axis.  The weight of a decomposed path is the product over its parts,
and weight sums over all structures of a given size are computed by
exhaustive enumeration so they can be checked against generating-function
coefficients computed independently.

The registry is one table, ``REGISTRY``, of rows (shape builder, shape
data, declared parameters), and a table's numeric pins are bound into the
equations and scale factors it reads before anything is solved.  ``generic``
has one variable per entry.  Four tables are alpha = (a - b) x / (1 - b x),
beta = c x / (1 - d x) and gamma = alpha beta: ``geom_3x`` and ``geom_fib``
at (2, 1, 1, 2) and (2, 1, 1, 1), ``chebyshev_abcd`` and ``delannoy_tuple``
in declared a, b, c, d.  Five are solved, with (equation, s, c, j) as data:
alpha = x s, beta = x^j F c and gamma = x^(j+1) F s c, for the series F of
one ``EQUATIONS`` entry; both Schroder tables solve the large Schroder beta
series (R - 1) / (q + 1), because the small and large Schroder series have
S - 1 = (R - 1) / (q + 1).  ``chebyshev_second`` is written out, and the
three Fuss tables' data says which parameter is alpha's exponent and
whether gamma is alpha or alpha beta.  A table's variables are read off its
row, so no table is built to check a pin.  ``a_inv`` and ``t1_inv``, formal
inverses from :mod:`valleydyck.polynomials`, appear in the Motzkin and the
shifted Narayana tables, where a lone ``beta[k]`` is a rational function
though every full path weight is a polynomial.

A target weighting, the weight each bijection's image paths carry, is a
``TARGET_WEIGHTINGS`` pair: the step counts of a path that it reads (H steps,
peaks, flats and downs, or peaks on and off the axis) and the weight of
those counts.  ``target_weight`` weighs one path's counts, and
``target_weight_sum`` tallies the counts of every path the filtered walk
keeps, then builds each distinct weight once, times its count.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from math import prod
from typing import Callable, Iterable, Mapping

from ._value import Value
from .errors import BadParams, FamilyViolation, NotValleyUniform, OrderExceeded
from .params import A, A_INV, B, Q, T, T1_INV, ParamValue, _read, read_params
from .paths import (
    Part,
    Path,
    Pyramid,
    ValleyStructure,
    enumerate_family,
    valley_factors,
    valley_structures,
)
from .polynomials import INVERSE_VARS, Polynomial, Scalar, _coeff_json, _stored_form, var_key
from .series import EQUATIONS, Pins, TruncatedSeries, _require_weight_series, named_series

class WeightSpec(Value):
    """The three 1-indexed weight sequences up to one order.

    Each sequence is stored as a series stores its coefficients: as numbers,
    an ``int`` when integral and a ``Fraction`` otherwise, when every entry
    of that sequence is a constant, else as polynomials.  So a table equals,
    and hashes like, every table of the same values, and a table of numbers
    passes to and from its series (``to_series``, ``spec_from_series``) with
    no entry converted.  ``alpha_at``, ``beta_at`` and ``gamma_at`` give an
    entry as a polynomial either way.
    """

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: tuple, beta: tuple, gamma: tuple):
        if not len(alpha) == len(beta) == len(gamma):
            raise ValueError("weight sequences must share one length")
        self._fill(*(_stored_form(tuple(table)) for table in (alpha, beta, gamma)))

    @property
    def order(self) -> int:
        return len(self.alpha)

    def _tables(self) -> tuple[tuple, ...]:
        return self.alpha, self.beta, self.gamma

    def truncated(self, order: int) -> "WeightSpec":
        """The first ``order`` entries of each sequence."""
        return WeightSpec(*(table[:order] for table in self._tables()))

    def is_numeric(self) -> bool:
        """Whether every entry is a number: no sequence holds polynomials."""
        return not any(map(_symbolic, self._tables()))

    def variables(self) -> tuple[str, ...]:
        """The variables of every entry, in ``var_key`` order."""
        names = {v for table in self._tables() if _symbolic(table)
                 for p in table for v in p.variables()}
        return tuple(sorted(names, key=var_key))

    def _at(self, table: tuple, k: int):
        """Entry k of ``table`` as it is stored."""
        if not 1 <= k <= self.order:
            raise OrderExceeded(f"index {k} outside the table order {self.order}")
        return table[k - 1]

    def alpha_at(self, k: int) -> Polynomial:
        return _polynomial(self._at(self.alpha, k))

    def beta_at(self, k: int) -> Polynomial:
        return _polynomial(self._at(self.beta, k))

    def gamma_at(self, k: int) -> Polynomial:
        return _polynomial(self._at(self.gamma, k))

    def to_series(self) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
        """The three series 0 + sum of entry k x^k, new ones at each call, each
        stored as its sequence is."""
        return tuple(TruncatedSeries._trusted((_ZERO if _symbolic(table) else 0,) + table)
                     for table in self._tables())

    def to_json(self) -> dict:
        return {name: list(map(_coeff_json, getattr(self, name))) for name in self.__slots__}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeightSpec":
        return cls(*(tuple(map(Polynomial.from_json, data[name])) for name in cls.__slots__))

    def substitute(self, bindings: Mapping[str, Polynomial]) -> "WeightSpec":
        """Substitute values for symbolic parameters in every entry."""
        if not bindings:
            return self
        return WeightSpec(*(tuple(p.substitute(bindings) for p in table) if _symbolic(table)
                            else table for table in self._tables()))


_ZERO = Polynomial.zero()


def _symbolic(table: tuple) -> bool:
    """Whether a stored sequence holds polynomials, not numbers."""
    return bool(table) and type(table[0]) is Polynomial


def _polynomial(entry) -> Polynomial:
    """A stored entry as a polynomial."""
    return entry if type(entry) is Polynomial else Polynomial.const(entry)


def spec_from_series(
    alpha: TruncatedSeries, beta: TruncatedSeries, gamma: TruncatedSeries
) -> WeightSpec:
    """The weight sequences of three series with zero constant term, each the
    series' stored coefficients from x^1 on, as they are stored."""
    _require_weight_series(alpha, beta, gamma)
    return WeightSpec._trusted(alpha.stored[1:], beta.stored[1:], gamma.stored[1:])


def part_weight(part: Part, spec: WeightSpec) -> Polynomial | Scalar:
    """A pyramid of height h weighs gamma[h]; a block with ascent k and inner
    heights i_1..i_r weighs beta[k] * alpha[i_1] * ... * alpha[i_r].

    The entries are multiplied as the table stores them, so the weight is an
    ``int`` or ``Fraction`` when each is a number, else a polynomial."""
    at = spec._at
    if isinstance(part, Pyramid):
        return at(spec.gamma, part.height)
    return prod([at(spec.alpha, h) for h in part.heights], start=at(spec.beta, part.ascent))


def structure_weight(structure: ValleyStructure, spec: WeightSpec) -> Polynomial:
    """Product of the part weights."""
    return Polynomial.product(part_weight(part, spec) for part in structure.parts)


def path_weight(path: Path, spec: WeightSpec) -> Polynomial:
    """Weight of a raw valley-uniform Dyck path, read off its runs.

    This route never builds a ValleyStructure: a factor without valleys is a
    pyramid on the axis, and a factor with valleys at the common level k
    contributes beta[k] times alpha of each maximal pyramid height.  It
    therefore serves as an independent cross-check of structure_weight.
    """
    if path.family != "dyck":
        raise FamilyViolation("valley weights apply to Dyck paths")
    total = Polynomial.one()
    for start, end, levels, heights in valley_factors(path.steps):
        if not levels:
            total = total * spec.gamma_at((end - start) // 2)
        elif len(levels) == 1:
            total = total * spec.beta_at(levels.pop())
            for height in heights:
                total = total * spec.alpha_at(height)
        else:
            raise NotValleyUniform(f"valleys of {path.steps[start:end]!r} sit at several levels")
    return total


def valley_weight_sum(n: int, spec: WeightSpec) -> Polynomial:
    """Sum of structure weights over every valley structure of size n.

    The sum is exhaustive: every structure is visited and its part weights
    are multiplied out.  Each distinct part is weighed once per call, by
    :func:`part_weight`, in a memo local to the call, so nothing carries over
    to a later call with another table.  When every entry is a number, the
    part weights are numbers, their products are added as numbers and the
    sum becomes a polynomial once.
    """
    weight = cache(lambda part: part_weight(part, spec))
    rows = (map(weight, s.parts) for s in valley_structures(n))
    if spec.is_numeric():
        return Polynomial.const(_number_sum(rows))
    return Polynomial.sum(map(Polynomial.product, rows))


def _number_sum(rows: Iterable[Iterable[Scalar]]) -> Scalar:
    """Sum over ``rows`` of the product of each row's numbers."""
    return sum(map(prod, rows))


# -- target-family weightings --------------------------------------------------


def _peak_counts(steps: str) -> tuple[int, int]:
    """(peaks on the axis, other peaks).  A peak is a "UD" pair of steps, and two
    never overlap; the peak at index i is on the axis when its U step leaves
    level 0, that is when the steps before i hold as many U as D steps."""
    axis = peaks = 0
    i = steps.find("UD")
    while i >= 0:
        peaks += 1
        axis += steps.count("U", 0, i) == steps.count("D", 0, i)
        i = steps.find("UD", i + 2)
    return axis, peaks - axis


# (the step counts of a path's steps that its weight reads, the weight of those counts)
Weighting = tuple[Callable[[str], tuple[int, ...]], Callable[..., Polynomial]]

# a path's weight depends on its counts alone, so a sum over paths builds each
# distinct weight once; ``level_peaks`` weighs a peak t + 1 on the axis, t elsewhere
TARGET_WEIGHTINGS: dict[str, Weighting] = {
    "motzkin_ab": (lambda s: (s.count("F"), s.count("D")), lambda f, d: A**f * B**d),
    "schroder_q": (lambda s: (s.count("H"),), lambda h: Q**h),
    "narayana_t": (lambda s: (s.count("UD"),), lambda peaks: T**peaks),
    "level_peaks": (_peak_counts, lambda axis, other: (T + 1) ** axis * T**other),
}


def _weighting(name: str) -> Weighting:
    try:
        return TARGET_WEIGHTINGS[name]
    except KeyError:
        raise BadParams(f"unknown target weighting {name!r}") from None


def target_weight(path: Path, weighting: str) -> Polynomial:
    """The weight of the path's step counts."""
    counts, weight = _weighting(weighting)
    return weight(*counts(path.steps))


def target_weight_sum(n: int, family: str, filt: str, weighting: str) -> Polynomial:
    """Sum of ``target_weight`` over the family's paths of size n that pass the
    filter.  Every path is walked and its counts tallied; each distinct
    weight is then built once and multiplied by how many paths have it."""
    counts, weight = _weighting(weighting)
    tally = Counter(counts(path.steps) for path in enumerate_family(family, n, filt))
    return Polynomial.sum(weight(*key) * times for key, times in tally.items())


# -- the registry of specializations -------------------------------------------


def _generic(order: int, *, pins: Pins = ()) -> WeightSpec:
    bound = dict(pins)
    return WeightSpec(*(tuple(bound.get(v, Polynomial.var(v)) for v in names)
                        for names in _entries(order)))


def _entries(order: int) -> tuple[tuple[str, ...], ...]:
    """The names of generic's alpha, beta and gamma entries up to ``order``."""
    return tuple(tuple(f"{stem}{k}" for k in range(1, order + 1))
                 for stem in ("alpha", "beta", "gamma"))


def _abcd(order: int, a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial) -> WeightSpec:
    """alpha = (a - b) x / (1 - b x), beta = c x / (1 - d x) and gamma = alpha * beta,
    for polynomials or numbers a, b, c, d.

    When (c, d) = (a - b, b), beta is alpha itself, so gamma is formed as a square.
    """
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    alpha = x.scale(a - b) / (one - x.scale(b))
    beta = alpha if (c, d) == (a - b, b) else x.scale(c) / (one - x.scale(d))
    return spec_from_series(alpha, beta, alpha * beta)


def _solved(
    order: int, equation: str, s: Polynomial, c: Polynomial, j: int, *, pins: Pins = ()
) -> WeightSpec:
    """alpha = x s, beta = x^j F c and gamma = x^(j+1) F (s c), for the series F
    that solves ``EQUATIONS[equation]``.

    A solved table reads its variables only through its equation and the
    factors s, c and s c, and ``pins`` is substituted into each of them:
    substitution is a ring homomorphism and every step below is a ring
    operation, so the table equals the symbolic one with the pins substituted.
    """
    f = named_series(equation, order, pins=pins).times_x(j)
    bindings = dict(pins)
    s_at, c_at, sc_at = (p.substitute(bindings) for p in (s, c, s * c))
    alpha = TruncatedSeries.x(order).scale(s_at)
    return spec_from_series(alpha, f.scale(c_at), f.times_x(1).scale(sc_at))


def _chebyshev_second(order: int, a: Polynomial, b: Polynomial, c: Polynomial) -> WeightSpec:
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    x2 = x.times_x(1)
    kernel = (one - x.scale(2 * c) + x2).inverse()
    alpha = (x.scale(2 * b) * (one - x.scale(a))) * kernel
    beta = x.scale(a) / (one - x.scale(a))
    gamma = x2.scale(2 * a * b) * kernel
    return spec_from_series(alpha, beta, gamma)


def _fuss(order: int, alpha_power: str, gamma_is_alpha: bool, m: int, r: int) -> WeightSpec:
    """alpha = x T^r (beta itself when ``alpha_power`` is ``"m"``), beta = x T^m
    and gamma = alpha beta (alpha when ``gamma_is_alpha``), T the r-ary tree series."""
    trees = named_series("fuss", order, r=r)
    beta = (trees**m).times_x(1)
    alpha = beta if alpha_power == "m" else (trees**r).times_x(1)
    return spec_from_series(alpha, beta, alpha if gamma_is_alpha else alpha * beta)


_ONE = Polynomial.one()
_FUSS = {"m": "Arity", "r": "Arity"}

# name: (builder, data, declared parameters, each name with its kind).  The
# builder is called with the order, and with the row's data, the values
# ``read_params`` reads for its declared parameters and any pins as keywords
REGISTRY: dict[str, tuple[Callable[..., WeightSpec], dict, dict[str, str]]] = {
    "generic": (_generic, {}, {}),
    "geom_3x": (_abcd, dict(a=2, b=1, c=1, d=2), {}),
    "geom_fib": (_abcd, dict(a=2, b=1, c=1, d=1), {}),
    "motzkin_ab": (_solved, dict(equation="motzkin_ab", s=A, c=B * A_INV, j=1), {}),
    "schroder_large_q": (_solved, dict(equation="schroder_large_beta", s=Q + 1, c=_ONE, j=0), {}),
    "schroder_small_q": (_solved, dict(equation="schroder_large_beta", s=_ONE, c=Q + 1, j=0), {}),
    "narayana_t": (_solved, dict(equation="narayana_beta", s=T, c=_ONE, j=0), {}),
    "narayana_shift_t": (_solved, dict(equation="narayana_shift", s=T + 1, c=T * T1_INV, j=1), {}),
    "chebyshev_abcd": (_abcd, {}, dict.fromkeys("abcd", "Polynomial")),
    "chebyshev_second": (_chebyshev_second, {}, dict.fromkeys("abc", "Polynomial")),
    "delannoy_tuple": (_abcd, {}, dict.fromkeys("abcd", "Fraction")),
    "fuss_sym": (_fuss, dict(alpha_power="m", gamma_is_alpha=False), _FUSS),
    "fuss_asym": (_fuss, dict(alpha_power="r", gamma_is_alpha=False), _FUSS),
    "fuss_cubic": (_fuss, dict(alpha_power="r", gamma_is_alpha=True), _FUSS),
}

# the seven weight tuples whose scaled weight sums agree, with their multipliers
DELANNOY_TUPLES: tuple[tuple[tuple[int, int, int, int], int], ...] = (
    ((4, 3, 7, 2), 7),
    ((2, 1, 7, 4), 7),
    ((5, 4, 4, 1), 4),
    ((5, 1, 1, 1), 4),
    ((1, 0, 4, 5), 4),
    ((3, 2, 8, 3), 8),
    ((3, 1, 4, 3), 8),
)


@lru_cache(maxsize=None)
def _registry_get_cached(name: str, order: int, frozen_params: tuple, pins: Pins) -> WeightSpec:
    build, data, _ = REGISTRY[name]
    if pins:
        return build(order, **data, **dict(frozen_params), pins=pins)
    return build(order, **data, **dict(frozen_params))


def registry_get(name: str, order: int, **params: ParamValue) -> WeightSpec:
    """Build a registered weight table at the given order.

    The parameters an entry's row declares are read by :func:`read_params`.
    A parameter it does not declare pins a variable of the table to a number
    (``"sym"`` leaves it symbolic).  Pins are bound before the table is
    solved, in the equation coefficients and scale factors the builder reads,
    so a pinned table is built from its values and equals the symbolic table
    with them substituted.  A name that is no variable of the table at this
    order raises ``BadParams``, and so does a value for a formal inverse
    variable (``a_inv``, ``t1_inv``), which its base variable's value fixes.
    """
    return registry_builder(name, order, **params)(order)


def registry_builder(name: str, order: int, **params: ParamValue) -> Callable[[int], WeightSpec]:
    """Check a request as :func:`registry_get` does, at ``order``, and return
    the function that builds its table, with the checked parameters and pins,
    at any order it is given."""
    if name not in REGISTRY:
        raise BadParams(f"unknown weight table {name!r}; known: {', '.join(REGISTRY)}")
    if order < 0:
        raise BadParams("order must be nonnegative")
    _, data, kinds = REGISTRY[name]
    declared = read_params(kinds, params, name)
    frozen = tuple(declared.items())
    pinned = {k: v for k, v in params.items() if k not in declared}
    label = f"{name} at order {order}"
    if pinned:
        _check_names(_variables(name, order, data, declared), pinned, label, tuple(declared))
    pins = tuple(sorted(_bindings(pinned, label).items()))
    return lambda at: _registry_get_cached(name, at, frozen, pins)


def _variables(name: str, order: int, data: dict, declared: dict) -> tuple[str, ...]:
    """The variables of the table ``name`` at ``order``, read off its row, in
    ``var_key`` order: generic's are its entries up to the order, a solved
    row's those of its equation's coefficients, s and c, and any other row's
    its declared parameters left symbolic."""
    if name == "generic":
        names = [v for entries in _entries(order) for v in entries]
    elif "equation" in data:
        polys = [p for *_, p in EQUATIONS[data["equation"]].terms] + [data["s"], data["c"]]
        names = {v for p in polys for v in p.variables()}
    else:
        names = [k for k, v in declared.items() if isinstance(v, Polynomial) and not v.is_constant]
    return tuple(sorted(names, key=var_key))


def _check_names(
    present: tuple[str, ...], names: Iterable[str], label: str, declared: tuple[str, ...] = ()
) -> None:
    """Raise ``BadParams``, listing what the table ``label`` has, unless each
    of ``names`` is one of its variables, ``present``."""
    unknown = [k for k in names if k not in present]
    if unknown:
        has = f"parameters: {', '.join(declared)}; " if declared else ""
        has += f"variables: {', '.join(present) or 'none'}"
        raise BadParams(f"{label} has no parameter or variable {', '.join(unknown)} ({has})")


def _bindings(pinned: Mapping[str, ParamValue], label: str) -> dict[str, Polynomial]:
    """The value of each pin that is not ``"sym"``, refusing one for a formal inverse."""
    for k, v in pinned.items():
        if k in INVERSE_VARS and v != "sym":
            base = INVERSE_VARS[k][0]
            raise BadParams(f"{label}: {k} is the formal inverse of {base}; pin {base} instead")
    return {k: _read(k, "Polynomial", v, label) for k, v in pinned.items() if v != "sym"}


def _pin_params(spec: WeightSpec, params: Mapping[str, ParamValue], label: str) -> WeightSpec:
    """Substitute ``params`` into a finished table that has no builder, a ``--spec @FILE``.

    Each name must be a variable of the table, or ``BadParams`` lists what
    the table ``label`` has; a ``"sym"`` value leaves its variable symbolic.
    """
    if not params:
        return spec
    _check_names(spec.variables(), params, label)
    return spec.substitute(_bindings(params, label))
