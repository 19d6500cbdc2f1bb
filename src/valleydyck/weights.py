"""Valley weight tables, brute-force weight sums, and the specialization registry.

A weight table stores, up to a chosen order, the three weight sequences of
the valley system: ``alpha[k]`` for an inner maximal pyramid of height k,
``beta[k]`` for the ascent of a valley-bearing primitive factor whose
valleys sit at level k, and ``gamma[k]`` for a maximal pyramid of height k
on the axis.  The weight of a decomposed path is the product over its parts,
and weight sums over all structures of a given size are computed by
exhaustive enumeration so they can be checked against generating-function
coefficients computed independently.

Registry entries build their weight series from each specialization's
defining generating functions, with any numeric pins bound into the
equations and scale factors they read before anything is solved.  The
tables come in a few shapes.  ``generic`` has one variable per entry.  Four
are rational, alpha = (a - b) x / (1 - b x), beta = c x / (1 - d x) and
gamma = alpha beta, from one builder: ``chebyshev_abcd`` in its variables,
``delannoy_tuple`` at rationals, ``geom_3x`` at (2, 1, 1, 2) and
``geom_fib`` at (2, 1, 1, 1).  Five are solved, each one row of ``SOLVED``:
alpha = x s, beta = x^j F c and gamma = x^(j+1) F s c, for the series F of
one ``EQUATIONS`` entry.  The two Schroder tables share one F, the large
Schroder beta series (R - 1) / (q + 1), because the small and large
Schroder series S and R have S - 1 = (R - 1) / (q + 1).  ``chebyshev_second``
and the three Fuss tables are written out.  Two solved tables need the
formal inverse variables from :mod:`valleydyck.polynomials` (``a_inv`` for
the Motzkin table, ``t1_inv`` for the shifted Narayana table) because a
lone ``beta[k]`` is a genuine rational function there even though every
full path weight is a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Iterable, Mapping

from ._value import Value
from .errors import BadParams, FamilyViolation, NotValleyUniform, OrderExceeded
from .params import A, A_INV, B, Q, T, T1_INV, Arity, ParamValue, _read, read_params
from .paths import (
    STEP_RISE,
    Part,
    Path,
    Pyramid,
    ValleyStructure,
    enumerate_family,
    valley_factors,
    valley_structures,
)
from .polynomials import INVERSE_VARS, Polynomial, Scalar, var_key
from .series import Pins, TruncatedSeries, _require_weight_series, named_series

class WeightSpec(Value):
    """The three 1-indexed weight sequences, each a tuple of polynomials up to one order."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: tuple, beta: tuple, gamma: tuple):
        if not len(alpha) == len(beta) == len(gamma):
            raise ValueError("weight sequences must share one length")
        self._fill(alpha, beta, gamma)

    @property
    def order(self) -> int:
        return len(self.alpha)

    def _tables(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self.alpha, self.beta, self.gamma

    def truncated(self, order: int) -> "WeightSpec":
        """The first ``order`` entries of each sequence."""
        return WeightSpec(*(table[:order] for table in self._tables()))

    def is_numeric(self, order: int | None = None) -> bool:
        """Whether every entry up to ``order`` (every entry when ``None``) is a
        number; it stops at the first symbolic entry."""
        return all(p.scalar is not None for table in self._tables() for p in table[:order])

    def variables(self) -> tuple[str, ...]:
        """The variables of every entry, in ``var_key`` order."""
        names = {v for table in self._tables() for p in table for v in p.variables()}
        return tuple(sorted(names, key=var_key))

    def _at(self, table: tuple[Polynomial, ...], k: int) -> Polynomial:
        if not 1 <= k <= self.order:
            raise OrderExceeded(f"index {k} outside the table order {self.order}")
        return table[k - 1]

    def alpha_at(self, k: int) -> Polynomial:
        return self._at(self.alpha, k)

    def beta_at(self, k: int) -> Polynomial:
        return self._at(self.beta, k)

    def gamma_at(self, k: int) -> Polynomial:
        return self._at(self.gamma, k)

    def to_series(self) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
        return tuple(TruncatedSeries((Polynomial.zero(),) + table) for table in self._tables())

    def to_json(self) -> dict:
        return {name: [p.to_json() for p in getattr(self, name)] for name in self.__slots__}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeightSpec":
        return cls(*(tuple(map(Polynomial.from_json, data[name])) for name in cls.__slots__))

    def substitute(self, bindings: Mapping[str, Polynomial]) -> "WeightSpec":
        """Substitute values for symbolic parameters in every entry."""
        if not bindings:
            return self
        return WeightSpec(*(tuple(p.substitute(bindings) for p in t) for t in self._tables()))


def spec_from_series(
    alpha: TruncatedSeries, beta: TruncatedSeries, gamma: TruncatedSeries
) -> WeightSpec:
    """Extract the weight sequences from three series with zero constant term."""
    _require_weight_series(alpha, beta, gamma)
    return WeightSpec(alpha.coeffs[1:], beta.coeffs[1:], gamma.coeffs[1:])


def part_weight(part: Part, spec: WeightSpec) -> Polynomial:
    """A pyramid of height h weighs gamma[h]; a block with ascent k and inner
    heights i_1..i_r weighs beta[k] * alpha[i_1] * ... * alpha[i_r]."""
    if isinstance(part, Pyramid):
        return spec.gamma_at(part.height)
    return Polynomial.product(
        [spec.beta_at(part.ascent)] + [spec.alpha_at(h) for h in part.heights]
    )


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
    are multiplied out.  The weight of each distinct part is computed once
    per call and kept in a dict local to the call, so nothing carries over
    to a later call with another table.  When every entry up to n is a
    constant, the part weights are kept as numbers, multiplied and added as
    ``int`` and ``Fraction``, and the sum becomes a polynomial once.
    """
    numbers = spec.is_numeric(n)
    weights: dict[Part, Polynomial | Scalar] = {}

    def weight_of(part: Part) -> Polynomial | Scalar:
        weight = weights.get(part)
        if weight is None:
            weight = part_weight(part, spec)
            weight = weights[part] = weight.scalar if numbers else weight
        return weight

    rows = (map(weight_of, s.parts) for s in valley_structures(n))
    if numbers:
        return Polynomial.const(_number_sum(rows))
    return Polynomial.sum(map(Polynomial.product, rows))


def _number_sum(rows: Iterable[Iterable[Scalar]]) -> Scalar:
    """Sum over ``rows`` of the product of each row's numbers."""
    return sum(map(prod, rows))


# -- target-family weightings --------------------------------------------------


def _motzkin_ab_weight(path: Path) -> Polynomial:
    flats = path.steps.count("F")
    downs = path.steps.count("D")
    return A**flats * B**downs


def _schroder_q_weight(path: Path) -> Polynomial:
    return Q ** path.steps.count("H")


def _narayana_t_weight(path: Path) -> Polynomial:
    # a peak is a "UD" pair of steps, and two such pairs never overlap
    return T ** path.steps.count("UD")


def _level_peaks_weight(path: Path) -> Polynomial:
    # a peak weighs t + 1 when its U step leaves the axis, and t elsewhere
    steps, level, axis = path.steps, 0, 0
    for ch, after in zip(steps, steps[1:]):
        axis += not level and ch == "U" and after == "D"
        level += STEP_RISE[ch]
    return (T + 1) ** axis * T ** (steps.count("UD") - axis)


TARGET_WEIGHTINGS: dict[str, Callable[[Path], Polynomial]] = {
    "motzkin_ab": _motzkin_ab_weight,
    "schroder_q": _schroder_q_weight,
    "narayana_t": _narayana_t_weight,
    "level_peaks": _level_peaks_weight,
}


def target_weight(path: Path, weighting: str) -> Polynomial:
    try:
        fn = TARGET_WEIGHTINGS[weighting]
    except KeyError:
        raise BadParams(f"unknown target weighting {weighting!r}") from None
    return fn(path)


def target_weight_sum(n: int, family: str, filt: str, weighting: str) -> Polynomial:
    return Polynomial.sum(
        target_weight(path, weighting) for path in enumerate_family(family, n, filt)
    )


# -- the registry of specializations -------------------------------------------


def _build_generic(order: int, *, pins: Pins = ()) -> WeightSpec:
    bound = dict(pins)

    def table(stem: str) -> tuple[Polynomial, ...]:
        names = [f"{stem}{k}" for k in range(1, order + 1)]
        return tuple(bound.get(v, Polynomial.var(v)) for v in names)

    return WeightSpec(table("alpha"), table("beta"), table("gamma"))


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


# The solved tables, each a row (equation, s, c, j): alpha = x s, beta = x^j F c
# and gamma = x^(j+1) F (s c), for the series F that solves EQUATIONS[equation].
# schroder_small_q solves the large Schroder beta series, because the small and
# large Schroder series S and R have S - 1 = (R - 1) / (q + 1).
SOLVED: dict[str, tuple[str, Polynomial, Polynomial, int]] = {
    "motzkin_ab": ("motzkin_ab", A, B * A_INV, 1),
    "schroder_large_q": ("schroder_large_beta", Q + 1, Polynomial.one(), 0),
    "schroder_small_q": ("schroder_large_beta", Polynomial.one(), Q + 1, 0),
    "narayana_t": ("narayana_beta", T, Polynomial.one(), 0),
    "narayana_shift_t": ("narayana_shift", T + 1, T * T1_INV, 1),
}


def _solved(name: str) -> Callable[..., WeightSpec]:
    """The builder of the solved table ``name``.

    A solved table reads its variables only through its equation and the
    factors s, c and s c, and ``pins`` is substituted into each of them:
    substitution is a ring homomorphism and every step below is a ring
    operation, so the table equals the symbolic one with the pins substituted.
    """
    equation, s, c, j = SOLVED[name]

    def build(order: int, *, pins: Pins = ()) -> WeightSpec:
        f = named_series(equation, order, pins=pins).times_x(j)
        bindings = dict(pins)
        s_at, c_at, sc_at = (p.substitute(bindings) for p in (s, c, s * c))
        alpha = TruncatedSeries.x(order).scale(s_at)
        return spec_from_series(alpha, f.scale(c_at), f.times_x(1).scale(sc_at))

    return build


def _build_chebyshev_second(order: int, a: Polynomial, b: Polynomial, c: Polynomial) -> WeightSpec:
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    x2 = x.times_x(1)
    kernel = (one - x.scale(2 * c) + x2).inverse()
    alpha = (x.scale(2 * b) * (one - x.scale(a))) * kernel
    beta = x.scale(a) / (one - x.scale(a))
    gamma = x2.scale(2 * a * b) * kernel
    return spec_from_series(alpha, beta, gamma)


def _build_delannoy_tuple(
    order: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> WeightSpec:
    return _abcd(order, a, b, c, d)


def _fuss_power(order: int, r: int, exponent: int) -> TruncatedSeries:
    return (named_series("fuss", order, r=r) ** exponent).times_x(1)


def _build_fuss_sym(order: int, m: int, r: Arity) -> WeightSpec:
    alpha = _fuss_power(order, r, m)
    return spec_from_series(alpha, alpha, alpha * alpha)


def _build_fuss_asym(order: int, m: int, r: Arity) -> WeightSpec:
    alpha = _fuss_power(order, r, r)
    beta = _fuss_power(order, r, m)
    return spec_from_series(alpha, beta, alpha * beta)


def _build_fuss_cubic(order: int, m: int, r: Arity) -> WeightSpec:
    # gamma deliberately equals alpha here, not alpha*beta
    alpha = _fuss_power(order, r, r)
    beta = _fuss_power(order, r, m)
    return spec_from_series(alpha, beta, alpha)


REGISTRY: dict[str, Callable[..., WeightSpec]] = {
    "generic": _build_generic,
    "geom_3x": lambda order: _abcd(order, 2, 1, 1, 2),
    "geom_fib": lambda order: _abcd(order, 2, 1, 1, 1),
    **{name: _solved(name) for name in SOLVED},
    "chebyshev_abcd": _abcd,
    "chebyshev_second": _build_chebyshev_second,
    "delannoy_tuple": _build_delannoy_tuple,
    "fuss_sym": _build_fuss_sym,
    "fuss_asym": _build_fuss_asym,
    "fuss_cubic": _build_fuss_cubic,
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
    builder = REGISTRY[name]
    if pins:
        return builder(order, **dict(frozen_params), pins=pins)
    return builder(order, **dict(frozen_params))


def registry_get(name: str, order: int, **params: ParamValue) -> WeightSpec:
    """Build a registered weight table at the given order.

    The keyword parameters of an entry's builder are read by
    :func:`read_params`.  A parameter an entry does not declare pins a
    variable of the table to a number (``"sym"`` leaves it symbolic).  Pins
    are bound before the table is solved, in the equation coefficients and
    scale factors the builder reads, so a pinned table is built from its
    values and equals the symbolic table with them substituted.  A name that
    is no variable of the table at this order raises ``BadParams``, and so
    does a value for a formal inverse variable (``a_inv``, ``t1_inv``), which
    its base variable's value fixes.
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
    declared = read_params(REGISTRY[name], params, name)
    frozen = tuple(declared.items())
    pinned = {k: v for k, v in params.items() if k not in declared}
    if not pinned:
        return lambda at: _registry_get_cached(name, at, frozen, ())
    label = f"{name} at order {order}"
    # tables are truncation-consistent, and each has all its variables by
    # order 2 but generic, which is its variables and has nothing to solve
    probe = order if name == "generic" else min(order, 2)
    _check_names(_registry_get_cached(name, probe, frozen, ()), pinned, label, tuple(declared))
    pins = tuple(sorted(_bindings(pinned, label).items()))
    return lambda at: _registry_get_cached(name, at, frozen, pins)


def _check_names(
    spec: WeightSpec, names: Iterable[str], label: str, declared: tuple[str, ...] = ()
) -> None:
    """Raise ``BadParams``, listing what the table ``label`` has, unless each
    of ``names`` is a variable of ``spec``."""
    present = spec.variables()
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
    _check_names(spec, params, label)
    return spec.substitute(_bindings(params, label))
