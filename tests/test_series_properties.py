"""The online solver on equations drawn by hypothesis.

Each drawn equation F = sum of c x^i F^j has c_j(0) = 0 for j >= 1, small
rational or one-variable coefficients, powers of F up to 4 and of x up to 2.
Such a map is an x-adic contraction with one fixed point, so a series the
map sends to itself is the solution.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from valleydyck.polynomials import Polynomial  # noqa: E402
from valleydyck.series import (  # noqa: E402
    Equation,
    TruncatedSeries,
    solve_equation,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.one_of(
    rationals.map(Polynomial.const),
    st.tuples(rationals, rationals).map(lambda p: p[0] + p[1] * Polynomial.var("t")),
)
# (power of F, power of x): x^0 only for the constant c_0
powers = st.one_of(
    st.integers(0, 2).map(lambda i: (0, i)),
    st.tuples(st.integers(1, 4), st.integers(1, 2)),
)
terms = st.lists(st.tuples(powers, coefficients), max_size=5).map(
    lambda drawn: [(j, i, c) for (j, i), c in drawn]
)


def as_map(equation_terms):
    """The equation's right side as an order-polymorphic series map."""

    def phi(f: TruncatedSeries) -> TruncatedSeries:
        image = TruncatedSeries.zero(f.order)
        for j, i, c in equation_terms:
            image = image + (f**j).times_x(i).scale(c)
        return image

    return phi


@settings(max_examples=60, deadline=None)
@given(terms, st.integers(0, 12))
def test_online_solver_finds_the_fixed_point(equation_terms, order):
    got = solve_equation(Equation(*equation_terms), order)
    assert got.order == order
    assert as_map(equation_terms)(got) == got

