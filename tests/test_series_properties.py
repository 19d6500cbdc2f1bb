"""Series arithmetic and the online solver on inputs drawn by hypothesis.

Each drawn equation F = sum of c x^i F^j has c_j(0) = 0 for j >= 1, small
rational or one-variable coefficients, powers of F up to 4 and of x up to 2.
Such a map is an x-adic contraction with one fixed point, so a series the
map sends to itself is the solution.

The series product, square, inverse and quotient and the solver are also
held to a schoolbook reference (``schoolbook``, and here the solver's plain
iteration), built from ``Polynomial.__mul__`` and ``Polynomial.sum`` only,
over coefficients that hold the formal inverses, over series whose
coefficients are all numbers (stored as numbers, the scalar kernel's route),
and over a series of numbers against a symbolic one; sums, differences and
scalings too, and each result must be stored in its one form
(``stored_form``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schoolbook import (  # noqa: E402
    schoolbook_inverse,
    schoolbook_product,
    schoolbook_scale,
    schoolbook_sum,
    stored_form,
)
from valleydyck.errors import NotAUnit  # noqa: E402
from valleydyck.params import T  # noqa: E402
from valleydyck.polynomials import Polynomial  # noqa: E402
from valleydyck.series import (  # noqa: E402
    Equation,
    TruncatedSeries,
    named_series,
    solve_equation,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.one_of(
    rationals.map(Polynomial.const),
    st.tuples(rationals, rationals).map(lambda p: p[0] + p[1] * T),
)
# (power of F, power of x): x^0 only for the constant c_0
powers = st.one_of(
    st.integers(0, 2).map(lambda i: (0, i)),
    st.tuples(st.integers(1, 4), st.integers(1, 2)),
)
terms = st.lists(st.tuples(powers, coefficients), max_size=5).map(
    lambda drawn: [(j, i, c) for (j, i), c in drawn]
)

# polynomials over the bases and their inverses, so products need the inverse rewrite
monomials = st.dictionaries(
    st.sampled_from(("a", "t", "a_inv", "t1_inv")), st.integers(1, 2), max_size=2
)
polys = st.lists(st.tuples(rationals, monomials), max_size=3).map(
    lambda drawn: Polynomial.sum(Polynomial.monomial(c, m) for c, m in drawn)
)
mixed_terms = st.lists(st.tuples(powers, polys), max_size=4).map(
    lambda drawn: [(j, i, c) for (j, i), c in drawn]
)


def series_of(order: int, head=polys):
    return st.tuples(head, st.lists(polys, min_size=order, max_size=order)).map(
        lambda drawn: TruncatedSeries([drawn[0], *drawn[1]])
    )


series_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(series_of(n), series_of(n)))
units = st.integers(0, 6).flatmap(
    lambda n: series_of(n, rationals.filter(bool).map(Polynomial.const))
)
# divisors whose constant term is a rational other than 0 and 1
divisor_heads = rationals.filter(lambda r: r not in (0, 1)).map(Polynomial.const)
quotients = st.integers(0, 6).flatmap(
    lambda n: st.tuples(series_of(n), series_of(n, divisor_heads))
)

# series of numbers only: ints, Fractions and zeros in any position, orders 0-12
numbers = st.one_of(st.just(0), st.integers(-9, 9), rationals)
nonzero_numbers = numbers.filter(bool)


def numeric_series_of(order: int, head=numbers):
    return st.tuples(head, st.lists(numbers, min_size=order, max_size=order)).map(
        lambda drawn: TruncatedSeries([drawn[0], *drawn[1]])
    )


numeric_orders = st.integers(0, 12)
numeric_pairs = numeric_orders.flatmap(
    lambda n: st.tuples(numeric_series_of(n), numeric_series_of(n))
)
# a series of numbers and a symbolic one, which take the symbolic route together
mixed_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(numeric_series_of(n), series_of(n)))
all_pairs = st.one_of(series_pairs, numeric_pairs, mixed_pairs)
numeric_units = numeric_orders.flatmap(lambda n: numeric_series_of(n, nonzero_numbers))
numeric_quotients = numeric_orders.flatmap(
    lambda n: st.tuples(numeric_series_of(n), numeric_series_of(n, nonzero_numbers))
)
mixed_quotients = st.integers(0, 6).flatmap(
    lambda n: st.one_of(
        st.tuples(numeric_series_of(n), series_of(n, divisor_heads)),
        st.tuples(series_of(n), numeric_series_of(n, nonzero_numbers)),
    )
)
numeric_non_units = numeric_orders.flatmap(
    lambda n: st.tuples(numeric_series_of(n), numeric_series_of(n, st.just(0)))
)
numeric_terms = st.lists(st.tuples(powers, numbers.map(Polynomial.const)), max_size=5).map(
    lambda drawn: [(j, i, c) for (j, i), c in drawn]
)


def schoolbook_solution(equation_terms, order):
    """The fixed point of the equation, by order + 1 rounds of plain iteration."""
    zero, one = Polynomial.zero(), Polynomial.one()
    f = [zero] * (order + 1)
    for _ in range(order + 1):
        image = [zero] * (order + 1)
        for j, i, c in equation_terms:
            power = [one] + [zero] * order
            for _ in range(j):
                power = schoolbook_product(power, f)
            for k in range(i, order + 1):
                image[k] = image[k] + c * power[k - i]
        f = image
    return f


def as_map(equation_terms):
    """The equation's right side as an order-polymorphic series map."""

    def phi(f: TruncatedSeries) -> TruncatedSeries:
        image = TruncatedSeries.zero(f.order)
        for j, i, c in equation_terms:
            image = image + (f**j).times_x(i).scale(c)
        return image

    return phi


def assert_stored_in_one_form(*results):
    for s in results:
        assert list(map(type, s.stored)) == list(map(type, stored_form(s.coeffs)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(terms, numeric_terms), st.integers(0, 12))
def test_online_solver_finds_the_fixed_point(equation_terms, order):
    got = solve_equation(Equation(equation_terms), order)
    assert got.order == order
    assert as_map(equation_terms)(got) == got


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(mixed_terms, st.integers(0, 6)),
                 st.tuples(numeric_terms, numeric_orders)))
def test_online_solver_matches_schoolbook_iteration(drawn):
    equation_terms, order = drawn
    got = solve_equation(Equation(equation_terms), order)
    assert list(got.coeffs) == schoolbook_solution(equation_terms, order)


@settings(max_examples=120, deadline=None)
@given(all_pairs)
def test_product_and_square_match_schoolbook(pair):
    f, g = pair
    assert list((f * g).coeffs) == schoolbook_product(f.coeffs, g.coeffs)
    assert list((g * f).coeffs) == schoolbook_product(g.coeffs, f.coeffs)
    assert list((f * f).coeffs) == schoolbook_product(f.coeffs, f.coeffs)
    cube = schoolbook_product(schoolbook_product(f.coeffs, f.coeffs), f.coeffs)
    assert list((f**3).coeffs) == cube
    assert_stored_in_one_form(f * g, f * f, f**3)


@settings(max_examples=90, deadline=None)
@given(all_pairs, st.one_of(numbers.map(Polynomial.const), polys))
def test_sums_and_scales_match_schoolbook(pair, factor):
    f, g = pair
    for a, b in ((f, g), (g, f)):
        assert list((a + b).coeffs) == schoolbook_sum(a.coeffs, b.coeffs)
        assert list((a - b).coeffs) == schoolbook_sum(a.coeffs, b.coeffs, -1)
        assert list(a.scale(factor).coeffs) == schoolbook_scale(a.coeffs, factor)
        assert_stored_in_one_form(a + b, a - b, a.scale(factor), -a, a.times_x(2))
    assert (g + f) - f == g and hash((g + f) - f) == hash(g)


@settings(max_examples=120, deadline=None)
@given(st.one_of(units, numeric_units))
def test_inverse_matches_schoolbook(f):
    assert list(f.inverse().coeffs) == schoolbook_inverse(f.coeffs)


@settings(max_examples=120, deadline=None)
@given(st.one_of(quotients, numeric_quotients, mixed_quotients))
def test_quotient_matches_schoolbook(pair):
    f, u = pair
    assert list((f / u).coeffs) == schoolbook_product(f.coeffs, schoolbook_inverse(u.coeffs))
    assert_stored_in_one_form(f / u)


@settings(max_examples=30, deadline=None)
@given(numeric_non_units)
def test_a_numeric_zero_constant_term_is_not_a_unit(pair):
    f, d = pair
    with pytest.raises(NotAUnit):
        d.inverse()
    with pytest.raises(NotAUnit):
        f / d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(series_of))
@example(named_series("narayana", 3))  # t^3, a power above what series_of draws
def test_json_round_trip(f):
    assert TruncatedSeries.from_json(f.to_json()) == f
