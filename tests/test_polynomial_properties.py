"""Ring-axiom properties of the polynomial kernel, generated by hypothesis.

Operands are drawn as single terms (the products' fast path) and as general
sums of terms, over plain variables and the two formal inverses, so the
inverse rewrite is exercised by every property.  Products and the
multiply-accumulate ``Polynomial.dot`` they run on are held to a
term-by-term product of the public view (``schoolbook.public_product``),
JSON output must read back to the same polynomial, and the term order is
held to a plain sort of the public view.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from schoolbook import public_product  # noqa: E402

from valleydyck.params import A, A_INV, T, T1_INV  # noqa: E402
from valleydyck.polynomials import MAX_EXPONENT, Polynomial, var_key  # noqa: E402

VARIABLES = ("a", "b", "t", "a_inv", "t1_inv")

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
monomials = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 3), max_size=3)


def holds_base_and_inverse(names) -> bool:
    """A monomial the inverse rewrite would turn into another (or two) terms."""
    names = set(names)
    return {"a", "a_inv"} <= names or {"t", "t1_inv"} <= names


@st.composite
def single_terms(draw):
    mono = draw(monomials.filter(lambda m: not holds_base_and_inverse(m)))
    return Polynomial.monomial(draw(coefficients), mono)


@st.composite
def general(draw):
    terms = draw(st.lists(st.tuples(coefficients, monomials), max_size=4))
    return Polynomial.sum(Polynomial.monomial(c, m) for c, m in terms)


polys = st.one_of(single_terms(), general())
# also the zero polynomial and the constants, the operands a series convolution
# meets at its unit constant term and at the zero coefficients it skips
operands = st.one_of(polys, coefficients.map(Polynomial.const), st.just(Polynomial.zero()))

kernel = settings(max_examples=100, deadline=None)


def canonical(p: Polynomial) -> bool:
    """Integral coefficients are ints and no monomial holds a base with its inverse."""
    for mono, coeff in p.sorted_terms():
        if type(coeff) is not int and coeff.denominator == 1:
            return False
        if holds_base_and_inverse(v for v, _ in mono):
            return False
    return True


@kernel
@given(polys, polys)
def test_product_matches_the_public_term_by_term_product(p, r):
    assert p * r == public_product(p, r)
    assert canonical(p * r)


@kernel
@given(polys, polys, polys)
def test_multiplication_is_a_commutative_monoid(p, r, s):
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * 1 == p and 1 * p == p
    assert p * 0 == 0
    assert canonical(p * r)


@kernel
@given(polys, polys, polys)
def test_addition_is_an_abelian_group(p, r, s):
    assert p + r == r + p
    assert (p + r) + s == p + (r + s)
    assert p + 0 == p
    assert p - p == 0
    assert canonical(p + r)
    # subtraction merges the negated terms itself
    assert p - r == p + (-r) and canonical(p - r)
    assert 1 - p == 1 + (-p) and p - 1 == p + (-1)


@kernel
@given(polys, polys, polys)
def test_multiplication_distributes(p, r, s):
    assert p * (r + s) == p * r + p * s


@kernel
@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_powers_add_exponents(p, m, n):
    assert p**0 == 1
    assert p**1 == p
    assert p ** (m + n) == p**m * p**n
    assert canonical(p ** (m + n))


@kernel
@given(single_terms(), st.integers(0, 40))
@example(Fraction(-2, 3) * A_INV, 40)
@example(-T1_INV, 39)
@example(Fraction(-1, 2) * A * T1_INV, 40)
def test_one_term_power_is_repeated_multiplication(p, e):
    want = Polynomial.one()
    for _ in range(e):
        want = want * p
    assert p**e == want
    assert canonical(p**e)
    # the power keeps its inverse rewrite: both cancel a base the same way
    assert p**e * A * (T + 1) == want * A * (T + 1)


@kernel
@given(polys)
def test_inverse_variables_cancel(p):
    assert p * A * A_INV == p
    assert p * (T + 1) * T1_INV == p
    assert (p * A_INV) * A == p
    assert p * T * T1_INV == p - p * T1_INV


@kernel
@given(st.lists(st.tuples(operands, operands), max_size=6))
@example([])
def test_dot_is_the_sum_of_the_products(pairs):
    got = Polynomial.dot(pairs)
    assert got == Polynomial.sum(public_product(a, b) for a, b in pairs)
    assert canonical(got)


@kernel
@given(st.sampled_from(VARIABLES), st.integers(1, MAX_EXPONENT), polys)
def test_dot_refuses_an_exponent_past_the_cap_as_mul_does(name, e, other):
    high = Polynomial.monomial(1, {name: e})
    past = Polynomial.monomial(1, {name: MAX_EXPONENT + 1 - e})
    with pytest.raises(OverflowError) as by_mul:
        high * past
    assert str(by_mul.value) == f"exponent of {name} would exceed {MAX_EXPONENT}"
    # even where the sum cancels the product that went past the cap
    for pairs in ([(high, past)], [(other, other), (high, past), (-high, past)]):
        with pytest.raises(OverflowError) as by_dot:
            Polynomial.dot(pairs)
        assert str(by_dot.value) == str(by_mul.value)


@kernel
@given(operands)
def test_json_round_trip(p):
    assert Polynomial.from_json(p.to_json()) == p


ORDERED = ("a", "alpha2", "alpha10", "b", "beta1", "gamma3", "q", "t", "a_inv", "t1_inv")
exponents = st.one_of(st.integers(1, 3), st.integers(1, MAX_EXPONENT), st.just(MAX_EXPONENT))
# public views: (variable, exponent) pairs in var_key order
views = (
    st.dictionaries(st.sampled_from(ORDERED), exponents, max_size=5)
    .filter(lambda m: not holds_base_and_inverse(m))
    .map(lambda m: tuple(sorted(m.items(), key=lambda ve: var_key(ve[0]))))
)
# three fields at the cap: a total degree above 2**16
TOP = {"alpha2": MAX_EXPONENT, "alpha10": MAX_EXPONENT, "gamma3": MAX_EXPONENT}


def graded_lex(term):
    """Total degree descending, then the exponent vector in var_key order descending."""
    mono = dict(term[0])
    return -sum(mono.values()), [-mono.get(v, 0) for v in sorted(ORDERED, key=var_key)]


@kernel
@given(st.dictionaries(views, coefficients, max_size=8))
@example({tuple(TOP.items()): 1, (("alpha2", MAX_EXPONENT), ("b", 1)): 2, (): 3})
@example({tuple(TOP.items()): 1, tuple({**TOP, "alpha10": MAX_EXPONENT - 1, "t": 1}.items()): -1})
def test_sorted_terms_is_graded_lex_in_var_key_order(terms):
    p = Polynomial(terms)
    expected = sorted(terms.items(), key=graded_lex)
    assert p.sorted_terms() == expected
    assert p.variables() == tuple(sorted({v for mono in terms for v, _ in mono}, key=var_key))
