import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from valleydyck.errors import NotDivisible
from valleydyck.params import A, A_INV, B, Q, T, T1_INV
from valleydyck.polynomials import Polynomial, binomial, var_key


def random_poly(rng, variables=("a", "b"), terms=3, degree=3):
    p = Polynomial.zero()
    for _ in range(rng.randrange(terms + 1)):
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        powers = {v: rng.randrange(degree + 1) for v in variables}
        p = p + Polynomial.monomial(coeff, powers)
    return p


def test_narayana_building_blocks():
    # N_1(t) = t and N_2(t) = t + t^2
    assert T * T == Polynomial.monomial(1, {"t": 2})
    n2 = T + T * T
    assert str(n2) == "t^2 + t"
    assert n2.substitute({"t": 1}) == 2
    # substituting t := q + 1 turns N_2 into (q + 2)(q + 1)
    shifted = n2.substitute({"t": Q + 1})
    assert shifted == (Q + 2) * (Q + 1)


def test_additive_inverse_and_zero():
    p = A * A + 3 * B
    assert p + (-p) == 0
    assert not (p - p)


def test_hand_expanded_product():
    left = A * A + B
    right = A ** 3 + 3 * A * B
    product = left * right
    expected = A ** 5 + 4 * A ** 3 * B + 3 * A * B ** 2
    assert product == expected
    # cross-check by evaluating both sides at a=2, b=3
    point = {"a": 2, "b": 3}
    assert product.evaluate(point) == left.evaluate(point) * right.evaluate(point)
    assert product.evaluate(point) == Fraction(7) * (8 + 18)


def test_exact_division():
    assert (T + T * T).exact_div(T) == 1 + T
    p = A ** 2 * B + Fraction(1, 2) * A
    assert p.exact_div(Polynomial.one()) == p
    assert (4 * T * T - 1).exact_div(2 * T + 1) == 2 * T - 1
    with pytest.raises(NotDivisible):
        (T + 1).exact_div(T)


def test_exact_div_multiplied_back_random():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng)
        r = random_poly(rng)
        if not r:
            continue
        assert (p * r).exact_div(r) == p


def test_substitution_homomorphism():
    rng = random.Random(11)
    binding = {"a": T + 1, "b": Polynomial.const(Fraction(2, 3))}
    for _ in range(40):
        p = random_poly(rng)
        r = random_poly(rng)
        assert (p * r).substitute(binding) == p.substitute(binding) * r.substitute(binding)
        assert (p + r).substitute(binding) == p.substitute(binding) + r.substitute(binding)
    assert (A + B).substitute({}) == A + B


def test_ring_axioms_random():
    rng = random.Random(13)
    for _ in range(40):
        p = random_poly(rng)
        r = random_poly(rng)
        s = random_poly(rng)
        assert p + r == r + p
        assert p * r == r * p
        assert (p + r) + s == p + (r + s)
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s


def test_formal_inverse_of_a():
    assert A * A_INV == 1
    assert A ** 3 * A_INV == A ** 2
    # (b/a) * M_2 * a^2 recombines to a polynomial
    beta1 = B * A_INV
    assert beta1 * A ** 2 == A * B
    assert (B * A_INV * (A ** 2 + B)) == A * B + B ** 2 * A_INV


def test_formal_inverse_of_t_plus_one():
    assert (T + 1) * T1_INV == 1
    assert T * T1_INV == 1 - T1_INV
    # N_2(t)/(1+t) = t, recovered once multiplied by (1+t)
    beta = (T + T * T) * T1_INV
    assert beta == T
    n1_over = T * T1_INV
    assert n1_over * (T + 1) == T


def test_substituting_base_binds_its_inverse():
    beta1 = B * A_INV
    assert beta1.substitute({"a": 2, "b": 6}) == 3
    shifted = T * T1_INV
    assert shifted.substitute({"t": 1}) == Fraction(1, 2)
    with pytest.raises(ValueError):
        beta1.substitute({"a": 0})


def test_small_powers():
    assert (A + B) ** 0 == 1
    assert (A + B) ** 2 == A ** 2 + 2 * A * B + B ** 2


def test_string_and_json_round_trip():
    p = Fraction(7, 3) * A ** 2 * B - Polynomial.one() + Q
    assert Polynomial.from_json(p.to_json()) == p
    assert str(Polynomial.zero()) == "0"
    assert str(-A) == "-a"
    data = p.to_json()
    assert data[0]["coeff"] == "7/3"


def test_from_json_reads_int_and_string_coefficients_only():
    assert Polynomial.from_json([{"coeff": 3, "monomial": {"a": 1}}]) == 3 * A
    assert Polynomial.from_json([{"coeff": "1/10", "monomial": {}}]) == Fraction(1, 10)
    # a JSON float is a binary fraction (0.1 is not 1/10), and true is no coefficient
    for coeff in (0.1, 2.0, True):
        with pytest.raises(TypeError, match="a coefficient must be an integer or a string"):
            Polynomial.from_json([{"coeff": coeff, "monomial": {}}])


def test_from_json_reads_int_exponents_only():
    assert Polynomial.from_json([{"coeff": 1, "monomial": {"a": 2}}]) == A**2
    # Python counts true as the int 1; an exponent is a JSON integer, nothing else
    for exponent in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="the exponent of a must be an integer"):
            Polynomial.from_json([{"coeff": 1, "monomial": {"a": exponent}}])


def test_integral_coefficients_are_canonical_ints():
    two = Polynomial({(): Fraction(4, 2)})
    assert two == Polynomial.const(2)
    assert hash(two) == hash(Polynomial.const(2))
    half = Fraction(1, 2)
    p = (half * A + half) * 2 + half * B + half * B
    assert p == A + B + 1
    assert all(type(c) is int for _, c in p.sorted_terms())
    assert [type(c) for _, c in (half * A + 3).sorted_terms()] == [Fraction, int]
    assert (Fraction(2, 3) * A).exact_div(Fraction(1, 3)) == 2 * A
    assert all(type(c) is int for _, c in (2 * A).sorted_terms())


def test_public_contract_keeps_fraction_values_and_integer_text():
    for value in (
        Polynomial.const(3).constant_value(),
        Polynomial.zero().constant_value(),
        (A + 1).evaluate({"a": 2}),
    ):
        assert type(value) is Fraction
    assert Polynomial.const(3).constant_value() / 2 == Fraction(3, 2)
    three = Polynomial.const(Fraction(6, 2))
    assert str(three) == "3"
    assert three.to_json() == [{"coeff": "3", "monomial": {}}]
    assert str(Fraction(3, 1) * A - Fraction(9, 3)) == "3*a - 3"


def test_inverse_cancellation_through_trusted_path():
    assert A**3 * A_INV == A**2
    assert (T + 1) * T1_INV == 1
    assert -(A * A_INV) == -1
    assert Polynomial.sum([A**2 * A_INV, -A]) == 0
    assert (B * A_INV) * (A**2 - A) == A * B - B


def test_merged_monomials_keep_numeric_variable_order():
    alpha = Polynomial.var
    assert str(alpha("alpha10") * alpha("alpha2") * alpha("alpha1")) == "alpha1*alpha2*alpha10"
    assert alpha("beta3") * alpha("alpha12") == alpha("alpha12") * alpha("beta3")
    assert var_key.cache_info().maxsize is not None


def test_sum_agrees_with_repeated_addition():
    rng = random.Random(17)
    for _ in range(30):
        parts = [random_poly(rng) for _ in range(rng.randrange(6))]
        total = Polynomial.zero()
        for part in parts:
            total = total + part
        assert Polynomial.sum(parts) == total
        assert Polynomial.sum(iter(parts)) == total
    assert Polynomial.sum([]) == Polynomial.zero()
    p = random_poly(rng, terms=4) + A
    cancelled = Polynomial.sum([p, -p, Fraction(1, 2), Fraction(1, 2)])
    assert cancelled == 1 and cancelled.sorted_terms() == [((), 1)]
    assert not Polynomial.sum([p, -p])


def _to_sympy(sympy, poly):
    # the formal inverses are honest reciprocals in sympy's field of fractions
    symbols = {"a_inv": 1 / sympy.Symbol("a"), "t1_inv": 1 / (sympy.Symbol("t") + 1)}
    expr = sympy.Integer(0)
    for mono, coeff in poly.sorted_terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            term *= symbols.get(v, sympy.Symbol(v)) ** e
        expr += term
    return expr


def test_differential_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    binding = {"a": T + 1, "b": Polynomial.const(Fraction(2, 3))}
    a, b, t = sympy.symbols("a b t")
    sym_binding = {a: t + 1, b: sympy.Rational(2, 3)}
    for _ in range(25):
        p = random_poly(rng, variables=("a", "b", "q"), terms=4)
        r = random_poly(rng, variables=("a", "b", "q"), terms=4)
        sp, sr = _to_sympy(sympy, p), _to_sympy(sympy, r)
        assert sympy.expand(_to_sympy(sympy, p * r) - sp * sr) == 0
        assert sympy.expand(_to_sympy(sympy, p + r) - (sp + sr)) == 0
        got = _to_sympy(sympy, p.substitute(binding))
        assert sympy.expand(got - sp.subs(sym_binding)) == 0
        if r:
            quotient, remainder = sympy.div(sympy.expand(sp * sr), sr)
            assert remainder == 0
            assert sympy.expand(_to_sympy(sympy, (p * r).exact_div(r)) - quotient) == 0
    for _ in range(15):
        p = random_poly(rng, variables=("a", "a_inv", "t1_inv", "t"), terms=3, degree=2)
        r = random_poly(rng, variables=("a", "a_inv", "t1_inv", "t"), terms=3, degree=2)
        diff = _to_sympy(sympy, p * r) - _to_sympy(sympy, p) * _to_sympy(sympy, r)
        assert sympy.cancel(diff) == 0


def test_binomial_generalized():
    assert binomial(6, 2) == 15
    assert binomial(6, 2) // 5 == 3  # Fuss-Catalan count for two internal vertices
    for n in range(-4, 8):
        assert binomial(n, 0) == 1
    assert binomial(-2, 2) == 3
    assert binomial(5, -1) == 0
    # Pascal identity over a grid including negative upper index
    for n in range(-6, 7):
        for k in range(-2, 9):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    # the falling factorial over k!, for negative n and for k > n too
    for n in range(-9, 13):
        for k in range(-3, 16):
            falling = 1
            for i in range(k):
                falling *= n - i
            assert binomial(n, k) == (falling // factorial(k) if k >= 0 else 0), (n, k)


def test_pickle_round_trip():
    for p in (
        Polynomial.const(7),
        Polynomial.const(Fraction(-2, 3)) * A * B + 1,
        A_INV * B + T1_INV * T,
        Polynomial.zero(),
    ):
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert q * A == p * A  # the restored polynomial computes like the original


def test_powers_equal_repeated_products():
    rng = random.Random(29)
    polys = [random_poly(rng, terms=3) for _ in range(8)]
    polys += [
        random_poly(rng, variables=("a", "a_inv", "t", "t1_inv"), terms=3, degree=2)
        for _ in range(8)
    ]
    polys += [Fraction(2, 3) * A, A_INV, T + 1, Polynomial.zero()]
    for p in polys:
        copies = Polynomial.one()
        for e in range(7):
            assert p**e == copies
            copies = copies * p
    assert Polynomial.zero() ** 0 == 1
    with pytest.raises(ValueError):
        A ** -1


def test_single_term_products():
    half_a = Fraction(1, 2) * A
    product = half_a * (2 * B)
    assert product == A * B
    assert [type(c) for _, c in product.sorted_terms()] == [int]
    assert [type(c) for _, c in (half_a * B).sorted_terms()] == [Fraction]
    assert A * A_INV == 1
    assert T * T1_INV == 1 - T1_INV
    assert (3 * A**2) * A_INV == 3 * A
    assert Polynomial.const(5) * Polynomial.const(Fraction(1, 5)) == 1


def test_product_starts_from_the_first_factor():
    rng = random.Random(31)
    for _ in range(20):
        factors = [random_poly(rng) for _ in range(rng.randrange(5))]
        total = Polynomial.one()
        for f in factors:
            total = total * f
        assert Polynomial.product(factors) == total
        assert Polynomial.product(iter(factors)) == total
    assert Polynomial.product([]) == 1
    assert Polynomial.product([3]) == 3


def test_substitute_reuses_powers_within_one_call():
    # many monomials share (variable, exponent) pairs; each binding kind once
    p = Polynomial.sum(Polynomial.monomial(k + 1, {"a": 2, "b": k % 3, "q": 1}) for k in range(9))
    p = p + A_INV * B
    got = p.substitute({"a": Fraction(3, 2), "b": T + 1})
    expected = Polynomial.zero()
    for k in range(9):
        expected = expected + (k + 1) * Fraction(9, 4) * (T + 1) ** (k % 3) * Q
    assert got == expected + Fraction(2, 3) * (T + 1)
