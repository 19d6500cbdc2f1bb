import pickle
import random
from fractions import Fraction

import pytest

from conftest import traced_peak
from schoolbook import schoolbook_inverse, schoolbook_product, stored_form
from valleydyck import series
from valleydyck.params import A, A_INV, B, Q, T
from valleydyck.polynomials import Polynomial
from valleydyck.series import (
    ARITY,
    EQUATIONS,
    Equation,
    TruncatedSeries,
    named_series,
    solve_equation,
    valley_series,
    valley_series_ab,
)
from valleydyck.weights import registry_get


def geometric(ratio, order):
    """1/(1 - ratio*x) with integer ratio, as explicit coefficients."""
    return TruncatedSeries([ratio**n for n in range(order + 1)])


def test_basic_ring_ops():
    one = TruncatedSeries.one(3)
    x = TruncatedSeries.x(3)
    assert (one + x) * (one - x) == TruncatedSeries.from_coeffs([1, 0, -1], 3)
    alpha = x.scale(A)
    assert alpha * alpha == TruncatedSeries.from_coeffs([0, 0, A * A], 3)


def test_catalan_square():
    catalan = named_series("catalan", 3)
    assert [c.constant_value() for c in catalan.coeffs] == [1, 1, 2, 5]
    bumped = catalan - TruncatedSeries.one(3)
    assert bumped * bumped == TruncatedSeries.from_coeffs([0, 0, 1, 4], 3)


def test_inverse_geometric():
    s = TruncatedSeries.from_coeffs([1, -1], 4).inverse()
    assert s == TruncatedSeries([1, 1, 1, 1, 1])


def test_inverse_even_fibonacci():
    s = TruncatedSeries.from_coeffs([1, -3, 1], 4).inverse()
    assert [c.constant_value() for c in s.coeffs] == [1, 3, 8, 21, 55]


def test_inverse_chebyshev():
    u = TruncatedSeries.from_coeffs([1, -2 * T, 1], 2).inverse()
    assert u.coeffs == (Polynomial.one(), 2 * T, 4 * T * T - 1)


def test_shift_and_poly_division():
    narayana = named_series("narayana", 3)
    f = (narayana - 1).shift_div_x(1).div_poly(T)
    assert f.order == 2
    assert f.coeffs == (Polynomial.one(), 1 + T, 1 + 3 * T + T * T)
    assert f == named_series("narayana_shift", 2)


def test_pow():
    x = TruncatedSeries.x(4)
    assert x ** 0 == TruncatedSeries.one(4)
    t_ser = named_series("fuss", 4, r=2)
    lhs = (x * t_ser ** 2) * (x * t_ser ** 3)
    assert lhs == (x * x) * t_ser ** 5


def test_motzkin_functional_equation():
    m = named_series("motzkin_ab", 3)
    assert m.coefficient(2) == A * A + B
    assert m.coefficient(3) == A ** 3 + 3 * A * B
    # both shapes of the defining relation agree
    one = TruncatedSeries.one(3)
    x = TruncatedSeries.x(3)
    again = (one - x.scale(A) - (x * x * m).scale(B)).inverse()
    assert again == m


def test_schroder_small_values():
    s = named_series("schroder_small", 2)
    assert s.coeffs == (Polynomial.one(), Polynomial.one(), Q + 2)


def test_schroder_large_at_one():
    r_ser = named_series("schroder_large", 2)
    assert [c.substitute({"q": 1}).constant_value() for c in r_ser.coeffs] == [1, 2, 6]


def test_narayana_bridges():
    n_ser = named_series("narayana", 8)

    def at(value):
        return TruncatedSeries([c.substitute({"t": value}) for c in n_ser.coeffs])

    assert at(Q + 1) == named_series("schroder_large", 8)
    cat = named_series("catalan", 8)
    assert at(1) == cat


def test_valley_series_trivial_and_examples():
    zero = TruncatedSeries.zero(5)
    assert valley_series(zero, zero, zero) == TruncatedSeries.one(5)
    assert valley_series_ab(TruncatedSeries.x(5), zero) == TruncatedSeries.one(5)

    x = TruncatedSeries.x(5)
    one = TruncatedSeries.one(5)
    alpha = x * (one - x).inverse()
    beta = x * (one - x.scale(2)).inverse()
    v = valley_series_ab(alpha, beta)
    assert [c.constant_value() for c in v.coeffs] == [1, 0, 1, 4, 13, 40]

    v_fib = valley_series_ab(alpha, alpha)
    assert [c.constant_value() for c in v_fib.coeffs] == [1, 0, 1, 3, 8, 21]


def test_valley_series_matches_ab_form():
    rng = random.Random(3)
    for _ in range(15):
        order = 6
        alpha = TruncatedSeries(
            [0] + [Fraction(rng.randrange(-3, 4)) for _ in range(order)]
        )
        beta = TruncatedSeries(
            [0] + [Fraction(rng.randrange(-3, 4)) for _ in range(order)]
        )
        assert valley_series_ab(alpha, beta) == valley_series(alpha, beta, alpha * beta)
    # and on symbols, where valley_series must find the shape by itself
    alpha, beta, _ = registry_get("generic", 7).to_series()
    assert valley_series_ab(alpha, beta) == valley_series(alpha, beta, alpha * beta)


def test_valley_series_is_the_papers_formula():
    # 1 / (1 - gamma - alpha^2 beta / (1 - alpha)), every product and inverse schoolbook
    alpha, beta, gamma = (s.coeffs for s in registry_get("generic", 7).to_series())
    one = TruncatedSeries.one(7).coeffs
    minus = lambda f, g: [a - b for a, b in zip(f, g)]
    alpha_beta = schoolbook_product(alpha, beta)
    pyramids = schoolbook_product(schoolbook_product(schoolbook_product(alpha, alpha), beta),
                                  schoolbook_inverse(minus(one, alpha)))
    for g in (gamma, alpha_beta):
        want = schoolbook_inverse(minus(minus(one, g), pyramids))
        got = valley_series(*(TruncatedSeries(c) for c in (alpha, beta, g)))
        assert list(got.coeffs) == want


def test_fixed_point_satisfies_equation():
    order = 6
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    for name, phi in [
        ("catalan", lambda f: one + x * f * f),
        ("schroder_large", lambda f: one + (x * f).scale(Q) + x * f * f),
    ]:
        s = named_series(name, order)
        assert phi(s) == s


def test_series_division():
    order = 6
    num = named_series("catalan", order) - 1
    den = named_series("catalan", order)
    quotient = num / den
    assert quotient * den == num
    # C - 1 = xC^2 means (C-1)/C = xC
    assert quotient == TruncatedSeries.x(order) * den


def test_reciprocal_functional_equation_forms():
    order = 7
    one = TruncatedSeries.one(order)
    x = TruncatedSeries.x(order)
    a, b = A, B
    m = named_series("motzkin_ab", order)
    assert m == (one - x.scale(a) - (x * x * m).scale(b)).inverse()
    r = named_series("schroder_large", order)
    assert r == (one - x.scale(Q) - x * r).inverse()
    s = named_series("schroder_small", order)
    assert s == (one + x.scale(Q) - (x * s).scale(Q + 1)).inverse()
    n = named_series("narayana", order)
    assert n == (one - x.scale(T - 1) - x * n).inverse()
    f = named_series("narayana_shift", order)
    assert f == (one - x.scale(T + 1) - (x * x * f).scale(T)).inverse()
    for r_param in (1, 2, 3):
        t_ser = named_series("fuss", order, r=r_param)
        assert t_ser == (one - x * t_ser**r_param).inverse()
        assert t_ser == (
            one - x * t_ser ** (r_param - 1) - (x * x) * t_ser ** (2 * r_param)
        ).inverse()


def test_coefficients_are_read_as_polynomial_operands_are():
    assert TruncatedSeries([1, Fraction(1, 2), A]).coeffs == (1, Fraction(1, 2), A)


@pytest.mark.parametrize("square", [False, True], ids=["a*b", "a*a"])
def test_a_product_holds_one_coefficients_pairs(square):
    # a product forms one coefficient's pairs of factors at a time, so at
    # order 600 its peak is the result and one coefficient's pairs, about
    # 0.2 MB; the pairs of every coefficient at once take 5.7 MB (a*a) to 11.3 MB
    alpha, beta, _ = registry_get("geom_3x", 600).to_series()
    other = alpha if square else beta
    _, peak = traced_peak(lambda: alpha * other)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_times_x_mirrors_shift_div_x():
    s = TruncatedSeries.from_coeffs([1, A, 0, T], 3)
    assert s.times_x() == TruncatedSeries.x(3) * s
    assert s.times_x(2) == TruncatedSeries.from_coeffs([0, 0, 1, A], 3)
    assert s.times_x(5) == TruncatedSeries.zero(3)
    assert s.times_x(0) == s
    assert s.times_x(2).shift_div_x(2) == TruncatedSeries.from_coeffs([1, A], 1)


def test_solved_series_truncate_consistently():
    top = 12
    names = ("catalan", "motzkin_ab", "schroder_large", "schroder_small", "narayana",
             "narayana_shift", "schroder_large_beta", "narayana_beta")
    cases = [(name, None) for name in names]
    cases += [("fuss", r) for r in (1, 2, 3)]
    for name, r in cases:
        full = named_series(name, top, r=r)
        for k in range(top + 1):
            assert TruncatedSeries(full.coeffs[: k + 1]) == named_series(name, k, r=r)


def test_pickle_round_trip():
    s = named_series("motzkin_ab", 6) + TruncatedSeries.from_coeffs(
        [0, Fraction(1, 2), A_INV], 6
    )
    t = pickle.loads(pickle.dumps(s))
    assert t == s and hash(t) == hash(s) and str(t) == str(s)


# -- one stored form per value -----------------------------------------------------

_NUMBERS = [0, 1, Fraction(1, 2), -3, 2]


def _routes():
    """(label, series) pairs that all hold the series of _NUMBERS, each built
    another way; the last routes pass through symbolic coefficients."""
    want = TruncatedSeries(_NUMBERS)
    symbolic = TruncatedSeries([A, 0, T, A_INV, 1])
    halves = TruncatedSeries([Fraction(c) / 2 for c in _NUMBERS])
    return [
        ("numbers", want),
        ("Polynomial.const", TruncatedSeries(map(Polynomial.const, _NUMBERS))),
        ("halves", halves + halves),
        ("json", TruncatedSeries.from_json(want.to_json())),
        ("cancelled symbols", (want + symbolic) - symbolic),
        ("a times a_inv", want.scale(A).scale(A_INV)),
        ("a_inv series times a", (want * TruncatedSeries.constant(A_INV, 4)).scale(A)),
        ("exact division", want.scale(T + 1).div_poly(T + 1)),
        # the constructors' stored coefficients, joined by no arithmetic that
        # would put them in stored form again
        ("constructors", TruncatedSeries._trusted(
            TruncatedSeries.x(0).stored + TruncatedSeries.one(0).stored
            + TruncatedSeries.constant(Fraction(1, 2), 0).stored
            + TruncatedSeries.constant(Polynomial.const(-3), 0).stored
            + TruncatedSeries.constant(Fraction(4, 2), 0).stored)),
        ("dropped symbol", TruncatedSeries(_NUMBERS[1:] + [T]).times_x()),
    ]


def _first_disagreement() -> str | None:
    """The label and comparison of the first route whose series is not equal
    to, hashed as, stored as or pickled as the series built from numbers."""
    want = TruncatedSeries(_NUMBERS)
    for label, s in _routes():
        # each comparison runs only once those before it hold
        for comparison, holds in (
            ("==", lambda: s == want),
            ("hash", lambda: hash(s) == hash(want)),
            ("stored form", lambda: list(map(type, s.stored))
             == list(map(type, stored_form(s.coeffs))) and s.stored == stored_form(s.coeffs)),
            ("pickle", lambda: _survives_pickling(s)),
        ):
            if not holds():
                return f"{label}: {comparison}"
    return None


def _survives_pickling(s: TruncatedSeries) -> bool:
    copy = pickle.loads(pickle.dumps(s))
    return copy == s and hash(copy) == hash(s) and copy.stored == s.stored


def test_every_route_to_a_numeric_series_stores_one_form():
    assert _first_disagreement() is None
    assert TruncatedSeries(_NUMBERS).stored == (0, 1, Fraction(1, 2), -3, 2)


_SERIES = series._series


def _keeping_polynomials(coeffs):
    """series._series, broken: polynomials are stored as they are, even when
    every one is a constant."""
    coeffs = tuple(coeffs)
    if type(coeffs[0]) is Polynomial:
        return TruncatedSeries._trusted(coeffs)
    return _SERIES(coeffs)


# faults in the normalisation, each with the comparison that catches it: an
# integral Fraction kept as a Fraction is equal and hashes alike, so only its
# stored form differs; a result whose symbols cancelled, kept as polynomials,
# is equal but hashes apart
@pytest.mark.parametrize("name, fault, caught_by", [
    ("_ints", tuple, "halves: stored form"),
    ("_series", _keeping_polynomials, "cancelled symbols: hash"),
])
def test_a_broken_normalisation_is_caught(monkeypatch, name, fault, caught_by):
    monkeypatch.setattr(series, name, fault)
    assert _first_disagreement() == caught_by


def test_coefficients_leave_as_polynomials():
    for s in (TruncatedSeries(_NUMBERS), TruncatedSeries([A, 0, T, A_INV, 1])):
        assert all(type(c) is Polynomial for c in s.coeffs)
        assert all(type(s.coefficient(n)) is Polynomial for n in range(s.order + 1))
        assert s.coeffs == stored_form(s.coeffs)
    assert TruncatedSeries(_NUMBERS).coefficient(2) == Polynomial.const(Fraction(1, 2))
    assert TruncatedSeries([A, 0, T]).stored == (A, Polynomial.zero(), T)


def test_a_series_of_numbers_writes_its_json_without_polynomial_to_json(monkeypatch):
    numbers = registry_get("geom_3x", 8)
    series_json = [TruncatedSeries(_NUMBERS).to_json(), valley_series(*numbers.to_series()).to_json()]
    table_json = numbers.to_json()

    def unreachable(*args):
        raise AssertionError("a number was written through Polynomial.to_json")

    monkeypatch.setattr(Polynomial, "to_json", unreachable)
    assert [TruncatedSeries(_NUMBERS).to_json(),
            valley_series(*numbers.to_series()).to_json()] == series_json
    assert numbers.to_json() == table_json
    with pytest.raises(AssertionError):
        TruncatedSeries([A, 0, T]).to_json()


def test_each_solved_series_declares_its_contraction():
    assert set(EQUATIONS) == {
        "catalan", "motzkin_ab", "schroder_large", "schroder_small", "narayana",
        "narayana_shift", "fuss", "schroder_large_beta", "narayana_beta",
    }
    for name, equation in EQUATIONS.items():
        # built by the checking constructor: c_j(0) = 0 for every j >= 1
        assert type(equation) is Equation
        assert all(i >= 1 for j, i, _ in equation.terms if j != 0), name
        assert equation.takes_r == (name == "fuss")


def test_solve_equation_beyond_the_named_series():
    # c_0 with x terms, a power of F above 2 and rational coefficients
    half = Fraction(1, 2)
    equation = Equation(((0, 0, 2), (0, 2, -1), (1, 2, half), (3, 1, T), (5, 2, 1)))
    got = solve_equation(equation, 9)
    # the right-hand side, evaluated at the solution, gives the solution back
    rhs = (TruncatedSeries.from_coeffs([2, 0, -1], 9) + got.times_x(2).scale(half)
           + (got**3).times_x().scale(T) + (got**5).times_x(2))
    assert rhs == got
    assert got.coefficient(0) == 2
    # the fuss arity is bound per solve
    assert solve_equation(EQUATIONS["fuss"], 6, r=2) == named_series("fuss", 6, r=2)


def _sympy_of(sympy, poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in mono)) for mono, c in poly.sorted_terms()),
        sympy.Integer(0),
    )


def _quadratic_root(sympy, rhs, x, f, order):
    """The power-series root of F = rhs, quadratic in F, to x^order.

    Written A2 F^2 + A1 F + A0 = 0, each equation has A2 = g x^i with g free
    of x, and its discriminant D = A1^2 - 4 A2 A0 is 1 at x = 0.  So sqrt(D)
    is the binomial series of 1 + (D - 1), and of the two roots
    (-A1 -+ sqrt(D)) / (2 A2) only the one with the minus sign is a power
    series: its numerator vanishes to order i.
    """
    a2, a1, a0 = (sympy.Poly(rhs - f, f).coeff_monomial(f**k) for k in (2, 1, 0))
    ((i,), g), = sympy.Poly(a2, x).terms()
    top = order + i
    cut = sympy.Poly(x ** (top + 1), x)  # the remainder by it truncates

    u = sympy.Poly(a1**2 - 4 * a2 * a0 - 1, x)
    assert u.eval(0) == 0
    root = power = sympy.Poly(1, x)
    for k in range(1, top + 1):
        power = (power * u).rem(cut)
        root += power * sympy.binomial(sympy.Rational(1, 2), k)
    numerator = -sympy.Poly(a1, x) - root
    assert all(numerator.coeff_monomial(x**k) == 0 for k in range(i))
    return [numerator.coeff_monomial(x ** (k + i)) / (2 * g) for k in range(order + 1)]


def test_named_series_against_sympy():
    """Each equation solved by sympy alone, against named_series at order 10."""
    sympy = pytest.importorskip("sympy")
    order = 10
    x, f = sympy.symbols("x F")
    for name, equation in EQUATIONS.items():
        r = 2 if equation.takes_r else None
        rhs = sum(
            _sympy_of(sympy, c) * x**i * f ** (r + 1 if j == ARITY else j)
            for j, i, c in equation.terms
        )
        if sympy.degree(rhs, f) == 2:
            want = _quadratic_root(sympy, rhs, x, f, order)
        else:
            # undetermined coefficients, each solved from its own linear equation
            unknowns = sympy.symbols(f"f0:{order + 1}")
            trial = sum(u * x**k for k, u in enumerate(unknowns))
            residual = sympy.Poly(sympy.expand(trial - rhs.subs(f, trial)), x)
            solved: dict = {}
            for k, u in enumerate(unknowns):
                (solved[u],) = sympy.solve(residual.coeff_monomial(x**k).subs(solved), u)
            want = [solved[u] for u in unknowns]
        got = named_series(name, order, r=r)
        for k in range(order + 1):
            assert sympy.cancel(_sympy_of(sympy, got.coefficient(k)) - want[k]) == 0, (name, k)


def test_product_and_inverse_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_mul, rs_series_inversion

    order = 10
    ring, x = sympy.ring("x", sympy.QQ[sympy.symbols("a b q")])

    def in_ring(series):
        return ring(sum(_sympy_of(sympy, c) * sympy.Symbol("x") ** k
                        for k, c in enumerate(series.coeffs)))

    s, u = named_series("motzkin_ab", order), named_series("schroder_large", order)
    assert in_ring(s * u) == rs_mul(in_ring(s), in_ring(u), x, order + 1)
    assert in_ring(s.inverse()) == rs_series_inversion(in_ring(s), x, order + 1)
    assert in_ring(u.inverse()) == rs_series_inversion(in_ring(u), x, order + 1)
