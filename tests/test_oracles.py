from fractions import Fraction

import pytest

from valleydyck.errors import BadParams
from valleydyck.oracles import (
    ORACLES,
    catalan_number,
    chebyshev_u_at,
    delannoy_hstep_count,
    delannoy_number,
    fibonacci_number,
    formula_vn,
    fuss_catalan_number,
    motzkin_polynomial,
    narayana_polynomial,
    oracle,
    schroder_large_polynomial,
    schroder_small_polynomial,
)
from valleydyck.params import A, B, T
from valleydyck.paths import enumerate_family
from valleydyck.polynomials import Polynomial
from valleydyck.series import TruncatedSeries, named_series

C = Polynomial.var("c")


def test_catalan_against_brute_force():
    for n in range(7):
        assert catalan_number(n) == len(list(enumerate_family("dyck", n)))


def test_fibonacci_convention():
    assert [fibonacci_number(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_narayana_small():
    assert narayana_polynomial(0) == 1
    assert narayana_polynomial(1) == T
    assert narayana_polynomial(2) == T + T * T
    assert oracle("narayana", 2) == T + T * T


def test_small_schroder_starts_at_one():
    assert schroder_small_polynomial(0) == 1


def test_delannoy_numbers():
    assert [delannoy_number(n) for n in range(5)] == [1, 3, 13, 63, 321]


def test_chebyshev_recurrence_and_series():
    series = TruncatedSeries.from_coeffs([1, -2 * T, 1], 20).inverse()
    for n in range(21):
        assert chebyshev_u_at(n, T) == series.coefficient(n)
    assert chebyshev_u_at(2, Fraction(3, 2)) == Polynomial.const(8)
    assert chebyshev_u_at(2, B + C) == 4 * (B + C) ** 2 - 1


def enumerate_complete_trees(internal: int, arity: int):
    """All complete arity-ary trees with the given number of internal vertices.

    A tree is either a leaf (None) or a tuple of exactly `arity` subtrees.
    """
    if internal == 0:
        yield None
        return

    def splits(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(total - first, slots - 1):
                yield (first,) + rest

    for sizes in splits(internal - 1, arity):
        children_options = [list(enumerate_complete_trees(s, arity)) for s in sizes]

        def combine(options):
            if not options:
                yield ()
                return
            for head in options[0]:
                for tail in combine(options[1:]):
                    yield (head,) + tail

        for children in combine(children_options):
            yield children


def test_fuss_catalan():
    assert fuss_catalan_number(2, 2) == 3
    assert [fuss_catalan_number(n, 1) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [fuss_catalan_number(n, 2) for n in range(5)] == [1, 1, 3, 12, 55]
    # independent oracle: literally enumerate complete (r+1)-ary trees
    for r in (1, 2, 3):
        for n in range(5):
            count = sum(1 for _ in enumerate_complete_trees(n, r + 1))
            assert count == fuss_catalan_number(n, r), (r, n)


def test_motzkin_values():
    assert motzkin_polynomial(2) == A * A + B
    assert motzkin_polynomial(3) == A ** 3 + 3 * A * B
    ones = motzkin_polynomial(6).substitute({"a": 1, "b": 1})
    assert ones == 51


def test_binomial_sums_match_the_solved_series():
    # two routes: the closed binomial sums here, the equations in series
    order = 30
    for poly, name in (
        (motzkin_polynomial, "motzkin_ab"),
        (schroder_large_polynomial, "schroder_large"),
        (schroder_small_polynomial, "schroder_small"),
    ):
        assert [poly(n) for n in range(order + 1)] == list(named_series(name, order).coeffs)


def test_oracle_dispatch():
    assert oracle("catalan", 3) == 5
    assert oracle("delannoy", 2) == 13
    assert oracle("fuss", 2, r=2) == 3
    assert oracle("narayana", 2, t=1) == 2


def test_formula_geometric_examples():
    assert formula_vn("geom_3x", 0) == 1
    assert formula_vn("geom_3x", 3) == 4
    assert [formula_vn("geom_fib", n).constant_value() for n in range(6)] == [
        1,
        0,
        1,
        3,
        8,
        21,
    ]


def test_abcd_cases():
    # ad = (a-b)c: pure power growth
    assert formula_vn("abcd_power", 4, a=2, b=1, c=2, d=1) == 2 * 3 ** 2
    # ad = (a-b)c + 1: Chebyshev evaluated at the half sum
    assert formula_vn("abcd_chebyshev", 2, a=3, b=2, c=2, d=1) == 2
    assert formula_vn("abcd_chebyshev", 3, a=3, b=2, c=2, d=1) == 2 * 4
    assert formula_vn("abcd_chebyshev", 4, a=3, b=2, c=2, d=1) == formula_vn(
        "chebyshev_closed", 4, a=3, b=2, c=2, d=1
    )
    # rational parameters give rational values
    params = dict(a=Fraction(1, 2), b=0, c=2, d=4)
    for n in range(7):
        closed = formula_vn("chebyshev_closed", n, **params)
        assert formula_vn("abcd_chebyshev", n, **params) == closed
    assert formula_vn("abcd_chebyshev", 3, **params) == Fraction(9, 2)
    # a + d = 3 on top: even-index Fibonacci values
    assert formula_vn("abcd_fibonacci", 3, a=2, b=1, c=1, d=1) == fibonacci_number(4)


def test_delannoy_convolution():
    assert formula_vn("delannoy_convolution", 4, multiplier=7) == 245
    assert formula_vn("delannoy_convolution", 1, multiplier=7) == 0


def test_fuss_collapse_small_value():
    # the two-route value at n=2, r=1 with m = r+1
    assert formula_vn("fuss_asym_collapse", 2, r=1) == 1
    assert formula_vn("fuss_asym", 2, r=1, m=2) == 1


def test_hstep_count():
    assert delannoy_hstep_count(1) == 1
    assert delannoy_hstep_count(2) == 6
    assert delannoy_hstep_count(3) == 35


# parameters that meet every condition, for the names that need some
VALID = {
    "fuss": dict(r=2), "abcd_power": dict(a=2, b=1, c=2, d=1),
    "abcd_chebyshev": dict(a=3, b=2, c=2, d=1), "abcd_fibonacci": dict(a=2, b=1, c=1, d=1),
    "delannoy_convolution": dict(multiplier=7), "fuss_sym": dict(m=2, r=2),
    "fuss_asym": dict(m=3, r=2), "fuss_asym_collapse": dict(r=2), "fuss_cubic": dict(m=1, r=3),
    "fuss_cubic_collapse": dict(r=3),
}


def test_boundary_values_follow_the_first_index():
    for name, (start, _, _) in ORACLES.items():
        params = VALID.get(name, {})
        if start >= 1:
            assert oracle(name, 0, **params) == 1, name
        if start == 2:
            assert oracle(name, 1, **params) == 0, name


def test_conditions_and_unknown_names_raise_at_every_n():
    for n in (0, 1, 4):
        with pytest.raises(BadParams, match="abcd_power needs ad = \\(a-b\\)c"):
            oracle("abcd_power", n, a=2, b=1, c=3, d=1)
        with pytest.raises(BadParams, match="a \\+ d = 3"):
            oracle("abcd_fibonacci", n, a=3, b=2, c=2, d=1)
        with pytest.raises(BadParams, match="parameter r must be an integer >= 1"):
            oracle("fuss_cubic_collapse", n, r=0)
        with pytest.raises(BadParams, match="needs the parameter multiplier"):
            oracle("delannoy_convolution", n)
        with pytest.raises(BadParams, match="geom_3x has no parameter t"):
            oracle("geom_3x", n, t=1)


def test_variables_pin_at_every_n():
    # the pins perfbench's correctness gate passes for each weight table, as strings
    for n in range(6):
        for name, pins in [
            ("motzkin_diff", dict(a=3, b=5)), ("schroder_large_diff", dict(q=2)),
            ("schroder_small_diff", dict(q=2)), ("narayana_diff", dict(t=4)),
            ("narayana_shift_diff", dict(t=0)), ("chebyshev_closed", dict(a=4, b=3, c=7, d=2)),
            ("chebyshev_second", dict(a=1, b=2, c=3)), ("narayana", dict(t=Fraction(1, 2))),
            ("chebyshev_u", dict(t=3)), ("schroder_large", dict(q=1)), ("motzkin_ab", dict(a=1)),
        ]:
            symbolic = oracle(name, n)
            pinned = oracle(name, n, **{k: str(v) for k, v in pins.items()})
            assert pinned == symbolic.substitute(pins), (name, n)
