"""Schoolbook references for polynomial and series arithmetic, shared by the tests.

Products are formed by ``public_product`` from the public view of their
operands, and sums by ``Polynomial.sum``: no ``Polynomial.__mul__``, no
``Polynomial.dot`` and no series code.  Each series reference works on a
sequence of coefficients (a series' ``coeffs``) and returns a list, but
``stored_form``, which gives what a series of them must store.  Nothing here
needs hypothesis.
"""

from fractions import Fraction

from valleydyck.polynomials import Polynomial


def public_product(p, r):
    """p * r term by term from the public views: each pair of terms adds its
    exponents and multiplies its coefficients, and the public constructor
    adds up the repeats and applies the inverse rewrite."""
    terms = {}
    for m1, c1 in p.sorted_terms():
        for m2, c2 in r.sorted_terms():
            powers = dict(m1)
            for v, e in m2:
                powers[v] = powers.get(v, 0) + e
            mono = tuple(sorted(powers.items()))
            terms[mono] = terms.get(mono, 0) + Fraction(c1) * c2
    return Polynomial(terms)


def schoolbook_product(f, g):
    """Coefficients of f * g at the order of f, each a plain sum of plain products."""
    return [
        Polynomial.sum(public_product(f[i], g[k - i]) for i in range(k + 1))
        for k in range(len(f))
    ]


def schoolbook_inverse(f):
    """Coefficients of 1 / f from f * g = 1, solved term by term."""
    inv0 = Polynomial.const(1 / f[0].constant_value())
    out = [inv0]
    for k in range(1, len(f)):
        total = Polynomial.sum(public_product(f[i], out[k - i]) for i in range(1, k + 1))
        out.append(public_product(-inv0, total))
    return out


def schoolbook_sum(f, g, sign=1):
    """Coefficients of f + g, or of f - g when ``sign`` is -1."""
    factor = Polynomial.const(sign)
    return [Polynomial.sum((a, public_product(factor, b))) for a, b in zip(f, g)]


def schoolbook_scale(f, factor):
    """Coefficients of f times the polynomial ``factor``."""
    return [public_product(c, factor) for c in f]


def stored_form(f):
    """What a series with coefficients f stores: their values (an int when
    integral) when every one is a constant, else the polynomials."""
    values = [c.constant_value() if c.is_constant else None for c in f]
    if None in values:
        return tuple(f)
    return tuple(v.numerator if v.denominator == 1 else v for v in values)
