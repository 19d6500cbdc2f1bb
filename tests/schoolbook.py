"""Schoolbook references for series arithmetic, shared by the series tests.

Each works on a sequence of coefficients (a series' ``coeffs``), returns a
list, and is built from ``Polynomial.__mul__`` and ``Polynomial.sum`` only:
no ``Polynomial.dot`` and no series code.  Nothing here needs hypothesis.
"""

from valleydyck.polynomials import Polynomial


def schoolbook_product(f, g):
    """Coefficients of f * g at the order of f, each a plain sum of plain products."""
    return [Polynomial.sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(len(f))]


def schoolbook_inverse(f):
    """Coefficients of 1 / f from f * g = 1, solved term by term."""
    inv0 = Polynomial.const(1 / f[0].constant_value())
    out = [inv0]
    for k in range(1, len(f)):
        out.append(-inv0 * Polynomial.sum(f[i] * out[k - i] for i in range(1, k + 1)))
    return out
