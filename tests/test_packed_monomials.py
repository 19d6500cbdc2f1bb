"""The packed monomial storage: exponent guard, per-process fields, pickles.

Fields are assigned in the order a process first sees each variable, so the
order-dependence tests run the kernel in fresh subprocesses.  Those import
``valleydyck.polynomials`` alone, under a bare package: ``valleydyck.params``,
which the other modules import, makes ``a``, ``b``, ``q`` and ``t`` first.
"""

import pickle
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from valleydyck import polynomials
from valleydyck.params import A, B
from valleydyck.polynomials import MAX_EXPONENT, Polynomial

SRC = str(FilePath(polynomials.__file__).parent)

PRELUDE = f"""
import sys, types
package = types.ModuleType("valleydyck")
package.__path__ = [{SRC!r}]
sys.modules["valleydyck"] = package
from valleydyck import polynomials
from valleydyck.polynomials import MAX_EXPONENT, Polynomial
for name in sys.argv[1].split(","):
    Polynomial.var(name)
assert polynomials._NAMES == sys.argv[1].split(","), polynomials._NAMES
"""

EXPRESSION = """
import json
V = Polynomial.var
p = (
    (V("t") + 1) * V("t1_inv") * V("alpha10") ** 2
    + V("a") ** 3 * V("a_inv") * V("alpha2")
    - (V("alpha2") + V("alpha10") * V("t1_inv")) ** 3 * V("a_inv")
    + 7 * V("t") * V("t1_inv") * V("a") ** 2
    # three fields near the cap: a total degree above 2**16
    + V("a") ** MAX_EXPONENT * V("b") ** MAX_EXPONENT * V("alpha10") ** (MAX_EXPONENT - 1)
)
q = p * (V("alpha10") - V("a_inv")) + (V("t") * V("alpha2")).exact_div(V("alpha2"))
for poly in (p, q, q.substitute({"t": 2}), q.substitute({"alpha2": V("a") + 1})):
    print(poly)
    print(json.dumps(poly.to_json()))
    print(poly.sorted_terms())
    print(poly.variables())
"""

IN_ORDER = "a,a_inv,alpha2,alpha10,b,t,t1_inv"
OUT_OF_ORDER = "t1_inv,alpha10,b,a_inv,t,alpha2,a"


def _kernel(script: str, order: str, stdin: bytes = b"") -> bytes:
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + script, order], input=stdin, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_guard_refuses_exponent_overflow():
    top = Polynomial.monomial(1, {"a": MAX_EXPONENT, "b": 1})
    assert top.sorted_terms() == [((("a", MAX_EXPONENT), ("b", 1)), 1)]
    with pytest.raises(OverflowError, match="exponent of a would exceed"):
        top * A  # one term times one term
    with pytest.raises(OverflowError, match="exponent of a would exceed"):
        (top + B) * (A + 1)  # the term-pair loop
    with pytest.raises(OverflowError, match="exponent of a would exceed"):
        A ** (MAX_EXPONENT + 1)
    with pytest.raises(OverflowError, match=f"exponent {MAX_EXPONENT + 1} of a exceeds"):
        Polynomial.monomial(1, {"a": MAX_EXPONENT + 1})
    with pytest.raises(OverflowError, match="exponent of a would exceed"):
        Polynomial({(("a", MAX_EXPONENT), ("a", 1)): 1})
    # right below the limit nothing spills into the neighbouring field
    assert (A ** (MAX_EXPONENT - 1) * A * B).sorted_terms() == top.sorted_terms()
    assert (top * B).sorted_terms() == [((("a", MAX_EXPONENT), ("b", 2)), 1)]


def test_one_term_powers_past_the_cap_raise_as_products_do():
    for power, name in (
        (lambda: A ** (MAX_EXPONENT + 1), "a"),
        (lambda: (A**20000) ** 2, "a"),
        (lambda: (-3 * A * B**20000) ** 2, "b"),
    ):
        with pytest.raises(OverflowError) as raised:
            power()
        assert str(raised.value) == f"exponent of {name} would exceed {MAX_EXPONENT}"
    assert (A * B**16383) ** 2 == Polynomial.monomial(1, {"a": 2, "b": 32766})


def test_output_does_not_depend_on_first_sight_order():
    in_order = _kernel(EXPRESSION, IN_ORDER)
    assert in_order.count(b"\n") == 16 and b"alpha2" in in_order
    assert _kernel(EXPRESSION, OUT_OF_ORDER) == in_order


def test_pickle_crosses_processes_with_other_field_orders():
    v = Polynomial.var
    polys = [
        (v("t") + 1) * v("alpha10") ** 3 - v("a_inv") * v("alpha2") + 1,
        v("t1_inv") * v("alpha2") ** 2 * v("a") + 5,
        Polynomial.zero(),
    ]
    # this process saw a, b, q and t first, when valleydyck.params was imported
    assert polynomials._NAMES[:4] != IN_ORDER.split(",")[:4]
    script = """
import pickle
V = Polynomial.var
loaded = pickle.loads(sys.stdin.buffer.read())
expected = [
    (V("t") + 1) * V("alpha10") ** 3 - V("a_inv") * V("alpha2") + 1,
    V("t1_inv") * V("alpha2") ** 2 * V("a") + 5,
    Polynomial.zero(),
]
for got, want in zip(loaded, expected):
    assert got == want and hash(got) == hash(want) and str(got) == str(want), (got, want)
    assert got * V("t") == want * V("t")
print(len(loaded))
"""
    data = pickle.dumps(polys)
    for order in (IN_ORDER, OUT_OF_ORDER):
        assert _kernel(script, order, data) == b"3\n"
