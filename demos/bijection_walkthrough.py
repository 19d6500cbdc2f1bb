#!/usr/bin/env python3
"""Apply the Motzkin bijection to a worked example, picture by picture.

A valley-uniform Dyck path whose weight table is the (a,b)-Motzkin one
decomposes into primitive parts u^k (ud)^r d^k; decorating each part with a
Motzkin path of length k-1 realizes the weights as finite choices, and the
map sends the decorated part to u Q d f^(r-1).  The images of all parts
concatenate to a Motzkin path that never starts with a flat step.
"""

from valleydyck import (
    DecoratedStructure,
    PartDecoration,
    Path,
    Pyramid,
    ValleyBlock,
    ValleyStructure,
    decorated_weight,
    decorations,
    forward,
    inverse,
    render_ascii,
)
from valleydyck.polynomials import Polynomial

source = ValleyStructure((Pyramid(5), ValleyBlock(3, (1, 1, 1, 1)), Pyramid(2)))
print("source path (semilength 14):")
print(render_ascii(source.to_path()))

chosen = (
    PartDecoration(Path("motzkin", "UFD")),
    PartDecoration(Path("motzkin", "UD")),
    PartDecoration(Path("motzkin", "")),
)
obj = DecoratedStructure("phi", source, chosen)
image = forward("phi", obj)
print("\none decorated image (a Motzkin path of length 14):")
print(render_ascii(image))
print("\nits weight:", decorated_weight(obj))

recovered = inverse("phi", image)
assert recovered == obj
print("round trip recovered the decorated source exactly")

total = Polynomial.sum(decorated_weight(c) for c in decorations(source, "phi"))
print("\nsummed over all decorations of this structure:")
print(" ", total)
a, b = Polynomial.var("a"), Polynomial.var("b")
assert total == a**3 * b**3 * (a**2 + b) * (a**3 + 3 * a * b)
print("which factors as a^3 b^3 (a^2+b)(a^3+3ab), the structure's table weight")
