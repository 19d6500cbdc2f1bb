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
    decorated_weight,
    decorations,
    forward,
    inverse,
    registry_get,
    render_ascii,
    structure_weight,
)
from valleydyck.polynomials import Polynomial
from valleydyck.verify import DECORATED_EXAMPLES

# the paper's Motzkin example: u^5 d^5, u^3 (ud)^4 d^3, u^2 d^2
source = DECORATED_EXAMPLES["motzkin"].structure
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
assert total == structure_weight(source, registry_get("motzkin_ab", source.semilength))
print("which factors as a^3 b^3 (a^2+b)(a^3+3ab), the structure's table weight")
