#!/usr/bin/env python3
"""The integer-weight exchange between the (4,3,7,2) and (2,1,7,4) tables.

Both weight tables give every size-n family the total weight
7 * sum D_i D_(n-2-i) of central Delannoy convolutions.  The exchange works
on marked, lettered paths: the ascent of each primitive factor carries a 7
and a string of letters, the inner pyramids carry a fixed pattern, and the
map is a reversal-and-relabeling shuffle between the two.
"""

from valleydyck import TauDecorated, TauFactor, enumerate_tau, render_ascii, tau_apply, tau_value
from valleydyck.bijections import tau_ustep_weights
from valleydyck.oracles import delannoy_convolution

src = TauDecorated(
    "src_4372",
    (TauFactor(8, (3, 1, 2), ("1", "1h", "1", "1", "1h", "1h", "1h")),),
)
print("source (marked at the 8th up step):")
print(render_ascii(src.to_path()))
print("up-step weights:", " ".join(tau_ustep_weights(src.factors[0], src.side)))
print("value:", tau_value(src))

dst = tau_apply(src)
print("\nimage (marked at the 6th up step):")
print(render_ascii(dst.to_path()))
print("up-step weights:", " ".join(tau_ustep_weights(dst.factors[0], dst.side)))
print("value:", tau_value(dst))

assert tau_apply(dst) == src
assert tau_value(src) == tau_value(dst)

print("\nweighted totals agree with the Delannoy convolution:")
for n in range(2, 8):
    total = sum(tau_value(t) for t in enumerate_tau(n, "src_4372"))
    conv = 7 * delannoy_convolution(n, 2)
    marker = "ok" if total == conv else "MISMATCH"
    print(f"  n={n}: {total} == 7*conv {conv}  {marker}")
    assert total == conv
