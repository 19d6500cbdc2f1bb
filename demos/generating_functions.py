#!/usr/bin/env python3
"""Walk through the master generating function and two specializations.

The weight system assigns gamma_k to an axis pyramid of height k, alpha_k to
an inner maximal pyramid, and beta_k to the ascent of a valley-bearing
primitive factor.  The master series

    V = 1 / (1 - gamma - alpha^2 * beta / (1 - alpha))

counts weighted valley-uniform Dyck paths by semilength; this script builds
it symbolically, checks it against brute-force enumeration, and then pins
two concrete geometric weight choices to their closed forms.
"""

from valleydyck import (
    Polynomial,
    enumerate_family,
    is_valley_uniform,
    path_weight,
    registry_get,
    valley_series,
    valley_weight_sum,
)
from valleydyck.oracles import fibonacci_number

ORDER = 6

spec = registry_get("generic", ORDER)
series = valley_series(*spec.to_series())

print("symbolic weighted counts by semilength:")
for n in range(ORDER + 1):
    print(f"  {n}: {series.coefficient(n)}")

print("\nthree independent routes to the same values:")
for n in range(ORDER + 1):
    by_series = series.coefficient(n)
    by_structures = valley_weight_sum(n, spec)
    by_paths = Polynomial.zero()
    for p in enumerate_family("dyck", n):
        if is_valley_uniform(p):
            by_paths = by_paths + path_weight(p, spec)
    assert by_series == by_structures == by_paths
    print(f"  n={n}: {len(str(by_series))} characters of polynomial, all equal")

print("\ngeometric specialization with ratios 1 and 2 (counts (3^(n-1)-1)/2):")
v = valley_series(*registry_get("geom_3x", 10).to_series())
values = [int(v.coefficient(n).constant_value()) for n in range(11)]
closed = [1] + [(3 ** (n - 1) - 1) // 2 for n in range(1, 11)]
print("  series:", values)
print("  closed:", closed)
assert values == closed

print("\nboth ratios 1 (counts even-index Fibonacci numbers):")
v = valley_series(*registry_get("geom_fib", 10).to_series())
values = [int(v.coefficient(n).constant_value()) for n in range(11)]
closed = [1] + [fibonacci_number(2 * (n - 1)) for n in range(1, 11)]
print("  series:", values)
print("  closed:", closed)
assert values == closed

print("\nall checks passed")
