"""The machine-speed reference that every reported time is scaled by.

On a few cores of a shared host, the speed a Python process gets drifts by a
third or more over minutes, and halves for spells of under a second, as
other tenants come and go.  The ratio between two Python computations timed
side by side stays within a few percent through all of it: on the 2-vCPU
AMD EPYC virtual machine of perfbench/baseline.json, two kernels timed
alternately for two and a half minutes varied 27% (quartile spread of 15 s
windows) on their own and 2% as a ratio.  So the benchmark times this fixed
computation, which shares nothing with the program, right before every job
and set-up probe and once after the last, and reports each interval at
nominal speed: the raw time multiplied by ``NOMINAL_S`` over the mean of the
reference times taken just before and just after it.  A reported
millisecond is a millisecond on a machine where ``reference()`` takes
exactly ``NOMINAL_S``.  Raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import time

# about what reference() takes on the machine of perfbench/baseline.json
NOMINAL_S = 0.004


def _kernel() -> int:
    """Sparse bivariate product with big-integer coefficients, like the program's."""
    a = {(i, j): (i + 1) * 10**12 + j for i in range(20) for j in range(20)}
    b = list(a.items())[:80]
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return len(out)


def reference() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference timings to nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
