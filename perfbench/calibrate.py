"""Machine-speed calibration: a fixed kernel timed alongside the workload.

On a shared machine the same work can take nearly twice as long from one
moment to the next.  On a shared 2-vCPU virtual machine (Intel Xeon,
2.1 GHz) this kernel took either about 1.2 or about 2.1 ms, switching every
few hundred milliseconds, separately on each CPU; the same batch of 20
``saddle_grid`` ops took anywhere from 72 to 145 ms.  Run-to-run medians
then reflect the neighbours, not the program.
The benchmark therefore times this kernel right before and right after
each op, on the same CPU, and reports the op's time scaled to a machine on
which the kernel takes ``REF_S``:

    scaled = measured * REF_S / mean(kernel before, kernel after)

The kernel is the benchmark's own code and mixes the package's kinds of
work: a scalar shift-and-series loop in pure Python (as in the scalar
special functions), complex array arithmetic over 4001 nodes (as in the
contour route) and many calls on small arrays (as in the quadrature).
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_S = 2.0e-3

_Z = 1.5 + 1j * np.linspace(-40.0, 40.0, 4001)
_COEFF = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def kernel() -> float:
    """Seconds taken by one fixed unit of mixed work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(400):
        x = 0.05 + 0.0075 * i
        while x < 10.0:
            s += math.log(x)
            x += 1.0
        w = 1.0 / (x * x)
        acc = _COEFF[-1]
        for c in _COEFF[-2::-1]:
            acc = acc * w + c
        s += acc / x
    for shift in (0.0, 1.0):
        z = _Z + shift
        a = (z - 0.5) * np.log(z) - z
        s += float(np.exp(1e-3 * a).real.sum())
    v = np.linspace(1.0, 2.0, 16)
    for _ in range(150):
        v = np.sqrt(v + 1.0)
    s += float(v.sum())
    if not math.isfinite(s):  # consumes the result so no step can be skipped
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0
