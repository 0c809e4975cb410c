"""A fixed piece of work that times the host, not the package.

This host's speed drifts by up to 2x over seconds to minutes (see the
README), far more than the 25% bounds of the end-to-end metrics.  The
worker therefore runs ``measure()`` before the first timed job and after
every job, and the end-to-end job metrics are each job's wall time over
the mean of the two yardstick times around it: a slow stretch of the host
slows both, and the ratio keeps only the job's own cost.

The work mirrors what the package spends its time on: scalar complex
arithmetic and small containers in pure Python (the Hankel inversion), and
NumPy calls on arrays of a few elements (symbol evaluation and Aberth steps
in the spectral layer).  It imports nothing from the package, so no change
to the package moves it.
"""

from __future__ import annotations

import time

import numpy as np

PYTHON_STEPS = 3000
NUMPY_STEPS = 600
_COEFFS = np.array([3.0, -1.0, 0.4, 0.2], dtype=complex)
_JS = np.arange(-1, 3)
_POINTS = np.array([0.1j, 0.2, 0.3 - 0.1j])


def _python_part() -> float:
    acc = {}
    z = 0.3 + 0.4j
    for i in range(PYTHON_STEPS):
        w = z ** (i % 7) * (1 - 0.5j) / (1 + i % 5)
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0j) + w
        acc[key] += sum(w * k for k in range(4))
        z = 0.3 + 0.4j if abs(z) > 2 else z * 1.0001
    return abs(sum(acc.values()))


def _numpy_part() -> float:
    s = 0.0
    for i in range(NUMPY_STEPS):
        theta = np.asarray(0.001 * i, dtype=float)
        v = np.exp(1j * np.multiply.outer(theta, _JS)) @ _COEFFS
        s += float(np.real(v))
        p = np.polynomial.polynomial.polyval(_POINTS, _COEFFS)
        s += float(np.abs(p).max())
    return s


def measure() -> float:
    """Wall seconds of one fixed piece of work (about 30 ms on 2 vCPUs)."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
