"""Reference kernels: fixed work that uses no ordercomplete code, timed to
probe the machine's speed.

This module imports only `time`, so a child interpreter can time the
interpreter kernel before it imports numpy and the package.
"""

import time


def interpreter_kernel() -> float:
    """Seconds for fixed interpreter arithmetic."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(18000):
        x = i * 1e-3
        acc += (x * x + 1.5) / (x + 2.0)
        table[i & 255] = acc
    return time.perf_counter() - t0


def numpy_kernel() -> float:
    """Seconds for fixed small-array numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(150):
        b = np.sin(a) * a + a * a
        a = 0.5 * b / (1.0 + b)
        int((a > 0.3).sum())
    return time.perf_counter() - t0


def interpreter_median() -> float:
    """Median of 9 interpreter kernel calls."""
    return sorted(interpreter_kernel() for _ in range(9))[4]
