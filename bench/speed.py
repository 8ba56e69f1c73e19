"""Host-speed reference used to normalise every timing the benchmark reports.

On the shared 2-vCPU host the benchmark was built on, the same code runs
about 1.5x slower while a co-tenant loads the sibling hardware thread; the
load switches within seconds and drifts over minutes, so passes over the
same jobs took from 1.9 s to 5.2 s and raw run medians moved by up to 50%.
So each timed call is bracketed by a fixed kernel of interpreter-bound
Python and small numpy operations, the same mix as isoflow's hot paths,
and the call's wall time is scaled by ``KERNEL_REF_S`` over the kernel time
measured around it.  The result is seconds at the reference speed: the
wall time the call takes when the kernel runs in ``KERNEL_REF_S``.  Raw wall
times are kept next to the normalised ones in the run's detail file.
"""
from __future__ import annotations

import time

import numpy as np

# kernel time on an uncontended vCPU of the reference host (Intel Xeon,
# 2 vCPU, Python 3.11, numpy 2.4); it fixes the scale, not the ratios
KERNEL_REF_S = 1.75e-3


def _kernel() -> float:
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    a = np.arange(16.0)
    for _ in range(300):
        a = a * 1.0000001 + 0.1
    return acc + float(a[0])


def kernel_s() -> float:
    """Best of two kernel timings, so an interrupt does not count as a
    slow host."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two kernel timings into
    seconds at the reference speed."""
    return KERNEL_REF_S / ((before + after) / 2.0)
