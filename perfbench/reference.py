"""A fixed kernel timed next to every measurement.

The host this benchmark was written on changes speed by up to 2x over tens
of seconds, with the load of other tenants; a median of raw wall times
moved by 15-25% between runs of the same code. The kernel slows down with
the host, so a timing divided by the kernel's time next to it moves with
the program and hardly with the host. The kernel is not part of traywaiter
and mixes what the pipeline spends its time on: a scalar float loop, small
numpy arrays, float repr.
"""

from __future__ import annotations

import math
import time

import numpy

# the kernel's time on the host above; normalized timings are scaled to it
NOMINAL_S = 0.040


def seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(60000):
        x = k * 1e-3
        acc += math.sin(x) * math.cos(x) + (x, acc)[0]
    rows = []
    for k in range(1800):
        c, s = math.cos(k), math.sin(k)
        m = numpy.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rows.append(",".join(repr(float(v)) for v in (m @ m).ravel()))
    "\n".join(rows)
    return time.perf_counter() - t0


