"""Machine-speed calibration for the end-to-end times.

The shared virtual machines this benchmark runs on change speed by 20% or
more over tens of seconds to minutes, so runs of identical code a minute
apart differ by more than any useful regression bound, however long each
run is.  A fixed kernel timed at regular intervals during the run measures
that speed.  The worker scales each run's wall times by ``REFERENCE_S``
divided by the run's mean kernel time, which gives seconds at a fixed
nominal speed, and records the raw wall-clock figures next to them.

The kernel mixes what the exports spend their time on: a Python loop over
tiny numpy matmuls and shortest round-trip float formatting.  It does not
touch quditgeom, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel time: near its median on the 2-vCPU x86_64 virtual machine
# the benchmark was built on (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.020

_MATRIX = np.arange(12.0).reshape(4, 3) / 7.0
_VECTOR = np.linspace(0.0, 1.0, 4)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    total = 0.0
    cells = []
    for _ in range(3000):
        row = _VECTOR @ _MATRIX
        total += float(row.sum())
        cells.append(repr(total))
    ",".join(cells)
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Nominal seconds per measured second, for a mean kernel time ``kernel_s``."""
    return REFERENCE_S / kernel_s
