"""A fixed reference workload that times the machine rather than the program.

On shared cores the speed of the whole machine drifts by tens of percent
over minutes, which moves every wall-clock timing together.  The benchmark
times ``reference_s`` between iterations and scales each iteration's time
to ``NOMINAL_S``, the reference time of a typical quiet moment of the
2-core box it was tuned on.  The kernel imports nothing from icasc, so a
change to the program cannot move it: a program twice as fast still reads
twice as fast.  Its mix follows the program's profile: interpreter loops
and small allocations, im2col copies with a GEMM, and small ufunc chains.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.035

_rng = np.random.default_rng(0)
_X = _rng.random((8, 8, 34, 34))
_W = _rng.random((16, 72))
# Preallocated, so the kernel adds a constant few MB to every workload's
# resident set instead of a transient peak of its own.
_COLS = np.empty((8, 32, 32, 8, 3, 3))
_OUT = np.empty((8 * 32 * 32, 16))


def reference_s() -> float:
    """Seconds one pass of the reference kernel takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i
    for _ in range(4):
        cells = [[i, float(i)] for i in range(5_000)]
    for _ in range(6):
        win = np.lib.stride_tricks.sliding_window_view(_X, (3, 3), axis=(2, 3))
        np.copyto(_COLS, win.transpose(0, 2, 3, 1, 4, 5))
        np.matmul(_COLS.reshape(-1, 72), _W.T, out=_OUT)
        np.maximum(_OUT, 0.0, out=_OUT)
    plane = _X[0, 0]
    for _ in range(400):
        plane = np.tanh(plane * 0.5 + 0.1)
    del cells
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` as it would read at the nominal reference speed, from the
    reference times taken just before and just after it."""
    return seconds * NOMINAL_S / ((before + after) / 2)
