"""Machine-speed reference for timed passes.

The benchmark runs on a shared host whose speed drifts: the same pass takes
anywhere from 0.8x to 1.3x its usual time, in stretches of tens of seconds.
A median over passes cannot remove that, because a whole run can fall into
a slow stretch.  ``Pacer`` measures the machine's speed alongside the pass
instead.  While active, it interrupts the pass every ``PERIOD_S`` of wall
time (SIGALRM; the handler runs between bytecodes in the main thread) and
runs one fixed calibration slice, a conjugate-gradient loop on a small 2D
Laplacian written here with numpy and scipy.sparse and independent of
fstheta.  The slices sample the same slow and fast stretches as the pass.

A pass's time at reference speed is its own time (wall time minus the
slices) times ``REF_SLICE_S`` over the mean slice time of that pass.
``REF_SLICE_S`` is a fixed constant, the median slice time on the 2-core
x86_64 machine of ``baseline.json``, so the reference-speed time reads close
to the wall time there.  A change to fstheta changes the pass's own time and
not the slices, so it moves the reference-speed time in full.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp

PERIOD_S = 0.2
REF_SLICE_S = 0.015
_GRID = 15
_CG_ITERATIONS = 30
_SOLVES_PER_SLICE = 30


def _laplacian(m: int) -> sp.csr_matrix:
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(sp.identity(m), t) + sp.kron(t, sp.identity(m))).tocsr()


_MATRIX = _laplacian(_GRID)
_RHS = np.ones(_GRID * _GRID)


def _cg(matrix, rhs, iterations: int) -> np.ndarray:
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    for _ in range(iterations):
        ap = matrix @ p
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def calibration_slice() -> float:
    """Run one calibration slice; return its wall time."""
    start = time.perf_counter()
    for _ in range(_SOLVES_PER_SLICE):
        _cg(_MATRIX, _RHS, _CG_ITERATIONS)
    return time.perf_counter() - start


class Pacer:
    """Context manager: one calibration slice every ``PERIOD_S`` of pass
    time while active.  ``slices`` holds the slice times of the last use."""

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        self.slices.append(calibration_slice())
        # one-shot timer, re-armed after the slice: slices never run back to
        # back however slow the machine is
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_time(self, wall_s: float) -> float:
        """Time of the pass at reference speed, from its wall time.  A pass
        shorter than the period is referred to one slice run after it."""
        slices = self.slices or [calibration_slice()]
        own = wall_s - sum(self.slices)
        return own * REF_SLICE_S / (sum(slices) / len(slices))
