"""Speed probes: a fixed computation timed alongside the cases.

The host is shared, and its speed for one process drifts by up to a factor
of two over tens of seconds.  A case's wall time divided by the mean probe
time measured around and during it is steady across runs where the raw wall
time is not; the end-to-end time metrics are reported in these probe units.

The probe mixes the small-matrix kernels redconn spends its time in (lstsq on
a 25x10 system, 5x5 expm and its Frechet derivative, inverse, einsum) with
their Python call overhead.  The kernels are bound here, at import, so a
probe never runs through the tracer's wrappers.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

_lstsq, _inv = np.linalg.lstsq, np.linalg.inv
_expm, _expm_frechet = scipy.linalg.expm, scipy.linalg.expm_frechet

_rng = np.random.default_rng(0)
_R = _rng.standard_normal((25, 10))
_b = _rng.standard_normal(25)
_A = 0.3 * _rng.standard_normal((5, 5))
_E = _rng.standard_normal((5, 5))
_I = np.eye(5)

ITERATIONS = 75          # about 20 ms on a 2.1 GHz Xeon core
BOUNDARY_PROBES = 4      # probes taken between two cases
INTERVAL_S = 0.5         # period of the probes taken inside an in-process case


def speed_probe() -> float:
    """Seconds taken by the fixed probe computation."""
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        _lstsq(_R, _b, rcond=None)
        _expm(_A)
        _expm_frechet(_A, _E)
        _inv(_A + _I)
        np.einsum("ij,jk->ik", _A, _E)
    return time.perf_counter() - t0


class SpeedLog:
    """Probe durations in the order taken, for one pass."""

    def __init__(self):
        self.durations: list[float] = []

    def boundary(self) -> None:
        for _ in range(BOUNDARY_PROBES):
            self.durations.append(speed_probe())

    @contextmanager
    def periodic(self):
        """Probe every INTERVAL_S seconds from a SIGALRM handler, which runs in
        this thread between bytecodes, so the code under test is paused."""
        def handler(signum, frame):
            self.durations.append(speed_probe())

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
