"""Host-speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose other tenants
slow it down by up to a third for minutes at a time, without showing in the
load average or in steal time: wall time and CPU time move together. A
median over one run cannot average out a slow phase that outlasts the run.

The probe is a fixed kernel of the kind the solver is made of: numpy
operations and tridiagonal solves through scipy on 65-point lines, called
from Python, so that per-call overhead dominates it as it dominates the
workloads. Kernels on larger arrays tracked the workloads' slow phases
less closely.

`Sampler` times the probe every PERIOD_S seconds during a workload call,
through an interval timer. The call's time minus the time spent probing,
divided by the harmonic mean of the probe times (the mean speed over the
call) and multiplied by REFERENCE_PROBE_S, gives the call's seconds at the
reference speed. Probes run only inside calls, so that every probe meets
the caches as a running solve leaves them, however long the call. The
probe calls scipy and numpy directly, never aggmfg, so a change to the
program cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# Probe seconds that define the reference speed: about the probe's time in
# a quiet phase of an Intel Xeon host (2 vCPUs, numpy 2.4, scipy 1.17,
# OpenBLAS 0.3.31, one BLAS thread). Rescaled figures read below raw seconds
# when the host is slowed; they compare with each other across commits.
REFERENCE_PROBE_S = 3.0e-4
PERIOD_S = 0.05

_AB = np.ones((3, 65))
_AB[1] = 4.0
_RHS = np.ones(65)


def probe() -> float:
    """Seconds for one run of the fixed probe kernel."""
    t0 = time.perf_counter()
    for _ in range(100):
        float((_RHS * 2.0 + _RHS)[3])
    for _ in range(6):
        solve_banded((1, 1), _AB, _RHS, check_finite=False)
    return time.perf_counter() - t0


def harmonic_mean(samples) -> float:
    return len(samples) / sum(1.0 / s for s in samples)


def rescale(seconds: float, samples) -> float:
    """`seconds` measured while the probe took `samples`, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / harmonic_mean(samples)


class Sampler:
    """Probes the host's speed around and during one timed block.

    Inside `with Sampler() as s:` a SIGALRM every PERIOD_S runs the probe
    between two bytecodes of the timed code; `s.spent` is the time those
    probes took, to be taken off the block's time, and `s.samples` holds
    every probe time (one probe after the block, if it ended before the
    first). Use it from the main thread only.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(probe())
        return False
