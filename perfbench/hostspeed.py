"""Host speed sampled between operations, to take the shared host out of timings.

On a shared machine the speed of one core changes by 20% and more over tens
of seconds while the process keeps its CPU: a fixed numpy loop timed in
30 s windows spreads by a fifth between its quartiles, in 60 s windows by
a sixth.  No run length averages that away, and it is larger than a change
worth measuring.

The benchmark therefore runs a fixed reference kernel (SVD and eigh of small
complex matrices and a short Python loop; no kyfan code) in short bursts
between operations, and scales every latency by the burst times measured
around it:

    adjusted = raw * NOMINAL_S / (median burst time near the operation)

An adjusted time reads as it would on a host where one burst takes
NOMINAL_S, about the speed of the reference machine.  A change to kyfan
moves adjusted and raw times alike; a change of the host's speed moves the
raw times only.  The run's raw figures and host speed go to its info line.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
# bound here, before the tracer wraps numpy.linalg, so bursts are never traced
from numpy.linalg import eigh as _eigh
from numpy.linalg import svd as _svd

# a burst takes about this long on the reference machine
NOMINAL_S = 1.0e-3
BURST_REPS = 16
LOOP = 200
# a burst after every operation once this much operation time has passed
EVERY_S = 0.1
# bursts on each side of an operation that set its factor
NEAREST = 4

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _A @ _A.conj().T


def burst():
    """The reference kernel: fixed work in numpy, LAPACK and the interpreter."""
    s = 0.0
    for _ in range(BURST_REPS):
        _svd(_A)
        _eigh(_H)
        for i in range(LOOP):
            s += i * 0.5
    return s


class HostMeter:
    """Reference bursts on the run's clock, and the factors they give."""

    def __init__(self):
        self.times = []    # perf_counter at the middle of each burst
        self.bursts = []   # seconds each burst took
        self._since = 0.0

    def sample(self, n=1):
        for _ in range(n):
            t0 = perf_counter()
            burst()
            t1 = perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.bursts.append(t1 - t0)

    def after_op(self, seconds):
        """Burst once at least EVERY_S of operation time has passed since the last."""
        self._since += seconds
        if self._since >= EVERY_S:
            self.sample()
            self._since = 0.0

    def factors(self, mids):
        """NOMINAL_S / median of the NEAREST bursts before and NEAREST after each time."""
        times = np.asarray(self.times)
        bursts = np.asarray(self.bursts)
        idx = np.searchsorted(times, np.asarray(mids, dtype=float))
        return np.array([
            NOMINAL_S / np.median(bursts[max(0, i - NEAREST):i + NEAREST]) for i in idx])

    def speed(self):
        """Median host speed of the run: NOMINAL_S / median burst."""
        return NOMINAL_S / float(np.median(self.bursts))
