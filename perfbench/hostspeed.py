"""Host speed sampled during each op, so that op times read at one fixed speed.

The benchmark runs on a shared VM whose single-thread speed switches between
states for seconds to minutes at a time, up to 2x apart. Process CPU time
drifts the same way, and whole runs can fall in a slow state, so no statistic
of the raw op times is steady from run to run. A fixed calibration slice of
Python parsing and float work plus small numpy products, which no change to
the program can alter, is therefore run every ``INTERVAL_S`` seconds of wall
time from a SIGALRM handler, between the program's bytecodes, in the same
thread. The mean slice time inside an op over ``REF_SLICE_S`` is the host's
slowdown during that op. An op's time at reference speed is its wall time,
less the slices it contains, divided by that slowdown.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
#: Slice time at the reference speed: the fast state of the 2-vCPU Xeon VM
#: (Sapphire Rapids, Python 3.11) the baseline was measured on. It only sets
#: the scale of the reported times; it must never change, or baselines drift.
REF_SLICE_S = 0.0008

_M = np.eye(4, dtype=complex)
_V = np.ones(4, dtype=complex)


def calibration_slice() -> float:
    """Seconds for the fixed calibration work, with the collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        fields = f"{i},{i * 7 % 13},{i / 3:.6g}".split(",")
        acc += float(fields[2]) * 1.0001 + int(fields[1])
    for _ in range(60):
        acc += float(np.vdot(_M @ _V, _V).real)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


class Sampler:
    """Runs a calibration slice on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.slices: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        elapsed = calibration_slice()
        self.ends.append(time.perf_counter())
        self.slices.append(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def op_time(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds at reference speed, slowdown) of the op timed from t0 to t1.

        An op too short to contain a slice takes the slowdown of the last
        slice before it ends.
        """
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.slices[lo:hi]
        own = t1 - t0 - sum(inside)
        sample = inside or self.slices[max(hi - 1, 0):hi] or [calibration_slice()]
        slowdown = statistics.fmean(sample) / REF_SLICE_S
        return own / slowdown, slowdown
