"""Host-speed calibration for the end-to-end timings.

On a shared machine the same code runs up to a third slower for seconds at
a time while other work shares the processor's core and caches, and CPU
time does not remove that.  So a run also times a fixed kernel of plain
Python work (complex-coefficient polynomial products, `Fraction`
arithmetic, small containers: the kinds of work the package does) between
its operations, in the same CPU clock, and scales each pass's timings by
REFERENCE_S / (the kernel's mean time during that pass).  Timings are then
reported at the host speed at which the kernel takes REFERENCE_S, and a
slower stretch of the host slows the kernel and the operations alike.

The kernel never calls into `twocubes`, so a change to the package cannot
move it.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3   # the kernel's CPU time at the reference host speed
EVERY_S = 0.05         # run the kernel after this much operation CPU time


def kernel():
    rng = random.Random(5)
    p = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(7)]
    acc = 0j
    for _ in range(30):
        q = [0j] * 13
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b
        acc += sum(q) / (1.0 + max(abs(c) for c in q))
        p = [c * 0.5 + 0.1j for c in p]
    f = Fraction(1)
    for k in range(1, 60):
        f = f * Fraction(k + 3, k + 1) + Fraction(1, k)
    d = {}
    for k in range(300):
        d[str(k % 50)] = d.get(str(k % 50), ()) + (k,)
    return acc, f, len(d)


def time_kernel() -> float:
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


class Calibrator:
    """Runs the kernel after every EVERY_S of operation CPU time and turns
    the kernel times of a stretch of the run into a scale factor."""

    def __init__(self):
        self.since = 0.0
        self.samples = []

    def after(self, op_seconds: float):
        """Call after each timed operation, outside its timing."""
        self.since += op_seconds
        if self.since >= EVERY_S:
            self.since = 0.0
            self.samples.append(time_kernel())

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time since the last call, with
        at least one kernel run; starts the next stretch."""
        if not self.samples:
            self.samples.append(time_kernel())
        out = REFERENCE_S / statistics.fmean(self.samples)
        self.samples = []
        return out
