"""Reference kernel that measures how fast the shared machine runs right now.

The benchmark runs on a shared host whose speed drifts by 20-30 % over
minutes and swings within seconds, so no statistic inside one run averages
the drift out.  The kernel below is a fixed mix of the work the workloads
do: small NumPy calls from a Python loop (a step of the closed loop), float
formatting and parsing in pure Python (the CSV layer), and dense matrix
products (the trainer).  It calls nothing in ``mgres``, so a change to the
program never changes it.

While the benchmark times a block of work (an operation or a batch of
set-ups), a timer signal runs one slice of the kernel at its start and one
every ``PERIOD_S`` seconds after, so the kernel samples the machine at the
same moments as the work.  The time of the slices is taken out of the
block's time.  The machine factor of a set of blocks is their slices' mean
time over ``NOMINAL_S``, and their time divided by that factor is in
reference seconds: the seconds the same work takes when the kernel runs at
``NOMINAL_S``.
"""

from __future__ import annotations

import io
import signal
import time
from contextlib import contextmanager

import numpy as np

# Seconds per kernel slice at the reference speed, about the median on the
# reference machine (2-core Intel Xeon VM, Python 3.11.7, NumPy 2.4.6).
NOMINAL_S = 0.02
PERIOD_S = 0.25          # wall seconds between the starts of two slices

_A = np.eye(8, dtype=complex) * 3.0 + 0.1
_W = np.random.default_rng(0).normal(size=(7, 10))
_X = np.random.default_rng(1).normal(size=(4000, 7))


def kernel() -> float:
    """One slice of the reference work; returns a checksum so that nothing
    is skipped."""
    x = np.ones(8, dtype=complex)
    s = 0.0
    for _ in range(250):
        y = np.linalg.solve(_A, x)
        z = np.tanh(_W.T @ np.abs(y[:7]))
        r = np.zeros(4)
        r[[0, 2]] = z[:2]
        s += float(r.sum())
    buf = io.StringIO()
    for i in range(750):
        buf.write(",".join(f"{(i * 7 + j) * 1.2345e-3:.17g}" for j in range(8)) + "\n")
    s += float(np.array([[float(v) for v in line.split(",")]
                         for line in buf.getvalue().splitlines()]).sum())
    for _ in range(10):
        h = np.tanh(_X @ _W)
        s += float((h * h).sum())
    return s


class Block:
    """Timed blocks and the kernel slices that ran inside them."""

    def __init__(self):
        self.wall_s = 0.0
        self.kernel_s = 0.0
        self.slices = 0

    def add(self, other: "Block") -> None:
        self.wall_s += other.wall_s
        self.kernel_s += other.kernel_s
        self.slices += other.slices

    @property
    def work_s(self) -> float:
        """Wall time of the block less its kernel slices."""
        return self.wall_s - self.kernel_s

    @property
    def factor(self) -> float:
        """Mean seconds per slice over ``NOMINAL_S``: above 1 when the
        machine ran slower than the reference."""
        return self.kernel_s / self.slices / NOMINAL_S

    @property
    def ref_s(self) -> float:
        """The blocks' work in reference seconds."""
        return self.work_s / self.factor


class Calibration:
    """Kernel slices run by a timer signal while timed work runs."""

    def __init__(self):
        self.checksum = kernel()     # warm-up, not counted
        self.bad_checksums = 0
        self._block = None

    def _tick(self, signum, frame) -> None:
        block = self._block
        if block is None:            # delivered after the block ended
            return
        t0 = time.perf_counter()
        s = kernel()
        block.kernel_s += time.perf_counter() - t0
        block.slices += 1
        self.bad_checksums += s != self.checksum
        # Re-armed here, one shot at a time, so that slices never nest.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    @contextmanager
    def timed(self):
        """Time the block, with one kernel slice at its start and one every
        ``PERIOD_S`` after; yields the block's ``Block``."""
        block = Block()
        old = signal.signal(signal.SIGALRM, self._tick)
        self._block = block
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 1e-6)
        try:
            yield block
        finally:
            self._block = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            block.wall_s = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, old)
