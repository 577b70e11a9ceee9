"""Host-speed probes, so host times survive a shared machine's swings.

On a shared 2-vCPU machine the same Python code runs up to 2x slower
for spells of 50 ms to several minutes, and the slowdown does not show
as CPU steal.  No number of rounds averages out a spell that outlasts
the run.  So the benchmark times a fixed reference loop every
``EVERY_S`` of work and scales each span by ``REFERENCE_S`` over the
mean of the probes just before and just after it: a span that ran while
the machine was 1.5x slow reports the time it would have taken at the
reference speed.

The loop is a miniature of the staged engine's work (predecoded
``(handler, operands)`` dispatch over list registers and dict memory),
so it slows down with the simulator.  It must never change: every
number the benchmark reports is in its units.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

#: Seconds the probe takes at the reference speed (the median on the
#: 2-vCPU Xeon machine the benchmark was calibrated on, Python 3.11).
REFERENCE_S = 1.0e-3
#: Probe again before an op once this much time has passed.
EVERY_S = 0.05
_REPEATS = 3


def _add(r, m, a, b, c):
    r[a] = (r[b] + r[c]) & 0xFFFFFFFF


def _xor(r, m, a, b, c):
    r[a] = r[b] ^ r[c]


def _load(r, m, a, b, c):
    r[a] = m.get((r[b] + c) & 0xFFF, 0)


def _store(r, m, a, b, c):
    m[(r[b] + c) & 0xFFF] = r[a]


def _shl(r, m, a, b, c):
    r[a] = (r[b] << (c & 7)) & 0xFFFFFFFF


_PROGRAM = ((_add, 1, 1, 2), (_xor, 3, 3, 1), (_store, 3, 1, 8),
            (_load, 4, 2, 8), (_shl, 2, 4, 3), (_add, 2, 2, 5),
            (_xor, 5, 5, 2), (_store, 5, 4, 16))


def reference_loop(iterations: int = 1000) -> int:
    regs = [0, 1, 2, 3, 4, 5, 6, 7]
    memory = {}
    for _ in range(iterations):
        for handler, a, b, c in _PROGRAM:
            handler(regs, memory, a, b, c)
    return regs[5]


class SpeedProbe:
    """Samples of the reference loop's time, and span scale factors."""

    def __init__(self):
        #: ``(midpoint, seconds)`` per probe, in time order.
        self.samples: List[Tuple[float, float]] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the simulator's heap is not speed
        try:
            times = []
            start = time.perf_counter()
            for _ in range(_REPEATS):
                t0 = time.perf_counter()
                reference_loop()
                times.append(time.perf_counter() - t0)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((start + end) / 2, statistics.median(times)))

    def maybe_probe(self) -> None:
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0] >= EVERY_S):
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Scale for a span from ``start`` to ``end`` (needs a sample)."""
        times = [t for t, _ in self.samples]
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, end), len(times) - 1)
        seconds = (self.samples[before][1] + self.samples[after][1]) / 2
        return REFERENCE_S / seconds

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(s for _, s in self.samples)
