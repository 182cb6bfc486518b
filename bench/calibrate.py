"""Host seconds at reference speed: a calibration kernel and a segment clock.

The benchmark's box is a shared 2-core VM.  The same code runs 1.5-2x
slower for bursts of a fraction of a second, several times a minute, and
from time to time the whole VM slows by up to 40 % for a minute or two
(bench/README.md has the record).  No statistic of plain wall time survives
that, so host time is measured next to a yardstick: :func:`tick` times a
fixed kernel made of what the program's hot paths are made of — bytecode
dispatch, dict stores, tuple allocation, small NumPy calls — and a
:class:`SegmentClock` divides each segment's wall seconds by how much slower
than the reference the ticks on either side of it ran.

The reference is only a scale: it fixes the unit ("host seconds at
reference speed") and cancels in every comparison of two runs on one
machine.  The un-normalised ``host_ops_per_s_wall`` is always printed beside
the normalised figures.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["TICK_REFERENCE_S", "tick", "ticks", "slowdown", "SegmentClock"]

#: Seconds one tick takes on the reference 2-core box when it is quiet.
TICK_REFERENCE_S = 0.0019

_ITERATIONS = 7_000
_SORTED = np.arange(512, dtype=np.uint64)


def tick() -> float:
    """Seconds the fixed kernel takes right now (about 2 ms)."""
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        table[i & 1023] = (i, acc)
        acc += i * 3 % 7
        if not i & 15:
            np.searchsorted(_SORTED, _SORTED[i & 511])
    return time.perf_counter() - t0


def ticks(n: int) -> float:
    """Mean of ``n`` ticks with the fastest and slowest dropped (n >= 3):
    a steadier reading for the boundaries of long segments."""
    if n < 3:
        return sum(tick() for _ in range(n)) / n
    runs = sorted(tick() for _ in range(n))
    return sum(runs[1:-1]) / (n - 2)


def slowdown(*tick_s: float) -> float:
    """How much slower than the reference the machine ran, from tick
    timings taken around the interval (1.0 = reference, 1.4 = 40 % slower)."""
    return sum(tick_s) / len(tick_s) / TICK_REFERENCE_S


class SegmentClock:
    """Times the consecutive segments of a timed region at reference speed.

    ``start()`` right before the region, ``mark()`` at every segment
    boundary.  Each mark stops the clock, runs the calibration kernel, and
    restarts it, so the kernel's own time is in no segment; it is summed in
    ``overhead_ns`` for whoever reports the region's plain wall time.
    """

    def __init__(self, n_ticks: int = 1) -> None:
        self.n_ticks = n_ticks
        self.seconds: list[float] = []      # per segment, at reference speed
        self.overhead_ns = 0
        self._tick_s = 0.0
        self._t_ns = 0

    def start(self) -> int:
        """Start the first segment; returns the nanoseconds the opening
        ticks took (not counted in :attr:`overhead_ns`: a caller whose
        region begins after this call has nothing to subtract)."""
        t_begin = time.perf_counter_ns()
        self._tick_s = ticks(self.n_ticks)
        self._t_ns = time.perf_counter_ns()
        return self._t_ns - t_begin

    def mark(self) -> float:
        """Close the running segment; returns its seconds at reference
        speed (also appended to :attr:`seconds`)."""
        t_stop = time.perf_counter_ns()
        tick_s = ticks(self.n_ticks)
        seconds = ((t_stop - self._t_ns) / 1e9
                   / slowdown(self._tick_s, tick_s))
        self.seconds.append(seconds)
        self._tick_s = tick_s
        self._t_ns = time.perf_counter_ns()
        self.overhead_ns += self._t_ns - t_stop
        return seconds
