"""Discrete-event simulation engine.

A minimal, deterministic event-heap scheduler.  Time is a ``float`` in
seconds.  Events scheduled for the same instant fire in scheduling order
(a monotone sequence number breaks ties), so runs are bit-for-bit
reproducible.

The engine carries no domain knowledge; the network model
(:mod:`repro.sim.network`) and the memory update monitors
(:mod:`repro.memory.monitor`) schedule their activity through it.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any

__all__ = ["SimEngine", "Resource"]


class SimEngine:
    """Event-heap scheduler with deterministic tie-breaking."""

    def __init__(self) -> None:
        # (time, seq, fn, args): seq is unique, so the heap orders by the
        # first two fields and never compares fn.
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_run = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        return self._events_run

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.  A time
        before now — or NaN, which compares false both ways — is refused."""
        if not time >= self._now:
            raise ValueError(f"cannot schedule at {time} (now {self._now})")
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    def after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self._now + delay, fn, *args)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the simulated time afterwards.

        Re-entrant calls (run() from inside an event handler) are an
        error: they would drain events scheduled after the current one
        while the handler is still mid-flight.
        """
        if self._running:
            raise RuntimeError("SimEngine.run() called re-entrantly from "
                               "inside an event handler")
        self._running = True
        try:
            return self._run(until, max_events)
        finally:
            self._running = False

    def _run(self, until: float | None, max_events: int | None) -> float:
        heap = self._heap
        if until is None and max_events is None:
            # Run to empty: one pop per event, nothing to peek at first.
            pop = heapq.heappop
            while heap:
                time, _seq, fn, args = pop(heap)
                self._now = time
                fn(*args)
                self._events_run += 1
            return self._now
        fired = 0
        while heap:
            time, _seq, fn, args = heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(heap)
            self._now = time
            fn(*args)
            self._events_run += 1
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def pending(self) -> int:
        """Number of scheduled events."""
        return len(self._heap)


class Resource:
    """A FIFO serial resource (a node's NIC transmit path, a CPU).

    Work submitted at time *t* starts at ``max(t, busy_until)`` and occupies
    the resource for its duration; :meth:`submit` returns the completion
    time.  This models serialization without per-item events.
    """

    __slots__ = ("busy_until", "total_busy")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.total_busy = 0.0

    def submit(self, now: float, duration: float) -> float:
        """Occupy the resource for ``duration`` starting no earlier than now."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(now, self.busy_until)
        self.busy_until = start + duration
        self.total_busy += duration
        return self.busy_until

    def backlog(self, now: float) -> float:
        """Seconds of queued work remaining at ``now``."""
        return max(0.0, self.busy_until - now)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.total_busy = 0.0
