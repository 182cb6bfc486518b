"""Sim-clock metrics sampling: snapshots over simulated time.

The registry (:mod:`repro.obs.registry`) answers "what happened over the
whole run"; scenario triage needs "what happened *when*" — did coverage
dip during the partition, did p95 spike before or after the join, at
which instant did the first cache violation land.  A
:class:`MetricsSampler` is the bridge: armed on the discrete-event
engine, it ticks every ``period_s`` of *simulated* time and appends one
row per tick to a :class:`SampleSeries` — selected counters and gauges
by value, histogram quantiles by name, plus arbitrary caller probes
(``coverage``, ``ring.n_nodes``) evaluated at the tick instant.

Everything is deterministic: ticks are engine events (same seed → same
tick instants → byte-identical JSONL export), columns are stored sorted,
and no wall-clock value ever enters a sample.  The series offers
windowed *rates* for cumulative columns (requests/s between consecutive
ticks) and coarse-window aggregation (min/max/last/mean over ``k``
ticks) for the triage reports in :mod:`repro.lab`.

Threading: :meth:`repro.core.concord.ConCORD.sampler` builds one wired
to the platform registry with the standard serve/engine probes, and
``ConCORD.serve(spec, sample_period_s=...)`` arms it for the duration of
a traffic stream (docs/LAB.md).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["MetricsSampler", "SampleSeries", "Window"]


@dataclass(frozen=True)
class Window:
    """One aggregation window of a column: ``[t0, t1]`` tick span."""

    t0: float
    t1: float
    n: int          # ticks aggregated
    min: float
    max: float
    last: float
    mean: float


class SampleSeries:
    """A deterministic time-series: one row of named values per tick."""

    def __init__(self, columns: Sequence[str] = ()) -> None:
        self.columns: list[str] = sorted(columns)
        self.times: list[float] = []
        self.rows: list[dict[str, float]] = []

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, row: dict[str, float]) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"samples must be appended in time order "
                             f"({t} < {self.times[-1]})")
        for col in row:
            if col not in self.columns:
                raise KeyError(f"unknown column {col!r}; declared columns "
                               f"are {self.columns}")
        self.times.append(float(t))
        self.rows.append({c: float(row[c]) for c in self.columns if c in row})

    def values(self, column: str) -> list[float]:
        """The column's value at every tick (0.0 where never written)."""
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        return [r.get(column, 0.0) for r in self.rows]

    def last(self, column: str) -> float:
        """The column's value at the final tick (0.0 on an empty series)."""
        vals = self.values(column)
        return vals[-1] if vals else 0.0

    def rate(self, column: str) -> list[tuple[float, float, float]]:
        """Windowed rate of a cumulative column: ``(t0, t1, delta/dt)``
        per consecutive tick pair (dt == 0 windows report rate 0)."""
        vals = self.values(column)
        out = []
        for i in range(1, len(vals)):
            dt = self.times[i] - self.times[i - 1]
            dv = vals[i] - vals[i - 1]
            out.append((self.times[i - 1], self.times[i],
                        dv / dt if dt > 0 else 0.0))
        return out

    def windows(self, column: str, every: int) -> list[Window]:
        """Aggregate the column into windows of ``every`` ticks, keeping
        min/max/last/mean per window (the last window may be short)."""
        if every < 1:
            raise ValueError("every must be >= 1")
        vals = self.values(column)
        out = []
        for start in range(0, len(vals), every):
            chunk = vals[start:start + every]
            out.append(Window(
                t0=self.times[start],
                t1=self.times[min(start + every, len(vals)) - 1],
                n=len(chunk), min=min(chunk), max=max(chunk),
                last=chunk[-1], mean=sum(chunk) / len(chunk)))
        return out

    def window_at(self, t: float) -> tuple[float, float]:
        """The tick window ``(t_prev, t_tick)`` containing instant ``t``
        (the span from the preceding tick to the first tick at/after it)."""
        if not self.times:
            raise ValueError("empty series has no windows")
        i = bisect_left(self.times, t)
        if i >= len(self.times):
            i = len(self.times) - 1
        return (self.times[i - 1] if i > 0 else 0.0, self.times[i])

    # -- export -------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One tick per line, keys sorted — byte-deterministic."""
        lines = []
        for t, row in zip(self.times, self.rows):
            rec = {"t": t, **{c: row[c] for c in self.columns if c in row}}
            lines.append(json.dumps(rec, sort_keys=True,
                                    separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> object:
        from pathlib import Path

        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_jsonl())
        return p

    @classmethod
    def from_jsonl(cls, text: str) -> SampleSeries:
        rows = [json.loads(line) for line in text.splitlines() if line]
        cols: set[str] = set()
        for r in rows:
            cols.update(k for k in r if k != "t")
        series = cls(sorted(cols))
        for r in rows:
            t = r.pop("t")
            series.append(t, r)
        return series


class MetricsSampler:
    """Periodically snapshots selected metrics on the sim clock.

    Build, declare what to track, then :meth:`arm` it on the engine::

        sampler = MetricsSampler(engine, registry, period_s=2e-3)
        sampler.track_counter("serve.submitted")
        sampler.track_counter_total("serve.rejected")   # sum across labels
        sampler.track_gauge("ring.n_nodes")
        sampler.track_quantile("serve.p95_interactive", "serve.latency_s",
                               0.95, qos="interactive")
        sampler.track_fn("coverage", lambda: engine_view.coverage)
        sampler.arm(deadline=engine.now + 0.5)

    Ticks re-schedule themselves until the sim clock passes ``deadline``;
    :meth:`stop` disarms early and records one final sample so the series
    always ends with the closing state.  Tracking declarations are
    rejected once armed — columns are fixed for the series' lifetime.
    """

    def __init__(self, engine, registry: MetricsRegistry,
                 period_s: float = 1e-3) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.engine = engine
        self.registry = registry
        self.period_s = period_s
        self._probes: dict[str, Callable[[], float]] = {}
        self._armed = False
        self._started = False
        self._stopped = False
        self._deadline = 0.0
        self.series = SampleSeries()

    # -- tracking declarations ----------------------------------------------------

    def _add(self, column: str, probe: Callable[[], float]) -> None:
        if self._started or self._stopped:
            raise RuntimeError("cannot add columns to an armed sampler")
        if column in self._probes:
            raise ValueError(f"column {column!r} already tracked")
        self._probes[column] = probe

    def track_counter(self, name: str, column: str | None = None,
                      **labels) -> None:
        """Track a counter's cumulative value (rates come from the
        series: :meth:`SampleSeries.rate`)."""
        c = self.registry.counter(name, **labels)
        self._add(column or name, lambda: float(c.value))

    def track_counter_total(self, name: str,
                            column: str | None = None) -> None:
        """Track a counter name summed across every label set."""
        self._add(column or name, lambda: float(self.registry.total(name)))

    def track_gauge(self, name: str, column: str | None = None,
                    **labels) -> None:
        g = self.registry.gauge(name, **labels)
        self._add(column or name, lambda: float(g.value))

    def track_quantile(self, column: str, name: str, q: float,
                       **labels) -> None:
        """Track a histogram quantile (e.g. p95) at each tick."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")

        def probe(self=self, name=name, labels=labels, q=q) -> float:
            m = self.registry.get(name, **labels)
            if m is None or not isinstance(m, Histogram) or not m.count:
                return 0.0
            return m.quantile(q)

        self._add(column, probe)

    def track_fn(self, column: str, fn: Callable[[], float]) -> None:
        """Track an arbitrary probe evaluated at each tick instant."""
        self._add(column, fn)

    # -- the sampling loop --------------------------------------------------------

    def sample_now(self) -> dict[str, float]:
        """Take one sample at the current sim instant (also used for the
        closing sample at :meth:`stop`)."""
        row = {col: float(fn()) for col, fn in self._probes.items()}
        self.series.append(self.engine.now, row)
        return row

    def arm(self, deadline: float) -> None:
        """Tick every ``period_s`` until the sim clock passes
        ``deadline`` (an immediate t=now sample anchors the series)."""
        if self._started:
            raise RuntimeError("sampler is already armed")
        if self._stopped:
            raise RuntimeError("sampler was stopped; build a new one")
        self._armed = self._started = True
        self._deadline = deadline
        self.series.columns = sorted(self._probes)
        self.sample_now()
        if self.engine.now + self.period_s <= self._deadline + 1e-12:
            self.engine.after(self.period_s, self._tick)
        else:
            self._armed = False

    def _tick(self) -> None:
        if self._stopped:
            return
        self.sample_now()
        if self.engine.now + self.period_s > self._deadline + 1e-12:
            self._armed = False
            return
        self.engine.after(self.period_s, self._tick)

    def stop(self) -> SampleSeries:
        """Disarm and record one closing sample; returns the series."""
        if not self._stopped:
            self._stopped = True
            self._armed = False
            if not self.series.columns:
                self.series.columns = sorted(self._probes)
            if (not self.series.times
                    or self.engine.now > self.series.times[-1]):
                self.sample_now()
        return self.series
