"""Observability: metrics registry + sim-time span tracing.

Every figure in the paper is an *attribution* claim — where time goes per
DHT op, per query phase, per service-command phase.  This package is the
substrate those claims are measured on:

* :class:`MetricsRegistry` — labelled counters/gauges/histograms
  (``net.msgs_dropped{reason=blackhole}``).  Always on: it is the single
  source of truth behind ``NetworkStats`` and ``TracingStats``.
* :class:`SpanTracer` — spans stamped with :class:`~repro.sim.engine.
  SimEngine` time (never wall time), so traces are deterministic and
  replayable.  Off by default; enabled via :class:`ObsConfig`.
* Exporters — JSONL (byte-deterministic), Chrome ``trace_event`` JSON
  (chrome://tracing / Perfetto), and fixed-width text reports reusing
  :class:`repro.util.stats.Table`.

One :class:`Observability` value bundles the registry and tracer and is
threaded by :class:`~repro.core.concord.ConCORD` through the network, the
tracing engine, the monitors, and the command executor; see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sampler import MetricsSampler, SampleSeries, Window
from repro.obs.tracer import Span, SpanTracer, validate_chrome_trace

__all__ = [
    "ObsConfig",
    "Observability",
    "MetricsRegistry",
    "MetricsSampler",
    "SampleSeries",
    "Window",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanTracer",
    "validate_chrome_trace",
    "capture_traces",
    "active_capture",
]


@dataclass(frozen=True)
class ObsConfig:
    """The ``obs`` section of :class:`~repro.core.config.ConCORDConfig`.

    The metrics registry is always on (it backs the stats views); this
    config governs span *tracing*:

    trace:
        Record sim-time spans (command phases, per-node cpu/comm, monitor
        scans, DHT repair).  Off by default — the hot paths then pay one
        attribute check per instrumentation point.
    trace_limit:
        Safety cap on recorded spans; once hit, further spans are counted
        in ``tracer.dropped`` (surfaced as the ``obs.trace.dropped``
        counter) instead of stored.
    """

    trace: bool = False
    trace_limit: int = 1_000_000


class Observability:
    """A metrics registry and span tracer sharing one sim clock."""

    def __init__(self, clock: Callable[[], float] | None = None,
                 config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.clock = clock or (lambda: 0.0)
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(self.clock, enabled=self.config.trace,
                                 limit=self.config.trace_limit)
        # Dropped spans surface as a counter so a truncated trace is
        # visible in the metrics report, not just on the tracer object.
        self.tracer.drop_counter = self.registry.counter("obs.trace.dropped")

    def now(self) -> float:
        return self.clock()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled


# -- capture sessions (harness / CLI trace artifacts) ---------------------------
#
# Experiment runners build their ConCORD instances internally, so the CLI
# cannot hand them an obs config.  A capture session overrides the obs
# config of every ConCORD brought up inside it and collects the resulting
# Observability values, which the CLI then dumps as per-run artifacts.

class TraceCapture:
    """Observability values of every ConCORD built inside the session."""

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        self.runs: list[Observability] = []

    def add(self, obs: Observability) -> None:
        self.runs.append(obs)


_capture_stack: list[TraceCapture] = []


def active_capture() -> TraceCapture | None:
    return _capture_stack[-1] if _capture_stack else None


@contextmanager
def capture_traces(config: ObsConfig | None = None):
    """While active, every new ConCORD traces and registers itself here."""
    cap = TraceCapture(config or ObsConfig(trace=True))
    _capture_stack.append(cap)
    try:
        yield cap
    finally:
        _capture_stack.pop()
