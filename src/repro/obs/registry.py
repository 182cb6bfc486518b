"""Labelled metrics: counters, gauges, and histograms in one registry.

The registry is the single source of truth for the platform's operational
counters — :class:`repro.sim.network.NetworkStats` and
:class:`repro.dht.engine.TracingStats` are thin live views over it rather
than parallel bookkeeping.  Metrics are identified by a name plus a set of
key=value labels (``net.msgs_dropped{reason=blackhole}``); the same name
with different labels is a different time series, and label order never
matters.

Everything here is deterministic: iteration, snapshots, and the JSONL
export are sorted by (name, labels), so two identical runs serialize
byte-identically.

Hot-path discipline: callers that increment per message/update resolve the
metric object once (``c = registry.counter("net.msgs_sent")``) and call
``c.inc()`` after — one attribute add, no dict lookup.  ``reset`` zeroes
metric objects *in place*, so held references (and the stats views built on
them) never go stale.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator, Sequence

from repro.util.stats import Table

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_str(key: LabelsKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotone count (resettable for measurement windows)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict:
        return {"value": self.value}


#: Default histogram bucket upper bounds: simulated seconds, 1 us .. 100 s.
DEFAULT_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: Observations kept verbatim for exact quantiles; past this cap the
#: quantile accessors fall back to bucket interpolation.
QUANTILE_SAMPLE_CAP = 4096


class Histogram:
    """Distribution summary: count/sum/min/max, buckets, and quantiles.

    Buckets are cumulative-style upper bounds (the last bucket is
    overflow).  The first :data:`QUANTILE_SAMPLE_CAP` observations are
    also kept verbatim, so :meth:`quantile` is *exact* (NumPy
    linear-interpolation semantics) for every histogram that stays under
    the cap — which all of ours do — and degrades to a bucket-edge
    interpolation estimate beyond it.
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max",
                 "samples")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self.samples) < QUANTILE_SAMPLE_CAP:
            self.samples.append(v)
        # bisect_left(bounds, v) is the first i with bounds[i] >= v — the
        # bucket the old linear `v <= bound` scan picked — and returns
        # len(bounds) (the overflow bucket) past the last bound.  NaN
        # compares False against every bound, so it overflows explicitly.
        idx = len(self.bounds) if v != v else bisect_left(self.bounds, v)
        self.bucket_counts[idx] += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """``observe(v)`` for each of ``values`` in order, as one call: the
        same count, buckets, samples and min/max, and ``total`` summed in
        the same order, so bit-identical (never ``sum``, which compensates
        on 3.12+)."""
        vs = list(map(float, values))
        if not vs:
            return
        self.count += len(vs)
        lo, hi, total = self.min, self.max, self.total
        bounds, counts = self.bounds, self.bucket_counts
        overflow = len(bounds)
        for v in vs:
            total += v
            if v < lo:
                lo = v
            if v > hi:
                hi = v
            counts[overflow if v != v else bisect_left(bounds, v)] += 1
        self.min, self.max, self.total = lo, hi, total
        room = QUANTILE_SAMPLE_CAP - len(self.samples)
        if room > 0:
            self.samples.extend(vs[:room])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (``q`` in [0, 1]) of the observed distribution.

        Exact (matching ``numpy.percentile``'s default linear
        interpolation) while the observation count is within
        :data:`QUANTILE_SAMPLE_CAP`; a bucket-interpolated estimate
        clamped to ``[min, max]`` beyond it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if self.count <= len(self.samples):
            s = sorted(self.samples)
            pos = q * (len(s) - 1)
            lo = int(pos)
            frac = pos - lo
            if frac == 0.0 or lo + 1 >= len(s):
                return s[lo]
            return s[lo] + frac * (s[lo + 1] - s[lo])
        # Bucket estimate: find the bucket holding rank q*count and
        # interpolate linearly between its bounds.
        target = q * self.count
        cum = 0
        prev_bound = self.min
        for i, n in enumerate(self.bucket_counts):
            upper = (self.bounds[i] if i < len(self.bounds) else self.max)
            if n and cum + n >= target:
                frac = (target - cum) / n
                est = prev_bound + frac * (upper - prev_bound)
                return min(max(est, self.min), self.max)
            cum += n
            if n:
                prev_bound = upper
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples.clear()

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": list(self.bucket_counts),
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    A name is bound to one metric kind; asking for the same name with a
    different kind is a programming error and raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelsKey], Metric] = {}
        self._kinds: dict[str, str] = {}

    # -- get-or-create -----------------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kw) -> Metric:
        key = (name, _labels_key(labels))
        m = self._metrics.get(key)
        if m is None:
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise TypeError(
                    f"metric {name!r} is a {kind}, not a {cls.kind}")
            m = cls(**kw)
            self._metrics[key] = m
            self._kinds[name] = cls.kind
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r}{_labels_str(key[1])} is a {m.kind}, "
                f"not a {cls.kind}")
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    # -- reading -----------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Value of a counter/gauge (0 if never created)."""
        m = self._metrics.get((name, _labels_key(labels)))
        if m is None:
            return 0
        if isinstance(m, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use get()")
        return m.value

    def total(self, name: str) -> float:
        """Sum a counter/gauge name across every label set."""
        return sum(m.value for (n, _k), m in self._metrics.items()
                   if n == name and not isinstance(m, Histogram))

    def get(self, name: str, **labels) -> Metric | None:
        return self._metrics.get((name, _labels_key(labels)))

    def collect(self) -> Iterator[tuple[str, LabelsKey, Metric]]:
        """Every metric, sorted by (name, labels) — deterministic."""
        for (name, key) in sorted(self._metrics):
            yield name, key, self._metrics[(name, key)]

    def __len__(self) -> int:
        return len(self._metrics)

    # -- lifecycle ---------------------------------------------------------------

    def reset(self, prefix: str = "") -> None:
        """Zero matching metrics *in place* (references stay live)."""
        for (name, _key), m in self._metrics.items():
            if name.startswith(prefix):
                m.reset()

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """``{"name{k=v}": {kind, ...values}}`` — JSON-ready, sorted."""
        out: dict[str, dict] = {}
        for name, key, m in self.collect():
            out[name + _labels_str(key)] = {"kind": m.kind, **m.snapshot()}
        return out

    def to_jsonl(self) -> str:
        """One metric per line, sorted; byte-deterministic."""
        lines = []
        for name, key, m in self.collect():
            rec = {"name": name, "labels": dict(key), "kind": m.kind}
            rec.update(m.snapshot())
            lines.append(json.dumps(rec, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def report(self, title: str = "metrics", prefix: str = "") -> Table:
        """Fixed-width text report (reuses :class:`repro.util.stats.Table`).

        One row per metric; ``value`` is the counter/gauge value or the
        histogram total, ``n`` the histogram observation count (0 for
        scalar metrics), and ``p50``/``p95``/``p99`` the histogram
        quantiles (0 for scalar metrics).  ``prefix`` restricts the
        report to matching names; a registry with nothing to show (empty,
        or nothing under the prefix) renders a clean table with a
        "no metrics" note rather than erroring.
        """
        t = Table(title, "metric")
        s_val = t.add_series("value")
        s_n = t.add_series("n")
        s_p50 = t.add_series("p50")
        s_p95 = t.add_series("p95")
        s_p99 = t.add_series("p99")
        for name, key, m in self.collect():
            if prefix and not name.startswith(prefix):
                continue
            t.x_values.append(name + _labels_str(key))
            if isinstance(m, Histogram):
                s_val.append(m.total)
                s_n.append(m.count)
                s_p50.append(m.p50)
                s_p95.append(m.p95)
                s_p99.append(m.p99)
            else:
                s_val.append(m.value)
                s_n.append(0)
                s_p50.append(0.0)
                s_p95.append(0.0)
                s_p99.append(0.0)
        if not t.x_values:
            t.note("no metrics" + (f" under prefix {prefix!r}" if prefix
                                   else " recorded"))
        return t
