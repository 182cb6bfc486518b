"""Benchmark harness: specs, a runner, and the golden file.

Every number recorded here is a value of the modelled machine — simulated
seconds, event and byte counts, ratios of them — so it is a deterministic
function of the seed and repeats bit for bit on every machine and under
any ``CONCORD_STORAGE``/``CONCORD_CHUNKING``.  A
number like that needs no tolerance, direction or history file; it needs
one committed snapshot compared by equality:

* :class:`BenchSpec` — one benchmark: a name, fixed params, and a
  ``fn(ctx)`` that records named values through its :class:`BenchContext`.
* :class:`BenchRunner` — a registry of specs; running them yields
  ``{spec: {metric: value}}``.
* **The golden file** — ``baselines/ci.json`` holds that same map.
  :func:`compare` returns a row for every ``(spec, metric)`` whose value
  differs in either direction or that exists on one side only; an
  intentional behaviour change re-records the file in the same commit, so
  its ``git log -p`` is the history of every number.

Host time is not a metric here: it does not repeat, so it is measured
only by the repo benchmark (``bench/``, ``BENCHMARK.json``), which owns
the statistics that takes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable

__all__ = [
    "BaselineError",
    "BenchContext",
    "BenchSpec",
    "BenchRunner",
    "MetricDiff",
    "compare",
    "load_baseline",
    "write_baseline",
]

Results = dict[str, dict[str, float]]


class BaselineError(ValueError):
    """A golden file is missing, not JSON, or not ``{spec: {metric: value}}``."""


class BenchContext:
    """Handed to a spec's ``fn``: parameters in, metrics out."""

    def __init__(self, params: dict) -> None:
        self.params = dict(params)
        self.metrics: dict[str, float] = {}

    def record(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: ``fn(ctx)`` records metrics on the
    :class:`BenchContext` it is handed."""

    name: str
    fn: Callable[[BenchContext], None]
    params: dict = field(default_factory=dict)
    doc: str = ""


class BenchRunner:
    """Registry of :class:`BenchSpec` values and the loop that runs them."""

    def __init__(self) -> None:
        self.specs: dict[str, BenchSpec] = {}

    def register(self, spec: BenchSpec) -> BenchSpec:
        if spec.name in self.specs:
            raise ValueError(f"benchmark {spec.name!r} already registered")
        self.specs[spec.name] = spec
        return spec

    def names(self) -> list[str]:
        return sorted(self.specs)

    def run(self, names: Iterable[str] | None = None,
            progress: Callable[[str, dict[str, float]], None] | None = None
            ) -> Results:
        """Run the named specs (default: all) once each."""
        results: Results = {}
        for name in self.names() if names is None else names:
            spec = self.specs.get(name)
            if spec is None:
                raise KeyError(f"unknown benchmark {name!r}; "
                               f"choose from {self.names()}")
            ctx = BenchContext(spec.params)
            spec.fn(ctx)
            results[name] = ctx.metrics
            if progress is not None:
                progress(name, ctx.metrics)
        return results


# -- the golden file --------------------------------------------------------------


def load_baseline(path: str | Path) -> Results:
    """Read a golden file; :class:`BaselineError` says what is wrong with
    a missing, non-JSON or wrong-shape one.  ``NaN`` and ``Infinity``
    (which :mod:`json` parses) are wrong-shape: NaN never equals itself,
    so such an entry could never compare clean."""
    p = Path(path)
    if not p.exists():
        raise BaselineError(f"baseline {p} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise BaselineError(f"baseline {p} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or not all(
            isinstance(metrics, dict) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in metrics.values())
            for metrics in doc.values()):
        raise BaselineError(
            f"baseline {p} is malformed: expected {{spec: {{metric: "
            "finite number}} — regenerate it with 'repro bench "
            "--write-baseline'")
    return doc


def write_baseline(path: str | Path, results: Results) -> Path:
    """Write ``results`` as the golden file: sorted keys, and floats by
    ``repr`` (what :mod:`json` emits), so a reload compares equal.  A
    non-finite value raises ``ValueError`` instead of writing a token
    that is not JSON."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(results, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")
    return p


@dataclass(frozen=True)
class MetricDiff:
    """One ``(spec, metric)`` on which a run and the golden file disagree;
    ``None`` is the side that does not hold it."""

    spec: str
    metric: str
    golden: float | None
    current: float | None

    def __str__(self) -> str:
        name = f"{self.spec}.{self.metric}"
        if self.golden is None:
            return f"NEW {name}: {self.current!r} has no golden entry"
        if self.current is None:
            return (f"DROPPED {name}: golden {self.golden!r}, not recorded "
                    "by this run")
        return f"DIFF {name}: golden {self.golden!r} -> {self.current!r}"


def compare(results: Results, golden: Results) -> list[MetricDiff]:
    """Every ``(spec, metric)`` that is not equal on both sides, sorted.

    Exact and symmetric: a value one ulp better is a behaviour change
    too, and a spec or metric only the run or only the file holds is a
    row.  A caller that ran part of the suite passes the matching part
    of the golden file.
    """
    diffs = []
    for spec in sorted(results.keys() | golden.keys()):
        cur, gold = results.get(spec, {}), golden.get(spec, {})
        for metric in sorted(cur.keys() | gold.keys()):
            if cur.get(metric) != gold.get(metric):
                diffs.append(MetricDiff(spec, metric, gold.get(metric),
                                        cur.get(metric)))
    return diffs
