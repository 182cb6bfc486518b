"""Benchmark harness: specs, runner, trajectory, and the regression gate.

Every perf claim in this repo used to live in a hand-rolled script with
its own JSON shape (``BENCH_hotpaths.json``); nothing compared runs
against each other.  This module is the common substrate:

* :class:`BenchSpec` — one benchmark: a name, fixed params, an optional
  ``setup``/``teardown`` pair, and a ``run(ctx)`` function that records
  named metrics through its :class:`BenchContext`.
* :class:`BenchRunner` — a registry of specs.  Running a spec yields a
  schema-versioned **record** (metrics + environment fingerprint:
  python/numpy/machine/git sha) ready for the trajectory file.
* **Trajectory** — ``BENCH_trajectory.json`` at the repo root is an
  append-only time series of records; every ``repro bench`` run extends
  it, so the system's performance history is versioned with the code.
* **Baseline + gate** — :func:`load_baseline` reads a committed record
  set and :func:`compare` diffs a fresh run against it per metric with a
  configurable budget, rendering a fixed-width
  :class:`~repro.util.stats.Table` and returning the regressions.
  :func:`gate_selftest` injects a synthetic 2x slowdown and checks the
  gate trips — CI runs it so the gate itself is regression-tested.

Metric kinds
------------

``sim``
    Simulated seconds/values — a deterministic function of the seed, so
    identical on every machine.  Gated by default: any drift is a real
    behaviour change.
``count``
    Event counts (rows scanned, updates sent).  Deterministic; gated.
``wall``
    Host wall-clock measurements (entries/second, ns/op).  They vary
    across machines, so they are recorded in the trajectory but **not**
    gated by default — set ``gated=True`` explicitly to pin one on a
    dedicated machine.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Sequence

from repro.util.stats import Table

__all__ = [
    "SCHEMA_VERSION",
    "BaselineError",
    "BenchContext",
    "BenchSpec",
    "BenchRunner",
    "MetricDiff",
    "compare",
    "diff_table",
    "environment_fingerprint",
    "gate_selftest",
    "load_baseline",
    "load_trajectory",
    "append_records",
    "write_baseline",
]

#: Version of the record/trajectory/baseline schema.  Bump when the
#: record shape changes; loaders reject other versions with a clear error.
SCHEMA_VERSION = 1

_KINDS = ("sim", "count", "wall")


class BaselineError(ValueError):
    """A baseline/trajectory file is missing, malformed, or wrong-schema."""


def environment_fingerprint(extra: dict | None = None) -> dict:
    """Where a record was produced: interpreter, numpy, machine, cpu
    count, git sha — plus the platform knobs that change what a record
    *means* (``workers``, ``storage``, ``placement``: the defaults of
    :class:`~repro.core.config.ConCORDConfig`, env vars included) —
    plus caller-supplied keys overriding any of the above, so
    trajectory points from differently provisioned hosts or differently
    configured systems never get compared as like-for-like."""
    import os

    import numpy as np

    from repro.core.config import ConCORDConfig

    cfg = ConCORDConfig()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    fp = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "git_sha": sha,
        "workers": cfg.workers,
        "storage": cfg.storage.backend,
        "placement": cfg.placement,
    }
    if extra:
        fp.update(extra)
    return fp


class BenchContext:
    """Handed to a spec's ``run``: parameters in, metrics out."""

    def __init__(self, params: dict) -> None:
        self.params = dict(params)
        self.metrics: dict[str, dict] = {}

    def record(self, name: str, value: float, unit: str = "",
               kind: str = "sim", higher_is_better: bool = False,
               gated: bool | None = None) -> None:
        """Record one metric.  ``gated`` defaults by kind: sim/count
        metrics gate, wall metrics are informational (see module doc)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; one of {_KINDS}")
        if gated is None:
            gated = kind != "wall"
        self.metrics[name] = {
            "value": float(value), "unit": unit, "kind": kind,
            "higher_is_better": bool(higher_is_better), "gated": bool(gated),
        }

    # Shorthands keep spec bodies readable.
    def sim(self, name: str, value: float, unit: str = "s", **kw) -> None:
        self.record(name, value, unit=unit, kind="sim", **kw)

    def count(self, name: str, value: float, unit: str = "", **kw) -> None:
        self.record(name, value, unit=unit, kind="count", **kw)

    def wall(self, name: str, value: float, unit: str = "s",
             higher_is_better: bool = False, **kw) -> None:
        self.record(name, value, unit=unit, kind="wall",
                    higher_is_better=higher_is_better, **kw)


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark.

    ``fn(ctx, state)`` records metrics on the :class:`BenchContext`; its
    return value is the run's payload (a Table for figure specs) and is
    not serialized.  ``setup()`` builds state outside the timed region;
    ``teardown(state)`` releases it.  ``repeats`` re-runs ``fn`` and
    keeps the *best* value of each wall metric (max if
    ``higher_is_better``) while sim/count metrics must not vary;
    ``warmup`` runs are discarded entirely.
    """

    name: str
    fn: Callable[[BenchContext, object], object]
    params: dict = field(default_factory=dict)
    setup: Callable[[dict], object] | None = None
    teardown: Callable[[object], None] | None = None
    warmup: int = 0
    repeats: int = 1
    tier: str = "full"          # "quick" | "full" | "figure"
    doc: str = ""

    def with_params(self, **overrides) -> BenchSpec:
        from dataclasses import replace

        return replace(self, params={**self.params, **overrides})


def _merge_repeat(best: dict[str, dict], cur: dict[str, dict],
                  spec_name: str) -> dict[str, dict]:
    """Fold one repeat's metrics into the running best."""
    for name, m in cur.items():
        prev = best.get(name)
        if prev is None:
            best[name] = m
        elif m["kind"] == "wall":
            better = (m["value"] > prev["value"] if m["higher_is_better"]
                      else m["value"] < prev["value"])
            if better:
                best[name] = m
        elif m["value"] != prev["value"]:
            raise RuntimeError(
                f"benchmark {spec_name!r}: {m['kind']} metric {name!r} "
                f"varied across repeats ({prev['value']} != {m['value']}); "
                "deterministic metrics must not depend on the repeat")
    return best


class BenchRunner:
    """Registry of :class:`BenchSpec` values and the machinery to run them."""

    def __init__(self) -> None:
        self.specs: dict[str, BenchSpec] = {}

    def register(self, spec: BenchSpec) -> BenchSpec:
        if spec.name in self.specs:
            raise ValueError(f"benchmark {spec.name!r} already registered")
        self.specs[spec.name] = spec
        return spec

    def names(self, tier: str | None = None) -> list[str]:
        """Spec names, optionally restricted to a tier.  ``full`` is a
        superset of ``quick``; ``figure`` specs only run when asked."""
        out = []
        for name, spec in sorted(self.specs.items()):
            if tier is None:
                out.append(name)
            elif tier == "quick" and spec.tier == "quick":
                out.append(name)
            elif tier == "full" and spec.tier in ("quick", "full"):
                out.append(name)
            elif tier == spec.tier:
                out.append(name)
        return out

    def run_spec(self, spec: BenchSpec, profiler=None,
                 env_extra: dict | None = None,
                 **param_overrides) -> tuple[dict, object]:
        """Run one spec; returns ``(record, payload)``."""
        if param_overrides:
            spec = spec.with_params(**param_overrides)
        state = spec.setup(spec.params) if spec.setup is not None else None
        payload = None
        metrics: dict[str, dict] = {}
        t_best = float("inf")
        try:
            for _ in range(spec.warmup):
                spec.fn(BenchContext(spec.params), state)
            for _ in range(max(1, spec.repeats)):
                ctx = BenchContext(spec.params)
                t0 = time.perf_counter()
                if profiler is not None:
                    profiler.begin_phase(spec.name)
                try:
                    payload = spec.fn(ctx, state)
                finally:
                    if profiler is not None:
                        profiler.end()
                t_best = min(t_best, time.perf_counter() - t0)
                metrics = _merge_repeat(metrics, ctx.metrics, spec.name)
        finally:
            if spec.teardown is not None and state is not None:
                spec.teardown(state)
        record = {
            "schema": SCHEMA_VERSION,
            "name": spec.name,
            "tier": spec.tier,
            "params": dict(spec.params),
            "metrics": metrics,
            "runtime_s": round(t_best, 6),
            "unix_time": round(time.time(), 3),
            "env": environment_fingerprint(env_extra),
        }
        return record, payload

    def run(self, names: Iterable[str] | None = None, tier: str | None = None,
            filter_substr: str | None = None, profiler=None,
            env_extra: dict | None = None,
            progress: Callable[[str, dict], None] | None = None) -> list[dict]:
        """Run a selection of specs and return their records."""
        selected = list(names) if names is not None else self.names(tier)
        if filter_substr:
            selected = [n for n in selected if filter_substr in n]
        records = []
        for name in selected:
            spec = self.specs.get(name)
            if spec is None:
                raise KeyError(f"unknown benchmark {name!r}; "
                               f"choose from {self.names()}")
            record, _payload = self.run_spec(spec, profiler=profiler,
                                             env_extra=env_extra)
            records.append(record)
            if progress is not None:
                progress(name, record)
        return records


# -- trajectory -------------------------------------------------------------------


def _validate_doc(doc: object, path: Path, what: str) -> dict:
    if not isinstance(doc, dict) or "records" not in doc:
        raise BaselineError(
            f"{what} {path} is malformed: expected an object with "
            "'schema' and 'records' keys")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise BaselineError(
            f"{what} {path} uses schema {schema!r}; this build reads "
            f"schema {SCHEMA_VERSION} — regenerate it with "
            "'repro bench --write-baseline'")
    if not isinstance(doc["records"], list):
        raise BaselineError(f"{what} {path} is malformed: 'records' "
                            "must be a list")
    return doc


def _load_doc(path: str | Path, what: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise BaselineError(f"{what} {p} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise BaselineError(f"{what} {p} is not valid JSON: {e}") from e
    return _validate_doc(doc, p, what)


def load_trajectory(path: str | Path) -> dict:
    """Load (or initialize) the append-only trajectory document."""
    p = Path(path)
    if not p.exists():
        return {"schema": SCHEMA_VERSION, "records": []}
    return _load_doc(p, "trajectory")


def append_records(path: str | Path, records: Sequence[dict]) -> dict:
    """Append records to the trajectory file, creating it if needed."""
    doc = load_trajectory(path)
    doc["records"].extend(records)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


# -- baseline + gate -------------------------------------------------------------


def write_baseline(path: str | Path, records: Sequence[dict]) -> Path:
    """Write one record per spec (the last wins) as a committed baseline."""
    latest: dict[str, dict] = {}
    for r in records:
        latest[r["name"]] = r
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(
        {"schema": SCHEMA_VERSION,
         "records": [latest[k] for k in sorted(latest)]},
        indent=2) + "\n")
    return p


def load_baseline(path: str | Path) -> dict[str, dict]:
    """Load a baseline (or trajectory) file as ``{spec name: record}``.

    When several records share a name (a trajectory), the latest wins.
    Raises :class:`BaselineError` with an actionable message on missing,
    malformed, or old-schema files.
    """
    doc = _load_doc(path, "baseline")
    out: dict[str, dict] = {}
    for r in doc["records"]:
        if not isinstance(r, dict) or "name" not in r or "metrics" not in r:
            raise BaselineError(
                f"baseline {path} is malformed: every record needs "
                "'name' and 'metrics'")
        out[r["name"]] = r
    return out


@dataclass(frozen=True)
class MetricDiff:
    """One metric compared against its baseline value."""

    spec: str
    metric: str
    base: float
    current: float
    delta_pct: float     # signed change toward "worse" (+ = worse)
    gated: bool
    regressed: bool


def _worse_pct(base: float, cur: float, higher_is_better: bool) -> float:
    """Signed percent change in the 'worse' direction (+N means N% worse)."""
    if base == 0.0:
        return 0.0 if cur == 0.0 else float("inf")
    pct = (cur - base) / abs(base) * 100.0
    return -pct if higher_is_better else pct


def compare(records: Sequence[dict], baseline: dict[str, dict],
            budget: float) -> list[MetricDiff]:
    """Diff fresh records against a baseline with a fractional budget.

    A gated metric regresses when it is worse than the baseline by more
    than ``budget`` (e.g. ``0.25`` = 25%).  Metrics or specs absent from
    the baseline are reported as non-regressions (``base`` = NaN).
    """
    diffs: list[MetricDiff] = []
    for rec in records:
        base_rec = baseline.get(rec["name"])
        base_metrics = base_rec["metrics"] if base_rec else {}
        for mname, m in sorted(rec["metrics"].items()):
            bm = base_metrics.get(mname)
            if bm is None:
                diffs.append(MetricDiff(rec["name"], mname, float("nan"),
                                        m["value"], 0.0, m["gated"], False))
                continue
            worse = _worse_pct(bm["value"], m["value"],
                               m.get("higher_is_better", False))
            regressed = bool(m["gated"]) and worse > budget * 100.0
            diffs.append(MetricDiff(rec["name"], mname, bm["value"],
                                    m["value"], worse, bool(m["gated"]),
                                    regressed))
    return diffs


def diff_table(diffs: Sequence[MetricDiff], budget: float,
               title: str = "benchmark regression gate") -> Table:
    """Fixed-width diff rendering (reuses :class:`repro.util.stats.Table`).

    ``worse_pct`` is the signed change in the bad direction; ``gated``
    and ``fail`` are 0/1 flags.  Regressions are repeated in the notes so
    they survive a skim.
    """
    t = Table(title, "spec.metric")
    s_base = t.add_series("baseline")
    s_cur = t.add_series("current")
    s_pct = t.add_series("worse_pct")
    s_gated = t.add_series("gated")
    s_fail = t.add_series("fail")
    n_new = 0
    for d in diffs:
        t.x_values.append(f"{d.spec}.{d.metric}")
        s_base.append(d.base)
        s_cur.append(d.current)
        s_pct.append(d.delta_pct)
        s_gated.append(1.0 if d.gated else 0.0)
        s_fail.append(1.0 if d.regressed else 0.0)
        if d.base != d.base:  # NaN — not in baseline
            n_new += 1
    failures = [d for d in diffs if d.regressed]
    t.note(f"budget {budget:.0%}; {len(diffs)} metrics compared, "
           f"{n_new} new, {len(failures)} regression(s)")
    for d in failures:
        t.note(f"REGRESSION {d.spec}.{d.metric}: {d.base:.6g} -> "
               f"{d.current:.6g} ({d.delta_pct:+.1f}% worse, "
               f"budget {budget:.0%})")
    return t


def gate_selftest(budget: float = 0.25) -> tuple[bool, Table]:
    """Prove the gate trips: inject a synthetic 2x slowdown and compare.

    Runs a tiny spec through the real :class:`BenchRunner`, doubles its
    gated metric to fabricate the "current" run, and compares against the
    honest record as baseline.  Returns ``(tripped, table)`` — CI asserts
    ``tripped`` so a broken gate cannot pass silently.
    """
    def _fn(ctx: BenchContext, _state) -> None:
        ctx.sim("wall_s", 0.125)
        ctx.count("rows", 1000)
        ctx.wall("throughput", 1e6, unit="ops/s", higher_is_better=True)

    runner = BenchRunner()
    spec = runner.register(BenchSpec("selftest.synthetic", _fn, tier="quick",
                                     doc="synthetic gate self-test"))
    honest, _ = runner.run_spec(spec)
    slowed = json.loads(json.dumps(honest))  # deep copy
    slowed["metrics"]["wall_s"]["value"] *= 2.0
    baseline = {honest["name"]: honest}
    diffs = compare([slowed], baseline, budget)
    tripped = any(d.regressed for d in diffs)
    t = diff_table(diffs, budget, title="gate self-test: injected 2x "
                                        "slowdown vs honest baseline")
    return tripped, t
