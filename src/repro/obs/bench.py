"""Benchmark harness: specs, runner, trajectory, and the regression gate.

Every perf claim in this repo used to live in a hand-rolled script with
its own JSON shape (``BENCH_hotpaths.json``); nothing compared runs
against each other.  This module is the common substrate for every
number that repeats exactly (the modelled clock and event counts):

* :class:`BenchSpec` — one benchmark: a name, fixed params, and a
  ``fn(ctx)`` function that records named metrics through its
  :class:`BenchContext`.
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
    identical on every machine: any drift is a real behaviour change.
``count``
    Event counts (rows scanned, updates sent).  Deterministic too.

Every recorded metric is gated.  Host time is not a metric here: it does
not repeat, so it is measured only by the repo benchmark (``bench/``,
``BENCHMARK.json``), which owns the statistics that takes.  A record's
``runtime_s`` is a progress-line timing and is never compared.
"""

from __future__ import annotations

import json
import math
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
#: Readers ignore keys and metric kinds they do not know (trajectory
#: records from before 2026-10 carry a ``gated`` flag and ``wall`` metrics).
SCHEMA_VERSION = 1

_KINDS = ("sim", "count")


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
               kind: str = "sim", higher_is_better: bool = False) -> None:
        """Record one metric (see the module doc for the kinds)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; one of {_KINDS}")
        self.metrics[name] = {
            "value": float(value), "unit": unit, "kind": kind,
            "higher_is_better": bool(higher_is_better),
        }

    # Shorthands keep spec bodies readable.
    def sim(self, name: str, value: float, unit: str = "s", **kw) -> None:
        self.record(name, value, unit=unit, kind="sim", **kw)

    def count(self, name: str, value: float, unit: str = "", **kw) -> None:
        self.record(name, value, unit=unit, kind="count", **kw)


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: ``fn(ctx)`` records metrics on the
    :class:`BenchContext` it is handed."""

    name: str
    fn: Callable[[BenchContext], None]
    params: dict = field(default_factory=dict)
    tier: str = "full"          # "quick" | "full"
    doc: str = ""

    def with_params(self, **overrides) -> BenchSpec:
        from dataclasses import replace

        return replace(self, params={**self.params, **overrides})


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
        superset of ``quick``."""
        return [name for name, spec in sorted(self.specs.items())
                if tier is None or spec.tier == tier
                or (tier == "full" and spec.tier == "quick")]

    def run_spec(self, spec: BenchSpec, env_extra: dict | None = None,
                 **param_overrides) -> dict:
        """Run one spec once and return its record."""
        if param_overrides:
            spec = spec.with_params(**param_overrides)
        ctx = BenchContext(spec.params)
        t0 = time.perf_counter()
        spec.fn(ctx)
        runtime_s = time.perf_counter() - t0
        return {
            "schema": SCHEMA_VERSION,
            "name": spec.name,
            "tier": spec.tier,
            "params": dict(spec.params),
            "metrics": ctx.metrics,
            "runtime_s": round(runtime_s, 6),
            "unix_time": round(time.time(), 3),
            "env": environment_fingerprint(env_extra),
        }

    def run(self, names: Iterable[str] | None = None, tier: str | None = None,
            filter_substr: str | None = None,
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
            record = self.run_spec(spec, env_extra=env_extra)
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
    """One metric compared against its baseline value.  ``base`` is NaN
    for a metric the baseline lacks, ``current`` NaN for one the run
    dropped."""

    spec: str
    metric: str
    base: float
    current: float
    delta_pct: float     # signed change toward "worse" (+ = worse)
    regressed: bool


def _worse_pct(base: float, cur: float, higher_is_better: bool) -> float:
    """Signed percent change in the 'worse' direction (+N means N% worse);
    from a zero baseline any move is infinite, signed the same way."""
    delta = base - cur if higher_is_better else cur - base
    if base == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / abs(base) * 100.0


def compare(records: Sequence[dict], baseline: dict[str, dict],
            budget: float) -> list[MetricDiff]:
    """Diff fresh records against a baseline with a fractional budget.

    A metric regresses when it is worse than the baseline by more than
    ``budget`` (e.g. ``0.25`` = 25%), or when the baseline record of a
    spec that ran holds it and the run does not (*dropped*, ``current``
    = NaN) — so a stale baseline cannot compare clean.  Metrics or specs
    absent from the baseline are reported as non-regressions (``base`` =
    NaN); baseline specs that did not run, and the ``wall`` entries old
    trajectory records carry, are ignored.
    """
    diffs: list[MetricDiff] = []
    for rec in records:
        base_rec = baseline.get(rec["name"])
        base_metrics = base_rec["metrics"] if base_rec else {}
        for mname, m in sorted(rec["metrics"].items()):
            bm = base_metrics.get(mname)
            if bm is None:
                diffs.append(MetricDiff(rec["name"], mname, math.nan,
                                        m["value"], 0.0, False))
                continue
            worse = _worse_pct(bm["value"], m["value"],
                               m.get("higher_is_better", False))
            diffs.append(MetricDiff(rec["name"], mname, bm["value"],
                                    m["value"], worse,
                                    worse > budget * 100.0))
        for mname, bm in sorted(base_metrics.items()):
            if mname not in rec["metrics"] and bm.get("kind") in _KINDS:
                diffs.append(MetricDiff(rec["name"], mname, bm["value"],
                                        math.nan, math.nan, True))
    return diffs


def diff_table(diffs: Sequence[MetricDiff], budget: float,
               title: str = "benchmark regression gate") -> Table:
    """Fixed-width diff rendering (reuses :class:`repro.util.stats.Table`).

    ``worse_pct`` is the signed change in the bad direction; ``fail`` is
    a 0/1 flag.  Failures are repeated in the notes so they survive a
    skim.
    """
    t = Table(title, "spec.metric")
    s_base = t.add_series("baseline")
    s_cur = t.add_series("current")
    s_pct = t.add_series("worse_pct")
    s_fail = t.add_series("fail")
    for d in diffs:
        t.x_values.append(f"{d.spec}.{d.metric}")
        s_base.append(d.base)
        s_cur.append(d.current)
        s_pct.append(d.delta_pct)
        s_fail.append(1.0 if d.regressed else 0.0)
    n_new = sum(math.isnan(d.base) for d in diffs)
    n_dropped = sum(math.isnan(d.current) for d in diffs)
    failures = [d for d in diffs if d.regressed]
    t.note(f"budget {budget:.0%}; {len(diffs)} metrics compared, "
           f"{n_new} new, {n_dropped} dropped, "
           f"{len(failures)} regression(s)")
    for d in failures:
        if math.isnan(d.current):
            t.note(f"DROPPED {d.spec}.{d.metric}: baseline {d.base:.6g}, "
                   "not recorded by this run")
        else:
            t.note(f"REGRESSION {d.spec}.{d.metric}: {d.base:.6g} -> "
                   f"{d.current:.6g} ({d.delta_pct:+.1f}% worse, "
                   f"budget {budget:.0%})")
    return t


def gate_selftest(budget: float = 0.25) -> tuple[bool, Table]:
    """Prove the gate trips: inject a synthetic 2x slowdown and compare.

    Runs a tiny spec through the real :class:`BenchRunner`, doubles one
    metric to fabricate the "current" run, and compares against the
    honest record as baseline.  Returns ``(tripped, table)`` — CI asserts
    ``tripped`` so a broken gate cannot pass silently.
    """
    def _fn(ctx: BenchContext) -> None:
        ctx.sim("wall_s", 0.125)
        ctx.count("rows", 1000)

    runner = BenchRunner()
    spec = runner.register(BenchSpec("selftest.synthetic", _fn, tier="quick",
                                     doc="synthetic gate self-test"))
    honest = runner.run_spec(spec)
    slowed = json.loads(json.dumps(honest))  # deep copy
    slowed["metrics"]["wall_s"]["value"] *= 2.0
    baseline = {honest["name"]: honest}
    diffs = compare([slowed], baseline, budget)
    tripped = any(d.regressed for d in diffs)
    t = diff_table(diffs, budget, title="gate self-test: injected 2x "
                                        "slowdown vs honest baseline")
    return tripped, t
