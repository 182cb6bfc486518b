"""Run one lab cell: build, stress, sample, repair, judge.

A cell run composes every subsystem the matrix crosses:

1.  Build a cluster + workload from the cell axes (storage backend,
    placement policy, workload family) with the cell's *derived* seed.
2.  ``initial_scan`` to a fully tracked DHT, then arm the cell's fault
    schedule (kills / partition / zonal outage at fixed fractions of
    the traffic duration), mid-stream update bursts, and — for
    ``scale=autoscale`` cells — a forced live join.
3.  Serve the traffic stream with the epoch cache in *verify* shadow
    mode and a :class:`~repro.obs.sampler.MetricsSampler` ticking, so
    the run leaves a time-series, not just totals.
4.  Post-run: detect failures, repair to full coverage — the state the
    ``@final`` SLOs are judged against.
5.  For comparable cells (no faults, static scale) rerun the identical
    stream with the cache disabled and require the answer stream to be
    byte-identical (``answers.match_reference == 1``): the serve
    optimizations must never change an answer.

``inject_violation=True`` poisons cached answers mid-stream — a seeded
correctness bug the verify layer must catch, turning the
``serve.cache.violations == 0`` SLO red with the offending tick window
in the triage report.  It exists so the lab's failure path is itself
testable (docs/LAB.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.lab.grid import LabCell
from repro.lab.slo import SLO, SLOResult
from repro.obs.sampler import SampleSeries

__all__ = ["CellResult", "default_slos", "run_cell", "run_cells"]

#: Fractions of the traffic duration at which fault events fire.
_T_FAIL, _T_HEAL = 0.3, 0.65

#: zipf_s of the "zipf" workload's traffic (vs the 1.2 default).
_ZIPF_HOT = 2.5


@dataclass
class CellResult:
    """Everything the report needs about one executed cell."""

    cell: LabCell
    slos: list[SLOResult] = field(default_factory=list)
    final: dict[str, float] = field(default_factory=dict)
    series: SampleSeries = field(default_factory=SampleSeries)
    trace: dict | None = None
    #: (node, inserts, removes) per shard the post-run repair touched —
    #: names the divergent node(s) in the triage report.
    repair_nodes: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.slos)

    @property
    def failures(self) -> list[SLOResult]:
        return [r for r in self.slos if not r.ok]


def default_slos(cell: LabCell) -> list[SLO]:
    """The gate every cell is judged by (docs/LAB.md#slos)."""
    slos = [
        SLO.parse("serve.completed >= 1 @final"),
        SLO.parse("serve.cache.violations == 0 @series"),
        SLO.parse("coverage == 1.0 @final"),
        SLO.parse("serve.p95_interactive <= 0.05 @final"),
    ]
    if cell.scale == "autoscale":
        slos.append(SLO.parse(
            f"ring.n_nodes >= {cell.n_nodes + 1} @final"))
    if _has_reference(cell):
        slos.append(SLO.parse("answers.match_reference == 1 @final"))
    return slos


def _has_reference(cell: LabCell) -> bool:
    """Cache-on vs cache-off answer streams are only comparable when
    nothing else perturbs event interleaving: open-loop arrivals, fixed
    membership, no mid-run faults or update bursts."""
    return cell.fault == "none" and cell.scale == "static"


def _workload_spec(cell: LabCell):
    from repro.workloads import hpccg, moldy, nasty

    family = "moldy" if cell.workload == "zipf" else cell.workload
    factory = {"moldy": moldy, "nasty": nasty, "hpccg": hpccg}[family]
    return factory(cell.n_nodes, 64, seed=cell.seed)


def _traffic_spec(cell: LabCell):
    from repro.workloads import TrafficSpec

    return TrafficSpec(
        n_clients=4, duration_s=cell.duration_s, arrival="poisson",
        rate_per_client=1000.0,
        zipf_s=_ZIPF_HOT if cell.workload == "zipf" else 1.2,
        population=64, seed=cell.seed + 1)


def _fault_plan(cell: LabCell, t0: float):
    """The cell's fault schedule at absolute sim times (node 0 hosts the
    frontend and is never killed)."""
    from repro.sim.faults import FaultPlan

    d = cell.duration_s
    n = cell.n_nodes
    plan = FaultPlan()
    if cell.fault == "churn":
        victim = n - 1
        plan.kill(t0 + _T_FAIL * d, victim)
        plan.restart(t0 + _T_HEAL * d, victim)
    elif cell.fault == "partition":
        left = list(range(n // 2))
        right = list(range(n // 2, n))
        plan.partition(t0 + _T_FAIL * d, left, right)
        plan.heal(t0 + _T_HEAL * d)
    elif cell.fault == "zonal":
        victims = list(range(n - max(1, n // 4), n))
        plan.kill(t0 + _T_FAIL * d, *victims)
        plan.restart(t0 + _T_HEAL * d, *victims)
    return plan


def _schedule_update_bursts(concord, ents, cell: LabCell,
                            t0: float) -> None:
    """Interleave DHT updates with the query stream: 8 bursts spread
    over the middle of the run, each rewriting a few pages of one
    entity and syncing the monitors (datagrams when networked)."""
    engine = concord.cluster.engine
    pages = ents[0].n_pages

    def burst(i: int) -> None:
        e = ents[i % len(ents)]
        idxs = np.array([(i * 3 + j) % pages for j in range(4)])
        cids = np.array([cell.seed * 1000 + i * 10 + j
                         for j in range(4)], dtype=np.uint64)
        e.write_pages(idxs, cids)
        concord.sync(run_network=False)

    for i in range(8):
        engine.at(t0 + (0.15 + 0.08 * i) * cell.duration_s, burst, i)


def _schedule_violation(concord, t0: float, duration_s: float) -> None:
    """Seeded correctness bug: mid-stream, corrupt every numeric cached
    answer in place (token untouched, value perturbed).  The next hit
    on a poisoned key returns the wrong answer; verify mode shadow-
    executes and records ``serve.cache.violations``."""
    def poison() -> None:
        cmap = concord.frontend().cached.cache._map
        for key, (token, result) in list(cmap.items()):
            if isinstance(result.value, (int, float)):
                cmap[key] = (token, dataclasses.replace(
                    result, value=result.value + 1))

    engine = concord.cluster.engine
    engine.at(t0 + 0.5 * duration_s, poison)
    engine.at(t0 + 0.75 * duration_s, poison)


def _answers_digest(responses) -> str:
    """Order-independent digest of a response stream's *content*: one
    line per answer (op, args, outcome), sorted, hashed."""
    lines = []
    for r in responses:
        if r.rejected:
            outcome = f"rejected:{r.answer.reason}"
        else:
            a = r.answer
            outcome = (f"value={a.value!r} coverage={a.coverage:g} "
                       f"degraded={a.degraded}")
        lines.append(f"{r.request.op}{r.request.args!r} -> {outcome}")
    digest = hashlib.sha256()
    for line in sorted(lines):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _build(cell: LabCell, serve_cfg, trace: bool):
    from repro.core.concord import ConCORD
    from repro.core.config import ConCORDConfig
    from repro.dht.storage.base import StorageConfig
    from repro.obs import ObsConfig
    from repro.sim.cluster import Cluster
    from repro.workloads import instantiate

    target = cell.n_nodes + (1 if cell.scale == "autoscale" else 0)
    cost = "big-cluster" if target > 8 else "new-cluster"
    cluster = Cluster(n_nodes=cell.n_nodes, cost=cost, seed=cell.seed)
    ents = instantiate(cluster, _workload_spec(cell))
    cfg = ConCORDConfig(
        use_network=(cell.fault != "none"),
        serve=serve_cfg,
        storage=StorageConfig(backend=cell.storage),
        placement=cell.placement,
        obs=ObsConfig(trace=trace))
    concord = ConCORD(cluster, cfg)
    return concord, ents


def _serve_once(cell: LabCell, serve_cfg, *, trace: bool,
                keep_responses: bool, inject_violation: bool = False,
                sample: bool = True):
    """One full cell execution; returns (concord, report, driver)."""
    from repro.serve.autoscaler import AutoscalerConfig

    concord, ents = _build(cell, serve_cfg, trace)
    concord.initial_scan()
    t0 = concord.cluster.engine.now
    plan = _fault_plan(cell, t0)
    if plan is not None and cell.fault != "none":
        concord.inject_faults(plan)
        _schedule_update_bursts(concord, ents, cell, t0)
    if inject_violation:
        _schedule_violation(concord, t0, cell.duration_s)
    autoscale = None
    if cell.scale == "autoscale":
        # Smoke-mode thresholds: any traffic reads as overload, so the
        # join path definitely exercises under every config combo.
        autoscale = AutoscalerConfig(max_nodes=cell.n_nodes + 1,
                                     queue_depth_high=0.0,
                                     p95_high_s=0.0)
    report = concord.serve(
        _traffic_spec(cell),
        keep_responses=keep_responses,
        autoscale=autoscale,
        sample_period_s=cell.duration_s / 20 if sample else None)
    return concord, report


def run_cell(cell: LabCell, inject_violation: bool = False,
             trace: bool = True,
             slos: list[SLO] | None = None) -> CellResult:
    """Execute one cell end-to-end and judge it against its SLOs."""
    from repro.serve.config import ServeConfig

    concord, report = _serve_once(
        cell, ServeConfig(verify_cache=True), trace=trace,
        keep_responses=_has_reference(cell),
        inject_violation=inject_violation)
    try:
        series = concord._last_sampler.series

        # Post-run recovery: whatever the schedule broke gets detected
        # and repaired before the @final snapshot is taken.
        repair_rep = None
        if cell.fault != "none":
            concord.detect_failures(0)
            repair_rep = concord.repair(full=True)

        final = {c: series.last(c) for c in series.columns}
        final["coverage"] = concord.coverage
        final["ring.n_nodes"] = float(
            concord.obs.registry.value("ring.n_nodes"))
        final["serve.completed"] = float(report.completed)
        final["serve.rejected"] = float(report.rejected)
        final["serve.cache.violations"] = float(report.cache_violations)
        repair_nodes = []
        if repair_rep is not None:
            final["repair.ops"] = float(repair_rep.copies_restored
                                        + repair_rep.copies_removed)
            final["repair.bytes_wire"] = float(repair_rep.bytes_wire)
            repair_nodes = [(int(n), int(i), int(r))
                            for n, i, r in repair_rep.node_ops]

        if _has_reference(cell):
            final["answers.match_reference"] = _reference_match(
                cell, concord._last_traffic.responses)

        trace_doc = (concord.trace_dump(fmt="chrome")
                     if concord.obs.tracing else None)
    finally:
        concord.close()

    result = CellResult(cell=cell, series=series, final=final,
                        trace=trace_doc, repair_nodes=repair_nodes)
    for slo in (slos if slos is not None else default_slos(cell)):
        result.slos.append(slo.evaluate(series, final))
    return result


def _reference_match(cell: LabCell, responses) -> float:
    """Rerun the identical stream with the cache off (capacity 0); 1.0
    iff the answer streams digest identically."""
    from repro.serve.config import ServeConfig

    ref_concord, _rep = _serve_once(
        cell, ServeConfig(cache_capacity=0), trace=False,
        keep_responses=True, sample=False)
    try:
        ref_digest = _answers_digest(ref_concord._last_traffic.responses)
    finally:
        ref_concord.close()
    return 1.0 if _answers_digest(responses) == ref_digest else 0.0


def run_cells(cells, inject_violation_in: str | None = None,
              trace: bool = True, progress=None) -> list[CellResult]:
    """Run a sequence of cells; ``inject_violation_in`` names the cell
    (by id) that gets the seeded cache corruption.  ``progress`` is an
    optional ``fn(cell, result)`` callback."""
    results = []
    for cell in cells:
        res = run_cell(cell,
                       inject_violation=(cell.cell_id
                                         == inject_violation_in),
                       trace=trace)
        results.append(res)
        if progress is not None:
            progress(cell, res)
    return results
