"""The five workloads: inputs, bring-up, timed region, correctness checks.

Every ``run_*`` function performs ONE repeat from scratch — generate the
inputs from the seed, bring the system up, run the timed region, check the
outputs — and returns a :class:`Repeat`.  Sizes are frozen in
:data:`WORKLOADS`; ``scale`` shrinks the request/page counts for
``--smoke``.  Configuration is passed explicitly (``workers=1``, memory or
mmap storage, fixed chunking, mod placement), so ``CONCORD_*`` environment
variables cannot change what is measured.

Every number is on one of two clocks: **host** (what this Python process
costs) or **sim** (what the modelled cluster would take; it must be
bit-identical for any change that only speeds the simulator up).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (CheckpointStore, Cluster, CollectiveCheckpoint, ConCORD,
                   ConCORDConfig, ServiceScope, StorageConfig, workloads)
from repro.queries.reference import ReferenceModel
from repro.serve.config import ServeConfig
from repro.serve.request import QoSClass
from repro.services import checkpoint as _checkpoint

from bench.calibrate import SegmentClock
from bench.driver import ClosedLoop, OpenLoop, UpdateBursts
from bench.reqgen import Mix, draw_stream

__all__ = ["WORKLOADS", "Repeat", "run_repeat", "traffic_driver_rate",
           "SLO_LIMIT_US"]

#: serve_open's latency limit: interactive p99 within 1 ms of the due time.
SLO_LIMIT_US = 1000.0
#: Answers checked against the brute-force reference per serve repeat.
CHECK_SAMPLE = 500

_HOT_MIX = Mix(n_keys=64, zipf_s=1.5, nodewise_frac=0.8)

WORKLOADS: dict[str, dict] = {
    "serve_hot": dict(
        kind="closed", n_nodes=4, pages=256, n_requests=96_000, n_clients=16,
        mix=_HOT_MIX, window_s=5e-6, bursts=0,
        why="closed loop, 16 clients, Zipf(1.5) over 64 keys: ~99% cache "
            "hits, so frontend, cache hit path, admission and the event "
            "loop do the work; DHT tables and kernels do almost none"),
    "serve_miss": dict(
        kind="closed", n_nodes=8, pages=16384, n_requests=19_200,
        n_clients=16, mix=Mix(n_keys=100_000, zipf_s=0.0, nodewise_frac=1.0),
        window_s=5e-6, bursts=0,
        why="same loop, uniform over 100k keys (> the 65536-entry cache): "
            "~1% hits, so batcher, partition routing, table lookups and "
            "cache puts dominate; the hit path is bypassed"),
    "serve_churn": dict(
        kind="closed", n_nodes=8, pages=1024, n_requests=19_200,
        n_clients=16,
        mix=Mix(n_keys=64, zipf_s=1.5, nodewise_frac=0.5, n_groups=8),
        window_s=5e-6, bursts=16, burst_fraction=0.02,
        why="writes beside reads: 50% collective ops and 16 update bursts "
            "that bump shard epochs, so invalidation, monitor scans, update "
            "routing and collective re-execution carry the cost"),
    "serve_open": dict(
        kind="open", n_nodes=4, pages=256, n_requests=40_000, n_clients=64,
        mix=_HOT_MIX, rates=(150e3, 450e3, 1000e3),
        why="open loop, Poisson arrivals at 150k/450k/1M req/sim-s with "
            "default windows and a 1 ms p99 limit: the only workload where "
            "a queue can grow (admission depth, re-drain, CPU backlog)"),
    "pipeline": dict(
        kind="pipeline", n_nodes=8, pages=8192, n_represented=64,
        sync_rounds=3, mutate_fraction=0.10, query_rounds=5,
        n_nodewise=1_000,
        why="no frontend: bring-up, scan, sync to mmap storage, queries, "
            "full and recon repair, collective checkpoint, restore over the "
            "network model; a frontend optimisation must not move it"),
}


@dataclass
class Repeat:
    """What one repeat of one workload measured."""

    setup_s: float              # host: input generation + bring-up, at
    #                             reference speed (bench/calibrate.py)
    host_s: float               # raw: wall seconds of the timed region
    ops: int                    # operations completed in the timed region
    sim_s: float                # sim: modelled seconds for those operations
    latency_us: np.ndarray      # sim: exact per-operation latency samples
    attempted: int
    failed: int
    digest: str                 # SHA-256 of the generated inputs
    t0_ns: int = 0              # perf_counter_ns bounds of the timed region
    t1_ns: int = 0
    # The timed region as exchangeable segments, by class: host seconds (at
    # reference speed) of each segment seen, and how many segments of the
    # class the region holds.  Chunks of a stationary request stream are
    # one class; each pipeline stage is its own (metrics.host_seconds
    # explains why).
    segments: dict[str, list[float]] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.extras["sim_latency_p50_us"] = \
            float(np.percentile(self.latency_us, 50))
        self.extras["host_ops_per_s_wall"] = self.ops / self.host_s


def _seeds(seed: int) -> tuple[int, int]:
    """(cluster/request seed, content seed): the content generator packs
    its seed into content IDs, so it gets a small one."""
    seed = abs(int(seed)) % (1 << 32)
    return seed, seed % 4096


def _scaled(n: int, scale: float, multiple: int = 1) -> int:
    n = max(multiple, int(round(n * scale)))
    return n - n % multiple


def _build(n_nodes: int, pages: int, seed: int):
    cluster_seed, content_seed = _seeds(seed)
    cluster = Cluster(n_nodes, cost="new-cluster", seed=cluster_seed)
    entities = workloads.instantiate(
        cluster, workloads.moldy(n_nodes, pages, seed=content_seed))
    return cluster, entities


def _serve_config(serve: ServeConfig) -> ConCORDConfig:
    return ConCORDConfig(
        use_network=False, workers=1, serve=serve, placement="mod",
        chunking="fixed", storage=StorageConfig(backend="memory", root=None))


def _tracked_hashes(entities) -> np.ndarray:
    return np.unique(np.concatenate([e.content_hashes() for e in entities]))


class _Oracle:
    """Expected answers from ``repro.queries.reference`` on the live
    memory, with the per-call O(everything) recomputation memoized."""

    def __init__(self, cluster, n_represented: int = 1) -> None:
        self.ref = ReferenceModel(cluster)
        self.all_ids = cluster.all_entity_ids()
        #: num_shared_content reports real blocks: simulated x represented.
        self.n_represented = n_represented
        self._counts = None
        self._memo: dict[tuple, object] = {}

    def expected(self, op: str, args: tuple):
        if op == "num_copies":
            if self._counts is None:
                self._counts = self.ref.copy_counts(self.all_ids)
            return self._counts.get(int(args[0]), 0)
        if op == "entities":
            return self.ref.entities(args[0])
        key = (op, args)
        if key not in self._memo:
            want = getattr(self.ref, op)(list(args[0]), *args[1:])
            if op == "num_shared_content":
                want *= self.n_represented
            self._memo[key] = want
        return self._memo[key]

    def matches(self, op: str, args: tuple, value) -> bool:
        want = self.expected(op, args)
        if isinstance(want, float):
            return (isinstance(value, float)
                    and math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-12))
        return value == want


def _check_responses(oracle: _Oracle, responses, seed: int,
                     problems: list[str]) -> int:
    """Compare a seeded sample of answers with the reference; returns the
    number that disagree."""
    if not responses:
        return 0
    rng = np.random.default_rng([_seeds(seed)[0], 0xC0DE])
    k = min(CHECK_SAMPLE, len(responses))
    wrong = 0
    for i in rng.choice(len(responses), size=k, replace=False).tolist():
        resp = responses[i]
        req = resp.request
        if resp.rejected:
            continue    # counted as refused already
        if not oracle.matches(req.op, req.args, resp.value):
            wrong += 1
            if len(problems) < 5:
                problems.append(
                    f"{req.op}{req.args!r}: got {resp.value!r}, reference "
                    f"says {oracle.expected(req.op, req.args)!r}")
    return wrong


def _interactive_latency_us(responses) -> np.ndarray:
    return np.asarray(
        [r.latency_s for r in responses
         if r.request.qos is QoSClass.INTERACTIVE and not r.rejected],
        dtype=np.float64) * 1e6


def _cumulative(concord) -> dict[str, float]:
    """Counters that also move during bring-up; the timed region reports
    their change."""
    reg = concord.metrics()
    net = concord.cluster.network.stats
    return {
        "sim.engine.events_run": concord.cluster.engine.events_run,
        "sim.network.msgs_sent": net.msgs_sent,
        "sim.network.bytes_sent": net.bytes_sent,
        "memory.monitor.pages_hashed": reg.value("monitor.pages_hashed"),
        "memory.monitor.updates_emitted": reg.value("monitor.updates_sent"),
    }


def _serve_counters(concord, report, n_requests: int,
                    before: dict[str, float]) -> dict[str, float]:
    out = {k: v - before[k] for k, v in _cumulative(concord).items()}
    out.update({
        "requests": n_requests,
        "serve.frontend.batches": report.batches,
        "serve.frontend.batch_size_mean":
            report.admitted / report.batches if report.batches else 0.0,
        "serve.frontend.coalesce_rate": report.coalesce_rate,
        "serve.admission.rejected": report.rejected,
        "serve.cache.hit_rate": report.hit_rate,
        "serve.cache.invalidations": report.cache_invalidations,
        "serve.cache.evictions":
            concord.metrics().value("serve.cache.evictions"),
    })
    return out


# -- closed loops: serve_hot, serve_miss, serve_churn ---------------------------------


#: Chunks per closed/open stream: ~25-60 ms of host time each.
CHUNKS_PER_STREAM = 40
#: Calibration ticks averaged at the boundaries of long intervals (set-up,
#: pipeline stages): ~10 ms.
BOUNDARY_TICKS = 5


def _setup_clock() -> SegmentClock:
    """Started now; ``mark()`` gives the set-up seconds at reference speed."""
    clock = SegmentClock(BOUNDARY_TICKS)
    clock.start()
    return clock


def _run_closed(p: dict, seed: int, scale: float) -> Repeat:
    setup = _setup_clock()
    n = _scaled(p["n_requests"], scale, multiple=p["n_clients"])
    cluster, entities = _build(p["n_nodes"], p["pages"], seed)
    eids = [e.entity_id for e in entities]
    stream = draw_stream([_seeds(seed)[0], 1], n, p["mix"],
                         _tracked_hashes(entities), eids, p["n_clients"],
                         p["n_nodes"])
    serve = ServeConfig(interactive_window_s=p["window_s"],
                        batch_window_s=p["window_s"])
    problems: list[str] = []
    with ConCORD(cluster, _serve_config(serve)) as concord:
        concord.initial_scan()
        frontend = concord.frontend()
        engine = cluster.engine
        bursts = None
        milestones = {}
        chunk = max(1, n // CHUNKS_PER_STREAM)
        if p["bursts"]:
            k = p["bursts"]
            bursts = UpdateBursts(
                concord, entities, p["burst_fraction"],
                [np.random.default_rng([_seeds(seed)[0], 2, i])
                 for i in range(k)])
            # Evenly through the stream, by completed-request count; a
            # chunk is then one burst plus the reads up to the next one.
            chunk = max(1, n // (k + 1))
            milestones = {(i + 1) * chunk: bursts.burst for i in range(k)}
        driver = ClosedLoop(frontend, stream, p["n_clients"], chunk,
                            milestones)
        driver.start()
        setup_s = setup.mark()

        sim0, before = engine.now, _cumulative(concord)
        driver.clock.start()
        t0_ns = time.perf_counter_ns()
        engine.run()
        report = frontend.report()
        t1_ns = time.perf_counter_ns()

        responses = driver.responses
        sim_s = engine.now - sim0
        unfinished = n - len(responses)
        failed = driver.n_rejected + unfinished
        if bursts is not None and bursts.done != p["bursts"]:
            failed += 1
            problems.append(f"only {bursts.done} of {p['bursts']} update "
                            "bursts ran")
        # Quiescent answers only: with writes in the stream, an answer is
        # comparable with the final memory only if it was submitted after
        # the last burst.
        checkable = (responses if bursts is None else
                     [r for r in responses
                      if r.request.t_submit > bursts.t_last])
        failed += _check_responses(_Oracle(cluster), checkable, seed, problems)
        counters = _serve_counters(concord, report, n, before)
    return Repeat(
        setup_s=setup_s,
        host_s=(t1_ns - t0_ns - driver.clock.overhead_ns) / 1e9,
        ops=len(responses) - driver.n_rejected, sim_s=sim_s,
        latency_us=_interactive_latency_us(responses), attempted=n,
        failed=failed, digest=stream.digest, t0_ns=t0_ns, t1_ns=t1_ns,
        segments={"chunk": driver.clock.seconds},
        weights={"chunk": n / chunk}, counters=counters, problems=problems)


# -- open loop: serve_open -----------------------------------------------------------

#: Share of each open-loop stream (by arrival order) left out of the latency
#: statistics: the modelled caches start empty, and the backlog the first
#: cold collective queries build is a start-up transient, not the rate's.
OPEN_WARMUP_FRAC = 0.10


@dataclass
class _OpenRun:
    rate: float
    cluster: object
    concord: object
    driver: OpenLoop
    stream: object
    before: dict
    report: object = None


def _run_open(p: dict, seed: int, scale: float) -> Repeat:
    setup = _setup_clock()
    n = _scaled(p["n_requests"], scale)
    chunk = max(1, n // CHUNKS_PER_STREAM)
    runs: list[_OpenRun] = []
    for j, rate in enumerate(p["rates"]):
        cluster, entities = _build(p["n_nodes"], p["pages"], seed)
        stream = draw_stream([_seeds(seed)[0], 3, j], n, p["mix"],
                             _tracked_hashes(entities),
                             [e.entity_id for e in entities],
                             p["n_clients"], p["n_nodes"], rate=rate)
        concord = ConCORD(cluster, _serve_config(ServeConfig()))
        concord.initial_scan()
        driver = OpenLoop(concord.frontend(), stream, chunk)
        driver.start()
        runs.append(_OpenRun(rate, cluster, concord, driver, stream,
                             _cumulative(concord)))
    setup_s = setup.mark()

    t0_ns = overhead_ns = 0
    for run in runs:
        opening_ns = run.driver.clock.start()
        if t0_ns:
            overhead_ns += opening_ns
        else:
            t0_ns = time.perf_counter_ns()
        run.cluster.engine.run()
        run.report = run.concord.frontend().report()
    t1_ns = time.perf_counter_ns()
    overhead_ns += sum(run.driver.clock.overhead_ns for run in runs)

    problems: list[str] = []
    counters: dict[str, float] = {}
    extras: dict[str, float] = {}
    segments: dict[str, list[float]] = {}
    ops = failed = 0
    met, lag = [], []
    for j, run in enumerate(runs):
        label = f"r{j + 1}"
        responses = run.driver.responses
        rejected = sum(1 for r in responses if r.rejected)
        ops += len(responses) - rejected
        # Refusals are what the overload rate is there to produce: they are
        # latency-limit misses, not failed operations.  A request that never
        # completes is a failure at any rate.
        failed += n - len(responses)
        failed += _check_responses(_Oracle(run.cluster), responses, seed + j,
                                   problems)
        lag.extend(run.driver.lag_s)
        segments[label] = run.driver.clock.seconds

        # Latency statistics: interactive class, after the warm-up share of
        # the stream; a refused request misses any limit.
        warm_t = run.stream.due[int(n * OPEN_WARMUP_FRAC)]
        steady = [r for r in responses
                  if r.request.qos is QoSClass.INTERACTIVE
                  and r.request.t_submit >= warm_t]
        lat = _interactive_latency_us(steady)
        lost = len(steady) - len(lat)
        p99 = float(np.percentile(
            np.concatenate([lat, np.full(lost, np.inf)]), 99))
        tail = lat[-max(1, len(lat) // 4):]
        drained = lost == 0 and float(np.percentile(tail, 99)) <= SLO_LIMIT_US
        met.append(p99 <= SLO_LIMIT_US and drained)
        extras[f"serve_open.p99_us_{label}"] = \
            p99 if math.isfinite(p99) else float(np.max(lat, initial=0.0))
        if j == len(runs) - 1:
            late = int(np.count_nonzero(lat > SLO_LIMIT_US))
            extras["serve_open.slo_miss_frac"] = (lost + late) / len(steady)
        if j == len(runs) // 2:
            # Sim throughput and latency are reported at the middle rate.
            sim_s_mid = run.cluster.engine.now - run.stream.due[0]
            ops_mid = len(responses) - rejected
            latency_mid = lat
        for key, value in _serve_counters(run.concord, run.report, n,
                                          run.before).items():
            if key in ("serve.cache.hit_rate", "serve.frontend.coalesce_rate",
                       "serve.frontend.batch_size_mean"):
                value /= len(runs)
            counters[key] = counters.get(key, 0.0) + value
        run.concord.close()
    extras["serve_open.max_rate_in_slo"] = max(
        (run.rate for run, ok in zip(runs, met) if ok), default=0.0)
    counters["bench.driver.lag_p99_us"] = \
        float(np.percentile(lag, 99)) * 1e6 if lag else 0.0
    return Repeat(
        setup_s=setup_s, host_s=(t1_ns - t0_ns - overhead_ns) / 1e9, ops=ops,
        sim_s=sim_s_mid * ops / ops_mid, latency_us=latency_mid,
        attempted=n * len(runs), failed=failed,
        digest="".join(run.stream.digest[:16] for run in runs), t0_ns=t0_ns,
        t1_ns=t1_ns, segments=segments,
        weights={label: n / chunk for label in segments},
        extras=extras, counters=counters, problems=problems)


# -- the paper's service path: pipeline ---------------------------------------------


class _Stages:
    """Times the eight stages at reference speed (and opens a span for each
    when traced)."""

    def __init__(self, log) -> None:
        self.log = log
        self.clock = SegmentClock(BOUNDARY_TICKS)
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        span = (self.log.span("pipeline.stage", name) if self.log is not None
                else nullcontext())
        with span:
            yield
        self.seconds[name] = self.clock.mark()


def _run_pipeline(p: dict, seed: int, scale: float, log,
                  workdir: Path) -> Repeat:
    setup = _setup_clock()
    pages = _scaled(p["pages"], scale)
    n_nodes = p["n_nodes"]
    n_nodewise = _scaled(p["n_nodewise"], max(scale, 0.25))
    cluster, entities = _build(n_nodes, pages, seed)
    eids = [e.entity_id for e in entities]
    rng = np.random.default_rng([_seeds(seed)[0], 4])
    mutation_rngs = [np.random.default_rng([_seeds(seed)[0], 5, i])
                     for i in range(p["sync_rounds"] * len(entities))]
    query_hashes = rng.choice(np.concatenate(
        [e.content_hashes() for e in entities]), size=n_nodewise).tolist()
    query_nodes = rng.integers(n_nodes, size=n_nodewise).tolist()
    query_entities = (rng.random(n_nodewise) < 0.25).tolist()
    victims = (1 + rng.choice(n_nodes - 1, size=2, replace=False)).tolist()
    groups = [eids[i:] for i in range(p["query_rounds"])]
    store_root = workdir / "pipeline-store"
    shutil.rmtree(store_root, ignore_errors=True)
    store_root.mkdir(parents=True)
    cfg = ConCORDConfig(
        use_network=True, n_represented=p["n_represented"], workers=1,
        placement="mod", chunking="fixed",
        storage=StorageConfig(backend="mmap", root=str(store_root)))
    digest = hashlib.sha256(
        np.concatenate([e.pages for e in entities]).tobytes()
        + np.asarray(query_hashes, dtype=np.uint64).tobytes()
        + np.asarray(query_nodes + victims, dtype=np.int64).tobytes()
    ).hexdigest()
    setup_s = setup.mark()

    stage = _Stages(log)
    problems: list[str] = []
    failed = 0
    engine = cluster.engine
    stage.clock.start()
    t0_ns = time.perf_counter_ns()
    try:
        with stage("bringup"):
            concord = ConCORD(cluster, cfg)
        applied0 = concord.tracing.stats.updates_applied
        with stage("scan"):
            concord.initial_scan()
        with stage("sync"):
            k = 0
            for _ in range(p["sync_rounds"]):
                for e in entities:
                    e.mutate_random(p["mutate_fraction"], mutation_rngs[k])
                    k += 1
                concord.sync()
                concord.tracing.flush_storage()
        updates = concord.tracing.stats.updates_applied - applied0
        with stage("query"):
            collective = []
            for g in groups:
                collective.append(("sharing", (tuple(g),),
                                   concord.sharing(g)))
                collective.append(("num_shared_content", (tuple(g), 2),
                                   concord.num_shared_content(g, 2)))
                collective.append(("degree_of_sharing", (tuple(g),),
                                   concord.degree_of_sharing(g)))
            nodewise = [
                (concord.entities(h, node) if ent
                 else concord.num_copies(h, node))
                for h, node, ent in zip(query_hashes, query_nodes,
                                        query_entities)]
        reports = {}
        for name, victim, kwargs in (
                ("repair_full", victims[0], {"full": True}),
                ("repair_recon", victims[1], {"mode": "recon"})):
            with stage(name):
                concord.fail_node(victim)
                concord.detect_failures()
                concord.restart_node(victim)
                reports[name] = concord.repair(**kwargs)
            if concord.coverage != 1.0:
                failed += 1
                problems.append(f"coverage {concord.coverage} after {name}")
        sim_engine_s = engine.now
        store = CheckpointStore()
        with stage("ckpt"):
            result = concord.execute_command(CollectiveCheckpoint(store),
                                             ServiceScope.of(eids))
        with stage("restore"):
            restored = [_checkpoint.restore_entity(store, eid)
                        for eid in eids]
        t1_ns = time.perf_counter_ns()

        # -- correctness, outside the timed region --
        if not result.success:
            failed += 1
            problems.append("checkpoint command reported failure")
        for e, pages_back in zip(entities, restored):
            bad = (int(np.count_nonzero(pages_back != e.pages))
                   if len(pages_back) == e.n_pages else e.n_pages)
            if bad:
                failed += bad
                problems.append(f"entity {e.entity_id}: {bad} restored "
                                "pages differ from live memory")
        oracle = _Oracle(cluster, p["n_represented"])
        for op, args, answer in collective:
            if not oracle.matches(op, args, answer.value):
                failed += 1
                problems.append(f"{op}{args!r}: got {answer.value!r}")
        rng_check = np.random.default_rng([_seeds(seed)[0], 0xC0DE])
        for i in rng_check.choice(n_nodewise,
                                  size=min(CHECK_SAMPLE, n_nodewise),
                                  replace=False).tolist():
            op = "entities" if query_entities[i] else "num_copies"
            if not oracle.matches(op, (query_hashes[i],), nodewise[i].value):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{op}({query_hashes[i]}): got "
                                    f"{nodewise[i].value!r}")

        full, recon = reports["repair_full"], reports["repair_recon"]
        n_queries = len(collective) + len(nodewise)
        repaired = sum(r.copies_restored + r.copies_removed
                       for r in reports.values())
        blocks = store.total_blocks
        n_restored = sum(len(x) for x in restored)
        ops = updates + n_queries + repaired + blocks + n_restored
        s = stage.seconds
        host_s = (t1_ns - t0_ns - stage.clock.overhead_ns) / 1e9
        reg = concord.metrics()
        net = cluster.network.stats
        counters = {
            "requests": ops,
            "sim.engine.events_run": engine.events_run,
            "sim.network.msgs_sent": net.msgs_sent,
            "sim.network.bytes_sent": net.bytes_sent,
            "memory.monitor.pages_hashed": reg.value("monitor.pages_hashed"),
            "memory.monitor.updates_emitted":
                reg.value("monitor.updates_sent"),
            "recon.rounds": recon.rounds,
            "recon.bytes_wire": recon.bytes_wire,
            "services.checkpoint.blocks": blocks,
        }
        extras = {
            "pipeline.host_s": sum(s.values()),
            "pipeline.updates_per_host_s": updates / (s["scan"] + s["sync"]),
            "pipeline.ckpt_blocks_per_host_s": blocks / s["ckpt"],
            "pipeline.sim_ckpt_wall_s": result.wall_time,
            "pipeline.ckpt_compression_ratio": store.compression_ratio,
            "pipeline.repair_bytes_ratio":
                recon.bytes_wire / full.bytes_wire if full.bytes_wire else 0.0,
        }
        sim_s = (sim_engine_s + sum(a.latency for *_, a in collective)
                 + sum(a.latency for a in nodewise) + result.wall_time)
        # Every query of the stage is one latency sample; the collective
        # ones are >1% of them, so the p99 is a collective query's latency.
        latency_us = np.asarray([a.latency for a in nodewise]
                                + [a.latency for *_, a in collective]) * 1e6
        concord.close()
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    return Repeat(
        setup_s=setup_s, host_s=host_s, ops=ops, sim_s=sim_s,
        latency_us=latency_us, attempted=ops, failed=failed, digest=digest,
        t0_ns=t0_ns, t1_ns=t1_ns,
        segments={k: [v] for k, v in stage.seconds.items()},
        weights=dict.fromkeys(stage.seconds, 1.0), extras=extras,
        counters=counters, problems=problems)


def traffic_driver_rate(seed: int, scale: float = 1.0) -> float:
    """Requests per host-second through ``ConCORD.serve(TrafficSpec)`` on
    ``serve_hot``'s shape — the lab/CLI path that draws each request inside
    the timed loop.  A layer metric only: it is in no workload's timed path.
    """
    from repro.workloads import TrafficSpec

    p = WORKLOADS["serve_hot"]
    mix = p["mix"]
    cluster, _entities = _build(p["n_nodes"], p["pages"], seed)
    serve = ServeConfig(interactive_window_s=p["window_s"],
                        batch_window_s=p["window_s"])
    with ConCORD(cluster, _serve_config(serve)) as concord:
        concord.initial_scan()
        spec = TrafficSpec(
            n_clients=p["n_clients"], duration_s=0.04 * max(scale, 0.05),
            arrival="closed", zipf_s=mix.zipf_s, population=mix.n_keys,
            nodewise_frac=mix.nodewise_frac, entities_frac=mix.entities_frac,
            batch_frac=mix.batch_frac, n_groups=mix.n_groups,
            group_size=mix.group_size, seed=_seeds(seed)[0])
        t0 = time.perf_counter()
        report = concord.serve(spec)
        return report.completed / (time.perf_counter() - t0)


def run_repeat(name: str, seed: int, scale: float = 1.0, log=None,
               workdir: Path | None = None) -> Repeat:
    """One repeat of workload ``name`` (``log``: a ``layers.SpanLog`` while
    the shims are installed, else None)."""
    p = WORKLOADS[name]
    if p["kind"] == "closed":
        return _run_closed(p, seed, scale)
    if p["kind"] == "open":
        return _run_open(p, seed, scale)
    if workdir is None:
        raise ValueError("the pipeline workload needs a work directory")
    return _run_pipeline(p, seed, scale, log, workdir)
