"""The benchmark suite: every pinned number as a registered BenchSpec.

Every metric is a value of the modelled machine (simulated seconds,
event counts, ratios of them, digests of what a command decided) — a
deterministic function of the seed — so the whole suite is compared by
equality against the golden file ``baselines/ci.json``
(docs/BENCHMARKS.md): every spec but the two slow serving runs in
tier-1, all of them in CI.  Host time is not measured here: scan/insert
rates, pool dispatch, storage commit and repair host seconds are
per-layer metrics of the repo benchmark (``bench/``, ``BENCHMARK.json``).
Paper figures run through :data:`repro.harness.experiments.ALL_EXPERIMENTS`
(``repro run``, ``pytest benchmarks/``), not through this suite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
import tempfile
from collections.abc import Callable

import numpy as np

from repro.core.command import ExecMode, ServiceCallbacks
from repro.core.concord import ConCORD
from repro.core.config import ConCORDConfig
from repro.core.events import CommandTracer
from repro.core.executor import CommandResult
from repro.core.scope import ServiceScope
from repro.dht.engine import ContentTracingEngine
from repro.dht.storage import MmapSegmentStorage, StorageConfig
from repro.dht.table import LocalDHT
from repro.memory.entity import Entity
from repro.obs import ObsConfig
from repro.obs.bench import BenchContext, BenchRunner, BenchSpec
from repro.services import (CheckpointStore, CollectiveCheckpoint,
                            CollectiveDedup, CollectiveMigration,
                            CollectiveReconstruction, CollectiveReplication,
                            IncrementalCheckpoint, NullService,
                            make_replica_stores, restore_entity,
                            restore_incremental_entity)
from repro.services.checkpoint import _DATA
from repro.services.migrate import MigrationPlan
from repro.services.reconstruct import ImageDescriptor, register_image
from repro.sim.cluster import Cluster
from repro.storage import ParallelFileSystem
from repro.util.hashing import page_hashes
from repro import workloads

__all__ = ["RECIPES", "World", "build_default_runner", "fingerprint"]


def _record_flat(ctx: BenchContext, obj, prefix: str = "") -> None:
    """Record every leaf of a nested value under its dotted path.

    The one rule for a value a spec pins whole: dict keys and list/tuple
    indices are joined by ``.``; a number is recorded as it is (a bool as
    0 or 1); a string is a label, so it becomes the last part of the path
    and is recorded as 1.  Digests are :func:`_digest` integers.
    """
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, str):
        ctx.record(f"{prefix}.{obj}", 1)
        return
    else:
        ctx.record(prefix, obj)
        return
    for key, value in items:
        _record_flat(ctx, value, f"{prefix}.{key}" if prefix else str(key))


def _digest(obj) -> int:
    """SHA-256 of ``repr(obj)``, cut to its top 52 bits — an integer a
    float holds exactly, so the golden file can pin it."""
    return int(hashlib.sha256(repr(obj).encode()).hexdigest()[:13], 16)


# ---------------------------------------------------------------------------
# Macro benchmarks: sim-time metrics over the real protocol (deterministic)
# ---------------------------------------------------------------------------


def _bring_up(n_nodes: int, sim_pages: int, R: int = 1, *, seed: int,
              testbed: str = "new-cluster", kind: str = "moldy", **config):
    """Synced system (``config``: further ``ConCORDConfig`` fields); use
    the returned ConCORD as a context manager."""
    cluster = Cluster(n_nodes, cost=testbed, seed=seed)
    make = workloads.moldy if kind == "moldy" else workloads.nasty
    ents = workloads.instantiate(cluster, make(n_nodes, sim_pages, seed=seed))
    concord = ConCORD(cluster, ConCORDConfig(n_represented=R, **config))
    concord.initial_scan()
    return cluster, ents, concord, [e.entity_id for e in ents]


def _bench_null(ctx: BenchContext) -> None:
    p = ctx.params
    _cl, _e, concord, eids = _bring_up(p["n_nodes"], p["sim_pages"], p["R"],
                                       seed=3,
                                       testbed=p.get("testbed",
                                                     "new-cluster"))
    with concord:
        r_i = concord.execute_command(NullService(), ServiceScope.of(eids),
                                      mode=ExecMode.INTERACTIVE)
        r_b = concord.execute_command(NullService(), ServiceScope.of(eids),
                                      mode=ExecMode.BATCH)
    ctx.record("interactive_wall_s", r_i.wall_time)
    ctx.record("batch_wall_s", r_b.wall_time)
    ctx.record("collective_wall_s", r_i.phases["collective"].wall)
    ctx.record("local_wall_s", r_i.phases["local"].wall)
    ctx.record("handled", r_i.stats.handled)
    ctx.record("total_bytes", r_i.stats.total_bytes)


def _bench_ckpt(ctx: BenchContext) -> None:
    p = ctx.params
    _cl, _e, concord, eids = _bring_up(p["n_nodes"], p["sim_pages"], p["R"],
                                       seed=5, testbed=p.get("testbed",
                                                             "new-cluster"))
    store = CheckpointStore()
    with concord:
        r = concord.execute_command(CollectiveCheckpoint(store),
                                    ServiceScope.of(eids))
    ctx.record("wall_s", r.wall_time)
    ctx.record("compression_ratio", store.compression_ratio)
    ctx.record("handled", r.stats.handled)


def _bench_query(ctx: BenchContext) -> None:
    p = ctx.params
    _cl, _e, concord, eids = _bring_up(p["n_nodes"], p["sim_pages"], p["R"],
                                       seed=2)
    with concord:
        sh = concord.sharing(eids, exec_mode=ExecMode.DISTRIBUTED)
        ns = concord.num_shared_content(eids, 2,
                                        exec_mode=ExecMode.DISTRIBUTED)
        single = concord.sharing(eids, exec_mode=ExecMode.SINGLE)
    ctx.record("sharing_distributed_s", sh.latency)
    ctx.record("num_shared_distributed_s", ns.latency)
    ctx.record("sharing_single_s", single.latency)
    ctx.record("sharing_value", sh.value)


def _bench_monitor(ctx: BenchContext) -> None:
    p = ctx.params
    cluster, _e, concord, _eids = _bring_up(2, p["sim_pages"], seed=9,
                                            hash_algo=p["hash_algo"])
    with concord:
        mon = concord.monitors[0]
        base = mon.stats.cpu_time
        rng = np.random.default_rng(10)
        updates = 0
        for _ in range(3):
            for e in cluster.entities_on(0):
                e.mutate_random(0.25, rng)
            mon.scan()
            updates += mon.flush()
        ctx.record("scan_cpu_s", mon.stats.cpu_time - base)
        ctx.record("updates", updates)


def _bench_update_network(ctx: BenchContext) -> None:
    """Fig 7's shape at one size: full scan over the simulated network."""
    p = ctx.params
    cluster, _e, concord, _eids = _bring_up(
        p["n_nodes"], p["sim_pages"], p["R"], seed=1, testbed="big-cluster",
        kind="nasty", use_network=True, update_batch_size=1)
    concord.close()
    st = cluster.network.stats
    ctx.record("updates_sent", st.updates_sent)
    ctx.record("loss_rate", st.update_loss_rate)
    ctx.record("sim_elapsed_s", cluster.engine.now)


def _bench_update_path(ctx: BenchContext) -> None:
    """The update path's simulated side: networked bring-up, page writes
    on three entities, ``sync()``.  Datagrams are built inserts then
    removes, homes ascending, arrival order within a home, cut into
    ``update_batch_size`` chunks, and only then shuffled and paced — build
    them in any other order and the final sim time moves."""
    cluster = Cluster(4, cost="new-cluster", seed=7)
    ents = workloads.instantiate(cluster, workloads.moldy(8, 256, seed=7))
    with ConCORD(cluster, ConCORDConfig(
            use_network=True, update_batch_size=2,
            n_represented=256)) as concord:
        concord.initial_scan()
        for i, e in enumerate(ents[:3]):
            e.write_pages(np.arange(10 + i),
                          np.arange(10 + i, dtype=np.uint64) + 70_000 + 100 * i)
        concord.sync()
        net = cluster.network.stats
        ctx.record("msgs_sent", net.msgs_sent)
        ctx.record("bytes_sent", net.bytes_sent)
        ctx.record("updates_sent", net.updates_sent)
        ctx.record("events_run", cluster.engine.events_run)
        ctx.record("sim_elapsed_s", cluster.engine.now)
        ctx.record("global_epoch", concord.tracing.membership.global_epoch)
        _record_flat(ctx, concord.tracing.membership.epoch_vector().tolist(),
                     "epoch")


def _bench_serve_throughput(ctx: BenchContext) -> None:
    """Open-loop traffic through the serving frontend (docs/SERVING.md)."""
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec

    p = ctx.params
    _cl, _e, concord, _eids = _bring_up(p["n_nodes"], p["sim_pages"],
                                        seed=3, serve=ServeConfig())
    with concord:
        rep = concord.serve(TrafficSpec(
            n_clients=p["clients"], duration_s=p["duration_s"],
            arrival="poisson", rate_per_client=p["rate"], zipf_s=1.2,
            population=128, seed=7))
    ctx.record("qps", rep.qps)
    ctx.record("completed", rep.completed)
    ctx.record("coalesced", rep.coalesced)
    ctx.record("cache_hit_rate", rep.hit_rate)
    ctx.record("p95_interactive_s", rep.p95_latency_s.get("interactive", 0.0))


def _bench_serve_cached_qps(ctx: BenchContext) -> None:
    """Closed-loop Zipfian traffic, cache off vs. on — the epoch cache's
    simulated-throughput win (the PR 5 >= 5x acceptance claim)."""
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec

    p = ctx.params

    def run(**serve_kw):
        cfg = ServeConfig(interactive_window_s=5e-6, batch_window_s=5e-6,
                          **serve_kw)
        _cl, _e, concord, _eids = _bring_up(p["n_nodes"], p["sim_pages"],
                                            seed=3, serve=cfg)
        with concord:
            return concord.serve(TrafficSpec(
                n_clients=p["clients"], duration_s=p["duration_s"],
                arrival="closed", zipf_s=1.5, population=64,
                nodewise_frac=0.8, seed=7))

    off = run(cache_capacity=0)
    on = run()
    ctx.record("uncached_qps", off.qps)
    ctx.record("cached_qps", on.qps)
    ctx.record("speedup", on.qps / off.qps if off.qps else 0.0)
    ctx.record("cache_hit_rate", on.hit_rate)
    ctx.record("coalesced", on.coalesced)


def _serve_snapshot(fe, concord) -> dict:
    """A frontend's whole ``ServeReport`` and every ``serve.*`` series."""
    return {"report": dataclasses.asdict(fe.report()),
            "registry": {name: series for name, series
                         in concord.obs.registry.snapshot().items()
                         if name.startswith("serve.")}}


def _bench_serve_counters(ctx: BenchContext) -> None:
    """One seeded closed loop that reaches every frontend counter.

    It coalesces, uses both QoS classes, is refused for both reasons, has
    cached answers invalidated by an update and by a failover, and
    overflows ``max_batch`` into re-drains.  The frontend pushes its
    counters once per batch; the pinned numbers are the ones per-request
    pushes gave.
    """
    from repro.queries.interface import QueryInterface
    from repro.serve import QoSClass, QueryFrontend, ServeConfig

    p = ctx.params
    n_clients = p["clients"]
    cluster, _e, concord, eids = _bring_up(4, 256, seed=11)
    engine, sim = concord.tracing, cluster.engine
    cfg = ServeConfig(max_batch=4, queue_limit=10, rate_limit_qps=40_000.0,
                      rate_burst=16)
    fe = QueryFrontend(cluster, QueryInterface(cluster, engine), cfg,
                       obs=concord.obs)
    rng = random.Random(7)
    hashes = sorted(int(h) for s in engine.shards for h in s.hashes())[:6]
    group = tuple(sorted(eids))
    left = [p["per_client"]] * n_clients

    def draw():
        if rng.random() < 0.85:
            return rng.choice(("num_copies", "entities")), \
                (rng.choice(hashes),)
        if rng.random() < 0.5:
            return "sharing", (group,)
        return "num_shared_content", (group, 2)

    def kick(cid):
        if left[cid] == 0:
            return
        left[cid] -= 1
        op, args = draw()
        fe.submit(op, args, issuing_node=cid % cluster.n_nodes,
                  qos=QoSClass.BATCH if cid % 4 == 0
                  else QoSClass.INTERACTIVE,
                  client_id=cid, on_done=on_done)

    def on_done(resp):
        cid = resp.request.client_id
        if resp.rejected:
            sim.after(max(resp.answer.retry_after_s, 1e-6), kick, cid)
        else:
            kick(cid)

    def update():
        engine.route_updates(0, inserts=[(hashes[0], 5)], removes=[])

    def burst():
        # Open-loop extras, all at one instant while the bucket is full:
        # the interactive queue overflows before the tokens run out.
        for _ in range(14):
            op, args = draw()
            fe.submit(op, args, client_id=n_clients, on_done=done.append)

    done = []
    with concord:
        sim.after(0.0, burst)
        for cid in range(n_clients):
            sim.after((cid + 1) * 1e-7, kick, cid)
        sim.after(4e-4, update)
        sim.after(9e-4, concord.fail_node, 2)
        sim.run()
        assert fe.pending == 0 and not any(left)
        snapshot = _serve_snapshot(fe, concord)
    # The scenario keeps covering what it is there for.
    rep = snapshot["report"]
    assert rep["coalesced"] and rep["cache_invalidations"]
    assert set(rep["rejected_by_reason"]) == {"queue_full", "rate_limited"}
    assert set(rep["mean_latency_s"]) == {"interactive", "batch"}
    assert rep["batches"] * 4 >= rep["admitted"] > rep["batches"]
    _record_flat(ctx, snapshot)


def _bench_serve_stale_token(ctx: BenchContext) -> None:
    """The one case where the token a miss's lookup computed must *not* be
    the token it is stored under: two node-wise misses in one batch, the
    second lookup detecting a dead home and so advancing every epoch
    after the first token was read."""
    from repro.queries.interface import QueryInterface
    from repro.serve import QueryFrontend, ServeConfig

    cluster, _e, concord, _eids = _bring_up(4, 256, seed=11)
    engine, sim = concord.tracing, cluster.engine
    fe = QueryFrontend(cluster, QueryInterface(cluster, engine),
                       ServeConfig(), obs=concord.obs)
    victim = ctx.params["victim"]
    hashes = sorted(int(h) for s in engine.shards for h in s.hashes())
    survivor_homed = next(h for h in hashes if engine.home_node(h) != victim)
    victim_homed = next(h for h in hashes if engine.home_node(h) == victim)
    done = []

    def batch():
        # One window, lookups in this order: the first token is read
        # before the second lookup's detection bumps every epoch.
        for h in (survivor_homed, victim_homed):
            fe.submit("num_copies", (h,), on_done=done.append)

    with concord:
        # Dead but undetected: no node_failed(), the epochs stand still.
        cluster.network.set_node_up(victim, False)
        engine.shards[victim].crash()
        sim.after(0.0, batch)
        sim.after(1e-3, batch)
        sim.run()
        assert fe.pending == 0 and engine.stats.failovers == 1
        snapshot = {**_serve_snapshot(fe, concord),
                    "answers": [[r.cache_hit, dataclasses.asdict(r.answer)]
                                for r in done]}
    # Both first-batch entries must still be there for the second batch:
    # stored under the pre-detection token, the first would invalidate.
    assert [r.cache_hit for r in done] == [False, False, True, True]
    assert snapshot["report"]["cache_invalidations"] == 0
    assert done[1].answer.degraded
    _record_flat(ctx, snapshot)


# ---------------------------------------------------------------------------
# Shard storage backends (docs/STORAGE.md): warm restart vs cold rebuild
# ---------------------------------------------------------------------------


def _bench_storage_restart(ctx: BenchContext) -> None:
    """Cold full-rebuild repair vs warm delta catch-up after a restart.

    The count metrics pin the headline property: the warm path's
    applied operations scale with the divergence accumulated while the
    node was down, not with total content.
    """
    p = ctx.params

    def fresh():
        cluster = Cluster(p["n_nodes"], cost="new-cluster", seed=4)
        ents = workloads.instantiate(
            cluster, workloads.moldy(p["n_nodes"], p["sim_pages"], seed=4))
        return cluster, ents

    def mutate(ents):
        rng = np.random.default_rng(6)
        for e in ents[:2]:
            e.mutate_random(p["mutate"], rng)

    root = tempfile.mkdtemp(prefix="concord-bench-store-")
    try:
        scfg = StorageConfig(backend=p["backend"], root=root)
        cluster, _ents = fresh()
        with ConCORD(cluster, ConCORDConfig(storage=scfg)) as c:
            c.initial_scan()
            total_copies = c.tracing.total_copies

        # Warm: recover segments, rebase monitors, delta-reconcile.
        cluster2, ents2 = fresh()
        mutate(ents2)
        with ConCORD(cluster2, ConCORDConfig(storage=scfg)) as c2:
            assert c2.storage_recovered, "nothing recovered from storage"
            rep_warm = c2.warm_restart()

        # Cold: same divergent memory, full NSM rebuild from scratch.
        cluster3, ents3 = fresh()
        mutate(ents3)
        with ConCORD(cluster3, ConCORDConfig()) as c3:
            c3.initial_scan()
            rep_cold = c3.repair(full=True)

        warm_applied = rep_warm.copies_restored + rep_warm.copies_removed
        cold_applied = rep_cold.copies_restored + rep_cold.copies_removed
        assert warm_applied < cold_applied, \
            "warm repair applied no fewer ops than a cold rebuild"
        ctx.record("total_copies", total_copies)
        ctx.record("cold_applied", cold_applied)
        ctx.record("warm_applied", warm_applied)
        ctx.record("deterministic", 1)
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: The commit-point stream: (operation, width, hashes, entities) per batch.
#: ``fresh`` hashes are new to the shard, so a batch's distinct-hash count
#: is its width, exact against the commit threshold; ``pool`` hashes are
#: drawn with replacement from those inserted so far (repeated pairs, and
#: for a remove also pairs the shard never held); ``absent`` ones were
#: never inserted.  Entities are 0..7, or 0..71 on ``wide`` batches.
_COMMIT_STREAM = (
    ("insert", 20000, "fresh", "narrow"),  # commits at once, empty log
    ("insert", 7, "pool", "narrow"),       # a datagram's width, repeats
    ("insert", 8, "pool", "wide"),         # holders >= 64, non-empty log
    ("insert", 64, "pool", "narrow"),
    ("remove", 64, "pool", "wide"),
    ("remove", 7, "absent", "narrow"),
    ("remove", 8, "absent", "narrow"),
    ("insert", 4095, "fresh", "narrow"),   # the log crosses mid-batch
    ("insert", 4095, "fresh", "narrow"),   # empty log, one short
    ("insert", 1, "fresh", "narrow"),      # ... and the one that tips it
    ("insert", 4096, "fresh", "narrow"),   # one batch at the threshold
    ("insert", 20000, "fresh", "narrow"),  # threshold now above 4096
    ("insert", 4096, "fresh", "narrow"),   # so this one buffers
    ("remove", 4096, "pool", "narrow"),
    ("insert", 20000, "pool", "wide"),
    ("remove", 20000, "pool", "wide"),
    ("insert", 64, "pool", "narrow"),
    ("remove", 8, "pool", "narrow"),
    ("insert", 7, "pool", "wide"),
    ("remove", 1, "pool", "wide"),
    ("remove", 20000, "pool", "narrow"),
    ("insert", 4096, "pool", "narrow"),
    ("remove", 20000, "absent", "narrow"),
    ("remove", 20000, "pool", "narrow"),
    ("insert", 4095, "pool", "wide"),
    ("insert", 20000, "fresh", "wide"),
)


def _bench_storage_commit_points(ctx: BenchContext) -> None:
    """Where an mmap-backed shard commits, and what each commit holds.

    A seeded insert/remove stream (``_COMMIT_STREAM``) drives one
    LocalDHT; after every batch the storage generation is recorded, and
    at each new generation a digest of what a fresh reader ``load()``s
    (columns, sorted side tables, counters, epoch).  A change that moves
    a commit to another update moves a generation or a digest here.
    """
    rng = np.random.default_rng(ctx.params["seed"])
    root = tempfile.mkdtemp(prefix="concord-bench-commit-")
    try:
        store = MmapSegmentStorage(root, 0)
        table = LocalDHT(0, store)
        pool = np.empty(0, dtype=np.uint64)
        seen = 0
        for i, (op, width, source, entities) in enumerate(_COMMIT_STREAM):
            if source == "pool":
                hashes = pool[rng.integers(0, len(pool), width)]
            else:
                hashes = rng.integers(1, 1 << 63, width, dtype=np.uint64)
            eids = rng.integers(0, 8 if entities == "narrow" else 72, width)
            table.epoch = i + 1
            if op == "insert":
                if source == "fresh":
                    pool = np.concatenate([pool, hashes])
                table.bulk_insert(hashes, eids)
            else:
                before = table.n_copies     # folds in RAM, no commit
                table.bulk_remove(hashes, eids)
                ctx.record(f"batch{i:02d}.applied", before - table.n_copies)
            ctx.record(f"batch{i:02d}.gen", store.generation)
            if store.generation != seen:
                seen = store.generation
                s = MmapSegmentStorage(root, 0).load()
                ctx.record(f"gen{seen:02d}.state", _digest((
                    s.ph.tolist(), s.pm.tolist(), sorted(s.wide.items()),
                    sorted((h, sorted(ex.items()))
                           for h, ex in s.overflow().items()),
                    s.n_hashes, s.n_copies, s.epoch)))
        ctx.record("n_hashes", table.n_hashes)
        ctx.record("n_copies", table.n_copies)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Elastic membership (docs/ELASTICITY.md): resize cost + flash-crowd scaling
# ---------------------------------------------------------------------------


def _bench_ring_resize(ctx: BenchContext) -> None:
    """Entries moved per ``add_node()`` resize, per placement policy.

    The deterministic fractions pin the acceptance claim: the remap-
    minimizing policies stay within 2x the theoretical minimum
    m/(n+m), while naive mod-N remaps ~n/(n+1) of everything.  A real
    engine join per policy cross-checks the sampled map fractions
    against actual rows transferred.
    """
    from repro.dht.partition import (PLACEMENT_POLICIES,
                                     entries_moved_fraction)

    p = ctx.params
    n = p["n_nodes"]
    minimum = 1.0 / (n + 1)
    for policy in PLACEMENT_POLICIES:
        frac = entries_moved_fraction(policy, n, n + 1,
                                      sample=p["sample"], seed=0)
        ctx.record(f"map_fraction.{policy}", frac)
        cluster = Cluster(n, cost="old-cluster", seed=5)
        eng = ContentTracingEngine(cluster, use_network=False,
                                   placement=policy)
        rng = np.random.default_rng(9)
        hashes = rng.integers(1, 2**63, size=p["rows"], dtype=np.uint64)
        eng.route_updates(0, inserts=[(int(h), int(h) % 8 + 1)
                                      for h in hashes], removes=[])
        eng.membership.begin_join()
        rep = eng.membership.complete_join()
        ctx.record(f"entries_moved.{policy}", rep.entries_moved)
        ctx.record(f"entries_total.{policy}", rep.entries_total)
    assert entries_moved_fraction("hd", n, n + 1,
                                  sample=p["sample"]) <= 2 * minimum, \
        "hd placement moved more than 2x the theoretical minimum"
    ctx.record("theoretical_minimum", minimum)
    ctx.record("deterministic", 1)


def _bench_serve_flash_crowd(ctx: BenchContext) -> None:
    """Flash crowd under the autoscaler: open-loop overload on a small
    ring, live-joining to the target while serving, cache verified."""
    from repro.serve.autoscaler import AutoscalerConfig
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec

    p = ctx.params
    _cl, _e, concord, _eids = _bring_up(
        p["n_nodes"], p["sim_pages"], seed=3,
        serve=ServeConfig(verify_cache=True), placement=p["placement"])
    with concord:
        rep = concord.serve(
            TrafficSpec(n_clients=p["clients"], duration_s=p["duration_s"],
                        arrival="poisson", rate_per_client=p["rate"],
                        zipf_s=1.2, population=128, seed=7),
            autoscale=AutoscalerConfig(max_nodes=p["target"],
                                       queue_depth_high=0.0,
                                       p95_high_s=0.0))
        joins = concord._last_autoscaler.joins
    assert rep.cache_violations == 0, \
        f"{rep.cache_violations} cache violation(s) during autoscale"
    assert concord.cluster.n_nodes == p["target"], "did not reach target"
    ctx.record("qps", rep.qps)
    ctx.record("joins", len(joins))
    ctx.record("entries_moved", sum(r.entries_moved for r in joins))
    ctx.record("cache_violations", rep.cache_violations)
    ctx.record("p95_interactive_s", rep.p95_latency_s.get("interactive", 0.0))


# ---------------------------------------------------------------------------
# Set reconciliation + content-defined chunking (docs/RECONCILIATION.md)
# ---------------------------------------------------------------------------


def _bench_repair_divergence(ctx: BenchContext) -> None:
    """Recon repair wire bytes scale with divergence, not total content.

    Every shard loses a contiguous hash range (the clustered shape real
    failures produce: failover holes, partial flushes) and is repaired
    twice from identical state — once with ``mode="recon"``, once with
    the linear full-rebuild replay.  The ``dht.repair.bytes_wire``
    counter gives both costs on the same scale; the acceptance gate pins
    recon under 25% of the replay at 5% divergence.
    """
    p = ctx.params

    def diverged(d: float):
        _cl, _e, concord, _eids = _bring_up(p["n_nodes"], p["sim_pages"],
                                            seed=13)
        bound = np.uint64(min(int(d * 2**64), 2**64 - 1))
        for shard in concord.tracing.shards:
            hs, _lo, _wide = shard.items_arrays()
            if len(hs):
                shard.retain(hs >= bound)
        concord.tracing.membership.content_changed()
        return concord

    ratio_at = {}
    for d in p["divergences"]:
        pct = f"{d:g}"
        rep_recon = diverged(d).repair(mode="recon")
        rep_replay = diverged(d).repair(full=True)
        assert rep_replay.bytes_wire > 0, "replay repair moved no bytes"
        ratio = rep_recon.bytes_wire / rep_replay.bytes_wire
        ratio_at[d] = ratio
        ctx.record(f"recon_bytes.{pct}", rep_recon.bytes_wire)
        ctx.record(f"replay_bytes.{pct}", rep_replay.bytes_wire)
        ctx.record(f"recon_rounds.{pct}", rep_recon.rounds)
        ctx.record(f"bytes_ratio.{pct}", ratio)
    gate = ratio_at.get(0.05)
    if gate is not None:
        assert gate < 0.25, (
            f"recon repair moved {gate:.1%} of replay bytes at 5% "
            "divergence (acceptance bar: < 25%)")
    ctx.record("deterministic", 1)


def _bench_chunking_sharing(ctx: BenchContext) -> None:
    """CDC detects the sharing that fixed paging hides under byte shift.

    Two replicas of one stream, the second shifted by a few junk bytes:
    fixed ``page_size`` chunking reports zero sharing, the Gear chunker
    re-synchronises and keeps most of it (run_chunking's single point,
    gated).
    """
    from repro.memory.entity import Entity

    p = ctx.params
    rng = np.random.default_rng(17)
    base = rng.integers(0, 256, size=p["kb"] * 1024, dtype=np.uint8).tobytes()
    prefix = rng.integers(0, 256, size=p["shift"], dtype=np.uint8).tobytes()
    sharing = {}
    for mode in ("fixed", "cdc"):
        cluster = Cluster(2, cost="new-cluster", seed=17)
        a = Entity.from_bytes(cluster, 0, base)
        b = Entity.from_bytes(cluster, 1, prefix + base)
        concord = ConCORD(cluster, ConCORDConfig(chunking=mode))
        concord.initial_scan()
        sharing[mode] = concord.sharing([a.entity_id, b.entity_id]).value
    assert sharing["cdc"] > sharing["fixed"], (
        f"cdc detected no more sharing than fixed on a {p['shift']}-byte "
        f"shift: {sharing['cdc']:.4f} <= {sharing['fixed']:.4f}")
    ctx.record("sharing_fixed", sharing["fixed"])
    ctx.record("sharing_cdc", sharing["cdc"])
    ctx.record("deterministic", 1)


# ---------------------------------------------------------------------------
# Service-command fingerprints: every bundled service x mode, to the last bit
# ---------------------------------------------------------------------------

INTERACTIVE, BATCH = ExecMode.INTERACTIVE, ExecMode.BATCH
CKPT_COUNTERS = ("ckpt.shared_appends", "ckpt.pointer_records",
                 "ckpt.data_records")


class World:
    """Twelve moldy entities on five nodes, scanned once.

    Entities 0-10 go round-robin over nodes 0-3 (two or three per node,
    so a node's CPU is a sum over several SEs); the last entity — alone on
    the last node, which may therefore fail without taking a service
    entity along — is the participating entity.
    """

    def __init__(self, n_nodes: int = 5, n_entities: int = 12,
                 pages: int = 101, cost: str = "new-cluster") -> None:
        self.cluster = Cluster(n_nodes=n_nodes, cost=cost, seed=7)
        self.pe_node = n_nodes - 1
        memories = workloads.generate_pages(
            workloads.moldy(n_entities, pages, seed=7))
        self.ents = [
            Entity.create(self.cluster,
                          self.pe_node if i == n_entities - 1
                          else i % self.pe_node, memory)
            for i, memory in enumerate(memories)]
        self.ses = [e.entity_id for e in self.ents[:-1]]
        self.pes = [self.ents[-1].entity_id]
        self.setup()
        self.concord = ConCORD(self.cluster, ConCORDConfig(
            n_represented=3, obs=ObsConfig(trace=True)))
        self.concord.initial_scan()

    def setup(self) -> None:
        """Hook: entities a service needs before bring-up."""

    def go_stale(self, fraction: float = 0.2) -> None:
        """Overwrite part of every entity without telling the DHT."""
        rng = np.random.default_rng(11)
        for e in self.ents:
            e.mutate_random(fraction, rng)

    def scope(self) -> ServiceScope:
        return ServiceScope.of(self.ses, self.pes)


#: What a recipe builds: the world, the service to run in it, the scope
#: to run it over, and ``outcome(result) -> dict`` of what it produced.
Recipe = tuple[World, ServiceCallbacks, ServiceScope,
               Callable[[CommandResult], dict]]


def _node_states(result: CommandResult) -> dict:
    return {"states": [(n, dataclasses.astuple(c.state))
                       for n, c in sorted(result.contexts.items())
                       if c.state is not None]}


def _ckpt_outcome(world: World, store: CheckpointStore, restore):
    def outcome(result: CommandResult) -> dict:
        sums = [sum(getattr(c.state, f) for c in result.contexts.values()
                    if c.state is not None)
                for f in ("shared_appends", "pointer_records", "data_records")]
        return {
            "shared_blocks_sha256": _digest(store.shared.blocks.tolist()),
            "records_sha256": _digest([(eid, f.records) for eid, f
                                       in sorted(store.se_files.items())]),
            "state_sums": dict(zip(CKPT_COUNTERS, sums)),
            "restores_exactly": all(
                bool((restore(e.entity_id) == e.pages).all())
                for e in world.ents if e.entity_id in world.ses),
        }
    return outcome


def _null() -> Recipe:
    w = World()
    w.go_stale()
    return w, NullService(), w.scope(), _node_states


def _checkpoint(world: World | None = None, **options) -> Recipe:
    w = world or World()
    w.go_stale()
    store = CheckpointStore()
    return (w, CollectiveCheckpoint(store, **options), w.scope(),
            _ckpt_outcome(w, store, lambda eid: restore_entity(store, eid)))


def _checkpoint_dead_pe() -> Recipe:
    """The checkpoint after the PE's host failed: every replica offered on
    it fails over (``INVOKE_FAILED(..., "node-down")``)."""
    recipe = _checkpoint()
    w = recipe[0]
    w.concord.fail_node(w.pe_node)
    w.concord.detect_failures()
    return recipe


def _incremental() -> Recipe:
    w = World()
    base = CheckpointStore()
    w.concord.execute_command(CollectiveCheckpoint(base), w.scope())
    w.go_stale(0.3)
    w.concord.sync()
    w.go_stale(0.1)
    inc = CheckpointStore()
    return (w, IncrementalCheckpoint(inc, base), w.scope(), _ckpt_outcome(
        w, inc, lambda eid: restore_incremental_entity(inc, base, eid)))


def _migrate() -> Recipe:
    w = World()
    w.go_stale()
    # Entities 0 and 4 leave node 0 for node 2; everyone else participates.
    return (w, CollectiveMigration(MigrationPlan({0: 2, 4: 2})),
            ServiceScope.of([0, 4], [eid for eid in w.ses + w.pes
                                     if eid not in (0, 4)]), _node_states)


def _dedup() -> Recipe:
    w = World()
    w.go_stale()
    svc = CollectiveDedup()
    return w, svc, w.scope(), lambda result: {
        "saved_bytes": svc.saved_bytes_total(),
        "merged_pages": svc.merged_pages_total(),
        "merged_sha256": _digest([(n, sorted(c.state.merged.items()))
                                  for n, c in sorted(result.contexts.items())
                                  if c.state is not None])}


def _replicate() -> Recipe:
    class WithStores(World):
        def setup(self) -> None:
            self.stores = make_replica_stores(self.cluster, [2, 3], 512)

    w = WithStores()
    w.go_stale()
    return (w, CollectiveReplication(w.concord, 3, w.stores), w.scope(),
            lambda result: {
                **_node_states(result),
                "stores_sha256": _digest([(n, s.cursor,
                                           s.entity.pages.tolist())
                                          for n, s in sorted(w.stores.items())
                                          ])})


def _reconstruct() -> Recipe:
    class WithTarget(World):
        def setup(self) -> None:
            # The stored image is entity 1's memory as of now; the blank
            # target it is rebuilt into lives on node 3.
            self.image = self.ents[1].pages.copy()
            self.target = Entity.create(
                self.cluster, 3, np.zeros(len(self.image), dtype=np.uint64),
                name="target")

    w = WithTarget()
    hashes = page_hashes(w.image)
    backing = CheckpointStore()
    backing.se_file(777).append_columns(
        np.full(len(hashes), _DATA), np.arange(len(hashes)), hashes, w.image)
    descriptor = ImageDescriptor(entity_id=w.target.entity_id, hashes=hashes)
    register_image(w.concord, w.target, descriptor)
    w.go_stale()
    return (w, CollectiveReconstruction(descriptor, backing,
                                        backing_entity_id=777),
            ServiceScope.of([w.target.entity_id],
                            [e.entity_id for e in w.ents]),
            lambda result: {
                **_node_states(result),
                "image_rebuilt": bool((w.target.pages == w.image).all())})


#: The service zoo — each service exported by ``repro.services`` over one
#: fixed stale world (more entities than nodes, a participating entity,
#: memory mutated after the last scan) — as name -> (recipe, the command
#: modes the service supports).  Each run is a ``fingerprint.*`` spec;
#: other tests run their own scenarios over the same zoo.
RECIPES: dict[str, tuple[Callable[[], Recipe], tuple[ExecMode, ...]]] = {
    "null": (_null, (INTERACTIVE, BATCH)),
    "checkpoint": (_checkpoint, (INTERACTIVE, BATCH)),
    "checkpoint+refine_plan": (lambda: _checkpoint(refine_plan=True),
                               (BATCH,)),
    "checkpoint+pfs": (lambda: _checkpoint(pfs=ParallelFileSystem()),
                       (INTERACTIVE, BATCH)),
    "checkpoint+dead_pe": (_checkpoint_dead_pe, (INTERACTIVE, BATCH)),
    "checkpoint-wide-66x70": (
        lambda: _checkpoint(World(n_nodes=66, n_entities=70, pages=24,
                                  cost="big-cluster")),
        (INTERACTIVE, BATCH)),
    "incremental": (_incremental, (INTERACTIVE,)),
    "migrate": (_migrate, (INTERACTIVE, BATCH)),
    "dedup": (_dedup, (INTERACTIVE, BATCH)),
    "replicate": (_replicate, (INTERACTIVE, BATCH)),
    "reconstruct": (_reconstruct, (INTERACTIVE, BATCH)),
}


def fingerprint(recipe: Recipe, mode: ExecMode) -> dict:
    """Execute one recipe's command and fingerprint everything it decided:
    the wall time, every phase's wall/cpu/comm/max_node_cpu, the
    ``CommandStats`` with per-node tx/rx bytes, digests of the
    ``CommandTracer`` event stream and of every node's ``cmd.cpu`` /
    ``cmd.comm`` spans (not only the critical path's that ``phases``
    reports), and what the service produced."""
    world, service, scope, outcome = recipe
    reg = world.concord.metrics()
    before = {c: reg.value(c) for c in CKPT_COUNTERS}
    spans = world.concord.obs.tracer
    spans.clear()
    tracer = CommandTracer()
    result = world.concord.execute_command(service, scope, mode=mode, seed=5,
                                           tracer=tracer)
    entry = {
        "success": result.success,
        "wall_time": result.wall_time,
        "phases": {name: {f: getattr(p, f)
                          for f in ("wall", "cpu", "comm", "max_node_cpu")}
                   for name, p in result.phases.items()},
        "stats": dataclasses.asdict(result.stats),
        "n_events": len(tracer),
        "events_sha256": _digest([(e.kind.value, e.data) for e in tracer]),
        "handled_private_sha256": _digest(
            sorted(result.handled_private.items())),
        "n_spans": len(spans),
        "spans_sha256": _digest([(s.name, s.node, s.phase, s.t0, s.t1)
                                 for s in spans]),
        "outcome": outcome(result),
    }
    if isinstance(service, CollectiveCheckpoint):
        entry["counters"] = {c: reg.value(c) - before[c]
                             for c in CKPT_COUNTERS}
    world.concord.close()
    return entry


def _bench_fingerprint(ctx: BenchContext) -> None:
    build, _modes = RECIPES[ctx.params["recipe"]]
    _record_flat(ctx, fingerprint(build(), ExecMode(ctx.params["mode"])))


# ---------------------------------------------------------------------------
# The default runner
# ---------------------------------------------------------------------------


def build_default_runner() -> BenchRunner:
    """Every registered benchmark."""
    r = BenchRunner()

    # Macro sim benchmarks.
    r.register(BenchSpec(
        "cmd.null", _bench_null,
        params={"n_nodes": 8, "sim_pages": 1024, "R": 256},
        doc="null service command, interactive+batch (Fig 10 point)"))
    r.register(BenchSpec(
        "cmd.null.big", _bench_null,
        params={"n_nodes": 32, "sim_pages": 1024, "R": 256,
                "testbed": "big-cluster"},
        doc="null service command at 32 nodes (Fig 12 point)"))
    r.register(BenchSpec(
        "ckpt.collective", _bench_ckpt,
        params={"n_nodes": 4, "sim_pages": 2048, "R": 64},
        doc="collective checkpoint wall + compression (Fig 14/15 point)"))
    r.register(BenchSpec(
        "ckpt.collective.big", _bench_ckpt,
        params={"n_nodes": 16, "sim_pages": 2048, "R": 256,
                "testbed": "big-cluster"},
        doc="collective checkpoint at 16 Big-cluster nodes (Fig 17 point)"))
    r.register(BenchSpec(
        "query.collective", _bench_query,
        params={"n_nodes": 4, "sim_pages": 4096, "R": 64},
        doc="collective sharing/num_shared latency, distributed vs single"))
    r.register(BenchSpec(
        "monitor.scan", _bench_monitor,
        params={"sim_pages": 4096, "hash_algo": "sfh"},
        doc="memory update monitor steady-state scan cost (Sec 5.2 shape)"))
    r.register(BenchSpec(
        "net.update_scan", _bench_update_network,
        params={"n_nodes": 16, "sim_pages": 1024, "R": 1024},
        doc="initial full scan over the simulated network (Fig 7 point)"))
    r.register(BenchSpec(
        "net.update_path", _bench_update_path,
        doc="page writes synced over the simulated network: messages, "
            "bytes, events, final sim time and every shard epoch"))
    r.register(BenchSpec(
        "serve.throughput", _bench_serve_throughput,
        params={"n_nodes": 4, "sim_pages": 256, "clients": 16,
                "duration_s": 0.2, "rate": 2000.0},
        doc="open-loop client traffic through the serving frontend"))
    r.register(BenchSpec(
        "serve.cached_qps", _bench_serve_cached_qps,
        params={"n_nodes": 4, "sim_pages": 256, "clients": 16,
                "duration_s": 0.2},
        doc="epoch-cache throughput win, closed-loop Zipfian "
            "(cache off vs on)"))
    r.register(BenchSpec(
        "serve.counters", _bench_serve_counters,
        params={"clients": 12, "per_client": 40},
        doc="seeded closed loop reaching every frontend counter: whole "
            "ServeReport and every serve.* series"))
    r.register(BenchSpec(
        "serve.counters.stale_token", _bench_serve_stale_token,
        params={"victim": 2},
        doc="two misses in one batch, the second detecting a dead home: "
            "the first is stored under a re-derived token"))

    # Shard storage backends (docs/STORAGE.md).
    r.register(BenchSpec(
        "storage.restart.cold_vs_warm", _bench_storage_restart,
        params={"backend": "mmap", "n_nodes": 4, "sim_pages": 1024,
                "mutate": 0.05},
        doc="warm restart delta catch-up vs cold full-NSM rebuild"))
    r.register(BenchSpec(
        "storage.commit_points", _bench_storage_commit_points,
        params={"seed": 28},
        doc="mmap shard under a seeded insert/remove stream at widths "
            "1..20000: the generation after every batch and a digest of "
            "each committed state"))

    # Set reconciliation + content-defined chunking
    # (docs/RECONCILIATION.md).
    r.register(BenchSpec(
        "repair.bytes_vs_divergence", _bench_repair_divergence,
        params={"n_nodes": 4, "sim_pages": 3000,
                "divergences": (0.01, 0.05, 0.2, 0.5, 1.0)},
        doc="recon repair wire bytes vs the linear full-rebuild replay "
            "at clustered divergence (recon < 25% of replay at 5%)"))
    r.register(BenchSpec(
        "chunking.sharing_detected", _bench_chunking_sharing,
        params={"kb": 64, "shift": 7},
        doc="sharing detected on a byte-shifted replica: cdc must beat "
            "fixed page chunking"))

    # Elastic membership (docs/ELASTICITY.md).
    r.register(BenchSpec(
        "ring.resize.entries_moved", _bench_ring_resize,
        params={"n_nodes": 8, "sample": 50_000, "rows": 20_000},
        doc="entries moved per add_node resize, per placement policy "
            "(hd <= 2x theoretical minimum; mod ~ n/(n+1))"))
    r.register(BenchSpec(
        "serve.flash_crowd", _bench_serve_flash_crowd,
        params={"n_nodes": 4, "target": 8, "sim_pages": 256, "clients": 16,
                "duration_s": 0.1, "rate": 4000.0, "placement": "hd"},
        doc="autoscaled flash crowd 4->8 while serving, cache verified"))

    # Every bundled service command x mode, fingerprinted to the last bit.
    for name, (_build, modes) in RECIPES.items():
        for mode in modes:
            r.register(BenchSpec(
                f"fingerprint.{name}.{mode.value}", _bench_fingerprint,
                params={"recipe": name, "mode": mode.value},
                doc=f"{name} command, {mode.value} mode, over one stale "
                    "world: phases, stats, event/span/output digests"))
    return r
