"""The benchmark suite: every pinned number as a registered BenchSpec.

Every metric is a value of the modelled machine (simulated seconds,
event counts, ratios of them) — a deterministic function of the seed —
so the whole suite is compared by equality against the golden file
``baselines/ci.json`` (docs/BENCHMARKS.md): twelve of the specs in tier-1,
all fourteen in CI.  Host time is not measured here: scan/insert rates,
pool dispatch, storage commit and repair host seconds are per-layer
metrics of the repo benchmark (``bench/``, ``BENCHMARK.json``).  Paper
figures run through :data:`repro.harness.experiments.ALL_EXPERIMENTS`
(``repro run``, ``pytest benchmarks/``), not through this suite.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from repro.core.command import ExecMode
from repro.core.concord import ConCORD
from repro.core.config import ConCORDConfig
from repro.core.scope import ServiceScope
from repro.dht.engine import ContentTracingEngine
from repro.dht.storage import StorageConfig
from repro.obs.bench import BenchContext, BenchRunner, BenchSpec
from repro.services.checkpoint import CheckpointStore, CollectiveCheckpoint
from repro.services.null import NullService
from repro.sim.cluster import Cluster
from repro.sim.costmodel import BIG_CLUSTER, NEW_CLUSTER
from repro import workloads

__all__ = ["build_default_runner"]


# ---------------------------------------------------------------------------
# Macro benchmarks: sim-time metrics over the real protocol (deterministic)
# ---------------------------------------------------------------------------


def _bring_up(n_nodes: int, sim_pages: int, R: int, seed: int,
              testbed: str = "new-cluster", kind: str = "moldy"):
    """Synced system; use the returned ConCORD as a context manager."""
    cluster = Cluster(n_nodes, cost=testbed, seed=seed)
    make = workloads.moldy if kind == "moldy" else workloads.nasty
    ents = workloads.instantiate(cluster, make(n_nodes, sim_pages, seed=seed))
    concord = ConCORD(cluster, ConCORDConfig(n_represented=R))
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
    cluster = Cluster(2, cost=NEW_CLUSTER, seed=9)
    workloads.instantiate(cluster, workloads.moldy(2, p["sim_pages"], seed=9))
    with ConCORD(
            cluster, ConCORDConfig(hash_algo=p["hash_algo"])) as concord:
        concord.initial_scan()
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
    cluster = Cluster(p["n_nodes"], cost=BIG_CLUSTER, seed=1)
    workloads.instantiate(cluster, workloads.nasty(p["n_nodes"],
                                                   p["sim_pages"], seed=1))
    with ConCORD(
            cluster, ConCORDConfig(use_network=True,
                                   n_represented=p["R"],
                                   update_batch_size=1)) as concord:
        concord.initial_scan()
    st = cluster.network.stats
    ctx.record("updates_sent", st.updates_sent)
    ctx.record("loss_rate", st.update_loss_rate)
    ctx.record("sim_elapsed_s", cluster.engine.now)


def _bench_serve_throughput(ctx: BenchContext) -> None:
    """Open-loop traffic through the serving frontend (docs/SERVING.md)."""
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec

    p = ctx.params
    cluster = Cluster(p["n_nodes"], cost="new-cluster", seed=3)
    workloads.instantiate(cluster, workloads.moldy(p["n_nodes"],
                                                   p["sim_pages"], seed=3))
    with ConCORD(
            cluster, ConCORDConfig(use_network=False,
                                   serve=ServeConfig())) as concord:
        concord.initial_scan()
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
        cluster = Cluster(p["n_nodes"], cost="new-cluster", seed=3)
        workloads.instantiate(cluster, workloads.moldy(p["n_nodes"],
                                                       p["sim_pages"],
                                                       seed=3))
        cfg = ServeConfig(interactive_window_s=5e-6, batch_window_s=5e-6,
                          **serve_kw)
        with ConCORD(
                cluster, ConCORDConfig(use_network=False,
                                       serve=cfg)) as concord:
            concord.initial_scan()
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
        rep = eng.add_node()
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
    cluster = Cluster(p["n_nodes"], cost="new-cluster", seed=3)
    workloads.instantiate(cluster, workloads.moldy(p["n_nodes"],
                                                   p["sim_pages"], seed=3))
    cfg = ServeConfig(verify_cache=True)
    with ConCORD(
            cluster, ConCORDConfig(use_network=False, serve=cfg,
                                   placement=p["placement"])) as concord:
        concord.initial_scan()
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
        cluster = Cluster(p["n_nodes"], cost="new-cluster", seed=13)
        workloads.instantiate(
            cluster, workloads.moldy(p["n_nodes"], p["sim_pages"], seed=13))
        concord = ConCORD(cluster, ConCORDConfig())
        concord.initial_scan()
        bound = np.uint64(min(int(d * 2**64), 2**64 - 1))
        for shard in concord.tracing.shards:
            hs, _lo, _wide = shard.items_arrays()
            if len(hs):
                shard.retain(hs >= bound)
        concord.tracing.bump_all_epochs()
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

    # Shard storage backends (docs/STORAGE.md).
    r.register(BenchSpec(
        "storage.restart.cold_vs_warm", _bench_storage_restart,
        params={"backend": "mmap", "n_nodes": 4, "sim_pages": 1024,
                "mutate": 0.05},
        doc="warm restart delta catch-up vs cold full-NSM rebuild"))

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
    return r
