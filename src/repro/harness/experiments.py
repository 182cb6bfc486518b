"""Runners that regenerate every table/figure of the paper's evaluation.

Sizing and coarse-graining
--------------------------

Two kinds of numbers appear here:

* **Real measurements** (Figs 5 and 8's compute component): our actual
  Python DHT operations timed with ``perf_counter`` at growing table sizes
  — the claim under test is *flatness* (O(1) hash-table behaviour), which
  transfers across implementation languages.
* **Modelled times** (everything else): the real protocol code runs at a
  coarse-grained scale where one simulated block represents
  ``R = n_represented`` real 4 KB blocks; per-block costs, wire sizes, and
  reported counts scale by R.  Redundancy *structure* is generated at the
  simulated granularity, so ratios/coverage are unaffected.  DESIGN.md
  discusses why this preserves each figure's shape.

Every runner returns a Table whose series names match the figure legend.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.command import ExecMode
from repro.core.concord import ConCORD
from repro.core.config import ConCORDConfig
from repro.core.scope import ServiceScope
from repro.dht.allocator import malloc_model_bytes, slab_model_bytes
from repro.dht.table import LocalDHT
from repro.services.checkpoint import (
    CheckpointStore,
    CollectiveCheckpoint,
    RawCheckpoint,
    restore_entity,
)
from repro.queries.reference import ReferenceModel
from repro.services.null import NullService
from repro.sim.cluster import Cluster
from repro.sim.costmodel import BIG_CLUSTER, MB, NEW_CLUSTER, OLD_CLUSTER
from repro.util.stats import Table
from repro import workloads

__all__ = [
    "run_fig05", "run_fig06", "run_fig07", "run_fig08", "run_fig09",
    "run_fig10", "run_fig11", "run_fig12", "run_fig14", "run_fig15",
    "run_fig16", "run_fig17", "run_monitor_overhead", "run_ablation_modes",
    "run_ablation_redundancy", "run_ablation_staleness",
    "run_ablation_throttle", "run_ablation_rdma",
    "run_ablation_incremental", "run_faults", "run_chunking",
    "ALL_EXPERIMENTS",
]

GB = 1024**3
PAGE = 4096


def _build(n_nodes: int, testbed, spec, n_represented: int = 1, seed: int = 0,
           use_network: bool = False):
    cluster = Cluster(n_nodes, cost=testbed, seed=seed)
    entities = workloads.instantiate(cluster, spec)
    concord = ConCORD(
        cluster, ConCORDConfig(use_network=use_network,
                               n_represented=n_represented))
    concord.initial_scan()
    eids = [e.entity_id for e in entities]
    return cluster, entities, concord, eids


# ---------------------------------------------------------------------------
# Fig 5: CPU time of DHT updates vs table size (REAL measurement)
# ---------------------------------------------------------------------------

def _time_op(op, reps: int, rounds: int = 3) -> float:
    """Best-of-N timing with GC paused (timeit's methodology)."""
    import gc

    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                op()
            best = min(best, (time.perf_counter() - t0) / reps)
    finally:
        if was_enabled:
            gc.enable()
    return best


def run_fig05(sizes=(100_000, 400_000, 1_600_000, 4_000_000),
              reps: int = 20_000) -> Table:
    """Fig 5: insert/delete cost is independent of unique hashes stored.

    Measures our actual Python DHT/NSM structures; the paper's x-axis
    reaches 56 M hashes on 16 GB nodes — we sweep what fits comfortably in
    RAM, which is enough to exhibit (or refute) flatness.
    """
    t = Table("Fig 5: CPU time of DHT updates vs unique hashes in local DHT",
              "hashes_in_dht")
    s_ih = t.add_series("insert_hash_ns")
    s_dh = t.add_series("delete_hash_ns")
    s_ib = t.add_series("insert_block_ns")
    s_db = t.add_series("delete_block_ns")
    rng = np.random.default_rng(0)
    for size in sizes:
        dht = LocalDHT()
        keys = rng.integers(0, 2**63, size=size, dtype=np.uint64)
        dht.bulk_insert(keys, 0)
        probe = rng.integers(2**63, 2**64 - 1, size=reps * 3,
                             dtype=np.uint64).tolist()
        it = iter(probe)
        s_ih.append(_time_op(lambda: dht.insert(next(it), 1), reps) * 1e9)
        it = iter(probe)
        s_dh.append(_time_op(lambda: dht.remove(next(it), 1), reps) * 1e9)
        # NSM-side block map: hash -> [(entity, page)]
        nsm_map: dict[int, list] = {int(k): [(0, 0)] for k in keys[:size]}
        it = iter(probe)
        s_ib.append(_time_op(
            lambda: nsm_map.setdefault(next(it), []).append((1, 0)),
            reps) * 1e9)
        it = iter(probe)
        s_db.append(_time_op(lambda: nsm_map.pop(next(it), None), reps) * 1e9)
        t.x_values.append(size)
        del dht, nsm_map
    t.note("real measured ns on this host; paper plateaus: insert~5.5us, "
           "delete~4.2us (C impl) — claim under test is flatness")
    return t


# ---------------------------------------------------------------------------
# Fig 6: per-node DHT memory vs entity size (allocator models)
# ---------------------------------------------------------------------------

def run_fig06(mem_gb=(1, 2, 4, 8, 16, 32, 64, 128, 256)) -> Table:
    """Fig 6: DHT footprint, malloc vs custom allocator, 1 process/host."""
    t = Table("Fig 6: per-node DHT memory vs entity memory size (8 nodes, "
              "1 process/host)", "entity_gb")
    s_mm = t.add_series("malloc_mb")
    s_cm = t.add_series("custom_mb")
    s_mo = t.add_series("malloc_overhead_pct")
    s_co = t.add_series("custom_overhead_pct")
    n_nodes = 8
    for gb in mem_gb:
        # All-distinct worst case: every page is one DHT entry; the hash
        # space spreads uniformly, so each daemon holds total/n_nodes —
        # with one gb-sized entity per host that is gb/PAGE entries.
        entries_per_node = int(gb * GB / PAGE)
        m = malloc_model_bytes(entries_per_node, n_entities=n_nodes)
        c = slab_model_bytes(entries_per_node, n_entities=n_nodes)
        t.x_values.append(gb)
        s_mm.append(m / MB)
        s_cm.append(c / MB)
        s_mo.append(m / (gb * GB) * 100)
        s_co.append(c / (gb * GB) * 100)
    t.note("paper: ~8% custom overhead at 16 GB, ~12.5% at 256 GB; malloc "
           "consistently higher")
    return t


# ---------------------------------------------------------------------------
# Fig 7: update message volume and loss rate vs nodes (Big-cluster)
# ---------------------------------------------------------------------------

def run_fig07(node_counts=(1, 2, 4, 8, 16, 32, 64, 128),
              gb_per_entity: float = 4.0, R: int = 1024) -> Table:
    """Fig 7: initial full scan of 4 GB/entity/node over the real
    (simulated) network; volume grows linearly, loss with scale.

    Updates go out one per page ("each node is sending an update for each
    page of each entity, which is the worst case"), paced by the scan
    itself; loss emerges from per-packet receive-queue overflow.
    """
    t = Table("Fig 7: update volume and loss vs nodes (Big-cluster, "
              "4 GB/entity, initial scan)", "nodes")
    s_total = t.add_series("updates_millions")
    s_lost = t.add_series("loss_rate_pct")
    sim_pages = int(gb_per_entity * GB / PAGE / R)
    for n in node_counts:
        cluster = Cluster(n, cost=BIG_CLUSTER, seed=1)
        workloads.instantiate(cluster, workloads.nasty(n, sim_pages, seed=1))
        with ConCORD(
                cluster, ConCORDConfig(use_network=True,
                                       n_represented=R,
                                       update_batch_size=1)) as concord:
            concord.initial_scan()
        st = cluster.network.stats
        t.x_values.append(n)
        s_total.append(st.updates_sent / 1e6)
        s_lost.append(st.update_loss_rate * 100)
    t.note(f"one simulated per-page update represents R={R} real updates")
    return t


# ---------------------------------------------------------------------------
# Fig 8: node-wise query latency vs local table size
# ---------------------------------------------------------------------------

def run_fig08(sizes=(250_000, 1_000_000, 4_000_000),
              reps: int = 50_000) -> Table:
    """Fig 8: query latency is ping-dominated and flat in table size.

    Compute time is measured for real on our DHT; the communication
    component is the Old-cluster model's round trip.
    """
    t = Table("Fig 8: node-wise query latency vs unique hashes in local DHT",
              "hashes_in_dht")
    s_eq = t.add_series("entities_query_ns")
    s_cq = t.add_series("num_copies_query_ns")
    s_ec = t.add_series("entities_compute_ns")
    s_cc = t.add_series("num_copies_compute_ns")
    rng = np.random.default_rng(1)
    rtt_ns = OLD_CLUSTER.rtt() * 1e9
    for size in sizes:
        dht = LocalDHT()
        keys = rng.integers(0, 2**63, size=size, dtype=np.uint64)
        dht.bulk_insert(keys, 0)
        probes = rng.choice(keys, size=reps * 3).tolist()
        it = iter(probes)
        c_copies = _time_op(lambda: dht.num_copies(next(it)), reps) * 1e9
        it = iter(probes)
        c_entities = _time_op(lambda: dht.entity_ids(next(it)), reps) * 1e9
        t.x_values.append(size)
        s_cc.append(c_copies)
        s_ec.append(c_entities)
        s_cq.append(c_copies + rtt_ns)
        s_eq.append(c_entities + rtt_ns)
        del dht
    t.note("query = measured compute + modelled Old-cluster RTT; paper "
           "shows the same ping-dominated flat lines")
    return t


# ---------------------------------------------------------------------------
# Fig 9: collective query latency, single vs distributed
# ---------------------------------------------------------------------------

def run_fig09(hash_millions=(2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40),
              R: int = 256) -> Table:
    """Fig 9: distributed execution flattens at ~2 M hashes/node; the
    single-node curve grows linearly; crossover at 2-4 M total."""
    t = Table("Fig 9: collective query latency vs total hashes (Old-cluster)",
              "total_hashes_millions")
    s_sh_s = t.add_series("sharing_single_ms")
    s_ns_s = t.add_series("num_shared_single_ms")
    s_sh_d = t.add_series("sharing_distributed_ms")
    s_ns_d = t.add_series("num_shared_distributed_ms")
    per_node = 2_000_000  # constant hashes/node in the distributed case
    for total_m in hash_millions:
        total = total_m * 1_000_000
        n_nodes = max(1, total // per_node)
        sim_pages = per_node // R
        spec = workloads.nasty(n_nodes, sim_pages, seed=2)
        cluster, _e, concord, eids = _build(n_nodes, OLD_CLUSTER, spec,
                                            n_represented=R)
        t.x_values.append(total_m)
        s_sh_d.append(concord.sharing(eids, exec_mode=ExecMode.DISTRIBUTED)
                      .latency * 1e3)
        s_ns_d.append(concord.num_shared_content(eids, 2,
                                                 exec_mode=ExecMode.DISTRIBUTED)
                      .latency * 1e3)
        s_sh_s.append(concord.sharing(eids, exec_mode=ExecMode.SINGLE)
                      .latency * 1e3)
        s_ns_s.append(concord.num_shared_content(eids, 2, exec_mode=ExecMode.SINGLE)
                      .latency * 1e3)
    t.note("distributed keeps ~2 M hashes/node as nodes grow; paper: "
           "crossover at 2-4 M hashes, distributed stable ~300 ms")
    return t


# ---------------------------------------------------------------------------
# Figs 10-12: null service command
# ---------------------------------------------------------------------------

def _null_wall(n_nodes, testbed, spec, R, mode, seed=3):
    _c, _e, concord, eids = _build(n_nodes, testbed, spec,
                                   n_represented=R, seed=seed)
    result = concord.execute_command(NullService(), ServiceScope.of(eids),
                                     mode=mode)
    return result


def run_fig10(mem_mb=(256, 512, 1024, 2048, 4096, 8192), R: int = 256) -> Table:
    """Fig 10: null command time vs per-SE memory (8 SEs, New-cluster)."""
    t = Table("Fig 10: null service command vs memory per process "
              "(8 processes, New-cluster)", "mem_mb_per_process")
    s_i = t.add_series("interactive_ms")
    s_b = t.add_series("batch_ms")
    for mb in mem_mb:
        sim_pages = int(mb * MB / PAGE / R)
        spec = workloads.moldy(8, sim_pages, seed=3)
        t.x_values.append(mb)
        s_i.append(_null_wall(8, NEW_CLUSTER, spec, R,
                              ExecMode.INTERACTIVE).wall_time * 1e3)
        s_b.append(_null_wall(8, NEW_CLUSTER, spec, R,
                              ExecMode.BATCH).wall_time * 1e3)
    t.note("paper: linear in memory; interactive slightly above batch")
    return t


def run_fig11(proc_counts=(1, 2, 4, 8, 12), R: int = 256) -> Table:
    """Fig 11: null command vs #SEs with nodes scaling, 1 GB/process."""
    t = Table("Fig 11: null service command vs processes "
              "(1 GB/process, nodes scale with SEs)", "processes")
    s_i = t.add_series("interactive_ms")
    s_b = t.add_series("batch_ms")
    s_mb = t.add_series("traffic_per_node_mb")
    sim_pages = int(1 * GB / PAGE / R)
    for p in proc_counts:
        n_nodes = min(p, NEW_CLUSTER.n_nodes)
        spec = workloads.moldy(p, sim_pages, seed=3)
        r_i = _null_wall(n_nodes, NEW_CLUSTER, spec, R, ExecMode.INTERACTIVE)
        r_b = _null_wall(n_nodes, NEW_CLUSTER, spec, R, ExecMode.BATCH)
        t.x_values.append(p)
        s_i.append(r_i.wall_time * 1e3)
        s_b.append(r_b.wall_time * 1e3)
        s_mb.append(r_i.stats.total_bytes / max(1, n_nodes) / MB)
    t.note("paper: flat ~500-700 ms; ~15 MB traffic sourced+sinked per node")
    return t


def run_fig12(node_counts=(1, 2, 4, 8, 16, 32, 64, 128), R: int = 256,
              gb_per_proc: float = 1.0) -> Table:
    """Fig 12: null command response time on Big-cluster, 1-128 nodes."""
    t = Table("Fig 12: null service command response time (Big-cluster)",
              "nodes")
    s = t.add_series("response_ms")
    sim_pages = int(gb_per_proc * GB / PAGE / R)
    for n in node_counts:
        spec = workloads.moldy(n, sim_pages, seed=4)
        r = _null_wall(n, BIG_CLUSTER, spec, R, ExecMode.INTERACTIVE)
        t.x_values.append(n)
        s.append(r.wall_time * 1e3)
    t.note("paper: constant response time 1-128 nodes")
    return t


# ---------------------------------------------------------------------------
# Figs 14-17: collective checkpointing
# ---------------------------------------------------------------------------

def _checkpoint(concord, eids, mode=ExecMode.INTERACTIVE, pfs=None):
    store = CheckpointStore()
    result = concord.execute_command(CollectiveCheckpoint(store, pfs=pfs),
                                     ServiceScope.of(eids), mode=mode)
    return store, result


def run_fig14(node_counts=(1, 2, 4, 6, 8, 12, 16), sim_pages: int = 2048,
              workload: str = "moldy") -> Table:
    """Fig 14: checkpoint compression ratios (Raw/Raw-gzip/ConCORD/
    ConCORD-gzip + DoS), 1 process/node, Old-cluster."""
    t = Table(f"Fig 14({'a' if workload == 'moldy' else 'b'}): compression "
              f"ratio, {workload}", "nodes")
    s_raw = t.add_series("raw_pct")
    s_rgz = t.add_series("raw_gzip_pct")
    s_cc = t.add_series("concord_pct")
    s_cgz = t.add_series("concord_gzip_pct")
    s_dos = t.add_series("dos_pct")
    make = workloads.moldy if workload == "moldy" else workloads.nasty
    for n in node_counts:
        spec = make(n, sim_pages, seed=5)
        _c, _e, concord, eids = _build(n, OLD_CLUSTER, spec)
        store, _r = _checkpoint(concord, eids)
        raw = store.raw_size_bytes
        raw_gz, cc_gz = store.gzip_sizes_model(spec.gzip_content_ratio)
        t.x_values.append(n)
        s_raw.append(100.0)
        s_rgz.append(raw_gz / raw * 100)
        s_cc.append(store.concord_size_bytes / raw * 100)
        s_cgz.append(cc_gz / raw * 100)
        s_dos.append(concord.degree_of_sharing(eids).value * 100)
    t.note("paper 14a: ConCORD tracks DoS, falling well below gzip; "
           "14b: ConCORD within ~1% of raw when no redundancy exists")
    return t


def run_fig15(mem_mb=(256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
              R: int = 1024) -> Table:
    """Fig 15: checkpoint response time vs per-SE memory (8 hosts)."""
    t = Table("Fig 15: checkpoint time vs memory per process "
              "(8 hosts, 1 process/node, Old-cluster)", "mem_mb_per_process")
    s_rgz = t.add_series("raw_gzip_ms")
    s_cc = t.add_series("concord_ms")
    s_raw = t.add_series("raw_ms")
    for mb in mem_mb:
        sim_pages = max(16, int(mb * MB / PAGE / R))
        spec = workloads.moldy(8, sim_pages, seed=6)
        cluster, _e, concord, eids = _build(8, OLD_CLUSTER, spec,
                                            n_represented=R)
        _store, r = _checkpoint(concord, eids)
        raw = RawCheckpoint()
        _s, t_raw = raw.run(cluster, eids, n_represented=R)
        _s, t_rgz = raw.run(cluster, eids, n_represented=R, gzip=True)
        t.x_values.append(mb)
        s_cc.append(r.wall_time * 1e3)
        s_raw.append(t_raw * 1e3)
        s_rgz.append(t_rgz * 1e3)
    t.note("paper (log-log): all linear in memory; raw < ConCORD < raw+gzip")
    return t


def run_fig16(node_counts=(1, 2, 4, 8, 12, 16, 20), R: int = 256) -> Table:
    """Fig 16: checkpoint time vs nodes, 1 GB/process, Old-cluster."""
    t = Table("Fig 16: checkpoint time vs nodes (1 process/node, "
              "1 GB/process, Old-cluster)", "nodes")
    s_rgz = t.add_series("raw_gzip_ms")
    s_cc = t.add_series("concord_ms")
    s_raw = t.add_series("raw_ms")
    sim_pages = int(1 * GB / PAGE / R)
    for n in node_counts:
        spec = workloads.moldy(n, sim_pages, seed=7)
        cluster, _e, concord, eids = _build(n, OLD_CLUSTER, spec,
                                            n_represented=R)
        _store, r = _checkpoint(concord, eids)
        raw = RawCheckpoint()
        _s, t_raw = raw.run(cluster, eids, n_represented=R)
        _s, t_rgz = raw.run(cluster, eids, n_represented=R, gzip=True)
        t.x_values.append(n)
        s_cc.append(r.wall_time * 1e3)
        s_raw.append(t_raw * 1e3)
        s_rgz.append(t_rgz * 1e3)
    t.note("paper: every strategy flat with scale; ConCORD a constant "
           "factor above embarrassingly-parallel raw")
    return t


def run_fig17(node_counts=(1, 2, 4, 8, 16, 32, 64, 128), R: int = 512,
              gb_per_proc: float = 1.0) -> Table:
    """Fig 17: checkpoint response time on Big-cluster, 1-128 nodes.

    Unlike the RAM-disk Old-cluster runs (Figs 15/16), Big-cluster's
    shared content file lives on the site parallel filesystem, whose
    aggregate bandwidth is a machine-wide resource — the drift within the
    paper's "factor of two" comes from that shared-write term growing
    with total distinct content.
    """
    from repro.storage import IOCosts, ParallelFileSystem

    t = Table("Fig 17: checkpoint response time (Big-cluster)", "nodes")
    s = t.add_series("response_ms")
    sim_pages = int(gb_per_proc * GB / PAGE / R)
    pfs_costs = IOCosts(shared_bw=42 * GB)
    for n in node_counts:
        spec = workloads.moldy(n, sim_pages, seed=8)
        _c, _e, concord, eids = _build(n, BIG_CLUSTER, spec, n_represented=R)
        _store, r = _checkpoint(concord, eids,
                                pfs=ParallelFileSystem(pfs_costs))
        t.x_values.append(n)
        s.append(r.wall_time * 1e3)
    t.note("paper: virtually constant (within 2x) from 1 to 128 nodes; "
           "shared content file on the parallel FS (42 GB/s aggregate)")
    return t


# ---------------------------------------------------------------------------
# §5.2 text: monitor overhead
# ---------------------------------------------------------------------------

def run_monitor_overhead(periods=(2.0, 5.0), mem_mb: int = 64) -> Table:
    """§5.2: monitor CPU overhead per scan period and hash function, plus
    update traffic as a fraction of link bandwidth."""
    t = Table("Sec 5.2: memory update monitor overhead (Old-cluster)",
              "scan_period_s")
    s_md5 = t.add_series("md5_cpu_pct")
    s_sfh = t.add_series("sfh_cpu_pct")
    s_net = t.add_series("update_traffic_pct_of_link")
    sim_pages = int(mem_mb * MB / PAGE)
    for period in periods:
        row = {}
        for algo, series in (("md5", s_md5), ("sfh", s_sfh)):
            cluster = Cluster(2, cost=OLD_CLUSTER, seed=9)
            workloads.instantiate(cluster, workloads.moldy(2, sim_pages,
                                                           seed=9))
            with ConCORD(
                    cluster, ConCORDConfig(hash_algo=algo)) as concord:
                concord.initial_scan()
                mon = concord.monitors[0]
                base = mon.stats.cpu_time
                # Steady state: churn 25% of memory per period, then
                # rescan (HPC benchmarks rewrite working-set pages
                # continuously).
                rng = np.random.default_rng(10)
                n_periods = 5
                updates = 0
                for _ in range(n_periods):
                    for e in cluster.entities_on(0):
                        e.mutate_random(0.25, rng)
                    mon.scan()
                    updates += mon.flush()
                series.append((mon.stats.cpu_time - base)
                              / (n_periods * period) * 100)
                row[algo] = updates
        # ~13 B per update on the wire + headers amortized over batches
        update_bytes = row["sfh"] / n_periods * 15
        s_net.append(update_bytes / period / OLD_CLUSTER.link_bw * 100)
        t.x_values.append(period)
    t.note("paper: 6.4%/2.6% CPU (MD5 @ 2s/5s), 2.2%/<1% (SFH); update "
           "traffic ~1% of link bandwidth")
    return t


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------

def run_ablation_modes(redundancy=(0.0, 0.25, 0.5, 0.75),
                       sim_pages: int = 2048) -> Table:
    """Interactive vs batch checkpoint across redundancy levels."""
    t = Table("Ablation: interactive vs batch checkpoint vs redundancy",
              "common_frac")
    s_i = t.add_series("interactive_ms")
    s_b = t.add_series("batch_ms")
    s_ratio = t.add_series("ckpt_ratio_pct")
    for c in redundancy:
        spec = workloads.WorkloadSpec(
            name="sweep", n_entities=4, pages_per_entity=sim_pages,
            common_frac=c, pool_frac=max(0.05, 1.05 * c), seed=11)
        _cl, _e, concord, eids = _build(4, NEW_CLUSTER, spec,
                                        n_represented=64)
        store, r_i = _checkpoint(concord, eids, ExecMode.INTERACTIVE)
        _s2, r_b = _checkpoint(concord, eids, ExecMode.BATCH)
        t.x_values.append(c)
        s_i.append(r_i.wall_time * 1e3)
        s_b.append(r_b.wall_time * 1e3)
        s_ratio.append(store.compression_ratio * 100)
    return t


def run_ablation_redundancy(common=(0.0, 0.2, 0.4, 0.6, 0.8, 0.95),
                            sim_pages: int = 2048) -> Table:
    """Redundancy vs collective-phase benefit: the implicit-adaptation
    claim — the same service code wins more as sharing grows."""
    t = Table("Ablation: redundancy vs service-command benefit",
              "common_frac")
    s_cov = t.add_series("coverage_pct")
    s_ratio = t.add_series("ckpt_ratio_pct")
    s_hand = t.add_series("handled_per_believed_pct")
    for c in common:
        spec = workloads.WorkloadSpec(
            name="sweep", n_entities=8, pages_per_entity=sim_pages,
            common_frac=c, pool_frac=max(0.05, 1.05 * c), seed=12)
        _cl, _e, concord, eids = _build(8, NEW_CLUSTER, spec)
        store, r = _checkpoint(concord, eids)
        t.x_values.append(c)
        s_cov.append(r.stats.coverage * 100)
        s_ratio.append(store.compression_ratio * 100)
        s_hand.append(0 if not r.stats.believed_hashes else
                      r.stats.handled / r.stats.believed_hashes * 100)
    return t


def run_ablation_staleness(mutate=(0.0, 0.1, 0.2, 0.4, 0.6, 0.8),
                           sim_pages: int = 1024) -> Table:
    """Staleness vs coverage/cost: correctness holds at any staleness;
    collective coverage and size win degrade gracefully."""
    t = Table("Ablation: DHT staleness vs coverage, retries, correctness",
              "mutated_fraction")
    s_cov = t.add_series("coverage_pct")
    s_stale = t.add_series("stale_hashes_pct")
    s_retry = t.add_series("retries_per_hash")
    s_ok = t.add_series("restore_exact")
    for frac in mutate:
        spec = workloads.moldy(4, sim_pages, seed=13)
        cluster, ents, concord, eids = _build(4, NEW_CLUSTER, spec, seed=13)
        rng = np.random.default_rng(14)
        for e in ents:
            e.mutate_random(frac, rng)
        store, r = _checkpoint(concord, eids)
        exact = all((restore_entity(store, e.entity_id) == e.pages).all()
                    for e in ents)
        t.x_values.append(frac)
        s_cov.append(r.stats.coverage * 100)
        s_stale.append(0 if not r.stats.believed_hashes else
                       r.stats.stale_unhandled / r.stats.believed_hashes * 100)
        s_retry.append(0 if not r.stats.believed_hashes else
                       r.stats.retries / r.stats.believed_hashes)
        s_ok.append(1.0 if exact else 0.0)
    t.note("restore_exact must be 1.0 at every staleness level")
    return t


def run_ablation_throttle(rates=(None, 1_000, 500, 100),
                          sim_pages: int = 1024) -> Table:
    """Monitor throttling: update-rate cap vs DHT completeness (precision),
    the load/precision tradeoff of §3.1."""
    t = Table("Ablation: monitor throttle vs DHT completeness", "rate_cap")
    s_tracked = t.add_series("tracked_pct_after_1s")
    s_pending = t.add_series("pending_updates")
    for rate in rates:
        cluster = Cluster(2, cost=NEW_CLUSTER, seed=15)
        ents = workloads.instantiate(cluster,
                                     workloads.nasty(2, sim_pages, seed=15))
        with ConCORD(
                cluster,
                ConCORDConfig(throttle_updates_per_s=rate)) as concord:
            for mon in concord.monitors:
                mon.initial_scan()
                mon.flush(interval=1.0)
            total = sum(e.n_pages for e in ents)
            t.x_values.append(0 if rate is None else rate)
            s_tracked.append(concord.total_tracked_hashes / total * 100)
            s_pending.append(sum(m.pending_updates
                                 for m in concord.monitors))
    return t


def run_ablation_rdma(node_counts=(8, 32, 128), gb_per_entity: float = 4.0,
                      R: int = 1024) -> Table:
    """UDP vs one-sided (RDMA) update transport under the Fig 7 workload.

    The paper motivates the split between reliable control and unreliable
    peer-to-peer data paths by the prospect of one-sided updates; this
    ablation shows what that buys: the per-packet receive bottleneck — and
    with it the emergent update loss — disappears.
    """
    t = Table("Ablation: update transport (Fig 7 workload)", "nodes")
    s_udp = t.add_series("udp_loss_pct")
    s_rdma = t.add_series("rdma_loss_pct")
    sim_pages = int(gb_per_entity * GB / PAGE / R)
    for n in node_counts:
        row = {}
        for transport, series in (("udp", s_udp), ("rdma", s_rdma)):
            cluster = Cluster(n, cost=BIG_CLUSTER, seed=1)
            workloads.instantiate(cluster,
                                  workloads.nasty(n, sim_pages, seed=1))
            with ConCORD(cluster, ConCORDConfig(
                    use_network=True, n_represented=R, update_batch_size=1,
                    update_transport=transport)) as concord:
                concord.initial_scan()
            series.append(cluster.network.stats.update_loss_rate * 100)
        t.x_values.append(n)
    t.note("one-sided updates remove the receiver-CPU bottleneck; loss "
           "collapses to (near) zero")
    return t


def run_fig14a() -> Table:
    """Fig 14(a): checkpoint compression ratio for Moldy (redundant)."""
    return run_fig14(workload="moldy")


def run_fig14b() -> Table:
    """Fig 14(b): checkpoint compression ratio for Nasty (no redundancy)."""
    return run_fig14(workload="nasty")


def run_ablation_incremental(mutate=(0.0, 0.05, 0.1, 0.2, 0.4, 0.8),
                             sim_pages: int = 1024) -> Table:
    """Incremental checkpoints (extension): increment size and time track
    the churn since the base checkpoint, not total memory."""
    from repro.services.incremental import (IncrementalCheckpoint,
                                            restore_incremental_entity)

    t = Table("Ablation: incremental checkpoint vs churn since base",
              "mutated_fraction")
    s_size = t.add_series("increment_pct_of_base")
    s_time = t.add_series("increment_ms")
    s_full = t.add_series("full_ckpt_ms")
    s_ok = t.add_series("restore_exact")
    for frac in mutate:
        cluster, ents, concord, eids = _build(
            4, NEW_CLUSTER, workloads.moldy(4, sim_pages, seed=17), seed=17)
        base = CheckpointStore()
        concord.execute_command(CollectiveCheckpoint(base),
                                ServiceScope.of(eids))
        rng = np.random.default_rng(18)
        for e in ents:
            e.mutate_random(frac, rng)
        concord.sync()
        full_store, r_full = _checkpoint(concord, eids)
        inc = CheckpointStore()
        r_inc = concord.execute_command(IncrementalCheckpoint(inc, base),
                                        ServiceScope.of(eids))
        exact = all(
            (restore_incremental_entity(inc, base, e.entity_id)
             == e.pages).all() for e in ents)
        t.x_values.append(frac)
        s_size.append(inc.concord_size_bytes / base.concord_size_bytes * 100)
        s_time.append(r_inc.wall_time * 1e3)
        s_full.append(r_full.wall_time * 1e3)
        s_ok.append(1.0 if exact else 0.0)
    t.note("increment size/time scale with churn; full checkpoint pays for "
           "everything every time")
    return t


def run_faults(n_nodes: int = 8, pages_per_entity: int = 512,
               loss: float = 0.2) -> Table:
    """Fault tolerance: coverage and query accuracy through a scheduled
    kill / detect / repair / rejoin cycle under datagram loss.

    A :class:`~repro.sim.faults.FaultPlan` injects ``loss`` i.i.d. message
    loss and kills two DHT home nodes mid-run; the table tracks the hash
    space coverage, the collective sharing answer, and its error against
    the fault-free exact value at each stage (docs/FAULTS.md).
    """
    from repro.sim.faults import FaultPlan

    cluster = Cluster(n_nodes, cost=NEW_CLUSTER, seed=21)
    ents = workloads.instantiate(
        cluster, workloads.moldy(n_nodes, pages_per_entity, seed=21))
    eids = [e.entity_id for e in ents]
    victims = (n_nodes - 2, n_nodes - 1)

    with ConCORD(cluster, ConCORDConfig(use_network=True)) as concord:
        plan = FaultPlan().set_loss(0.0, loss).kill(0.05, *victims)
        concord.inject_faults(plan)
        concord.initial_scan(run_network=False)
        cluster.engine.run()

        exact = ReferenceModel(cluster).sharing(eids)
        t = Table(f"Fault injection: kill 2/{n_nodes} home nodes at "
                  f"{loss:.0%} loss (New-cluster)", "stage")
        s_cov = t.add_series("coverage_pct")
        s_sh = t.add_series("sharing")
        s_err = t.add_series("abs_error")

        def stage(label: str) -> None:
            ans = concord.sharing(eids)
            t.x_values.append(label)
            s_cov.append(ans.coverage * 100)
            s_sh.append(ans.value)
            s_err.append(abs(ans.value - exact))

        concord.detect_failures()
        stage("killed+lossy")
        concord.repair()
        stage("failover-repaired")
        # Lift the loss, rejoin the victims (empty — their primary ranges
        # route back holed), and full-repair: rebuilds those ranges *and*
        # heals every datagram-loss hole, so the answer becomes exact.
        cluster.network.set_loss(0.0)
        for node in victims:
            concord.restart_node(node)
        stage("rejoined")
        concord.repair(full=True)
        stage("full-repair")
        t.note(f"exact (fault-free) sharing = {exact:.4f}; after full "
               "repair the collective answer must match it at coverage 100%")
    return t


def run_chunking(shifts=(0, 3, 17, 128), kb: int = 256,
                 seed: int = 11) -> Table:
    """Sharing detected across byte-shifted replicas: fixed vs CDC.

    Two byte-backed entities hold the same stream, the second prefixed
    with ``shift`` junk bytes.  Fixed ``page_size`` chunking sees zero
    sharing the moment the alignment breaks; the Gear content-defined
    chunker re-synchronises at the first content-derived boundary after
    the shift, so nearly every chunk still matches
    (docs/RECONCILIATION.md).
    """
    from repro.memory.entity import Entity

    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=kb * 1024, dtype=np.uint8).tobytes()
    t = Table("Sharing detected on byte-shifted replicas: fixed vs "
              "content-defined chunking", "shift_bytes")
    series = {m: t.add_series(f"sharing_{m}") for m in ("fixed", "cdc")}
    for shift in shifts:
        prefix = rng.integers(0, 256, size=shift, dtype=np.uint8).tobytes()
        t.x_values.append(shift)
        for mode in ("fixed", "cdc"):
            cluster = Cluster(2, cost=NEW_CLUSTER, seed=seed)
            a = Entity.from_bytes(cluster, 0, base, page_size=PAGE)
            b = Entity.from_bytes(cluster, 1, prefix + base, page_size=PAGE)
            concord = ConCORD(cluster, ConCORDConfig(chunking=mode))
            concord.initial_scan()
            ans = concord.sharing([a.entity_id, b.entity_id])
            series[mode].append(ans.value)
    t.note("cdc must detect strictly more sharing than fixed at every "
           "non-zero shift (the chunking.sharing_detected bench gate)")
    return t


ALL_EXPERIMENTS = {
    "chunking": run_chunking,
    "faults": run_faults,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig14a": run_fig14a,
    "fig14b": run_fig14b,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "monitor": run_monitor_overhead,
    "ablation_modes": run_ablation_modes,
    "ablation_redundancy": run_ablation_redundancy,
    "ablation_staleness": run_ablation_staleness,
    "ablation_throttle": run_ablation_throttle,
    "ablation_rdma": run_ablation_rdma,
    "ablation_incremental": run_ablation_incremental,
}
