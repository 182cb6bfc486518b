"""Metric names, units, clocks and bounds — and how each is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names in
``BENCHMARK.json`` (``bench/tests`` pins the two against each other).

The driver asks every workload for every end-to-end metric, so that list
holds only metrics defined on all five workloads; the ones that exist on
one workload only (``WORKLOAD_METRICS``: the pipeline's stage throughputs
and sim figures, ``serve_open``'s limit metrics) are printed with that
workload's end-to-end table and reported to the driver in the traced
record, where they carry no bound.
"""

from __future__ import annotations

import numpy as np

from bench.layers import LAYERS, SpanLog, span_windows

__all__ = ["END_TO_END", "WORKLOAD_METRICS", "PER_LAYER", "end_to_end",
           "host_seconds", "per_layer", "sim_signature"]

# name, unit, clock, better, bound (share of the parent's median).
# Each bound is at least three times the widest spread seen over ten seeds
# on the 2-core box (bench/README.md, "Measured spread").  Sim metrics
# repeat exactly for one seed; their bounds only cover how far the drawn
# request mix moves them from seed to seed.
END_TO_END = [
    ("setup_s", "s", "host", "lower", 0.25),
    ("host_ops_per_s", "1/s", "host", "higher", 0.15),
    ("peak_rss_mb", "MiB", "host", "lower", 0.15),
    ("sim_ops_per_s", "1/s", "sim", "higher", 0.10),
    ("sim_latency_mean_us", "us", "sim", "lower", 0.10),
    ("sim_latency_p99_us", "us", "sim", "lower", 0.25),
]

# name, unit, clock, better — one workload only (named by the prefix).
# Clock "raw" is the host clock as it read, not brought to reference speed.
# The median latency is here and not above because on the pipeline it is a
# constant of the cost model (one round trip), the same for every seed.
WORKLOAD_METRICS = [
    ("host_ops_per_s_wall", "1/s", "raw", "higher"),
    ("sim_latency_p50_us", "us", "sim", "lower"),
    ("pipeline.host_s", "s", "host", "lower"),
    ("pipeline.updates_per_host_s", "1/s", "host", "higher"),
    ("pipeline.ckpt_blocks_per_host_s", "1/s", "host", "higher"),
    ("pipeline.sim_ckpt_wall_s", "s", "sim", "lower"),
    ("pipeline.ckpt_compression_ratio", "frac", "sim", "lower"),
    ("pipeline.repair_bytes_ratio", "frac", "sim", "lower"),
    ("serve_open.slo_miss_frac", "frac", "sim", "lower"),
    ("serve_open.max_rate_in_slo", "1/s", "sim", "higher"),
    ("serve_open.p99_us_r1", "us", "sim", "lower"),
    ("serve_open.p99_us_r2", "us", "sim", "lower"),
    ("serve_open.p99_us_r3", "us", "sim", "lower"),
]

STAGES = ("bringup", "scan", "sync", "query", "repair_full", "repair_recon",
          "ckpt", "restore")

# name, unit, better.  Two per layer, then the derived figures.
PER_LAYER = (
    [(f"{layer}.{what}", unit, "lower")
     for layer in LAYERS for what, unit in (("calls", "count"),
                                            ("self_ns", "ns"))]
    + [
        ("bench.driver.self_ns_per_req", "ns", "lower"),
        ("bench.driver.lag_p99_us", "us", "lower"),
        ("workloads.traffic.req_per_host_s", "1/s", "higher"),
        ("serve.frontend.self_ns_per_req", "ns", "lower"),
        ("serve.frontend.batches", "count", "lower"),
        ("serve.frontend.batch_size_mean", "count", "higher"),
        ("serve.frontend.coalesce_rate", "frac", "higher"),
        ("serve.admission.self_ns_per_req", "ns", "lower"),
        ("serve.admission.rejected", "count", "lower"),
        ("serve.cache.hit_rate", "frac", "higher"),
        ("serve.cache.self_ns_per_lookup", "ns", "lower"),
        ("serve.cache.invalidations", "count", "lower"),
        ("serve.cache.evictions", "count", "lower"),
        ("serve.batcher.pairs_per_call", "count", "higher"),
        ("serve.batcher.self_ns_per_pair", "ns", "lower"),
        ("queries.nodewise.self_ns_per_call", "ns", "lower"),
        ("queries.collective.self_ns_per_call", "ns", "lower"),
        ("dht.partition.scalar_calls_per_req", "count", "lower"),
        ("dht.partition.self_ns_per_hash", "ns", "lower"),
        ("dht.engine.route.self_ns_per_update", "ns", "lower"),
        ("dht.engine.repair_full.host_s", "s", "lower"),
        ("dht.engine.repair_recon.host_s", "s", "lower"),
        ("dht.table.insert.rows_per_host_s", "1/s", "higher"),
        ("dht.table.lookup.self_ns_per_hash", "ns", "lower"),
        ("dht.table.se_scan.rows_per_host_s", "1/s", "higher"),
        ("dht.storage.commit.calls", "count", "lower"),
        ("dht.storage.commit.host_s", "s", "lower"),
        ("dht.storage.bytes_committed", "B", "lower"),
        ("exec.ops.self_ns_per_row", "ns", "lower"),
        ("exec.pool.dispatch.self_ns_per_call", "ns", "lower"),
        ("exec.pool.inline_frac", "frac", "higher"),
        ("sim.engine.events_run", "count", "lower"),
        ("sim.engine.events_per_req", "count", "lower"),
        ("sim.engine.self_ns_per_event", "ns", "lower"),
        ("sim.network.msgs_sent", "count", "lower"),
        ("sim.network.bytes_sent", "B", "lower"),
        ("sim.network.self_ns_per_msg", "ns", "lower"),
        ("memory.monitor.pages_per_host_s", "1/s", "higher"),
        ("memory.monitor.updates_emitted", "count", "lower"),
        ("recon.rounds", "count", "lower"),
        ("recon.bytes_wire", "B", "lower"),
        ("recon.digest_cache_hit_rate", "frac", "higher"),
        ("core.executor.collective_phase.host_s", "s", "lower"),
        ("core.executor.local_phase.host_s", "s", "lower"),
        ("services.checkpoint.blocks", "count", "higher"),
        ("services.checkpoint.self_ns_per_block", "ns", "lower"),
    ]
    + [(f"pipeline.stage.{s}_s", "s", "lower") for s in STAGES]
    + [("trace_overhead_frac", "frac", "lower")]
    + [(name, unit, better) for name, unit, _clock, better in WORKLOAD_METRICS]
)


_SIM_WORKLOAD_METRICS = frozenset(
    name for name, _unit, clock, _better in WORKLOAD_METRICS if clock == "sim")


def sim_signature(rep) -> tuple:
    """Everything one repeat measured on the sim clock, as exact values:
    equal signatures mean the modelled cluster did bit-identical work."""
    return (rep.ops, rep.sim_s, rep.latency_us.tobytes(), rep.digest,
            tuple(sorted((k, v) for k, v in rep.extras.items()
                         if k in _SIM_WORKLOAD_METRICS)))


def host_seconds(repeats) -> float:
    """Host seconds of one timed region, estimated so that a burst of
    machine noise cannot move it.

    On the shared 2-core box the same code runs 1.5-2x slower for bursts of
    a fraction of a second, several times a minute; a whole repeat's wall
    time catches a burst more often than not.  The timed region is
    therefore cut into segments that cost the same by construction — equal
    request counts of a stationary stream, or the same pipeline stage in
    every repeat — and each class contributes (segments per region) x
    (median segment seconds, pooled over all repeats of the run).  The
    median ignores the slow bursts; it also ignores any cost that lands in
    fewer than half the segments (a rare long pause), which is why the
    plain wall-clock figure is reported next to it as
    ``host_ops_per_s_wall``.

    Slow spells that outlast a whole run are taken out by the calibration
    kernel instead: a ``SegmentClock`` has already divided every segment by
    the slowdown the ticks on either side of it showed
    (``bench/calibrate.py``), so the result is in seconds at reference
    speed.
    """
    total = 0.0
    for label, weight in repeats[0].weights.items():
        pooled = [x for r in repeats for x in r.segments[label]]
        total += weight * float(np.median(pooled))
    return total


def end_to_end(repeats, peak_rss_mb: float,
               import_s: float) -> dict[str, list[float]]:
    """Per-repeat samples of every end-to-end metric (sim metrics carry
    one sample per repeat too, so "identical across repeats" is checkable).

    ``setup_s`` is what stands between starting the process and the timed
    region: the one-time import of NumPy and the program plus one repeat's
    input generation and bring-up, both at reference speed.
    """
    return {
        "setup_s": [import_s + r.setup_s for r in repeats],
        "host_ops_per_s": [r.ops / host_seconds([r]) for r in repeats],
        "peak_rss_mb": [peak_rss_mb],
        "sim_ops_per_s": [r.ops / r.sim_s for r in repeats],
        "sim_latency_mean_us": [float(np.mean(r.latency_us))
                                for r in repeats],
        "sim_latency_p99_us": [float(np.percentile(r.latency_us, 99))
                               for r in repeats],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: dict[str, dict], log: SpanLog, traced, untraced,
              traffic_req_per_host_s: float = 0.0) -> dict[str, float]:
    """Every ``PER_LAYER`` value from the traced repeat's span aggregate
    and counters; stage times, workload metrics and the overhead baseline
    come from the untraced repeat of the same process."""
    c = traced.counters
    req = c.get("requests", 0)

    def layer(name: str, key: str) -> int:
        return sum(e[key] for e in agg.values() if e["layer"] == name)

    def fn(name: str, key: str) -> int:
        return agg.get(name, {}).get(key, 0)

    def fns(names, key: str) -> int:
        return sum(fn(n, key) for n in names)

    def timed(name: str) -> list[tuple[int, int]]:
        return [w for w in span_windows(log, name)
                if w[0] >= traced.t0_ns and w[1] <= traced.t1_ns]

    def window_s(name: str, k: int) -> float:
        spans = timed(name)
        return (spans[k][1] - spans[k][0]) / 1e9 if len(spans) > k else 0.0

    def last_end(name: str) -> int:
        spans = timed(name)
        return spans[-1][1] if spans else 0

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_ns"] = layer(name, "self_ns")

    nodewise = ("queries.num_copies", "queries.entities")
    collective = ("queries.sharing", "queries.num_shared_content",
                  "queries.degree_of_sharing")
    lookups = ("dht.table.bulk_masks", "dht.table.bulk_num_copies")
    events = c.get("sim.engine.events_run", 0)
    msgs = c.get("sim.network.msgs_sent", 0)
    blocks = c.get("services.checkpoint.blocks", 0)
    digest_gets = fn("recon.get", "calls")
    t_start = last_end("services.checkpoint.collective_start")
    t_coll = last_end("services.checkpoint.collective_finalize")
    t_local = last_end("services.checkpoint.local_finalize")
    out.update({
        "bench.driver.self_ns_per_req":
            _ratio(layer("bench.driver", "self_ns"), req),
        "bench.driver.lag_p99_us": c.get("bench.driver.lag_p99_us", 0.0),
        "workloads.traffic.req_per_host_s": traffic_req_per_host_s,
        "serve.frontend.self_ns_per_req":
            _ratio(layer("serve.frontend", "self_ns"), req),
        "serve.admission.self_ns_per_req":
            _ratio(layer("serve.admission", "self_ns"), req),
        "serve.cache.self_ns_per_lookup":
            _ratio(layer("serve.cache", "self_ns"),
                   fn("serve.cache.get", "calls")),
        "serve.batcher.pairs_per_call":
            _ratio(fn("serve.batcher.bulk_answers", "units"),
                   fn("serve.batcher.bulk_answers", "calls")),
        "serve.batcher.self_ns_per_pair":
            _ratio(layer("serve.batcher", "self_ns"),
                   fn("serve.batcher.bulk_answers", "units")),
        "queries.nodewise.self_ns_per_call":
            _ratio(fns(nodewise, "self_ns"), fns(nodewise, "calls")),
        "queries.collective.self_ns_per_call":
            _ratio(fns(collective, "self_ns"), fns(collective, "calls")),
        "dht.partition.scalar_calls_per_req":
            _ratio(fn("dht.partition.home_node", "calls"), req),
        "dht.partition.self_ns_per_hash":
            _ratio(layer("dht.partition", "self_ns"),
                   layer("dht.partition", "units")),
        "dht.engine.route.self_ns_per_update":
            _ratio(fn("dht.engine.route_updates", "self_ns"),
                   fn("dht.engine.route_updates", "units")),
        # The pipeline repairs twice: full replay first, then recon.
        "dht.engine.repair_full.host_s": window_s("dht.engine.repair", 0),
        "dht.engine.repair_recon.host_s": window_s("dht.engine.repair", 1),
        "dht.table.insert.rows_per_host_s":
            _ratio(fn("dht.table.bulk_insert", "units") * 1e9,
                   fn("dht.table.bulk_insert", "self_ns")),
        "dht.table.lookup.self_ns_per_hash":
            _ratio(fns(lookups, "self_ns"), fns(lookups, "units")),
        "dht.table.se_scan.rows_per_host_s":
            _ratio(fn("dht.table.se_scan", "units") * 1e9,
                   fn("dht.table.se_scan", "self_ns")),
        "dht.storage.commit.calls": fn("dht.storage.commit", "calls"),
        "dht.storage.commit.host_s": fn("dht.storage.commit", "total_ns") / 1e9,
        "dht.storage.bytes_committed": fn("dht.storage.commit", "units"),
        "exec.ops.self_ns_per_row":
            _ratio(layer("exec.ops", "self_ns"), layer("exec.ops", "units")),
        "exec.pool.dispatch.self_ns_per_call":
            _ratio(layer("exec.pool", "self_ns"), layer("exec.pool", "calls")),
        "exec.pool.inline_frac":
            _ratio(layer("exec.pool", "units"), layer("exec.pool", "calls")),
        "sim.engine.events_per_req": _ratio(events, req),
        "sim.engine.self_ns_per_event":
            _ratio(layer("sim.engine", "self_ns"), events),
        "sim.network.self_ns_per_msg":
            _ratio(layer("sim.network", "self_ns"), msgs),
        "memory.monitor.pages_per_host_s":
            _ratio(c.get("memory.monitor.pages_hashed", 0) * 1e9,
                   layer("memory.monitor", "self_ns")),
        "recon.digest_cache_hit_rate":
            _ratio(digest_gets - log.counters["recon.digest_cache_misses"],
                   digest_gets),
        "core.executor.collective_phase.host_s":
            max(0, t_coll - t_start) / 1e9 if t_start else 0.0,
        "core.executor.local_phase.host_s":
            max(0, t_local - t_coll) / 1e9 if t_coll else 0.0,
        "services.checkpoint.self_ns_per_block":
            _ratio(layer("services.checkpoint", "self_ns"), blocks),
        "trace_overhead_frac": traced.host_s / untraced.host_s - 1.0,
    })
    for name in ("serve.frontend.batches", "serve.frontend.batch_size_mean",
                 "serve.frontend.coalesce_rate", "serve.admission.rejected",
                 "serve.cache.hit_rate", "serve.cache.invalidations",
                 "serve.cache.evictions", "sim.engine.events_run",
                 "sim.network.msgs_sent", "sim.network.bytes_sent",
                 "memory.monitor.updates_emitted", "recon.rounds",
                 "recon.bytes_wire", "services.checkpoint.blocks"):
        out[name] = c.get(name, 0)
    for s in STAGES:
        out[f"pipeline.stage.{s}_s"] = untraced.segments.get(s, [0.0])[0]
    for name, *_ in WORKLOAD_METRICS:
        out[name] = untraced.extras.get(name, 0.0)
    missing = {n for n, *_ in PER_LAYER} ^ set(out)
    if missing:
        raise AssertionError(f"per-layer metric list out of step: {missing}")
    return out
