#!/usr/bin/env python3
"""Collective checkpointing of a running (mutating) application.

The scenario the content-aware service command exists for: the DHT's view
of memory is *stale* — the application keeps writing between monitor scans
— yet the checkpoint must be exact.  This example:

1. runs a Moldy-like application across 8 nodes with ConCORD tracing it
   on a periodic scan cycle;
2. lets the application churn memory after the last scan, so a sizable
   fraction of the DHT is wrong;
3. takes a collective checkpoint anyway, showing the two-phase execution:
   stale hashes detected via replica retries, missed content picked up by
   the local phase;
4. verifies restore is still bit-exact, and compares checkpoint sizes and
   times against raw and raw+gzip baselines (paper Figs 14-16);
5. writes the checkpoint to disk with real page bytes and loads it back.

Run:  python examples/checkpoint_under_churn.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    CheckpointStore,
    Cluster,
    CollectiveCheckpoint,
    ConCORD,
    RawCheckpoint,
    ServiceScope,
    restore_entity,
    workloads,
)
from repro.util.stats import fmt_bytes, fmt_time_s


def main() -> None:
    spec = workloads.moldy(8, 1024, seed=21)
    cluster = Cluster(8, cost="old-cluster", seed=21)
    entities = workloads.instantiate(cluster, spec)
    eids = [e.entity_id for e in entities]
    with ConCORD(cluster) as concord:
        concord.initial_scan()
        print(f"tracking {len(entities)} processes on {cluster.n_nodes} "
              f"nodes; {concord.total_tracked_hashes} hashes in the DHT")

        # -- the application keeps running: churn after the scan ---------------
        rng = np.random.default_rng(22)
        for e in entities:
            e.mutate_random(0.3, rng)
        print("application mutated 30% of its pages since the last scan "
              "(the DHT does not know)")

        # -- checkpoint through the service command ----------------------------
        store = CheckpointStore()
        result = concord.execute_command(CollectiveCheckpoint(store),
                                         ServiceScope.of(eids))
    s = result.stats
    print(f"\ncheckpoint completed in {fmt_time_s(result.wall_time)} "
          f"(simulated old-cluster time)")
    print(f"  DHT believed {s.believed_hashes} distinct hashes; "
          f"{s.stale_unhandled} were stale (every replica gone), "
          f"{s.retries} replica retries")
    print(f"  collective phase coverage: {s.coverage:.1%}; "
          f"{s.uncovered_blocks} blocks fell back to the local phase")

    for e in entities:
        assert (restore_entity(store, e.entity_id) == e.pages).all()
    print("  restore == post-mutation memory for every entity (exact)")

    # -- baselines ----------------------------------------------------------------
    raw = RawCheckpoint()
    _r1, t_raw = raw.run(cluster, eids)
    _r2, t_gzip = raw.run(cluster, eids, gzip=True)
    raw_gz_size, cc_gz_size = store.gzip_sizes_model(spec.gzip_content_ratio)
    print("\nstrategy comparison:")
    rows = [
        ("raw", t_raw, store.raw_size_bytes),
        ("raw+gzip", t_gzip, raw_gz_size),
        ("ConCORD", result.wall_time, store.concord_size_bytes),
        ("ConCORD+gzip", result.wall_time
         + store.shared.size_bytes * cluster.cost.gzip_per_byte, cc_gz_size),
    ]
    for name, t, size in rows:
        print(f"  {name:<13} time {fmt_time_s(t):>8}   size "
              f"{fmt_bytes(size):>8}  ({size / store.raw_size_bytes:6.1%} of raw)")

    # -- on-disk round trip with real bytes ------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt"
        store.write_to_dir(path)
        n_files = len(list(path.iterdir()))
        on_disk = sum(f.stat().st_size for f in path.iterdir())
        loaded = CheckpointStore.load_from_dir(path)
        for e in entities:
            assert (restore_entity(loaded, e.entity_id) == e.pages).all()
        print(f"\non-disk checkpoint: {n_files} files, "
              f"{fmt_bytes(on_disk)}; loaded back and re-verified")


if __name__ == "__main__":
    main()
