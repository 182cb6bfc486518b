#!/usr/bin/env python3
"""Quickstart: bring ConCORD up on a simulated cluster and use it.

Walks the whole public API in one sitting:

1. build a cluster and a workload with known redundancy;
2. bring up the ConCORD platform service and scan memory;
3. ask node-wise and collective queries (paper Fig 3);
4. run the collective checkpointing service command (paper §6);
5. restore an entity and verify bit-for-bit equality;
6. recreate the paper's Fig 13 two-SE worked example.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CheckpointStore,
    Cluster,
    CollectiveCheckpoint,
    ConCORD,
    Entity,
    ServiceScope,
    restore_entity,
    workloads,
)
from repro.util.stats import fmt_bytes, fmt_time_s


def main() -> None:
    # -- 1. a 4-node machine running a Moldy-like redundant workload --------
    cluster = Cluster(n_nodes=4, cost="new-cluster", seed=7)
    entities = workloads.instantiate(cluster, workloads.moldy(4, 2048, seed=7))
    eids = [e.entity_id for e in entities]
    total = sum(e.memory_bytes for e in entities)
    print(f"cluster: {cluster.n_nodes} nodes ({cluster.cost.name}), "
          f"{len(entities)} processes, {fmt_bytes(total)} of memory")

    # -- 2. bring up the platform service (context manager = clean teardown) --
    with ConCORD(cluster) as concord:
        n_updates = concord.initial_scan()
        print(f"initial scan: {n_updates} updates, "
              f"{concord.total_tracked_hashes} distinct hashes tracked")

        # -- 3. queries --------------------------------------------------------
        sharing = concord.sharing(eids)
        print(f"\nsharing({len(eids)} entities)      = {sharing.value:.3f} "
              f"(latency {fmt_time_s(sharing.latency)})")
        print(f"intra_sharing              = "
              f"{concord.intra_sharing(eids).value:.3f}")
        print(f"inter_sharing              = "
              f"{concord.inter_sharing(eids).value:.3f}")
        print(f"degree of sharing (DoS)    = "
              f"{concord.degree_of_sharing(eids).value:.3f}")
        k = 4
        print(f"num_shared_content(k={k})    = "
              f"{concord.num_shared_content(eids, k).value} hashes "
              f"with >= {k} copies")

        some_hash = int(entities[0].content_hashes()[0])
        print(f"num_copies(0x{some_hash:016x}) = "
              f"{concord.num_copies(some_hash).value}, held by entities "
              f"{sorted(concord.entities(some_hash).value)}")

        # -- 4. the collective checkpoint service command ----------------------
        store = CheckpointStore()
        result = concord.execute_command(CollectiveCheckpoint(store),
                                         ServiceScope.of(eids))
        s = result.stats
        print(f"\ncollective checkpoint: success={result.success} in "
              f"{fmt_time_s(result.wall_time)} (simulated)")
        print(f"  collective phase handled {s.handled} distinct blocks "
              f"({s.retries} retries, {s.stale_unhandled} stale)")
        print(f"  local phase: {s.covered_blocks}/{s.local_blocks} blocks "
              f"were pointers ({s.coverage:.1%} coverage)")
        print(f"  raw size     {fmt_bytes(store.raw_size_bytes)}")
        print(f"  ConCORD size {fmt_bytes(store.concord_size_bytes)} "
              f"(ratio {store.compression_ratio:.1%})")

        # -- 5. restore and verify ---------------------------------------------
        for e in entities:
            assert (restore_entity(store, e.entity_id) == e.pages).all()
        print("restore: all entities verified bit-for-bit")

    # -- 6. the paper's Fig 13 example ---------------------------------------------
    print("\nFig 13 worked example (2 SEs, 4 pages each):")
    c2 = Cluster(2, seed=0)
    A, B, C, E = 0xA0, 0xB0, 0xC0, 0xE0
    se1 = Entity.create(c2, 0, np.array([A, E, 0x100, B], dtype=np.uint64))
    se2 = Entity.create(c2, 1, np.array([B, C, E, 0x200], dtype=np.uint64))
    with ConCORD(c2) as k2:
        k2.initial_scan()
        # Content written after the scan is unknown to ConCORD (paper's X).
        se1.write_page(2, 0x101)
        se2.write_page(3, 0x201)
        st2 = CheckpointStore()
        k2.execute_command(CollectiveCheckpoint(st2),
                           ServiceScope.of([se1.entity_id, se2.entity_id]))
    for se in (se1, se2):
        f = st2.se_files[se.entity_id]
        recs = []
        for kind, idx, h, payload in sorted(f.records, key=lambda r: r[1]):
            if kind == "ptr":
                recs.append(f"{idx}:{h & 0xFFF:03x}:{payload}")
            else:
                recs.append(f"{idx}:X:content")
        print(f"  SE{se.entity_id} checkpoint file: " + "  ".join(recs))
    print(f"  shared content file: {st2.shared.n_blocks} distinct blocks "
          f"(8 logical blocks stored as "
          f"{st2.shared.n_blocks + sum(f.n_data_records for f in st2.se_files.values())})")
    for se in (se1, se2):
        assert (restore_entity(st2, se.entity_id) == se.pages).all()
    print("  restore verified for both SEs")


if __name__ == "__main__":
    main()
