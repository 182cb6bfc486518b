#!/usr/bin/env python3
"""Memory pressure and fault resilience: the paper's intro, end to end.

ConCORD's introduction motivates the platform with three services; this
example runs them back to back over one tracking instance:

1. **Deduplication** (intro example 1): merge same-content pages within
   each node, KSM-style, and watch copy-on-write faults un-merge pages as
   the application writes.
2. **Replication** (intro example 2): raise every distinct block of a
   critical process to >= 2 copies across nodes — paying only for blocks
   whose redundancy doesn't already exist.
3. **Recovery** (intro example 3, via reconstruction): "kill" the
   process, then rebuild its image on a fresh node — mostly from the
   replicas that step 2 placed in live memory, exercising the whole loop.

Run:  python examples/memory_pressure_and_resilience.py
"""

import numpy as np

from repro import Cluster, ConCORD, Entity, ServiceScope, workloads
from repro.services.checkpoint import CheckpointStore, CollectiveCheckpoint
from repro.services.dedup import CollectiveDedup
from repro.services.reconstruct import (
    CollectiveReconstruction,
    ImageDescriptor,
    register_image,
)
from repro.services.replicate import CollectiveReplication, make_replica_stores
from repro.util.stats import fmt_bytes


def main() -> None:
    cluster = Cluster(6, cost="new-cluster", seed=77)
    ents = workloads.instantiate(cluster, workloads.moldy(4, 1024, seed=77))
    eids = [e.entity_id for e in ents]
    with ConCORD(cluster) as concord:
        stores = make_replica_stores(cluster, [4, 5], capacity_pages=4096,
                                     concord=concord)
        concord.initial_scan()
        total = sum(e.memory_bytes for e in ents)
        print(f"{len(ents)} processes, {fmt_bytes(total)}, on nodes 0-3; "
              f"replica stores on nodes 4-5")

        # -- 1. deduplication --------------------------------------------------
        dedup = CollectiveDedup()
        concord.execute_command(dedup, ServiceScope.of(eids))
        dedup.arm_cow(cluster)
        print(f"\n[dedup] merged {dedup.merged_pages_total()} pages; "
              f"{fmt_bytes(dedup.saved_bytes_total())} of memory pressure "
              f"relieved ({dedup.saved_bytes_total() / total:.1%})")
        # The application keeps writing; CoW faults break sharing honestly.
        rng = np.random.default_rng(78)
        ents[0].mutate_random(0.1, rng)
        st = dedup._states[ents[0].node_id]
        print(f"[dedup] after 10% churn on {ents[0].name}: "
              f"{st.cow_breaks} CoW breaks, savings now "
              f"{fmt_bytes(dedup.saved_bytes_total())}")
        concord.sync()

        # -- 2. replication of a critical process ------------------------------
        victim = ents[0]
        repl = CollectiveReplication(concord, k=2, stores=stores)
        result = concord.execute_command(repl,
                                         ServiceScope.of([victim.entity_id]))
        concord.sync()
        distinct = len(np.unique(victim.content_hashes()))
        print(f"\n[replicate] {victim.name}: {distinct} distinct blocks; "
              f"{repl.total('replicated') + repl.total('defensive')} replicas "
              f"created ({fmt_bytes(repl.total('bytes_shipped'))} shipped) — "
              f"existing redundancy covered the rest")

        # -- 3. failure and recovery -------------------------------------------
        image = victim.snapshot()
        descriptor_hashes = victim.content_hashes().copy()
        # A safety-net checkpoint for content replicas may miss.
        backing = CheckpointStore()
        concord.execute_command(CollectiveCheckpoint(backing),
                                ServiceScope.of([victim.entity_id]))
        backing_id = victim.entity_id
        print(f"\n[fail] node {victim.node_id} loses {victim.name}")
        concord.detach_entity(victim.entity_id)

        target = Entity.create(cluster, 5,
                               np.zeros(len(image), dtype=np.uint64),
                               name="recovered")
        concord.attach_entity(target)
        concord.sync()
        desc = ImageDescriptor(entity_id=target.entity_id,
                               hashes=descriptor_hashes)
        register_image(concord, target, desc)
        peers = [e.entity_id for e in ents[1:]] + \
            [s.entity.entity_id for s in stores.values()]
        recon = CollectiveReconstruction(desc, backing,
                                         backing_entity_id=backing_id)
        r = concord.execute_command(recon,
                                    ServiceScope.of([target.entity_id],
                                                    peers))
        states = [c.state for c in r.contexts.values() if c.state]
        net = sum(s.from_network for s in states)
        disk = sum(s.from_storage for s in states)
        assert (target.pages == image).all()
        print(f"[recover] rebuilt on node 5: {net} blocks from live memory "
              f"(peers + replicas), {disk} from checkpoint storage "
              f"({net / max(1, net + disk):.1%} storage-free)")
        print("[recover] image verified bit-for-bit — the redundancy placed "
              "in step 2 carried the recovery")


if __name__ == "__main__":
    main()
