#!/usr/bin/env python3
"""Live redundancy analysis driving sharing-aware placement.

A tools-on-top-of-the-platform story (the paper's refactoring argument):
with content tracking factored into ConCORD, a profiler, a placement
advisor, and the migration engine are all thin clients of the same data.

1. Six VMs from two "families" (two different guest OS images) start
   scattered across four nodes; applications churn their private memory
   while ConCORD's monitors track everything.
2. A redundancy profiler snapshots sharing over (simulated) time.
3. A Memory-Buddies-style advisor builds the sharing graph from DHT state
   and suggests a co-location that maximizes intra-node sharing.
4. Collective migration executes the suggestion, moving each distinct
   block at most once.
5. The profiler confirms intra-node sharing (what KSM-style dedup could
   reclaim locally) went up.

Run:  python examples/live_analysis_and_placement.py
"""

import numpy as np

from repro import Cluster, ConCORD, Entity, EntityKind, ServiceScope
from repro.analysis import (
    RedundancyProfiler,
    sharing_graph,
    suggest_colocation,
    placement_sharing_score,
    top_shared_content,
)
from repro.services.migrate import CollectiveMigration, MigrationPlan
from repro.workloads import ChurnDriver
from repro.util.stats import fmt_bytes


def make_family_vm(cluster, node, image, tag, rng, private=256):
    pages = np.concatenate([
        image, rng.integers(tag << 40, (tag + 1) << 40, private,
                            dtype=np.uint64)])
    rng.shuffle(pages)
    return Entity.create(cluster, node, pages, kind=EntityKind.VM,
                         name=f"vm-{tag}")


def main() -> None:
    rng = np.random.default_rng(55)
    cluster = Cluster(4, cost="new-cluster", seed=55)
    image_a = np.arange(512, dtype=np.uint64) + 1_000_000   # debian image
    image_b = np.arange(512, dtype=np.uint64) + 2_000_000   # rhel image
    # Deliberately bad placement: every co-resident pair is cross-family,
    # so no node-local sharing exists to start with.
    vms = [
        make_family_vm(cluster, 0, image_a, 1, rng),
        make_family_vm(cluster, 0, image_b, 2, rng),
        make_family_vm(cluster, 1, image_a, 3, rng),
        make_family_vm(cluster, 1, image_b, 4, rng),
        make_family_vm(cluster, 2, image_a, 5, rng),
        make_family_vm(cluster, 3, image_b, 6, rng),
    ]
    eids = [vm.entity_id for vm in vms]
    with ConCORD(cluster) as concord:
        concord.initial_scan()
        print(f"6 VMs ({fmt_bytes(sum(vm.memory_bytes for vm in vms))}) on 4 "
              f"nodes; two guest images, interleaved placement")

        # -- churn + periodic profiling on the simulated clock -----------------
        profiler = RedundancyProfiler(concord, eids)
        profiler.snapshot(time=0.0)
        ChurnDriver(vms, pages_per_tick=8, pattern="hotspot",
                    seed=55).run_on(cluster.engine, period=1.0, horizon=6.0)
        profiler.run_on(cluster.engine, period=2.0, horizon=6.0)
        cluster.engine.run()
        print("\nredundancy under churn:")
        print(profiler.report().render(float_fmt="{:.3f}"))

        top = top_shared_content(concord, eids, n=3)
        print("\nmost replicated content: "
              + ", ".join(f"0x{h:012x} x{c}" for h, c in top))

        # -- sharing-aware placement -------------------------------------------
        g = sharing_graph(concord, eids)
        current = {vm.entity_id: vm.node_id for vm in vms}
        suggestion = suggest_colocation(g, n_nodes=3, capacity=2)
        print(f"\nplacement advisor: intra-node shared hashes "
              f"{placement_sharing_score(g, current)} now -> "
              f"{placement_sharing_score(g, suggestion)} if applied")

        # -- act on it with collective migration -------------------------------
        moves = {eid: node for eid, node in suggestion.items()
                 if node != current[eid]}
        print(f"migrating {len(moves)} VMs to realise the suggestion")
        svc = CollectiveMigration(MigrationPlan(moves))
        pes = [e for e in eids if e not in moves]
        result = concord.execute_command(svc,
                                         ServiceScope.of(list(moves), pes))
        sent = sum(c.state.bytes_sent for c in result.contexts.values()
                   if c.state)
        raw = CollectiveMigration.raw_bytes(cluster, list(moves))
        print(f"  moved {fmt_bytes(sent)} over the wire "
              f"({sent / raw:.0%} of a naive migration)")
        svc.finish(concord)
        concord.sync()

        before = profiler.history[-1].intra_sharing
        after = profiler.snapshot().intra_sharing
        print(f"\nintra-node sharing: {before:.3f} -> {after:.3f} "
              f"(local dedup potential unlocked by co-location)")
        assert after > before


if __name__ == "__main__":
    main()
