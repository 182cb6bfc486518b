#!/usr/bin/env python3
"""VM gang migration and reconstruction over ConCORD.

Two more application services built as content-aware service commands
(the second and third services of paper §6):

* **Collective migration** — move a gang of VMs to fresh nodes, sending
  each distinct memory block at most once, and sending nothing at all for
  blocks some entity at the destination already holds.
* **Collective reconstruction** — bring a checkpointed VM back on a new
  node, pulling as much of its image as possible from the *live* memory
  of similar VMs (cheap) and only the remainder from checkpoint storage
  (expensive).

The VMs share content (same guest OS image), which is exactly what both
services exploit.

Run:  python examples/vm_migration_and_reconstruction.py
"""

import numpy as np

from repro import (
    CheckpointStore,
    Cluster,
    CollectiveCheckpoint,
    CollectiveMigration,
    CollectiveReconstruction,
    ConCORD,
    Entity,
    EntityKind,
    ServiceScope,
)
from repro.services.migrate import MigrationPlan
from repro.services.reconstruct import ImageDescriptor, register_image
from repro.util.stats import fmt_bytes, fmt_time_s


def make_vm(cluster, node, os_pages, n_private, tag, rng):
    """A VM = shared guest-OS image pages + private working set."""
    private = rng.integers(tag << 32, (tag + 1) << 32, n_private,
                           dtype=np.uint64)
    pages = np.concatenate([os_pages, private])
    rng.shuffle(pages)
    return Entity.create(cluster, node, pages, kind=EntityKind.VM,
                         name=f"vm-{tag}")


def main() -> None:
    rng = np.random.default_rng(31)
    cluster = Cluster(8, cost="big-cluster", seed=31)
    os_pages = np.arange(1024, dtype=np.uint64) + 10_000  # shared OS image

    # Three VMs on nodes 0-2 (to be migrated), one unrelated VM already on
    # the destination side that happens to run the same OS.
    gang = [make_vm(cluster, i, os_pages, 512, tag=i + 1, rng=rng)
            for i in range(3)]
    resident = make_vm(cluster, 6, os_pages, 512, tag=9, rng=rng)
    with ConCORD(cluster) as concord:
        concord.initial_scan()

        gang_ids = [vm.entity_id for vm in gang]
        raw = CollectiveMigration.raw_bytes(cluster, gang_ids)
        print(f"migrating {len(gang)} VMs ({fmt_bytes(raw)}) from nodes 0-2 "
              f"to nodes 6-7; an unrelated VM with the same OS lives on "
              f"node 6")

        # -- migration as a service command -----------------------------------
        plan = MigrationPlan({gang_ids[0]: 6, gang_ids[1]: 7, gang_ids[2]: 7})
        svc = CollectiveMigration(plan)
        result = concord.execute_command(
            svc, ServiceScope.of(gang_ids, [resident.entity_id]))
        sent = sum(c.state.bytes_sent for c in result.contexts.values()
                   if c.state)
        local = sum(c.state.blocks_local_at_dest
                    for c in result.contexts.values() if c.state)
        print(f"  done in {fmt_time_s(result.wall_time)} (simulated)")
        print(f"  bytes sent {fmt_bytes(sent)} = {sent / raw:.1%} of naive; "
              f"{local} blocks were already resident at the destination")
        svc.finish(concord)
        concord.sync()
        print(f"  VMs now on nodes {[vm.node_id for vm in gang]}, "
              f"memory intact, tracking resumed")

        # -- checkpoint one VM, destroy it, reconstruct from live peers --------
        victim = gang[0]
        store = CheckpointStore()
        concord.execute_command(CollectiveCheckpoint(store),
                                ServiceScope.of([victim.entity_id]))
        descriptor_src = victim.entity_id
        image = victim.snapshot()
        print(f"\ncheckpointed {victim.name} "
              f"({fmt_bytes(store.concord_size_bytes)} on disk); "
              f"destroying it")
        concord.detach_entity(victim.entity_id)

        # A blank replacement VM on node 3; its believed content is the image.
        target = Entity.create(cluster, 3,
                               np.zeros(len(image), dtype=np.uint64),
                               kind=EntityKind.VM, name="vm-restored")
        concord.attach_entity(target)
        concord.sync()
        descriptor = ImageDescriptor.from_checkpoint(store, descriptor_src)
        descriptor = ImageDescriptor(entity_id=target.entity_id,
                                     hashes=descriptor.hashes,
                                     page_size=descriptor.page_size)
        register_image(concord, target, descriptor)

        recon = CollectiveReconstruction(descriptor, store,
                                         backing_entity_id=descriptor_src)
        peers = [vm.entity_id for vm in gang[1:]] + [resident.entity_id]
        result = concord.execute_command(
            recon, ServiceScope.of([target.entity_id], peers))
        st = [c.state for c in result.contexts.values() if c.state]
        net = sum(s.from_network for s in st)
        disk = sum(s.from_storage for s in st)
        print(f"reconstruction finished in {fmt_time_s(result.wall_time)} "
              f"(simulated): {net} blocks from live VM memory, "
              f"{disk} from checkpoint storage "
              f"({net / (net + disk):.1%} served without touching storage)")
        assert (target.pages == image).all()
        print("restored VM verified identical to the stored image")


if __name__ == "__main__":
    main()
