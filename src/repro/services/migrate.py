"""Collective migration (paper §6, third service).

"Migrates a group of VMs from one set of nodes to another set of nodes,
leveraging memory redundancy": a block already present on a destination
node (in any tracked entity there) need not cross the network at all, and
a block shared by several migrating VMs crosses exactly once.

Implementation as a service command:

* SEs — the migrating entities; PEs — everything else (destination-resident
  entities are the valuable ones).
* ``collective_select`` prefers a replica already living on a destination
  node; such blocks cost zero transfer.  Otherwise the block ships from the
  selected source replica to the destination group (one copy).
* The local phase counts each SE's blocks against the handled set; blocks
  the DHT missed ship individually (correctness fallback).
* :meth:`finish` then relocates the entities: reassigns their node,
  detaches them from the source NSM and attaches at the destination —
  memory content is untouched, as a migration must be.

Result metrics: bytes actually sent vs the raw ``sum(memory)`` a naive
migration moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.command import NodeContext, ServiceCallbacks
from repro.core.concord import ConCORD
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef

__all__ = ["CollectiveMigration", "MigrationPlan"]


@dataclass(frozen=True)
class MigrationPlan:
    """Which entity goes to which node."""

    destinations: dict[int, int]  # entity_id -> destination node

    def dest_nodes(self) -> set[int]:
        return set(self.destinations.values())


@dataclass
class _MigNodeState:
    blocks_sent: int = 0
    blocks_dedup_source: int = 0   # shared across SEs: sent once, reused
    blocks_local_at_dest: int = 0  # already on a destination node
    fallback_blocks: int = 0       # shipped individually by the local phase
    bytes_sent: int = 0


class CollectiveMigration(ServiceCallbacks):
    """Move a group of entities, sending each distinct block at most once."""

    name = "collective-migration"

    def __init__(self, plan: MigrationPlan) -> None:
        self.plan = plan
        self._page_size = 4096

    # -- selection: prefer destination-resident replicas --------------------------------

    def collective_select(self, ctx: NodeContext, content_hash: int,
                          candidates: list[int]) -> int | None:
        dests = self.plan.dest_nodes()
        for eid in candidates:
            if (ctx.cluster.node_of(eid) in dests
                    and eid not in self.plan.destinations):
                return eid  # already at a destination: free
        return None  # no preference; engine picks at random

    # -- service lifecycle ------------------------------------------------------------------

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        ctx.state = _MigNodeState()

    def collective_start(self, ctx: NodeContext, role: EntityRole,
                         entity: Entity, hash_sample: np.ndarray) -> None:
        if role is EntityRole.SERVICE:
            self._page_size = entity.page_size

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        """Runs on the selected replica's node; ships the block if needed."""
        st: _MigNodeState = ctx.state
        content_id = ctx.read_block(block)
        dests = self.plan.dest_nodes()
        if ctx.node_id in dests and entity.entity_id not in self.plan.destinations:
            # A non-migrating entity at the destination already holds it.
            st.blocks_local_at_dest += 1
            return content_id
        # Ship once to one destination node; destinations can share it
        # among themselves over their (typically faster local) paths.
        target = min(dests)
        nbytes = self._page_size
        ctx.send_bytes(target, nbytes)
        ctx.charge_per_block(ctx.cost.memcpy_per_byte * nbytes)
        st.blocks_sent += 1
        st.bytes_sent += nbytes * ctx.n_represented
        return content_id

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: dict[int, Any]) -> None:
        st: _MigNodeState = ctx.state
        n = len(hashes)
        n_cov = int(covered.sum())
        n_miss = n - n_cov
        st.blocks_dedup_source += n_cov
        if n_miss:
            # ConCORD missed these blocks: ship them directly (correctness).
            dest = self.plan.destinations[entity.entity_id]
            nbytes = entity.page_size * n_miss
            ctx.send_bytes(dest, nbytes)
            ctx.charge_per_block(ctx.cost.memcpy_per_byte * entity.page_size,
                                 n_miss)
            st.fallback_blocks += n_miss
            st.bytes_sent += nbytes * ctx.n_represented

    # -- post-command relocation -----------------------------------------------------------

    def finish(self, concord: ConCORD) -> None:
        """Relocate the migrated entities (memory content unchanged).

        The scan base travels with the entity — the real system migrates
        the VMM-side tracking state along with the VM — so the destination
        monitor diffs against it instead of re-reporting the whole memory
        (which would double-count every page in the DHT).
        """
        cluster = concord.cluster
        for eid, dest in self.plan.destinations.items():
            entity = cluster.entity(eid)
            src = entity.node_id
            if src == dest:
                continue
            base = concord.nsms[src].scanned_hashes_of(eid)
            concord.nsms[src].detach_entity(eid)
            entity.node_id = dest
            concord.nsms[dest].attach_entity(entity)
            if base is not None:
                concord.nsms[dest].record_scan(entity, base)
        # The DHT's (hash -> entity) mapping is node-agnostic; entity->node
        # placement is cluster state, so no further DHT updates are needed
        # beyond the next monitor pass confirming content.

    # -- result metrics ---------------------------------------------------------------------

    @staticmethod
    def raw_bytes(cluster, entity_ids: list[int], n_represented: int = 1) -> int:
        """What a naive migration transfers: every byte of every SE."""
        return sum(cluster.entity(e).memory_bytes for e in entity_ids) \
            * n_represented
