"""Node-specific module (NSM).

Paper §3.2: the NSM handles a particular kind of entity on a node.  It hosts
the memory update monitor, provides the environment in which service-command
callbacks execute, and "is responsible for maintaining a mapping from
content hash to the addresses and sizes of memory blocks in the entities it
tracks locally".

Two views coexist and may disagree:

* the *scanned* view (``last_scanned``): each entity's hash array as of
  its last monitor pass — the diff base of the next pass and what repair
  replays; it is what fed the DHT and may be stale;
* the *ground truth*: the entities' current memory, consulted when a
  ``collective_command`` arrives, so stale DHT information is detected
  exactly as in the real system.  The paper's hash -> block mapping is
  modelled here, by ``Entity.sorted_index()`` behind :meth:`resolve_block`:
  a block is resolved against what the entity holds *now*, never against
  the scanned view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.memory.entity import Entity

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = ["NodeSpecificModule", "BlockRef"]


@dataclass(frozen=True)
class BlockRef:
    """The opaque (pointer, size) the NSM hands to service callbacks."""

    entity_id: int
    page_idx: int
    size: int

    @property
    def pointer(self) -> tuple[int, int]:
        """The 'address': (entity, page index) in the simulated machine."""
        return (self.entity_id, self.page_idx)


class NodeSpecificModule:
    """Per-node entity handling: the scanned view and memory access."""

    def __init__(self, cluster: Cluster, node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.entity_ids: list[int] = []
        # entity -> hash array at last scan (diff base for the monitor)
        self.last_scanned: dict[int, np.ndarray] = {}

    # -- entity registration ---------------------------------------------------

    def attach_entity(self, entity: Entity) -> None:
        if entity.node_id != self.node_id:
            raise ValueError(
                f"entity on node {entity.node_id} attached to NSM {self.node_id}")
        if entity.entity_id < 0:
            raise ValueError("entity must be registered with the cluster first")
        if entity.entity_id not in self.entity_ids:
            self.entity_ids.append(entity.entity_id)

    def entities(self) -> list[Entity]:
        return [self.cluster.entity(eid) for eid in self.entity_ids]

    # -- scanned-view maintenance (called by the monitor) -------------------------

    def record_scan(self, entity: Entity, hashes: np.ndarray) -> None:
        """Replace the scanned view of ``entity`` with ``hashes``."""
        # A copy: the caller's array is the entity's hash cache, and
        # update_blocks writes into the stored one.
        self.last_scanned[entity.entity_id] = hashes.copy()

    def update_blocks(self, entity: Entity, page_idxs: np.ndarray,
                      new_hashes: np.ndarray) -> None:
        """Incrementally update the scanned view for specific pages.

        Used by write-fault (CoW) monitors, which learn about individual
        page writes as they happen rather than via full rescans.
        """
        eid = entity.entity_id
        old = self.last_scanned.get(eid)
        if old is None:
            raise ValueError(
                f"entity {eid} has no scan base; run a full scan first")
        old[np.asarray(page_idxs, dtype=np.int64)] = np.asarray(
            new_hashes, dtype=np.uint64)

    def detach_entity(self, eid: int) -> None:
        """Entity left the node (migration, termination)."""
        if eid in self.entity_ids:
            self.entity_ids.remove(eid)
        if eid in self.last_scanned:
            del self.last_scanned[eid]

    # -- block lookup --------------------------------------------------------------

    def resolve_block(self, entity_id: int, content_hash: int) -> BlockRef | None:
        """Ground-truth resolution: does the entity hold this hash *now*?

        Returns a :class:`BlockRef` usable by a callback, or None if the
        content is gone (the DHT's information was stale) — the failure case
        that makes the executor retry another replica.
        """
        entity = self.cluster.entity(entity_id)
        if entity.node_id != self.node_id:
            return None
        idx = entity.find_block(content_hash)
        if idx is None:
            return None
        return BlockRef(entity_id, idx, entity.block_size(idx))

    def read_block(self, ref: BlockRef) -> int:
        """Content ID behind a block reference."""
        return self.cluster.entity(ref.entity_id).read_block_id(ref.page_idx)

    # -- introspection -----------------------------------------------------------

    def scanned_hashes_of(self, eid: int) -> np.ndarray | None:
        return self.last_scanned.get(eid)
