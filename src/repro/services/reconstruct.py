"""Collective VM reconstruction (dissertation §7.2).

"Recreates the memory image of a stored VM (the service entity) using the
memory content of other VMs currently active (the participating entities)."

Flow: the stored image is a descriptor mapping page index -> content hash
(e.g. read from a checkpoint).  The target entity is created blank on the
destination node and its *believed* content — the descriptor's hashes — is
registered in the DHT (:func:`register_image`), standing in for the
tracking ConCORD did while the VM was alive.  The service command then:

* collective phase: for each descriptor hash some live PE still holds,
  reads the block on the PE's node and ships it toward the destination
  (``collective_command`` returns the content as the private data, which
  the engine's handled-set dissemination delivers to the SE's node);
* local phase: fills every descriptor page — from the shipped content when
  available, else from the backing store (the checkpoint), charging the
  slower storage-read cost.  The target's own pages are blank, so what a
  page needs is keyed by the *descriptor's* hash, not the block's: the
  service implements the whole-entity ``local_command_batch``, which is
  handed the node's full handled map.

The result is always a complete image; the win is the fraction sourced
from cheap live memory instead of storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.command import NodeContext, ServiceCallbacks
from repro.core.concord import ConCORD
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef
from repro.services.checkpoint import CheckpointStore, restore_entity
from repro.util.hashing import page_hashes

__all__ = ["CollectiveReconstruction", "ImageDescriptor", "register_image"]

# Reading a block from checkpoint storage vs live memory: storage is the
# expensive path reconstruction tries to avoid (modelled at ~100 MB/s).
_STORAGE_READ_PER_BYTE = 10e-9
_STORAGE_READ_BASE = 20e-6


@dataclass(frozen=True)
class ImageDescriptor:
    """The stored image: page index -> (content hash, content id).

    Content IDs live in the backing store; hashes are what ConCORD can
    locate in live memory.
    """

    entity_id: int
    hashes: np.ndarray        # per target page
    page_size: int = 4096

    @classmethod
    def from_checkpoint(cls, store: CheckpointStore,
                        entity_id: int) -> ImageDescriptor:
        pages = restore_entity(store, entity_id)
        return cls(entity_id=entity_id, hashes=page_hashes(pages),
                   page_size=store.page_size)

    @property
    def n_pages(self) -> int:
        return len(self.hashes)


def register_image(concord: ConCORD, target: Entity,
                   descriptor: ImageDescriptor) -> int:
    """Register the descriptor's hashes as the target's believed content.

    This mirrors the state ConCORD would naturally hold had it tracked the
    stored VM until it stopped: the DHT maps each image hash to the target
    entity, which is exactly what drives the collective phase.  Returns the
    number of inserts.
    """
    hashes = np.asarray(descriptor.hashes, dtype=np.uint64)
    inserts = np.column_stack([hashes, np.full_like(hashes, target.entity_id)])
    concord.tracing.route_updates(target.node_id, inserts, [])
    concord.cluster.engine.run()
    return len(inserts)


@dataclass
class _ReconNodeState:
    from_network: int = 0      # blocks served out of live PE memory
    from_storage: int = 0      # blocks read from the backing store
    pages_filled: int = 0


class CollectiveReconstruction(ServiceCallbacks):
    """Rebuild a blank SE from live PEs plus a backing checkpoint."""

    name = "collective-reconstruction"

    def __init__(self, descriptor: ImageDescriptor, backing: CheckpointStore,
                 backing_entity_id: int | None = None) -> None:
        self.descriptor = descriptor
        self.backing = backing
        # The checkpoint was written under the *stored* VM's old entity ID,
        # which generally differs from the freshly created target's ID.
        self.backing_entity_id = (descriptor.entity_id
                                  if backing_entity_id is None
                                  else backing_entity_id)
        self._wanted = frozenset(int(h) for h in descriptor.hashes.tolist())
        self._rows = self._cids = None      # backing page -> row; content IDs

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        ctx.state = _ReconNodeState()

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        """Runs on a live replica's node: read and ship the block."""
        if int(content_hash) not in self._wanted:
            # Content the DHT believes the target holds (e.g. its blank
            # pages) but that the image does not need: nothing to ship.
            return True
        content_id = ctx.read_block(block)
        target_node = ctx.cluster.node_of(self.descriptor.entity_id)
        ctx.charge_per_block(ctx.cost.memcpy_per_byte * self.descriptor.page_size)
        ctx.send_bytes(target_node, self.descriptor.page_size)
        ctx.state.from_network += 1
        return content_id

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: dict[int, Any]) -> None:
        """Runs on the destination node: fill every target page.

        ``hashes`` are the *blank* target's; what a page needs is named by
        the descriptor, so shipped content is looked up in ``handled_map``
        under the descriptor's hash — which is why this service takes the
        whole-entity form of the local phase.
        """
        if entity.entity_id != self.descriptor.entity_id:
            return
        st: _ReconNodeState = ctx.state
        page_size = self.descriptor.page_size
        wanted = self.descriptor.hashes.tolist()
        stored = self.backing.shared.offsets_of(wanted).tolist()
        self._rows = self._cids = None      # resolve once per local phase
        for idx, (h, is_covered) in enumerate(zip(hashes.tolist(),
                                                  covered.tolist())):
            st.pages_filled += 1
            want_hash = wanted[idx]
            if is_covered and h == want_hash:
                # The blank page already matched?  Only possible if the
                # blank content coincides with the target; nothing to do.
                continue
            shipped = handled_map.get(want_hash)
            # bool is an int subclass; True is the engine's "handled, no
            # data" marker and must not be mistaken for a content ID.
            if isinstance(shipped, int) and not isinstance(shipped, bool):
                entity.write_page(idx, shipped)
                ctx.charge_per_block(ctx.cost.memcpy_per_byte * page_size)
            else:
                entity.write_page(idx, self._read_backing(want_hash, idx, stored[idx]))
                ctx.charge_per_block(_STORAGE_READ_BASE
                                     + _STORAGE_READ_PER_BYTE * page_size)
                st.from_storage += 1

    def _read_backing(self, want_hash: int, page_idx: int, offset: int) -> int:
        """Backing content: the shared block at ``offset`` (-1: none), else the
        page's first record (file index and content IDs built once per phase)."""
        if offset >= 0:
            return self.backing.shared.read(offset)
        f = self.backing.se_files.get(self.backing_entity_id)
        if f is not None:
            if self._rows is None:
                pages, rows = np.unique(f.columns()[1], return_index=True)
                self._rows = dict(zip(pages.tolist(), rows.tolist()))
            row = self._rows.get(page_idx)
            if row is not None:
                if self._cids is None:
                    self._cids = self.backing._content_ids(f)
                return int(self._cids[row])
        raise KeyError(f"hash {want_hash:#x} in neither live memory nor store")
