"""Incremental collective checkpointing.

An extension beyond the paper (its related work cites AI-Ckpt's
incremental checkpointing as the state of the art the platform should
make easy): checkpoint a set of SEs *against a base checkpoint*, so
content already stored in the base is recorded as a pointer into the
base's shared content file rather than stored again.

The service demonstrates the architecture's composability: it is the
collective checkpoint with one extra node-local lookup in
``collective_command``, whose tagged result the checkpoint's local phase
records as a base pointer — zero changes to the engine, and no
local-phase callback of its own.  Each SE file now holds three record
kinds:

* base pointer  — content unchanged since the base checkpoint;
* new pointer   — content new to this checkpoint but deduplicated into
  its (small) shared content file;
* literal data  — content ConCORD was unaware of (best-effort gap).

Restore needs the increment plus its base
(:func:`restore_incremental_entity`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.command import ExecMode, NodeContext, ServiceCallbacks
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef
from repro.services.checkpoint import (_BASE_TAG, CheckpointStore,
                                       CollectiveCheckpoint, _restore_records)

__all__ = ["IncrementalCheckpoint", "restore_incremental_entity",
           "CheckpointChain"]


class IncrementalCheckpoint(CollectiveCheckpoint):
    """Collective checkpoint that dedups against a base checkpoint.

    Interactive mode only: the increment's value comes from cheap
    immediate lookups against the base; batch-mode plan surgery would buy
    nothing (and the base offsets are already known).
    """

    name = "incremental-checkpoint"

    def __init__(self, store: CheckpointStore, base: CheckpointStore,
                 pfs=None) -> None:
        if base is store:
            raise ValueError("the increment cannot use itself as base")
        super().__init__(store, pfs=pfs)
        self.base = base

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        if ctx.mode is not ExecMode.INTERACTIVE:
            raise ValueError(
                "IncrementalCheckpoint supports interactive mode only")
        super().service_init(ctx, config)

    # -- collective phase: check the base first --------------------------------------

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        base_off = self.base.shared.offset_of(content_hash)
        if base_off is not None:
            # Already stored by the base checkpoint: just remember where.
            ctx.charge_per_block(ctx.cost.query_compute_base)
            return (_BASE_TAG, base_off)
        return super().collective_command(ctx, entity, content_hash, block)

    # The base lookup is per hash: the default batch loops the above.
    collective_command_batch = ServiceCallbacks.collective_command_batch


def restore_incremental_entity(store: CheckpointStore,
                               base: CheckpointStore,
                               entity_id: int) -> np.ndarray:
    """Rebuild an SE from an incremental checkpoint plus its base."""
    return _restore_records(store, entity_id, base.shared.read)


class _ChainShared:
    """Duck-typed shared-file view across a chain of checkpoint stores.

    Offsets are tagged ``(store_index, offset)`` so base pointers written
    against the chain resolve to the member that actually holds the block.
    Lookup prefers the *newest* member holding a hash (identical content,
    so any member works; newest keeps locality with recent increments).
    """

    def __init__(self, stores: list[CheckpointStore]) -> None:
        self._stores = stores

    def offset_of(self, content_hash: int):
        for i in range(len(self._stores) - 1, -1, -1):
            off = self._stores[i].shared.offset_of(content_hash)
            if off is not None:
                return (i, off)
        return None

    def read(self, tagged_offset) -> int:
        i, off = tagged_offset
        return self._stores[i].shared.read(off)


class _ChainBaseView:
    """Presents a whole chain as the ``base`` of the next increment."""

    def __init__(self, stores: list[CheckpointStore]) -> None:
        self.shared = _ChainShared(stores)


class CheckpointChain:
    """A base checkpoint plus a series of increments, each built against
    everything before it — the rolling-checkpoint pattern incremental
    schemes exist for.

    ``take(concord, eids)`` appends one increment; ``restore(eid)``
    resolves pointers across the whole chain.
    """

    def __init__(self, base: CheckpointStore) -> None:
        self.stores: list[CheckpointStore] = [base]

    @property
    def base(self) -> CheckpointStore:
        return self.stores[0]

    @property
    def n_increments(self) -> int:
        return len(self.stores) - 1

    def take(self, concord, entity_ids: list[int]) -> CheckpointStore:
        """Take one more increment against the chain's current content."""
        from repro.core.scope import ServiceScope

        inc = CheckpointStore(self.base.page_size,
                              self.base.compress_fraction)
        view = _ChainBaseView(self.stores)
        svc = IncrementalCheckpoint(inc, view)  # type: ignore[arg-type]
        result = concord.execute_command(svc, ServiceScope.of(entity_ids))
        if not result.success:
            raise RuntimeError("incremental checkpoint failed")
        self.stores.append(inc)
        return inc

    def restore(self, entity_id: int) -> np.ndarray:
        """Restore from the newest member holding the entity's file,
        resolving base pointers across the whole chain."""
        for store in reversed(self.stores):
            if entity_id in store.se_files:
                return _restore_records(store, entity_id,
                                        _ChainShared(self.stores).read)
        raise KeyError(f"entity {entity_id} not in any chain member")

    @property
    def total_bytes(self) -> int:
        return sum(s.concord_size_bytes for s in self.stores)
