"""Incremental collective checkpointing.

An extension beyond the paper (its related work cites AI-Ckpt's
incremental checkpointing as the state of the art the platform should
make easy): checkpoint a set of SEs *against a base checkpoint*, so
content already stored in the base is recorded as a pointer into the
base's shared content file rather than stored again.

The service demonstrates the architecture's composability: it is the
collective checkpoint with one extra lookup of each shard batch's hashes
in the base, in ``collective_command_batch``, whose tagged results the
checkpoint's local phase records as base pointers — zero changes to the
engine, and no local-phase callback of its own.  Each SE file now holds
three record kinds:

* base pointer  — content unchanged since the base checkpoint;
* new pointer   — content new to this checkpoint but deduplicated into
  its (small) shared content file;
* literal data  — content ConCORD was unaware of (best-effort gap).

Restore needs the increment plus its base
(:func:`restore_incremental_entity`).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.core.command import CollectiveBatch, ExecMode, NodeContext
from repro.services.checkpoint import (_BASE_TAG, CheckpointStore,
                                       CollectiveCheckpoint, _restore_records)

__all__ = ["IncrementalCheckpoint", "restore_incremental_entity",
           "CheckpointChain"]


class IncrementalCheckpoint(CollectiveCheckpoint):
    """Collective checkpoint that dedups against a base checkpoint.

    Interactive mode only: the increment's value comes from one lookup
    of each batch against the base; batch-mode plan surgery would buy
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

    def collective_command_batch(self, batch: CollectiveBatch) -> np.ndarray:
        """A row whose hash the base already stores gets its base pointer,
        ``(_BASE_TAG, offset)``, for one query charge; the other rows go
        through the checkpoint's own batch (an object column)."""
        offsets = self.base.shared.offsets_of(batch.hashes)
        held = offsets != -1
        privates = np.empty(len(batch), dtype=object)
        privates[held] = np.fromiter(
            ((_BASE_TAG, off) for off in offsets[held].tolist()), object,
            int(held.sum()))
        batch.take(held).charge_per_block(batch.cost.query_compute_base)
        privates[~held] = super().collective_command_batch(batch.take(~held))
        return privates


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

    def offsets_of(self, content_hashes) -> np.ndarray:
        """Each hash's ``(store index, offset)``, -1 where no member
        holds it (an object column)."""
        out = np.full(len(content_hashes), -1, dtype=object)
        for i in range(len(self._stores) - 1, -1, -1):
            off = self._stores[i].shared.offsets_of(content_hashes)
            new = np.flatnonzero((off >= 0) & (out == -1))
            out[new] = np.fromiter(((i, o) for o in off[new].tolist()),
                                   object, len(new))
        return out

    def read(self, tagged_offset) -> int:
        i, off = tagged_offset
        return self._stores[i].shared.read(off)


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
        # The chain as the increment's base, of which it reads the shared file.
        view = SimpleNamespace(shared=_ChainShared(self.stores))
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
