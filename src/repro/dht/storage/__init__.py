"""Shard storage (docs/STORAGE.md).

``open_storage(StorageConfig(...), n_nodes, registry)`` resolves the
configured backend into one
:class:`~repro.dht.storage.mmapseg.MmapSegmentStorage` per shard — or
None per shard on the RAM-only ``memory`` backend — bundled in a
:class:`StorageSet` the engine owns for lifecycle (growth on join, the
ephemeral-root cleanup).  On ``mmap`` each shard's bring-up or warm
rejoin that finds a file counts ``storage.recover{rung=warm|cold}``
(loaded / refused) in the registry.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref

from repro.dht.storage.base import BACKENDS, StorageConfig
from repro.dht.storage.mmapseg import MmapSegmentStorage
from repro.obs.registry import MetricsRegistry

__all__ = [
    "BACKENDS", "StorageConfig", "MmapSegmentStorage",
    "StorageSet", "open_storage",
]


def _cleanup_root(state: dict) -> None:
    root = state.pop("ephemeral_root", None)
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)


class StorageSet:
    """The per-shard storages of one engine, opened from one config.

    ``root`` is None on the ``memory`` backend, whose shards have no
    storage at all.  ``ephemeral`` is True when an ``mmap`` config named
    no root: the shard files are real but live in a private temp dir
    removed at close — which is what e.g. running a whole test suite
    under ``CONCORD_STORAGE=mmap`` wants.  A named root is durable:
    close leaves it behind for the next process to warm-restart from.
    """

    def __init__(self, cfg: StorageConfig, n_nodes: int,
                 registry: MetricsRegistry | None = None) -> None:
        self.cfg = cfg
        self.ephemeral = cfg.persistent and cfg.root is None
        self._state: dict = {}
        self.root = cfg.root if cfg.persistent else None
        if self.ephemeral:
            self.root = tempfile.mkdtemp(prefix="concord-store-")
            self._state["ephemeral_root"] = self.root
        self._recoveries = None if self.root is None or registry is None \
            else {r: registry.counter("storage.recover", rung=r)
                  for r in ("warm", "cold")}
        self.shards: list[MmapSegmentStorage | None] = []
        for _ in range(n_nodes):
            self.add_shard()
        self._finalizer = weakref.finalize(self, _cleanup_root, self._state)

    @property
    def durable(self) -> bool:
        """Whether commits outlive this process (a named ``mmap`` root)."""
        return self.root is not None and not self.ephemeral

    def add_shard(self) -> MmapSegmentStorage | None:
        """Open storage for one more shard (live node join) and return it.

        The new shard follows the set's backend and root, so a later
        warm restart at the grown membership finds every shard where
        ``open_storage(cfg, new_n_nodes)`` would look for it.
        """
        shard = (None if self.root is None
                 else MmapSegmentStorage(self.root, len(self.shards),
                                         self._recoveries))
        self.shards.append(shard)
        return shard

    def close(self) -> None:
        """Remove the ephemeral root.  Idempotent."""
        _cleanup_root(self._state)


def open_storage(cfg: StorageConfig | None, n_nodes: int,
                 registry: MetricsRegistry | None = None) -> StorageSet:
    """Open per-shard storage for an engine (None = env-driven default)."""
    return StorageSet(cfg if cfg is not None else StorageConfig(), n_nodes,
                      registry)
