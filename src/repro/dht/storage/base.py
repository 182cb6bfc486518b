"""Shard storage configuration.

The columnar DHT shard (docs/ARCHITECTURE.md) keeps its packed state as
one frozen :class:`~repro.dht.generation.Generation`: two parallel sorted
``uint64`` columns plus the overflow columns and tiny side tables.  The
table hands each new generation to its storage (``commit``) and keeps
the file-backed copy that comes back — so the live columns can stay
file-backed (``np.memmap``) and the dataset stops being bounded by RAM.

Two settings (docs/STORAGE.md):

* ``memory`` — no durable form: the shard's ``storage`` is None, the
  live arrays *are* the state and a restarted process starts cold.  The
  default.
* ``mmap`` — :class:`~repro.dht.storage.mmapseg.MmapSegmentStorage`, one
  checksummed file per shard in the generation's own codec (a u64
  header, then ``[hashes | masks | extra hashes | extra entities | extra
  counts]``, then the wide spill), atomically replaced per commit,
  mapped back read-only.

Durability model: a commit happens at every write-log commit point (a
fraction of the table's hashes logged, or a scan-shaped read), range
eviction and entity purge, and on an explicit ``LocalDHT.flush()``.
Updates in the write log are *not* durable until one of those — the warm-
restart delta repair (docs/STORAGE.md) exists precisely to heal that
gap from the monitors' ground truth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.util.env import env_default

__all__ = ["StorageConfig", "BACKENDS"]

#: Valid values of ``StorageConfig.backend`` / ``$CONCORD_STORAGE``.
BACKENDS = ("memory", "mmap")


def _default_backend() -> str:
    """Default backend: the ``CONCORD_STORAGE`` env var, else memory."""
    return env_default("CONCORD_STORAGE", "memory", BACKENDS)


def _default_root() -> str | None:
    """Default storage root: ``CONCORD_STORAGE_DIR``, else None (a fresh
    private temp dir per engine, removed at close)."""
    return os.environ.get("CONCORD_STORAGE_DIR") or None


@dataclass(frozen=True)
class StorageConfig:
    """The storage section of :class:`~repro.core.config.ConCORDConfig`.

    Fields
    ------
    backend:
        ``"memory"`` (default) or ``"mmap"``; the ``CONCORD_STORAGE``
        env var overrides the default.
    root:
        Directory holding the shard files.  None (the default, or
        unset ``CONCORD_STORAGE_DIR``) gives each engine a fresh private
        temp dir that is removed at close — persistent *mechanics*
        without cross-run state, which is what running a whole test
        suite under ``CONCORD_STORAGE=mmap`` wants.  Point it at a real
        directory to get warm restarts across processes.
    """

    backend: str = field(default_factory=_default_backend)
    root: str | None = field(default_factory=_default_root)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}")

    @property
    def persistent(self) -> bool:
        """Whether commits produce durable on-disk state."""
        return self.backend != "memory"

