"""The ShardStorage abstraction: where a LocalDHT's columns live.

The columnar DHT shard (docs/ARCHITECTURE.md, PR 1) keeps its packed
state as two parallel sorted ``uint64`` arrays plus tiny sparse side
tables.  A :class:`ShardStorage` owns the *durable* form of exactly that
state: the table hands it a :class:`StorageState` snapshot at every
packed-column merge (``commit``), and adopts whatever array views the
backend returns — so a backend can keep the live columns file-backed
(``np.memmap``) and the dataset stops being bounded by RAM.

Three backends (docs/STORAGE.md has the full matrix):

* :class:`~repro.dht.storage.memory.MemoryStorage` — no durable form;
  commit is the identity.  Exactly the pre-storage behavior, and the
  default.
* :class:`~repro.dht.storage.mmapseg.MmapSegmentStorage` — one columnar
  segment file per shard in the PR 6 ``ShardColumns`` layout
  (``[hashes | masks]``, ``2n`` little-endian u64), atomically replaced
  per commit, mapped back read-only.  ShardPool workers memmap the same
  segment zero-copy.
* :class:`~repro.dht.storage.sqlitewal.SqliteWalStorage` — every shard a
  row in one WAL-mode SQLite file; each commit is a real transaction
  (crash-safe at commit granularity).

Durability model: a commit happens at every packed-column mutation
(delta-overlay compaction, bulk write-back, range eviction, entity
purge) and on an explicit ``LocalDHT.flush()``.  Point updates buffered
in the delta overlay are *not* durable until one of those — the warm-
restart delta repair (docs/STORAGE.md) exists precisely to heal that
gap from the monitors' ground truth.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field

import numpy as np

from repro.util.env import env_default

__all__ = ["ShardStorage", "StorageState", "StorageConfig", "BACKENDS",
           "side_tables_to_json", "state_from_json"]

#: Valid values of ``StorageConfig.backend`` / ``$CONCORD_STORAGE``.
BACKENDS = ("memory", "mmap", "sqlite")


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
        ``"memory"`` (default), ``"mmap"``, or ``"sqlite"``; the
        ``CONCORD_STORAGE`` env var overrides the default, and
        ``--storage`` on ``repro serve`` overrides both.
    root:
        Directory holding the segment/database files.  None (the
        default, or unset ``CONCORD_STORAGE_DIR``) gives each engine a
        fresh private temp dir that is removed at close — persistent
        *mechanics* without cross-run state, which is what running a
        whole test suite under ``CONCORD_STORAGE=sqlite`` wants.  Point
        it at a real directory to get warm restarts across processes.
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


@dataclass
class StorageState:
    """One shard's complete columnar state, as handed to ``commit``.

    ``ph``/``pm`` are the packed sorted hash/low-mask columns; ``wide``
    and ``extra`` the sparse side tables (hash -> mask >> 64, and
    hash -> {entity: extra copies}); ``epoch`` the shard's update epoch
    at commit time (docs/SERVING.md), persisted so a warm restart can
    resume a monotone epoch sequence.
    """

    ph: np.ndarray
    pm: np.ndarray
    wide: dict[int, int]
    extra: dict[int, dict[int, int]]
    n_hashes: int
    n_copies: int
    epoch: int = 0


def side_tables_to_json(state: StorageState) -> dict:
    """The JSON-ready form of everything in ``state`` but the columns —
    the one metadata encoding the persistent backends share."""
    return {
        "wide": [[int(h), int(m)] for h, m in state.wide.items()],
        "extra": [[int(h), [[int(e), int(c)] for e, c in ex.items()]]
                  for h, ex in state.extra.items()],
        "n_hashes": int(state.n_hashes),
        "n_copies": int(state.n_copies),
        "epoch": int(state.epoch),
    }


def state_from_json(ph: np.ndarray, pm: np.ndarray,
                    meta: dict) -> StorageState:
    """Inverse of :func:`side_tables_to_json` around loaded columns."""
    return StorageState(
        ph=ph, pm=pm,
        wide={int(h): int(m) for h, m in meta["wide"]},
        extra={int(h): {int(e): int(c) for e, c in ex}
               for h, ex in meta["extra"]},
        n_hashes=int(meta["n_hashes"]), n_copies=int(meta["n_copies"]),
        epoch=int(meta.get("epoch", 0)))


class ShardStorage(abc.ABC):
    """Durable home of one shard's columns.  One instance per shard."""

    #: Whether commits survive the process (False only for MemoryStorage).
    persistent: bool = True

    @abc.abstractmethod
    def load(self) -> StorageState | None:
        """Read the last committed state, or None if nothing is stored.

        Returned ``ph``/``pm`` may be read-only views (memmaps); the
        table copy-on-writes them before any in-place mutation.
        """

    @abc.abstractmethod
    def commit(self, state: StorageState) -> tuple[np.ndarray, np.ndarray]:
        """Persist a snapshot; returns the (ph, pm) views the table
        should adopt as its live columns (possibly read-only maps of the
        just-written bytes — same content, file-backed)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Discard the durable state (wholesale logical wipe)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release file/database handles.  Idempotent."""

    def segment_path(self) -> str | None:
        """Path of a current columnar segment file in the ``ShardColumns``
        layout, when the backend has one (zero-copy worker export);
        None otherwise."""
        return None
