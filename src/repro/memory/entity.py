"""Entities: objects that have memory.

An entity's address space is an array of fixed-size pages.  A page's content
is represented by a 64-bit *content ID*: two pages are identical iff their
IDs are equal.  The canonical content hash of a page is
``repro.util.hashing.page_hashes(id)`` — bijective, so the simulated DHT sees
exactly the equality structure the generator produced.  Real bytes can be
materialized deterministically from an ID (:mod:`repro.memory.pagedata`) for
end-to-end checkpoint/restore runs.

Entities support in-place mutation (page writes) with a dirty-bit vector, so
memory update monitors can run in scan, dirty-bit, or CoW modes and the DHT
view can become stale relative to this ground truth — the situation the
content-aware service command's two-phase execution exists to handle.

The tracked unit is a *block*.  With the default fixed chunking a block
is a page (block index == page index, block size == page_size); with a
:class:`~repro.memory.chunking.ContentChunker` attached the blocks are
content-defined chunks of the entity's materialized byte stream —
variable-sized, re-derived (and cached) per mutation version.  Consumers
that touch content go through the block API (``block_ids``,
``read_block_id``, ``block_size``, ``n_blocks``, ``content_hashes``);
the page API stays the raw address-space view either way.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.util.hashing import page_hashes

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster

__all__ = ["Entity", "EntityKind"]


class EntityKind(enum.Enum):
    """The kinds of entities this reproduction tracks (paper §1 names
    hosts, VMs, processes, and applications; we model the two studied)."""

    PROCESS = "process"
    VM = "vm"


class Entity:
    """An entity (process or VM) with paged memory placed on one node."""

    def __init__(self, node_id: int, pages: np.ndarray,
                 kind: EntityKind = EntityKind.PROCESS,
                 name: str = "", page_size: int = 4096) -> None:
        self.node_id = node_id
        self.kind = kind
        self.name = name
        self.page_size = page_size
        self.entity_id: int = -1  # assigned by Cluster.register_entity
        self._pages = np.ascontiguousarray(pages, dtype=np.uint64)
        if self._pages.ndim != 1:
            raise ValueError("pages must be a 1-D array of content IDs")
        self.dirty = np.zeros(len(self._pages), dtype=bool)
        self.version = 0
        self.frozen = False  # paused VMs reject writes (consistency points)
        self._hash_cache_version = -1
        self._hash_cache: np.ndarray | None = None
        self._index_cache_version = -1
        self._index_cache: tuple[np.ndarray, np.ndarray] | None = None
        # Content-defined chunking (docs/RECONCILIATION.md): None = fixed
        # page blocks; a ContentChunker re-derives blocks per version.
        self.chunker = None
        self._chunk_cache_version = -1
        self._chunk_ids: np.ndarray | None = None
        self._chunk_sizes: np.ndarray | None = None
        # Write observers: called after each write with (entity, idxs array).
        # This is the hook CoW/write-fault monitors use (paper §3.1: "page
        # faults then indicate writes").
        self._write_observers: list = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, cluster: Cluster, node_id: int, pages: np.ndarray,
               kind: EntityKind = EntityKind.PROCESS, name: str = "",
               page_size: int = 4096) -> Entity:
        """Create and register an entity on a cluster."""
        e = cls(node_id, pages, kind=kind, name=name, page_size=page_size)
        cluster.register_entity(e)
        if not e.name:
            e.name = f"{kind.value}-{e.entity_id}"
        return e

    @classmethod
    def from_bytes(cls, cluster: Cluster, node_id: int, data: bytes,
                   kind: EntityKind = EntityKind.PROCESS, name: str = "",
                   page_size: int = 4096) -> Entity:
        """Create an entity backed by a real byte stream.

        The stream is split into ``page_size`` slices (zero-padded at the
        tail) and each slice interned as its own content ID, so the
        fixed-chunking view hashes exactly these slices while a content-
        defined chunker re-derives boundaries from the raw bytes — the
        shifted-content experiment's setup (docs/RECONCILIATION.md).
        """
        from repro.memory.pagedata import intern_chunk

        if page_size < 16:
            raise ValueError("page_size must be at least 16")
        pad = (-len(data)) % page_size
        padded = bytes(data) + b"\x00" * pad if pad else bytes(data)
        ids = [intern_chunk(padded[off:off + page_size])
               for off in range(0, len(padded), page_size)]
        return cls.create(cluster, node_id,
                          np.asarray(ids, dtype=np.uint64), kind=kind,
                          name=name, page_size=page_size)

    # -- geometry ---------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    @property
    def memory_bytes(self) -> int:
        return self.n_pages * self.page_size

    # -- content access -----------------------------------------------------------

    @property
    def pages(self) -> np.ndarray:
        """Current page content IDs (read-only view)."""
        v = self._pages.view()
        v.flags.writeable = False
        return v

    def read_page(self, page_idx: int) -> int:
        """Content ID of one page."""
        return int(self._pages[page_idx])

    def set_chunker(self, chunker) -> None:
        """Attach (or clear) a content-defined chunker.

        Idempotent per scheme: attaching drops the chunk/hash caches so
        the next ``content_hashes()`` reflects the new block geometry.
        """
        if chunker is self.chunker:
            return
        self.chunker = chunker
        self._chunk_cache_version = -1
        self._hash_cache_version = -1
        self._index_cache_version = -1

    @property
    def chunked(self) -> bool:
        return self.chunker is not None

    def _chunks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._chunk_cache_version != self.version:
            self._chunk_ids, self._chunk_sizes = \
                self.chunker.chunk_pages(self._pages, self.page_size)
            self._chunk_cache_version = self.version
        return self._chunk_ids, self._chunk_sizes

    @property
    def n_blocks(self) -> int:
        """Tracked blocks: pages under fixed chunking, chunks under cdc."""
        return len(self._chunks()[0]) if self.chunked else self.n_pages

    def block_ids(self) -> np.ndarray:
        """Content ID per tracked block (== ``pages`` when not chunked)."""
        return self._chunks()[0] if self.chunked else self.pages

    def read_block_id(self, block_idx: int) -> int:
        """Content ID of one tracked block."""
        if self.chunked:
            return int(self._chunks()[0][block_idx])
        return int(self._pages[block_idx])

    def block_size(self, block_idx: int) -> int:
        """Byte size of one tracked block (page_size when not chunked)."""
        if self.chunked:
            return int(self._chunks()[1][block_idx])
        return self.page_size

    def content_hashes(self) -> np.ndarray:
        """Current content hash per tracked block (cached until mutated)."""
        if self._hash_cache_version != self.version:
            self._hash_cache = page_hashes(self.block_ids())
            self._hash_cache_version = self.version
        return self._hash_cache

    def sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The current content hashes, sorted and distinct, and the block
        index holding each (cached until mutated).

        This is the node-local "ground truth" lookup collective_command
        relies on to detect stale DHT information.  Of equal hashes the
        later block wins; which replica within the entity is used does
        not matter since content is identical by definition.
        """
        if self._index_cache_version != self.version:
            h = self.content_hashes()
            by_hash = np.argsort(h)
            h = h[by_hash]
            run = np.flatnonzero(np.append(True, h[1:] != h[:-1])[:len(h)])
            self._index_cache = (h[run], np.maximum.reduceat(by_hash, run))
            self._index_cache_version = self.version
        return self._index_cache

    def holds_hash(self, content_hash: int) -> bool:
        """Does this entity *currently* hold a block with this hash?"""
        return self.find_block(content_hash) is not None

    def find_block(self, content_hash: int) -> int | None:
        """Page index currently holding ``content_hash``, else None."""
        h = int(content_hash)
        if not 0 <= h < 2**64:
            return None
        hashes, blocks = self.sorted_index()
        i = int(hashes.searchsorted(np.uint64(h)))
        return int(blocks[i]) if i < len(hashes) and hashes[i] == h else None

    # -- mutation ---------------------------------------------------------------

    def add_write_observer(self, fn) -> None:
        """Register ``fn(entity, page_idxs)`` to run after every write."""
        self._write_observers.append(fn)

    def remove_write_observer(self, fn) -> None:
        self._write_observers.remove(fn)

    def _notify_write(self, idxs: np.ndarray) -> None:
        for fn in self._write_observers:
            fn(self, idxs)

    def _check_writable(self) -> None:
        if self.frozen:
            raise RuntimeError(
                f"entity {self.entity_id} is frozen (paused); writes rejected")

    def write_page(self, page_idx: int, content_id: int) -> None:
        """Write one page (sets the dirty bit, bumps the version)."""
        self._check_writable()
        self._pages[page_idx] = np.uint64(content_id)
        self.dirty[page_idx] = True
        self.version += 1
        self._notify_write(np.array([page_idx], dtype=np.int64))

    def write_pages(self, page_idxs: np.ndarray, content_ids: np.ndarray) -> None:
        """Vectorized multi-page write."""
        self._check_writable()
        idxs = np.asarray(page_idxs, dtype=np.int64)
        self._pages[idxs] = np.asarray(content_ids, dtype=np.uint64)
        self.dirty[idxs] = True
        self.version += 1
        self._notify_write(idxs)

    def mutate_random(self, fraction: float, rng: np.random.Generator,
                      content_pool: np.ndarray | None = None) -> np.ndarray:
        """Overwrite a random ``fraction`` of pages; returns written indices.

        New content comes from ``content_pool`` if given (enabling mutations
        that *create* redundancy), else from fresh unique IDs.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        k = int(round(fraction * self.n_pages))
        if k == 0:
            return np.empty(0, dtype=np.int64)
        idxs = rng.choice(self.n_pages, size=k, replace=False)
        if content_pool is not None:
            new = rng.choice(np.asarray(content_pool, dtype=np.uint64), size=k)
        else:
            new = rng.integers(1 << 62, 1 << 63, size=k, dtype=np.uint64)
        self.write_pages(idxs, new)
        return np.sort(idxs)

    def clear_dirty(self) -> np.ndarray:
        """Return indices of dirty pages and reset the dirty-bit vector.

        Models the paper's periodic mark-clean-then-rescan use of the x86
        nested-page-table dirty bit.
        """
        idxs = np.flatnonzero(self.dirty)
        self.dirty[:] = False
        return idxs

    def snapshot(self) -> np.ndarray:
        """Copy of current page IDs (for test reference models)."""
        return self._pages.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Entity(id={self.entity_id}, node={self.node_id}, "
                f"kind={self.kind.value}, pages={self.n_pages})")
