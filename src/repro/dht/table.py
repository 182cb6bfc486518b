"""The local DHT instance on one node.

"The target daemon maintains a hash table that maps from each content hash
it holds to a bitmap representation of the set of entities that currently
have the corresponding content" (paper §3.3).

Representation: one frozen :class:`~repro.dht.generation.Generation`
(packed hash and mask columns, wide spill, multi-copy overflow columns,
counters) plus an append-only write log.  Every writer — :meth:`insert`,
:meth:`remove`, :meth:`bulk_insert`, :meth:`bulk_remove` and
:meth:`remove_entity`'s counted removes — appends (hash u64, entity i64,
step ±1 i8) rows to three growable buffers and does nothing else.  The
log holds the rows since the last commit; :func:`~repro.dht.generation.
fold` applies them in one vectorised pass (skip-absent rule in closed
form).  A fold is *committed* (to storage, if any) once the log has
touched ``max(4096, rows >> 3)`` distinct hashes (``rows`` as of the
last commit: LSM-style amortization), and whenever a scan-shaped read
(:meth:`se_scan`, :meth:`items_arrays`, the bulk probes,
:meth:`generation`), :meth:`retain` or :meth:`remove_entity` needs the
current generation; the ``storage.commit_points`` bench spec pins where.
Scalar reads and the counters fold the log in RAM and commit nothing.
Every reader answers as a per-(hash, entity) copy-count model does
(``tests/properties/test_props_writelog.py``).

Storage (docs/STORAGE.md): a shard may be backed by a
:class:`~repro.dht.storage.mmapseg.MmapSegmentStorage`; the file-backed
generation a commit returns becomes current, and the log stays RAM-only
until the next commit (:meth:`flush` forces one).  :meth:`crash` models
losing RAM while storage keeps its last commit; :meth:`recover` reloads
it (warm rejoin); :meth:`clear` also empties storage.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from repro.dht.generation import EMPTY, Generation, fold, mask_bits
from repro.dht.storage.mmapseg import MmapSegmentStorage

__all__ = ["LocalDHT", "mask_bits"]

_U64 = np.uint64

# A fold is committed once the log has touched
# max(_COMPACT_MIN, packed_size >> _COMPACT_SHIFT) distinct hashes since
# the last commit; a commit costs O(packed), amortized O(1) per update.
_COMPACT_MIN = 4096
_COMPACT_SHIFT = 3

# Point lookups: bulk_masks / bulk_num_copies answer a probe of fewer
# hashes than this with one scalar binary search each, a wider one with
# the vector pass.  Chosen from the fill-cost-by-width table in
# docs/BENCHMARKS.md (PR 24); the probe's length is all that selects.
_VECTOR_MIN = 5

# The step column of a bulk append: one byte per row.
_INSERT, _REMOVE = b"\x01", b"\xff"


class LocalDHT:
    """hash -> (entity bitmask, sparse extra-copy counts): one frozen
    generation plus the append-only write log."""

    def __init__(self, node_id: int = 0,
                 storage: MmapSegmentStorage | None = None) -> None:
        self.node_id = node_id
        self._store = storage
        loaded = None if storage is None else storage.load()
        self.recovered = loaded is not None  # __init__ loaded a prior commit
        self._reset(loaded or EMPTY)
        # Last update epoch seen (engine-maintained); bring-up resumes the
        # persisted sequence.
        self.epoch = self._gen.epoch

    # -- generations and storage (docs/STORAGE.md) -------------------------------------

    def _reset(self, gen: Generation) -> None:
        """Make ``gen`` the whole state, as if just committed: an empty
        log (the rows since the last commit)."""
        self._gen = gen
        self._lh, self._le, self._ls = array("Q"), array("q"), array("b")
        self._folded = 0                # rows already in self._gen
        # The distinct hashes logged, counted only once there are as many
        # rows as the merge point (fewer rows cannot reach it).
        self._dirty: set[int] | None = None
        self._merge_at = max(_COMPACT_MIN, len(gen.ph) >> _COMPACT_SHIFT)

    def _persist(self) -> None:
        """Commit the current generation: to storage (no-op when
        RAM-only), keeping the file-backed copy it returns."""
        st = self._store
        if st is not None:
            g = self._gen
            if g.epoch != self.epoch:
                g = replace(g, epoch=self.epoch)
            self._gen = st.commit(g)
        self._reset(self._gen)

    def _view(self) -> Generation:
        """The current state: the rows not yet folded folded into the
        generation, in RAM (no commit)."""
        f, n = self._folded, len(self._lh)
        if f < n:
            self._gen = fold(
                self._gen, np.frombuffer(self._lh, dtype=_U64, offset=8 * f),
                np.frombuffer(self._le, dtype=np.int64, offset=8 * f),
                np.frombuffer(self._ls, dtype=np.int8, offset=f), self.epoch)
            self._folded = n
        return self._gen

    def _compact(self) -> None:
        """Fold and commit everything logged since the last commit."""
        if self._lh:
            self._view()
            self._persist()

    def _full(self, hashes) -> bool:
        """Whether the log, ``hashes`` its latest rows, has reached the
        merge point: that many distinct hashes since the last commit."""
        if len(self._lh) < self._merge_at:
            return False
        dirty = self._dirty
        if dirty is None:
            dirty = self._dirty = set(
                np.frombuffer(self._lh, dtype=_U64).tolist())
        else:
            dirty.update(hashes)
        return len(dirty) >= self._merge_at

    def generation(self) -> Generation:
        """The shard as one frozen generation answering exactly as it does
        now (committed)."""
        self._compact()
        return self._gen

    def flush(self) -> None:
        """Durability barrier: afterwards storage holds the complete
        current state, the one a :meth:`recover` (warm restart) sees; no
        commit when the current generation already is that state."""
        if self._store is None:
            return
        self._compact()
        g = self._gen
        if g.path is None or g.epoch != self.epoch:
            self._persist()

    def crash(self) -> None:
        """Simulated node crash: all RAM state (the log included) is
        lost, storage keeps its last commit.  Contrast :meth:`clear`."""
        self._reset(EMPTY)

    def recover(self) -> bool:
        """Reload the last commit (warm rejoin); False when RAM-only or
        nothing was committed.  The live :attr:`epoch` stays: epochs never
        go backwards."""
        loaded = None if self._store is None else self._store.load()
        if loaded is not None:
            self._reset(loaded)
        return loaded is not None

    # -- updates (paper Fig 3: insert/remove): appends to the log ----------------------

    def _log(self, h: int, entity_id: int, step: int) -> None:
        """Append one row, whole or not at all: a hash outside
        ``[0, 2**64)`` or an entity that is not a 64-bit integer raises
        with the log unchanged."""
        self._lh.append(h)
        try:
            self._le.append(entity_id)
        except (OverflowError, TypeError):
            self._lh.pop()
            raise
        self._ls.append(step)
        if self._full((h,)):
            self._compact()

    def _append(self, hashes, entity_ids, step: bytes) -> None:
        """Append parallel columns (``entity_ids`` may be a scalar)."""
        h = np.ascontiguousarray(hashes, dtype=_U64)
        e = np.asarray(entity_ids, dtype=np.int64)
        if e.ndim == 0:
            e = np.full(len(h), e)
        elif len(e) != len(h):
            raise ValueError("hashes and entity_ids must have equal length")
        self._lh.frombytes(h.tobytes())
        self._le.frombytes(e.tobytes())
        self._ls.frombytes(step * len(h))
        if self._full(memoryview(h)):
            self._compact()

    def insert(self, content_hash: int, entity_id: int) -> None:
        """Record one more copy of ``content_hash`` held by ``entity_id``."""
        self._log(int(content_hash), entity_id, 1)

    def remove(self, content_hash: int, entity_id: int) -> None:
        """Drop one copy; none recorded (lost or stale) drops nothing."""
        self._log(int(content_hash), entity_id, -1)

    def bulk_insert(self, hashes, entity_ids) -> None:
        """``insert`` over parallel arrays (``entity_ids`` may be a
        scalar): one append of each column."""
        self._append(hashes, entity_ids, _INSERT)

    def bulk_remove(self, hashes, entity_ids) -> None:
        """``remove`` over parallel arrays: stale (hash, entity) pairs are
        skipped when the log is folded."""
        self._append(hashes, entity_ids, _REMOVE)

    def retain(self, keep: np.ndarray) -> int:
        """Drop the rows where ``keep`` (aligned with the first array of
        :meth:`items_arrays`) is False; returns #hashes dropped.  Shard
        failover and repair evict whole hash ranges through it."""
        self._compact()
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self._gen.ph):
            raise ValueError("keep mask must align with the packed hashes")
        drop = np.flatnonzero(~keep)
        if not len(drop):
            return 0
        self._gen = self._gen.without(drop)
        self._persist()
        return len(drop)

    def remove_entity(self, entity_id: int) -> int:
        """Purge every record of an entity (it left the system): one
        remove per copy it holds goes to the log, then one commit;
        returns how many copies went."""
        self._compact()
        hs, copies = self._gen.held_copies(entity_id)
        if len(hs):
            self._append(np.repeat(hs, copies), entity_id, _REMOVE)
            self._compact()
        return int(copies.sum())

    # -- lookups: the log folded in RAM ------------------------------------------------

    def __contains__(self, content_hash: int) -> bool:
        return self._view().mask(int(content_hash)) != 0

    def entities_mask(self, content_hash: int) -> int:
        """Bitmask of distinct entities believed to hold the hash."""
        return self._view().mask(int(content_hash))

    def entity_ids(self, content_hash: int) -> list[int]:
        """Distinct holder entity IDs, ascending."""
        return mask_bits(self.entities_mask(content_hash))

    def num_entities(self, content_hash: int) -> int:
        return self.entities_mask(content_hash).bit_count()

    def num_copies(self, content_hash: int) -> int:
        """Total copies across entities (the node-wise num_copies query)."""
        return self._view().num_copies(int(content_hash))

    def extra_copies(self, content_hash: int) -> dict[int, int]:
        """Sparse {entity: copies beyond the first} overflow for a hash."""
        return self._view().extra_of(int(content_hash))

    def extra_items(self) -> Iterable[tuple[int, dict[int, int]]]:
        """All (hash, overflow dict) entries; bulk readers take columns."""
        return self._view().overflow().items()

    def extra_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The overflow as read-only columns ``(hashes, entities,
        counts)`` sorted by (hash, entity) — how scans read extra copies
        in bulk."""
        return self._view().extra

    def copies_of(self, content_hash: int, entity_id: int) -> int:
        if not self.entities_mask(content_hash) >> entity_id & 1:
            return 0
        return 1 + self.extra_copies(content_hash).get(entity_id, 0)

    # -- columnar views, scans and stats: the committed generation's -----------------

    def items_arrays(self) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """(sorted hashes, low-64 masks, wide spill) of the current
        generation, which no later write changes."""
        self._compact()
        return self._gen.items_arrays()

    def se_scan(self, se_mask: int) \
            -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """Entries intersecting an entity-set mask (:meth:`Generation.se_scan`):
        the candidate discovery behind collective phases and queries."""
        self._compact()
        return self._gen.se_scan(se_mask)

    def bulk_masks(self, hashes) -> tuple[np.ndarray, dict[int, int]]:
        """Low-64 masks of an array (or list) of hashes plus the full
        masks of wide rows; below :data:`_VECTOR_MIN` hashes by the scalar
        probe, with the same result."""
        self._compact()
        g = self._gen
        if len(hashes) < _VECTOR_MIN:
            return g.scalar_masks(hashes)
        return g.bulk_masks(hashes)

    def bulk_num_copies(self, hashes) -> np.ndarray:
        """``num_copies`` of an array (or list) of hashes; below
        :data:`_VECTOR_MIN` hashes by one scalar probe each."""
        if len(hashes) >= _VECTOR_MIN:
            q = np.ascontiguousarray(hashes, dtype=_U64)
            return self.generation().copies(q, *self.bulk_masks(q))
        self._compact()
        return self._gen.scalar_copies(hashes)

    def items(self) -> Iterator[tuple[int, int]]:
        """(hash, entity mask) pairs in this shard, in sorted hash order."""
        self._compact()
        yield from self._gen.items()

    def hashes(self) -> Iterator[int]:
        self._compact()
        return iter(self._gen.ph.tolist())

    @property
    def n_hashes(self) -> int:
        return self._view().n_hashes

    @property
    def n_copies(self) -> int:
        return self._view().n_copies

    @property
    def n_multicopy_entries(self) -> int:
        return int(np.count_nonzero(self._view().px))

    def clear(self) -> None:
        """Logical wipe: RAM state *and* any durable storage are emptied
        (use :meth:`crash` to model losing only RAM)."""
        self.crash()
        if self._store is not None:
            self._store.clear()
