"""The local DHT instance on one node.

"The target daemon maintains a hash table that maps from each content hash
it holds to a bitmap representation of the set of entities that currently
have the corresponding content" (paper §3.3).

Representation: one frozen :class:`~repro.dht.generation.Generation` —
the packed sorted hash column, each hash's entity bitmask for entities
0..63, the wide spill for masks with bits >= 64, the multi-copy overflow
columns and the counters — plus a write overlay.  Point updates land in
a small dict (``_delta``: hash -> current *full* mask, 0 meaning
deleted) that is merged into the *next* generation once it grows past a
fraction of the table — classic LSM-style amortization, so per-update
cost stays O(1) amortized while every scan-shaped consumer gets
contiguous arrays to vectorize over.  An update batch (one datagram of
tens of rows) costs one vector probe of the generation and one Python
pass over its rows against the overlay; where the merges — and so the
storage commits — fall is pinned by the ``storage.commit_points`` bench
spec.

Entities holding *multiple* copies of the same block (the reason
``num_copies`` can exceed the entity count) are tracked in a sparse
overflow: copies beyond an entity's first.  Its write side is a dict of
dicts (``_extra``: hash -> {entity: extra copies}) that only
:meth:`LocalDHT._extra_add`, :meth:`LocalDHT._extra_take` and a reset to
a loaded generation mutate.  Its read side is :meth:`LocalDHT.extra_arrays`:
the same entries as three columns sorted by (hash, entity), built on
first use and dropped by either writer, so a scan pays one vector
``searchsorted`` for the whole overflow.  A merge hands those columns to
the next generation.

Bulk APIs (:meth:`bulk_insert`, :meth:`bulk_remove`, :meth:`se_scan`,
:meth:`items_arrays`, :meth:`bulk_masks`, :meth:`bulk_num_copies`,
:meth:`extra_arrays`) are observationally equivalent to looping the
per-item operations; the property suite in
``tests/properties/test_props_columnar.py`` checks this for interleaved
sequences of every mutator, including the wide-mask spill path.

Storage (docs/STORAGE.md): a shard may be backed by a
:class:`~repro.dht.storage.mmapseg.MmapSegmentStorage`.  Every new
generation is committed to it, and the file-backed copy it returns
becomes current (so the dataset is bounded by disk, not RAM); the
overlay stays RAM-only between merges — :meth:`flush` forces one.
:meth:`crash` models losing RAM while storage keeps its last commit;
:meth:`recover` reloads it (warm rejoin); :meth:`clear` is a logical
wipe that also empties storage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from repro.dht.generation import EMPTY, Generation, overflow_columns
from repro.dht.storage.mmapseg import MmapSegmentStorage

__all__ = ["LocalDHT", "mask_bits"]

_U64 = np.uint64

# Point updates buffer in the delta overlay until it reaches
# max(_COMPACT_MIN, packed_size >> _COMPACT_SHIFT) entries; merging then
# costs O(packed) but is amortized O(1) per update.
_COMPACT_MIN = 4096
_COMPACT_SHIFT = 3

# Below this many updates the per-pair NumPy machinery costs more than the
# scalar path; batches this small fall back to per-item insert/remove.
_BULK_MIN = 8

# Likewise for point lookups: bulk_masks / bulk_num_copies answer a probe
# of fewer hashes than this with one scalar binary search each, a wider one
# with the vector pass.  Chosen from the fill-cost-by-width table in
# docs/BENCHMARKS.md (PR 24); the probe's length is all that selects.
_VECTOR_MIN = 5


def _per_item(op, h: np.ndarray, e: np.ndarray) -> int:
    """Apply pairs one at a time through ``op`` (``LocalDHT.insert`` or
    ``remove``); returns how many it reported applied."""
    return sum(bool(op(hh, ee)) for hh, ee in zip(h.tolist(), e.tolist()))


def _narrow_pairs(hashes, entity_ids, op):
    """Pairs of entities >= 64 go through ``op`` one at a time, first;
    returns the remaining (hash, entity) columns and that count."""
    h = np.ascontiguousarray(hashes, dtype=_U64)
    e = np.asarray(entity_ids, dtype=np.int64)
    if e.ndim == 0:
        e = np.full(len(h), int(e), dtype=np.int64)
    if len(e) != len(h):
        raise ValueError("hashes and entity_ids must have equal length")
    wide = e >= 64
    if not wide.any():
        return h, e, 0
    applied = _per_item(op, h[wide], e[wide])
    return h[~wide], e[~wide], applied


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of an entity (or node) mask, ascending —
    the one decode of the mask format, whatever its width."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class LocalDHT:
    """hash -> (entity bitmask, sparse extra-copy counts): one frozen
    generation plus the write overlay."""

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
        """Make ``gen`` the whole state: an empty overlay, the write-side
        overflow rebuilt from its columns, its counters."""
        self._gen = gen
        self._delta: dict[int, int] = {}     # hash -> full mask (0 = deleted)
        self._extra = gen.overflow()         # hash -> {entity: extra copies}
        self._xview = gen.extra              # extra_arrays(); None = stale
        self._n_hashes = gen.n_hashes
        self._total_copies = gen.n_copies

    def _advance(self, ph: np.ndarray, pm: np.ndarray,
                 wide: dict[int, int]) -> None:
        """Persist (ph, pm, wide) + live overflow and counters as the
        current generation."""
        self._gen = Generation(ph, pm, wide, self.extra_arrays(),
                               self._n_hashes, self._total_copies, self.epoch)
        self._persist()

    def _persist(self) -> None:
        """Commit the current generation to storage (no-op when RAM-only)
        and keep the file-backed copy it returns."""
        st = self._store
        if st is None:
            return
        g = self._gen = st.commit(self._gen)
        self._xview = g.extra

    def generation(self) -> Generation:
        """The shard as one frozen generation answering exactly as it does
        now; after an overflow-only change, a new one over the same
        columns — no commit, no file."""
        self._compact()
        g = self._gen
        if g.extra is not self.extra_arrays():
            g = self._gen = replace(
                g, extra=self._xview, n_hashes=self._n_hashes,
                n_copies=self._total_copies, epoch=self.epoch, path=None)
        return g

    def flush(self) -> None:
        """Durability barrier: afterwards storage holds the complete
        current state, the one a :meth:`recover` (warm restart) sees; no
        commit when the current generation already is that state."""
        if self._store is None:
            return
        self._compact()          # merges, then persists
        g = self._gen            # capture overflow/counter/epoch changes
        if not (g.path and g.extra is self._xview and (
                g.n_hashes, g.n_copies, g.epoch) == (
                self._n_hashes, self._total_copies, self.epoch)):
            self._advance(g.ph, g.pm, g.wide)

    def crash(self) -> None:
        """Simulated node crash: all RAM state (the overlay included) is
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

    # -- the overlay ---------------------------------------------------------------------

    def _mask_of(self, h: int) -> int:
        """Current full entity mask of a hash (overlay wins over packed)."""
        m = self._delta.get(h)
        return self._gen.mask(h) if m is None else m

    def _compact_at(self) -> int:
        """Overlay size at which it merges into the next generation."""
        return max(_COMPACT_MIN, len(self._gen.ph) >> _COMPACT_SHIFT)

    def _maybe_compact(self) -> None:
        if len(self._delta) >= self._compact_at():
            self._compact()

    def _compact(self) -> None:
        """Merge the delta overlay into the next generation."""
        if self._delta:
            cols = self._gen.merge(self._delta)
            self._delta.clear()
            self._advance(*cols)

    def _extra_add(self, h: int, entity_id: int, n: int) -> None:
        """Record ``n`` more copies beyond the first for (hash, entity)."""
        ex = self._extra.setdefault(h, {})
        ex[entity_id] = ex.get(entity_id, 0) + n
        self._xview = None

    def _extra_take(self, h: int, entity_id: int | None = None,
                    n: int | None = None) -> int:
        """Forget up to ``n`` extra copies of (hash, entity) — all of them
        when ``n`` is None, every entity's when ``entity_id`` is None.
        Returns how many went (0: there were none, nothing changed)."""
        ex = self._extra.get(h)
        if ex is None or (entity_id is not None and entity_id not in ex):
            return 0
        if entity_id is None:
            took = sum(self._extra.pop(h).values())
        else:
            have = ex[entity_id]
            took = have if n is None else min(n, have)
            if took < have:
                ex[entity_id] = have - took
            elif len(ex) > 1:
                del ex[entity_id]
            else:
                del self._extra[h]
        self._xview = None
        return took

    # -- updates (paper Fig 3: insert/remove) ------------------------------------------

    def insert(self, content_hash: int, entity_id: int) -> None:
        """Record one more copy of ``content_hash`` held by ``entity_id``."""
        h = int(content_hash)
        bit = 1 << entity_id
        mask = self._mask_of(h)
        if mask & bit:
            self._extra_add(h, entity_id, 1)
        else:
            if mask == 0:
                self._n_hashes += 1
            self._delta[h] = mask | bit
            self._maybe_compact()
        self._total_copies += 1

    def remove(self, content_hash: int, entity_id: int) -> bool:
        """Drop one copy; returns False if none was recorded (lost/stale)."""
        h = int(content_hash)
        bit = 1 << entity_id
        mask = self._mask_of(h)
        if not mask & bit:
            return False
        if not self._extra_take(h, entity_id, 1):   # extras go first
            mask &= ~bit
            self._delta[h] = mask
            if mask == 0:
                self._n_hashes -= 1
                self._extra_take(h)
            self._maybe_compact()
        self._total_copies -= 1
        return True

    def bulk_insert(self, hashes, entity_ids) -> None:
        """Equivalent of ``insert`` looped over parallel arrays
        (``entity_ids`` may be a scalar).  Pairs of entities >= 64, then
        batches narrower than :data:`_BULK_MIN`, take ``insert`` itself.
        Otherwise one probe of the generation feeds a row loop into the
        overlay, compacted once after the batch — unless the batch would
        merge an empty overlay at once, which :meth:`_merge_inserts` then
        does directly (the same commit, reached faster)."""
        h, e, _ = _narrow_pairs(hashes, entity_ids, self.insert)
        n = len(h)
        if n < _BULK_MIN:
            _per_item(self.insert, h, e)
            return
        if self._merge_inserts(h, e):
            return
        g = self._gen
        delta, wide = self._delta, g.wide
        born = 0
        for hh, ee, m in zip(h.tolist(), e.tolist(), g.lo_of(h).tolist()):
            cur = delta.get(hh)
            if cur is not None:
                m = cur
            elif wide and hh in wide:
                m |= wide[hh] << 64
            bit = 1 << ee
            if m & bit:
                self._extra_add(hh, ee, 1)
            else:
                if not m:
                    born += 1
                m |= bit
            delta[hh] = m
        self._n_hashes += born
        self._total_copies += n
        self._maybe_compact()

    def _merge_inserts(self, h: np.ndarray, e: np.ndarray) -> bool:
        """Direct path of :meth:`bulk_insert` (:meth:`Generation.merge_pairs`)
        for a batch into an empty overlay and wide spill with at least
        :meth:`_compact_at` distinct hashes, whose row loop would end in a
        merge anyway; returns False (nothing done) otherwise."""
        g = self._gen
        merge_at = self._compact_at()
        if self._delta or g.wide or len(h) < merge_at:
            return False
        merged = g.merge_pairs(h, e, merge_at)
        if merged is None:
            return False
        ph, pm, extra, born = merged
        for hh, ee, c in zip(*extra):
            self._extra_add(hh, ee, c)
        self._n_hashes += born
        self._total_copies += len(h)
        self._advance(ph, pm, g.wide)
        return True

    def bulk_remove(self, hashes, entity_ids) -> int:
        """Equivalent of ``remove`` looped over parallel arrays: pairs of
        entities >= 64 and batches narrower than :data:`_BULK_MIN` take
        ``remove`` itself, the rest the row loop of :meth:`bulk_insert`
        (a remove batch has no direct merge).  Returns the number of
        removals applied; stale (hash, entity) pairs are skipped."""
        h, e, applied = _narrow_pairs(hashes, entity_ids, self.remove)
        if len(h) < _BULK_MIN:
            return applied + _per_item(self.remove, h, e)
        g = self._gen
        delta, wide, extra = self._delta, g.wide, self._extra
        took = died = 0
        for hh, ee, m in zip(h.tolist(), e.tolist(), g.lo_of(h).tolist()):
            cur = delta.get(hh)
            if cur is not None:
                m = cur
            elif wide and hh in wide:
                m |= wide[hh] << 64
            bit = 1 << ee
            if m & bit:
                took += 1
                if not (hh in extra                     # extras go first
                        and self._extra_take(hh, ee, 1)):
                    m ^= bit
                    if not m:
                        died += 1
                        if hh in extra:
                            self._extra_take(hh)
            delta[hh] = m
        self._n_hashes -= died
        self._total_copies -= took
        self._maybe_compact()
        return applied + took

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
        ph, pm, wide, gone, copies = self._gen.without(drop)
        copies += sum(self._extra_take(h) for h in gone if h in self._extra)
        self._n_hashes -= len(drop)
        self._total_copies -= copies
        self._advance(ph, pm, wide)
        return len(drop)

    def remove_entity(self, entity_id: int) -> int:
        """Purge every record of an entity (it left the system): each row
        it holds goes through the overlay, then one merge."""
        self._compact()
        g = self._gen
        removed = 0
        for h in g.held_by(entity_id):
            removed += 1 + self._extra_take(h, entity_id)
            mask = g.mask(h) & ~(1 << entity_id)
            self._delta[h] = mask
            if mask == 0:
                self._n_hashes -= 1
                self._extra_take(h)
        self._total_copies -= removed
        self._compact()
        return removed

    # -- lookups -----------------------------------------------------------------------

    def __contains__(self, content_hash: int) -> bool:
        return self._mask_of(int(content_hash)) != 0

    def entities_mask(self, content_hash: int) -> int:
        """Bitmask of distinct entities believed to hold the hash."""
        return self._mask_of(int(content_hash))

    def entity_ids(self, content_hash: int) -> list[int]:
        """Distinct holder entity IDs, ascending."""
        return mask_bits(self._mask_of(int(content_hash)))

    def num_entities(self, content_hash: int) -> int:
        return self._mask_of(int(content_hash)).bit_count()

    def num_copies(self, content_hash: int) -> int:
        """Total copies across entities (the node-wise num_copies query)."""
        h = int(content_hash)
        base = self._mask_of(h).bit_count()
        if base and h in self._extra:
            base += sum(self._extra[h].values())
        return base

    def extra_copies(self, content_hash: int) -> dict[int, int]:
        """Sparse {entity: copies beyond the first} overflow for a hash."""
        return self._extra.get(int(content_hash), {})

    def extra_items(self) -> Iterable[tuple[int, dict[int, int]]]:
        """All (hash, overflow dict) entries; bulk readers take columns."""
        return self._extra.items()

    def extra_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The overflow as read-only columns ``(hashes, entities,
        counts)`` sorted by (hash, entity) — how scans read extra copies
        in bulk.  Built on first use, cached until the next overflow
        write."""
        if self._xview is None:
            self._xview = overflow_columns(self._extra)
        return self._xview

    def copies_of(self, content_hash: int, entity_id: int) -> int:
        h = int(content_hash)
        if not self._mask_of(h) & (1 << entity_id):
            return 0
        return 1 + self._extra.get(h, {}).get(entity_id, 0)

    # -- columnar views, scans and stats: the generation's, after a merge -------------

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
        :data:`_VECTOR_MIN` hashes by one scalar probe each
        (:meth:`Generation.scalar_copies` over the live overflow)."""
        if len(hashes) >= _VECTOR_MIN:
            q = np.ascontiguousarray(hashes, dtype=_U64)
            return self.generation().copies(q, *self.bulk_masks(q))
        self._compact()
        return self._gen.scalar_copies(hashes, self._extra)

    def items(self) -> Iterator[tuple[int, int]]:
        """(hash, entity mask) pairs in this shard, in sorted hash order."""
        self._compact()
        yield from self._gen.items()

    def hashes(self) -> Iterator[int]:
        self._compact()
        return iter(self._gen.ph.tolist())

    @property
    def n_hashes(self) -> int:
        return self._n_hashes

    @property
    def n_copies(self) -> int:
        return self._total_copies

    @property
    def n_multicopy_entries(self) -> int:
        return len(self._extra)

    def clear(self) -> None:
        """Logical wipe: RAM state *and* any durable storage are emptied
        (use :meth:`crash` to model losing only RAM)."""
        self.crash()
        if self._store is not None:
            self._store.clear()
