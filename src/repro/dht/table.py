"""The local DHT instance on one node.

"The target daemon maintains a hash table that maps from each content hash
it holds to a bitmap representation of the set of entities that currently
have the corresponding content" (paper §3.3).

Representation: a *columnar*, NumPy-native core.  The packed state is a
sorted ``uint64`` hash array (``_ph``) plus a parallel ``uint64`` column
holding each hash's entity bitmask for entities 0..63 (``_pm``).  Masks
that need bits >= 64 spill their high part (``mask >> 64``, an arbitrary-
precision Python int) into the sparse ``_pw`` dict — the common scope sizes
stay pure array data, and wide scopes remain exactly as expressive as the
old per-hash Python-int masks.  Point updates land in a small dict overlay
(``_delta``: hash -> current *full* mask, 0 meaning deleted) that is merged
into the packed columns once it grows past a fraction of the table —
classic LSM-style amortization, so per-update cost stays O(1) amortized
while every scan-shaped consumer gets contiguous arrays to vectorize over.
An update batch (one datagram of tens of rows) costs one vector probe of
the packed columns and one Python pass over its rows against the
overlay; where the merges — and so the storage commits — fall is pinned
by the ``storage.commit_points`` bench spec.

Entities holding *multiple* copies of the same block (the reason
``num_copies`` can exceed the entity count) are tracked in a sparse
overflow: copies beyond an entity's first.  It has a write side and a read
side.  The write side is a dict of dicts (``_extra``: hash -> {entity:
extra copies}), which point updates and the storage/``ShardColumns``
formats want, and which only :meth:`LocalDHT._extra_add`,
:meth:`LocalDHT._extra_take` and :meth:`LocalDHT._set_state` ever mutate.
The read side is :meth:`LocalDHT.extra_arrays`: the same entries as three
columns sorted by (hash, entity), built on first use and kept until one of
those three writers runs, each of which drops it — so a scan pays one
vector ``searchsorted`` for the whole overflow instead of a Python step
per entry, and a view can never outlive the dict it was built from.

Bulk APIs (:meth:`bulk_insert`, :meth:`bulk_remove`, :meth:`se_scan`,
:meth:`items_arrays`, :meth:`bulk_masks`, :meth:`bulk_num_copies`,
:meth:`extra_arrays`) are observationally equivalent to looping the
per-item operations; the property suite in
``tests/properties/test_props_columnar.py`` checks this for interleaved
sequences of every mutator, including the wide-mask spill path.

Storage (docs/STORAGE.md): a shard may be backed by a
:class:`~repro.dht.storage.mmapseg.MmapSegmentStorage`.  Every packed-
column mutation commits the columns + side tables to it and adopts the
memmapped views it returns (so the dataset is bounded by disk, not
RAM); the delta overlay stays RAM-only between commits — :meth:`flush`
forces one.
:meth:`crash` models losing RAM while storage keeps its last commit;
:meth:`recover` reloads it (warm rejoin); :meth:`clear` is a logical
wipe that also empties storage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.dht.storage.base import StorageState
from repro.dht.storage.mmapseg import MmapSegmentStorage

__all__ = ["LocalDHT", "ShardColumns", "mask_bits"]

_U64 = np.uint64
_M64 = (1 << 64) - 1
_ONE = _U64(1)

# Point updates buffer in the delta overlay until it reaches
# max(_COMPACT_MIN, packed_size >> _COMPACT_SHIFT) entries; merging then
# costs O(packed) but is amortized O(1) per update.
_COMPACT_MIN = 4096
_COMPACT_SHIFT = 3

# Below this many updates the per-pair NumPy machinery costs more than the
# scalar path; batches this small fall back to per-item insert/remove.
_BULK_MIN = 8

# Likewise for point lookups: bulk_masks / bulk_num_copies answer a probe
# of fewer hashes than this with one scalar searchsorted each, a wider one
# with the vector pass.  Chosen from the fill-cost-by-width table in
# docs/BENCHMARKS.md (PR 24); the probe's length is all that selects.
_VECTOR_MIN = 5


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of an entity (or node) mask, ascending —
    the one decode of the mask format, whatever its width."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class ShardColumns:
    """Picklable snapshot of one shard's columnar state.

    The export/attach pair behind the parallel execution backend
    (docs/PARALLEL.md): the coordinator writes the packed columns to a
    shared segment file (``path``), ships this small descriptor to a
    worker process, and the worker :meth:`attach`-es a *read-only*
    :class:`LocalDHT` over an ``np.memmap`` of the same bytes — zero-copy
    for the bulk columns, while the sparse side tables (wide spill,
    extra-copy overflow) travel inline (they are tiny by construction).

    With ``path=None`` the columns themselves travel inline instead
    (used for empty shards and in tests); the descriptor pickles either
    way.

    ``shared=True`` marks the segment file as owned by a storage
    backend rather than by the pool (the mmap backend's current
    segment doubles as the export — zero copies, zero writes); the
    pool must never unlink a shared segment.
    """

    node_id: int
    n_rows: int
    path: str | None          # segment file led by [hashes | masks], 2*n_rows u64
    hashes: np.ndarray | None  # inline fallback when path is None
    masks: np.ndarray | None
    wide: dict                # hash -> mask >> 64
    extra: dict               # hash -> {entity: extra copies}
    n_hashes: int
    n_copies: int
    shared: bool = False      # segment owned by a storage backend

    def attach(self) -> LocalDHT:
        """Reconstruct a read-only LocalDHT over the snapshot.

        The result answers every read/scan API (``se_scan``,
        ``bulk_masks``, ``items_arrays``, ...) identically to the source
        shard at export time; mutating it is undefined (and a memmap-
        backed one raises, since the maps are opened read-only).
        """
        t = LocalDHT(node_id=self.node_id)
        n = self.n_rows
        ph, pm = t._ph, t._pm    # empty
        if self.path is not None and n:
            buf = np.memmap(self.path, dtype=_U64, mode="r", shape=(2 * n,))
            ph, pm = buf[:n], buf[n:]
        elif self.hashes is not None:
            ph, pm = self.hashes, self.masks
        t._set_state(ph, pm, self.wide, self.extra,
                     self.n_hashes, self.n_copies)
        return t


class LocalDHT:
    """hash -> (entity bitmask, sparse extra-copy counts), columnar."""

    def __init__(self, node_id: int = 0,
                 storage: MmapSegmentStorage | None = None) -> None:
        self.node_id = node_id
        self._store = storage
        self.epoch = 0        # last update epoch seen (engine-maintained)
        self.recovered = False  # True when __init__ loaded a prior commit
        self._ph = np.empty(0, dtype=_U64)   # packed hashes, sorted
        self._pm = np.empty(0, dtype=_U64)   # packed masks, bits 0..63
        self._pw: dict[int, int] = {}        # hash -> mask >> 64 (wide spill)
        self._delta: dict[int, int] = {}     # hash -> full mask (0 = deleted)
        # hash -> {entity_id: extra copies beyond the first}; written only
        # by _extra_add / _extra_take / _set_state, which drop _view
        self._extra: dict[int, dict[int, int]] = {}
        self._view = None                    # cached extra_arrays()
        self._total_copies = 0
        self._n_hashes = 0
        if storage is not None:
            loaded = storage.load()
            if loaded is not None:
                self._adopt(loaded)
                # Bring-up resumes the persisted epoch sequence.
                self.epoch = loaded.epoch
                self.recovered = True

    # -- storage backend (docs/STORAGE.md) ---------------------------------------------

    def _set_state(self, ph: np.ndarray, pm: np.ndarray, wide: dict,
                   extra: dict, n_hashes: int, n_copies: int) -> None:
        """Replace the whole live state (side tables are copied, the
        overlay starts empty).  The one place ``_extra`` is assigned."""
        self._ph = ph
        self._pm = pm
        self._pw = dict(wide)
        self._delta = {}
        self._extra = {h: dict(ex) for h, ex in extra.items()}
        self._view = None
        self._n_hashes = n_hashes
        self._total_copies = n_copies

    def _adopt(self, state: StorageState) -> None:
        """Replace the live state with a loaded/committed snapshot."""
        self._set_state(state.ph, state.pm, state.wide, state.extra,
                        state.n_hashes, state.n_copies)

    def _persist(self) -> None:
        """Commit columns + side tables to storage (no-op when RAM-
        only) and adopt the returned views, so the live columns stay
        memmapped."""
        st = self._store
        if st is None:
            return
        self._ph, self._pm = st.commit(StorageState(
            ph=self._ph, pm=self._pm, wide=self._pw, extra=self._extra,
            n_hashes=self._n_hashes, n_copies=self._total_copies,
            epoch=self.epoch))

    def flush(self) -> None:
        """Durability barrier: merge the overlay and commit everything.

        Afterwards storage holds the complete current state — the
        state a :meth:`recover` (warm restart) will see.  Point updates
        between flushes live in the RAM delta overlay and are *not*
        durable; the warm-restart delta repair heals exactly that gap.
        """
        st = self._store
        if st is None:
            return
        if self._delta:
            self._compact()      # merges, then persists
        else:
            self._persist()      # capture side-table/counter changes

    def crash(self) -> None:
        """Simulated node crash: all RAM state (including the un-flushed
        delta overlay) is lost; storage keeps its last commit.  Contrast
        :meth:`clear`, the logical wipe."""
        empty = np.empty(0, dtype=_U64)
        self._set_state(empty, empty, {}, {}, 0, 0)

    def recover(self) -> bool:
        """Reload the last committed state (warm rejoin); False when
        the shard is RAM-only or nothing was ever committed.  The live
        :attr:`epoch` stays: the persisted one may be older, and epochs
        never go backwards."""
        st = self._store
        if st is None:
            return False
        loaded = st.load()
        if loaded is None:
            return False
        self._adopt(loaded)
        return True

    # -- internal: packed/overlay plumbing --------------------------------------------

    def _mask_of(self, h: int) -> int:
        """Current full entity mask of a hash (overlay wins over packed)."""
        m = self._delta.get(h)
        if m is not None:
            return m
        ph = self._ph
        i = int(ph.searchsorted(_U64(h)))
        if i < len(ph) and ph.item(i) == h:
            lo = self._pm.item(i)
            hi = self._pw.get(h)
            return lo if hi is None else lo | (hi << 64)
        return 0

    def _compact_at(self) -> int:
        """Overlay size at which it merges into the packed columns."""
        return max(_COMPACT_MIN, len(self._ph) >> _COMPACT_SHIFT)

    def _maybe_compact(self) -> None:
        if len(self._delta) >= self._compact_at():
            self._compact()

    def _compact(self) -> None:
        """Merge the delta overlay into the packed columns."""
        delta = self._delta
        if not delta:
            return
        n = len(delta)
        dk = np.fromiter(delta, dtype=_U64, count=n)
        wide = bool(self._pw)
        if not wide:
            try:
                dl = np.fromiter(delta.values(), dtype=_U64, count=n)
                dead = dl == 0
            except OverflowError:            # a mask with bits >= 64
                wide = True
        if wide:
            dl = np.fromiter((v & _M64 for v in delta.values()), dtype=_U64,
                             count=n)
            dead = np.fromiter((v == 0 for v in delta.values()), dtype=bool,
                               count=n)
            # Wide spill: delta values are full masks, so the high part
            # can be refreshed (or dropped) wholesale.
            for h, v in delta.items():
                hi = v >> 64
                if hi:
                    self._pw[h] = hi
                elif self._pw:
                    self._pw.pop(h, None)
        order = np.argsort(dk, kind="stable")
        self._merge_sorted(dk[order], dl[order], dead[order])
        delta.clear()
        self._persist()

    def _merge_sorted(self, keys: np.ndarray, lo: np.ndarray,
                      dead: np.ndarray) -> None:
        """Merge sorted (key, low-mask, deleted?) columns into the packed
        arrays: update rows that exist, drop dead ones, insert the rest."""
        ph, pm = self._ph, self._pm
        pos = np.searchsorted(ph, keys)
        in_range = pos < len(ph)
        exists = np.zeros(len(keys), dtype=bool)
        if in_range.any():
            exists[in_range] = ph[pos[in_range]] == keys[in_range]
        upd = exists & ~dead
        if upd.any():
            if not pm.flags.writeable:
                pm = pm.copy()   # live columns may be a read-only memmap
            pm[pos[upd]] = lo[upd]
        del_rows = pos[exists & dead]
        if len(del_rows):
            keep = np.ones(len(ph), dtype=bool)
            keep[del_rows] = False
            ph, pm = ph[keep], pm[keep]
        new = ~exists & ~dead
        if new.any():
            nk, nv = keys[new], lo[new]
            ins = np.searchsorted(ph, nk)
            ph = np.insert(ph, ins, nk)
            pm = np.insert(pm, ins, nv)
        self._ph, self._pm = ph, pm

    # -- overflow writes: with _set_state, the only code that mutates _extra ----------

    def _extra_add(self, h: int, entity_id: int, n: int) -> None:
        """Record ``n`` more copies beyond the first for (hash, entity)."""
        ex = self._extra.setdefault(h, {})
        ex[entity_id] = ex.get(entity_id, 0) + n
        self._view = None

    def _extra_take(self, h: int, entity_id: int | None = None,
                    n: int | None = None) -> int:
        """Forget up to ``n`` extra copies of (hash, entity) — all of them
        when ``n`` is None, every entity's when ``entity_id`` is None.
        Returns how many went (0: there were none, nothing changed)."""
        ex = self._extra.get(h)
        if ex is None:
            return 0
        if entity_id is None:
            took = sum(self._extra.pop(h).values())
        else:
            have = ex.get(entity_id)
            if have is None:
                return 0
            took = have if n is None else min(n, have)
            if took < have:
                ex[entity_id] = have - took
            else:
                del ex[entity_id]
                if not ex:
                    del self._extra[h]
        self._view = None
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

    # -- bulk updates ------------------------------------------------------------------

    @staticmethod
    def _as_pairs(hashes, entity_ids) -> tuple[np.ndarray, np.ndarray]:
        h = np.ascontiguousarray(hashes, dtype=_U64)
        e = np.asarray(entity_ids, dtype=np.int64)
        if e.ndim == 0:
            e = np.full(len(h), int(e), dtype=np.int64)
        if len(e) != len(h):
            raise ValueError("hashes and entity_ids must have equal length")
        return h, e

    def _packed_lo(self, q: np.ndarray) -> np.ndarray:
        """Low-64 masks of the hashes ``q`` in the packed columns (0 where
        absent; the overlay is not consulted): one vector probe."""
        ph = self._ph
        if not len(ph):
            return np.zeros(len(q), dtype=_U64)
        pos = ph.searchsorted(q)     # past the end clips to the last row
        return self._pm.take(pos, mode="clip") * (ph.take(pos, mode="clip")
                                                  == q)

    @staticmethod
    def _per_item(op, h: np.ndarray, e: np.ndarray) -> int:
        """Apply pairs one at a time through ``op`` (:meth:`insert` or
        :meth:`remove`); returns how many it reported applied."""
        return sum(bool(op(hh, ee)) for hh, ee in zip(h.tolist(), e.tolist()))

    def _narrow_pairs(self, hashes, entity_ids, op):
        """Pairs of entities >= 64 go through ``op`` one at a time, first;
        returns the remaining (hash, entity) columns and that count."""
        h, e = self._as_pairs(hashes, entity_ids)
        wide = e >= 64
        if not wide.any():
            return h, e, 0
        applied = self._per_item(op, h[wide], e[wide])
        return h[~wide], e[~wide], applied

    def bulk_insert(self, hashes, entity_ids) -> None:
        """Equivalent of ``insert`` looped over parallel arrays.

        ``entity_ids`` may be a scalar (broadcast over all hashes).  Pairs
        of entities >= 64, then batches narrower than :data:`_BULK_MIN`,
        take ``insert`` itself.  Otherwise one probe of the packed columns
        feeds a row loop that writes every batch hash to the overlay, and
        compaction is checked once, after the batch — unless the batch
        would merge an empty overlay at once, which :meth:`_merge_inserts`
        then puts straight into the packed columns (the same commit,
        reached faster).
        """
        h, e, _ = self._narrow_pairs(hashes, entity_ids, self.insert)
        n = len(h)
        if n < _BULK_MIN:
            self._per_item(self.insert, h, e)
            return
        if self._merge_inserts(h, e):
            return
        delta, pw = self._delta, self._pw
        born = 0
        for hh, ee, m in zip(h.tolist(), e.tolist(),
                             self._packed_lo(h).tolist()):
            cur = delta.get(hh)
            if cur is not None:
                m = cur
            elif pw and hh in pw:
                m |= pw[hh] << 64
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
        """Direct path of :meth:`bulk_insert`: sort, dedupe and group the
        (hash, eid) pairs in NumPy and merge them straight into the
        packed columns.  Taken only when the overlay and the wide spill
        are empty and the batch has at least :meth:`_compact_at` distinct
        hashes — the batches whose row loop would end in a merge of the
        overlay it filled; returns False (nothing done) otherwise."""
        merge_at = self._compact_at()
        if self._delta or self._pw or len(h) < merge_at:
            return False
        order = np.lexsort((e, h))
        hs, es = h[order], e[order]
        n = len(hs)
        newpair = np.empty(n, dtype=bool)
        newpair[0] = True
        newpair[1:] = (hs[1:] != hs[:-1]) | (es[1:] != es[:-1])
        starts = np.flatnonzero(newpair)
        ph, pe = hs[starts], es[starts]
        newhash = np.empty(len(ph), dtype=bool)
        newhash[0] = True
        newhash[1:] = ph[1:] != ph[:-1]
        hstarts = np.flatnonzero(newhash)
        if len(hstarts) < merge_at:
            return False
        uh = ph[hstarts]
        cur_lo = self._packed_lo(uh)
        shift = pe.astype(_U64)
        gid = np.cumsum(newhash) - 1         # pair -> distinct-hash index
        held = (cur_lo[gid] >> shift) & _ONE
        # A pair seen c times contributes c copies, of which
        # (c - 1 + already held) land in the overflow table.
        extra_add = np.diff(np.append(starts, n)) - 1 + held.astype(np.int64)
        for j in np.flatnonzero(extra_add > 0).tolist():
            self._extra_add(int(ph[j]), int(pe[j]), int(extra_add[j]))
        new_lo = cur_lo | np.bitwise_or.reduceat(_ONE << shift, hstarts)
        self._n_hashes += int(np.count_nonzero(cur_lo == 0))
        self._total_copies += n
        self._merge_sorted(uh, new_lo, np.zeros(len(uh), dtype=bool))
        self._persist()
        return True

    def bulk_remove(self, hashes, entity_ids) -> int:
        """Equivalent of ``remove`` looped over parallel arrays: pairs of
        entities >= 64 and batches narrower than :data:`_BULK_MIN` take
        ``remove`` itself, the rest the row loop of :meth:`bulk_insert`
        (a remove batch has no direct merge).

        Returns the number of removals actually applied (stale/unknown
        (hash, entity) pairs are skipped, exactly as ``remove`` returns
        False for them).
        """
        h, e, applied = self._narrow_pairs(hashes, entity_ids, self.remove)
        if len(h) < _BULK_MIN:
            return applied + self._per_item(self.remove, h, e)
        delta, pw, extra = self._delta, self._pw, self._extra
        took = died = 0
        for hh, ee, m in zip(h.tolist(), e.tolist(),
                             self._packed_lo(h).tolist()):
            cur = delta.get(hh)
            if cur is not None:
                m = cur
            elif pw and hh in pw:
                m |= pw[hh] << 64
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
        """Drop all rows where ``keep`` is False; returns #hashes dropped.

        ``keep`` is a boolean column aligned with the compacted packed
        hashes (the first array of :meth:`items_arrays`).  Used by shard
        failover/repair to evict whole hash ranges while keeping the
        copy/hash counters and the overflow and wide-spill tables exact.
        """
        self._compact()
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self._ph):
            raise ValueError("keep mask must align with the packed hashes")
        drop_idx = np.flatnonzero(~keep)
        if not len(drop_idx):
            return 0
        copies = int(np.bitwise_count(self._pm[drop_idx]).sum())
        extra = self._extra
        for h in self._ph[drop_idx].tolist():
            hi = self._pw.pop(h, None)
            if hi is not None:
                copies += hi.bit_count()
            if h in extra:
                copies += self._extra_take(h)
        self._ph = self._ph[keep]
        self._pm = self._pm[keep]
        self._n_hashes -= len(drop_idx)
        self._total_copies -= copies
        self._persist()
        return len(drop_idx)

    def remove_entity(self, entity_id: int) -> int:
        """Purge every record of an entity (it left the system)."""
        self._compact()
        removed = 0
        if entity_id < 64:
            bit = _ONE << _U64(entity_id)
            # For entity_id < 64 the bit lives in the packed low column
            # even for wide rows, so sel is complete.
            sel = (self._pm & bit) != 0
            n_sel = int(sel.sum())
            if n_sel == 0:
                return 0
            removed = n_sel
            if self._extra:
                for h in [h for h, ex in self._extra.items()
                          if entity_id in ex]:
                    if self._mask_of(h) & (1 << entity_id):
                        removed += self._extra_take(h, entity_id)
            new_pm = self._pm & ~bit
            dead = sel & (new_pm == 0)
            if self._pw:
                for h in self._pw:
                    i = int(np.searchsorted(self._ph, _U64(h)))
                    dead[i] = False
            self._pm = new_pm
            if dead.any():
                for h in self._ph[dead].tolist():
                    self._extra_take(h)
                self._n_hashes -= int(dead.sum())
                keep = ~dead
                self._ph, self._pm = self._ph[keep], self._pm[keep]
        else:
            hi_bit = 1 << (entity_id - 64)
            affected = [h for h, hi in self._pw.items() if hi & hi_bit]
            for h in affected:
                removed += 1 + self._extra_take(h, entity_id)
                mask = self._mask_of(h) & ~(1 << entity_id)
                self._delta[h] = mask
                if mask == 0:
                    self._n_hashes -= 1
                    self._extra_take(h)
            self._compact()
        self._total_copies -= removed
        if removed:
            self._persist()
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
        """All (hash, overflow dict) entries — the write side, entry by
        entry.  Bulk readers use :meth:`extra_arrays`."""
        return self._extra.items()

    def extra_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The overflow as columns: ``(hashes, entities, counts)``, one
        row per (hash, entity) entry of :meth:`extra_items`, sorted by
        (hash, entity) — how scans read extra copies in bulk.

        Built on first use and cached until the next overflow write; the
        arrays are shared and read-only.
        """
        view = self._view
        if view is None:
            extra = self._extra
            n = sum(map(len, extra.values()))
            h = np.fromiter((h for h, ex in extra.items() for _ in ex),
                            dtype=_U64, count=n)
            e = np.fromiter((e for ex in extra.values() for e in ex),
                            dtype=np.int64, count=n)
            c = np.fromiter((c for ex in extra.values() for c in ex.values()),
                            dtype=np.int64, count=n)
            order = np.lexsort((e, h))
            view = self._view = (h[order], e[order], c[order])
            for col in view:
                col.setflags(write=False)
        return view

    def copies_of(self, content_hash: int, entity_id: int) -> int:
        h = int(content_hash)
        if not self._mask_of(h) & (1 << entity_id):
            return 0
        return 1 + self._extra.get(h, {}).get(entity_id, 0)

    # -- columnar views / vectorized scans ---------------------------------------------

    def items_arrays(self) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """Columnar view: (sorted hashes, low-64 masks, wide spill).

        The arrays are the live packed columns — treat them as read-only.
        ``wide`` maps hash -> ``full_mask >> 64`` for the (rare) entries
        with holders beyond entity 63; a row's full mask is
        ``int(masks[i]) | (wide.get(int(hashes[i]), 0) << 64)``.
        """
        self._compact()
        return self._ph, self._pm, self._pw

    def export_columns(self, path: str | None = None) -> ShardColumns:
        """Snapshot the shard as a picklable :class:`ShardColumns`.

        With ``path`` the packed columns are written there as raw bytes
        (``[hashes | masks]``, ``2 * n_rows`` little-endian uint64) so a
        worker process can attach them zero-copy via ``np.memmap``;
        without, copies of the arrays travel inline.  The overlay is
        compacted first, so the snapshot is exact.

        A shard with storage skips the write entirely: its current
        committed segment *is* the export format, so the snapshot
        references that file (``shared=True``) and workers memmap the
        storage's own bytes zero-copy.
        """
        self._compact()
        n = len(self._ph)
        store = self._store
        if store is not None and n and store.committed_rows == n:
            return ShardColumns(
                node_id=self.node_id, n_rows=n, path=store.segment_path(),
                hashes=None, masks=None, wide=dict(self._pw),
                extra={h: dict(ex) for h, ex in self._extra.items()},
                n_hashes=self._n_hashes, n_copies=self._total_copies,
                shared=True)
        if path is not None and n:
            buf = np.empty(2 * n, dtype=_U64)
            buf[:n] = self._ph
            buf[n:] = self._pm
            buf.tofile(path)
            hashes = masks = None
        else:
            path = None
            hashes, masks = self._ph.copy(), self._pm.copy()
        return ShardColumns(
            node_id=self.node_id, n_rows=n, path=path,
            hashes=hashes, masks=masks, wide=dict(self._pw),
            extra={h: dict(ex) for h, ex in self._extra.items()},
            n_hashes=self._n_hashes, n_copies=self._total_copies)

    def se_scan(self, se_mask: int) \
            -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """Vectorized shard scan: entries intersecting an entity-set mask.

        Returns ``(hashes, masks_lo, wide)``: the sorted believed hashes
        whose holder set intersects ``se_mask``, their low-64 holder masks,
        and — for returned rows with holders >= entity 64 — a dict
        hash -> *full* mask.  This is the one-shot candidate-discovery
        primitive behind the executor's collective phase and the collective
        queries.
        """
        self._compact()
        lo = _U64(se_mask & _M64)
        sel = (self._pm & lo) != _U64(0)
        wide_out: dict[int, int] = {}
        if self._pw:
            hi_mask = se_mask >> 64
            for h, hi in self._pw.items():
                i = int(np.searchsorted(self._ph, _U64(h)))
                if hi_mask and (hi & hi_mask):
                    sel[i] = True
                if sel[i]:
                    wide_out[h] = int(self._pm[i]) | (hi << 64)
        # flatnonzero + take is several times faster than boolean fancy
        # indexing here, and this is the hottest line in the scan paths.
        idx = np.flatnonzero(sel)
        return self._ph.take(idx), self._pm.take(idx), wide_out

    def bulk_masks(self, hashes) -> tuple[np.ndarray, dict[int, int]]:
        """Vectorized point lookup: low-64 masks for an array (or list)
        of hashes (0 for unknown hashes) plus the full-mask dict for wide
        rows.  A probe narrower than :data:`_VECTOR_MIN` walks the scalar
        :meth:`_mask_of`; the result is the same either way."""
        self._compact()
        wide_out: dict[int, int] = {}
        if len(hashes) < _VECTOR_MIN:
            lo = []
            for hh in hashes:
                hh = int(hh)
                m = self._mask_of(hh)
                if m > _M64:
                    wide_out[hh] = m
                    m &= _M64
                lo.append(m)
            return np.array(lo, dtype=_U64), wide_out
        q = np.ascontiguousarray(hashes, dtype=_U64)
        out = self._packed_lo(q)
        if self._pw:
            for i, hh in enumerate(q.tolist()):
                hi = self._pw.get(hh)
                if hi is not None:
                    wide_out[hh] = int(out[i]) | (hi << 64)
        return out, wide_out

    def bulk_num_copies(self, hashes) -> np.ndarray:
        """Vectorized ``num_copies`` over an array (or list) of hashes;
        narrower than :data:`_VECTOR_MIN` it is :meth:`num_copies` per
        hash, after the same compaction."""
        if len(hashes) < _VECTOR_MIN:
            self._compact()
            return np.array([self.num_copies(hh) for hh in hashes],
                            dtype=np.int64)
        q = np.ascontiguousarray(hashes, dtype=_U64)
        masks, wide = self.bulk_masks(q)
        counts = np.bitwise_count(masks).astype(np.int64)
        if wide:
            for i, hh in enumerate(q.tolist()):
                if hh in wide:
                    counts[i] = wide[hh].bit_count()
        extra = self._extra
        if extra:
            for i, hh in enumerate(q.tolist()):
                ex = extra.get(hh)
                if ex is not None and counts[i]:
                    counts[i] += sum(ex.values())
        return counts

    # -- iteration / stats -----------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """(hash, entity mask) pairs in this shard, in sorted hash order."""
        self._compact()
        pw = self._pw
        if pw:
            for h, lo in zip(self._ph.tolist(), self._pm.tolist()):
                hi = pw.get(h)
                yield (h, lo) if hi is None else (h, lo | (hi << 64))
        else:
            yield from zip(self._ph.tolist(), self._pm.tolist())

    def hashes(self) -> Iterator[int]:
        self._compact()
        return iter(self._ph.tolist())

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
