"""Collective checkpointing (paper §6).

Goal: "checkpoint the memory of a set of SEs (processes, VMs) such that
each replicated memory block (e.g., page) is stored exactly once."

Checkpoint format (paper Fig 13): one *shared content file* holds one copy
of each distinct block the collective phase handled; each SE has its own
*checkpoint file* whose per-block entries are either a pointer into the
shared content file or — for content ConCORD was unaware of (the
best-effort gap) — the block's literal content.  ``1:E:3`` means page 1 of
the SE holds content with hash E stored as block 3 of the shared file.
Here each SE file holds those records as columns — kind, page index, hash,
payload (:class:`SECheckpointFile`) — so the local phase appends an entity
in one call.

The shared file is an append-only log with atomic multi-writer append, the
only facility §6.1 requires of the parallel filesystem.

Restore walks an SE's checkpoint file, following pointers into the shared
file — here one gather over its columns (:func:`restore_entity`),
property-tested to be the identity under arbitrary staleness.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.command import (CollectiveBatch, ExecMode, HandledMap,
                                NodeContext, ServiceCallbacks, sorted_find)
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef
from repro.memory.pagedata import (is_interned_id, materialize_page,
                                   register_chunk)
from repro.queries.interface import _is_integer
from repro.sim.cluster import Cluster
from repro.util.hashing import page_hashes

__all__ = [
    "SharedContentFile",
    "SECheckpointFile",
    "CheckpointStore",
    "CollectiveCheckpoint",
    "RawCheckpoint",
    "restore_entity",
]

_PTR_RECORD_BYTES = 4 + 8 + 8        # page idx, hash, shared-file offset
_DATA_RECORD_HEADER = 4 + 8 + 4      # page idx, hash, length
_FILE_HEADER_BYTES = 32
# Tags an incremental checkpoint's private data for content its base
# already stores (repro.services.incremental).
_BASE_TAG = "base-offset"

# An SE file's record kinds, by their code in its kind column.
_KINDS = ("ptr", "data", "bptr")
_PTR, _DATA, _BPTR = range(len(_KINDS))
_NO_ROWS = tuple(np.empty(0, t) for t in (np.uint8, np.int64, np.uint64,
                                          np.uint64))


def _word(x, what: str = "content hash") -> int:
    """``x`` as an int in ``[0, 2**64)``: a bool or a non-integer raises
    ValueError, an integer outside that range OverflowError."""
    if not _is_integer(x):
        raise ValueError(f"{what} {x!r} is not an integer")
    if int(x) >> 64:
        raise OverflowError(f"{what} {x} does not fit an unsigned 64-bit word")
    return int(x)


def _words(values, what: str = "content hash", pages=None) -> np.ndarray:
    """``values`` as a ``uint64`` column: an integer array is checked for
    negatives, anything else value by value (:func:`_word`).  A value
    outside ``uint64`` raises OverflowError, or — given each row's page
    index, ``pages`` — a ValueError naming its page."""
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
            return np.fromiter((_word(v, what) for v in values), np.uint64,
                               len(values))
        if values.dtype.kind == "i" and np.min(values, initial=0) < 0:
            raise OverflowError(f"{what} {np.min(values)} does not fit an "
                                "unsigned 64-bit word")
    except OverflowError:
        if pages is None:
            raise
        i = next(i for i, v in enumerate(values) if not 0 <= v < 2**64)
        raise ValueError(f"page {pages[i]}: {what} {values[i]} outside "
                         "uint64") from None
    return values.astype(np.uint64, copy=False)


class SharedContentFile:
    """The shared content file: an atomic-append log of distinct blocks,
    as a ``uint64`` content-ID column by offset (``blocks``) and an index
    of the content hashes (sorted, with their offsets).  :meth:`extend` is
    its one write path; :meth:`append` is a one-row ``extend``."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.blocks = self._index = _NO_ROWS[3]   # by offset; sorted
        self._index_at = _NO_ROWS[1]              # offset of each _index

    def append(self, content_hash: int, content_id: int) -> int:
        """Atomically append one block; returns its offset (block index)."""
        return int(self.extend([content_hash], [content_id])[0])

    def extend(self, content_hashes, content_ids) -> np.ndarray:
        """Append blocks in order; returns their offsets (``int64``).

        Idempotent per hash: a hash the file holds (or met earlier in the
        call) gets its existing offset — the multi-writer log needs no
        stronger guarantee.  One search of the index finds known hashes;
        new ones take offsets by first appearance, merged in without a
        re-sort."""
        h, cids = _words(content_hashes), _words(content_ids, "content ID")
        if len(h) != len(cids):
            raise ValueError(f"{len(h)} content hashes for {len(cids)} "
                             "content IDs")
        order = np.argsort(h)
        heads = np.flatnonzero(np.diff(h[order], prepend=~h[order[:1]]))
        at, known = sorted_find(self._index, h[order[heads]])
        first = np.minimum.reduceat(order, heads) if len(h) else heads
        new = np.zeros(len(h), dtype=bool)
        new[first[~known]] = True
        off = len(self.blocks) + np.cumsum(new)[first] - 1   # one per hash
        off[known] = self._index_at[at[known]]
        self.blocks = np.concatenate([self.blocks, cids[new]])
        self._index = np.insert(self._index, at[~known], h[first[~known]])
        self._index_at = np.insert(self._index_at, at[~known], off[~known])
        offsets = np.empty(len(h), dtype=np.int64)
        offsets[order] = np.repeat(off, np.diff(heads, append=len(h)))
        return offsets

    def offsets_of(self, content_hashes) -> np.ndarray:
        """Offset of each hash's block (``int64``), -1 where the file
        holds none: one search of the index."""
        at, known = sorted_find(self._index, _words(content_hashes))
        offsets = np.full(len(at), -1, dtype=np.int64)
        offsets[known] = self._index_at[at[known]]
        return offsets

    def offset_of(self, content_hash: int) -> int | None:
        """Offset of the block with this content hash, or None: a one-row
        :meth:`offsets_of`."""
        offset = int(self.offsets_of([content_hash])[0])
        return None if offset < 0 else offset

    def read(self, offset: int) -> int:
        """Content ID of the block at ``offset``."""
        if not _is_integer(offset) or not 0 <= offset < self.n_blocks:
            raise ValueError(f"offset {offset!r} is not a block of the "
                             f"shared file ({self.n_blocks} blocks)")
        return int(self.blocks[offset])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return _FILE_HEADER_BYTES + self.n_blocks * self.page_size


class SECheckpointFile:
    """One SE's checkpoint file as columns: kind, page index, hash, payload
    (offset or content ID).  A ``bptr`` payload is whatever the base's
    ``offsets_of`` returned (``(store, offset)`` in a chain): it lives in a
    side table by row."""

    def __init__(self, entity_id: int, page_size: int) -> None:
        self.entity_id = entity_id
        self.page_size = page_size
        self._cols = _NO_ROWS
        self._bptr: dict[int, Any] = {}       # row -> base pointer payload

    def __len__(self) -> int:
        return len(self._cols[0])

    def add_pointer(self, page_idx: int, content_hash: int, offset: int) -> None:
        self.append_columns([_PTR], [page_idx], [content_hash], [offset])

    def add_data(self, page_idx: int, content_hash: int, content_id: int) -> None:
        self.append_columns([_DATA], [page_idx], [content_hash], [content_id])

    def append_columns(self, kind, page_idx, hashes, payload,
                       bptr: dict[int, Any] | None = None) -> None:
        """Append records as whole columns: the file's one write path.

        ``kind`` holds codes into ``_KINDS``; ``bptr`` maps each ``bptr``
        row of the columns, and no other, to its base pointer payload
        (that row's ``payload`` is not read; 0 by convention).  Refused
        before any row is kept: columns of different lengths, a kind code
        that is not ptr, data or bptr, a negative page index, and a hash
        or payload that is not an integer in ``[0, 2**64)``."""
        if not len(kind) == len(page_idx) == len(hashes) == len(payload):
            raise ValueError("columns of different lengths")
        kind, bptr = np.asarray(kind), bptr or {}
        if len(kind) and (kind.dtype.kind not in "iu" or kind.min() < 0
                          or kind.max() >= len(_KINDS)):
            bad = sorted(set(kind.tolist()) - set(range(len(_KINDS))))
            raise ValueError(f"kind codes {bad} are not ptr/data/bptr")
        if sorted(bptr) != np.flatnonzero(kind == _BPTR).tolist():
            raise ValueError("base pointer payloads are not the bptr rows")
        if len(page_idx) and np.min(page_idx) < 0:
            raise ValueError(f"page index {np.min(page_idx)} is negative")
        hashes = _words(hashes, "content hash", page_idx)
        payload = _words(payload, "payload", page_idx)
        cols = tuple(np.concatenate([c, np.asarray(new, c.dtype)])
                     for c, new in zip(self._cols, (
                         kind, page_idx, hashes, payload)))
        self._bptr.update((len(self) + row, p) for row, p in bptr.items())
        self._cols = cols

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(kind, page index, hash, payload), one array each."""
        return self._cols

    @property
    def records(self) -> list[tuple]:
        """Every record as ``(kind, page_idx, hash, payload)``, in file
        order (a copy: append with :meth:`append_columns`)."""
        return [(_KINDS[k], i, h, self._bptr.get(row, p)) for row, (k, i, h, p)
                in enumerate(zip(*(c.tolist() for c in self.columns())))]

    @property
    def n_data_records(self) -> int:
        return int(np.count_nonzero(self.columns()[0] == _DATA))

    @property
    def n_pointer_records(self) -> int:
        # 'bptr' (incremental base pointers) cost the same as 'ptr'.
        return len(self) - self.n_data_records

    @property
    def size_bytes(self) -> int:
        return (_FILE_HEADER_BYTES
                + self.n_pointer_records * _PTR_RECORD_BYTES
                + self.n_data_records * (_DATA_RECORD_HEADER + self.page_size))


class CheckpointStore:
    """A complete collective checkpoint: shared file + per-SE files."""

    def __init__(self, page_size: int = 4096,
                 compress_fraction: float = 0.5) -> None:
        self.page_size = page_size
        self.compress_fraction = compress_fraction
        self.shared = SharedContentFile(page_size)
        self.se_files: dict[int, SECheckpointFile] = {}

    def se_file(self, entity_id: int) -> SECheckpointFile:
        return self.se_files.setdefault(
            entity_id, SECheckpointFile(entity_id, self.page_size))

    # -- sizes (Fig 14's four strategies) ------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return sum(map(len, self.se_files.values()))

    @property
    def raw_size_bytes(self) -> int:
        """Size of the obvious design: every SE saves every block."""
        return (len(self.se_files) * _FILE_HEADER_BYTES
                + self.total_blocks * (self.page_size + _DATA_RECORD_HEADER))

    @property
    def concord_size_bytes(self) -> int:
        return (self.shared.size_bytes
                + sum(f.size_bytes for f in self.se_files.values()))

    @property
    def compression_ratio(self) -> float:
        """ConCORD checkpoint size over raw size (Fig 14's y-axis)."""
        raw = self.raw_size_bytes
        return 1.0 if raw == 0 else self.concord_size_bytes / raw

    def gzip_sizes_model(self, content_ratio: float) -> tuple[int, int]:
        """(raw+gzip, concord+gzip) sizes under the modelled gzip ratio.

        gzip's 32 KB window removes within-page redundancy (content_ratio)
        but almost none of the page-granularity duplication ConCORD
        targets, so raw-gzip scales with raw size.
        """
        raw_gzip = int(self.raw_size_bytes * content_ratio)
        ptr_bytes = sum(f.n_pointer_records * _PTR_RECORD_BYTES
                        for f in self.se_files.values())
        data_bytes = sum(f.n_data_records * (self.page_size + _DATA_RECORD_HEADER)
                         for f in self.se_files.values())
        concord_gzip = int(self.shared.size_bytes * content_ratio
                           + ptr_bytes + data_bytes * content_ratio)
        return raw_gzip, concord_gzip

    def gzip_sizes_real(self) -> tuple[int, int]:
        """(raw+gzip, concord+gzip) with real zlib over materialized bytes.

        An incremental checkpoint's base pointers are not this store's to
        resolve: ``ValueError``, as for :meth:`write_to_dir`."""
        raw_parts, leftover_parts = [], []
        shared_parts = [materialize_page(cid, self.page_size,
                                         self.compress_fraction)
                        for cid in self.shared.blocks.tolist()]
        for f in self.se_files.values():
            for kind, cid in zip(f.columns()[0].tolist(),
                                 self._content_ids(f).tolist()):
                page = materialize_page(cid, self.page_size,
                                        self.compress_fraction)
                raw_parts.append(page)
                if kind == _DATA:
                    leftover_parts.append(page)
        raw_gzip = len(zlib.compress(b"".join(raw_parts), 6))
        ptr_bytes = sum(f.n_pointer_records * _PTR_RECORD_BYTES
                        for f in self.se_files.values())
        concord_gzip = (len(zlib.compress(b"".join(shared_parts + leftover_parts), 6))
                        + ptr_bytes)
        return raw_gzip, concord_gzip

    # -- on-disk serialization (byte mode) ----------------------------------------------------
    # One container: length-prefixed blocks with an explicit content ID,
    # because interned (content-defined) chunks are variable-sized and
    # carry no embedded ID (docs/RECONCILIATION.md).  load_from_dir reads
    # only this container: any other magic raises ValueError.

    _SHARED_MAGIC = b"CCS2"
    _SE_MAGIC = b"CCE2"

    def _content_ids(self, f: SECheckpointFile,
                     read_bptr: Callable[[Any], int] | None = None
                     ) -> np.ndarray:
        """Each record's content ID, by one gather over ``f``'s columns; a
        ``bptr`` resolves through ``read_bptr``, and without one is refused
        (an increment serializes with its chain, not standalone)."""
        kind, page_idx, _h, payload = f.columns()
        ptr = kind == _PTR
        blocks, offsets = self.shared.blocks, payload[ptr]
        if len(offsets) and offsets.max() >= len(blocks):
            i = int(np.argmax(offsets >= len(blocks)))
            raise ValueError(f"page {page_idx[ptr][i]} points at shared-file "
                             f"offset {offsets[i]}, past the end of the "
                             f"shared file ({len(blocks)} blocks)")
        cids = payload.copy()
        cids[ptr] = blocks[offsets]
        for row, p in f._bptr.items():
            if read_bptr is None:
                raise ValueError(f"page {page_idx[row]} is a base pointer:"
                                 " an incremental checkpoint resolves it"
                                 " with its base or chain")
            cids[row] = read_bptr(p)
        return cids

    def _canonical(self) -> CheckpointStore:
        """This checkpoint's *logical* content as a store whose shape does
        not depend on how it was produced: the shared file holds every
        referenced distinct block exactly once in hash order (blocks
        appended collectively but never referenced — stale handled
        hashes — are garbage-collected), and every SE record is a pointer
        into it, in page order."""
        files = list(self.se_files.values())
        hashes = np.concatenate([_NO_ROWS[2]] + [f.columns()[2]
                                                 for f in files])
        cids = np.concatenate([_NO_ROWS[3]] + [self._content_ids(f)
                                               for f in files])
        distinct, first = np.unique(hashes, return_index=True)
        out = CheckpointStore(self.page_size, self.compress_fraction)
        out.shared.extend(distinct, cids[first])
        for eid in sorted(self.se_files):
            _kind, page_idx, h, _payload = self.se_files[eid].columns()
            rows = np.argsort(page_idx, kind="stable")
            out.se_file(eid).append_columns(
                np.full(len(rows), _PTR), page_idx[rows], h[rows],
                np.searchsorted(distinct, h[rows]))
        return out

    def write_to_dir(self, path: str | Path, canonical: bool = False) -> None:
        """Materialize real bytes and write the checkpoint to a directory.

        With ``canonical=True`` the bytes depend only on the *logical*
        checkpoint — each SE's page contents — not on how it was produced
        (:meth:`_canonical`).  Two runs of the same workload therefore
        serialize byte-identically even if one ran degraded (dead shards,
        datagram loss) and covered fewer blocks collectively — the
        fault-tolerance guarantee the integration tests pin down.  The
        default mode writes records as produced (pointers and literal
        data blocks), which round-trips the store exactly.
        """
        if canonical:
            self._canonical().write_to_dir(path)
            return
        d = Path(path)
        # Resolved before any file opens: a refused store writes nothing.
        cids_of = {eid: self._content_ids(f)
                   for eid, f in self.se_files.items()}
        d.mkdir(parents=True, exist_ok=True)
        with open(d / "shared.bin", "wb") as fh:
            fh.write(self._SHARED_MAGIC)
            fh.write(struct.pack("<IQ", self.page_size, self.shared.n_blocks))
            for cid in self.shared.blocks.tolist():
                page = materialize_page(cid, self.page_size,
                                        self.compress_fraction)
                fh.write(struct.pack("<QI", cid, len(page)) + page)
        for eid, f in self.se_files.items():
            cids = cids_of[eid]
            with open(d / f"entity_{eid}.ckpt", "wb") as fh:
                fh.write(self._SE_MAGIC)
                fh.write(struct.pack("<IIQ", eid, self.page_size, len(f)))
                for kind, idx, h, payload, cid in zip(
                        *(c.tolist() for c in f.columns()), cids.tolist()):
                    if kind == _PTR:
                        fh.write(struct.pack("<BIQQ", 0, idx, h, payload))
                        continue
                    page = materialize_page(cid, self.page_size,
                                            self.compress_fraction)
                    fh.write(struct.pack("<BIQQI", 1, idx, h, cid, len(page))
                             + page)

    @classmethod
    def load_from_dir(cls, path: str | Path,
                      compress_fraction: float = 0.5) -> CheckpointStore:
        """Read a checkpoint back.

        Files carry each block's content ID explicitly, and interned chunk
        bytes are re-registered so :func:`materialize_page` renders them
        again.  A file whose magic is not the ``CCS2``/``CCE2`` container,
        that ends before what its headers declare, or that points past the
        end of the shared file raises ValueError naming it — nothing
        truncated is registered.
        """
        d = Path(path)
        shared = d / "shared.bin"
        with open(shared, "rb") as fh:
            if _exact(fh, 4, shared) != cls._SHARED_MAGIC:
                raise ValueError("bad shared content file magic")
            page_size, n_blocks = _unpack(fh, "<IQ", shared)
            store = cls(page_size, compress_fraction)
            cids = []
            for _ in range(n_blocks):
                cid, length = _unpack(fh, "<QI", shared)
                data = _exact(fh, length, shared)
                if is_interned_id(cid):
                    register_chunk(cid, data)
                cids.append(cid)
            store.shared.extend(page_hashes(cids), cids)
        for ckpt in sorted(d.glob("entity_*.ckpt")):
            with open(ckpt, "rb") as fh:
                if _exact(fh, 4, ckpt) != cls._SE_MAGIC:
                    raise ValueError(f"bad SE file magic in {ckpt}")
                eid, psize, n_records = _unpack(fh, "<IIQ", ckpt)
                if psize != page_size:
                    raise ValueError("page size mismatch between files")
                rows = []
                for _ in range(n_records):
                    if _exact(fh, 1, ckpt)[0] == 0:
                        rows.append((_PTR, *_unpack(fh, "<IQQ", ckpt)))
                        continue
                    idx, h, cid, length = _unpack(fh, "<IQQI", ckpt)
                    data = _exact(fh, length, ckpt)
                    if is_interned_id(cid):
                        register_chunk(cid, data)
                    rows.append((_DATA, idx, h, cid))
                f = store.se_file(eid)
                f.append_columns(*(list(zip(*rows)) or [()] * 4))
            try:
                store._content_ids(f)
            except ValueError as exc:
                raise ValueError(f"{ckpt}: {exc}") from None
        return store


def _exact(fh, n: int, path: Path) -> bytes:
    """The next ``n`` bytes of a checkpoint file; ValueError naming it
    when the file ends first."""
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated, {len(data)} of {n} bytes "
                         "left where its header declares more")
    return data


def _unpack(fh, fmt: str, path: Path) -> tuple:
    """One header record of a checkpoint file, read exactly."""
    return struct.unpack(fmt, _exact(fh, struct.calcsize(fmt), path))


def _restore_records(store: CheckpointStore, entity_id: int,
                     read_bptr: Callable[[Any], int] | None = None
                     ) -> np.ndarray:
    """The one walk of an SE's checkpoint file: content IDs per page.

    ``ptr`` payloads resolve in ``store``'s own shared file, ``data``
    payloads are the content; ``read_bptr`` resolves an increment's base
    pointers (:mod:`repro.services.incremental`) and is what the public
    restore entry points differ in.  A file that names a page twice, or
    a base pointer with nothing to resolve it, is refused at its first
    such record.
    """
    f = store.se_files.get(entity_id)
    if f is None:
        raise KeyError(f"no checkpoint file for entity {entity_id}")
    kind, idx, _h, _payload = f.columns()
    if not len(idx):
        return np.empty(0, dtype=np.uint64)
    per_page = np.bincount(idx)
    if per_page.max() > 1 or (f._bptr and read_bptr is None):
        again = np.ones(len(idx), dtype=bool)  # names its page a second time
        again[np.unique(idx, return_index=True)[1]] = False
        refused = again | (kind == _BPTR) if read_bptr is None else again
        i = int(np.argmax(refused))
        if again[i]:
            raise ValueError(f"duplicate record for page {idx[i]}")
        raise ValueError(
            f"page {idx[i]} is a base pointer: restore an incremental "
            "checkpoint with its base or chain")
    pages = np.empty(len(per_page), dtype=np.uint64)
    pages[idx] = store._content_ids(f, read_bptr)
    if not per_page.all():
        missing = np.flatnonzero(per_page == 0)[:5].tolist()
        raise ValueError(f"checkpoint incomplete: pages {missing} missing")
    return pages


def restore_entity(store: CheckpointStore, entity_id: int) -> np.ndarray:
    """Rebuild an SE's memory (content IDs per page) from the checkpoint.

    "To restore an SE's memory from the checkpoint, we need only walk the
    SE's checkpoint file, referencing pointers to the shared content file
    as needed" (paper §6.1).
    """
    return _restore_records(store, entity_id)


@dataclass
class _CkptNodeState:
    """Per-node private service state: what this node wrote.  The
    ``ckpt.*`` registry counters are these tallies, pushed once per node
    at teardown."""

    shared_appends: int = 0
    pointer_records: int = 0
    data_records: int = 0


class CollectiveCheckpoint(ServiceCallbacks):
    """The collective checkpointing service command (~230 lines of C in the
    paper; the same callback structure here).

    Interactive mode appends a shard's rows to the shared file in one
    ``extend`` and an SE's records in one ``append_columns``.  Batch mode
    records ``shared`` / ``ptr`` / ``data`` ops into the node's
    ``ctx.plan`` and runs them in bulk, each op charged as one bulk
    append: the shared-file ops as one ``extend`` per node at
    ``collective_finalize``, the rest at the node's first
    ``local_finalize``, one ``append_columns`` per SE file.

    ``pfs``: write the shared content file through a
    :class:`repro.storage.ParallelFileSystem` instead of a node-local RAM
    disk.  The shared file then consumes aggregate server bandwidth — a
    machine-wide resource — so its cost is charged via
    ``ctx.charge_shared``.  The paper factors the FS out on Old/New-cluster
    (RAM disks, the default here); Big-cluster runs see the shared path.

    ``refine_plan``: in batch mode, refine the execution plan before
    running it — the hook §4.2 motivates ("allows the application service
    developer to refine and enhance the plan").  Local-phase records sort
    by (entity, page index) so each SE file is written sequentially;
    appends coalesce and their per-append overhead amortizes further.
    """

    name = "collective-checkpoint"

    def __init__(self, store: CheckpointStore, pfs=None,
                 refine_plan: bool = False) -> None:
        self.store, self.pfs, self.refine_plan = store, pfs, refine_plan

    # -- service initialization: open files, allocate state ---------------------------

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        ctx.state = _CkptNodeState()

    def collective_start(self, ctx: NodeContext, role: EntityRole,
                         entity: Entity, hash_sample: np.ndarray) -> None:
        # This is where checkpoint files are opened (paper §4.3); the store
        # creates SE files lazily, so only SEs get files.
        if role is EntityRole.SERVICE:
            self.store.se_file(entity.entity_id)

    # -- collective phase: write each distinct block to the shared file ----------------

    def _block_append_cost(self, c, amortize: float = 1.0) -> float:
        """One whole-block file append; bulk appends amortize the base."""
        return (c.file_append_base * amortize + self.store.page_size
                * (c.file_append_per_byte + c.memcpy_per_byte))

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        """Batch mode's row form: plan the block's shared-file append."""
        ctx.plan.record("shared", content_hash,
                        entity.read_block_id(block.page_idx))
        return True

    def collective_command_batch(self, batch: CollectiveBatch
                                 ) -> list[Any] | np.ndarray:
        """Interactive mode: a shard's rows in one shared-file ``extend``,
        in row order, charged per row (offsets: int64).  Batch mode plans
        them row by row (the default loop over :meth:`collective_command`)."""
        if batch.mode is ExecMode.BATCH:
            return super().collective_command_batch(batch)
        offsets = self.store.shared.extend(batch.hashes, batch.content_ids())
        batch.charge_per_block(self._block_append_cost(batch.cost))
        if self.pfs is not None:
            _client, server = self.pfs.append_costs(self.store.page_size)
            batch.charge_shared(server * batch.n_represented)
        nodes, counts = np.unique(batch.nodes, return_counts=True)
        for node, n in zip(nodes.tolist(), counts.tolist()):
            batch.contexts[node].state.shared_appends += n
        return offsets

    def collective_finalize(self, ctx: NodeContext, role: EntityRole,
                            entity: Entity) -> None:
        if ctx.mode is not ExecMode.BATCH or not len(ctx.plan):
            return
        # The node's planned shared-file appends in one extend; the node's
        # other entities then find the plan empty.
        rows: list[tuple[int, int]] = []
        ctx.plan.execute({"shared": lambda *row: rows.append(row)})
        ctx.plan.clear()
        self.store.shared.extend(*np.array(rows, dtype=np.uint64).T)
        ctx.state.shared_appends += len(rows)
        seconds = self._block_append_cost(ctx.cost, 1.0 / 16)
        for _ in rows:                          # one charge per op
            ctx.charge_per_block(seconds)
            if self.pfs is not None:
                _client, server = self.pfs.append_costs(self.store.page_size)
                ctx.charge_shared(server * ctx.n_represented)

    # -- local phase: per-SE checkpoint files ---------------------------------------------

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: HandledMap) -> None:
        eid = entity.entity_id
        if ctx.mode is ExecMode.BATCH:
            for idx, h, is_covered, cid in zip(
                    range(len(hashes)), hashes.tolist(), covered.tolist(),
                    entity.block_ids().tolist()):
                ctx.plan.record(*(("ptr", eid, idx, h) if is_covered
                                  else ("data", eid, idx, h, cid)))
            return
        # One append for the whole entity: a covered block's private is its
        # shared-file offset, or — from an incremental checkpoint's base, an
        # object column — a (_BASE_TAG, offset) pair, a base pointer.
        kind = np.where(covered, _PTR, _DATA)
        payload = entity.block_ids().astype(np.uint64)
        rows = np.flatnonzero(covered)
        privates = handled_map.gather(hashes[rows])
        bptr = {}
        if privates.dtype == object:
            for i in [i for i, p in enumerate(privates.tolist())
                      if type(p) is tuple]:
                bptr[int(rows[i])], privates[i] = privates[i][1], 0
            kind[list(bptr)] = _BPTR
        payload[rows] = privates
        self.store.se_file(eid).append_columns(
            kind, np.arange(len(hashes)), hashes, payload, bptr)
        st: _CkptNodeState = ctx.state
        c = ctx.cost
        n_cov = int(covered.sum())
        n_data = len(hashes) - n_cov
        st.pointer_records += n_cov
        st.data_records += n_data
        ctx.charge_per_block(c.file_append_base / 8
                             + _PTR_RECORD_BYTES * c.file_append_per_byte, n_cov)
        ctx.charge_per_block(self._block_append_cost(c), n_data)

    def local_finalize(self, ctx: NodeContext, entity: Entity) -> None:
        if (ctx.mode is not ExecMode.BATCH or ctx.plan.executed
                or not len(ctx.plan)):
            return
        amortize = 1.0 / 16
        if self.refine_plan:
            # Plan refinement: sequential per-file write order -> deeper
            # append coalescing.
            ctx.plan.reorder(key=lambda op: op.args[:2])  # (entity, page)
            amortize = 1.0 / 64
        rows: list[tuple] = []
        ctx.plan.execute({"ptr": lambda *op: rows.append((_PTR, *op, 0)),
                          "data": lambda *op: rows.append((_DATA, *op))})
        kind, eids, idx, hashes, payload = (
            np.array(col, dtype) for col, dtype in zip(zip(*rows), (
                np.uint8, np.int64, np.int64, np.uint64, np.uint64)))
        ptr = np.flatnonzero(kind == _PTR)
        offsets = self.store.shared.offsets_of(hashes[ptr])
        payload[ptr[offsets >= 0]] = offsets[offsets >= 0]
        # Plan said covered but the shared block never landed: literal
        # content instead (correctness first).
        gone = ptr[offsets < 0]
        kind[gone] = _DATA
        payload[gone] = [ctx.cluster.entity(e).read_block_id(i) for e, i
                         in zip(eids[gone].tolist(), idx[gone].tolist())]
        by_eid = np.argsort(eids, kind="stable")
        files, first = np.unique(eids[by_eid], return_index=True)
        for eid, run in zip(files.tolist(), np.split(by_eid, first[1:])):
            self.store.se_file(eid).append_columns(
                kind[run], idx[run], hashes[run], payload[run])
        st: _CkptNodeState = ctx.state
        st.pointer_records += len(ptr) - len(gone)
        st.data_records += len(rows) - len(ptr) + len(gone)
        c = ctx.cost
        for seconds in ([c.file_append_base * amortize / 4 + _PTR_RECORD_BYTES
                         * c.file_append_per_byte] * (len(ptr) - len(gone))
                        + [self._block_append_cost(c, amortize)]
                        * (len(rows) - len(ptr))
                        + [self._block_append_cost(c, 1.0 / 16)] * len(gone)):
            ctx.charge_per_block(seconds)       # one charge per op

    # -- teardown -------------------------------------------------------------------------

    def service_deinit(self, ctx: NodeContext) -> bool:
        st: _CkptNodeState = ctx.state
        ctx.count("ckpt.shared_appends", st.shared_appends)
        ctx.count("ckpt.pointer_records", st.pointer_records)
        ctx.count("ckpt.data_records", st.data_records)
        return True


class RawCheckpoint:
    """The baseline: "simply record each page in each process" (§4.1).

    No ConCORD involvement: every SE writes its full memory to its own file
    (embarrassingly parallel).  ``run`` returns a compatible store plus the
    modelled response time; gzip variants are derived from it.
    """

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size

    def run(self, cluster: Cluster, entity_ids: list[int],
            n_represented: int = 1,
            gzip: bool = False) -> tuple[CheckpointStore, float]:
        c = cluster.cost
        store = CheckpointStore(self.page_size)
        per_node_time: dict[int, float] = {}
        for eid in entity_ids:
            entity = cluster.entity(eid)
            store.se_file(eid).append_columns(
                np.full(entity.n_blocks, _DATA), np.arange(entity.n_blocks),
                entity.content_hashes(), entity.block_ids())
            nbytes = entity.memory_bytes * n_represented
            t = (entity.n_blocks * n_represented * (c.file_append_base / 64)
                 + nbytes * (c.file_append_per_byte + c.memcpy_per_byte))
            if gzip:
                t += nbytes * c.gzip_per_byte
            per_node_time[entity.node_id] = per_node_time.get(
                entity.node_id, 0.0) + t
        wall = max(per_node_time.values(), default=0.0) + c.barrier_time(
            cluster.n_nodes)
        return store, wall
