"""Collective checkpointing (paper §6).

Goal: "checkpoint the memory of a set of SEs (processes, VMs) such that
each replicated memory block (e.g., page) is stored exactly once."

Checkpoint format (paper Fig 13): one *shared content file* holds one copy
of each distinct block the collective phase handled; each SE has its own
*checkpoint file* whose per-block entries are either a pointer into the
shared content file or — for content ConCORD was unaware of (the
best-effort gap) — the block's literal content.  ``1:E:3`` means page 1 of
the SE holds content with hash E stored as block 3 of the shared file.

The shared file is an append-only log with atomic multi-writer append, the
only facility §6.1 requires of the parallel filesystem.

Restore walks an SE's checkpoint file, following pointers into the shared
file — implemented here (:func:`restore_entity`) and property-tested to be
the identity under arbitrary staleness.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.command import (CollectiveBatch, ExecMode, NodeContext,
                                ServiceCallbacks)
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef
from repro.memory.pagedata import (is_interned_id, materialize_page,
                                   register_chunk)
from repro.sim.cluster import Cluster
from repro.util.hashing import page_hash

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


class SharedContentFile:
    """The shared content file: an atomic-append log of distinct blocks."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.blocks: list[int] = []          # content IDs, by offset
        self._offset_of: dict[int, int] = {}  # content hash -> offset

    def append(self, content_hash: int, content_id: int) -> int:
        """Atomically append one block; returns its offset (block index).

        Idempotent per hash: a second append of the same content returns
        the existing offset (the multi-writer log needs no stronger
        guarantee).
        """
        return self.extend([int(content_hash)], [int(content_id)])[0]

    def extend(self, content_hashes: list[int],
               content_ids: list[int]) -> list[int]:
        """:meth:`append` each block in order; returns their offsets."""
        blocks, offset_of = self.blocks, self._offset_of
        out = []
        for h, cid in zip(content_hashes, content_ids):
            offset = offset_of.get(h)
            if offset is None:
                offset = offset_of[h] = len(blocks)
                blocks.append(cid)
            out.append(offset)
        return out

    def offset_of(self, content_hash: int) -> int | None:
        return self._offset_of.get(int(content_hash))

    def read(self, offset: int) -> int:
        return self.blocks[offset]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return _FILE_HEADER_BYTES + self.n_blocks * self.page_size


@dataclass
class SECheckpointFile:
    """One SE's checkpoint file: pointer or content records per block."""

    entity_id: int
    page_size: int
    # ('ptr', page_idx, hash, offset) | ('data', page_idx, hash, content_id)
    records: list[tuple] = field(default_factory=list)

    def add_pointer(self, page_idx: int, content_hash: int, offset: int) -> None:
        self.records.append(("ptr", page_idx, int(content_hash), int(offset)))

    def add_data(self, page_idx: int, content_hash: int, content_id: int) -> None:
        self.records.append(("data", page_idx, int(content_hash), int(content_id)))

    @property
    def n_pointer_records(self) -> int:
        # 'bptr' (incremental base pointers) cost the same as 'ptr'.
        return sum(1 for r in self.records if r[0] in ("ptr", "bptr"))

    @property
    def n_data_records(self) -> int:
        return sum(1 for r in self.records if r[0] == "data")

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
        f = self.se_files.get(entity_id)
        if f is None:
            f = SECheckpointFile(entity_id, self.page_size)
            self.se_files[entity_id] = f
        return f

    # -- sizes (Fig 14's four strategies) ------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return sum(len(f.records) for f in self.se_files.values())

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
        raw_parts = []
        shared_parts = [materialize_page(cid, self.page_size,
                                         self.compress_fraction)
                        for cid in self.shared.blocks]
        leftover_parts = []
        for f in self.se_files.values():
            for kind, _idx, _h, payload in f.records:
                page = materialize_page(self._record_cid(kind, payload),
                                        self.page_size, self.compress_fraction)
                raw_parts.append(page)
                if kind == "data":
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

    def _record_cid(self, kind: str, payload: int) -> int:
        if kind == "ptr":
            return self.shared.read(payload)
        if kind == "data":
            return int(payload)
        raise ValueError(
            f"record kind {kind!r} (incremental checkpoints"
            " serialize with their chain, not standalone)")

    def _canonical(self) -> CheckpointStore:
        """This checkpoint's *logical* content as a store whose shape does
        not depend on how it was produced: the shared file holds every
        referenced distinct block exactly once in hash order (blocks
        appended collectively but never referenced — stale handled
        hashes — are garbage-collected), and every SE record is a pointer
        into it, in page order."""
        by_hash: dict[int, int] = {}
        for f in self.se_files.values():
            for kind, _idx, h, payload in f.records:
                by_hash.setdefault(h, self._record_cid(kind, payload))
        out = CheckpointStore(self.page_size, self.compress_fraction)
        for h in sorted(by_hash):
            out.shared.append(h, by_hash[h])
        for eid in sorted(self.se_files):
            f = out.se_file(eid)
            for _kind, idx, h, _payload in sorted(self.se_files[eid].records,
                                                  key=lambda r: r[1]):
                f.add_pointer(idx, h, out.shared.offset_of(h))
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
        d.mkdir(parents=True, exist_ok=True)
        with open(d / "shared.bin", "wb") as fh:
            fh.write(self._SHARED_MAGIC)
            fh.write(struct.pack("<IQ", self.page_size, self.shared.n_blocks))
            for cid in self.shared.blocks:
                page = materialize_page(cid, self.page_size,
                                        self.compress_fraction)
                fh.write(struct.pack("<QI", cid, len(page)))
                fh.write(page)
        for eid, f in self.se_files.items():
            with open(d / f"entity_{eid}.ckpt", "wb") as fh:
                fh.write(self._SE_MAGIC)
                fh.write(struct.pack("<IIQ", eid, self.page_size,
                                     len(f.records)))
                for kind, idx, h, payload in f.records:
                    if kind == "ptr":
                        fh.write(struct.pack("<BIQQ", 0, idx, h, payload))
                    else:
                        cid = self._record_cid(kind, payload)
                        page = materialize_page(cid, self.page_size,
                                                self.compress_fraction)
                        fh.write(struct.pack("<BIQQI", 1, idx, h, cid,
                                             len(page)))
                        fh.write(page)

    @classmethod
    def load_from_dir(cls, path: str | Path,
                      compress_fraction: float = 0.5) -> CheckpointStore:
        """Read a checkpoint back.

        Files carry each block's content ID explicitly, and interned chunk
        bytes are re-registered so :func:`materialize_page` renders them
        again.  A file whose magic is not the ``CCS2``/``CCE2`` container,
        or that ends before what its headers declare, raises ValueError
        naming it — nothing truncated is registered.
        """
        d = Path(path)
        shared = d / "shared.bin"
        with open(shared, "rb") as fh:
            if _exact(fh, 4, shared) != cls._SHARED_MAGIC:
                raise ValueError("bad shared content file magic")
            page_size, n_blocks = _unpack(fh, "<IQ", shared)
            store = cls(page_size, compress_fraction)
            for _ in range(n_blocks):
                cid, length = _unpack(fh, "<QI", shared)
                data = _exact(fh, length, shared)
                if is_interned_id(cid):
                    register_chunk(cid, data)
                store.shared.append(page_hash(cid), cid)
        for ckpt in sorted(d.glob("entity_*.ckpt")):
            with open(ckpt, "rb") as fh:
                if _exact(fh, 4, ckpt) != cls._SE_MAGIC:
                    raise ValueError(f"bad SE file magic in {ckpt}")
                eid, psize, n_records = _unpack(fh, "<IIQ", ckpt)
                if psize != page_size:
                    raise ValueError("page size mismatch between files")
                f = store.se_file(eid)
                for _ in range(n_records):
                    if _exact(fh, 1, ckpt)[0] == 0:
                        f.add_pointer(*_unpack(fh, "<IQQ", ckpt))
                        continue
                    idx, h, cid, length = _unpack(fh, "<IQQI", ckpt)
                    data = _exact(fh, length, ckpt)
                    if is_interned_id(cid):
                        register_chunk(cid, data)
                    f.add_data(idx, h, cid)
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
    if not f.records:
        return np.empty(0, dtype=np.uint64)
    kinds, idx, _h, payloads = zip(*f.records)
    kinds = np.array(kinds)
    idx = np.array(idx, dtype=np.int64)
    again = np.ones(len(idx), dtype=bool)      # names its page a second time
    again[np.unique(idx, return_index=True)[1]] = False
    bptr = kinds == "bptr"
    refused = again | bptr if read_bptr is None else again
    if refused.any():
        i = int(np.argmax(refused))
        if again[i]:
            raise ValueError(f"duplicate record for page {idx[i]}")
        raise ValueError(
            f"page {idx[i]} is a base pointer: restore an incremental "
            "checkpoint with its base or chain")
    payloads = list(payloads)
    for i in np.flatnonzero(bptr).tolist():
        payloads[i] = read_bptr(payloads[i])
    values = np.array(payloads, dtype=np.uint64)
    ptr = kinds == "ptr"
    if ptr.any():
        values[ptr] = np.array(store.shared.blocks, dtype=np.uint64)[
            values[ptr].astype(np.int64)]
    pages = np.zeros(int(idx.max()) + 1, dtype=np.uint64)
    pages[idx] = values
    seen = np.zeros(len(pages), dtype=bool)
    seen[idx] = True
    if not seen.all():
        missing = np.flatnonzero(~seen)[:5].tolist()
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

    Batch mode records ``shared`` / ``ptr`` / ``data`` ops into the node's
    ``ctx.plan`` and runs them in bulk: the shared-file ops at
    ``collective_finalize``, the rest at the node's first ``local_finalize``.

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
        self.store = store
        self.pfs = pfs
        self.refine_plan = refine_plan

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

    def _charge_block_append(self, ctx: NodeContext, amortize: float = 1.0,
                             n_blocks: int = 1) -> None:
        ctx.charge_per_block(self._block_append_cost(ctx.cost, amortize),
                             n_blocks)

    def _append_shared(self, ctx: NodeContext, content_hash: int,
                       content_id: int, amortize: float) -> int:
        """Append one distinct block to the shared content file."""
        offset = self.store.shared.append(content_hash, content_id)
        self._charge_block_append(ctx, amortize)
        if self.pfs is not None:
            _client, server = self.pfs.append_costs(self.store.page_size)
            ctx.charge_shared(server * ctx.n_represented)
        ctx.state.shared_appends += 1
        return offset

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        content_id = ctx.read_block(block)
        if ctx.mode is ExecMode.BATCH:
            ctx.plan.record("shared", int(content_hash), content_id)
            return True
        return self._append_shared(ctx, content_hash, content_id, 1.0)

    def collective_command_batch(self, batch: CollectiveBatch) -> list[Any]:
        """:meth:`collective_command` for a shard's rows at once: the same
        appends in row order, the same charge per row."""
        hashes = batch.hashes
        cids = batch.content_ids().tolist()
        contexts = batch.contexts
        if batch.mode is ExecMode.BATCH:
            for node, h, cid in zip(batch.nodes.tolist(), hashes, cids):
                contexts[node].plan.record("shared", h, cid)
            return [True] * len(hashes)
        offsets = self.store.shared.extend(hashes, cids)
        batch.charge_per_block(self._block_append_cost(batch.cost))
        if self.pfs is not None:
            _client, server = self.pfs.append_costs(self.store.page_size)
            batch.charge_shared(server * batch.n_represented)
        nodes, counts = np.unique(batch.nodes, return_counts=True)
        for node, n in zip(nodes.tolist(), counts.tolist()):
            contexts[node].state.shared_appends += n
        return offsets

    def collective_finalize(self, ctx: NodeContext, role: EntityRole,
                            entity: Entity) -> None:
        if ctx.mode is ExecMode.BATCH and len(ctx.plan):
            # Execute the shared-file part of the plan as one bulk append;
            # the node's other entities then find the plan empty.
            ctx.plan.execute({"shared": lambda h, cid: self._append_shared(
                ctx, h, cid, 1.0 / 16)})
            ctx.plan.clear()

    # -- local phase: per-SE checkpoint files ---------------------------------------------

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: dict[int, Any]) -> None:
        eid = entity.entity_id
        hash_list = hashes.tolist()
        if ctx.mode is ExecMode.BATCH:
            for idx, (h, is_covered) in enumerate(zip(hash_list,
                                                      covered.tolist())):
                if is_covered:
                    ctx.plan.record("ptr", eid, idx, h)
                else:
                    ctx.plan.record("data", eid, idx, h,
                                    entity.read_block_id(idx))
            return
        # A covered block's private is its shared-file offset, or — from an
        # incremental checkpoint's base — a (_BASE_TAG, offset) pair,
        # recorded as a base pointer.
        self.store.se_file(eid).records.extend([
            ("data", idx, h, cid) if p is None
            else ("bptr", idx, h, p[1]) if type(p) is tuple
            else ("ptr", idx, h, int(p))
            for idx, (h, cid, p) in enumerate(zip(
                hash_list, entity.block_ids().tolist(),
                map(handled_map.get, hash_list)))])
        st: _CkptNodeState = ctx.state
        c = ctx.cost
        n_cov = int(covered.sum())
        n_data = len(hashes) - n_cov
        st.pointer_records += n_cov
        st.data_records += n_data
        ctx.charge_per_block(c.file_append_base / 8
                             + _PTR_RECORD_BYTES * c.file_append_per_byte, n_cov)
        self._charge_block_append(ctx, n_blocks=n_data)

    def local_finalize(self, ctx: NodeContext, entity: Entity) -> None:
        if ctx.mode is not ExecMode.BATCH or ctx.plan.executed:
            return
        st: _CkptNodeState = ctx.state
        c = ctx.cost
        store = self.store
        amortize = 1.0 / 16
        if self.refine_plan:
            # Plan refinement: sequential per-file write order -> deeper
            # append coalescing.
            ctx.plan.reorder(key=lambda op: op.args[:2])  # (entity, page)
            amortize = 1.0 / 64

        def data(eid: int, idx: int, h: int, cid: int,
                 amortize: float = amortize) -> None:
            store.se_file(eid).add_data(idx, h, cid)
            st.data_records += 1
            self._charge_block_append(ctx, amortize)

        def ptr(eid: int, idx: int, h: int) -> None:
            offset = store.shared.offset_of(h)
            if offset is None:
                # Plan said covered but the shared block never landed;
                # fall back to literal content (correctness first).
                data(eid, idx, h, ctx.cluster.entity(eid).read_block_id(idx),
                     1.0 / 16)
                return
            store.se_file(eid).add_pointer(idx, h, offset)
            st.pointer_records += 1
            ctx.charge_per_block(c.file_append_base * amortize / 4
                                 + _PTR_RECORD_BYTES * c.file_append_per_byte)

        ctx.plan.execute({"ptr": ptr, "data": data})

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
            f = store.se_file(eid)
            hashes = entity.content_hashes()
            for idx, (h, cid) in enumerate(zip(hashes.tolist(),
                                               entity.block_ids().tolist())):
                f.add_data(idx, int(h), int(cid))
            nbytes = entity.memory_bytes * n_represented
            t = (entity.n_blocks * n_represented * (c.file_append_base / 64)
                 + nbytes * (c.file_append_per_byte + c.memcpy_per_byte))
            if gzip:
                t += nbytes * c.gzip_per_byte
            node = entity.node_id
            per_node_time[node] = per_node_time.get(node, 0.0) + t
        wall = max(per_node_time.values(), default=0.0) + c.barrier_time(
            cluster.n_nodes)
        return store, wall
