"""Columnar mmap segment storage: one ShardColumns-layout file per shard.

The one durable shard form (docs/STORAGE.md).  The segment file is
byte-for-byte the worker-export format (``[hashes | masks]``,
``2 * n_rows`` little-endian uint64), so the *same* file serves two
masters: the table's live columns are read-only ``np.memmap`` views of
it (dataset bounded by disk, hot rows by page cache), and
:meth:`~repro.dht.table.LocalDHT.export_columns` can hand its path
straight to ShardPool workers — publishing a shard to the pool costs
zero copies and zero writes.

Commits are atomic at file granularity: the new segment is written to a
temp name, fsynced, renamed to a fresh generation name, and only then
referenced from the (also atomically replaced) meta JSON; a crash
mid-commit leaves the previous generation fully intact.  The sparse
side tables (wide spill, extra-copy overflow, counters, epoch) ride in
the meta file — they are tiny by construction.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.dht.storage.base import StorageState

__all__ = ["MmapSegmentStorage"]

_U64 = np.uint64


def _side_tables_to_json(state: StorageState) -> dict:
    """The meta file's encoding of everything in ``state`` but the
    columns (pinned: files committed by earlier versions must load)."""
    return {
        "wide": [[int(h), int(m)] for h, m in state.wide.items()],
        "extra": [[int(h), [[int(e), int(c)] for e, c in ex.items()]]
                  for h, ex in state.extra.items()],
        "n_hashes": int(state.n_hashes),
        "n_copies": int(state.n_copies),
        "epoch": int(state.epoch),
    }


def _state_from_json(ph: np.ndarray, pm: np.ndarray,
                     meta: dict) -> StorageState:
    """Inverse of :func:`_side_tables_to_json` around loaded columns."""
    return StorageState(
        ph=ph, pm=pm,
        wide={int(h): int(m) for h, m in meta["wide"]},
        extra={int(h): {int(e): int(c) for e, c in ex}
               for h, ex in meta["extra"]},
        n_hashes=int(meta["n_hashes"]), n_copies=int(meta["n_copies"]),
        epoch=int(meta.get("epoch", 0)))


def _fsync_write(path: Path, data: bytes) -> None:
    """Write bytes to a temp sibling, fsync, and atomically replace."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class MmapSegmentStorage:
    """Durable home of one shard's columns: its segment files under one
    root directory shared with the other shards."""

    def __init__(self, root: str | Path, node_id: int) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self._meta_path = self.root / f"shard{node_id}.meta.json"
        self._gen = 0
        self._seg: Path | None = None   # current committed segment
        self._rows = 0

    def _seg_path(self, gen: int) -> Path:
        return self.root / f"shard{self.node_id}.{gen}.seg"

    def load(self) -> StorageState | None:
        """Read the last committed state, or None if nothing is stored.
        ``ph``/``pm`` are read-only maps; the table copy-on-writes them
        before any in-place mutation."""
        try:
            meta = json.loads(self._meta_path.read_text())
        except (OSError, ValueError):
            return None
        self._gen = int(meta["gen"])
        n = int(meta["n_rows"])
        self._rows = n
        if meta["seg"] is not None:
            self._seg = self.root / meta["seg"]
            buf = np.memmap(self._seg, dtype=_U64, mode="r", shape=(2 * n,))
            ph, pm = buf[:n], buf[n:]
        else:
            self._seg = None
            ph = np.empty(0, dtype=_U64)
            pm = np.empty(0, dtype=_U64)
        return _state_from_json(ph, pm, meta)

    def commit(self, state: StorageState) -> tuple[np.ndarray, np.ndarray]:
        """Persist a snapshot; returns the (ph, pm) views the table
        adopts as its live columns — read-only maps of the just-written
        bytes.  The generation advances only once the meta file names
        it, so a commit that fails part-way is retried under the same
        generation and its unreferenced segment is overwritten."""
        n = len(state.ph)
        old_seg = self._seg
        gen = self._gen + 1
        if n:
            buf = np.empty(2 * n, dtype=_U64)
            buf[:n] = state.ph
            buf[n:] = state.pm
            seg = self._seg_path(gen)
            _fsync_write(seg, buf.tobytes())
        else:
            seg = None
        meta = {
            "gen": gen, "n_rows": n,
            "seg": seg.name if seg is not None else None,
            **_side_tables_to_json(state),
        }
        _fsync_write(self._meta_path,
                     json.dumps(meta, separators=(",", ":")).encode())
        self._gen = gen
        self._seg = seg
        self._rows = n
        if old_seg is not None and old_seg != seg:
            try:
                os.unlink(old_seg)
            except OSError:
                pass
        if seg is None:
            return (np.empty(0, dtype=_U64), np.empty(0, dtype=_U64))
        mm = np.memmap(seg, dtype=_U64, mode="r", shape=(2 * n,))
        return mm[:n], mm[n:]

    def clear(self) -> None:
        """Discard the durable state (wholesale logical wipe)."""
        self._seg = None
        self._rows = 0
        self._gen = 0
        try:
            os.unlink(self._meta_path)
        except OSError:
            pass
        for p in self.root.glob(f"shard{self.node_id}.*.seg"):
            try:
                os.unlink(p)
            except OSError:
                pass

    def segment_path(self) -> str | None:
        """Path of the current segment (the zero-copy worker export),
        None before the first non-empty commit."""
        return str(self._seg) if self._seg is not None else None

    @property
    def committed_rows(self) -> int:
        """Row count of the current segment (export sanity check)."""
        return self._rows
