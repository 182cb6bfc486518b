"""Columnar mmap segment storage: one ShardColumns-layout file per shard.

The one durable shard form (docs/STORAGE.md).  A segment file is
``[hashes | masks | extra hashes | extra entities | extra counts]``,
little-endian uint64: the packed columns (``n_rows`` each), then the
extra-copy overflow as three columns of ``n_extra`` entries.  Its
``2 * n_rows`` prefix is byte-for-byte the worker-export format, so the
*same* file serves two masters: the table's live columns are read-only
``np.memmap`` views of it (dataset bounded by disk, hot rows by page
cache), and :meth:`~repro.dht.table.LocalDHT.export_columns` can hand
its path straight to ShardPool workers — publishing a shard to the pool
costs zero copies and zero writes.

Commits are atomic at file granularity: the new segment is written to a
temp name, fsynced, renamed to a fresh generation name, and only then
referenced from the (also atomically replaced) meta JSON; a crash
mid-commit leaves the previous generation fully intact.  The meta file
holds the generation, both column lengths, the segment's name, the wide
spill (tiny by construction), the counters and the epoch.  A root whose
meta or segment does not match that layout — written by an earlier
version, truncated, or missing a file — loads as nothing: the shard
cold-starts (a durable shard is only a warm-restart accelerator).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.dht.storage.base import StorageState

__all__ = ["MmapSegmentStorage"]

_U64 = np.uint64


def _map(path: Path, words: int) -> np.ndarray:
    """Read-only map of a segment's first ``words`` u64 as a plain
    ndarray (the ``np.memmap`` stays alive as its base): the live
    columns then skip memmap's Python-level wrapping on every op."""
    return np.memmap(path, dtype=_U64, mode="r",
                     shape=(words,)).view(np.ndarray)


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
        self._stale: list[Path] = []    # left by a root load() rejected

    def _seg_path(self, gen: int) -> Path:
        return self.root / f"shard{self.node_id}.{gen}.seg"

    def load(self) -> StorageState | None:
        """Read the last committed state, or None if nothing usable is
        stored (no meta, or a meta and segment that disagree with the
        layout).  ``ph``/``pm`` are read-only maps; the table
        copy-on-writes them before any in-place mutation.

        Nothing is deleted here: a rejected root's segment files are
        only remembered, and the next commit unlinks them."""
        try:
            meta = json.loads(self._meta_path.read_text())
            gen, n, x, n_hashes, n_copies, epoch = (int(meta[k]) for k in (
                "gen", "n_rows", "n_extra", "n_hashes", "n_copies", "epoch"))
            wide = {int(h): int(m) for h, m in meta["wide"]}
            seg = None if meta["seg"] is None else self.root / meta["seg"]
            size = 0 if seg is None else os.path.getsize(seg)
        except (OSError, ValueError, KeyError, TypeError):
            return self._reject()
        if min(n, x) < 0 or size != 8 * (2 * n + 3 * x):
            return self._reject()
        self._gen, self._seg, self._rows = gen, seg, n
        self._stale = []
        ph = pm = np.empty(0, dtype=_U64)
        extra: dict[int, dict[int, int]] = {}
        if size:
            buf = _map(seg, 2 * n + 3 * x)
            ph, pm = buf[:n], buf[n:2 * n]
            for h, e, c in zip(*buf[2 * n:].reshape(3, x).tolist()):
                extra.setdefault(h, {})[e] = c
        return StorageState(ph=ph, pm=pm, wide=wide, extra=extra,
                            n_hashes=n_hashes, n_copies=n_copies, epoch=epoch)

    def _reject(self) -> None:
        """:meth:`load` found nothing usable: no meta references any
        segment file of this shard now, so each is left for the next
        commit to unlink (an earlier version's full-size segment, a
        truncated one, one a crash left before its meta was written)."""
        self._stale = list(self.root.glob(f"shard{self.node_id}.*.seg"))
        return None

    def commit(self, state: StorageState) -> tuple[np.ndarray, np.ndarray]:
        """Persist a snapshot; returns the (ph, pm) views the table
        adopts as its live columns — read-only maps of the just-written
        bytes.  The generation advances only once the meta file names
        it, so a commit that fails part-way is retried under the same
        generation and its unreferenced segment is overwritten."""
        n = len(state.ph)
        rows = [(h, e, c) for h, ex in state.extra.items()
                for e, c in ex.items()]
        x = len(rows)
        old_seg = self._seg
        gen = self._gen + 1
        if n or x:
            buf = np.empty(2 * n + 3 * x, dtype=_U64)
            buf[:n] = state.ph
            buf[n:2 * n] = state.pm
            if x:
                buf[2 * n:].reshape(3, x)[...] = np.array(rows, dtype=_U64).T
            seg = self._seg_path(gen)
            _fsync_write(seg, buf.tobytes())
        else:
            seg = None
        meta = {
            "gen": gen, "n_rows": n, "n_extra": x,
            "seg": seg.name if seg is not None else None,
            "wide": [[int(h), int(m)] for h, m in state.wide.items()],
            "n_hashes": int(state.n_hashes),
            "n_copies": int(state.n_copies),
            "epoch": int(state.epoch),
        }
        _fsync_write(self._meta_path,
                     json.dumps(meta, separators=(",", ":")).encode())
        self._gen = gen
        self._seg = seg
        self._rows = n
        for p in [old_seg, *self._stale]:
            if p is not None and p != seg:
                try:
                    os.unlink(p)
                except OSError:
                    pass
        self._stale = []
        if not n:
            return (np.empty(0, dtype=_U64), np.empty(0, dtype=_U64))
        mm = _map(seg, 2 * n)
        return mm[:n], mm[n:]

    def clear(self) -> None:
        """Discard the durable state (wholesale logical wipe)."""
        self._seg = None
        self._rows = 0
        self._gen = 0
        self._stale = []
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
    def generation(self) -> int:
        """Number of the last commit this instance made or loaded (0:
        none yet); it advances by one per completed commit."""
        return self._gen

    @property
    def committed_rows(self) -> int:
        """Row count of the current segment (export sanity check)."""
        return self._rows
