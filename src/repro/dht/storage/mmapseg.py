"""Columnar mmap segment storage: one generation file per shard commit.

The one durable shard form (docs/STORAGE.md).  A commit writes the
shard's :class:`~repro.dht.generation.Generation` through its segment
codec — ``[hashes | masks | extra hashes | extra entities | extra
counts]``, little-endian uint64 — and returns it mapped back read-only,
so the table's live columns are maps of the file (dataset bounded by
disk, hot rows by page cache).

Commits are atomic at file granularity: the new segment is written to a
temp name, fsynced, renamed to a fresh generation name, and only then
referenced from the (also atomically replaced) meta JSON; a crash
mid-commit leaves the previous generation fully intact.  The meta file
holds the generation number, both column lengths, the segment's name,
the wide spill (tiny by construction), the counters and the epoch.  A
root whose meta or segment does not match that layout — written by an
earlier version, truncated, or missing a file — loads as nothing: the
shard cold-starts (a durable shard is only a warm-restart accelerator).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.dht.generation import Generation, atomic_write

__all__ = ["MmapSegmentStorage"]


class MmapSegmentStorage:
    """Durable home of one shard's generations: its segment files under
    one root directory shared with the other shards."""

    def __init__(self, root: str | Path, node_id: int) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self._meta_path = self.root / f"shard{node_id}.meta.json"
        self._gen = 0
        self._seg: Path | None = None   # current committed segment
        self._stale: list[Path] = []    # left by a root load() rejected

    def load(self) -> Generation | None:
        """The last committed generation, file-backed, or None if nothing
        usable is stored (no meta, or a meta and segment that disagree
        with the layout).

        Nothing is deleted here: a rejected root's segment files are
        only remembered, and the next commit unlinks them."""
        try:
            meta = json.loads(self._meta_path.read_text())
            gen, n, x, n_hashes, n_copies, epoch = (int(meta[k]) for k in (
                "gen", "n_rows", "n_extra", "n_hashes", "n_copies", "epoch"))
            wide = {int(h): int(m) for h, m in meta["wide"]}
            seg = None if meta["seg"] is None else self.root / meta["seg"]
            loaded = Generation.load(seg, n, x, wide, n_hashes, n_copies,
                                     epoch)
        except (OSError, ValueError, KeyError, TypeError):
            return self._reject()
        self._gen, self._seg = gen, seg
        self._stale = []
        return loaded

    def _reject(self) -> None:
        """:meth:`load` found nothing usable: no meta references any
        segment file of this shard now, so each is left for the next
        commit to unlink (an earlier version's full-size segment, a
        truncated one, one a crash left before its meta was written)."""
        self._stale = list(self.root.glob(f"shard{self.node_id}.*.seg"))
        return None

    def commit(self, state: Generation) -> Generation:
        """Persist a generation; returns it mapped back read-only from
        the just-written segment.  The generation number advances only
        once the meta file names it, so a commit that fails part-way is
        retried under the same number and its unreferenced segment is
        overwritten."""
        gen = self._gen + 1
        saved = state.save(self.root / f"shard{self.node_id}.{gen}.seg")
        seg = None if saved.path is None else Path(saved.path)
        meta = {
            "gen": gen, "n_rows": len(state.ph),
            "n_extra": len(state.extra[0]),
            "seg": seg.name if seg is not None else None,
            "wide": [[int(h), int(m)] for h, m in state.wide.items()],
            "n_hashes": int(state.n_hashes),
            "n_copies": int(state.n_copies),
            "epoch": int(state.epoch),
        }
        atomic_write(self._meta_path,
                     json.dumps(meta, separators=(",", ":")).encode())
        old_seg = self._seg
        self._gen = gen
        self._seg = seg
        for p in [old_seg, *self._stale]:
            if p is not None and p != seg:
                try:
                    os.unlink(p)
                except OSError:
                    pass
        self._stale = []
        return saved

    def clear(self) -> None:
        """Discard the durable state (wholesale logical wipe)."""
        self._seg = None
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

    @property
    def generation(self) -> int:
        """Number of the last commit this instance made or loaded (0:
        none yet); it advances by one per completed commit."""
        return self._gen
