"""Columnar mmap storage: one checksummed generation file per shard.

The one durable shard form (docs/STORAGE.md).  A commit writes the
shard's :class:`~repro.dht.generation.Generation` through its file codec
— a header of little-endian u64 words (format word, commit number,
column lengths, counters, epoch, spill length, CRC-32), the five
columns, the wide spill — as ``shard<i>.gen``, and returns it mapped
back read-only, so the table's live columns are maps of the file
(dataset bounded by disk, hot rows by page cache).

A commit is one write, one fsync and one rename over the previous file:
a crash mid-commit leaves the previous generation whole, and a reader's
map of it stays valid after the rename.  A file whose format word, size
or checksum disagrees — written by an earlier version, truncated, a
flipped byte — loads as nothing: the shard cold-starts (a durable shard
is only a warm-restart accelerator).  The files of the earlier
meta-plus-segment form (``shard<i>.meta.json``, ``shard<i>.*.seg``) are
unlinked by the shard's first commit.
"""

from __future__ import annotations

from pathlib import Path

from repro.dht.generation import Generation

__all__ = ["MmapSegmentStorage"]


class MmapSegmentStorage:
    """Durable home of one shard's generations: its file under one root
    directory shared with the other shards.  ``recoveries`` maps
    ``"warm"``/``"cold"`` to the counters a :meth:`load` that found a
    file increments (loaded / refused)."""

    def __init__(self, root: str | Path, node_id: int,
                 recoveries: dict | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self.path = self.root / f"shard{node_id}.gen"
        self.recoveries = recoveries
        self._gen = 0
        self._swept = False     # earlier-format files unlinked yet

    def load(self) -> Generation | None:
        """The last committed generation, file-backed, or None if nothing
        usable is stored (no file, or one :meth:`Generation.load`
        refuses).  Nothing is deleted here."""
        loaded = Generation.load(self.path)
        if self.recoveries is not None and (loaded or self.path.exists()):
            self.recoveries["warm" if loaded else "cold"].inc()
        if loaded is None:
            return None
        self._gen, gen = loaded
        return gen

    def commit(self, state: Generation) -> Generation:
        """Persist a generation as the next commit number; returns it
        mapped back read-only from the file.  The number advances only
        once the rename lands, so a commit that fails part-way is retried
        under the same number."""
        saved = state.save(self.path, self._gen + 1)
        self._gen += 1
        if not self._swept:
            self._swept = True
            for p in self.root.glob(f"shard{self.node_id}.*"):
                if p.suffix in (".seg", ".json"):
                    p.unlink(missing_ok=True)
        return saved

    def clear(self) -> None:
        """Discard the durable state (wholesale logical wipe)."""
        self._gen = 0
        self.path.unlink(missing_ok=True)

    @property
    def generation(self) -> int:
        """Number of the last commit this instance made or loaded (0:
        none yet); it advances by one per completed commit."""
        return self._gen
