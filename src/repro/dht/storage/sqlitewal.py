"""Single-file SQLite WAL backend: every shard a row, commits ACID.

The crash-safe option of the backend matrix (docs/STORAGE.md): each
commit is a real transaction against one WAL-mode database file, so a
``kill -9`` mid-commit rolls back to the previous committed state
rather than tearing it — the property the warm-restart CI smoke leans
on.  All shards of one engine share a single connection (SQLite WAL
supports one writer; the engine is single-threaded, so contention is
structural, not temporal).

Columns are stored as raw little-endian uint64 blobs — the same bytes
as the mmap segment layout, just inside the database — and the sparse
side tables as the same JSON shape the mmap meta file uses.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import numpy as np

from repro.dht.storage.base import (ShardStorage, StorageState,
                                    side_tables_to_json, state_from_json)

__all__ = ["SqliteWalStorage"]

_U64 = np.uint64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS shards (
    node     INTEGER PRIMARY KEY,
    ph       BLOB NOT NULL,
    pm       BLOB NOT NULL,
    meta     TEXT NOT NULL
)
"""


class _Database:
    """One shared connection per database file, refcounted across the
    per-shard storage handles that use it."""

    def __init__(self, path: Path, key: str) -> None:
        self.key = key      # this object's slot in _DATABASES
        self.conn = sqlite3.connect(path)
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.execute("PRAGMA busy_timeout=10000")
        with self.conn:
            self.conn.execute(_SCHEMA)
        self.refs = 0

    def release(self) -> None:
        self.refs -= 1
        if self.refs <= 0:
            self.conn.close()
            _DATABASES.pop(self.key, None)


_DATABASES: dict[str, _Database] = {}


def _open_database(path: Path) -> _Database:
    key = str(path.resolve())
    db = _DATABASES.get(key)
    if db is None or db.refs <= 0:
        db = _Database(path, key)
        _DATABASES[key] = db
    db.refs += 1
    return db


class SqliteWalStorage(ShardStorage):
    """One shard's row in a shared WAL-mode SQLite file."""

    persistent = True

    def __init__(self, root: str | Path, node_id: int,
                 filename: str = "concord.sqlite") -> None:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self._db: _Database | None = _open_database(root / filename)

    def _conn(self) -> sqlite3.Connection:
        if self._db is None:
            raise RuntimeError("storage is closed")
        return self._db.conn

    def load(self) -> StorageState | None:
        row = self._conn().execute(
            "SELECT ph, pm, meta FROM shards WHERE node = ?",
            (self.node_id,)).fetchone()
        if row is None:
            return None
        ph_blob, pm_blob, meta_text = row
        meta = json.loads(meta_text)
        # frombuffer views are read-only; the table copy-on-writes them.
        ph = np.frombuffer(ph_blob, dtype=_U64)
        pm = np.frombuffer(pm_blob, dtype=_U64)
        return state_from_json(ph, pm, meta)

    def commit(self, state: StorageState) -> tuple[np.ndarray, np.ndarray]:
        meta = json.dumps(side_tables_to_json(state), separators=(",", ":"))
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO shards (node, ph, pm, meta) "
                "VALUES (?, ?, ?, ?)",
                (self.node_id,
                 np.ascontiguousarray(state.ph, dtype=_U64).tobytes(),
                 np.ascontiguousarray(state.pm, dtype=_U64).tobytes(),
                 meta))
        return state.ph, state.pm

    def clear(self) -> None:
        conn = self._conn()
        with conn:
            conn.execute("DELETE FROM shards WHERE node = ?",
                         (self.node_id,))

    def close(self) -> None:
        if self._db is not None:
            self._db.release()
            self._db = None
