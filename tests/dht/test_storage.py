"""Backend-conformance suite for the pluggable ShardStorage backends.

Every backend in :data:`repro.dht.storage.BACKENDS` must satisfy the
same contract (docs/STORAGE.md): commit/load round-trips the complete
columnar state (packed columns, wide spill, extra-copy overflow,
counters, epoch), ``clear`` is a logical wipe, ``crash`` loses only RAM,
and a LocalDHT driven through any backend is byte-identical to one on
any other.
"""

import numpy as np
import pytest

from repro.dht.storage import (
    BACKENDS,
    MemoryStorage,
    MmapSegmentStorage,
    SqliteWalStorage,
    StorageConfig,
    StorageState,
    open_storage,
)
from repro.dht.table import LocalDHT

PERSISTENT = tuple(b for b in BACKENDS if b != "memory")


def make_storage(backend, root, node=0):
    if backend == "memory":
        return MemoryStorage(node)
    if backend == "mmap":
        return MmapSegmentStorage(root, node)
    return SqliteWalStorage(root, node)


def sample_state(epoch=7):
    return StorageState(
        ph=np.array([3, 9, 20, 77], dtype=np.uint64),
        pm=np.array([1, 3, 1 << 63, 5], dtype=np.uint64),
        wide={9: 0b101},                  # holders at entities 64 and 66
        extra={20: {0: 2}},               # entity 0 holds 3 copies of 20
        n_hashes=4, n_copies=11, epoch=epoch)


def assert_states_equal(a: StorageState, b: StorageState) -> None:
    assert np.array_equal(a.ph, b.ph)
    assert np.array_equal(a.pm, b.pm)
    assert a.wide == b.wide
    assert a.extra == b.extra
    assert (a.n_hashes, a.n_copies, a.epoch) == \
        (b.n_hashes, b.n_copies, b.epoch)


def shard_state(t: LocalDHT):
    """Byte-comparable state (the props-suite comparator)."""
    hs, lo, wide = t.se_scan((1 << 80) - 1)
    return (hs.tolist(), lo.tolist(), wide, dict(t.extra_items()),
            t.n_hashes, t.n_copies)


class TestStorageConfig:
    def test_defaults(self, monkeypatch):
        # The built-in defaults, with the env overrides out of the way
        # (tier-2 CI runs this suite under CONCORD_STORAGE=sqlite).
        monkeypatch.delenv("CONCORD_STORAGE", raising=False)
        monkeypatch.delenv("CONCORD_STORAGE_DIR", raising=False)
        cfg = StorageConfig()
        assert cfg.backend == "memory"
        assert cfg.root is None
        assert cfg.persistent is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            StorageConfig(backend="bogus")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CONCORD_STORAGE", "sqlite")
        assert StorageConfig().backend == "sqlite"
        monkeypatch.setenv("CONCORD_STORAGE", "nonsense")
        with pytest.raises(ValueError,
                           match="CONCORD_STORAGE.*memory, mmap, sqlite"):
            StorageConfig()
        monkeypatch.setenv("CONCORD_STORAGE", " MMAP ")
        assert StorageConfig().backend == "mmap"
        monkeypatch.setenv("CONCORD_STORAGE_DIR", "/tmp/somewhere")
        assert StorageConfig().root == "/tmp/somewhere"

    def test_persistent_property(self):
        for backend in PERSISTENT:
            assert StorageConfig(backend=backend).persistent is True


class TestBackendContract:
    """The raw ShardStorage contract, per backend."""

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_commit_load_roundtrip_across_instances(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        st.commit(sample_state())
        st.close()
        reopened = make_storage(backend, tmp_path)
        loaded = reopened.load()
        assert loaded is not None
        assert_states_equal(loaded, sample_state())
        reopened.close()

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_last_commit_wins(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        st.commit(sample_state(epoch=1))
        newer = sample_state(epoch=2)
        newer.ph = np.array([42], dtype=np.uint64)
        newer.pm = np.array([1], dtype=np.uint64)
        newer.wide = {}
        newer.extra = {}
        newer.n_hashes, newer.n_copies = 1, 1
        st.commit(newer)
        st.close()
        loaded = make_storage(backend, tmp_path).load()
        assert loaded.ph.tolist() == [42] and loaded.epoch == 2

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_clear_is_a_wipe(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        st.commit(sample_state())
        st.clear()
        st.close()
        assert make_storage(backend, tmp_path).load() is None

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_empty_commit_roundtrips(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        empty = StorageState(ph=np.empty(0, dtype=np.uint64),
                             pm=np.empty(0, dtype=np.uint64),
                             wide={}, extra={}, n_hashes=0, n_copies=0,
                             epoch=3)
        st.commit(empty)
        st.close()
        loaded = make_storage(backend, tmp_path).load()
        assert loaded is not None
        assert len(loaded.ph) == 0 and loaded.epoch == 3

    def test_memory_backend_has_no_durable_form(self):
        st = MemoryStorage(0)
        assert st.persistent is False
        state = sample_state()
        ph, pm = st.commit(state)
        assert ph is state.ph and pm is state.pm  # identity, zero cost
        assert st.load() is None                  # restarts start cold
        st.clear()
        st.close()

    def test_mmap_segment_path_is_the_export_format(self, tmp_path):
        st = MmapSegmentStorage(tmp_path, 0)
        assert st.segment_path() is None
        state = sample_state()
        st.commit(state)
        path = st.segment_path()
        assert path is not None
        raw = np.fromfile(path, dtype=np.uint64)
        n = len(state.ph)
        assert raw[:n].tolist() == state.ph.tolist()    # [hashes | masks]
        assert raw[n:].tolist() == state.pm.tolist()

    def test_mmap_commit_is_atomic_per_generation(self, tmp_path):
        st = MmapSegmentStorage(tmp_path, 0)
        st.commit(sample_state(epoch=1))
        first = st.segment_path()
        st.commit(sample_state(epoch=2))
        second = st.segment_path()
        assert first != second          # fresh generation, atomic rename
        import os
        assert not os.path.exists(first)  # old generation reaped

    def test_sqlite_shards_share_one_database(self, tmp_path):
        a = SqliteWalStorage(tmp_path, 0)
        b = SqliteWalStorage(tmp_path, 1)
        assert a._db is b._db
        a.commit(sample_state(epoch=1))
        sb = sample_state(epoch=5)
        b.commit(sb)
        assert a.load().epoch == 1       # rows are independent
        assert b.load().epoch == 5
        a.close()
        b.load()                         # refcount keeps the db open
        b.close()


    def test_sqlite_database_leaves_the_registry_on_last_close(
            self, tmp_path, monkeypatch):
        """The registry is keyed on the resolved path; a relative (or
        symlinked) root must be released under that same key."""
        from repro.dht.storage.sqlitewal import _DATABASES

        monkeypatch.chdir(tmp_path)
        before = set(_DATABASES)
        a = SqliteWalStorage("rel", 0)
        b = SqliteWalStorage("rel", 1)
        (key,) = set(_DATABASES) - before
        a.close()
        assert key in _DATABASES            # b still holds it
        b.close()
        assert set(_DATABASES) == before

    def test_side_table_metadata_bytes_are_pinned(self, tmp_path):
        """Both persistent backends write the one shared encoding; files
        committed by earlier versions must keep loading, so the text is
        pinned, key order included."""
        side = ('"wide":[[9,5]],"extra":[[20,[[0,2]]]],'
                '"n_hashes":4,"n_copies":11,"epoch":7}')
        mm = MmapSegmentStorage(tmp_path, 0)
        mm.commit(sample_state())
        assert (tmp_path / "shard0.meta.json").read_text() == (
            '{"gen":1,"n_rows":4,"seg":"shard0.1.seg",' + side)
        sq = SqliteWalStorage(tmp_path, 0)
        sq.commit(sample_state())
        (meta,) = sq._conn().execute("SELECT meta FROM shards").fetchone()
        sq.close()
        assert meta == "{" + side


class TestLocalDHTOnBackends:
    """Table-level semantics: flush/crash/recover/clear, per backend."""

    def populate(self, t: LocalDHT) -> None:
        rng = np.random.default_rng(11)
        hashes = rng.integers(1, 1 << 48, 300, dtype=np.uint64)
        t.bulk_insert(hashes, rng.integers(0, 4, 300))
        t.insert(123456, 70)             # wide spill (entity >= 64)
        t.insert(int(hashes[0]), int(rng.integers(0, 4)))  # extra copy

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_crash_then_recover_restores_flushed_state(self, backend,
                                                       tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.epoch = 9
        t.flush()
        want = shard_state(t)
        t.crash()
        assert t.n_hashes == 0           # RAM gone
        assert t.recover() is True
        assert shard_state(t) == want    # storage kept the last commit
        assert t.epoch == 9
        store.close()

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_unflushed_overlay_is_lost_on_crash(self, backend, tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.flush()
        want = shard_state(t)
        t.insert(999_999, 2)             # point update: overlay only
        t.crash()
        t.recover()
        assert shard_state(t) == want    # the overlay update is gone
        store.close()

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_clear_wipes_storage_too(self, backend, tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.flush()
        t.clear()
        assert t.recover() is False      # nothing committed anymore
        assert t.n_hashes == 0
        store.close()

    def test_memory_backend_cannot_recover(self):
        store = open_storage(StorageConfig(backend="memory"), 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.flush()
        t.crash()
        assert t.recover() is False
        store.close()

    def test_fresh_table_on_populated_root_recovers_at_init(self, tmp_path):
        cfg = StorageConfig(backend="sqlite", root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.flush()
        want = shard_state(t)
        store.close()
        store2 = open_storage(cfg, 1)
        t2 = LocalDHT(0, storage=store2.shards[0])
        assert t2.recovered is True      # warm restart: loaded at init
        assert shard_state(t2) == want
        store2.close()

    def test_same_ops_identical_across_all_backends(self, tmp_path):
        tables = []
        stores = []
        for backend in BACKENDS:
            cfg = StorageConfig(backend=backend, root=str(tmp_path / backend))
            store = open_storage(cfg, 1)
            stores.append(store)
            tables.append(LocalDHT(0, storage=store.shards[0]))
        rng = np.random.default_rng(5)
        hashes = rng.integers(1, 1 << 40, 500, dtype=np.uint64)
        eids = rng.integers(0, 8, 500)
        for t in tables:
            t.bulk_insert(hashes, eids)
            t.bulk_remove(hashes[:100], eids[:100])
            t.insert(42, 65)             # wide path
            t.flush()
        want = shard_state(tables[0])
        for t in tables[1:]:
            assert shard_state(t) == want
        for s in stores:
            s.close()

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_export_columns_shares_the_committed_segment(self, backend,
                                                         tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        self.populate(t)
        t.flush()
        view = t.export_columns()
        if backend == "mmap":
            # Zero-copy: the export IS the storage's current segment.
            assert view.shared is True
            assert view.path == store.shards[0].segment_path()
        attached = view.attach()
        assert shard_state(attached) == shard_state(t)
        store.close()

    def test_storage_set_ephemeral_root_removed_on_close(self):
        cfg = StorageConfig(backend="mmap", root=None)
        store = open_storage(cfg, 2)
        assert store.ephemeral is True
        root = store.root
        import os
        assert os.path.isdir(root)
        store.close()
        assert not os.path.exists(root)
