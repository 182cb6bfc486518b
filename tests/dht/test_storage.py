"""Conformance suite for shard storage (docs/STORAGE.md).

Every persistent backend in :data:`repro.dht.storage.BACKENDS` (today
``mmap`` alone) must satisfy the same contract: commit/load round-trips
the complete columnar state (packed columns, wide spill, extra-copy
overflow, counters, epoch), ``clear`` is a logical wipe, a commit torn
part-way leaves the previous generation loadable, a damaged file (any
flipped byte, a truncation, a deletion) or an earlier-format root loads
as nothing (cold start), ``crash`` loses only RAM, and a LocalDHT driven
through storage is byte-identical to a RAM-only one.
"""

import os
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.dht.storage import (
    BACKENDS,
    MmapSegmentStorage,
    StorageConfig,
    open_storage,
)
from repro.dht.generation import EMPTY, Generation
from repro.dht.table import LocalDHT
from repro.obs.registry import MetricsRegistry
from tests.conftest import GEN_FILE_REGIONS, flip_byte, gen_file_offset

PERSISTENT = tuple(b for b in BACKENDS if b != "memory")


def make_storage(backend, root, node=0):
    """Shard ``node``'s storage as an engine on ``backend`` opens it."""
    cfg = StorageConfig(backend=backend, root=str(root))
    return open_storage(cfg, node + 1).shards[node]


def sample_state(epoch=7):
    return Generation(
        ph=np.array([3, 9, 20, 77], dtype=np.uint64),
        pm=np.array([1, 3, 1 << 63, 5], dtype=np.uint64),
        wide={9: 0b101},                  # holders at entities 64 and 66
        extra=overflow({20: {0: 2}}),     # entity 0: 3 copies of 20
        n_hashes=4, n_copies=10, epoch=epoch)   # 6 + 2 wide holders + 2


def overflow(extra):
    """An overflow dict (hash -> {entity: extra copies}) as the columns
    a generation holds, sorted by (hash, entity)."""
    flat = sorted((h, e, c) for h, ex in extra.items() for e, c in ex.items())
    return tuple(np.array(col, dtype=dt) for col, dt in zip(
        zip(*flat) if flat else ((), (), ()),
        (np.uint64, np.int64, np.int64)))


def one_row(epoch):
    return replace(sample_state(epoch), ph=np.array([42], dtype=np.uint64),
                   pm=np.array([1], dtype=np.uint64), wide={},
                   extra=overflow({}), n_hashes=1, n_copies=1)


def assert_states_equal(a: Generation, b: Generation) -> None:
    assert np.array_equal(a.ph, b.ph)
    assert np.array_equal(a.pm, b.pm)
    assert a.wide == b.wide
    assert a.overflow() == b.overflow()
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
        # (CI also runs this suite under CONCORD_STORAGE=mmap).
        monkeypatch.delenv("CONCORD_STORAGE", raising=False)
        monkeypatch.delenv("CONCORD_STORAGE_DIR", raising=False)
        cfg = StorageConfig()
        assert cfg.backend == "memory"
        assert cfg.root is None
        assert cfg.persistent is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            StorageConfig(backend="bogus")

    def test_retired_sqlite_backend_rejected(self, monkeypatch):
        """The SQLite backend is gone; naming it fails loudly, listing
        what is left, whether by field or by env var."""
        assert BACKENDS == ("memory", "mmap")
        with pytest.raises(ValueError, match="'sqlite'.*memory, mmap$"):
            StorageConfig(backend="sqlite")
        monkeypatch.setenv("CONCORD_STORAGE", "sqlite")
        with pytest.raises(ValueError,
                           match="CONCORD_STORAGE.*'sqlite'.*memory, mmap"):
            StorageConfig()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CONCORD_STORAGE", "mmap")
        assert StorageConfig().backend == "mmap"
        monkeypatch.setenv("CONCORD_STORAGE", "nonsense")
        with pytest.raises(ValueError,
                           match="CONCORD_STORAGE.*memory, mmap"):
            StorageConfig()
        monkeypatch.setenv("CONCORD_STORAGE", " MMAP ")
        assert StorageConfig().backend == "mmap"
        monkeypatch.setenv("CONCORD_STORAGE_DIR", "/tmp/somewhere")
        assert StorageConfig().root == "/tmp/somewhere"

    def test_persistent_property(self):
        for backend in PERSISTENT:
            assert StorageConfig(backend=backend).persistent is True


class TestBackendContract:
    """The raw storage contract, per persistent backend."""

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_commit_load_roundtrip_across_instances(self, backend, tmp_path):
        make_storage(backend, tmp_path).commit(sample_state())
        loaded = make_storage(backend, tmp_path).load()
        assert loaded is not None
        assert_states_equal(loaded, sample_state())

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_last_commit_wins(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        st.commit(sample_state(epoch=1))
        st.commit(one_row(epoch=2))
        loaded = make_storage(backend, tmp_path).load()
        assert loaded.ph.tolist() == [42] and loaded.epoch == 2

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_clear_is_a_wipe(self, backend, tmp_path):
        st = make_storage(backend, tmp_path)
        st.commit(sample_state())
        st.clear()
        assert make_storage(backend, tmp_path).load() is None

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_empty_commit_roundtrips(self, backend, tmp_path):
        """An empty shard still commits a file: the header carries its
        counters and epoch."""
        st = make_storage(backend, tmp_path)
        committed = st.commit(replace(EMPTY, epoch=3))
        assert committed.path == str(tmp_path / "shard0.gen")
        loaded = make_storage(backend, tmp_path).load()
        assert loaded is not None
        assert len(loaded.ph) == 0 and loaded.epoch == 3

    def test_mmap_segment_path_is_the_export_format(self, tmp_path):
        st = MmapSegmentStorage(tmp_path, 0)
        state = sample_state()
        committed = st.commit(state)
        n = len(state.ph)
        raw = np.fromfile(committed.path, dtype=np.uint64,
                          count=9 + 2 * n + 3)
        # A nine-word header, [hashes | masks], then the overflow
        # columns: the generation's one file codec.
        assert raw[2:8].tolist() == [4, 1, 4, 10, 7, len(b"[[9,5]]")]
        assert raw[9:9 + n].tolist() == state.ph.tolist()
        assert raw[9 + n:9 + 2 * n].tolist() == state.pm.tolist()
        assert raw[9 + 2 * n:].tolist() == [20, 0, 2]  # hashes|entities|counts
        assert_states_equal(committed, state)

    def test_mmap_commit_is_atomic_per_generation(self, tmp_path):
        """Each commit replaces the one file by rename: a reader's map of
        the previous generation keeps reading it, no temp file is left,
        and a fresh reader sees the new one."""
        st = MmapSegmentStorage(tmp_path, 0)
        first = st.commit(sample_state(epoch=1))
        second = st.commit(one_row(epoch=2))
        assert first.path == second.path      # one file per shard
        assert_states_equal(first, sample_state(epoch=1))  # old inode
        assert_states_equal(second, one_row(epoch=2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard0.gen"]
        assert st.generation == 2
        reader = MmapSegmentStorage(tmp_path, 0)
        assert_states_equal(reader.load(), one_row(epoch=2))
        assert reader.generation == 2

    def test_torn_commit_leaves_the_previous_generation(self, tmp_path,
                                                        monkeypatch):
        """A commit that dies after writing its temp file but before the
        rename: the previous generation still loads whole under its
        number, and the retry goes through and leaves no orphan."""
        st = MmapSegmentStorage(tmp_path, 0)
        first = st.commit(sample_state(epoch=1)).path
        newer = one_row(epoch=2)
        real_replace = os.replace

        def rename_fails(src, dst):
            raise OSError("torn before the rename")

        monkeypatch.setattr(os, "replace", rename_fails)
        with pytest.raises(OSError, match="torn"):
            st.commit(newer)
        assert (tmp_path / "shard0.gen.tmp").exists()  # new bytes, unnamed
        for reader in (MmapSegmentStorage(tmp_path, 0), st):
            loaded = reader.load()
            assert_states_equal(loaded, sample_state(epoch=1))
            assert loaded.path == first and reader.generation == 1
        monkeypatch.setattr(os, "replace", real_replace)
        st.commit(newer)
        assert_states_equal(MmapSegmentStorage(tmp_path, 0).load(), newer)
        assert st.generation == 2
        # The retry reused the temp name: nothing is left orphaned.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard0.gen"]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        """``write`` may move fewer bytes than asked (at most ~2 GiB a
        call on Linux): the commit goes on writing, and the file it
        renames into place is whole."""
        real_write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: real_write(fd, data[:40]))
        MmapSegmentStorage(tmp_path, 0).commit(sample_state())
        monkeypatch.setattr(os, "write", real_write)
        assert_states_equal(MmapSegmentStorage(tmp_path, 0).load(),
                            sample_state())

    def test_side_table_metadata_bytes_are_pinned(self, tmp_path):
        """Files committed by other versions cold-start, so a change to
        the header or the wide spill's bytes is a format change: both
        are pinned, the CRC-32 over the rest of the file included."""
        MmapSegmentStorage(tmp_path, 0).commit(sample_state())
        data = (tmp_path / "shard0.gen").read_bytes()
        head = np.frombuffer(data[:72], dtype="<u8").tolist()
        assert data[:8] == b"CCGEN\x00\x00\x01"
        assert head[1:8] == [1, 4, 1, 4, 10, 7, 7]
        assert data[-7:] == b"[[9,5]]"
        assert len(data) == 72 + 8 * (2 * 4 + 3 * 1) + 7
        assert head[8] == zlib.crc32(data[72:], zlib.crc32(data[:64]))
        assert head[8] == 0xEF553C4F


def populate(t: LocalDHT) -> None:
    rng = np.random.default_rng(11)
    hashes = rng.integers(1, 1 << 48, 300, dtype=np.uint64)
    t.bulk_insert(hashes, rng.integers(0, 4, 300))
    t.insert(123456, 70)             # wide spill (entity >= 64)
    t.insert(int(hashes[0]), int(rng.integers(0, 4)))  # extra copy


def test_a_commit_inside_a_scalar_insert_counts_that_insert(tmp_path):
    """The insert that tips the log over the commit threshold is in the
    committed file's counters, as in its columns: a warm restart from
    that commit reports what it holds."""
    store = MmapSegmentStorage(tmp_path, 0)
    t = LocalDHT(0, store)
    t.bulk_insert(np.arange(1, 4096, dtype=np.uint64), 0)
    t.insert(4096, 0)
    assert store.generation == 1
    t.crash()
    assert t.recover()
    assert (t.n_hashes, t.n_copies) == (4096, 4096)
    fresh = LocalDHT(0, MmapSegmentStorage(tmp_path, 0))
    assert fresh.recovered
    assert (fresh.n_hashes, fresh.n_copies) == (4096, 4096)


class TestDamagedRootColdStarts:
    """A shard file that is damaged or in another format loads as
    nothing: the shard cold-starts (``recovered`` False, counted as
    ``storage.recover{rung=cold}`` when a file was there) instead of
    raising at bring-up or answering wrong, and its next commit replaces
    the damage, leaving no other file of the shard behind."""

    def committed_root(self, root):
        """A shard with wide spill and extra copies, flushed twice, so its
        file's commit number is not the one a cold start writes first;
        returns the file's path."""
        store = MmapSegmentStorage(root, 0)
        t = LocalDHT(0, store)
        populate(t)
        t.flush()
        t.insert(123456, 70)             # an extra copy
        t.flush()
        assert t.n_multicopy_entries and t.items_arrays()[2]
        assert store.generation == 2
        path = Path(t.generation().path)
        assert path == root / "shard0.gen"
        return path

    def assert_cold_start(self, root, refused=1):
        reg = MetricsRegistry()
        cfg = StorageConfig(backend="mmap", root=str(root))
        t = LocalDHT(0, open_storage(cfg, 1, reg).shards[0])
        assert t.recovered is False
        assert (t.n_hashes, t.n_copies) == (0, 0)
        assert (reg.value("storage.recover", rung="warm"),
                reg.value("storage.recover", rung="cold")) == (0, refused)
        populate(t)
        t.flush()
        assert sorted(root.glob("shard0.*")) == [root / "shard0.gen"]
        want = shard_state(t)
        again = LocalDHT(0, open_storage(cfg, 1, reg).shards[0])
        assert again.recovered is True
        assert reg.value("storage.recover", rung="warm") == 1
        assert shard_state(again) == want

    def test_truncated_segment(self, tmp_path):
        path = self.committed_root(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        self.assert_cold_start(tmp_path)

    def test_deleted_segment(self, tmp_path):
        self.committed_root(tmp_path).unlink()
        self.assert_cold_start(tmp_path, refused=0)

    @pytest.mark.parametrize("region", GEN_FILE_REGIONS)
    def test_flipped_byte_cold_starts(self, tmp_path, region):
        """One byte inverted in any header word, any column or the wide
        spill: the checksum (or the format word, or the size) refuses
        the file."""
        path = self.committed_root(tmp_path)
        assert Generation.load(path) is not None
        flip_byte(path, gen_file_offset(path, region))
        assert Generation.load(path) is None
        self.assert_cold_start(tmp_path)

    @pytest.mark.parametrize("counter,off_by", [
        ("n_hashes", 1), ("n_copies", 1), ("n_copies", -1)])
    def test_counters_that_disagree_with_the_columns_cold_start(
            self, tmp_path, counter, off_by):
        """A file whose CRC is valid but whose header counter is not what
        its columns hold (``n_hashes`` the row count, ``n_copies`` the
        holder bits plus the overflow counts) is refused."""
        path = self.committed_root(tmp_path)
        good = Generation.load(path)[1]
        wrong = replace(good, **{counter: getattr(good, counter) + off_by})
        wrong.save(path, 3)
        assert Generation.load(path) is None
        good.save(path, 3)
        assert Generation.load(path) is not None
        wrong.save(path, 3)
        self.assert_cold_start(tmp_path)

    def test_earlier_format_cold_starts(self, tmp_path):
        """The two-file layout before one checksummed file: a meta JSON
        naming a ``[hashes | masks | overflow]`` segment, plus the orphan
        segment of an older commit.  Nothing loads, and the first commit
        unlinks both segments and the meta."""
        state = sample_state()
        np.concatenate([state.ph, state.pm, np.array([20, 0, 2], np.uint64)]
                       ).tofile(tmp_path / "shard0.1.seg")
        (tmp_path / "shard0.2.seg").write_bytes(b"\0" * 8)
        (tmp_path / "shard0.meta.json").write_text(
            '{"gen":1,"n_rows":4,"n_extra":1,"seg":"shard0.1.seg",'
            '"wide":[[9,5]],"n_hashes":4,"n_copies":11,"epoch":7}')
        (tmp_path / "shard1.meta.json").write_text("{}")  # another shard's
        self.assert_cold_start(tmp_path, refused=0)
        assert (tmp_path / "shard1.meta.json").exists()

class TestLocalDHTOnBackends:
    """Table-level semantics: flush/crash/recover/clear, per backend."""

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_crash_then_recover_restores_flushed_state(self, backend,
                                                       tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
        t.epoch = 9
        t.flush()
        want = shard_state(t)
        t.crash()
        assert t.n_hashes == 0           # RAM gone
        assert t.recover() is True
        assert shard_state(t) == want    # storage kept the last commit
        assert t.epoch == 9
        store.close()

    def test_flush_of_the_committed_generation_commits_nothing(self,
                                                               tmp_path):
        """A flush commits only what the last commit does not hold: not
        after another flush or a bring-up, but after an overflow-only
        write or an epoch bump."""
        store = MmapSegmentStorage(tmp_path, 0)
        t = LocalDHT(0, store)
        populate(t)
        t.flush()
        assert store.generation == 1
        t.flush()
        assert store.generation == 1          # already committed
        reader = MmapSegmentStorage(tmp_path, 0)
        LocalDHT(0, reader).flush()
        assert reader.generation == 1         # bring-up state is the file
        t.insert(123456, 70)                  # an extra copy only
        t.flush()
        assert store.generation == 2
        t.epoch += 1
        t.flush()
        assert store.generation == 3
        assert MmapSegmentStorage(tmp_path, 0).load().epoch == t.epoch

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_unflushed_overlay_is_lost_on_crash(self, backend, tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
        t.flush()
        want = shard_state(t)
        t.insert(999_999, 2)             # point update: logged only
        t.crash()
        t.recover()
        assert shard_state(t) == want    # the logged update is gone
        store.close()

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_clear_wipes_storage_too(self, backend, tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
        t.flush()
        t.clear()
        assert t.recover() is False      # nothing committed anymore
        assert t.n_hashes == 0
        store.close()

    def test_memory_backend_cannot_recover(self):
        store = open_storage(StorageConfig(backend="memory"), 1)
        assert store.shards == [None] and store.root is None  # RAM-only
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
        t.flush()
        t.crash()
        assert t.recover() is False
        store.close()

    def test_fresh_table_on_populated_root_recovers_at_init(self, tmp_path):
        cfg = StorageConfig(backend="mmap", root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
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
    def test_generation_shares_the_committed_segment(self, backend,
                                                     tmp_path):
        cfg = StorageConfig(backend=backend, root=str(tmp_path))
        store = open_storage(cfg, 1)
        t = LocalDHT(0, storage=store.shards[0])
        populate(t)
        t.flush()
        # Zero-copy: the table's generation IS the storage's last commit.
        gen = t.generation()
        assert gen.path == store.shards[0].load().path
        hs, lo, wide = gen.se_scan((1 << 80) - 1)
        assert (hs.tolist(), lo.tolist(), wide, gen.overflow(),
                gen.n_hashes, gen.n_copies) == shard_state(t)
        store.close()

    def test_storage_set_ephemeral_root_removed_on_close(self):
        cfg = StorageConfig(backend="mmap", root=None)
        store = open_storage(cfg, 2)
        assert store.ephemeral is True
        root = store.root
        assert os.path.isdir(root)
        store.close()
        assert not os.path.exists(root)
