"""ShardPool: shared-memory shard publishing and multi-core fan-out.

The backbone contract (docs/PARALLEL.md): a worker shipped a published
:class:`~repro.dht.generation.Generation` sees exactly the coordinator's
shard, results always come back in shard-index order, and every job run
with ``workers=N`` is byte-identical to the inline ``workers=1`` path.
"""

import os
import pickle

import numpy as np
import pytest

from repro.dht.storage import MmapSegmentStorage
from repro.dht.generation import Generation
from repro.dht.table import LocalDHT
from repro.exec import DEFAULT_MIN_ROWS, ShardPool
from repro.exec import ops


def make_table(node_id: int = 0, size: int = 500, seed: int = 0,
               wide: bool = True, extras: bool = True) -> LocalDHT:
    """A shard with packed rows, a wide (eid >= 64) spill, and extra
    multi-copy entries — every storage shape a generation must carry."""
    rng = np.random.default_rng(seed)
    t = LocalDHT(node_id=node_id)
    keys = rng.integers(0, 2**62, size=size, dtype=np.uint64)
    t.bulk_insert(keys, rng.integers(0, 8, size=size, dtype=np.int64))
    if wide:
        for h in keys[:5].tolist():
            t.insert(h, 70)
    if extras:
        for h in keys[5:10].tolist():
            t.insert(h, 3)
            t.insert(h, 3)  # second copy of the same (hash, entity)
    t.items_arrays()  # compact the delta overlay
    return t


def shipped(gen: Generation) -> Generation:
    """What a worker receives: the generation through pickle."""
    return pickle.loads(pickle.dumps(gen))


def tables_agree(a, b, mask: int = (1 << 80) - 1):
    assert a.n_hashes == b.n_hashes
    assert a.n_copies == b.n_copies
    ha, la, wa = a.se_scan(mask)
    hb, lb, wb = b.se_scan(mask)
    assert np.array_equal(ha, hb)
    assert np.array_equal(la, lb)
    assert wa == wb
    for x, y in zip(a.extra_arrays(), b.extra_arrays()):
        assert x.tolist() == y.tolist()


class TestExportAttach:
    def test_inline_roundtrip(self):
        t = make_table()
        gen = t.generation()
        assert gen.path is None
        tables_agree(t, shipped(gen))

    def test_file_backed_roundtrip(self, tmp_path):
        t = make_table()
        path = str(tmp_path / "shard.seg")
        gen = t.generation().save(path)
        assert gen.path == path
        # 2 u64 per row, 3 per overflow entry (5 hashes hold extras)
        assert os.path.getsize(path) == 8 * (2 * t.n_hashes + 3 * 5)
        tables_agree(t, shipped(gen))

    def test_empty_table_exports_inline(self, tmp_path):
        t = LocalDHT(node_id=3)
        gen = t.generation().save(str(tmp_path / "empty.seg"))
        assert gen.path is None  # no memmap of a zero-byte file
        assert not os.path.exists(tmp_path / "empty.seg")
        got = shipped(gen)
        assert got.n_hashes == 0 and got.n_copies == 0

    def test_attachment_is_read_only_snapshot(self, tmp_path):
        t = make_table()
        gen = shipped(t.generation().save(str(tmp_path / "s.seg")))
        before = gen.se_scan(1)[0].tolist()
        t.insert(12345, 0)  # later coordinator mutation
        t.items_arrays()    # merged into the next generation
        assert t.n_hashes == gen.n_hashes + 1
        assert gen.se_scan(1)[0].tolist() == before  # snapshot unaffected

    def test_worker_sees_overflow_changed_since_the_commit(self, tmp_path):
        """A copy beyond the first changes only the overflow: no merge,
        no commit.  The generation published then is a new one over the
        same columns, and the worker must answer with the new overflow."""
        t = LocalDHT(0, MmapSegmentStorage(tmp_path, 0))
        t.bulk_insert(np.arange(1, 101, dtype=np.uint64), 2)
        t.flush()
        first = t.generation()
        assert first.path is not None
        assert shipped(first).bulk_num_copies([7]).tolist() == [1]
        t.insert(7, 2)                   # no overlay write, no commit
        again = t.generation()
        assert again is not first and again.ph is first.ph
        tables_agree(t, shipped(again))
        assert shipped(again).bulk_num_copies([7]).tolist() == [2]
        assert shipped(first).bulk_num_copies([7]).tolist() == [1]
        with ShardPool(2, min_rows=0) as pool:
            published = pool._publish(t, None)   # saved to the pool's dir
            assert published.path not in (None, first.path)
            assert shipped(published).bulk_num_copies([7]).tolist() == [2]


def n_rows(table):
    return table.n_hashes


class TestMapShards:
    @pytest.fixture()
    def shards(self):
        return [make_table(node_id=i, size=500 + i, seed=i) for i in range(4)]

    def test_serial_matches_parallel(self, shards):
        mask = (1 << 80) - 1
        serial = ShardPool(1)
        with ShardPool(2, min_rows=0) as para:
            try:
                for fn, args in [(ops.se_scan, (mask,)),
                                 (ops.copy_histogram, (mask,)),
                                 (ops.count_at_least, (mask, 2)),
                                 (ops.pairwise_shared, (255,))]:
                    got_s = serial.map_shards(shards, fn, args)
                    got_p = para.map_shards(shards, fn, args)
                    assert len(got_s) == len(got_p) == len(shards)
                    for a, b in zip(got_s, got_p):
                        if isinstance(a, tuple):
                            for x, y in zip(a, b):
                                if isinstance(x, np.ndarray):
                                    assert np.array_equal(x, y)
                                else:
                                    assert x == y
                        else:
                            assert a == b
            finally:
                serial.close()

    def test_results_in_shard_index_order(self, shards):
        with ShardPool(2, min_rows=0) as pool:
            got = pool.map_shards(shards, n_rows)
            assert got == [500, 501, 502, 503]

    def test_reduce_folds_in_shard_order(self, shards):
        # A non-commutative reduce exposes any completion-order gather.
        with ShardPool(2, min_rows=0) as pool:
            got = pool.map_shards(shards, n_rows,
                                  reduce_fn=lambda a, b: a + [b], initial=[])
        assert got == [500, 501, 502, 503]

    def test_shard_filter_and_args_per_shard_align(self, shards):
        pool = ShardPool(1)
        got = pool.map_shards(
            shards, ops.count_at_least,
            args_per_shard=[((1 << 80) - 1, i + 1) for i in range(4)],
            shard_filter=lambda s: s.node_id % 2 == 0)
        want = [ops.count_at_least(shards[0], (1 << 80) - 1, 1),
                ops.count_at_least(shards[2], (1 << 80) - 1, 3)]
        assert got == want

    def test_misaligned_args_rejected(self, shards):
        pool = ShardPool(1)
        with pytest.raises(ValueError, match="align"):
            pool.map_shards(shards, n_rows, args_per_shard=[()])
        with pytest.raises(ValueError, match="align"):
            pool.map_shards(shards, n_rows, versions=[1])

    def test_small_jobs_stay_inline(self, shards):
        with ShardPool(2, min_rows=DEFAULT_MIN_ROWS) as pool:
            got = pool.map_shards(shards, n_rows)  # ~2k rows << min_rows
            assert got == [500, 501, 502, 503]
            assert "procs" not in pool._state  # never spawned

    def test_publish_reuses_segment_on_same_version(self, shards):
        with ShardPool(2, min_rows=0) as pool:
            pool.map_shards(shards, n_rows, versions=[7] * 4)
            first = {n: v.path for n, (_k, v) in pool._published.items()}
            pool.map_shards(shards, n_rows, versions=[7] * 4)
            second = {n: v.path for n, (_k, v) in pool._published.items()}
            assert first == second  # cache hit: no re-export
            pool.map_shards(shards, n_rows,
                            versions=[7, 8, 7, 7])  # shard 1 advanced
            third = {n: v.path for n, (_k, v) in pool._published.items()}
            assert third[1] != second[1]
            assert all(third[n] == second[n] for n in (0, 2, 3))
            assert not os.path.exists(second[1])  # stale segment unlinked

    def test_no_version_never_reuses(self, shards):
        with ShardPool(2, min_rows=0) as pool:
            pool.map_shards(shards, n_rows)
            first = pool._published[0][1].path
            pool.map_shards(shards, n_rows)
            assert pool._published[0][1].path != first


def add(a, b):
    return a + b


class TestRunTasks:
    def test_results_in_task_order(self):
        tasks = [(i, i * 10) for i in range(6)]
        serial = ShardPool(1)
        with ShardPool(2) as para:
            try:
                want = serial.run_tasks(add, tasks)
                got = para.run_tasks(add, tasks, work=10**9)
                assert got == want == [0, 11, 22, 33, 44, 55]
            finally:
                serial.close()

    def test_small_work_stays_inline(self):
        with ShardPool(2) as pool:
            assert pool.run_tasks(add, [(1, 2), (3, 4)], work=1) == [3, 7]
            assert "procs" not in pool._state


class TestLifecycle:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ShardPool(0)

    def test_close_is_idempotent_and_removes_segments(self):
        pool = ShardPool(2, min_rows=0)
        shards = [make_table(node_id=i) for i in range(2)]
        pool.map_shards(shards, n_rows)
        seg_dir = pool._state["dir"]
        assert os.path.isdir(seg_dir)
        pool.close()
        pool.close()
        assert not os.path.exists(seg_dir)

    def test_spawn_start_method(self):
        # Kernels and worker entries are module-level, so the pool works
        # under spawn too (the start method macOS/Windows default to).
        shards = [make_table(node_id=i, size=64) for i in range(2)]
        with ShardPool(2, min_rows=0, start_method="spawn") as pool:
            got = pool.map_shards(shards, ops.count_at_least,
                                  ((1 << 80) - 1, 1))
        want = [ops.count_at_least(s, (1 << 80) - 1, 1) for s in shards]
        assert got == want


class TestShardColumnsShapes:
    def test_wide_and_extras_survive_file_roundtrip(self, tmp_path):
        t = make_table(wide=True, extras=True)
        gen = shipped(t.generation().save(str(tmp_path / "w.seg")))
        mask = 1 << 70
        ha, _la, wa = gen.se_scan(mask)
        hb, _lb, wb = t.se_scan(mask)
        assert np.array_equal(ha, hb) and wa == wb and len(ha) == 5
        assert gen.overflow() == dict(t.extra_items())
        assert isinstance(gen, Generation)
