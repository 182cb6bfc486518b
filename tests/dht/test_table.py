"""Unit tests for the local DHT shard."""

import numpy as np
import pytest

from repro.dht import table
from repro.dht.repair import pairs_where
from repro.dht.storage.mmapseg import MmapSegmentStorage
from repro.dht.table import LocalDHT
from repro.exec.ops import shard_in_s_copies


class TestInsertRemove:
    def test_insert_lookup(self):
        t = LocalDHT()
        t.insert(100, 2)
        assert 100 in t
        assert t.entity_ids(100) == [2]
        assert t.num_entities(100) == 1
        assert t.num_copies(100) == 1

    def test_multiple_entities(self):
        t = LocalDHT()
        t.insert(5, 0)
        t.insert(5, 3)
        assert t.entity_ids(5) == [0, 3]
        assert t.entities_mask(5) == 0b1001

    def test_multicopy_refcount(self):
        t = LocalDHT()
        t.insert(5, 1)
        t.insert(5, 1)
        t.insert(5, 1)
        assert t.num_entities(5) == 1
        assert t.num_copies(5) == 3
        assert t.copies_of(5, 1) == 3
        assert t.n_multicopy_entries == 1

    def test_remove_peels_refcounts_first(self):
        t = LocalDHT()
        t.insert(5, 1)
        t.insert(5, 1)
        t.remove(5, 1)
        assert t.num_copies(5) == 1
        assert 5 in t
        t.remove(5, 1)
        assert 5 not in t
        assert t.n_multicopy_entries == 0

    def test_remove_of_a_pair_without_copies_is_skipped(self):
        """A stale remove takes nothing, and a later insert of the pair
        is not cancelled by it."""
        t = LocalDHT()
        t.remove(1, 1)
        assert (t.n_hashes, t.n_copies) == (0, 0)
        t.insert(1, 2)
        t.remove(1, 3)
        t.bulk_remove(np.array([1, 1], dtype=np.uint64), [3, 4])
        assert (t.entity_ids(1), t.n_copies) == ([2], 1)
        t.insert(1, 3)
        assert (t.entity_ids(1), t.n_copies) == ([2, 3], 2)

    def test_remove_last_entity_deletes_entry(self):
        t = LocalDHT()
        t.insert(9, 0)
        t.remove(9, 0)
        assert t.n_hashes == 0
        assert t.entities_mask(9) == 0

    def test_total_copies_invariant(self):
        t = LocalDHT()
        ops = [(5, 0), (5, 0), (6, 1), (5, 2)]
        for h, e in ops:
            t.insert(h, e)
        assert t.n_copies == 4
        t.remove(5, 0)
        assert t.n_copies == 3

    def test_large_entity_ids(self):
        t = LocalDHT()
        t.insert(7, 500)
        assert t.entity_ids(7) == [500]
        assert t.entities_mask(7) == 1 << 500


class TestRemoveEntity:
    def test_purges_everywhere(self):
        t = LocalDHT()
        t.insert(1, 0)
        t.insert(1, 1)
        t.insert(2, 1)
        t.insert(2, 1)  # refcounted
        removed = t.remove_entity(1)
        assert removed == 3
        assert t.entity_ids(1) == [0]
        assert 2 not in t
        assert t.n_copies == 1

    def test_noop_for_unknown_entity(self):
        t = LocalDHT()
        t.insert(1, 0)
        assert t.remove_entity(9) == 0
        assert t.n_copies == 1


class TestRetain:
    def test_counters_equal_a_fresh_rebuild(self):
        """Dropped rows, some carrying overflow copies and a wide mask,
        leave the counters a shard built from the survivors has."""
        records = [(h, e) for h in range(12) for e in (0, 1, 70)
                   if (h + e) % 3]
        records += [(h, 1) for h in range(0, 12, 2)] * 2   # overflow
        t, fresh = LocalDHT(), LocalDHT()
        for h, e in records:
            t.insert(h, e)
            if h % 4 >= 2:
                fresh.insert(h, e)
        assert t.retain(t.items_arrays()[0] % 4 >= 2) == 6
        assert (t.n_hashes, t.n_copies, t.n_multicopy_entries) == \
            (fresh.n_hashes, fresh.n_copies, fresh.n_multicopy_entries)
        assert sorted(t.items()) == sorted(fresh.items())
        assert sorted(t.extra_items()) == sorted(fresh.extra_items())
        assert t.n_multicopy_entries > 0


class TestIteration:
    def test_items(self):
        t = LocalDHT()
        t.insert(1, 0)
        t.insert(2, 1)
        assert dict(t.items()) == {1: 0b1, 2: 0b10}
        assert sorted(t.hashes()) == [1, 2]

    def test_extra_copies_accessor(self):
        t = LocalDHT()
        t.insert(1, 0)
        assert t.extra_copies(1) == {}
        t.insert(1, 0)
        assert t.extra_copies(1) == {0: 1}

    def test_clear(self):
        t = LocalDHT()
        t.insert(1, 0)
        t.insert(1, 0)
        t.clear()
        assert t.n_hashes == 0 and t.n_copies == 0
        assert t.n_multicopy_entries == 0


class TestReferenceSemantics:
    def test_random_ops_match_multiset_model(self):
        """The shard must behave exactly like a (hash, entity) multiset."""
        import collections
        import random

        rnd = random.Random(7)
        t = LocalDHT()
        model: collections.Counter = collections.Counter()
        for _ in range(2000):
            h = rnd.randrange(20)
            e = rnd.randrange(6)
            if rnd.random() < 0.6:
                t.insert(h, e)
                model[(h, e)] += 1
            else:
                t.remove(h, e)
                if model[(h, e)] > 0:
                    model[(h, e)] -= 1
        for h in range(20):
            want_entities = sorted({e for (hh, e), c in model.items()
                                    if hh == h and c > 0})
            want_copies = sum(c for (hh, _e), c in model.items() if hh == h)
            assert t.entity_ids(h) == want_entities
            assert t.num_copies(h) == want_copies
        assert t.n_copies == sum(model.values())


class TestOverflowReadCost:
    """The bulk readers of the multi-copy overflow cost what they ask for:
    a fixed number of vector steps, however many entries it holds."""

    N_ROWS = 2000

    def shard(self, n_overflow):
        """N_ROWS hashes held by entities 0 and 1; the first
        ``n_overflow`` of them hold extra copies (two entries each)."""
        t = LocalDHT()
        h = np.arange(1, self.N_ROWS + 1, dtype=np.uint64) * np.uint64(7919)
        for eid in (0, 1):
            t.bulk_insert(h, eid)
        twice = h[:n_overflow // 2]
        t.bulk_insert(np.concatenate([twice, twice]),
                      np.repeat([0, 1], len(twice)))
        assert len(t.extra_arrays()[0]) == n_overflow
        return t

    @staticmethod
    def searchsorted_calls(monkeypatch, fn):
        calls = []
        real = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", counted)
            fn()
        return len(calls)

    def test_shard_in_s_copies_steps_do_not_grow_with_the_overflow(
            self, monkeypatch):
        small, large = self.shard(10), self.shard(1000)
        for t, n in ((small, 10), (large, 1000)):
            copies = shard_in_s_copies(t, 0b01)[2]
            assert copies.sum() == self.N_ROWS + n // 2
        assert (self.searchsorted_calls(
                    monkeypatch, lambda: shard_in_s_copies(small, 0b11))
                == self.searchsorted_calls(
                    monkeypatch, lambda: shard_in_s_copies(large, 0b11)))

    def test_pairs_where_steps_do_not_grow_with_the_overflow(
            self, monkeypatch):
        small, large = self.shard(10), self.shard(1000)
        sel = np.arange(self.N_ROWS) < self.N_ROWS // 2   # has the overflow
        for t, n in ((small, 10), (large, 1000)):
            assert pairs_where(t)[2].sum() == 2 * self.N_ROWS + n
            assert pairs_where(t, sel)[2].sum() == self.N_ROWS + n
            assert pairs_where(t, ~sel)[2].sum() == self.N_ROWS
        assert (self.searchsorted_calls(
                    monkeypatch, lambda: pairs_where(small, sel))
                == self.searchsorted_calls(
                    monkeypatch, lambda: pairs_where(large, sel)))

    def test_view_is_built_once_per_mutation(self):
        t = self.shard(10)
        view = t.extra_arrays()
        shard_in_s_copies(t, 0b11)
        pairs_where(t)
        t.bulk_num_copies(view[0])
        assert t.extra_arrays() is view         # reads never rebuild it
        t.insert(int(view[0][0]), 0)            # any overflow write does
        assert t.extra_arrays() is not view
        assert t.extra_arrays()[2][0] == view[2][0] + 1
        assert t.extra_arrays() is t.extra_arrays()


class TestProbeBelowTheVectorWidth:
    """``bulk_num_copies`` / ``bulk_masks`` of a few hashes (one scalar
    probe each below ``table._VECTOR_MIN``) answer as the generation's
    vector probe over ``generation()``, and commit exactly once after
    writes: the log folded into the generation they read."""

    WIDE = 70                # past bit 63: the row spills into ``wide``

    def build(self, tmp_path, backend):
        store = (MmapSegmentStorage(tmp_path, 0) if backend == "mmap"
                 else None)
        shard = LocalDHT(0, storage=store)
        rng = np.random.default_rng(7)
        hs = np.unique(rng.integers(1, 2**64 - 1, 300, dtype=np.uint64))
        shard.bulk_insert(hs, rng.integers(0, 8, len(hs)))
        own = hs.tolist()
        self.multi, self.wide, self.wide_multi = own[:3]
        self.held = shard.entity_ids(self.multi)[0]
        shard.insert(self.multi, self.held)               # extra copies
        shard.insert(self.wide, self.WIDE)
        shard.insert(self.wide_multi, self.WIDE)
        shard.insert(self.wide_multi, self.WIDE)
        self.toggled = [5, 2**64 - 1]                     # logged rows
        shard.insert(self.toggled[1], 3)
        self.special = [0, self.multi, self.wide, self.wide_multi,
                        *self.toggled]
        self.ordinary = own[3:]
        shard.generation()                                # compacted
        self.commits = 0
        if store is not None:
            commit = store.commit

            def counted(gen):
                self.commits += 1
                return commit(gen)
            store.commit = counted
        return shard

    def dirty(self, shard, pending):
        """An overflow-only write and, when ``pending``, rows that change
        masks: one hash born and one deleted since the last commit.
        Scalar reads in between fold the log in RAM and commit nothing."""
        before = self.commits
        copies = shard.num_copies(self.multi)
        shard.insert(self.multi, self.held)
        assert shard.num_copies(self.multi) == copies + 1
        if pending:
            n = shard.n_hashes
            for h in self.toggled:
                if h in shard:
                    shard.remove(h, 3)
                else:
                    shard.insert(h, 3)
            assert shard.n_hashes == n
        assert self.commits == before

    @pytest.mark.parametrize("h", [-1, 2**64])
    def test_a_hash_outside_the_word_raises_before_any_write(self, h):
        shard = LocalDHT()
        shard.bulk_insert(np.arange(1, 20, dtype=np.uint64), 0)
        shard.generation()
        for op in (lambda: shard.insert(h, 0), lambda: shard.num_copies(h),
                   lambda: shard.bulk_num_copies([h])):
            with pytest.raises(OverflowError):
                op()
        assert (shard.n_hashes, shard.n_copies) == (19, 19)
        assert shard.generation().n_hashes == 19

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("fn", ["bulk_num_copies", "bulk_masks"])
    def test_equals_the_generation_vector_probe(self, tmp_path, fn,
                                                backend, pending):
        shard = self.build(tmp_path, backend)
        ring = self.special + self.ordinary
        for width in range(1, 9):
            for lead in range(len(self.special)):
                hs = (ring[lead:] + ring[:lead])[:width]
                self.dirty(shard, pending)
                before = self.commits
                got = getattr(shard, fn)(hs)
                assert self.commits - before == (backend == "mmap")
                gen = shard.generation()
                assert self.commits - before == (backend == "mmap")
                want = getattr(gen, fn)(np.array(hs, dtype=np.uint64))
                if fn == "bulk_masks":
                    (got, got_wide), (want, want_wide) = got, want
                    assert got_wide == want_wide
                    loop = [shard.entities_mask(h) & (2**64 - 1) for h in hs]
                else:
                    loop = [shard.num_copies(h) for h in hs]
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist() == loop, (width, lead)
        assert table._VECTOR_MIN <= 8       # both probes were reached
