"""Unit tests for the local DHT shard."""

import numpy as np

from repro.dht.repair import pairs_where
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
        assert t.remove(5, 1)
        assert t.num_copies(5) == 1
        assert 5 in t
        assert t.remove(5, 1)
        assert 5 not in t
        assert t.n_multicopy_entries == 0

    def test_remove_unknown_returns_false(self):
        t = LocalDHT()
        assert not t.remove(1, 1)
        t.insert(1, 2)
        assert not t.remove(1, 3)

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
                ok = t.remove(h, e)
                assert ok == (model[(h, e)] > 0)
                if ok:
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
