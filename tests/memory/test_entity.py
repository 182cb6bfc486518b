"""Unit tests for Entity memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.entity import Entity, EntityKind
from repro.sim.cluster import Cluster
from repro.util.hashing import page_hashes


def make(pages=None, node=0):
    c = Cluster(2)
    if pages is None:
        pages = np.array([10, 20, 30, 20], dtype=np.uint64)
    return c, Entity.create(c, node, pages)


class TestGeometry:
    def test_counts(self):
        _c, e = make()
        assert e.n_pages == 4
        assert e.memory_bytes == 4 * 4096

    def test_custom_page_size(self):
        c = Cluster(1)
        e = Entity.create(c, 0, np.arange(2, dtype=np.uint64), page_size=8192)
        assert e.memory_bytes == 16384

    def test_rejects_2d(self):
        c = Cluster(1)
        with pytest.raises(ValueError):
            Entity(0, np.zeros((2, 2), dtype=np.uint64))


class TestContent:
    def test_pages_view_readonly(self):
        _c, e = make()
        with pytest.raises(ValueError):
            e.pages[0] = 1

    def test_read_page(self):
        _c, e = make()
        assert e.read_page(1) == 20

    def test_content_hashes_match_pages(self):
        _c, e = make()
        assert np.array_equal(e.content_hashes(), page_hashes(e.pages))

    def test_hash_cache_invalidated_on_write(self):
        _c, e = make()
        h0 = e.content_hashes()[0]
        e.write_page(0, 999)
        assert e.content_hashes()[0] != h0

    def test_hash_index_ground_truth(self):
        _c, e = make()
        hs = e.content_hashes()
        assert e.holds_hash(int(hs[0]))
        idx = e.find_block(int(hs[1]))
        assert e.read_page(idx) == 20

    def test_find_block_missing(self):
        _c, e = make()
        assert e.find_block(12345) is None
        assert not e.holds_hash(12345)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 8), max_size=40), st.booleans())
    def test_sorted_index_is_the_later_page_of_each_hash(self, ids, write):
        """Against the dict it replaced: each distinct hash maps to the
        last page holding it, also after a write bumps the version."""
        _c, e = make(np.array(ids, dtype=np.uint64))
        if write and ids:
            e.write_page(0, 7)
        hashes = e.content_hashes().tolist()
        want = dict(zip(hashes, range(len(hashes))))   # later pages win
        col, blocks = e.sorted_index()
        assert col.tolist() == sorted(want)
        assert dict(zip(col.tolist(), blocks.tolist())) == want
        for h, page in want.items():
            assert e.find_block(h) == page and e.holds_hash(np.uint64(h))
        for h in (-1, 2**64, *(h + 1 for h in want if h + 1 not in want)):
            assert e.find_block(h) is None and not e.holds_hash(h)

    def test_duplicate_content_same_hash(self):
        _c, e = make()
        hs = e.content_hashes()
        assert hs[1] == hs[3]  # both pages hold content 20


class TestMutation:
    def test_write_page_sets_dirty_and_version(self):
        _c, e = make()
        v = e.version
        e.write_page(2, 77)
        assert e.read_page(2) == 77
        assert e.dirty[2]
        assert e.version > v

    def test_write_pages_vectorized(self):
        _c, e = make()
        e.write_pages(np.array([0, 3]), np.array([1, 2], dtype=np.uint64))
        assert e.read_page(0) == 1 and e.read_page(3) == 2
        assert e.dirty[0] and e.dirty[3] and not e.dirty[1]

    def test_clear_dirty_returns_indices(self):
        _c, e = make()
        e.write_page(1, 5)
        e.write_page(3, 6)
        assert e.clear_dirty().tolist() == [1, 3]
        assert not e.dirty.any()
        assert e.clear_dirty().tolist() == []

    def test_mutate_random_fraction(self):
        c = Cluster(1)
        e = Entity.create(c, 0, np.arange(100, dtype=np.uint64))
        rng = np.random.default_rng(0)
        idxs = e.mutate_random(0.25, rng)
        assert len(idxs) == 25
        assert len(np.unique(idxs)) == 25

    def test_mutate_zero_fraction_noop(self):
        _c, e = make()
        before = e.snapshot()
        assert len(e.mutate_random(0.0, np.random.default_rng(0))) == 0
        assert np.array_equal(e.snapshot(), before)

    def test_mutate_from_pool(self):
        c = Cluster(1)
        e = Entity.create(c, 0, np.arange(50, dtype=np.uint64))
        pool = np.array([7777], dtype=np.uint64)
        e.mutate_random(1.0, np.random.default_rng(0), content_pool=pool)
        assert (e.pages == 7777).all()

    def test_mutate_bad_fraction(self):
        _c, e = make()
        with pytest.raises(ValueError):
            e.mutate_random(1.5, np.random.default_rng(0))

    def test_snapshot_is_copy(self):
        _c, e = make()
        snap = e.snapshot()
        e.write_page(0, 42)
        assert snap[0] == 10


class TestRegistration:
    def test_kind(self):
        c = Cluster(1)
        e = Entity.create(c, 0, np.arange(2, dtype=np.uint64),
                          kind=EntityKind.VM)
        assert e.kind is EntityKind.VM

    def test_unregistered_entity_has_no_id(self):
        e = Entity(0, np.arange(2, dtype=np.uint64))
        assert e.entity_id == -1
