"""Property tests: the columnar LocalDHT bulk/scan APIs are observationally
equivalent to the per-item insert/remove/items() semantics, including the
>64-entity wide-mask spill path and interleaved insert/remove sequences —
and the columnar overflow view (``extra_arrays``) and its three bulk
readers agree with the per-item accessors after every kind of mutation.
Both write paths append to the same log, so the writers themselves are
checked against an independent copy-count model in
``test_props_writelog.py``; here the readers are."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht.repair import pairs_where
from repro.dht.storage import MmapSegmentStorage, StorageConfig, open_storage
from repro.dht.table import _COMPACT_MIN, LocalDHT
from repro.exec.ops import shard_in_s_copies

# A tiny hash universe forces heavy collisions (multicopy + extras paths);
# entity ids beyond 63 exercise the wide-mask spill.
hashes = st.integers(min_value=0, max_value=40)
eids = st.integers(min_value=0, max_value=130)
pairs = st.lists(st.tuples(hashes, eids), min_size=0, max_size=50)
batches = st.lists(st.tuples(st.booleans(), pairs), min_size=1, max_size=8)


def _as_arrays(ps):
    h = np.fromiter((p[0] for p in ps), dtype=np.uint64, count=len(ps))
    e = np.fromiter((p[1] for p in ps), dtype=np.int64, count=len(ps))
    return h, e


def _observe(dht):
    return (list(dht.items()), dht.n_hashes, dht.n_copies,
            {h: dict(ex) for h, ex in dht.extra_items() if ex})


class TestBulkEquivalence:
    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_bulk_matches_per_item(self, seq):
        ref, col = LocalDHT(), LocalDHT()
        for is_insert, ps in seq:
            h, e = _as_arrays(ps)
            if is_insert:
                for hh, ee in ps:
                    ref.insert(hh, ee)
                col.bulk_insert(h, e)
            else:
                for hh, ee in ps:
                    ref.remove(hh, ee)
                col.bulk_remove(h, e)
        assert _observe(col) == _observe(ref)

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_bulk_insert_matches_per_item(self, ps):
        ref, col = LocalDHT(), LocalDHT()
        for hh, ee in ps:
            ref.insert(hh, ee)
        h, e = _as_arrays(ps)
        col.bulk_insert(h, e)
        assert _observe(col) == _observe(ref)
        for hh, ee in ps:
            assert col.copies_of(hh, ee) == ref.copies_of(hh, ee)
            assert col.entities_mask(hh) == ref.entities_mask(hh)
            assert col.num_copies(hh) == ref.num_copies(hh)


#: Widths of a datagram and on both sides of the log's commit point (the
#: distinct hashes logged since the last commit, with fewer than 32 768
#: packed rows).
_WIDTHS = (1, 7, 8, 9, 64, _COMPACT_MIN - 1, _COMPACT_MIN, _COMPACT_MIN + 1)
# (operation, width, hashes, entities up to 71?): "fresh" hashes are new to
# the shard, "packed" ones distinct rows it holds, "pool" ones drawn with
# replacement from both (repeated pairs).
width_batches = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), st.sampled_from(_WIDTHS),
              st.sampled_from(["fresh", "packed", "pool"]), st.booleans()),
    min_size=1, max_size=5)


class TestWritePathThresholds:
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @given(width_batches, st.integers(min_value=0, max_value=2**32 - 1))
    @example(seq=[("insert", _COMPACT_MIN - 1, "fresh", False),
                  ("insert", _COMPACT_MIN, "fresh", False),
                  ("remove", _COMPACT_MIN, "packed", False),
                  ("remove", _COMPACT_MIN + 1, "fresh", False),
                  ("insert", _COMPACT_MIN, "pool", False),
                  ("insert", 8, "pool", True)], seed=0)
    @settings(max_examples=15, deadline=None)
    def test_batches_at_the_thresholds_match_per_item(self, backend, seq,
                                                      seed):
        """A shard with packed rows and a non-empty log takes batches
        of every width around the thresholds — repeated pairs, removes
        of absent pairs, holders >= 64 — and ends in the per-item loop's
        state; on mmap, what a fresh reader loads after ``flush`` is the
        live state, overflow and wide spill included."""
        rng = np.random.default_rng(seed)
        pool = rng.integers(1, 1 << 63, 6000, dtype=np.uint64)
        # 5 000 packed rows, then 24 rows left in the log.
        steps = [("insert", pool[:5000], rng.integers(0, 8, 5000)),
                 ("insert", pool[rng.integers(0, 6000, 24)],
                  rng.integers(0, 8, 24))]
        for op, width, source, wide in seq:
            if source == "fresh":
                h = rng.integers(1, 1 << 63, width, dtype=np.uint64)
            elif source == "packed":
                h = rng.choice(pool[:5000], width, replace=False)
            else:
                h = pool[rng.integers(0, len(pool), width)]
            steps.append((op, h, rng.integers(0, 72 if wide else 8, width)))
        store = open_storage(StorageConfig(backend=backend), 1)
        try:
            col, ref = LocalDHT(storage=store.shards[0]), LocalDHT()
            for op, h, e in steps:
                if op == "insert":
                    for hh, ee in zip(h.tolist(), e.tolist()):
                        ref.insert(hh, ee)
                    col.bulk_insert(h, e)
                else:
                    for hh, ee in zip(h.tolist(), e.tolist()):
                        ref.remove(hh, ee)
                    col.bulk_remove(h, e)
                assert (col.n_hashes, col.n_copies) == \
                    (ref.n_hashes, ref.n_copies)
            assert _observe(col) == _observe(ref)
            if backend == "mmap":
                col.flush()
                got = MmapSegmentStorage(store.root, 0).load()
                ph, pm, pw = col.items_arrays()
                assert got.ph.tolist() == ph.tolist()
                assert got.pm.tolist() == pm.tolist()
                assert got.wide == pw
                assert got.overflow() == dict(col.extra_items())
                assert (got.n_hashes, got.n_copies) == \
                    (col.n_hashes, col.n_copies)
        finally:
            store.close()


class TestScanEquivalence:
    @given(batches, st.sets(eids, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_se_scan_matches_items_filter(self, seq, scan_eids):
        dht = LocalDHT()
        for is_insert, ps in seq:
            h, e = _as_arrays(ps)
            if is_insert:
                dht.bulk_insert(h, e)
            else:
                dht.bulk_remove(h, e)
        mask = 0
        for ee in scan_eids:
            mask |= 1 << ee
        want = {hh: m for hh, m in dht.items() if m & mask}
        got_h, got_lo, wide = dht.se_scan(mask)
        got = {}
        for i, hh in enumerate(got_h.tolist()):
            got[hh] = wide[hh] if hh in wide else int(got_lo[i])
        assert got == want
        assert sorted(got) == got_h.tolist()  # sorted hash order

    @given(batches)
    @settings(max_examples=60, deadline=None)
    def test_items_arrays_reconstructs_items(self, seq):
        dht = LocalDHT()
        for is_insert, ps in seq:
            h, e = _as_arrays(ps)
            if is_insert:
                dht.bulk_insert(h, e)
            else:
                dht.bulk_remove(h, e)
        ph, pm, pw = dht.items_arrays()
        rebuilt = [(hh, int(pm[i]) | (pw.get(hh, 0) << 64))
                   for i, hh in enumerate(ph.tolist())]
        assert rebuilt == list(dht.items())
        assert len(ph) == dht.n_hashes

    @given(batches, st.lists(hashes, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bulk_point_lookups_match_scalar(self, seq, queries):
        dht = LocalDHT()
        for is_insert, ps in seq:
            h, e = _as_arrays(ps)
            if is_insert:
                dht.bulk_insert(h, e)
            else:
                dht.bulk_remove(h, e)
        q = np.asarray(queries, dtype=np.uint64)
        masks_lo, wide = dht.bulk_masks(q)
        counts = dht.bulk_num_copies(q)
        for i, hh in enumerate(queries):
            full = wide[hh] if hh in wide else int(masks_lo[i])
            assert full == dht.entities_mask(hh)
            assert int(counts[i]) == dht.num_copies(hh)


# -- the overflow view: every mutator, reads in between ----------------------------

# Few hashes and few entities (both sides of the 64-bit spill, up to 130),
# so the same (hash, entity) pair recurs and the overflow actually fills.
x_hashes = st.integers(min_value=0, max_value=9)
x_eids = st.sampled_from([0, 1, 2, 63, 64, 65, 130])
x_pair = st.tuples(x_hashes, x_eids)
x_pairs = st.lists(x_pair, max_size=40)
# (name, argument) steps covering every method that writes the overflow.
mutations = st.one_of(
    st.tuples(st.just("insert"), x_pair),
    st.tuples(st.just("remove"), x_pair),
    st.tuples(st.just("bulk_insert"), x_pairs),
    st.tuples(st.just("bulk_remove"), x_pairs),
    st.tuples(st.just("retain"), st.sets(x_hashes, max_size=4)),
    st.tuples(st.just("remove_entity"), x_eids),
    st.tuples(st.just("crash_recover"), st.booleans()),   # flush first?
)
# Each step says whether the readers run after it: a view built by a read
# and left stale by the next write shows at the read after that.
steps = st.lists(st.tuples(mutations, st.booleans()), min_size=1,
                 max_size=14)


def _mutate(dht, name, arg):
    if name in ("insert", "remove"):
        getattr(dht, name)(*arg)
    elif name in ("bulk_insert", "bulk_remove"):
        getattr(dht, name)(*_as_arrays(arg))
    elif name == "retain":
        dht.retain(~np.isin(dht.items_arrays()[0],
                            np.fromiter(arg, dtype=np.uint64,
                                        count=len(arg))))
    elif name == "remove_entity":
        dht.remove_entity(arg)
    else:
        if arg:
            dht.flush()
        dht.crash()
        _check_overflow_readers(dht, (), frozenset(), frozenset())
        dht.recover()


def _check_overflow_readers(dht, queries, s_eids, unselected):
    """The view and its three bulk readers against the per-item oracle."""
    xh, xe, xc = dht.extra_arrays()
    flat = sorted((h, e, c) for h, ex in dht.extra_items()
                  for e, c in ex.items())
    assert list(zip(xh.tolist(), xe.tolist(), xc.tolist())) == flat
    assert (xh.dtype, xe.dtype, xc.dtype) == (np.uint64, np.int64, np.int64)

    q = np.asarray(queries, dtype=np.uint64)
    assert dht.bulk_num_copies(q).tolist() == [dht.num_copies(h)
                                               for h in queries]

    s_mask = sum(1 << e for e in s_eids)
    got_h, _lo, copies, _wide = shard_in_s_copies(dht, s_mask)
    assert got_h.tolist() == [h for h, m in dht.items() if m & s_mask]
    assert copies.tolist() == [sum(dht.copies_of(h, e) for e in s_eids)
                               for h in got_h.tolist()]

    rows = dht.items_arrays()[0]
    for sel in (None, ~np.isin(rows, np.fromiter(unselected, dtype=np.uint64,
                                                 count=len(unselected)))):
        chosen = rows if sel is None else rows[sel]
        want = Counter({(h, e): dht.copies_of(h, e)
                        for h in chosen.tolist() for e in dht.entity_ids(h)})
        got = Counter()
        for h, e, c in zip(*(col.tolist() for col in pairs_where(dht, sel))):
            got[(h, e)] += c
        assert got == want


def _check_generation_readers(dht, gen, queries, s_eids):
    """A published generation answers every read as the live shard."""
    assert (gen.n_hashes, gen.n_copies) == (dht.n_hashes, dht.n_copies)
    assert list(gen.items()) == list(dht.items())
    assert gen.overflow() == dict(dht.extra_items())
    for a, b in zip(gen.extra_arrays(), dht.extra_arrays()):
        assert a.tolist() == b.tolist()
    q = np.asarray(queries, dtype=np.uint64)
    assert gen.bulk_num_copies(q).tolist() == [dht.num_copies(h)
                                               for h in queries]
    s_mask = sum(1 << e for e in s_eids)
    for a, b in zip(shard_in_s_copies(gen, s_mask),
                    shard_in_s_copies(dht, s_mask)):
        assert a == b if isinstance(a, dict) else a.tolist() == b.tolist()


class TestOverflowView:
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @given(st.lists(x_pair, min_size=12, max_size=40), steps,
           st.lists(st.integers(min_value=0, max_value=12),
                    max_size=12),     # absent and repeated hashes
           st.sets(x_eids, max_size=4), st.sets(x_hashes, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_view_and_readers_match_per_item_after_every_mutator(
            self, backend, start, seq, queries, s_eids, unselected):
        store = open_storage(StorageConfig(backend=backend), 1)
        try:
            dht = LocalDHT(storage=store.shards[0])
            dht.bulk_insert(*_as_arrays(start))
            dht.flush()
            _check_overflow_readers(dht, queries, s_eids, unselected)
            for (name, arg), read_after in seq:
                _mutate(dht, name, arg)
                if read_after:
                    _check_overflow_readers(dht, queries, s_eids, unselected)
                    # The frozen generation answers as the live table does.
                    _check_generation_readers(dht, dht.generation(),
                                              queries, s_eids)
            _check_overflow_readers(dht, queries, s_eids, unselected)
        finally:
            store.close()


class TestHeldGenerationNeverChanges:
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_columns_a_reader_holds_survive_later_writes(self, backend):
        """A fold builds the next generation; it never writes the one a
        caller of ``items_arrays`` (or a pool worker) holds."""
        store = open_storage(StorageConfig(backend=backend), 1)
        try:
            dht = LocalDHT(storage=store.shards[0])
            h = np.arange(1, 5001, dtype=np.uint64) * np.uint64(7919)
            dht.bulk_insert(h, 0)
            ph, pm, _wide = dht.items_arrays()
            held = dht.generation()
            want = (ph.tolist(), pm.tolist())
            dht.bulk_insert(h, 1)           # same rows: masks change
            dht.insert(int(h[0]), 1)        # the overflow changes
            now = dht.items_arrays()
            assert now[1].tolist() == [3] * 5000
            assert (ph.tolist(), pm.tolist()) == want
            assert held.pm is pm and held.bulk_num_copies(h[:8]).tolist() \
                == [1] * 8
            with pytest.raises(ValueError):
                pm[0] = 0                   # read-only, not just unchanged
        finally:
            store.close()
