"""Units for the set-reconciliation subsystem (docs/RECONCILIATION.md):
the canonical multiset diff's edge cases, range digests, the two-party
session protocol, and the engine's recon repair path end to end.
"""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.recon import (DigestCache, HASH_SPACE, PairSetDigest,
                         ReconSession, canonical_pairs, pair_multiset_diff)

U64 = np.uint64
I64 = np.int64


def rows(*triples):
    """Canonical rows from (hash, entity, count) literals."""
    if not triples:
        return (np.empty(0, dtype=U64), np.empty(0, dtype=I64),
                np.empty(0, dtype=I64))
    h, e, c = zip(*triples)
    return canonical_pairs(np.array(h, dtype=U64), np.array(e, dtype=I64),
                           np.array(c, dtype=I64))


def as_set(triplet):
    h, e, c = triplet
    return {(int(a), int(b), int(k))
            for a, b, k in zip(h.tolist(), e.tolist(), c.tolist())}


class TestPairMultisetDiff:
    def test_both_empty(self):
        ins, rem = pair_multiset_diff(*rows(), *rows()[:2], want_c=rows()[2])
        assert as_set(ins) == set() and as_set(rem) == set()

    def test_empty_have_ships_all_want(self):
        wh, we, wc = rows((5, 1, 2), (9, 2, 1))
        ins, rem = pair_multiset_diff(*rows(), wh, we, want_c=wc)
        assert as_set(ins) == {(5, 1, 2), (9, 2, 1)}
        assert as_set(rem) == set()

    def test_empty_want_removes_all_have(self):
        hh, he, hc = rows((5, 1, 2), (9, 2, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, *rows()[:2],
                                      want_c=rows()[2])
        assert as_set(ins) == set()
        assert as_set(rem) == {(5, 1, 2), (9, 2, 1)}

    def test_duplicate_copies_both_sides(self):
        # Same pair with different multiplicities: only the count delta
        # moves, in the right direction.
        hh, he, hc = rows((7, 3, 5))
        wh, we, wc = rows((7, 3, 2))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == set()
        assert as_set(rem) == {(7, 3, 3)}
        ins, rem = pair_multiset_diff(wh, we, wc, hh, he, want_c=hc)
        assert as_set(ins) == {(7, 3, 3)}
        assert as_set(rem) == set()

    def test_equal_multisets_no_ops(self):
        hh, he, hc = rows((1, 1, 1), (2, 2, 4), (3, 1, 2))
        ins, rem = pair_multiset_diff(hh, he, hc, hh, he, want_c=hc)
        assert as_set(ins) == set() and as_set(rem) == set()

    def test_single_row_each_side(self):
        hh, he, hc = rows((4, 1, 1))
        wh, we, wc = rows((6, 1, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == {(6, 1, 1)}
        assert as_set(rem) == {(4, 1, 1)}

    def test_u64_boundary_hashes(self):
        top = HASH_SPACE - 1
        hh, he, hc = rows((0, 1, 1), (top, 2, 1))
        wh, we, wc = rows((0, 1, 1), (top, 2, 2), (top, 3, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == {(top, 2, 1), (top, 3, 1)}
        assert as_set(rem) == set()

    def test_want_without_counts_is_replay_semantics(self):
        hh, he, hc = rows((5, 1, 1))
        ins, rem = pair_multiset_diff(
            hh, he, hc, np.array([5, 5], dtype=U64),
            np.array([1, 1], dtype=I64))
        assert as_set(ins) == {(5, 1, 1)}  # repetition = multiplicity
        assert as_set(rem) == set()


class TestPairSetDigest:
    def test_range_summary_partitions(self):
        rng = np.random.default_rng(3)
        h = np.sort(rng.integers(0, HASH_SPACE, 500, dtype=U64))
        d = PairSetDigest(*canonical_pairs(h, np.zeros(500, dtype=I64)))
        whole = d.range_summary(0, HASH_SPACE)
        mid = HASH_SPACE // 2
        n1, g1 = d.range_summary(0, mid)
        n2, g2 = d.range_summary(mid, HASH_SPACE)
        assert n1 + n2 == whole[0] == len(d)
        assert (g1 + g2) & (HASH_SPACE - 1) == whole[1]

    def test_single_copy_flip_changes_digest(self):
        a = PairSetDigest(*rows((10, 1, 2), (20, 2, 1)))
        b = PairSetDigest(*rows((10, 1, 3), (20, 2, 1)))
        assert a.range_summary(0, HASH_SPACE) != b.range_summary(
            0, HASH_SPACE)
        # The untouched subrange still agrees.
        assert a.range_summary(15, 30) == b.range_summary(15, 30)

    def test_boundary_rows_included(self):
        top = HASH_SPACE - 1
        d = PairSetDigest(*rows((0, 1, 1), (top, 1, 1)))
        assert d.range_summary(0, HASH_SPACE)[0] == 2
        assert d.range_summary(top, HASH_SPACE)[0] == 1

    def test_empty(self):
        d = PairSetDigest(*rows())
        assert len(d) == 0 and d.total_count == 0
        assert d.range_summary(0, HASH_SPACE) == (0, 0)

    def test_cache_epoch_invalidation(self):
        cache = DigestCache()
        built = []

        def build():
            built.append(1)
            return PairSetDigest(*rows((1, 1, 1)))

        d1 = cache.get(0, 7, build)
        d2 = cache.get(0, 7, build)
        assert d1 is d2 and len(built) == 1 and cache.hits == 1
        cache.get(0, 8, build)  # epoch bumped: rebuild
        assert len(built) == 2


class TestReconSession:
    def _converge(self, local_rows, remote_rows, **kw):
        local = PairSetDigest(*local_rows)
        remote = PairSetDigest(*remote_rows)
        report = ReconSession(local, remote, **kw).run()
        # Applying the ops to the local multiset must yield the remote.
        lh, le, lc = local_rows
        ih, ie, ic = report.ins
        rh, re_, rc = report.rem
        got = canonical_pairs(
            np.concatenate([lh, ih, rh]), np.concatenate([le, ie, re_]),
            np.concatenate([lc, ic, -rc]))
        want = canonical_pairs(*remote_rows)
        assert as_set(got) == as_set(want)
        return report

    def test_identical_sets_cost_one_round(self):
        r = rows((10, 1, 1), (500, 2, 3))
        report = self._converge(r, r)
        assert report.rounds == 1 and report.leaves_shipped == 0
        assert report.ops_applied == 0

    def test_small_divergence_converges(self):
        rng = np.random.default_rng(5)
        h = np.sort(rng.integers(0, HASH_SPACE, 400, dtype=U64))
        base = [(int(x), 1, 1) for x in h]
        local = rows(*base)
        remote = rows(*(base[:390] + [(123456789, 9, 2)]))
        report = self._converge(local, remote)
        assert report.ops_applied > 0
        assert report.rounds >= 2

    def test_empty_side_ships_immediately(self):
        # One side empty: descent cannot prune anything, so the session
        # must ship the whole subtree in the first leaf round.
        step = (HASH_SPACE - 1) // 100
        remote = rows(*((i * step, 1, 1) for i in range(100)))
        report = self._converge(rows(), remote)
        assert report.rounds == 2  # one digest round + the leaf round

    def test_branching_validation(self):
        d = PairSetDigest(*rows())
        with pytest.raises(ValueError):
            ReconSession(d, d, branching=3)
        with pytest.raises(ValueError):
            ReconSession(d, d, leaf_limit=0)

    def test_wire_bytes_scale_with_divergence(self):
        rng = np.random.default_rng(6)
        h = np.sort(rng.integers(0, HASH_SPACE, 2000, dtype=U64))
        base = [(int(x), 1, 1) for x in h]
        full = rows(*base)
        nearly = rows(*base[:1990])
        small = self._converge(nearly, full).bytes_wire
        big = self._converge(rows(*base[:1000]), full).bytes_wire
        assert small < big


class TestEngineReconRepair:
    def _system(self, seed=0, use_network=False):
        cluster = Cluster(4, seed=seed)
        rng = np.random.default_rng(seed)
        ents = [Entity.create(cluster, n,
                              rng.integers(0, 120, 64).astype(U64))
                for n in (0, 1)]
        concord = ConCORD(cluster, ConCORDConfig(use_network=use_network))
        concord.initial_scan()
        return cluster, ents, concord

    def _states(self, concord):
        mask = (1 << 80) - 1
        return [tuple(map(lambda a: a.tolist() if hasattr(a, "tolist")
                          else a, s.se_scan(mask)))
                for s in concord.tracing.shards]

    @pytest.mark.parametrize("use_network", [False, True])
    def test_recon_heals_clustered_eviction(self, use_network):
        _cluster, _ents, concord = self._system(use_network=use_network)
        want = self._states(concord)
        bound = U64(int(0.3 * 2**64))
        for shard in concord.tracing.shards:
            hs, _lo, _wide = shard.items_arrays()
            if len(hs):
                shard.retain(hs >= bound)
        concord.tracing.membership.content_changed()
        report = concord.repair(mode="recon")
        assert report.copies_restored > 0
        assert report.bytes_wire > 0 and report.rounds > 0
        assert [n for n, _i, _r in report.node_ops]
        assert self._states(concord) == want

    def test_recon_counters_exported(self):
        _cluster, _ents, concord = self._system()
        shard = concord.tracing.shards[1]
        hs, _lo, _wide = shard.items_arrays()
        shard.retain(hs >= U64(1 << 62))
        concord.tracing.membership.content_changed()
        concord.repair(mode="recon")
        reg = concord.obs.registry
        assert reg.value("dht.repair.bytes_wire") > 0
        assert reg.value("dht.repair.rounds") > 0
        assert "dht.repair.bytes_wire" in concord.metrics_report().render()

    def test_invalid_mode_rejected(self):
        _cluster, _ents, concord = self._system()
        with pytest.raises(ValueError):
            concord.repair(mode="bogus")
        with pytest.raises(ValueError):
            concord.warm_restart(mode="bogus")

    def test_recon_over_network_converges(self):
        cluster = Cluster(4, seed=2)
        rng = np.random.default_rng(2)
        Entity.create(cluster, 0, rng.integers(0, 99, 64).astype(U64))
        concord = ConCORD(cluster, ConCORDConfig(use_network=True))
        concord.initial_scan()
        want = self._states(concord)
        shard = concord.tracing.shards[2]
        hs, _lo, _wide = shard.items_arrays()
        if len(hs):
            shard.retain(hs >= U64(1 << 63))
        concord.tracing.membership.content_changed()
        concord.repair(mode="recon")
        assert self._states(concord) == want
