"""Unit tests for the update-epoch result cache (docs/SERVING.md)."""

import numpy as np
import pytest

from repro.obs import Observability
from repro.queries.interface import QueryInterface, QueryResult
from repro.serve import CachedQueries, EpochCache
from tests.conftest import make_system


def result(v):
    return QueryResult(v, 1e-5, 1e-6, coverage=1.0, degraded=False)


class TestEpochCache:
    def test_miss_then_hit(self):
        c = EpochCache(capacity=4)
        assert c.get(("k",), (1,)) is None
        c.put(("k",), (1,), result(7))
        assert c.get(("k",), (1,)).value == 7
        assert c.hits == 1 and c.misses == 1

    def test_token_mismatch_invalidates(self):
        c = EpochCache(capacity=4)
        c.put(("k",), (1,), result(7))
        assert c.get(("k",), (2,)) is None
        assert c.invalidations == 1
        assert len(c) == 0  # the stale entry is dropped, not kept

    def test_lru_eviction(self):
        c = EpochCache(capacity=2)
        c.put(("a",), (1,), result(1))
        c.put(("b",), (1,), result(2))
        assert c.get(("a",), (1,)) is not None   # refresh "a"
        c.put(("c",), (1,), result(3))           # evicts "b"
        assert c.evictions == 1
        assert c.get(("b",), (1,)) is None
        assert c.get(("a",), (1,)) is not None
        assert c.get(("c",), (1,)) is not None

    def test_size_gauge_tracks(self):
        obs = Observability()
        c = EpochCache(capacity=4, obs=obs)
        c.put(("a",), (1,), result(1))
        c.put(("b",), (1,), result(2))
        assert obs.registry.value("serve.cache.size") == 2
        c.clear()
        assert obs.registry.value("serve.cache.size") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochCache(capacity=-1)

    def test_capacity_zero_is_a_true_bypass(self):
        c = EpochCache(capacity=0)
        c.put(("k",), (1,), result(7))
        assert len(c) == 0           # nothing stored
        assert c.evictions == 0      # and no insert-then-evict accounting
        assert c.get(("k",), (1,)) is None
        assert c.misses == 1 and c.hits == 0 and c.invalidations == 0

    def test_capacity_zero_size_gauge_stays_zero(self):
        obs = Observability()
        c = EpochCache(capacity=0, obs=obs)
        for i in range(5):
            c.put(("k", i), (1,), result(i))
        assert obs.registry.value("serve.cache.size") == 0
        assert obs.registry.value("serve.cache.evictions") == 0


class TestCachedQueries:
    def setup_method(self):
        self.cluster, self.ents, self.concord = make_system(seed=11)
        self.queries = QueryInterface(self.cluster, self.concord.tracing)
        self.cq = CachedQueries(self.queries)
        self.engine = self.concord.tracing
        h = next(iter(self.engine.shards[0].hashes()))
        self.h = int(h)
        self.eids = sorted(self.cluster.all_entity_ids())

    def test_repeat_nodewise_hits_and_matches(self):
        r1, hit1 = self.cq.query("num_copies", (self.h,), 1)
        r2, hit2 = self.cq.query("num_copies", (self.h,), 1)
        assert (hit1, hit2) == (False, True)
        assert r1 == r2 == self.queries.num_copies(self.h, 1)

    def test_issuing_node_is_part_of_the_key(self):
        self.cq.query("num_copies", (self.h,), 0)
        _r, hit = self.cq.query("num_copies", (self.h,), 1)
        assert not hit  # different issuing node => different latency

    def test_update_to_home_shard_invalidates(self):
        self.cq.query("num_copies", (self.h,), 0)
        self.engine.route_updates(0, inserts=[(self.h, 5)], removes=[])
        r, hit = self.cq.query("num_copies", (self.h,), 0)
        assert not hit
        assert r == self.queries.num_copies(self.h, 0)

    def test_update_to_other_shard_keeps_entry_hot(self):
        home = self.engine.home_node(self.h)
        self.cq.query("num_copies", (self.h,), 0)
        # Manufacture a hash homed elsewhere and insert it.
        other = next(x for x in range(1, 10_000)
                     if self.engine.home_node(x) != home)
        self.engine.route_updates(0, inserts=[(other, 5)], removes=[])
        _r, hit = self.cq.query("num_copies", (self.h,), 0)
        assert hit  # precise per-shard invalidation, not global

    def test_collective_hits_and_any_update_invalidates(self):
        r1, hit1 = self.cq.query("sharing", (self.eids,))
        r2, hit2 = self.cq.query("sharing", (self.eids,))
        assert (hit1, hit2) == (False, True)
        assert r1 == r2
        self.engine.route_updates(0, inserts=[(12345, 2)], removes=[])
        _r3, hit3 = self.cq.query("sharing", (self.eids,))
        assert not hit3  # collective answers cover every shard

    def test_failover_invalidates_nodewise(self):
        self.cq.query("num_copies", (self.h,), 0)
        self.concord.fail_node(self.engine.home_node(self.h))
        r, hit = self.cq.query("num_copies", (self.h,), 0)
        assert not hit
        assert r == self.queries.num_copies(self.h, 0)

    def test_store_takes_the_lookups_token_while_the_epoch_stands(
            self, monkeypatch):
        as_of = self.engine.membership.global_epoch
        token, miss = self.cq.lookup("num_copies", (self.h,), 0)
        assert miss is None
        assert token == self.cq.nodewise_token(self.h)
        answer = self.queries.num_copies(self.h, 0)
        routes = []
        home_node = self.engine.home_node
        monkeypatch.setattr(self.engine, "home_node",
                            lambda h: routes.append(h) or home_node(h))
        self.cq.store("num_copies", (self.h,), 0, answer, token, as_of)
        assert not routes                       # not routed again
        assert self.cq.lookup("num_copies", (self.h,), 0) == (token, answer)
        assert not routes                       # nor by the hit

    def test_store_rederives_a_token_the_epoch_has_left_behind(self):
        as_of = self.engine.membership.global_epoch
        token, _miss = self.cq.lookup("num_copies", (self.h,), 0)
        other = next(n for n in range(self.cluster.n_nodes)
                     if n != token[0])
        self.concord.fail_node(other)           # bumps every epoch
        answer = self.queries.num_copies(self.h, 0)
        self.cq.store("num_copies", (self.h,), 0, answer, token, as_of)
        fresh = self.cq.nodewise_token(self.h)
        assert fresh != token
        assert self.cq.cache._map[("num_copies", self.h, 0)] == (fresh,
                                                                 answer)
        assert self.cq.query("num_copies", (self.h,), 0) == (answer, True)
        assert self.cq.cache.invalidations == 0

    def test_generic_dispatch_all_ops(self):
        for op, args in [("num_copies", (self.h,)),
                         ("entities", (self.h,)),
                         ("sharing", (tuple(self.eids),)),
                         ("intra_sharing", (tuple(self.eids),)),
                         ("inter_sharing", (tuple(self.eids),)),
                         ("degree_of_sharing", (tuple(self.eids),)),
                         ("num_shared_content", (tuple(self.eids), 2)),
                         ("shared_content", (tuple(self.eids), 2))]:
            r1, _ = self.cq.query(op, args, issuing_node=1)
            r2, hit = self.cq.query(op, args, issuing_node=1)
            assert hit, op
            assert r1 == r2, op
        with pytest.raises(ValueError):
            self.cq.query("nope", (1,))

    def test_verify_mode_counts_no_violations_when_honest(self):
        cq = CachedQueries(self.queries, verify=True)
        for _ in range(3):
            cq.query("num_copies", (self.h,), 0)
            cq.query("sharing", (self.eids,))
        assert cq.violations == []
        assert cq.obs.registry.value("serve.cache.violations") == 0

    def test_verify_mode_flags_forged_entry(self):
        cq = CachedQueries(self.queries, verify=True)
        r, _ = cq.query("num_copies", (self.h,), 0)
        key = ("num_copies", self.h, 0)
        token = cq.nodewise_token(self.h)
        forged = QueryResult(r.value + 99, r.latency, r.compute_time,
                             r.coverage, r.degraded)
        cq.cache.put(key, token, forged)
        fresh, hit = cq.query("num_copies", (self.h,), 0)
        assert hit                          # a hit, but not the forged one:
        assert fresh.value == r.value       # self-healed
        assert len(cq.violations) == 1
        assert cq.obs.registry.value("serve.cache.violations") == 1
        assert cq.query("num_copies", (self.h,), 0) == (fresh, True)
        assert len(cq.violations) == 1      # the entry was replaced


class TestCollectiveKeys:
    """A collective entry is keyed by ``(op, *args)`` as given, a list of
    ids made a tuple; what that must not change is which calls share an
    entry, nor what the query is run with."""

    def setup_method(self):
        self.cluster, _ents, concord = make_system(seed=11)
        self.queries = QueryInterface(self.cluster, concord.tracing)
        self.eids = sorted(self.cluster.all_entity_ids())

    def test_unhashable_entity_list_is_accepted_and_shares_the_entry(self):
        cq = CachedQueries(self.queries)
        r1, hit1 = cq.query("sharing", (list(self.eids),))
        r2, hit2 = cq.query("sharing", (list(self.eids),))
        r3, hit3 = cq.query("sharing", (tuple(self.eids),))
        assert (hit1, hit2, hit3) == (False, True, True)
        assert r1 == r2 == r3 == self.queries.sharing(self.eids)
        assert len(cq.cache) == 1

    def test_python_and_numpy_ids_hit_the_same_entry(self):
        cq = CachedQueries(self.queries)
        as_numpy = tuple(np.int64(e) for e in self.eids)
        as_uint = tuple(np.uint32(e) for e in self.eids)
        r1, hit1 = cq.query("num_shared_content", (as_numpy, np.int64(2)))
        r2, hit2 = cq.query("num_shared_content", (tuple(self.eids), 2))
        r3, hit3 = cq.query("num_shared_content", (as_uint, 2))
        assert (hit1, hit2, hit3) == (False, True, True)
        assert r1 == r2 == r3 == self.queries.num_shared_content(
            self.eids, 2)
        assert len(cq.cache) == 1
        (key,) = cq.cache._map
        assert key[1] is as_numpy           # the args tuple, not a copy

    def test_numpy_ids_reach_the_query_as_python_ints(self):
        cq = CachedQueries(self.queries, verify=True)
        seen = []
        sharing = self.queries.sharing
        self.queries.sharing = lambda ids: seen.append(ids) or sharing(ids)
        as_numpy = tuple(np.int64(e) for e in self.eids)
        cq.query("sharing", (as_numpy,))
        cq.query("sharing", (as_numpy,))    # a hit, shadow-executed
        assert len(seen) == 2
        assert all(ids == self.eids and all(type(e) is int for e in ids)
                   for ids in seen)
        assert cq.violations == []

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_distinct_entity_sets_stay_bounded_by_capacity(self, capacity):
        cq = CachedQueries(self.queries, capacity=capacity)
        for k in range(1, 60):
            r, _hit = cq.query("num_shared_content", (tuple(self.eids), k))
            assert r == self.queries.num_shared_content(self.eids, k)
            assert len(cq.cache) <= capacity


class TestCapacityZeroBypass:
    def setup_method(self):
        self.cluster, self.ents, self.concord = make_system(seed=11)
        self.queries = QueryInterface(self.cluster, self.concord.tracing)
        self.cq = CachedQueries(self.queries, capacity=0)
        h = next(iter(self.concord.tracing.shards[0].hashes()))
        self.h = int(h)
        self.eids = sorted(self.cluster.all_entity_ids())

    def test_never_hits_but_answers_match_uncached(self):
        for _ in range(2):
            r, hit = self.cq.query("num_copies", (self.h,), 0)
            assert not hit
            assert r == self.queries.num_copies(self.h, 0)
            r, hit = self.cq.query("sharing", (self.eids,))
            assert not hit
            assert r == self.queries.sharing(self.eids)
        assert len(self.cq.cache) == 0
        assert self.cq.cache.evictions == 0

    def test_store_on_a_bypass_routes_nothing(self, monkeypatch):
        # Nothing is stored, so there is nothing to key: no home_node, no
        # shard epoch, with or without a handed-down token.
        engine = self.concord.tracing
        answer = self.queries.num_copies(self.h, 0)

        def routed(_h):
            raise AssertionError("store routed a hash on a bypass cache")
        monkeypatch.setattr(engine, "home_node", routed)
        self.cq.store("num_copies", (self.h,), 0, answer)
        self.cq.store("num_copies", (self.h,), 0, answer, (0, 0),
                      engine.membership.global_epoch)
        assert len(self.cq.cache) == 0

    def test_serve_config_accepts_zero(self):
        from repro.serve.config import ServeConfig
        assert ServeConfig(cache_capacity=0).cache_capacity == 0
        with pytest.raises(ValueError):
            ServeConfig(cache_capacity=-1)


class TestCacheIsolation:
    def test_two_instances_do_not_share_entries(self):
        _cl, _e, concord = make_system(seed=2)
        q = QueryInterface(_cl, concord.tracing)
        h = int(next(iter(concord.tracing.shards[0].hashes())))
        a, b = CachedQueries(q), CachedQueries(q)
        a.query("num_copies", (h,), 0)
        _r, hit = b.query("num_copies", (h,), 0)
        assert not hit

    def test_absent_hash_is_cacheable(self):
        _cl, _e, concord = make_system(seed=2)
        q = QueryInterface(_cl, concord.tracing)
        absent = 0xDEAD_BEEF
        cq = CachedQueries(q)
        r1, _ = cq.query("num_copies", (absent,), 0)
        r2, hit = cq.query("num_copies", (absent,), 0)
        assert hit and r1.value == 0 and r1 == r2
