"""The update-epoch result cache (docs/SERVING.md).

The cache's schedule properties — cached == ``cache_capacity=0`` ==
``verify_cache`` after any interleaving of updates, faults, repairs,
joins and queries, and every routing or coverage change advancing every
shard epoch — are invariants of the system state machine
(tests/properties/machine.py).  Here: a run of that machine focused on
query bursts between updates, faults and repairs; its epoch rules over
one fixed sequence that reaches every operation; and the detection path
of a home killed *without* detection between store and lookup, on twin
systems.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.obs import Observability
from repro.serve import CachedQueries, QueryFrontend
from repro.util import page_hash
from tests.properties.machine import (ALL_IDS, CONFIGS, ENTITY_NODES, FAULTY_NODES,
                                      N_NODES, OLD_IDS, SystemMachine, focused,
                                      schedules)

N_PAGES = 48


def build(seed: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, OLD_IDS, size=N_PAGES).astype(np.uint64))
            for node in ENTITY_NODES]
    concord = ConCORD(cluster, ConCORDConfig(use_network=False))
    concord.initial_scan()
    return cluster, ents, concord


# -- the invariant the self-validating hit rests on ---------------------------------
#
# A cached node-wise entry is served while its stored home is up and that
# shard's epoch stands where it stood at the store (serve/cache.py
# ``CachedQueries.lookup``).  That is exact only if every engine operation
# that can move ``home(h)`` or coverage advances *every* shard epoch.

# Every rule at least once, the warm restart with a commit to recover,
# the repairs with damage to repair, a join cut over with a holed range
# and with none, an unnoticed crash found by each of the probe, the
# cutover, a repair and a ``FaultPlan`` restart, and a clean process exit
# with a node down, which then rejoins warm from its last commit.
EVERY_RULE = [
    ("flush", {}), ("write", {"entity": 7, "page": 1, "value": 47}),
    ("kill", {"node": 2}), ("repair", {"mode": "replay"}),
    ("restart", {"node": 2, "warm": True, "via": "call"}), ("repair", {"mode": "delta"}),
    ("kill", {"node": 3}), ("begin_join", {}),
    ("write", {"entity": 65, "page": 3, "value": 49}),
    ("complete_join", {}), ("restart", {"node": 3, "warm": False, "via": "call"}),
    ("repair", {"mode": "recon"}), ("repair", {"mode": "full"}),
    ("crash", {"node": 2}), ("detect_failures", {}),
    ("restart", {"node": 2, "warm": False, "via": "call"}), ("begin_join", {}),
    ("crash", {"node": 3}), ("complete_join", {}),
    ("restart", {"node": 3, "warm": False, "via": "call"}), ("crash", {"node": 2}),
    ("repair", {"mode": "delta"}), ("restart", {"node": 2, "warm": False, "via": "call"}),
    ("crash", {"node": 3}), ("restart", {"node": 3, "warm": False, "via": "plan"}),
    ("query", {"queries": [("num_copies", 47), ("sharing", 1),
                           ("num_shared_content", 2)]}),
    ("detach", {"entity": 65}),
    ("kill", {"node": 2}), ("restart_process", {"mode": "delta", "lost": None}),
    ("restart", {"node": 2, "warm": True, "via": "call"}),
    ("restart_process", {"mode": "recon", "lost": None}),
    ("restart_process", {"mode": "recon", "lost": (1, 2, 52)}),
    ("remove_entity", {"entity": 1}), ("clear", {}),
]


class TestCacheEquivalence:
    # The frontends answer alike after every rule; at teardown a repeated
    # ``num_copies`` sweep over every content ID hits with the same answers.
    @focused()
    @given(schedules("query", "kill", "restart", "repair", "write"),
           st.integers(0, 3))
    def test_cached_answers_equal_uncached(self, rules, seed):
        SystemMachine().replay(rules, drawn=True, seed=seed,
                               backend="memory", placement="mod")


class TestEpochInvariant:
    def test_routing_and_coverage_changes_advance_every_shard_epoch(self):
        SystemMachine().replay(EVERY_RULE, seed=1, backend="mmap",
                               placement="mod")

    def test_undetected_dead_home_takes_the_detection_path(self):
        # The home dies between store and lookup and nobody has noticed:
        # its epoch has not moved, only ``node_up[home]`` is false.  The
        # cached query must detect the failure exactly as the uncached one
        # does — same answer, same counters, same epochs.
        def system():
            cluster, _ents, concord = build(2)
            return cluster, concord.tracing, concord.queries

        cluster, engine, queries = system()
        ref_cluster, ref_engine, ref_queries = system()
        h = next(page_hash(i) for i in range(OLD_IDS)
                 if engine.home_node(page_hash(i)) in FAULTY_NODES)
        home = engine.home_node(h)
        obs = Observability()
        cached = CachedQueries(queries, obs=obs)
        first, hit = cached.query("num_copies", (h,), 0)
        assert not hit and first == ref_queries.num_copies(h, 0)
        assert cached.query("num_copies", (h,), 0) == (first, True)

        for c, e in ((cluster, engine), (ref_cluster, ref_engine)):
            c.network.set_node_up(home, False)     # no node_failed()
            e.shards[home].crash()
        token, _result = cached.cache._map[("num_copies", h, 0)]
        m = engine.membership
        assert token == (home, m.shard_epoch(home))   # epoch unmoved
        assert m.partition.is_alive(home)             # undetected

        answer, hit = cached.query("num_copies", (h,), 0)
        assert not hit
        assert answer == ref_queries.num_copies(h, 0)
        assert answer != first and answer.degraded
        assert not m.partition.is_alive(home)         # detected now
        assert engine.stats.failovers == ref_engine.stats.failovers == 1
        assert m.epoch_vector().tolist() == \
            ref_engine.membership.epoch_vector().tolist()
        reg = obs.registry
        assert (reg.value("serve.cache.hits"),
                reg.value("serve.cache.misses"),
                reg.value("serve.cache.invalidations")) == (1, 2, 1)
        # And the re-homed answer is cached under its new home.
        assert cached.query("num_copies", (h,), 0) == (answer, True)

    def test_undetected_dead_home_through_the_frontends(self):
        # One twin system per frontend configuration: sharing one engine
        # would let the first frontend's drain do the detecting for the
        # other two, mid-comparison.
        twins = {}
        for name, cfg in CONFIGS.items():
            cluster, _ents, concord = build(2)
            fe = QueryFrontend(
                cluster, concord.queries, cfg,
                obs=Observability(clock=lambda c=cluster: c.engine.now))
            twins[name] = (cluster, concord.tracing, fe)
        victim = FAULTY_NODES[0]
        # Only content homed on the victim: a hit on a live shard before
        # the batch reaches the dead one is answered as of *its* instant
        # (full coverage), where the uncached bulk fill resolves every
        # home first — a difference of instants, not of paths.
        home_of = twins["cached"][1].home_node
        hashes = [h for h in map(page_hash, range(ALL_IDS))
                  if home_of(h) == victim]
        assert len(hashes) > 3

        def sweep():
            streams = {}
            for name, (cluster, _engine, fe) in twins.items():
                got = []
                for i, h in enumerate(hashes):
                    fe.submit("num_copies", (h,), issuing_node=i % N_NODES,
                              on_done=got.append)
                cluster.engine.run()
                streams[name] = got
            answers = {name: [r.answer for r in got]
                       for name, got in streams.items()}
            assert answers["cached"] == answers["bypass"] == answers["verify"]
            return streams["cached"]

        sweep()
        assert all(r.cache_hit for r in sweep())
        for cluster, engine, _fe in twins.values():
            cluster.network.set_node_up(victim, False)   # no node_failed()
            engine.shards[victim].crash()
        after = sweep()
        assert not any(r.cache_hit for r in after)
        assert all(r.answer.degraded for r in after)
        engines = [engine for _c, engine, _fe in twins.values()]
        for engine in engines:
            assert not engine.membership.partition.is_alive(victim)
            assert engine.stats.failovers == 1
            assert engine.membership.epoch_vector().tolist() == \
                engines[0].membership.epoch_vector().tolist()
        for name, (_c, _e, fe) in twins.items():
            assert fe.report().cache_violations == 0, name
