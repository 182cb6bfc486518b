"""Property-based tests for the tracking pipeline (monitor -> NSM -> DHT).

The pipeline invariant: after any interleaving of writes and monitor
passes, one final scan+flush makes the DHT's multiset equal the ground
truth exactly (when no datagrams are lost).
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity, MonitorMode
from repro.dht.engine import ContentTracingEngine
from repro.dht.table import LocalDHT
from repro.sim.costmodel import NEW_CLUSTER

SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# An op is (entity_idx, page_idx, value, scan_after?).
ops_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 15), st.integers(0, 20),
              st.booleans()),
    max_size=60)


def dht_multiset(concord) -> Counter:
    """(hash -> copies) across all shards."""
    out: Counter = Counter()
    for shard in concord.tracing.shards:
        for h, mask in shard.items():
            copies = mask.bit_count()
            for _e, extra in shard.extra_copies(h).items():
                copies += extra
            out[h] += copies
    return out


def truth_multiset(cluster) -> Counter:
    out: Counter = Counter()
    for e in cluster.entities.values():
        for h in e.content_hashes().tolist():
            out[int(h)] += 1
    return out


class TestConvergence:
    @SLOW
    @given(ops_strategy,
           st.sampled_from([MonitorMode.PERIODIC_SCAN, MonitorMode.DIRTY_BIT]))
    def test_final_sync_equals_ground_truth(self, ops, mode):
        cluster = Cluster(3, seed=1)
        ents = [Entity.create(cluster, i % 3,
                              np.arange(16, dtype=np.uint64) + 100 * i)
                for i in range(3)]
        concord = ConCORD(cluster, ConCORDConfig(monitor_mode=mode))
        concord.initial_scan()
        for ent_i, page_i, val, scan_after in ops:
            ents[ent_i].write_page(page_i, val)
            if scan_after:
                concord.sync()
        concord.sync()
        assert dht_multiset(concord) == truth_multiset(cluster)

    @SLOW
    @given(ops_strategy)
    def test_write_fault_mode_converges_without_scans(self, ops):
        """True CoW: every write reported at fault time; no periodic scan
        needed beyond the initial one."""
        cluster = Cluster(2, seed=2)
        ents = [Entity.create(cluster, i % 2,
                              np.arange(16, dtype=np.uint64) + 100 * i)
                for i in range(3)]
        concord = ConCORD(cluster, ConCORDConfig(monitor_mode=MonitorMode.COW))
        concord.initial_scan()
        for mon in concord.monitors:
            mon.enable_write_faults()
        for ent_i, page_i, val, _scan in ops:
            ents[ent_i].write_page(page_i, val)
        for mon in concord.monitors:
            mon.flush()
        assert dht_multiset(concord) == truth_multiset(cluster)

    @SLOW
    @given(ops_strategy, st.integers(1, 30))
    def test_throttled_monitor_converges_eventually(self, ops, rate):
        """Throttling defers updates but never loses them: enough flush
        intervals always reach ground truth."""
        cluster = Cluster(2, seed=3)
        ents = [Entity.create(cluster, i % 2,
                              np.arange(8, dtype=np.uint64) + 100 * i)
                for i in range(2)]
        concord = ConCORD(cluster,
                          ConCORDConfig(throttle_updates_per_s=float(rate)))
        for mon in concord.monitors:
            mon.initial_scan()
        for ent_i, page_i, val, _ in ops:
            ents[ent_i % 2].write_page(page_i % 8, val)
        for mon in concord.monitors:
            mon.scan()
        # Drain: at most ceil(pending/rate) unit intervals each.
        for mon in concord.monitors:
            for _ in range(200):
                if mon.pending_updates == 0:
                    break
                mon.flush(interval=1.0)
        assert dht_multiset(concord) == truth_multiset(cluster)

    @SLOW
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    def test_detach_removes_exactly_that_entity(self, victims):
        cluster = Cluster(3, seed=4)
        ents = [Entity.create(cluster, i,
                              np.arange(12, dtype=np.uint64) + 50 * i)
                for i in range(3)]
        concord = ConCORD(cluster)
        concord.initial_scan()
        for v in victims:
            concord.detach_entity(ents[v].entity_id)
        survivors = [e for i, e in enumerate(ents) if i not in victims]
        want: Counter = Counter()
        for e in survivors:
            for h in e.content_hashes().tolist():
                want[int(h)] += 1
        assert dht_multiset(concord) == want


# One route_updates call per step, a single op each (datagrams of one call
# are delivered in shuffled order, so an insert and a remove of the same
# pair in one call would race).  A tiny hash universe in both halves of the
# uint64 range forces duplicate pairs (the extra-copy table); entity ids
# beyond 63 exercise the wide spill.
_route_hashes = st.one_of(st.integers(0, 24),
                          st.integers(2**63, 2**63 + 24))
_route_steps = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.tuples(_route_hashes, st.integers(0, 130)),
                       max_size=40)),
    min_size=1, max_size=6)
_BATCH = 4


def _shard_bytes(shard: LocalDHT):
    hashes, lo, wide = shard.items_arrays()
    return (hashes.tobytes(), lo.tobytes(), dict(wide),
            {h: dict(ex) for h, ex in shard.extra_items() if ex},
            shard.n_hashes, shard.n_copies)


class TestRouteUpdatesOnePath:
    @SLOW
    @given(_route_steps, st.booleans(), st.booleans())
    def test_matches_scalar_reference_on_every_transport(
            self, steps, as_array, use_network):
        """A list of pairs and an (n, 2) array, with and without the
        (lossless) network, land exactly what looping the scalar
        insert/remove on per-home tables lands — and advance each home's
        epoch once per applied group / delivered datagram."""
        n_nodes = 3
        cluster = Cluster(n_nodes, seed=5,
                          cost=NEW_CLUSTER.scaled(rx_queue_delay=1e9))
        eng = ContentTracingEngine(cluster, use_network=use_network,
                                   batch_size=_BATCH)
        ref = [LocalDHT() for _ in range(n_nodes)]
        epochs = [0] * n_nodes
        for is_insert, pairs in steps:
            per_home = Counter()
            for h, e in pairs:
                home = eng.membership.partition.home_node(h)
                per_home[home] += 1
                if is_insert:
                    ref[home].insert(h, e)
                else:
                    ref[home].remove(h, e)
            for home, n in per_home.items():
                epochs[home] += -(-n // _BATCH) if use_network else 1
            updates = (np.array(pairs, dtype=np.uint64).reshape(-1, 2)
                       if as_array else pairs)
            if is_insert:
                eng.route_updates(0, inserts=updates, removes=[])
            else:
                eng.route_updates(0, inserts=[], removes=updates)
            cluster.engine.run()
        assert cluster.network.stats.updates_lost == 0
        n_updates = sum(len(pairs) for _op, pairs in steps)
        assert eng.stats.updates_routed == n_updates
        assert eng.stats.updates_applied == n_updates
        assert [eng.membership.shard_epoch(i) for i in range(n_nodes)] == epochs
        assert eng.membership.global_epoch == sum(epochs)
        for shard, want in zip(eng.shards, ref):
            assert _shard_bytes(shard) == _shard_bytes(want)
