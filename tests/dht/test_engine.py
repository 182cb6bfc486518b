"""Unit tests for the distributed content tracing engine."""

from repro.dht.engine import ContentTracingEngine
from repro.sim.cluster import Cluster


def make(n_nodes=4, use_network=False):
    c = Cluster(n_nodes)
    return c, ContentTracingEngine(c, use_network=use_network)


class TestDirectApply:
    def test_insert_routes_to_home_shard(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(123, 0)], removes=[])
        home = eng.home_node(123)
        assert eng.shards[home].entity_ids(123) == [0]
        for i, s in enumerate(eng.shards):
            if i != home:
                assert 123 not in s

    def test_lookup_helpers(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(9, 1), (9, 2), (9, 2)], removes=[])
        assert eng.lookup_mask(9) == 0b110
        assert eng.lookup_copies(9) == 3

    def test_remove(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(9, 1)], removes=[])
        eng.route_updates(0, inserts=[], removes=[(9, 1)])
        assert eng.lookup_mask(9) == 0
        assert eng.total_hashes == 0

    def test_totals(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(h, 0) for h in range(100)], removes=[])
        assert eng.total_hashes == 100
        assert eng.total_copies == 100
        assert sum(eng.shard_sizes()) == 100

    def test_attaches_shards_to_nodes(self):
        c, eng = make()
        for node, shard in zip(c.nodes, eng.shards):
            assert node.dht is shard

    def test_clear(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(1, 0)], removes=[])
        eng.clear()
        assert eng.total_hashes == 0


class TestNetworkedApply:
    def test_updates_travel_and_apply(self):
        c, eng = make(use_network=True)
        eng.route_updates(0, inserts=[(h, 0) for h in range(200)], removes=[])
        c.engine.run()
        assert eng.total_hashes == 200
        assert eng.stats.updates_applied == 200
        assert eng.stats.batches_sent >= 4  # spread over 4 home nodes

    def test_batching_respects_batch_size(self):
        c = Cluster(1)  # single node: everything to one home
        eng = ContentTracingEngine(c, use_network=True, batch_size=64)
        eng.route_updates(0, inserts=[(h, 0) for h in range(200)], removes=[])
        c.engine.run()
        # 200 updates to one destination in batches of <= 64 -> 4 batches
        assert eng.stats.batches_sent == 4

    def test_loss_leaves_view_stale(self):
        """Saturating the network loses updates; the DHT view just misses
        entries — the platform stays best-effort, never wrong."""
        c = Cluster(4, cost="new-cluster")
        eng = ContentTracingEngine(c, use_network=True)
        n = 60000
        for node in range(4):
            eng.route_updates(node,
                              inserts=[(node * n + i, 0) for i in range(n)],
                              removes=[])
        c.engine.run()
        applied = eng.total_hashes
        assert applied <= 4 * n
        assert applied == eng.stats.updates_applied
        lost = c.network.stats.updates_lost
        assert applied + lost == 4 * n

    def test_remove_of_lost_insert_is_noop(self):
        c, eng = make(use_network=True)
        eng.route_updates(0, inserts=[], removes=[(777, 3)])
        c.engine.run()
        assert eng.total_hashes == 0
        assert eng.total_copies == 0

    def test_representation_factor_scales_wire_updates(self):
        c = Cluster(2)
        eng = ContentTracingEngine(c, use_network=True, n_represented=16)
        eng.route_updates(0, inserts=[(1, 0), (2, 0)], removes=[])
        c.engine.run()
        assert c.network.stats.updates_sent == 32


class TestUpdateEpochs:
    """Per-shard update epochs (the serving result cache's invalidation
    signal, docs/SERVING.md)."""

    def test_insert_bumps_only_home_shard(self):
        c, eng = make()
        before = eng.epoch_vector()
        eng.route_updates(0, inserts=[(123, 0)], removes=[])
        home = eng.home_node(123)
        after = eng.epoch_vector()
        assert after[home] == before[home] + 1
        for n in range(4):
            if n != home:
                assert after[n] == before[n]

    def test_remove_bumps_home_shard(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(123, 0)], removes=[])
        home = eng.home_node(123)
        e0 = eng.shard_epoch(home)
        eng.route_updates(0, inserts=[], removes=[(123, 0)])
        assert eng.shard_epoch(home) == e0 + 1

    def test_global_epoch_counts_every_bump(self):
        c, eng = make()
        g0 = eng.global_epoch
        eng.route_updates(0, inserts=[(1, 0), (2, 0), (3, 0)], removes=[])
        touched = len({eng.home_node(h) for h in (1, 2, 3)})
        assert eng.global_epoch == g0 + touched

    def test_networked_apply_bumps_epochs(self):
        c, eng = make(use_network=True)
        g0 = eng.global_epoch
        eng.route_updates(0, inserts=[(7, 0)], removes=[])
        c.engine.run()
        assert eng.global_epoch > g0

    def test_failure_and_repair_bump_all(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(9, 0)], removes=[])
        before = eng.epoch_vector()
        eng.node_failed(2)
        mid = eng.epoch_vector()
        assert (mid > before).all()
        eng.node_restarted(2)
        after = eng.epoch_vector()
        assert (after > mid).all()
        eng.repair()
        assert (eng.epoch_vector() > after).all()

    def test_clear_and_remove_entity_bump_all(self):
        c, eng = make()
        eng.route_updates(0, inserts=[(5, 1)], removes=[])
        g0 = eng.global_epoch
        assert eng.remove_entity(1) == 1
        assert eng.global_epoch == g0 + 1
        eng.clear()
        assert eng.global_epoch == g0 + 2
        assert eng.total_hashes == 0

    def test_epoch_vector_is_a_copy(self):
        c, eng = make()
        v = eng.epoch_vector()
        v[:] = 99
        assert eng.shard_epoch(0) != 99 or eng.epoch_vector()[0] != 99
        assert (eng.epoch_vector() != v).any()
