"""Unit tests for the ConCORD facade (bring-up, sync, lifecycle)."""

from operator import add

import numpy as np
import pytest

from repro import (Cluster, ConCORD, ConCORDConfig, Entity, MonitorMode,
                   workloads)
from repro.exec import ops
from repro.queries.reference import ReferenceModel
from tests.conftest import make_system


class TestBringUp:
    def test_components_attached(self):
        cluster, _e, concord = make_system(n_nodes=3)
        assert len(concord.nsms) == 3
        assert len(concord.monitors) == 3
        for node in cluster.nodes:
            assert node.nsm is not None
            assert node.dht is not None

    def test_initial_scan_counts_all_pages(self):
        cluster, ents, _ = make_system(n_nodes=2)
        c2 = ConCORD(cluster)
        assert c2.initial_scan() == sum(e.n_pages for e in ents)

    def test_entities_created_after_bringup_need_attach(self):
        cluster, ents, concord = make_system(n_nodes=2)
        late = Entity.create(cluster, 0, np.array([7, 8], dtype=np.uint64))
        concord.attach_entity(late)
        concord.sync()
        assert concord.entities(
            int(late.content_hashes()[0])).value == {late.entity_id}

    def test_command_on_cluster_without_concord_raises(self):
        from repro import NullService, ServiceScope
        from repro.core.executor import ServiceCommandExecutor
        from repro.dht.engine import ContentTracingEngine

        cluster = Cluster(2)
        e = Entity.create(cluster, 0, np.array([1], dtype=np.uint64))
        tracing = ContentTracingEngine(cluster)
        ex = ServiceCommandExecutor(cluster, tracing)
        with pytest.raises(RuntimeError):
            ex.execute(NullService(), ServiceScope.of([e.entity_id]))


class TestSync:
    def test_sync_reflects_mutation(self):
        cluster, ents, concord = make_system(n_nodes=2)
        e = ents[0]
        e.write_page(0, 424242)
        concord.sync()
        h = int(e.content_hashes()[0])
        assert e.entity_id in concord.entities(h).value

    def test_sync_removes_old_content(self):
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.nasty(2, 16))
        e = ents[0]
        old = int(e.content_hashes()[0])
        e.write_page(0, 424242)
        concord.sync()
        assert concord.num_copies(old).value == 0

    def test_repeated_sync_idempotent(self):
        cluster, ents, concord = make_system(n_nodes=2)
        before = concord.total_tracked_hashes
        assert concord.sync() == 0
        assert concord.sync() == 0
        assert concord.total_tracked_hashes == before

    def test_view_matches_reference_after_sync(self):
        cluster, ents, concord = make_system(n_nodes=4)
        rng = np.random.default_rng(3)
        for e in ents:
            e.mutate_random(0.4, rng)
        concord.sync()
        ref = ReferenceModel(cluster)
        eids = cluster.all_entity_ids()
        assert concord.sharing(eids).value == pytest.approx(ref.sharing(eids))


class TestDetach:
    def test_detach_purges_all_shards(self):
        cluster, ents, concord = make_system(n_nodes=2)
        victim = ents[0]
        h = int(victim.content_hashes()[0])
        concord.detach_entity(victim.entity_id)
        assert victim.entity_id not in concord.entities(h).value
        for shard in concord.tracing.shards:
            for _h, mask in shard.items():
                assert not mask & (1 << victim.entity_id)


class TestConfigurations:
    def test_networked_mode_end_to_end(self):
        cluster = Cluster(4, seed=9)
        ents = workloads.instantiate(cluster, workloads.moldy(4, 64, seed=9))
        concord = ConCORD(cluster, ConCORDConfig(use_network=True))
        concord.initial_scan()
        # Light load: nothing dropped; view matches reference.
        ref = ReferenceModel(cluster)
        eids = cluster.all_entity_ids()
        assert concord.sharing(eids).value == pytest.approx(ref.sharing(eids))

    def test_monitor_mode_configurable(self):
        cluster = Cluster(2)
        workloads.instantiate(cluster, workloads.nasty(2, 16))
        concord = ConCORD(cluster,
                          ConCORDConfig(monitor_mode=MonitorMode.DIRTY_BIT))
        assert all(m.mode is MonitorMode.DIRTY_BIT for m in concord.monitors)

    def test_throttle_configurable(self):
        cluster = Cluster(2)
        workloads.instantiate(cluster, workloads.nasty(2, 64))
        concord = ConCORD(cluster, ConCORDConfig(throttle_updates_per_s=5.0))
        concord.monitors[0].scan()
        assert concord.monitors[0].flush(interval=1.0) == 5

    def test_monitor_stats_exposed(self):
        _c, _e, concord = make_system(n_nodes=2)
        stats = concord.monitor_stats()
        assert len(stats) == 2
        assert all(s.scans >= 1 for s in stats)


class TestMapShards:
    def test_filter_prunes_before_the_fold(self):
        _c, _e, concord = make_system(n_nodes=4)
        mask = (1 << 64) - 1
        per_shard = concord.map_shards(ops.count_at_least, (mask, 1))
        odd = concord.map_shards(ops.count_at_least, (mask, 1),
                                 shard_filter=lambda s: s.node_id % 2 == 1,
                                 reduce_fn=add)
        assert odd == per_shard[1] + per_shard[3]

    def test_folding_zero_shards(self):
        """With ``initial`` the fold of nothing is ``initial``; without
        it, a ``TypeError`` — never a bare ``StopIteration``, which a
        generator caller would see as ``RuntimeError``."""
        _c, _e, concord = make_system(n_nodes=2)
        args = (ops.count_at_least, ((1 << 64) - 1, 1))
        assert concord.map_shards(*args, shard_filter=lambda s: False,
                                  reduce_fn=add, initial=0) == 0
        with pytest.raises(TypeError):
            concord.map_shards(*args, shard_filter=lambda s: False,
                               reduce_fn=add)
