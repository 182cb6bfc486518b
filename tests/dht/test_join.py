"""Unit tests for elastic membership: live join with incremental handoff."""

import numpy as np
import pytest

from repro.dht.engine import ContentTracingEngine
from repro.sim.cluster import Cluster


def make(n_nodes=4, placement="mod", cost="new-cluster", **kw):
    c = Cluster(n_nodes, cost=cost)
    kw.setdefault("use_network", False)
    return c, ContentTracingEngine(c, placement=placement, **kw)


def load(eng, n=200, node=0):
    eng.route_updates(node, inserts=[(h, h % 3) for h in range(1, n + 1)],
                      removes=[])


def join(eng):
    """One atomic join: begin, then cut over at once."""
    eng.membership.begin_join()
    return eng.membership.complete_join()


def shard_states(eng):
    mask = (1 << 80) - 1
    out = []
    for shard in eng.shards:
        hs, lo, wide = shard.se_scan(mask)
        out.append((hs.tolist(), lo.tolist(), wide,
                    shard.n_hashes, shard.n_copies))
    return out


def assert_all_homed(eng):
    for i, shard in enumerate(eng.shards):
        hashes, _lo, _wide = shard.items_arrays()
        if len(hashes):
            assert (eng.membership.partition.home_nodes(hashes) == i).all()


class TestAtomicJoin:
    @pytest.mark.parametrize("placement", ["mod", "hd"])
    def test_rows_rehome_and_nothing_lost(self, placement):
        c, eng = make(placement=placement)
        load(eng)
        before = eng.total_hashes
        rep = join(eng)
        assert rep.node == 4
        assert rep.policy == placement
        assert eng.membership.partition.n_nodes == 5
        assert eng.cluster.n_nodes == 5
        assert eng.total_hashes == before
        assert_all_homed(eng)

    def test_minimal_policies_move_less_than_mod(self):
        def moved(placement):
            c, eng = make(8, placement=placement, cost="old-cluster")
            load(eng, n=2000)
            return join(eng).moved_fraction
        assert moved("hd") < 0.25 < 0.8 < moved("mod")

    def test_report_accounting(self):
        c, eng = make()
        load(eng, n=300)
        rep = join(eng)
        assert rep.entries_total == 300
        assert 0 <= rep.entries_moved <= rep.entries_total
        # An atomic join has no divergence window: the pre-copy already
        # holds exactly the new node's range.
        assert rep.delta_inserts == 0
        assert rep.delta_removes == 0
        assert rep.precopied == eng.shards[rep.node].n_hashes

    def test_grows_storage_and_epochs(self):
        c, eng = make()
        load(eng)
        epochs_before = eng.membership.epoch_vector()
        join(eng)
        assert len(eng.shards) == 5
        assert len(eng.storage.shards) == 5
        assert len(eng.membership.epoch_vector()) == 5
        # Cutover bumps every epoch so the serve cache invalidates.
        assert (eng.membership.epoch_vector()[:4] > epochs_before).all()

    def test_metrics_counters(self):
        c, eng = make()
        load(eng)
        rep = join(eng)
        reg = eng.obs.registry
        assert reg.counter("ring.joins").value == 1
        assert reg.counter("ring.entries_moved").value == rep.entries_moved
        assert reg.gauge("ring.n_nodes").value == 5


class TestIncrementalJoin:
    def test_live_writes_between_phases_reconcile(self):
        c, eng = make()
        load(eng, n=200)
        node = eng.membership.begin_join()
        # The old ring still routes while the join is pending.
        assert eng.membership.partition.n_nodes == 4
        eng.route_updates(0, inserts=[(h, 1) for h in range(500, 560)],
                          removes=[(h, h % 3) for h in range(1, 20)])
        rep = eng.membership.complete_join()
        assert rep.node == node
        assert eng.total_hashes == 200 - 19 + 60
        assert_all_homed(eng)
        # Divergence since begin_join moved incrementally, not wholesale.
        assert rep.delta_inserts + rep.delta_removes > 0
        assert rep.delta_inserts <= 60
        assert rep.delta_removes <= 19

    def test_double_begin_raises(self):
        c, eng = make()
        eng.membership.begin_join()
        with pytest.raises(RuntimeError):
            eng.membership.begin_join()

    def test_complete_without_begin_raises(self):
        c, eng = make()
        with pytest.raises(RuntimeError):
            eng.membership.complete_join()

    def test_failure_during_pending_join(self):
        c, eng = make()
        load(eng, n=200)
        eng.membership.begin_join()
        c.network.set_node_up(2, False)
        eng.membership.refresh_failed()
        rep = eng.membership.complete_join()
        assert not eng.membership.partition.is_alive(2)
        assert_all_homed(eng)
        assert rep.node == 4

    def test_queries_consistent_across_join(self):
        c, eng = make()
        load(eng, n=100)
        before = {h: eng.lookup_copies(h) for h in range(1, 101)}
        eng.membership.begin_join()
        eng.membership.complete_join()
        after = {h: eng.lookup_copies(h) for h in range(1, 101)}
        assert before == after

    def test_join_equals_fresh_engine_at_final_size(self):
        # The zero-hop map after a join is the same map a fresh engine
        # at the grown size computes — no hidden membership state.
        c1, e1 = make(4)
        load(e1, n=150)
        join(e1)
        c2, e2 = make(5)
        load(e2, n=150)
        assert shard_states(e1) == shard_states(e2)

    def test_repeated_joins(self):
        c, eng = make(2)
        load(eng, n=100)
        for expect in (3, 4, 5):
            join(eng)
            assert eng.membership.partition.n_nodes == expect
            assert eng.total_hashes == 100
            assert_all_homed(eng)
        assert eng.membership.coverage == 1.0
