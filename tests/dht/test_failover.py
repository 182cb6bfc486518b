"""Unit tests for shard failover, rejoin, and anti-entropy repair
(docs/FAULTS.md): the tracing engine must keep routing around dead home
shards and be able to rebuild any range from the monitors' ground truth.
"""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.sim.faults import FaultPlan


def make_tracked(n_nodes=4, pages=64, seed=9):
    cluster = Cluster(n_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, 200, size=pages).astype(np.uint64))
            for node in range(n_nodes)]
    concord = ConCORD(cluster, ConCORDConfig(use_network=False))
    concord.initial_scan()
    return cluster, ents, concord


def all_hashes(ents):
    return np.unique(np.concatenate([e.content_hashes() for e in ents]))


class TestFailover:
    def test_fail_node_drops_coverage_and_reroutes(self):
        _cluster, ents, concord = make_tracked()
        eng = concord.tracing
        baseline = eng.total_hashes
        concord.fail_node(2)
        assert eng.stats.failovers == 1
        assert concord.coverage == pytest.approx(3 / 4)
        assert eng.total_hashes < baseline      # shard 2's data is gone
        # Every hash still routes to a live home (the ring successor).
        for h in all_hashes(ents).tolist():
            assert eng.home_node(int(h)) != 2
        # Hashes primarily homed on node 2 are exactly the non-intact ones.
        hs = all_hashes(ents)
        intact = eng.hashes_intact(hs)
        prim = eng.membership.partition.primary_nodes(hs)
        assert (intact == (prim != 2)).all()

    def test_is_degraded_is_the_holed_range_and_routes_only_when_holed(
            self, monkeypatch):
        _cluster, ents, concord = make_tracked()
        eng = concord.tracing
        hs = all_hashes(ents).tolist()
        routed = []
        primary = eng.membership.partition.primary_node
        monkeypatch.setattr(eng.membership.partition, "primary_node",
                            lambda h: routed.append(h) or primary(h))
        # Every range intact: false outright, nothing hashed.
        assert eng.membership.all_intact
        assert not any(eng.is_degraded(h) for h in hs)
        assert not routed
        concord.fail_node(2)
        assert not eng.membership.all_intact
        assert [eng.is_degraded(h) for h in hs] == \
            [not ok for ok in eng.hashes_intact(hs).tolist()]
        assert any(eng.is_degraded(h) for h in hs)
        # One definition: the scalar queries report exactly it.
        for h in hs[:16]:
            assert concord.queries.num_copies(h).degraded == \
                concord.queries.entities(h).degraded == eng.is_degraded(h)
        concord.repair()
        assert eng.membership.all_intact and not eng.is_degraded(hs[0])

    def test_fail_node_idempotent(self):
        _cluster, _ents, concord = make_tracked()
        concord.fail_node(1)
        concord.fail_node(1)
        assert concord.tracing.stats.failovers == 1
        assert concord.coverage == pytest.approx(3 / 4)

    def test_fail_node_loses_the_shards_ram_once(self, monkeypatch):
        _cluster, _ents, concord = make_tracked()
        shard = concord.tracing.shards[2]
        crashes = []
        crash = shard.crash
        monkeypatch.setattr(shard, "crash",
                            lambda: crashes.append(1) or crash())
        concord.fail_node(2)
        assert len(crashes) == 1 and shard.n_copies == 0

    def test_cascading_failures_reroute_through_successors(self):
        _cluster, ents, concord = make_tracked()
        concord.fail_node(1)
        concord.fail_node(2)
        assert concord.coverage == pytest.approx(2 / 4)
        for h in all_hashes(ents).tolist():
            assert concord.tracing.home_node(int(h)) in (0, 3)

    def test_refresh_failed_detects_network_down_nodes(self):
        cluster, _ents, concord = make_tracked()
        cluster.network.set_node_up(3, False)
        membership = concord.tracing.membership
        assert membership.refresh_failed() == [3]
        assert membership.refresh_failed() == []   # already processed
        assert concord.coverage == pytest.approx(3 / 4)

    def test_refresh_failed_skips_the_ring_while_every_nic_is_up(
            self, monkeypatch):
        cluster, _ents, concord = make_tracked()
        membership = concord.tracing.membership
        walked = []
        is_alive = membership.partition.is_alive
        monkeypatch.setattr(membership.partition, "is_alive",
                            lambda n: walked.append(n) or is_alive(n))
        epoch = membership.global_epoch
        assert membership.refresh_failed() == []
        assert not walked and membership.global_epoch == epoch
        cluster.network.set_node_up(1, False)
        assert membership.refresh_failed() == [1]
        assert walked

    def test_live_shards_lazily_detects(self):
        cluster, _ents, concord = make_tracked()
        cluster.network.set_node_up(0, False)
        shards = concord.tracing.live_shards()
        assert len(shards) == 3
        assert concord.coverage == pytest.approx(3 / 4)

    def test_last_alive_node_is_refused_before_anything_moves(self):
        """Failing the last ring member raises and changes nothing: not
        the shard, the holed ranges, coverage, the epochs, the NIC — so
        a cached answer stays equal to the uncached one."""
        cluster, _ents, concord = make_tracked(n_nodes=2)
        eng = concord.tracing
        concord.fail_node(1)
        h = int(next(iter(eng.shards[0].hashes())))
        fe = concord.frontend()

        def served():
            got = []
            fe.submit("num_copies", (h,), on_done=got.append)
            cluster.engine.run()
            return got[0]

        first = served()
        mask = (1 << 80) - 1

        def state():
            hs, lo, wide = eng.shards[0].se_scan(mask)
            m = eng.membership
            return (hs.tolist(), lo.tolist(), wide, m._intact.tolist(),
                    m.coverage, m.epoch_vector().tolist(), m.global_epoch,
                    bool(cluster.network.node_up[0]))

        before = state()
        assert before[4] == 0.5
        for fail in (eng.membership.node_failed, concord.fail_node):
            with pytest.raises(ValueError, match="last alive node"):
                fail(0)
            assert state() == before
            again = served()
            assert again.cache_hit
            assert again.answer == first.answer == concord.num_copies(h)

    @pytest.mark.parametrize("use_network", [False, True])
    def test_detect_from_a_dead_node_is_refused_before_any_probe(
            self, use_network):
        """Every probe from a dead issuer is dropped at its own NIC, so
        each live peer would look dead: refused before anything moves."""
        cluster = Cluster(4, seed=9)
        rng = np.random.default_rng(9)
        for node in range(4):
            Entity.create(cluster, node,
                          rng.integers(0, 200, size=64).astype(np.uint64))
        concord = ConCORD(cluster, ConCORDConfig(use_network=use_network))
        concord.initial_scan()
        concord.fail_node(0)
        m = concord.tracing.membership
        alive = m.partition.alive_nodes().tolist()
        coverage = concord.coverage
        sizes = concord.tracing.shard_sizes()
        assert alive == [1, 2, 3] and all(sizes[1:])
        for issuer in (0, 4, -1):
            with pytest.raises(ValueError, match=f"node {issuer}"):
                concord.detect_failures(issuing_node=issuer)
            assert m.partition.alive_nodes().tolist() == alive
            assert concord.coverage == coverage
            assert concord.tracing.shard_sizes() == sizes
        assert concord.detect_failures(issuing_node=1) == []


class TestRejoin:
    def test_restart_routes_ranges_back_but_holed(self):
        _cluster, _ents, concord = make_tracked()
        eng = concord.tracing
        concord.fail_node(2)
        concord.repair()                        # successor now holds range 2
        assert concord.coverage == 1.0
        concord.restart_node(2)
        assert eng.stats.rejoins == 1
        # Range 2 routes home again but its data died with the crash.
        assert concord.coverage == pytest.approx(3 / 4)
        assert not eng.membership._intact[2]
        # The failover owner was purged: no stale copies answer for range 2.
        hs = all_hashes(_ents)
        prim = eng.membership.partition.primary_nodes(hs)
        for h in hs[prim == 2].tolist():
            assert eng.lookup_mask(int(h)) == 0

    def test_restart_of_an_undetected_crash_holes_its_ranges(self):
        # The node dies and comes back before anyone notices: its shard
        # RAM is gone, so the restart must hole its range and advance
        # every epoch (a cached answer from before the crash is stale),
        # exactly as a detected crash and restart would.
        cluster, _ents, concord = make_tracked()
        eng = concord.tracing
        before = eng.membership.epoch_vector()
        cluster.network.set_node_up(2, False)       # no node_failed()
        eng.shards[2].crash()
        concord.restart_node(2)
        assert eng.stats.failovers == eng.stats.rejoins == 1
        assert concord.coverage == pytest.approx(3 / 4)
        assert not eng.membership._intact[2]
        assert (eng.membership.epoch_vector() > before).all()
        concord.repair()
        assert concord.coverage == 1.0

    def test_plan_kill_then_restart_holes_its_ranges(self):
        # The same crash and restart through a FaultPlan, with no probe or
        # query between them, end where restart_node ends.
        cluster, _ents, concord = make_tracked()
        eng = concord.tracing
        before = eng.membership.epoch_vector()
        t = cluster.engine.now
        concord.inject_faults(FaultPlan().kill(t + 1, 2).restart(t + 2, 2)
                              .restart(t + 3, 1))   # never down: no-op
        cluster.engine.run()
        assert eng.stats.failovers == eng.stats.rejoins == 1
        assert not eng.membership._intact[2]
        assert concord.coverage == pytest.approx(3 / 4)
        assert (eng.membership.epoch_vector() > before).all()
        assert all(cluster.network.node_up)
        concord.repair()
        assert concord.coverage == 1.0

    def test_restart_of_alive_node_is_noop(self):
        _cluster, _ents, concord = make_tracked()
        concord.restart_node(1)
        assert concord.tracing.stats.rejoins == 0
        assert concord.coverage == 1.0


class TestRepair:
    def test_repair_restores_exact_prefailure_state(self):
        _cluster, ents, concord = make_tracked()
        eng = concord.tracing
        before = {int(h): eng.lookup_mask(int(h))
                  for h in all_hashes(ents).tolist()}
        n_before = eng.total_hashes
        concord.fail_node(1)
        concord.restart_node(1)
        report = concord.repair()
        assert report.ranges_repaired >= 1
        assert report.nodes_scanned == 4
        assert concord.coverage == 1.0
        assert eng.total_hashes == n_before
        after = {h: eng.lookup_mask(h) for h in before}
        assert after == before

    def test_repair_noop_when_intact(self):
        _cluster, _ents, concord = make_tracked()
        report = concord.repair()
        assert report.ranges_repaired == 0
        assert report.hashes_restored == 0

    def test_full_repair_heals_arbitrary_holes(self):
        """full=True is a complete anti-entropy pass: even damage the
        intact flags never saw (e.g. lost datagrams) is rebuilt."""
        _cluster, ents, concord = make_tracked()
        eng = concord.tracing
        before = {int(h): eng.lookup_mask(int(h))
                  for h in all_hashes(ents).tolist()}
        eng.shards[0].clear()                   # silent damage
        report = concord.repair(full=True)
        assert report.ranges_repaired == 4
        assert {h: eng.lookup_mask(h) for h in before} == before

    def test_dead_entities_do_not_reappear(self):
        """Entities hosted on a dead node contribute nothing to repair:
        their memory is gone with the node."""
        cluster, ents, concord = make_tracked()
        eng = concord.tracing
        victim_hashes = set(ents[3].content_hashes().tolist())
        others = set(np.concatenate(
            [e.content_hashes() for e in ents[:3]]).tolist())
        only_victims = victim_hashes - others
        assert only_victims                    # seed gives node 3 unique pages
        concord.fail_node(3)
        concord.repair(full=True)
        assert concord.coverage == 1.0
        for h in only_victims:
            assert eng.lookup_mask(int(h)) == 0
        for h in others:
            assert eng.lookup_mask(int(h)) != 0
