"""Unit tests for the fault-injection plan/injector (docs/FAULTS.md)."""

import pytest

from repro import Cluster, FaultPlan
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind


class TestFaultPlanBuilders:
    def test_builders_chain_and_record_events(self):
        plan = (FaultPlan()
                .set_loss(0.0, 0.25)
                .kill(1.0, 6, 7)
                .partition(2.0, [0, 1], [2, 3])
                .heal(3.0)
                .scale_latency(4.0, 2.5)
                .restart(5.0, 6))
        kinds = [e.kind for e in plan.events]
        assert kinds == [FaultKind.LOSS, FaultKind.KILL, FaultKind.PARTITION,
                         FaultKind.HEAL, FaultKind.LATENCY, FaultKind.RESTART]
        assert plan.events[1].nodes == (6, 7)
        assert plan.events[2].groups == ((0, 1), (2, 3))
        assert plan.events[0].factor == 0.25

    def test_sorted_events_orders_by_time(self):
        plan = FaultPlan().restart(5.0, 1).kill(1.0, 1).set_loss(0.0, 0.1)
        assert [e.time for e in plan.sorted_events()] == [0.0, 1.0, 5.0]

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().set_loss(0.0, 1.5)
        with pytest.raises(ValueError):
            FaultPlan().set_loss(0.0, -0.1)

    def test_latency_factor_validated(self):
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FaultPlan().scale_latency(0.0, factor)

    @pytest.mark.parametrize("build", (
        lambda p: p.kill(float("nan"), 1),
        lambda p: p.kill(-1.0, 0),
        lambda p: p.restart(float("inf"), 1),
        lambda p: p.heal(float("-inf")),
        lambda p: p.set_loss(float("nan"), 0.1),
        lambda p: p.scale_latency(-0.5, 2.0),
        lambda p: p.kill(1.0, -1),
        lambda p: p.restart(1.0, 2, -3),
        lambda p: p.partition(1.0, [0, 1], [-2]),
    ), ids=("kill-nan", "kill-negative-time", "restart-inf", "heal-neg-inf",
            "loss-nan", "latency-negative-time", "kill-negative-node",
            "restart-negative-node", "partition-negative-node"))
    def test_bad_times_and_node_ids_refused_at_build(self, build):
        """A non-finite or negative time, or a negative node id, fails
        where the plan is written, not when (or instead of when) it
        fires."""
        plan = FaultPlan().kill(0.5, 1)
        with pytest.raises(ValueError):
            build(plan)
        assert len(plan.events) == 1       # nothing half-appended

    def test_describe_covers_every_kind(self):
        evs = [FaultEvent(0.0, FaultKind.KILL, nodes=(1,)),
               FaultEvent(0.0, FaultKind.RESTART, nodes=(1,)),
               FaultEvent(0.0, FaultKind.PARTITION, groups=((0,), (1,))),
               FaultEvent(0.0, FaultKind.HEAL),
               FaultEvent(0.0, FaultKind.LOSS, factor=0.5),
               FaultEvent(0.0, FaultKind.LATENCY, factor=2.0)]
        texts = [e.describe() for e in evs]
        assert all(isinstance(t, str) and t for t in texts)
        assert "kill" in texts[0] and "loss" in texts[4]


class TestFaultInjector:
    def test_schedule_applies_events_at_their_times(self):
        cluster = Cluster(4, seed=0)
        plan = (FaultPlan()
                .set_loss(0.0, 0.3)
                .kill(1.0, 2)
                .partition(2.0, [0, 1], [3])
                .restart(3.0, 2)
                .heal(4.0)
                .scale_latency(5.0, 4.0))
        killed, restarted = [], []
        inj = plan.schedule(cluster.network, cluster.engine,
                            on_kill=killed.append, on_restart=restarted.append)
        cluster.engine.run()
        net = cluster.network
        assert killed == [2] and restarted == [2]
        assert net.node_up[2]                  # restarted
        assert net.loss_prob == 0.3
        assert net.latency_scale == 4.0
        assert net.link_ok(0, 3)               # healed
        # Log entries come out in simulated-time order, one per event.
        assert len(inj.log) == 6
        assert [t for t, _ in inj.log] == sorted(t for t, _ in inj.log)

    def test_kill_downs_node_and_partition_blocks_links(self):
        cluster = Cluster(4, seed=0)
        FaultPlan().kill(0.5, 1).partition(1.0, [0], [2, 3]).schedule(
            cluster.network, cluster.engine)
        cluster.engine.run()
        net = cluster.network
        assert not net.node_up[1]
        assert not net.link_ok(0, 2) and not net.link_ok(3, 0)
        assert net.link_ok(2, 3)               # within-group link untouched

    def test_injector_without_callbacks(self):
        cluster = Cluster(2, seed=0)
        inj = FaultInjector(cluster.network)
        inj.apply(FaultEvent(0.0, FaultKind.KILL, nodes=(1,)))
        assert not cluster.network.node_up[1]
        inj.apply(FaultEvent(0.0, FaultKind.RESTART, nodes=(1,)))
        assert cluster.network.node_up[1]
