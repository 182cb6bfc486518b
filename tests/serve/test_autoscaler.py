"""Unit tests for the serve-signal-driven autoscaler."""

import pytest

from repro.serve import AutoscalerConfig
from repro.workloads import TrafficSpec
from tests.conftest import make_system


def make_concord(n_nodes=4, seed=17, **config_kw):
    _cluster, _ents, concord = make_system(n_nodes=n_nodes, seed=seed,
                                           **config_kw)
    return concord


class TestAutoscalerConfig:
    def test_defaults_valid(self):
        AutoscalerConfig()

    @pytest.mark.parametrize("kw", [
        {"max_nodes": -1}, {"check_interval_s": 0.0},
        {"queue_depth_high": -1.0}, {"p95_high_s": -1.0},
        {"reject_rate_high": 1.5}, {"reject_rate_high": -0.1},
        {"cooldown_s": -1.0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AutoscalerConfig(**kw)


class TestAutoscaler:
    def test_arm_twice_raises(self):
        concord = make_concord()
        scaler = concord.autoscaler()
        scaler.arm(deadline=1.0)
        with pytest.raises(RuntimeError):
            scaler.arm(deadline=2.0)

    def test_max_nodes_defaults_to_testbed_cap(self):
        concord = make_concord()
        assert concord.autoscaler().max_nodes == concord.cluster.cost.n_nodes
        capped = concord.autoscaler(AutoscalerConfig(max_nodes=6))
        assert capped.max_nodes == 6

    def test_calm_traffic_does_not_scale(self):
        concord = make_concord()
        spec = TrafficSpec(n_clients=2, duration_s=0.02,
                           rate_per_client=200.0, seed=1)
        concord.serve(spec, autoscale=AutoscalerConfig(
            queue_depth_high=1e9, reject_rate_high=1.0, p95_high_s=1e9))
        scaler = concord._last_autoscaler
        assert scaler.joins == []
        assert concord.cluster.n_nodes == 4

    def test_forced_overload_scales_to_cap(self):
        # queue_depth_high=0 makes any queued request an overload signal,
        # so the scaler joins a node per tick pair until max_nodes.
        concord = make_concord()
        spec = TrafficSpec(n_clients=8, duration_s=0.1,
                           rate_per_client=4000.0, seed=2)
        concord.serve(spec, autoscale=AutoscalerConfig(
            max_nodes=6, queue_depth_high=0.0))
        scaler = concord._last_autoscaler
        assert concord.cluster.n_nodes == 6
        assert len(scaler.joins) == 2
        assert [r.node for r in scaler.joins] == [4, 5]
        # Every join completed; none left dangling.
        assert concord.tracing.membership._pending_join is None
        reg = concord.obs.registry
        assert reg.counter("ring.joins").value == 2
        assert reg.counter("ring.autoscale.scaleups").value == 2

    def test_deadline_completes_pending_join(self):
        # Even if the stream ends between begin and cutover, the scaler's
        # final tick cuts the pending join over so sim.run() terminates
        # with a consistent ring.
        concord = make_concord()
        spec = TrafficSpec(n_clients=8, duration_s=0.02,
                           rate_per_client=4000.0, seed=3)
        # p95_high_s=0: overloaded as soon as any interactive completion
        # lands, so the one mid-stream tick reliably begins a join whose
        # cutover can only happen at the deadline tick.
        concord.serve(spec, autoscale=AutoscalerConfig(
            queue_depth_high=0.0, p95_high_s=0.0, check_interval_s=0.012))
        assert concord.tracing.membership._pending_join is None
        assert concord.cluster.n_nodes >= 5

    def test_queries_stay_correct_after_autoscale(self):
        concord = make_concord()
        hashes = [int(h) for h in concord.tracing.shards[0].hashes()][:10]
        before = {h: concord.num_copies(h).value for h in hashes}
        spec = TrafficSpec(n_clients=8, duration_s=0.05,
                           rate_per_client=4000.0, seed=4)
        rep = concord.serve(spec, autoscale=AutoscalerConfig(
            queue_depth_high=0.0))
        assert concord._last_autoscaler.joins
        assert rep.cache_violations == 0
        after = {h: concord.num_copies(h).value for h in hashes}
        assert before == after

    def test_scale_to_facade(self):
        concord = make_concord()
        reports = concord.scale_to(6)
        assert [r.node for r in reports] == [4, 5]
        assert concord.cluster.n_nodes == 6
        assert concord.scale_to(6) == []       # no-op at target
        assert concord.scale_to(3) == []       # never shrinks
