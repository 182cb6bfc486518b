"""Unit tests for the sim-clock metrics sampler and its time-series."""

import pytest

from repro.obs import MetricsRegistry, MetricsSampler, SampleSeries
from repro.sim.engine import SimEngine


def make_sampler(period_s=0.001):
    engine = SimEngine()
    reg = MetricsRegistry()
    return engine, reg, MetricsSampler(engine, reg, period_s=period_s)


class TestSampleSeries:
    def test_append_and_read(self):
        s = SampleSeries(["a", "b"])
        s.append(0.0, {"a": 1.0, "b": 2.0})
        s.append(0.1, {"a": 3.0, "b": 4.0})
        assert s.values("a") == [1.0, 3.0]
        assert s.last("b") == 4.0
        assert len(s) == 2

    def test_time_order_enforced(self):
        s = SampleSeries(["a"])
        s.append(0.5, {"a": 1.0})
        with pytest.raises(ValueError):
            s.append(0.4, {"a": 2.0})

    def test_unknown_column_rejected(self):
        s = SampleSeries(["a"])
        with pytest.raises(KeyError):
            s.append(0.0, {"zzz": 1.0})
        with pytest.raises(KeyError):
            s.values("zzz")

    def test_rate_windows(self):
        s = SampleSeries(["n"])
        for i in range(4):
            s.append(i * 0.1, {"n": float(i * 10)})
        rates = s.rate("n")
        assert len(rates) == 3
        for (t0, t1, r) in rates:
            assert r == pytest.approx(100.0)
            assert t1 - t0 == pytest.approx(0.1)

    def test_windows_min_max_last_mean(self):
        s = SampleSeries(["v"])
        for i, v in enumerate([1.0, 5.0, 3.0, 2.0, 8.0]):
            s.append(i * 0.1, {"v": v})
        wins = s.windows("v", every=2)
        assert [w.n for w in wins] == [2, 2, 1]
        w0 = wins[0]
        assert (w0.min, w0.max, w0.last) == (1.0, 5.0, 5.0)
        assert w0.mean == pytest.approx(3.0)
        assert wins[2].last == 8.0

    def test_window_at_locates_the_containing_ticks(self):
        s = SampleSeries(["v"])
        for i in range(5):
            s.append(i * 0.01, {"v": 0.0})
        assert s.window_at(0.025) == (0.02, 0.03)
        assert s.window_at(0.0) == (0.0, 0.0)
        assert s.window_at(99.0) == (0.03, 0.04)
        with pytest.raises(ValueError):
            SampleSeries(["v"]).window_at(0.0)

    def test_jsonl_roundtrip_byte_identical(self):
        s = SampleSeries(["b", "a"])
        s.append(0.0, {"a": 1.5, "b": 0.0})
        s.append(0.001, {"a": 2.5, "b": 1.0})
        text = s.to_jsonl()
        back = SampleSeries.from_jsonl(text)
        assert back.to_jsonl() == text
        assert back.columns == ["a", "b"]

    def test_empty_series_exports_empty(self):
        assert SampleSeries(["a"]).to_jsonl() == ""


class TestMetricsSampler:
    def test_ticks_cover_the_armed_span(self):
        engine, reg, sampler = make_sampler(period_s=0.001)
        c = reg.counter("work.done")
        sampler.track_counter("work.done")
        sampler.arm(deadline=0.01)
        for i in range(10):
            engine.at((i + 0.5) * 0.001, c.inc)
        engine.run()
        series = sampler.stop()
        # anchor at t=0 plus one tick per period through the deadline
        assert len(series) == 11
        assert series.times[0] == 0.0
        assert series.times[-1] == pytest.approx(0.01)
        assert series.values("work.done") == [float(i) for i in range(11)]

    def test_counter_total_sums_labels(self):
        engine, reg, sampler = make_sampler()
        reg.counter("q", kind="a").inc(2)
        reg.counter("q", kind="b").inc(3)
        sampler.track_counter_total("q")
        sampler.arm(deadline=0.0)
        assert sampler.series.last("q") == 5.0

    def test_quantile_probe_empty_histogram_is_zero(self):
        engine, reg, sampler = make_sampler()
        sampler.track_quantile("p95", "lat", 0.95)
        sampler.arm(deadline=0.0)
        assert sampler.series.last("p95") == 0.0

    def test_quantile_probe_tracks_histogram(self):
        engine, reg, sampler = make_sampler(period_s=0.01)
        h = reg.histogram("lat")
        sampler.track_quantile("p50", "lat", 0.5)
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        sampler.arm(deadline=0.0)
        assert sampler.series.last("p50") == pytest.approx(2.0)

    def test_fn_probe_and_gauge(self):
        engine, reg, sampler = make_sampler()
        g = reg.gauge("ring.n_nodes")
        g.set(4)
        sampler.track_gauge("ring.n_nodes")
        sampler.track_fn("coverage", lambda: 0.75)
        sampler.arm(deadline=0.0)
        assert sampler.series.last("ring.n_nodes") == 4.0
        assert sampler.series.last("coverage") == 0.75

    def test_declarations_rejected_once_armed(self):
        engine, reg, sampler = make_sampler()
        sampler.track_fn("x", lambda: 0.0)
        sampler.arm(deadline=0.0)
        with pytest.raises(RuntimeError):
            sampler.track_fn("y", lambda: 0.0)

    def test_duplicate_column_rejected(self):
        engine, reg, sampler = make_sampler()
        sampler.track_fn("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.track_fn("x", lambda: 1.0)

    def test_stop_records_closing_sample(self):
        engine, reg, sampler = make_sampler(period_s=1.0)
        c = reg.counter("n")
        sampler.track_counter("n")
        sampler.arm(deadline=0.0)   # single anchor tick
        engine.at(0.25, c.inc)
        engine.run()
        series = sampler.stop()
        assert series.times == [0.0, 0.25]
        assert series.last("n") == 1.0

    def test_stopped_sampler_cannot_rearm(self):
        engine, reg, sampler = make_sampler()
        sampler.track_fn("x", lambda: 0.0)
        sampler.arm(deadline=0.0)
        sampler.stop()
        with pytest.raises(RuntimeError):
            sampler.arm(deadline=1.0)

    def test_bad_period_rejected(self):
        engine = SimEngine()
        with pytest.raises(ValueError):
            MetricsSampler(engine, MetricsRegistry(), period_s=0.0)


class TestConcordSamplerIntegration:
    def test_serve_with_sample_period_records_series(self):
        from repro.core.concord import ConCORD
        from repro.core.config import ConCORDConfig
        from repro.sim.cluster import Cluster
        from repro.workloads import TrafficSpec, instantiate, moldy

        cluster = Cluster(n_nodes=4, cost="new-cluster", seed=7)
        instantiate(cluster, moldy(4, 64, seed=7))
        with ConCORD(
                cluster, ConCORDConfig(use_network=False)) as concord:
            concord.initial_scan()
            spec = TrafficSpec(n_clients=4, duration_s=0.02,
                               arrival="poisson", rate_per_client=500,
                               seed=3)
            report = concord.serve(spec, sample_period_s=2e-3)
            series = concord._last_sampler.series
        assert report.completed > 0
        assert len(series) >= 10
        assert series.last("serve.completed") == float(report.completed)
        assert series.last("coverage") == 1.0
        assert series.last("ring.n_nodes") == 4.0
        # the standard columns are all present
        for col in ("serve.submitted", "serve.rejected",
                    "serve.cache.hits", "serve.cache.violations",
                    "serve.p95_interactive", "serve.queue_depth"):
            assert col in series.columns

    def test_same_seed_series_byte_identical(self):
        from repro.core.concord import ConCORD
        from repro.core.config import ConCORDConfig
        from repro.sim.cluster import Cluster
        from repro.workloads import TrafficSpec, instantiate, moldy

        def once() -> str:
            cluster = Cluster(n_nodes=3, cost="new-cluster", seed=5)
            instantiate(cluster, moldy(3, 32, seed=5))
            with ConCORD(
                    cluster, ConCORDConfig(use_network=False)) as concord:
                concord.initial_scan()
                spec = TrafficSpec(n_clients=2, duration_s=0.01,
                                   arrival="poisson",
                                   rate_per_client=1000, seed=9)
                concord.serve(spec, sample_period_s=1e-3)
                return concord._last_sampler.series.to_jsonl()

        assert once() == once()
