"""Tests for the traffic workload driver (workloads/traffic.py)."""

import numpy as np
import pytest

from repro.queries.interface import QueryInterface
from repro.serve import QueryFrontend, ServeConfig
from repro.workloads import TrafficDriver, TrafficSpec
from tests.conftest import make_system


def build_frontend(serve_cfg=None, seed=23):
    cluster, ents, concord = make_system(seed=seed)
    q = QueryInterface(cluster, concord.tracing)
    return QueryFrontend(cluster, q, serve_cfg or ServeConfig(),
                         obs=concord.obs), concord


class TestTrafficSpec:
    def test_defaults_valid(self):
        TrafficSpec()

    @pytest.mark.parametrize("kw", [
        {"n_clients": 0}, {"duration_s": 0.0}, {"arrival": "carrier-pigeon"},
        {"rate_per_client": 0.0}, {"think_time_s": -1.0}, {"zipf_s": -0.1},
        {"population": 0}, {"nodewise_frac": 1.5}, {"batch_frac": -0.2},
        {"n_groups": 0}, {"collective_k": 0}, {"churn_rate": -1.0},
        # A NaN duration never ends the run (sim.now > nan is never true);
        # integer fields take admission's one integer rule.
        {"duration_s": float("nan")}, {"duration_s": float("inf")},
        {"rate_per_client": float("inf")}, {"think_time_s": float("nan")},
        {"zipf_s": float("inf")}, {"churn_rate": float("nan")},
        {"duration_s": True}, {"duration_s": "0.5"}, {"n_clients": True},
        {"population": 2.5}, {"n_groups": 3.0},
        {"collective_k": np.bool_(True)}, {"seed": 1.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrafficSpec(**kw)

    def test_numpy_scalars_admitted(self):
        spec = TrafficSpec(n_clients=np.int64(3), duration_s=np.float64(0.1))
        assert spec.n_clients == 3 and spec.duration_s == 0.1

    def test_replace(self):
        assert TrafficSpec().replace(n_clients=3).n_clients == 3


class TestOpenLoop:
    def test_poisson_run_completes_all_admitted(self):
        fe, _c = build_frontend()
        spec = TrafficSpec(n_clients=4, duration_s=0.05, arrival="poisson",
                           rate_per_client=2000.0, seed=1)
        drv = TrafficDriver(fe, spec)
        rep = drv.run()
        assert rep.submitted > 0
        assert rep.completed == rep.admitted
        assert drv.n_responses == rep.submitted
        assert rep.duration_s == spec.duration_s

    def test_same_seed_is_deterministic(self):
        def run():
            fe, _c = build_frontend()
            spec = TrafficSpec(n_clients=4, duration_s=0.05, seed=9)
            rep = TrafficDriver(fe, spec).run()
            return (rep.submitted, rep.completed, rep.coalesced,
                    rep.cache_hits, rep.qps)
        assert run() == run()

    def test_different_seed_differs(self):
        def run(seed):
            fe, _c = build_frontend()
            rep = TrafficDriver(fe, TrafficSpec(n_clients=4,
                                                duration_s=0.05,
                                                seed=seed)).run()
            return (rep.submitted, rep.qps)
        assert run(1) != run(2)

    def test_zipf_traffic_hits_cache(self):
        fe, _c = build_frontend()
        spec = TrafficSpec(n_clients=8, duration_s=0.1, zipf_s=1.5,
                           population=32, seed=3)
        rep = TrafficDriver(fe, spec).run()
        assert rep.hit_rate > 0.5
        assert rep.cache_violations == 0

    @pytest.mark.parametrize("population,zipf_s", [(64, 1.5), (512, 1.2),
                                                   (16, 0.0)])
    def test_key_draws_equal_generator_choice(self, population, zipf_s):
        # The CDF lookup must consume the generator exactly as
        # ``rng.choice(n, p=)`` did: same keys, same stream afterwards.
        fe, _c = build_frontend()
        driver = TrafficDriver(fe, TrafficSpec(population=population,
                                               zipf_s=zipf_s, seed=5))
        keys = driver._keys
        p = TrafficDriver._zipf_weights(len(keys), zipf_s)
        driver.rng = np.random.default_rng(99)
        ref = np.random.default_rng(99)
        drawn = [driver._draw_key() for _ in range(10_000)]
        assert drawn == [keys[int(ref.choice(len(keys), p=p))]
                         for _ in range(10_000)]
        assert driver.rng.random() == ref.random()

    def test_churn_replaces_clients(self):
        fe, _c = build_frontend()
        spec = TrafficSpec(n_clients=4, duration_s=0.1, churn_rate=100.0,
                           seed=4)
        drv = TrafficDriver(fe, spec)
        rep = drv.run()
        assert drv._next_client_id > spec.n_clients  # replacements happened
        assert rep.completed == rep.admitted

    def test_churn_does_not_double_count_orphans(self):
        # A killed client's in-flight response must not land in the
        # driver's counts: everything the driver records was observed by
        # a then-live client, and the remainder is accounted as orphaned.
        fe, _c = build_frontend()
        spec = TrafficSpec(n_clients=8, duration_s=0.1, churn_rate=400.0,
                           rate_per_client=4000.0, seed=11)
        drv = TrafficDriver(fe, spec, keep_responses=True)
        rep = drv.run()
        assert drv.n_orphaned > 0                      # churn hit in-flight
        assert drv.n_responses + drv.n_orphaned == rep.submitted
        assert len(drv.responses) == drv.n_responses   # no orphan leaked in

    def test_churn_with_coalescing_same_seed_deterministic(self):
        # Churn + tight batching windows (heavy coalescing) must still
        # replay identically for a fixed (spec, seed, system) triple.
        def run():
            # Wide windows: requests sit in batching long enough both to
            # coalesce heavily and to be in flight when churn strikes.
            cfg = ServeConfig(interactive_window_s=5e-4, batch_window_s=2e-3)
            fe, _c = build_frontend(cfg)
            spec = TrafficSpec(n_clients=8, duration_s=0.08,
                               churn_rate=400.0, rate_per_client=4000.0,
                               zipf_s=1.5, population=32, seed=11)
            drv = TrafficDriver(fe, spec)
            rep = drv.run()
            return (rep.submitted, rep.admitted, rep.completed,
                    rep.coalesced, rep.cache_hits, rep.qps,
                    drv.n_responses, drv.n_rejected, drv.n_orphaned,
                    drv._next_client_id)
        first, second = run(), run()
        assert first == second
        assert first[8] > 0  # the run actually exercised orphaned responses


class TestClosedLoop:
    def test_closed_loop_completes(self):
        fe, _c = build_frontend()
        spec = TrafficSpec(n_clients=4, duration_s=0.02, arrival="closed",
                           think_time_s=1e-4, seed=5)
        rep = TrafficDriver(fe, spec).run()
        assert rep.completed > 0
        assert rep.completed == rep.admitted

    def test_closed_loop_backs_off_on_rejection(self):
        # One-slot queue + zero think time: clients must survive sheds.
        fe, _c = build_frontend(ServeConfig(queue_limit=1))
        spec = TrafficSpec(n_clients=8, duration_s=0.01, arrival="closed",
                           seed=6)
        drv = TrafficDriver(fe, spec, keep_responses=True)
        rep = drv.run()
        assert rep.rejected > 0
        assert rep.completed > 0
        assert drv.n_rejected == rep.rejected

    def test_cache_speedup_on_repeated_queries(self):
        def run(**serve_kw):
            cfg = ServeConfig(interactive_window_s=5e-6, batch_window_s=5e-6,
                              **serve_kw)
            fe, _c = build_frontend(cfg)
            spec = TrafficSpec(n_clients=8, duration_s=0.05,
                               arrival="closed", zipf_s=1.5, population=32,
                               nodewise_frac=0.8, seed=7)
            return TrafficDriver(fe, spec).run()
        off, on = run(cache_capacity=0), run()
        assert on.qps > 2.0 * off.qps
