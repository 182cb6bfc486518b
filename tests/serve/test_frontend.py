"""End-to-end tests of the query-serving frontend."""

import numpy as np
import pytest

from repro.obs import ObsConfig, Observability
from repro.queries.interface import QueryInterface
from repro.serve import QoSClass, QueryFrontend, RejectReason, ServeConfig
from tests.conftest import make_system


def build(serve_cfg=None, seed=17, trace=False):
    cluster, ents, concord = make_system(seed=seed)
    q = QueryInterface(cluster, concord.tracing)
    obs = Observability(clock=lambda: cluster.engine.now,
                        config=ObsConfig(trace=trace))
    fe = QueryFrontend(cluster, q, serve_cfg or ServeConfig(), obs=obs)
    h = int(next(iter(concord.tracing.shards[0].hashes())))
    return cluster, concord, q, fe, h


def drain(cluster, fe, submits):
    """Submit [(op, args, kwargs)] at t=now, run the engine, return responses."""
    got = []
    for op, args, kw in submits:
        fe.submit(op, args, on_done=got.append, **kw)
    cluster.engine.run()
    return got


class TestServing:
    def test_single_request_answer_matches_uncached(self):
        cluster, _c, q, fe, h = build()
        (resp,) = drain(cluster, fe, [("num_copies", (h,),
                                       {"issuing_node": 1})])
        assert not resp.rejected
        assert resp.answer == q.num_copies(h, 1)
        assert resp.latency_s >= fe.cfg.interactive_window_s

    def test_identical_requests_coalesce(self):
        cluster, _c, _q, fe, h = build()
        got = drain(cluster, fe,
                    [("num_copies", (h,), {"client_id": i})
                     for i in range(5)])
        assert len(got) == 5
        assert sum(r.coalesced for r in got) == 4
        assert len({r.value for r in got}) == 1
        assert fe.obs.registry.value("serve.coalesced") == 4

    def test_second_round_hits_cache(self):
        cluster, _c, _q, fe, h = build()
        drain(cluster, fe, [("num_copies", (h,), {})])
        got = drain(cluster, fe, [("num_copies", (h,), {})])
        assert got[0].cache_hit
        # Hits occupy the CPU for the hit cost, not the query latency.
        assert got[0].latency_s == pytest.approx(
            fe.cfg.interactive_window_s + fe.cfg.cache_hit_cost_s)

    def test_capacity_zero_never_hits(self):
        cluster, _c, _q, fe, h = build(ServeConfig(cache_capacity=0))
        drain(cluster, fe, [("num_copies", (h,), {})])
        got = drain(cluster, fe, [("num_copies", (h,), {})])
        assert not got[0].cache_hit
        assert fe.obs.registry.value("serve.cache.hits") == 0

    def test_mixed_batch_nodewise_and_collective(self):
        cluster, concord, q, fe, h = build()
        eids = tuple(sorted(cluster.all_entity_ids()))
        got = drain(cluster, fe, [
            ("num_copies", (h,), {}),
            ("entities", (h,), {"issuing_node": 2}),
            ("sharing", (eids,), {}),
            ("num_shared_content", (eids, 2), {}),
        ])
        by_op = {r.request.op: r for r in got}
        assert by_op["num_copies"].answer == q.num_copies(h, 0)
        assert by_op["entities"].answer == q.entities(h, 2)
        assert by_op["sharing"].answer == q.sharing(list(eids))
        assert by_op["num_shared_content"].answer == \
            q.num_shared_content(list(eids), 2)

    def test_qos_classes_have_separate_windows(self):
        cfg = ServeConfig(interactive_window_s=1e-5, batch_window_s=1e-3)
        cluster, _c, _q, fe, h = build(cfg)
        got = drain(cluster, fe, [
            ("num_copies", (h,), {"qos": QoSClass.INTERACTIVE}),
            ("num_copies", (h,), {"qos": QoSClass.BATCH}),
        ])
        lat = {r.request.qos: r.latency_s for r in got}
        assert lat[QoSClass.INTERACTIVE] < lat[QoSClass.BATCH]

    def test_unknown_op_rejected_synchronously(self):
        cluster, _c, _q, fe, _h = build()
        got = []
        fe.submit("frobnicate", (1,), on_done=got.append)
        assert len(got) == 1  # before the engine even runs
        assert got[0].rejected
        assert got[0].answer.reason is RejectReason.BAD_REQUEST

    def test_malformed_args_rejected_without_hurting_the_batch(self):
        # Admission must refuse these: raising from the batch drain inside
        # engine.run() would take every request drained with them along.
        cluster, _c, q, fe, h = build()
        eids = tuple(sorted(cluster.all_entity_ids()))
        good, bad = [], []
        fe.submit("num_copies", (h,), on_done=good.append)
        for op, args in [("num_shared_content", (eids, 0)),
                         ("num_shared_content", (eids,)),
                         ("shared_content", (eids, "2")),
                         ("sharing", (eids, 2)),
                         ("num_copies", ()),
                         ("entities", (h, 1))]:
            fe.submit(op, args, on_done=bad.append)
        assert len(bad) == 6  # answered synchronously
        assert all(r.rejected and r.answer.reason is RejectReason.BAD_REQUEST
                   for r in bad)
        fe.submit("num_shared_content", (eids, 2), on_done=good.append)
        cluster.engine.run()
        assert [r.answer for r in good] == [
            q.num_copies(h, 0), q.num_shared_content(list(eids), 2)]
        assert fe.pending == 0
        assert fe.obs.registry.value("serve.rejected",
                                     reason="bad_request") == 6

    def test_malformed_first_argument_rejected_without_hurting_the_batch(
            self):
        # A hash or entity set the cache key cannot normalise used to be
        # admitted, raise inside the drain, and take engine.run() and the
        # well-formed requests of the same window down with it.
        cluster, _c, q, fe, h = build()
        eids = tuple(sorted(cluster.all_entity_ids()))
        good, bad = [], []
        fe.submit("num_copies", (h,), on_done=good.append)
        malformed = [("num_copies", ("abc",)),
                     ("num_copies", (1 << 64,)),
                     ("entities", (-1,)),
                     ("entities", (float(h),)),
                     ("sharing", (7,)),
                     ("sharing", ((0, "x"),)),
                     ("sharing", ((0, -1),)),
                     ("sharing", (list(eids),)),       # unhashable key
                     ("num_shared_content", ("01", 2))]
        for op, args in malformed:
            fe.submit(op, args, on_done=bad.append)
        assert len(bad) == len(malformed)  # answered synchronously
        assert all(r.rejected and r.answer.reason is RejectReason.BAD_REQUEST
                   for r in bad)
        fe.submit("sharing", (eids,), on_done=good.append)
        cluster.engine.run()
        assert [r.answer for r in good] == [
            q.num_copies(h, 0), q.sharing(list(eids))]
        assert fe.pending == 0

    def test_unknown_entity_id_rejected_without_hurting_the_batch(self):
        # An entity id the cluster does not have used to be admitted and
        # raise KeyError from the drain's node lookup, aborting
        # engine.run() and every request drained with it.
        cluster, _c, q, fe, h = build()
        eids = tuple(sorted(cluster.all_entity_ids()))
        good, bad = [], []
        fe.submit("sharing", (eids,), on_done=good.append)
        for op, args in [("sharing", ((10**9,),)),
                         ("num_shared_content", ((eids[0], 10**9), 2)),
                         ("degree_of_sharing", ((len(eids),),))]:
            fe.submit(op, args, on_done=bad.append)
        fe.submit("num_copies", (h,), on_done=good.append)
        assert len(bad) == 3  # answered synchronously
        assert all(r.rejected and r.answer.reason is RejectReason.BAD_REQUEST
                   for r in bad)
        cluster.engine.run()
        assert [r.answer for r in good] == [
            q.sharing(list(eids)), q.num_copies(h, 0)]
        assert fe.pending == 0

    def test_collective_query_fails_over_a_node_whose_nic_is_down(self):
        # Detection is lazy: with a NIC down but no routed request to
        # notice it, the next collective query's refresh_failed must still
        # fail the node over, exactly as the uncached query does.
        cluster, concord, q, fe, _h = build()
        eids = tuple(sorted(cluster.all_entity_ids()))
        drain(cluster, fe, [("sharing", (eids,), {})])   # cached, all up
        cluster.network.set_node_up(2, False)
        assert concord.tracing.stats.failovers == 0
        (resp,) = drain(cluster, fe, [("sharing", (eids,), {})])
        assert concord.tracing.stats.failovers == 1
        assert not resp.cache_hit
        assert resp.answer.coverage < 1.0
        assert resp.answer == q.sharing(list(eids))

    def test_integer_typed_arguments_of_any_width_are_admitted(self):
        cluster, _c, q, fe, h = build()
        eids = sorted(cluster.all_entity_ids())
        got = drain(cluster, fe, [
            ("num_copies", (np.uint64(h),), {}),
            ("num_copies", ((1 << 64) - 1,), {}),
            ("sharing", (tuple(np.int64(e) for e in eids),), {}),
            ("sharing", (frozenset(eids),), {})])
        assert [r.rejected for r in got] == [False] * 4
        assert got[0].answer == q.num_copies(h, 0)
        assert got[2].value == q.sharing(eids).value

    def test_queue_full_sheds(self):
        cluster, _c, _q, fe, h = build(ServeConfig(queue_limit=3))
        got = drain(cluster, fe,
                    [("num_copies", (h,), {}) for _ in range(6)])
        shed = [r for r in got if r.rejected]
        assert len(shed) == 3
        assert all(r.answer.reason is RejectReason.QUEUE_FULL for r in shed)
        assert fe.obs.registry.value("serve.rejected",
                                     reason="queue_full") == 3

    def test_rate_limit_sheds(self):
        cluster, _c, _q, fe, h = build(
            ServeConfig(rate_limit_qps=100.0, rate_burst=2))
        got = drain(cluster, fe,
                    [("num_copies", (h,), {}) for _ in range(5)])
        limited = [r for r in got if r.rejected]
        assert len(limited) == 3
        assert all(r.answer.reason is RejectReason.RATE_LIMITED
                   for r in limited)
        assert all(r.answer.retry_after_s > 0 for r in limited)

    def test_max_batch_splits_into_batches(self):
        cluster, _c, _q, fe, h = build(ServeConfig(max_batch=4))
        got = drain(cluster, fe,
                    [("num_copies", (h,), {}) for _ in range(10)])
        assert len(got) == 10
        assert fe.obs.registry.value("serve.batches") == 3

    def test_verify_mode_clean_run(self):
        cluster, _c, _q, fe, h = build(ServeConfig(verify_cache=True))
        for _ in range(3):
            drain(cluster, fe, [("num_copies", (h,), {}),
                                ("entities", (h,), {})])
        assert fe.obs.registry.value("serve.cache.violations") == 0

    def test_batch_span_traced(self):
        cluster, _c, _q, fe, h = build(trace=True)
        drain(cluster, fe, [("num_copies", (h,), {})])
        spans = [s for s in fe.obs.tracer.spans if s.name == "serve.batch"]
        assert len(spans) == 1
        assert spans[0].t1 > spans[0].t0

    def test_report_accounts_everything(self):
        cluster, _c, _q, fe, h = build()
        drain(cluster, fe, [("num_copies", (h,), {}) for _ in range(4)]
              + [("frobnicate", (1,), {})])
        rep = fe.report()
        assert rep.submitted == 5
        assert rep.admitted == 4
        assert rep.rejected == 1
        assert rep.completed == 4
        assert rep.coalesced == 3
        assert rep.qps > 0
        assert rep.coalesce_rate == pytest.approx(3 / 4)
        table = rep.summary_table().render()
        assert "coalesce_rate" in table and "cache_hit_rate" in table

    def test_pending_drains_to_zero(self):
        cluster, _c, _q, fe, h = build()
        fe.submit("num_copies", (h,))
        assert fe.pending == 1
        cluster.engine.run()
        assert fe.pending == 0


class TestFacade:
    def test_concord_frontend_shares_registry(self):
        _cl, _e, concord = make_system(seed=5)
        fe = concord.frontend()
        assert fe is concord.frontend()  # memoized
        h = int(next(iter(concord.tracing.shards[0].hashes())))
        fe.submit("num_copies", (h,))
        _cl.engine.run()
        report = concord.metrics_report().render()
        assert "serve.admitted" in report

    def test_frontend_config_conflict_raises(self):
        _cl, _e, concord = make_system(seed=5)
        concord.frontend()
        with pytest.raises(ValueError):
            concord.frontend(ServeConfig(queue_limit=7))


class TestOneRoutePerMiss:
    """A node-wise miss is routed once, by its cache lookup; the fill takes
    the home from the lookup's token while the global epoch stands."""

    @staticmethod
    def spy(monkeypatch):
        """Count ``Partition.home_node`` calls and record each fill's
        pairs."""
        from repro.dht.partition import Partition
        from repro.serve import frontend as frontend_mod
        routes, fills = [0], []
        home_node = Partition.home_node

        def counted(self, h):
            routes[0] += 1
            return home_node(self, h)

        def recorded(engine, cost, op, pairs):
            fills.append(list(pairs))
            return bulk(engine, cost, op, pairs)
        bulk = frontend_mod.bulk_answers
        monkeypatch.setattr(Partition, "home_node", counted)
        monkeypatch.setattr(frontend_mod, "bulk_answers", recorded)
        return routes, fills

    def test_distinct_misses_route_once_each(self, monkeypatch):
        cluster, concord, q, fe, _h = build()
        hashes = sorted(int(h) for s in concord.tracing.shards
                        for h in s.hashes())[:12]
        routes, fills = self.spy(monkeypatch)
        got = drain(cluster, fe, [
            ("num_copies" if i % 3 else "entities", (h,),
             {"issuing_node": i % cluster.n_nodes})
            for i, h in enumerate(hashes)])
        assert routes[0] == len(hashes)
        assert sum(len(pairs) for pairs in fills) == len(hashes)
        assert all(home is not None for pairs in fills
                   for _h, _n, home in pairs)
        for r in got:
            assert not r.cache_hit
            assert r.answer == getattr(q, r.request.op)(
                r.request.args[0], r.request.issuing_node)

    def test_a_failover_mid_batch_routes_the_fill_again(self, monkeypatch):
        cluster, concord, q, fe, _h = build()
        engine, victim = concord.tracing, 2
        hashes = sorted(int(h) for s in engine.shards for h in s.hashes())
        survivor = [h for h in hashes if engine.home_node(h) != victim][:3]
        doomed = next(h for h in hashes if engine.home_node(h) == victim)
        # Dead but undetected: the second lookup fails the home over, after
        # the first lookup's token was read.
        cluster.network.set_node_up(victim, False)
        engine.shards[victim].crash()
        routes, fills = self.spy(monkeypatch)
        order = [survivor[0], doomed, *survivor[1:]]
        got = drain(cluster, fe, [("num_copies", (h,), {"issuing_node": i})
                                  for i, h in enumerate(order)])
        assert engine.stats.failovers == 1
        (pairs,) = fills
        assert [home for _h, _n, home in pairs] == [None] * len(order)
        # Lookups (one retried past the dead home), the fill, the store.
        assert routes[0] == 3 * len(order) + 1
        assert [r.answer for r in got] == [
            q.num_copies(h, i) for i, h in enumerate(order)]
        assert got[1].answer.degraded


class TestServeConfigRefusesUnusableValues:
    """Each of these used to be accepted; a NaN window then wedged every
    later request in the queue and a NaN hit cost aborted the event loop."""

    @pytest.mark.parametrize("field, value", [
        ("interactive_window_s", float("nan")),
        ("batch_window_s", float("inf")),
        ("cache_hit_cost_s", float("nan")),
        ("cache_hit_cost_s", -1e-6),
        ("rate_limit_qps", float("nan")),
        ("rate_limit_qps", float("inf")),
        ("rate_burst", 2.5),
        ("max_batch", 1.5),
        ("queue_limit", True),
        ("cache_capacity", "64"),
        ("frontend_node", -1),
    ])
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"ServeConfig\.{field}\b"):
            ServeConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"ServeConfig\.{field}\b"):
            ServeConfig().replace(**{field: value})

    def test_integer_typed_values_of_any_width_are_accepted(self):
        cfg = ServeConfig(max_batch=np.int64(4), rate_burst=np.int32(3),
                          rate_limit_qps=1000, frontend_node=0,
                          interactive_window_s=0,
                          batch_window_s=np.float32(1e-3))
        assert cfg.max_batch == 4 and cfg.rate_limit_qps == 1000
        assert ServeConfig(rate_limit_qps=None).rate_limit_qps is None
