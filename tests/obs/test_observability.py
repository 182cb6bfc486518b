"""End-to-end observability: threaded metrics, command spans, capture."""

import math

import pytest

from repro.core.command import ExecMode
from repro.core.concord import ConCORD
from repro.core.config import ConCORDConfig
from repro.core.executor import PhaseBreakdown
from repro.core.scope import ServiceScope
from repro.harness.trace import run_traced_null
from repro.obs import ObsConfig, active_capture, capture_traces
from repro.services.null import NullService
from repro.sim.cluster import Cluster
from repro import workloads


def bring_up(n_nodes=4, pages=512, seed=7, trace=True, **cfg):
    cluster = Cluster(n_nodes, cost="new-cluster", seed=seed)
    ents = workloads.instantiate(cluster,
                                 workloads.moldy(n_nodes, pages, seed=seed))
    concord = ConCORD(cluster, ConCORDConfig(obs=ObsConfig(trace=trace),
                                             **cfg))
    concord.initial_scan()
    return cluster, ents, concord


class TestThreading:
    def test_registry_is_shared_across_layers(self):
        _cluster, _ents, concord = bring_up(use_network=True)
        reg = concord.metrics()
        assert reg is concord.obs.registry
        assert _cluster.network.registry is reg
        assert concord.tracing.obs.registry is reg
        # Monitors scanned at bring-up; the network carried the updates.
        assert reg.value("monitor.scans") > 0
        assert reg.value("monitor.pages_hashed") > 0
        assert reg.value("dht.updates_routed") > 0
        assert reg.value("net.msgs_sent") > 0

    def test_stats_views_read_registry(self):
        cluster, _ents, concord = bring_up(use_network=True)
        reg = concord.metrics()
        assert cluster.network.stats.msgs_sent == reg.value("net.msgs_sent")
        assert (concord.tracing.stats.updates_routed
                == reg.value("dht.updates_routed"))

    def test_monitor_scan_spans_recorded(self):
        _cluster, _ents, concord = bring_up()
        scans = concord.obs.tracer.find(name="monitor.scan")
        assert len(scans) > 0
        assert all(s.duration > 0 for s in scans)
        assert {s.node for s in scans} == set(range(4))

    def test_metrics_report_and_trace_dump(self, tmp_path):
        _cluster, _ents, concord = bring_up()
        assert "monitor.scans" in concord.metrics_report().render()
        p = concord.trace_dump(tmp_path / "t.trace.json")
        assert p.exists()
        doc = concord.trace_dump(fmt="chrome")
        assert doc["traceEvents"]
        assert concord.trace_dump(fmt="jsonl").startswith("{")
        with pytest.raises(ValueError):
            concord.trace_dump(fmt="protobuf")

    def test_obs_config_governs_tracing_only(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(ObsConfig)] \
            == ["trace", "trace_limit"]

    def test_tracing_off_by_default(self):
        cluster = Cluster(2, cost="new-cluster", seed=0)
        workloads.instantiate(cluster, workloads.moldy(2, 64, seed=0))
        concord = ConCORD(cluster)
        concord.initial_scan()
        assert not concord.obs.tracing
        assert len(concord.obs.tracer) == 0
        # The registry still counts (it backs the stats views).
        assert concord.metrics().value("monitor.scans") > 0


class TestCommandSpans:
    def test_phase_breakdown_matches_spans_on_null_service(self):
        """The acceptance criterion: per-phase span totals equal the
        CommandResult's phase walls (both are built from the same
        per-node totals)."""
        table, result, obs = run_traced_null(n_nodes=4, pages_per_entity=512,
                                             n_represented=16)
        for ph, bd in result.phases.items():
            span_total = obs.tracer.total(f"cmd.phase.{ph}")
            assert span_total == pytest.approx(bd.wall, rel=0.01)
        # The per-node split reconstructs too.
        for ph, bd in result.phases.items():
            cpu = obs.tracer.total("cmd.cpu", phase=ph)
            assert cpu >= bd.max_node_cpu or cpu == 0.0
        assert table.get("span_wall_ms").values == pytest.approx(
            table.get("bookkeeping_wall_ms").values, rel=0.01)

    def test_breakdown_equals_legacy_bookkeeping(self):
        """The breakdown == the old critical-path loop run directly over
        the executor's accounting (each node's charges fsum'd), exactly."""
        _cluster, ents, concord = bring_up()
        eids = [e.entity_id for e in ents]
        ex = concord.executor
        result = concord.execute_command(NullService(), ServiceScope.of(eids))
        for phase, bd in result.phases.items():
            # Legacy algorithm, replayed from the executor's accounting.
            cost = ex.cost
            max_cpu = max_total = crit_cpu = crit_comm = 0.0
            for node in range(_cluster.n_nodes):
                cpu = math.fsum(ex._cpu.get((node, phase), ()))
                comm = (ex._tx.get((node, phase), 0)
                        + ex._rx.get((node, phase), 0)) / cost.link_bw
                if cpu > max_cpu:
                    max_cpu = cpu
                if cpu + comm > max_total:
                    max_total = cpu + comm
                    crit_cpu, crit_comm = cpu, comm
            assert bd.max_node_cpu == max_cpu
            assert bd.cpu == crit_cpu
            assert bd.comm == crit_comm

    def test_from_totals_critical_path_split(self):
        """cpu/comm come from the same (critical-path) node; ties go to
        the lowest node id."""
        # Node 0 is cpu-heavy, node 1 is the critical path.
        bd = PhaseBreakdown.from_totals([3.0, 1.0], [0.0, 3.0], shared=0.5,
                                        barrier=0.25, extra_wall=0.125)
        assert bd.max_node_cpu == 3.0
        assert (bd.cpu, bd.comm) == (1.0, 3.0)
        assert bd.wall == pytest.approx(4.0 + 0.5 + 0.25 + 0.125)
        tie = PhaseBreakdown.from_totals([0.0, 2.0, 1.0], [0.0, 0.0, 1.0])
        assert (tie.cpu, tie.comm) == (2.0, 0.0)
        assert PhaseBreakdown.from_totals([], []).wall == 0.0

    def test_command_counters(self):
        _cluster, ents, concord = bring_up(trace=False)
        eids = [e.entity_id for e in ents]
        result = concord.execute_command(NullService(), ServiceScope.of(eids))
        reg = concord.metrics()
        assert reg.value("cmd.executions") == 1
        assert reg.value("cmd.handled") == result.stats.handled
        assert reg.get("cmd.wall_s").count == 1


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self):
        _t1, _r1, obs1 = run_traced_null(n_nodes=3, pages_per_entity=256,
                                         n_represented=8, seed=11)
        _t2, _r2, obs2 = run_traced_null(n_nodes=3, pages_per_entity=256,
                                         n_represented=8, seed=11)
        assert obs1.tracer.to_jsonl() == obs2.tracer.to_jsonl()
        assert obs1.registry.to_jsonl() == obs2.registry.to_jsonl()

    def test_different_seed_different_trace(self):
        _t1, _r1, obs1 = run_traced_null(n_nodes=3, pages_per_entity=256,
                                         n_represented=8, seed=11)
        _t2, _r2, obs2 = run_traced_null(n_nodes=3, pages_per_entity=256,
                                         n_represented=8, seed=12)
        assert obs1.tracer.to_jsonl() != obs2.tracer.to_jsonl()


class TestCapture:
    def test_capture_overrides_config_and_collects(self):
        with capture_traces() as cap:
            assert active_capture() is cap
            # Config asks for no tracing; the capture session wins.
            _cluster, _ents, concord = bring_up(trace=False)
        assert active_capture() is None
        assert cap.runs == [concord.obs]
        assert concord.obs.tracing
        assert len(concord.obs.tracer) > 0

    def test_capture_custom_config(self):
        with capture_traces(ObsConfig(trace=True, trace_limit=2)) as cap:
            bring_up()
        assert cap.runs[0].tracer.limit == 2
        assert cap.runs[0].tracer.dropped > 0

    def test_no_capture_no_registration(self):
        _cluster, _ents, concord = bring_up()
        assert active_capture() is None
        assert concord.obs.tracing  # from its own config, not a capture
