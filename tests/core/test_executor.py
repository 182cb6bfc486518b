"""Unit tests for the service-command execution engine.

These use probe services that record every callback, checking the protocol
of paper §4.3: phase ordering, roles, replica retry on stale content,
collective_select, handled-set dissemination, and accounting.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.command import CommandFailed, ExecMode, ServiceCallbacks
from repro.core.events import CommandTracer, EventKind
from repro.core.scope import EntityRole, ServiceScope
from repro.dht.table import mask_bits
from repro.services.null import NullService
from repro import (CheckpointStore, Cluster, CollectiveCheckpoint, ConCORD,
                   ConCORDConfig, workloads)
from tests.conftest import make_system


class ProbeService(ServiceCallbacks):
    """Records the full callback trace."""

    name = "probe"

    def __init__(self):
        self.trace = []
        self.blocks = []        # (entity, idx, hash, covered, private)
        self.block_refs = []    # the BlockRef local_command got, per block
        self.fail_hashes = set()

    def service_init(self, ctx, config):
        self.trace.append(("init", ctx.node_id, config))
        ctx.state = {"node": ctx.node_id}

    def collective_start(self, ctx, role, entity, hash_sample):
        self.trace.append(("cstart", role, entity.entity_id, len(hash_sample)))

    def collective_command(self, ctx, entity, content_hash, block):
        self.trace.append(("ccmd", entity.entity_id, content_hash))
        if content_hash in self.fail_hashes:
            return CommandFailed("injected")
        return ("priv", content_hash)

    def collective_finalize(self, ctx, role, entity):
        self.trace.append(("cfin", role, entity.entity_id))

    def local_start(self, ctx, entity):
        self.trace.append(("lstart", entity.entity_id))

    def local_command(self, ctx, entity, page_idx, content_hash, block,
                      handled_private):
        self.trace.append(("lcmd", entity.entity_id, page_idx,
                           handled_private is not None))
        self.blocks.append((entity.entity_id, page_idx, content_hash,
                            handled_private is not None, handled_private))
        self.block_refs.append(block)

    def local_finalize(self, ctx, entity):
        self.trace.append(("lfin", entity.entity_id))

    def service_deinit(self, ctx):
        self.trace.append(("deinit", ctx.node_id))
        return True


def run_probe(n_nodes=2, pages=32, spec=None, scope_pes=(), probe=None,
              **exec_kw):
    spec = spec or workloads.moldy(n_nodes, pages, seed=1)
    cluster, ents, concord = make_system(n_nodes=n_nodes, spec=spec)
    probe = probe or ProbeService()
    ses = [e.entity_id for e in ents if e.entity_id not in set(scope_pes)]
    scope = ServiceScope.of(ses, scope_pes)
    result = concord.execute_command(probe, scope, **exec_kw)
    return cluster, ents, concord, probe, result


class TestProtocolOrdering:
    def test_phase_order(self):
        _c, _e, _k, probe, result = run_probe()
        kinds = [t[0] for t in probe.trace]
        assert kinds.index("init") < kinds.index("cstart")
        assert kinds.index("cstart") < kinds.index("ccmd")
        assert max(i for i, k in enumerate(kinds) if k == "ccmd") < \
            kinds.index("cfin")
        assert max(i for i, k in enumerate(kinds) if k == "cfin") < \
            kinds.index("lstart")
        assert max(i for i, k in enumerate(kinds) if k == "lcmd") < \
            kinds.index("lfin")
        assert kinds.index("lfin") < kinds.index("deinit")
        assert result.success

    def test_init_once_per_scope_node(self):
        _c, _e, _k, probe, _r = run_probe(n_nodes=2)
        inits = [t for t in probe.trace if t[0] == "init"]
        assert sorted(n for _k, n, _c in inits) == [0, 1]

    def test_collective_start_roles(self):
        cluster, ents, _k, probe, _r = run_probe(n_nodes=4, scope_pes=(0,))
        starts = {t[2]: t[1] for t in probe.trace if t[0] == "cstart"}
        assert starts[0] is EntityRole.PARTICIPANT
        for e in ents:
            if e.entity_id != 0:
                assert starts[e.entity_id] is EntityRole.SERVICE

    def test_hash_sample_advisory_nonempty(self):
        _c, _e, _k, probe, _r = run_probe(n_nodes=1, pages=64)
        starts = [t for t in probe.trace if t[0] == "cstart"]
        # With one node, the local shard holds everything -> sample > 0.
        assert all(t[3] > 0 for t in starts)

    def test_local_phase_covers_every_se_block(self):
        _c, ents, _k, probe, result = run_probe(n_nodes=2, pages=32)
        lcmds = [t for t in probe.trace if t[0] == "lcmd"]
        assert len(lcmds) == sum(e.n_pages for e in ents)
        assert result.stats.local_blocks == len(lcmds)

    def test_pe_not_in_local_phase(self):
        _c, ents, _k, probe, _r = run_probe(n_nodes=4, scope_pes=(0,))
        lstarts = {t[1] for t in probe.trace if t[0] == "lstart"}
        assert 0 not in lstarts

    def test_each_distinct_hash_commanded_once(self):
        _c, _e, concord, probe, result = run_probe(n_nodes=2)
        ccmds = [t[2] for t in probe.trace if t[0] == "ccmd"]
        assert len(set(ccmds)) == len(ccmds)  # no retries -> no repeats
        assert result.stats.handled == len(ccmds)
        assert result.stats.stale_unhandled == 0


class ArrayProbeService(ProbeService):
    """ProbeService's array-form twin: takes the local phase as one
    ``local_command_batch`` call per SE instead of one call per block."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def local_command(self, *args):
        raise AssertionError("the engine enters the local phase through "
                             "local_command_batch only")

    def local_command_batch(self, ctx, entity, hashes, covered, handled_map):
        self.batches.append((entity, hashes, covered, handled_map))
        for idx, (h, is_covered) in enumerate(zip(hashes.tolist(),
                                                  covered.tolist())):
            self.trace.append(("lcmd", entity.entity_id, idx, is_covered))
            self.blocks.append((entity.entity_id, idx, h, is_covered,
                                handled_map.get(h)))


class TestLocalPhaseEntry:
    """One entry into the local phase: the default ``local_command_batch``
    is the per-block loop, an override sees the same blocks as arrays."""

    @staticmethod
    def stale_run(probe, mode=ExecMode.INTERACTIVE):
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.moldy(3, 48, seed=8))
        ents[0].write_pages(np.arange(8), np.arange(8, dtype=np.uint64)
                            + 10**9)    # stale: these fall back to local
        scope = ServiceScope.of([e.entity_id for e in ents[:2]],
                                [ents[2].entity_id])
        result = concord.execute_command(probe, scope, mode=mode, seed=3)
        return ents, probe, result

    @pytest.mark.parametrize("mode", [ExecMode.INTERACTIVE, ExecMode.BATCH])
    def test_default_loop_and_array_override_see_the_same_blocks(self, mode):
        _e, scalar, r_scalar = self.stale_run(ProbeService(), mode)
        _e, array, r_array = self.stale_run(ArrayProbeService(), mode)
        assert scalar.blocks == array.blocks
        assert scalar.trace == array.trace
        assert r_scalar.stats == r_array.stats
        assert r_scalar.wall_time == r_array.wall_time
        kinds = {(covered, private is not None)
                 for _e, _i, _h, covered, private in scalar.blocks}
        assert kinds == {(True, True), (False, False)}

    def test_default_loop_resolves_each_block_against_ground_truth(self):
        ents, probe, _r = self.stale_run(ProbeService())
        by_id = {e.entity_id: e for e in ents}
        assert len(probe.block_refs) == len(probe.blocks) > 0
        for (eid, _idx, h, _c, _p), ref in zip(probe.blocks,
                                               probe.block_refs):
            assert ref.entity_id == eid
            assert int(by_id[eid].content_hashes()[ref.page_idx]) == h

    def test_arrays_are_the_entitys_hashes_and_handled_membership(self):
        ents, probe, result = self.stale_run(ArrayProbeService())
        assert [b[0] for b in probe.batches] == ents[:2]   # SEs only, in order
        for entity, hashes, covered, handled_map in probe.batches:
            assert (hashes == entity.content_hashes()).all()
            assert covered.dtype == bool and len(covered) == len(hashes)
            assert covered.tolist() == [h in handled_map
                                        for h in hashes.tolist()]
            assert handled_map.items() <= result.handled_private.items()
        n_cov = sum(int(b[2].sum()) for b in probe.batches)
        assert 0 < n_cov == result.stats.covered_blocks
        assert result.stats.uncovered_blocks >= 8


class TestStalenessAndRetry:
    def test_mutation_after_scan_triggers_retry_and_local_fallback(self):
        spec = workloads.nasty(2, 64, seed=2)
        cluster, ents, concord = make_system(n_nodes=2, spec=spec)
        # Mutate entity 0 after the scan: its DHT entries go stale.
        ents[0].write_pages(np.arange(16), np.arange(16, dtype=np.uint64)
                            + 10**9)
        probe = ProbeService()
        result = concord.execute_command(
            probe, ServiceScope.of([e.entity_id for e in ents]))
        assert result.stats.stale_unhandled == 16
        assert result.stats.retries >= 16
        # Local phase still covered everything.
        assert result.stats.local_blocks == 128
        assert result.stats.uncovered_blocks >= 16
        assert result.success

    def test_callback_failure_behaves_like_stale(self):
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.nasty(2, 16, seed=3))
        probe = ProbeService()
        victim = int(ents[0].content_hashes()[0])
        probe.fail_hashes.add(victim)
        result = concord.execute_command(
            probe, ServiceScope.of([e.entity_id for e in ents]))
        assert result.stats.stale_unhandled == 1
        assert result.stats.retries == 1
        assert victim not in result.handled_private

    def test_replica_retry_succeeds_on_other_holder(self):
        """If one holder lost the content, a surviving replica serves it."""
        spec = workloads.WorkloadSpec(name="dup", n_entities=2,
                                      pages_per_entity=8, common_frac=1.0,
                                      pool_frac=1.0, seed=4)
        cluster, ents, concord = make_system(n_nodes=2, spec=spec)
        shared = np.intersect1d(ents[0].content_hashes(),
                                ents[1].content_hashes())
        assert len(shared) > 0
        # Destroy all of entity 0's content (without resyncing).
        ents[0].write_pages(np.arange(8), np.arange(8, dtype=np.uint64)
                            + 5 * 10**9)
        probe = ProbeService()
        result = concord.execute_command(probe,
                                         ServiceScope.of([ents[1].entity_id]))
        # Every shared hash is still handled via entity 1.
        for h in shared.tolist():
            assert int(h) in result.handled_private


class TestWideScope:
    """More than 64 nodes and entity IDs past 63: masks spill out of the
    uint64 column, and holder decode must still reach every SE's node."""

    def test_exchange_and_handled_set_follow_the_dht_masks(self):
        cluster = Cluster(n_nodes=66, cost="big-cluster", seed=9)
        ents = workloads.instantiate(cluster, workloads.moldy(70, 16, seed=9))
        concord = ConCORD(cluster, ConCORDConfig())
        concord.initial_scan()
        scope = ServiceScope.of([e.entity_id for e in ents])
        tracer = CommandTracer()
        result = concord.execute_command(ProbeService(), scope, tracer=tracer)

        tracing = concord.tracing
        believed = {int(h) for e in ents for h in e.content_hashes().tolist()}
        assert set(result.handled_private) == believed
        expected = Counter()
        wide_holders = 0
        for h in believed:
            home = tracing.home_node(h)
            holders = mask_bits(tracing.shards[home].entities_mask(h)
                                & scope.se_mask)
            wide_holders += sum(1 for e in holders if e >= 64)
            for dst in {cluster.node_of(e) for e in holders}:
                expected[(home, dst)] += 1
        assert wide_holders > 0
        exchanged = {(src, dst): n for src, dst, n in
                     (e.data for e in tracer.of_kind(EventKind.EXCHANGE))}
        assert exchanged == dict(expected)
        assert len(exchanged) == tracer.count(EventKind.EXCHANGE)
        # Every node was told about every hash its SEs hold.
        assert result.stats.coverage == 1.0


class TestSelection:
    @staticmethod
    def make_twins():
        """Two entities with byte-identical memory on different nodes."""
        from repro import Cluster, ConCORD, ConCORDConfig, Entity

        cluster = Cluster(n_nodes=2, cost="new-cluster", seed=0)
        pages = np.arange(100, 108, dtype=np.uint64)
        a = Entity.create(cluster, 0, pages)
        b = Entity.create(cluster, 1, pages.copy())
        concord = ConCORD(cluster, ConCORDConfig(use_network=False))
        concord.initial_scan()
        return cluster, (a, b), concord

    def test_collective_select_preference_honoured(self):
        cluster, (a, b), concord = self.make_twins()

        class Chooser(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return max(candidates)

        probe = Chooser()
        result = concord.execute_command(
            probe, ServiceScope.of([a.entity_id, b.entity_id]))
        chosen = {t[1] for t in probe.trace if t[0] == "ccmd"}
        assert chosen == {b.entity_id}
        assert result.stats.select_calls == result.stats.believed_hashes

    def test_select_returning_none_falls_back_to_random(self):
        class Indifferent(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return None

        _c, _e, _k, probe, result = run_probe(probe=Indifferent())
        assert result.success

    def test_select_returning_noncandidate_rejected(self):
        class Liar(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return 10**6

        with pytest.raises(ValueError):
            run_probe(probe=Liar())

    def test_pe_replicas_usable(self):
        """A PE sharing content with an SE can serve the block."""
        cluster, (a, b), concord = self.make_twins()

        class PreferPE(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return b.entity_id if b.entity_id in candidates else None

        probe = PreferPE()
        result = concord.execute_command(
            probe, ServiceScope.of([a.entity_id], [b.entity_id]))
        served_by = {t[1] for t in probe.trace if t[0] == "ccmd"}
        assert served_by == {b.entity_id}
        assert result.stats.coverage == 1.0


class TestModesAndAccounting:
    def test_batch_mode_runs_and_succeeds(self):
        _c, _e, _k, _p, result = run_probe(mode=ExecMode.BATCH)
        assert result.success
        assert result.mode is ExecMode.BATCH

    def test_null_interactive_vs_batch_wall(self):
        """Fig 10: batch mode is (slightly) cheaper than interactive."""
        cluster, ents, concord = make_system(
            n_nodes=4, spec=workloads.moldy(4, 512, seed=6))
        scope = ServiceScope.of([e.entity_id for e in ents])
        t_i = concord.execute_command(NullService(), scope,
                                      mode=ExecMode.INTERACTIVE).wall_time
        t_b = concord.execute_command(NullService(), scope,
                                      mode=ExecMode.BATCH).wall_time
        assert t_b < t_i

    def test_phase_walls_positive_and_sum(self):
        _c, _e, _k, _p, result = run_probe()
        assert set(result.phases) == {"init", "collective", "local",
                                      "teardown"}
        assert all(p.wall > 0 for p in result.phases.values())
        assert result.wall_time == pytest.approx(
            sum(p.wall for p in result.phases.values()))

    def test_bytes_accounted_multi_node(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=2, pages=64)
        assert result.stats.total_bytes > 0
        assert result.stats.max_node_bytes() > 0

    def test_single_node_no_network_bytes(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=1, pages=32)
        assert result.stats.total_bytes == 0

    def test_unknown_entity_in_scope_rejected(self):
        cluster, ents, concord = make_system(n_nodes=2)
        with pytest.raises(ValueError, match="entity id 999 is not a known"):
            concord.execute_command(NullService(), ServiceScope.of([999]))

    @pytest.mark.parametrize("role", ["service", "participant"])
    @pytest.mark.parametrize("bad", [999, -1, True, 1.0, "x"])
    def test_scope_ids_follow_the_query_api_rule(self, bad, role):
        """An id the query API refuses, a command refuses with the same
        ValueError, before any callback runs: nothing is checkpointed."""
        cluster, ents, concord = make_system(n_nodes=2)
        assert ents[0].entity_id == 0    # True and 1.0 must not overlap it
        scope = (ServiceScope.of([bad]) if role == "service"
                 else ServiceScope.of([0], [bad]))
        store = CheckpointStore()
        with pytest.raises(ValueError) as refused:
            concord.execute_command(CollectiveCheckpoint(store), scope)
        with pytest.raises(ValueError) as by_query:
            concord.sharing([bad])
        assert str(refused.value) == str(by_query.value) == (
            f"entity id {bad!r} is not a known entity")
        assert store.se_files == {} and store.shared.n_blocks == 0
        assert concord.metrics().value("cmd.executions") == 0

    def test_coverage_statistic(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=2, pages=64)
        assert result.stats.coverage == pytest.approx(1.0)
        assert (result.stats.covered_blocks + result.stats.uncovered_blocks
                == result.stats.local_blocks)

    @pytest.mark.parametrize("service", ["null", "checkpoint"])
    def test_walls_do_not_depend_on_the_sim_clock(self, service):
        """A command's modelled walls are the same whenever it starts:
        the breakdown comes from the charges, not from span timestamps
        laid out at the engine's clock."""
        def run(now):
            cluster, ents, concord = make_system(n_nodes=4)
            cluster.engine.run(until=now)
            assert cluster.engine.now == now
            svc = (NullService() if service == "null"
                   else CollectiveCheckpoint(CheckpointStore()))
            return concord.execute_command(
                svc, ServiceScope.of([e.entity_id for e in ents]))

        at_zero, later = run(0.0), run(1234.567)
        assert at_zero.phases == later.phases
        assert at_zero.wall_time == later.wall_time

    def test_deterministic_given_seed(self):
        r1 = run_probe(seed=5)[4]
        r2 = run_probe(seed=5)[4]
        assert r1.wall_time == r2.wall_time
        assert r1.stats.handled == r2.stats.handled


class TestPhaseBreakdownSplit:
    """The cpu/comm split must come from the critical-path node, not mix
    the max-cpu of one node with the max-total of another."""

    def _executor(self, n_nodes=2):
        from repro.core.executor import ServiceCommandExecutor

        cluster, _ents, concord = make_system(n_nodes=n_nodes)
        ex = ServiceCommandExecutor(cluster, concord.tracing)
        ex._reset_accounting()
        return cluster, ex

    def test_cpu_heavy_and_comm_heavy_nodes(self):
        cluster, ex = self._executor(n_nodes=2)
        bw = cluster.cost.link_bw
        # Node 0: pure CPU, 10 s.  Node 1: tiny CPU, 20 s of comm.
        ex._cpu[(0, "collective")].append(10.0)
        ex._cpu[(1, "collective")].append(1.0)
        ex._rx[(1, "collective")] = int(20.0 * bw)
        b = ex._phase_breakdown("collective")
        barrier = cluster.cost.barrier_time(2)
        # Critical path is node 1 (1 + 20 = 21 > 10): its split must be
        # reported, while max_node_cpu still reflects node 0.
        assert b.wall == pytest.approx(21.0 + barrier)
        assert b.cpu == pytest.approx(1.0)
        assert b.comm == pytest.approx(20.0)
        assert b.max_node_cpu == pytest.approx(10.0)
        # The seed computed comm = max_total - max_cpu = 11 s, attributing
        # node 0's CPU to node 1's wire time.
        assert b.comm != pytest.approx(21.0 - 10.0)
        assert b.cpu + b.comm + b.barrier == pytest.approx(b.wall)

    def test_cpu_dominated_critical_path(self):
        cluster, ex = self._executor(n_nodes=2)
        bw = cluster.cost.link_bw
        ex._cpu[(0, "collective")].append(30.0)
        ex._cpu[(1, "collective")].append(1.0)
        ex._tx[(1, "collective")] = int(5.0 * bw)
        b = ex._phase_breakdown("collective")
        assert b.cpu == pytest.approx(30.0)
        assert b.comm == pytest.approx(0.0)
        assert b.max_node_cpu == pytest.approx(30.0)

    def test_idle_phase_zero(self):
        _cluster, ex = self._executor(n_nodes=2)
        b = ex._phase_breakdown("local")
        assert b.cpu == 0.0 and b.comm == 0.0 and b.max_node_cpu == 0.0
