"""Unit tests for NodeContext and the callback base class."""

import math
import re

import numpy as np
import pytest

from repro.core.command import (
    CollectiveBatch,
    CommandFailed,
    ExecMode,
    NodeContext,
    ServiceCallbacks,
)
from repro.core.scope import ServiceScope
from repro.memory.nsm import NodeSpecificModule
from repro.sim.cluster import Cluster
from tests.conftest import make_system


def make_ctx(mode=ExecMode.INTERACTIVE):
    cluster = Cluster(2)
    nsm = NodeSpecificModule(cluster, 0)
    ctx = NodeContext(0, cluster, nsm, mode, np.random.default_rng(0))
    return cluster, ctx


class TestCharging:
    def test_charge_routes_to_sink(self):
        _c, ctx = make_ctx()
        seen = []
        ctx._charge_sink = lambda node, s: seen.append((node, s))
        ctx.charge(0.5)
        assert seen == [(0, 0.5)]

    def test_charge_without_sink_is_noop(self):
        _c, ctx = make_ctx()
        ctx.charge(1.0)  # no sink attached: silently ignored

    def test_negative_charge_rejected(self):
        """Negative and non-finite charges are refused, naming the value:
        NaN or inf would otherwise reach the phase wall."""
        _c, ctx = make_ctx()
        seen = []
        ctx._charge_sink = lambda node, s: seen.append(s)
        ctx._shared_sink = seen.append
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                ctx.charge(bad)
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                ctx.charge_shared(bad)
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                ctx.charge_per_block(bad)
        assert seen == []

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_batch_charge_rejects_bad_seconds(self, bad):
        """A collective batch refuses the same charges, per row or for
        every row, before anything reaches the engine."""
        cluster, ctx = make_ctx()
        seen = []
        batch = CollectiveBatch(
            {0: ctx}, cluster, np.zeros(3, np.int64), [1, 2, 3],
            np.zeros(3, np.int64), np.zeros(3, np.int64),
            lambda nodes, s: seen.append(s), seen.append)
        for seconds in (bad, [0.0, bad, 1.0]):
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                batch.charge_per_block(seconds)
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                batch.charge_shared(seconds)
        assert seen == []
        batch.charge_shared([0.0, 0.5, 1.0])
        assert seen[0].tolist() == [0.0, 0.5, 1.0]

    def test_charge_per_block_scales_by_representation(self):
        _c, ctx = make_ctx()
        seen = []
        ctx._charge_sink = lambda node, s: seen.append(s)
        ctx.n_represented = 64
        ctx.charge_per_block(1e-6, n_blocks=2)
        assert seen == [pytest.approx(128e-6)]

    def test_charge_shared_routes_to_shared_sink(self):
        _c, ctx = make_ctx()
        shared = []
        ctx._shared_sink = lambda s: shared.append(s)
        ctx.charge_shared(0.25)
        assert shared == [0.25]


class TestSendBytes:
    def test_send_bytes_scaled_and_routed(self):
        _c, ctx = make_ctx()
        seen = []
        ctx._net_sink = lambda src, dst, b: seen.append((src, dst, b))
        ctx.n_represented = 4
        ctx.send_bytes(1, 100)
        assert seen == [(0, 1, 400)]

    def test_send_to_self_is_free(self):
        _c, ctx = make_ctx()
        seen = []
        ctx._net_sink = lambda *a: seen.append(a)
        ctx.send_bytes(0, 100)
        assert seen == []

    def test_negative_bytes_rejected(self):
        _c, ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.send_bytes(1, -5)


class TestDefaultCallbacks:
    def test_base_class_is_a_complete_null_service(self):
        """A bare ServiceCallbacks subclass with nothing overridden must
        run to successful completion (every callback has a sane default)."""
        class Bare(ServiceCallbacks):
            name = "bare"

        _c, ents, concord = make_system(n_nodes=2)
        r = concord.execute_command(Bare(),
                                    ServiceScope.of([e.entity_id
                                                     for e in ents]))
        assert r.success
        assert r.stats.coverage == 1.0  # default collective_command handles

    def test_collective_select_default_is_none(self):
        assert ServiceCallbacks.collective_select is None

    def test_command_failed_reason(self):
        f = CommandFailed("nope")
        assert f.reason == "nope"
        assert CommandFailed().reason == ""


class TestDeinitFailure:
    def test_failed_deinit_marks_command_unsuccessful(self):
        class Grumpy(ServiceCallbacks):
            name = "grumpy"

            def service_deinit(self, ctx):
                return ctx.node_id != 0  # node 0 reports failure

        _c, ents, concord = make_system(n_nodes=2)
        r = concord.execute_command(Grumpy(),
                                    ServiceScope.of([e.entity_id
                                                     for e in ents]))
        assert not r.success


class TestSampleCap:
    def test_hash_sample_capped(self):
        from repro import workloads

        captured = []

        class Sampler(ServiceCallbacks):
            name = "sampler"

            def collective_start(self, ctx, role, entity, hash_sample):
                captured.append(len(hash_sample))

        cluster, ents, concord = make_system(
            n_nodes=1, spec=workloads.nasty(1, 512))
        concord.executor.execute(Sampler(),
                                 ServiceScope.of([ents[0].entity_id]),
                                 sample_cap=16)
        assert captured == [16]
