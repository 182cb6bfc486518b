"""Property-based pinning of recon repair (docs/RECONCILIATION.md).

Hypothesis drives arbitrary interleavings of node kills, restarts, and
memory mutations, then converges the DHT with the set-reconciliation
path.  The pinned property: ``repair(mode="recon")`` leaves every shard
*byte-identical* to a cold full-NSM rebuild of the same machine — on
every storage backend, after any schedule.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig

SLOW = settings(max_examples=6, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

N_NODES = 4
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these

step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("write"), st.integers(0, 200)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.just("recon"), st.just(0)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=10)


def make_machine(seed: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, 150, size=48).astype(np.uint64))
            for node in ENTITY_NODES]
    return cluster, ents


def bring_up(cluster, backend="memory", root=None):
    return ConCORD(cluster, ConCORDConfig(
        use_network=False, storage=StorageConfig(backend=backend, root=root)))


def shard_states(concord):
    mask = (1 << 80) - 1
    out = []
    for shard in concord.tracing.shards:
        hs, lo, wide = shard.se_scan(mask)
        out.append((hs.tolist(), lo.tolist(), wide,
                    dict(shard.extra_items()),
                    shard.n_hashes, shard.n_copies))
    return out


def apply_schedule(concord, ents, schedule):
    down = set()
    for action, arg in schedule:
        if action == "kill" and arg not in down:
            concord.fail_node(arg)
            down.add(arg)
        elif action == "restart" and arg in down:
            concord.restart_node(arg)
            down.discard(arg)
        elif action == "write":
            ents[arg % len(ents)].write_pages(
                np.array([arg % 48]),
                np.array([arg + 1000], dtype=np.uint64))
            concord.sync()
        elif action == "remove":
            ents[arg % len(ents)].write_pages(
                np.array([arg % 48]),
                np.array([arg % 150], dtype=np.uint64))
            concord.sync()
        elif action == "recon":
            concord.repair(mode="recon")
    for node in sorted(down):
        concord.restart_node(node)


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestReconRepairProperty:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_recon_equals_cold_rebuild(self, backend, schedule, seed):
        root = tempfile.mkdtemp(prefix="concord-recon-")
        try:
            cluster, ents = make_machine(seed)

            concord = bring_up(cluster, backend, root)
            try:
                concord.initial_scan()
                apply_schedule(concord, ents, schedule)
                report = concord.repair(mode="recon")
                assert report.bytes_wire >= 0
                assert report.rounds >= 0
                got = shard_states(concord)
            finally:
                concord.close()

            # Ground truth: a cold rebuild of the same machine, RAM-only.
            cold = bring_up(cluster)
            try:
                cold.initial_scan()
                cold.repair(full=True)
                want = shard_states(cold)
            finally:
                cold.close()

            assert got == want
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_recon_reports_divergent_nodes(self, backend, schedule, seed):
        """node_ops names exactly the shards recon had to touch."""
        root = tempfile.mkdtemp(prefix="concord-recon-")
        try:
            cluster, ents = make_machine(seed)
            concord = bring_up(cluster, backend, root)
            try:
                concord.initial_scan()
                apply_schedule(concord, ents, schedule)
                report = concord.repair(mode="recon")
                touched = sum(i + r for _n, i, r in report.node_ops)
                assert touched == (report.copies_restored
                                   + report.copies_removed)
                # A second recon pass on a converged system is a no-op.
                again = concord.repair(mode="recon")
                assert again.node_ops == ()
                assert again.copies_restored == again.copies_removed == 0
            finally:
                concord.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
