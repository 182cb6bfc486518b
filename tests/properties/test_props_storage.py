"""Property-based pinning of the warm-restart contract (docs/STORAGE.md).

Hypothesis drives arbitrary interleavings of memory updates, node
kills, cold/warm rejoins, repairs, and durability flushes against a
system on a persistent backend; the process then "dies" (close = flush +
release) and restarts on the same storage root.  The pinned property:
``warm_restart()`` leaves every shard *byte-identical* to a cold
full-NSM rebuild of the same machine — on every persistent backend,
after any schedule.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig)

SLOW = settings(max_examples=6, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

N_NODES = 4
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these

step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart_cold"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart_warm"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("write"), st.integers(0, 200)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.just("repair"), st.just(0)),
    st.tuples(st.just("flush"), st.just(0)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=10)


def make_machine(seed: int):
    """Cluster + entities: 'the machine', which outlives the service."""
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, 150, size=48).astype(np.uint64))
            for node in ENTITY_NODES]
    return cluster, ents


def bring_up(cluster, storage=None):
    return ConCORD(cluster, ConCORDConfig(
        use_network=False,
        storage=storage if storage is not None
        else StorageConfig(backend="memory")))


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
        elif action == "restart_cold" and arg in down:
            concord.restart_node(arg)
            down.discard(arg)
        elif action == "restart_warm" and arg in down:
            concord.restart_node(arg, warm=True)
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
        elif action == "repair":
            concord.repair()
        elif action == "flush":
            concord.tracing.flush_storage()
    # Rejoin whatever is still down so the final states are comparable
    # across runs with and without persistent shards.
    for node in sorted(down):
        concord.restart_node(node)
    concord.repair(full=True)


@pytest.mark.parametrize("backend", ("mmap",))
class TestWarmRestartProperty:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_warm_restart_equals_cold_rebuild(self, backend, schedule, seed):
        root = tempfile.mkdtemp(prefix="concord-props-")
        try:
            cluster, ents = make_machine(seed)
            storage = StorageConfig(backend=backend, root=root)

            concord = bring_up(cluster, storage)
            try:
                concord.initial_scan()
                apply_schedule(concord, ents, schedule)
            finally:
                concord.close()          # the process dies: flush + release

            # The restarted service process: same machine, same root.
            warm = bring_up(cluster, storage)
            try:
                assert warm.storage_recovered is True
                warm.warm_restart()
                got = shard_states(warm)
            finally:
                warm.close()

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
