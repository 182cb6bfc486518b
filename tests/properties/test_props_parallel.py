"""Property-based determinism test for the multi-core execution backend.

The ShardPool contract (docs/PARALLEL.md): ``workers=N`` is byte-identical
to ``workers=1`` — reductions merge in shard-index order, never completion
order, and workers run the same kernels the serial path runs inline.
Hypothesis drives arbitrary interleavings of memory updates, node
kills/restarts, anti-entropy repairs, and collective queries against one
system per worker count and compares every answer, every repair report,
and the final per-shard columnar state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.exec import ops

SLOW = settings(max_examples=6, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

WORKER_COUNTS = (1, 4, 8)
N_NODES = 4
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these

step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("repair"), st.just(0)),
    st.tuples(st.just("write"), st.integers(0, 200)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.just("q_sharing"), st.just(0)),
    st.tuples(st.just("q_degree"), st.just(0)),
    st.tuples(st.just("q_shared_k"), st.integers(1, 3)),
    st.tuples(st.just("q_shared_set"), st.integers(1, 3)),
    st.tuples(st.just("mr_hist"), st.just(0)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=12)


def build(seed: int, workers: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, 150, size=48).astype(np.uint64))
            for node in ENTITY_NODES]
    concord = ConCORD(cluster, ConCORDConfig(use_network=False,
                                             workers=workers))
    # Tiny tables would stay inline behind the min_rows heuristic; force
    # real fan-out so the property exercises the parallel path.
    concord.pool.min_rows = 0
    concord.initial_scan()
    return cluster, ents, concord


def shard_states(concord):
    """Byte-comparable columnar state of every shard."""
    mask = (1 << 80) - 1
    out = []
    for shard in concord.tracing.shards:
        hs, lo, wide = shard.se_scan(mask)
        out.append((hs.tolist(), lo.tolist(), wide,
                    dict(shard.extra_items()),
                    shard.n_hashes, shard.n_copies))
    return out


class TestWorkerCountInvariance:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_any_schedule_is_worker_count_invariant(self, schedule, seed):
        systems = [build(seed, w) for w in WORKER_COUNTS]
        try:
            eids = [e.entity_id for e in systems[0][1]]
            down = set()
            for action, arg in schedule:
                results = []
                for _cluster, ents, concord in systems:
                    if action == "kill" and arg not in down:
                        concord.fail_node(arg)
                    elif action == "restart" and arg in down:
                        concord.restart_node(arg)
                    elif action == "repair":
                        results.append(concord.repair())
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
                    elif action == "q_sharing":
                        results.append(concord.sharing(eids))
                    elif action == "q_degree":
                        results.append(concord.degree_of_sharing(eids))
                    elif action == "q_shared_k":
                        results.append(concord.num_shared_content(eids, arg))
                    elif action == "q_shared_set":
                        results.append(concord.shared_content(eids, arg))
                    elif action == "mr_hist":
                        results.append(concord.map_shards(
                            ops.copy_histogram, ((1 << 80) - 1,)))
                if action == "kill":
                    down.add(arg)
                elif action == "restart":
                    down.discard(arg)
                if results:
                    for got in results[1:]:
                        assert got == results[0], \
                            f"{action} diverged across worker counts"
            # Final sweep: execution state itself must be byte-identical,
            # not just the answers observed along the way.
            want = shard_states(systems[0][2])
            for _cl, _e, concord in systems[1:]:
                assert shard_states(concord) == want
            reports = [c.repair(full=True) for _cl, _e, c in systems]
            assert all(r == reports[0] for r in reports)
            want = shard_states(systems[0][2])
            for _cl, _e, concord in systems[1:]:
                assert shard_states(concord) == want
        finally:
            for _cl, _e, concord in systems:
                concord.close()


class TestPoolPlumbing:
    def test_facade_owns_one_pool(self):
        _cl, _e, concord = build(0, workers=4)
        try:
            assert concord.pool.workers == 4
            assert concord.tracing.pool is concord.pool
            assert concord.queries.pool is concord.pool
        finally:
            concord.close()

    def test_close_is_idempotent(self):
        _cl, _e, concord = build(0, workers=2)
        concord.map_shards(ops.copy_histogram, (255,))
        concord.close()
        concord.close()

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("CONCORD_WORKERS", "3")
        assert ConCORDConfig().workers == 3
        for bad in ("bogus", "0", "-2"):
            monkeypatch.setenv("CONCORD_WORKERS", bad)
            with pytest.raises(ValueError, match="CONCORD_WORKERS.*>= 1"):
                ConCORDConfig()
        monkeypatch.delenv("CONCORD_WORKERS")
        assert ConCORDConfig().workers == 1

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ConCORD(Cluster(2, seed=0), ConCORDConfig(use_network=False,
                                                      workers=0))
