"""Property-based pinning of elastic membership (docs/ELASTICITY.md).

Two contracts:

* **Join/handoff convergence** — Hypothesis drives arbitrary
  interleavings of memory updates, node kills/restarts, repairs, and
  live joins (including writes landing *between* ``begin_join`` and
  ``complete_join``, the incremental-handoff window).  After the dust
  settles, every shard is byte-identical to a from-scratch bring-up of
  the same machine at the final membership, on RAM and persistent
  storage alike.

* **Flash-crowd byte-identity** — an open-loop overload on 8 nodes with
  the autoscaler live-joining to 32 produces, request for request, the
  same answer values as the same traffic against a static 32-node ring
  (and zero ``serve.cache.violations`` with the verifying cache on):
  scaling is invisible to clients except as capacity.
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
MAX_NODES = 8                  # the new-cluster testbed's physical cap
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these

step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("write"), st.integers(0, 200)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.just("repair"), st.just(0)),
    # "join" alternates begin/complete, so consecutive joins leave a
    # handoff pending across the steps in between — faults and writes
    # land inside the incremental window.
    st.tuples(st.just("join"), st.just(0)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=12)


def make_machine(seed: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, 150, size=48).astype(np.uint64))
            for node in ENTITY_NODES]
    return cluster, ents


def bring_up(cluster, storage=None, placement="mod"):
    return ConCORD(cluster, ConCORDConfig(
        use_network=False, placement=placement,
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
    pending = False
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
        elif action == "repair":
            concord.repair()
        elif action == "join":
            if pending:
                concord.complete_join()
                pending = False
            elif concord.cluster.n_nodes < MAX_NODES:
                concord.begin_join()
                pending = True
    # Settle: cut over a dangling handoff, rejoin the dead, converge.
    if pending:
        concord.complete_join()
    for node in sorted(down):
        concord.restart_node(node)
    concord.repair(full=True)


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestJoinConvergenceProperty:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3),
           st.sampled_from(["mod", "hd"]))
    def test_join_handoff_converges_to_fresh_bringup(self, backend,
                                                     schedule, seed,
                                                     placement):
        root = (tempfile.mkdtemp(prefix="concord-elastic-")
                if backend != "memory" else None)
        try:
            storage = (StorageConfig(backend=backend, root=root)
                       if root else None)
            cluster, ents = make_machine(seed)

            concord = bring_up(cluster, storage, placement=placement)
            try:
                concord.initial_scan()
                apply_schedule(concord, ents, schedule)
                got = shard_states(concord)
            finally:
                concord.close()

            # Ground truth: a from-scratch bring-up of the same machine
            # at the final (grown) membership, RAM-only.
            fresh = bring_up(cluster, placement=placement)
            try:
                fresh.initial_scan()
                fresh.repair(full=True)
                want = shard_states(fresh)
            finally:
                fresh.close()

            assert got == want
        finally:
            if root:
                shutil.rmtree(root, ignore_errors=True)


def _norm(v):
    if isinstance(v, np.ndarray):
        return tuple(v.tolist())
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    return v


def _serve_run(n_nodes, autoscale, seed):
    """One traffic run; returns (report, {(client, t_submit): answer},
    completed joins, final node count)."""
    from repro.serve.autoscaler import AutoscalerConfig
    from repro.serve.config import ServeConfig
    from repro.workloads import TrafficSpec, instantiate, moldy

    cluster = Cluster(n_nodes, cost="big-cluster", seed=seed)
    # The same entities regardless of ring size (they live on nodes 0-7),
    # so both runs trace identical content.
    instantiate(cluster, moldy(8, 256, seed=seed))
    cfg = ServeConfig(queue_limit=100_000, verify_cache=True)
    concord = ConCORD(cluster, ConCORDConfig(serve=cfg, placement="hd"))
    concord.initial_scan()
    spec = TrafficSpec(n_clients=8, duration_s=0.16,
                       rate_per_client=2000.0, seed=seed)
    scale = (AutoscalerConfig(max_nodes=32, queue_depth_high=0.0,
                              p95_high_s=0.0)
             if autoscale else None)
    rep = concord.serve(spec, autoscale=scale, keep_responses=True)
    answers = {(r.request.client_id, r.request.t_submit):
               (r.request.op, _norm(r.request.args), _norm(r.value))
               for r in concord._last_traffic.responses}
    joins = (concord._last_autoscaler.joins
             if concord._last_autoscaler is not None else [])
    return rep, answers, joins, concord.cluster.n_nodes


class TestFlashCrowdProperty:
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 3))
    def test_scale_8_to_32_is_byte_identical_to_static(self, seed):
        rep_e, ans_e, joins, n_final = _serve_run(8, autoscale=True,
                                                  seed=seed)
        # The flash crowd drove the ring all the way out, live.
        assert n_final == 32
        assert len(joins) == 24
        assert rep_e.cache_violations == 0
        assert rep_e.rejected == 0

        rep_s, ans_s, _, _ = _serve_run(32, autoscale=False, seed=seed)
        assert rep_s.cache_violations == 0
        assert rep_s.rejected == 0

        # Same submissions, and answer-for-answer identical values.
        assert set(ans_e) == set(ans_s)
        assert ans_e == ans_s
