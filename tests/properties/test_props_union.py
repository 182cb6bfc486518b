"""Property-based pinning of the collective queries' union view.

A collective query runs its kernel once over
:meth:`Generation.union <repro.dht.generation.Generation.union>` of the
live shards' generations (``QueryInterface.view``).  Hypothesis drives
arbitrary interleavings of memory writes (multi-copy pages and entities
>= 64, so the overflow columns and the wide spill both carry rows),
failover, cold and warm restarts, every repair mode, begin/complete join
and entity detach, on RAM and persistent storage.  After every step each
collective answer must equal the per-shard fold of the same kernel
(``ConCORD.map_shards``); after the history settles it must also equal
the ground truth of :mod:`repro.queries.reference`.
"""

import operator
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig
from repro.exec import ops as _ops
from repro.queries.reference import ReferenceModel

SLOW = settings(max_examples=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

N_NODES = 4
MAX_NODES = 6
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these
N_ENTITIES = 67                # ids 64..66 spill into the wide masks
N_PAGES = 6
N_CONTENT = 40                 # few values: pages repeat within an entity
WIDE = (64, 65, 66)
DETACHABLE = (3, 65)

step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart_cold"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart_warm"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("write"), st.integers(0, 10_000)),
    st.tuples(st.just("repair"), st.sampled_from(["replay", "delta",
                                                  "recon"])),
    # "join" alternates begin/complete, so a handoff stays pending across
    # the steps in between.
    st.tuples(st.just("join"), st.just(0)),
    st.tuples(st.just("detach"), st.sampled_from(DETACHABLE)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=10)


def make_machine(seed: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, ENTITY_NODES[i % 2],
                          rng.integers(0, N_CONTENT,
                                       size=N_PAGES).astype(np.uint64))
            for i in range(N_ENTITIES)]
    return cluster, ents


def query_sets(attached):
    """Entity sets to ask about: everything, a narrow and a wide subset."""
    return [sorted(attached), [0, 1, 2], [0, 1, *WIDE]]


def folded(concord, eids):
    """Every collective answer from the per-shard fold of its kernel."""
    s_mask, node_masks = concord.queries._entity_masks(eids)
    parts = concord.map_shards(_ops.shard_breakdown, (s_mask, node_masks))
    tot = sum(b.total_copies for b in parts)
    distinct = sum(b.distinct for b in parts)
    intra = sum(b.intra_dup for b in parts)
    inter = sum(b.inter_dup for b in parts)
    out = {
        "sharing": 0.0 if tot == 0 else (tot - distinct) / tot,
        "intra_sharing": 0.0 if tot == 0 else intra / tot,
        "inter_sharing": 0.0 if tot == 0 else inter / tot,
        "degree_of_sharing": 1.0 if tot == 0 else distinct / tot,
    }
    for k in (1, 2, 3):
        out[("num_shared_content", k)] = concord.map_shards(
            _ops.count_at_least, (s_mask, k), reduce_fn=operator.add,
            initial=0)
        out[("shared_content", k)] = set().union(*(
            hs.tolist() for hs in concord.map_shards(
                _ops.hashes_at_least, (s_mask, k))))
    return out


RATIOS = ("sharing", "intra_sharing", "inter_sharing", "degree_of_sharing")


def answered(src, eids):
    """The same answers from the system (its ``QueryResult`` values) or
    from :class:`ReferenceModel` (plain values)."""
    out = {op: getattr(src, op)(eids) for op in RATIOS}
    for k in (1, 2, 3):
        out[("num_shared_content", k)] = src.num_shared_content(eids, k)
        out[("shared_content", k)] = src.shared_content(eids, k)
    return {key: getattr(v, "value", v) for key, v in out.items()}


def check_against_fold(concord, attached):
    for eids in query_sets(attached):
        assert answered(concord, eids) == folded(concord, eids), eids


def run_schedule(concord, ents, schedule):
    down = set()
    attached = set(range(N_ENTITIES))
    pending = False
    for action, arg in schedule:
        if action == "kill" and arg not in down:
            concord.fail_node(arg)
            down.add(arg)
        elif action.startswith("restart") and arg in down:
            concord.restart_node(arg, warm=action == "restart_warm")
            down.discard(arg)
        elif action == "write":
            eid = sorted(attached)[arg % len(attached)]
            ents[eid].write_pages(
                np.array([arg % N_PAGES]),
                np.array([arg % N_CONTENT], dtype=np.uint64))
            concord.sync()
        elif action == "repair":
            if arg == "replay":
                concord.repair()
            elif arg == "delta":
                concord.repair(delta=True)
            else:
                concord.repair(mode="recon")
        elif action == "join":
            if pending:
                concord.complete_join()
                pending = False
            elif concord.cluster.n_nodes < MAX_NODES:
                concord.begin_join()
                pending = True
        elif action == "detach" and arg in attached:
            concord.detach_entity(arg)
            attached.discard(arg)
        check_against_fold(concord, attached)
    # Settle: cut over a dangling handoff, rejoin the dead, converge.
    if pending:
        concord.complete_join()
    for node in sorted(down):
        concord.restart_node(node)
    concord.repair(full=True)
    return attached


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestUnionViewProperty:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_union_equals_shard_fold_and_reference(self, backend, schedule,
                                                   seed):
        root = (tempfile.mkdtemp(prefix="concord-union-")
                if backend != "memory" else None)
        try:
            storage = (StorageConfig(backend=backend, root=root) if root
                       else StorageConfig(backend="memory"))
            cluster, ents = make_machine(seed)
            concord = ConCORD(cluster, ConCORDConfig(use_network=False,
                                                     storage=storage))
            try:
                concord.initial_scan()
                view = concord.queries.view()
                assert len(view.extra[0]) and view.wide  # both paths used
                attached = run_schedule(concord, ents, schedule)
                check_against_fold(concord, attached)
                ref = ReferenceModel(cluster)
                for eids in (sorted(attached), [0, 1, 64]):
                    got = answered(concord, eids)
                    want = answered(ref, eids)
                    for key in RATIOS:
                        assert got.pop(key) == pytest.approx(want.pop(key))
                    assert got == want, eids
            finally:
                concord.close()
        finally:
            if root:
                shutil.rmtree(root, ignore_errors=True)
