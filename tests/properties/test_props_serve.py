"""Property-based test for the update-epoch result cache (docs/SERVING.md),
on the path production runs: ``QueryFrontend.submit`` → batch drain →
cache lookup → bulk fill → store.

The serving cache's contract: under ANY interleaving of memory updates,
node kills/restarts/repairs, and queries, a cache-enabled answer is
byte-identical to the answer the uncached path would produce at the same
instant.  Hypothesis drives arbitrary schedules against three frontends
over the *same* system — cached, ``cache_capacity=0`` (the bypass), and
cached with ``verify_cache=True`` — and compares every ``Response.answer``
field for field: value, modelled latency, compute time, coverage, and the
degraded flag.  Consecutive query steps land in one batching window, so
coalescing, per-issuing-node lookups and the bulk fill are all exercised.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.obs import Observability
from repro.queries import OPS
from repro.serve import QueryFrontend, ServeConfig
from repro.util import page_hash

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

N_NODES = 4
N_PAGES = 48
# A small content-ID space, so a schedule readily queries the same content
# before and after an update touches it: entities start out holding IDs
# below OLD_IDS, writes bring in OLD_IDS..ALL_IDS-1, removes write old ones
# back, and node-wise queries ask for the hash of any of them.
OLD_IDS, ALL_IDS = 40, 60
ENTITY_NODES = (0, 1)          # entities pinned here; their memory survives
FAULTY_NODES = (2, 3)          # kills/restarts only ever touch these

# One step of a schedule: a fault action, a memory update, or a query
# (node-wise: the content ID; collective: the k, used by the k-ops only).
step_strategy = st.one_of(
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("repair"), st.just(0)),
    st.tuples(st.just("write"), st.integers(0, 200)),
    st.tuples(st.just("remove"), st.integers(0, 200)),
    st.tuples(st.sampled_from([op for op, s in OPS.items() if s.nodewise]),
              st.integers(0, ALL_IDS - 1)),
    st.tuples(st.sampled_from([op for op, s in OPS.items() if not s.nodewise]),
              st.integers(1, 3)),
)

schedule_strategy = st.lists(step_strategy, min_size=1, max_size=30)

CONFIGS = {
    "cached": ServeConfig(),
    "bypass": ServeConfig(cache_capacity=0),
    "verify": ServeConfig(verify_cache=True),
}


def build(seed: int):
    cluster = Cluster(N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    ents = [Entity.create(cluster, node,
                          rng.integers(0, OLD_IDS, size=N_PAGES).astype(np.uint64))
            for node in ENTITY_NODES]
    concord = ConCORD(cluster, ConCORDConfig(use_network=False))
    concord.initial_scan()
    return cluster, ents, concord


class Frontends:
    """The three frontends over one system, fed identical requests."""

    def __init__(self, cluster, concord):
        self.cluster = cluster
        self.fes = {
            name: QueryFrontend(
                cluster, concord.queries, cfg,
                obs=Observability(clock=lambda: cluster.engine.now))
            for name, cfg in CONFIGS.items()}
        self.got = {name: [] for name in self.fes}

    def submit(self, op, args, issuing_node):
        for name, fe in self.fes.items():
            fe.submit(op, args, issuing_node=issuing_node,
                      on_done=self.got[name].append)

    def flush(self):
        """Drain every frontend; all three must have answered alike.
        Returns the cached frontend's responses."""
        self.cluster.engine.run()
        streams = {
            name: [(r.request.op, r.request.args, r.request.issuing_node,
                    r.answer) for r in got]
            for name, got in self.got.items()}
        assert streams["cached"] == streams["bypass"]
        assert streams["verify"] == streams["bypass"]
        assert not any(r.cache_hit for r in self.got["bypass"])
        cached = self.got["cached"]
        self.got = {name: [] for name in self.fes}
        return cached


class TestCacheEquivalence:
    @SLOW
    @given(schedule_strategy, st.integers(0, 3))
    def test_cached_answers_equal_uncached(self, schedule, seed):
        cluster, ents, concord = build(seed)
        fes = Frontends(cluster, concord)
        eids = tuple(e.entity_id for e in ents)
        down = set()
        n_queries = 0
        for action, arg in schedule:
            if action in OPS:
                spec = OPS[action]
                args = ((page_hash(arg),) if spec.nodewise
                        else (eids, arg) if spec.takes_k else (eids,))
                fes.submit(action, args, arg % N_NODES)
                n_queries += 1
                continue
            # A state change: answer what is queued at the old state first.
            fes.flush()
            if action == "kill" and arg not in down:
                concord.fail_node(arg)
                down.add(arg)
            elif action == "restart" and arg in down:
                concord.restart_node(arg)
                down.discard(arg)
            elif action == "repair":
                concord.repair()
            elif action == "write":
                ents[arg % len(ents)].write_pages(
                    np.array([arg % N_PAGES]),
                    np.array([OLD_IDS + arg % (ALL_IDS - OLD_IDS)],
                             dtype=np.uint64))
                concord.sync()
            elif action == "remove":
                ents[arg % len(ents)].write_pages(
                    np.array([arg % N_PAGES]),
                    np.array([arg % OLD_IDS], dtype=np.uint64))
                concord.sync()
        fes.flush()
        # Final sweep: every content ID answers identically after the dust
        # settles, and a second pass hits without changing the answer.
        sweep = [page_hash(i) for i in range(ALL_IDS)]
        for i, h in enumerate(sweep):
            fes.submit("num_copies", (h,), i % N_NODES)
        first = fes.flush()
        for i, h in enumerate(sweep):
            fes.submit("num_copies", (h,), i % N_NODES)
        again = fes.flush()
        assert all(r.cache_hit for r in again)
        assert [r.answer for r in again] == [r.answer for r in first]
        n_queries += 2 * len(sweep)
        for name, fe in fes.fes.items():
            rep = fe.report()
            assert rep.completed == n_queries, name
            assert rep.cache_violations == 0, name
