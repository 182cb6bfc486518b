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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.obs import Observability
from repro.queries import OPS
from repro.dht.storage import StorageConfig
from repro.serve import CachedQueries, QueryFrontend, ServeConfig
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


# -- the invariant the self-validating hit rests on ---------------------------------
#
# A cached node-wise entry is served while its stored home is up and that
# shard's epoch stands where it stood at the store (serve/cache.py
# ``CachedQueries.lookup``).  That is exact only if every engine operation
# that can move ``home(h)`` or coverage advances *every* shard epoch.

# (kind, argument): membership, repair by each mode, wholesale removals,
# and content updates (which advance one shard only and are not checked).
# ``kill`` takes a node's NIC down and loses its shard RAM without telling
# the ring (a crash nobody has noticed yet); ``detect`` probes for it, and
# so do the cutover and a repair, each through its own lazy detection.
engine_op_strategy = st.one_of(
    st.tuples(st.just("fail"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("kill"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("detect"), st.just(0)),
    st.tuples(st.just("restart_cold"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("restart_warm"), st.sampled_from(FAULTY_NODES)),
    st.tuples(st.just("begin_join"), st.just(0)),
    st.tuples(st.just("complete_join"), st.just(0)),
    st.tuples(st.just("repair"),
              st.sampled_from(["replay", "full", "delta", "recon"])),
    st.tuples(st.just("clear"), st.just(0)),
    st.tuples(st.just("remove_entity"), st.integers(0, 1)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("write"), st.integers(0, 200)),
)

REPAIR_KW = {"replay": {}, "full": {"full": True}, "delta": {"delta": True},
             "recon": {"mode": "recon"}}
MAX_NODES = N_NODES + 2


class TestEpochInvariant:
    @SLOW
    @given(st.lists(engine_op_strategy, min_size=1, max_size=16),
           st.sampled_from(["memory", "mmap"]))
    # Every operation at least once, the warm restart with a commit to
    # recover, the repairs with damage to repair, a join cut over with a
    # holed range and with none, and an unnoticed crash found by each of
    # the probe, the cutover and a repair.
    @example(ops=[("flush", 0), ("write", 7), ("fail", 2),
                  ("repair", "replay"), ("restart_warm", 2),
                  ("repair", "delta"), ("fail", 3), ("begin_join", 0),
                  ("write", 9), ("complete_join", 0), ("restart_cold", 3),
                  ("repair", "recon"), ("repair", "full"),
                  ("kill", 2), ("detect", 0), ("restart_cold", 2),
                  ("begin_join", 0), ("kill", 3), ("complete_join", 0),
                  ("restart_cold", 3), ("kill", 2), ("repair", "delta"),
                  ("remove_entity", 1), ("clear", 0)],
             backend="mmap")
    def test_routing_and_coverage_changes_advance_every_shard_epoch(
            self, ops, backend):
        cluster = Cluster(N_NODES, seed=1)
        rng = np.random.default_rng(1)
        ents = [Entity.create(
            cluster, node,
            rng.integers(0, OLD_IDS, size=N_PAGES).astype(np.uint64))
            for node in ENTITY_NODES]
        cfg = ConCORDConfig(use_network=False,
                            storage=StorageConfig(backend=backend))
        with ConCORD(cluster, cfg) as concord:
            concord.initial_scan()
            engine, net = concord.tracing, cluster.network
            m = engine.membership
            for kind, arg in ops:
                before = [s.epoch for s in engine.shards]
                g0 = m.global_epoch
                # A crash nobody has noticed: the next lazy detection
                # fails it over, with its own every-epoch advance.
                undetected = any(m.partition.is_alive(n) and not net.node_up[n]
                                 for n in range(m.partition.n_nodes))
                # A direct event advances the global epoch by exactly one.
                must_advance = exact = True
                if kind == "fail":
                    must_advance = exact = m.partition.is_alive(arg)
                    net.set_node_up(arg, False)
                    m.node_failed(arg)
                elif kind == "kill":
                    net.set_node_up(arg, False)
                    engine.shards[arg].crash()
                    must_advance = exact = False
                elif kind == "detect":
                    concord.detect_failures()
                    must_advance, exact = undetected, False
                elif kind in ("restart_cold", "restart_warm"):
                    must_advance = exact = not m.partition.is_alive(arg)
                    net.set_node_up(arg, True)
                    m.node_restarted(arg, recover=kind == "restart_warm")
                elif kind == "begin_join":
                    if (m._pending_join is not None
                            or cluster.n_nodes >= MAX_NODES):
                        continue
                    concord.begin_join()
                elif kind == "complete_join":
                    if m._pending_join is None:
                        continue
                    concord.complete_join()
                    exact = not undetected
                elif kind == "repair":
                    # With every range intact, a replay or delta repair
                    # has no target: nothing changes, nothing bumps.
                    report = engine.repair(**REPAIR_KW[arg])
                    must_advance = report.ranges_repaired > 0 or undetected
                    exact = must_advance and not undetected
                elif kind == "clear":
                    engine.clear()
                elif kind == "remove_entity":
                    engine.remove_entity(ents[arg].entity_id)
                elif kind == "flush":
                    # Gives a later warm restart a commit to recover.
                    engine.flush_storage()
                    must_advance = exact = False
                elif kind == "write":
                    ents[arg % len(ents)].write_pages(
                        np.array([arg % N_PAGES]),
                        np.array([OLD_IDS + arg % (ALL_IDS - OLD_IDS)],
                                 dtype=np.uint64))
                    concord.sync()
                    must_advance = exact = False
                after = [s.epoch for s in engine.shards]
                # The attribute the hit check reads is the engine's vector.
                assert after == m.epoch_vector().tolist(), (kind, arg)
                # And the two fields the queries read are the vector's
                # summary over the routed ring, whatever just wrote it.
                ranges = m._intact[:m.partition.n_nodes]
                assert m.coverage == float(ranges.mean()), (kind, arg)
                assert m.all_intact == bool(ranges.all()), (kind, arg)
                if must_advance:
                    assert all(a > b for a, b in zip(after, before)), \
                        (kind, arg, before, after)
                else:
                    assert all(a >= b for a, b in zip(after, before)), \
                        (kind, arg, before, after)
                if exact:
                    assert m.global_epoch == g0 + 1, \
                        (kind, arg, g0, m.global_epoch)

    def test_undetected_dead_home_takes_the_detection_path(self):
        # The home dies between store and lookup and nobody has noticed:
        # its epoch has not moved, only ``node_up[home]`` is false.  The
        # cached query must detect the failure exactly as the uncached one
        # does — same answer, same counters, same epochs.
        def system():
            cluster, _ents, concord = build(2)
            return cluster, concord.tracing, concord.queries

        cluster, engine, queries = system()
        ref_cluster, ref_engine, ref_queries = system()
        h = next(page_hash(i) for i in range(OLD_IDS)
                 if engine.home_node(page_hash(i)) in FAULTY_NODES)
        home = engine.home_node(h)
        obs = Observability()
        cached = CachedQueries(queries, obs=obs)
        first, hit = cached.query("num_copies", (h,), 0)
        assert not hit and first == ref_queries.num_copies(h, 0)
        assert cached.query("num_copies", (h,), 0) == (first, True)

        for c, e in ((cluster, engine), (ref_cluster, ref_engine)):
            c.network.set_node_up(home, False)     # no node_failed()
            e.shards[home].crash()
        token, _result = cached.cache.peek(("num_copies", h, 0))
        m = engine.membership
        assert token == (home, m.shard_epoch(home))   # epoch unmoved
        assert m.partition.is_alive(home)             # undetected

        answer, hit = cached.query("num_copies", (h,), 0)
        assert not hit
        assert answer == ref_queries.num_copies(h, 0)
        assert answer != first and answer.degraded
        assert not m.partition.is_alive(home)         # detected now
        assert engine.stats.failovers == ref_engine.stats.failovers == 1
        assert m.epoch_vector().tolist() == \
            ref_engine.membership.epoch_vector().tolist()
        reg = obs.registry
        assert (reg.value("serve.cache.hits"),
                reg.value("serve.cache.misses"),
                reg.value("serve.cache.invalidations")) == (1, 2, 1)
        # And the re-homed answer is cached under its new home.
        assert cached.query("num_copies", (h,), 0) == (answer, True)

    def test_undetected_dead_home_through_the_frontends(self):
        # One twin system per frontend configuration: sharing one engine
        # would let the first frontend's drain do the detecting for the
        # other two, mid-comparison.
        twins = {}
        for name, cfg in CONFIGS.items():
            cluster, _ents, concord = build(2)
            fe = QueryFrontend(
                cluster, concord.queries, cfg,
                obs=Observability(clock=lambda c=cluster: c.engine.now))
            twins[name] = (cluster, concord.tracing, fe)
        victim = FAULTY_NODES[0]
        # Only content homed on the victim: a hit on a live shard before
        # the batch reaches the dead one is answered as of *its* instant
        # (full coverage), where the uncached bulk fill resolves every
        # home first — a difference of instants, not of paths.
        home_of = twins["cached"][1].home_node
        hashes = [h for h in map(page_hash, range(ALL_IDS))
                  if home_of(h) == victim]
        assert len(hashes) > 3

        def sweep():
            streams = {}
            for name, (cluster, _engine, fe) in twins.items():
                got = []
                for i, h in enumerate(hashes):
                    fe.submit("num_copies", (h,), issuing_node=i % N_NODES,
                              on_done=got.append)
                cluster.engine.run()
                streams[name] = got
            answers = {name: [r.answer for r in got]
                       for name, got in streams.items()}
            assert answers["cached"] == answers["bypass"] == answers["verify"]
            return streams["cached"]

        sweep()
        assert all(r.cache_hit for r in sweep())
        for cluster, engine, _fe in twins.values():
            cluster.network.set_node_up(victim, False)   # no node_failed()
            engine.shards[victim].crash()
        after = sweep()
        assert not any(r.cache_hit for r in after)
        assert all(r.answer.degraded for r in after)
        engines = [engine for _c, engine, _fe in twins.values()]
        for engine in engines:
            assert not engine.membership.partition.is_alive(victim)
            assert engine.stats.failovers == 1
            assert engine.membership.epoch_vector().tolist() == \
                engines[0].membership.epoch_vector().tolist()
        for name, (_c, _e, fe) in twins.items():
            assert fe.report().cache_violations == 0, name
