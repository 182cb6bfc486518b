"""One model-based oracle for the system's schedule properties.

The paper's load-bearing guarantee (§3.4) is that "the DHT can always be
rebuilt from the node-local content".  :class:`SystemMachine` drives one
system through arbitrary interleavings of every operation that moves
content, routing or coverage — detected and unnoticed (``FaultPlan``)
crashes, cold and warm rejoins by call or by ``FaultPlan``, memory
writes, every repair mode, a live join left pending
across other rules, entity detach and purge, wipes, durability flushes,
frontend query bursts and (on mmap) a whole-process restart, clean or
right after a write nothing has committed — on {memory, mmap} storage
and {mod, hd} placement, with 67 entities so the wide spill (holders
>= 64) and the overflow columns carry rows.

After every rule (:meth:`SystemMachine.holds`):

* **epochs** — every shard epoch advances on a routing or coverage
  change and the global epoch by exactly the events' count; none moves
  back (an unclean process restart starts a new process's history);
  ``coverage``/``all_intact`` summarise the intact ranges
  (docs/SERVING.md);
* **union** — each collective answer over the union view equals the
  per-shard fold of its kernel, ``0 <= coverage <= 1`` and ``degraded ==
  (coverage < 1)``;
* **frontends** — the cached, ``cache_capacity=0`` and ``verify_cache``
  frontends answer a fixed sweep field for field alike, so a cached
  answer that survived the rule is still the uncached one;
* **homes** — every hash routes to a live, up node.

At teardown the history settles (a pending join cut over, the dead
restarted, ``repair(full=True)``), and then (:meth:`SystemMachine.settled`):

* **truth** — every answer equals :mod:`repro.queries.reference`;
* **recon** — a further recon pass is a no-op (every recon pass also
  reports ``node_ops`` summing to the copies it moved, and one that
  converges is followed by the same no-op check);
* **cache** — a repeated ``num_copies`` sweep hits with the same answers,
  and no frontend counted a violation;
* **rebuild** — every shard equals a RAM-only cold rebuild of the same
  memory at the final membership and placement.  It is also checked
  whenever a rule must converge on its own: right after a process
  restart's ``warm_restart`` while every node is up, and right after a
  full or recon ``repair`` while every node is up and no join is pending.

A new schedule property joins this machine as an invariant (or a rule),
not as a new property file with its own world and CI step.  The example
count scales with the Hypothesis profile: a fifth of it, so tier-1 runs
20 schedules and ``HYPOTHESIS_PROFILE=deep`` 200.
"""

from __future__ import annotations

import functools
import operator
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RULE_MARKER, RuleBasedStateMachine,
                                 initialize, invariant, precondition, rule)

from repro import Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig
from repro.exec import ops as _ops
from repro.obs import Observability
from repro.queries import OPS, ReferenceModel
from repro.serve import QueryFrontend, ServeConfig
from repro.sim.faults import FaultPlan
from repro.util import page_hash
from tests.conftest import shard_states

N_NODES = 4
MAX_NODES = 6
ENTITY_NODES = (0, 1)          # entities live here; their memory survives
FAULTY_NODES = (2, 3)          # crashes and restarts only ever touch these
N_ENTITIES = 67                # ids 64..66 spill into the wide masks
N_PAGES = 6
# Entities start out holding content IDs below OLD_IDS; writes bring in
# any ID below ALL_IDS, so content both appears and vanishes.
OLD_IDS, ALL_IDS = 40, 60
WIDE = (64, 65, 66)
DETACHABLE = (3, 65)
EIDS = (0, 1, 2, 64, 65)       # the frontends' collective queries
HASHES = np.array([page_hash(i) for i in range(ALL_IDS)], dtype=np.uint64)
RATIOS = ("sharing", "intra_sharing", "inter_sharing", "degree_of_sharing")
REPAIR_KW = {"replay": {"mode": "replay"}, "full": {"full": True},
             "delta": {"mode": "delta"}, "recon": {"mode": "recon"}}
CONFIGS = {
    "cached": ServeConfig(),
    "bypass": ServeConfig(cache_capacity=0),
    "verify": ServeConfig(verify_cache=True),
}
# (op, argument): node-wise ops take a content ID, collective ones a k.
QUERY = st.one_of(
    st.tuples(st.sampled_from([op for op, s in OPS.items() if s.nodewise]),
              st.integers(0, ALL_IDS - 1)),
    st.tuples(st.sampled_from([op for op, s in OPS.items()
                               if not s.nodewise]),
              st.integers(1, 3)))
# Asked after every rule: content held from the start and content only
# writes bring in, node-wise and collective.
SWEEP = [(op, i) for i in (0, 13, 41, 59) for op in ("num_copies", "entities")]
SWEEP += [("sharing", 1), ("num_shared_content", 2)]
FAULTY = st.sampled_from(FAULTY_NODES)
ENTITY = st.one_of(st.sampled_from(WIDE), st.integers(0, N_ENTITIES - 1))
PAGE = st.integers(0, N_PAGES - 1)
VALUE = st.integers(0, ALL_IDS - 1)


def answered(src, eids):
    """Every collective answer for ``eids``, from the system (its
    ``QueryResult`` values) or from :class:`ReferenceModel`."""
    out = {op: getattr(src, op)(eids) for op in RATIOS}
    for k in (1, 2, 3):
        out[("num_shared_content", k)] = src.num_shared_content(eids, k)
        out[("shared_content", k)] = src.shared_content(eids, k)
    return {key: getattr(v, "value", v) for key, v in out.items()}


def folded(concord, eids):
    """The same answers from the per-shard fold of each kernel."""
    s_mask, node_masks = concord.queries._entity_masks(eids)
    parts = concord.map_shards(_ops.shard_breakdown, (s_mask, node_masks))
    tot = sum(b.total_copies for b in parts)
    distinct = sum(b.distinct for b in parts)
    out = {
        "sharing": 0.0 if tot == 0 else (tot - distinct) / tot,
        "intra_sharing": 0.0 if tot == 0 else sum(
            b.intra_dup for b in parts) / tot,
        "inter_sharing": 0.0 if tot == 0 else sum(
            b.inter_dup for b in parts) / tot,
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


def step(**strategies):
    """A rule whose body returns what it must do to the epochs:
    ``(every_shard_advances, global_steps)``, the second the exact
    advance of the global epoch or None where it is not pinned.  A body
    that returns nothing may move no epoch back and need move none."""
    def deco(body):
        @functools.wraps(body)
        def run(self, **kw):
            self.before = self.epochs()
            self.unnoticed = self.unnoticed_nodes()
            self.checked = False
            self.expect = body(self, **kw) or (False, None)
        return rule(**strategies)(run)
    return deco


class SystemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.concord = None
        self.root = None
        self.checked = False

    # -- the world ------------------------------------------------------------------

    @initialize(seed=st.integers(0, 2**16),
                backend=st.sampled_from(["memory", "mmap"]),
                placement=st.sampled_from(["mod", "hd"]))
    def bring_up(self, seed, backend, placement):
        self.seed, self.placement = seed, placement
        self.cluster = self.machine()
        self.writes: list[tuple[int, int, int]] = []
        self.attached = set(range(N_ENTITIES))
        self.joining = False
        self.just_crashed = False
        self.root = (tempfile.mkdtemp(prefix="concord-machine-")
                     if backend == "mmap" else None)
        self.open()
        self.concord.initial_scan()
        view = self.concord.queries.view()
        assert len(view.extra[0]) and view.wide   # both paths carry rows
        self.before, self.expect = self.epochs(), (False, None)

    def machine(self) -> Cluster:
        """The machine at bring-up: entities pinned to ENTITY_NODES."""
        cluster = Cluster(N_NODES, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        for i in range(N_ENTITIES):
            Entity.create(cluster, ENTITY_NODES[i % 2],
                          rng.integers(0, OLD_IDS, size=N_PAGES)
                          .astype(np.uint64))
        return cluster

    def open(self):
        """Bring a service process up on the machine, with the three
        frontends over it."""
        storage = StorageConfig(backend="mmap" if self.root else "memory",
                                root=self.root)
        self.concord = ConCORD(self.cluster, ConCORDConfig(
            use_network=False, placement=self.placement, storage=storage))
        cluster = self.cluster
        self.frontends = {
            name: QueryFrontend(
                cluster, self.concord.queries, cfg,
                obs=Observability(clock=lambda: cluster.engine.now))
            for name, cfg in CONFIGS.items()}
        self.submitted = 0

    @property
    def engine(self):
        return self.concord.tracing

    @property
    def membership(self):
        return self.concord.tracing.membership

    def epochs(self):
        return ([s.epoch for s in self.engine.shards],
                self.membership.global_epoch)

    def unnoticed_nodes(self) -> list[int]:
        """Ring members believed alive that are down (crashes nobody has
        noticed yet)."""
        part, up = self.membership.partition, self.cluster.network.node_up
        return [n for n in range(part.n_nodes)
                if part.is_alive(n) and not up[n]]

    def cold_states(self):
        """A RAM-only cold rebuild of the same memory at the current
        membership and placement, on a twin of the machine."""
        twin = self.machine()
        for eid, page, value in self.writes:
            twin.entity(eid).write_pages(np.array([page]),
                                         np.array([value], dtype=np.uint64))
        while twin.n_nodes < self.cluster.n_nodes:
            twin.add_node()
        with ConCORD(twin, ConCORDConfig(
                use_network=False, placement=self.placement,
                storage=StorageConfig(backend="memory"))) as cold:
            for eid in sorted(set(range(N_ENTITIES)) - self.attached):
                cold.detach_entity(eid)
            cold.initial_scan()
            return shard_states(cold.tracing)

    def ask(self, queries):
        """Submit ``(op, argument)`` queries to every frontend in one
        batching window and drain; all three must answer alike.  Returns
        the cached frontend's responses."""
        got = {name: [] for name in self.frontends}
        for op, arg in queries:
            spec = OPS[op]
            args = ((page_hash(arg),) if spec.nodewise
                    else (EIDS, arg) if spec.takes_k else (EIDS,))
            for name, fe in self.frontends.items():
                fe.submit(op, args, issuing_node=arg % N_NODES,
                          on_done=got[name].append)
        self.submitted += len(queries)
        self.cluster.engine.run()
        streams = {name: [(r.request.op, r.request.args,
                           r.request.issuing_node, r.answer) for r in rs]
                   for name, rs in got.items()}
        assert streams["cached"] == streams["bypass"] == streams["verify"]
        assert not any(r.cache_hit for r in got["bypass"])
        return got["cached"]

    def recon_is_noop(self):
        """A converged system gives recon nothing to do, so no epoch
        moves and every cached answer stays valid."""
        before = self.epochs()
        noop = self.concord.repair(mode="recon")
        assert noop.node_ops == ()
        assert noop.copies_restored == noop.copies_removed == 0
        assert self.epochs() == before

    def retire_frontends(self):
        for name, fe in self.frontends.items():
            rep = fe.report()
            assert rep.completed == self.submitted, name
            assert rep.cache_violations == 0, name

    def at_once(self, plan):
        """Run a fault plan whose events are all due now."""
        self.concord.inject_faults(plan)
        self.cluster.engine.run()

    # -- rules ----------------------------------------------------------------------

    @step(node=FAULTY)
    def kill(self, node):
        """Crash-stop a node and fail it over (a detected crash)."""
        if self.membership.partition.is_alive(node):
            self.concord.fail_node(node)
            return True, 1

    @step(node=FAULTY)
    def crash(self, node):
        """A crash nobody has noticed, as a ``FaultPlan`` kill: the NIC
        goes dark and the shard's RAM is lost while the ring still routes
        to it.  The invariants' queries would notice it, so they sit out
        the step right after this one: the next rule runs against the
        unnoticed crash."""
        if self.cluster.network.node_up[node]:
            self.at_once(FaultPlan().kill(self.cluster.engine.now, node))
            self.just_crashed = True

    @step()
    def detect_failures(self):
        self.concord.detect_failures()
        return bool(self.unnoticed), None

    @step(node=FAULTY, warm=st.booleans(), via=st.sampled_from(["call", "plan"]))
    def restart(self, node, warm, via):
        """Bring a down node back, cold (empty) or warm (from its last
        commit, then a delta repair); an unnoticed crash is failed over
        first.  ``via="plan"`` is a ``FaultPlan`` restart, always cold."""
        if self.cluster.network.node_up[node]:
            return
        if via == "plan":
            warm = False
            self.at_once(FaultPlan().restart(self.cluster.engine.now, node))
        else:
            report = self.concord.restart_node(node, warm=warm)
        if warm and set(self.unnoticed) - {node}:
            return True, None   # the delta repair notices the others
        return True, (1 + (node in self.unnoticed)
                      + (warm and report.ranges_repaired > 0))

    @step(entity=ENTITY, page=PAGE, value=VALUE)
    def write(self, entity, page, value):
        """One page write, then a monitoring pass on every up node."""
        self.write_page(entity, page, value)

    def write_page(self, entity, page, value):
        self.writes.append((entity, page, value))
        self.cluster.entity(entity).write_pages(
            np.array([page]), np.array([value], dtype=np.uint64))
        self.concord.sync()

    @step(mode=st.sampled_from(sorted(REPAIR_KW)))
    def repair(self, mode):
        """One repair pass.  It advances the epochs only when it healed
        a hole or changed a shard.  A full or recon pass with every node
        up and no join pending converges on its own: every shard then
        equals a cold rebuild, and after recon a second recon pass is a
        no-op that moves no epoch."""
        holed = not self.membership.all_intact
        states = shard_states(self.engine)
        report = self.concord.repair(**REPAIR_KW[mode])
        if mode == "recon":
            assert sum(i + r for _n, i, r in report.node_ops) == \
                report.copies_restored + report.copies_removed
        moved = holed or shard_states(self.engine) != states
        if mode in ("full", "recon") and not self.joining \
                and all(self.cluster.network.node_up):
            assert shard_states(self.engine) == self.cold_states()
            if mode == "recon":
                self.recon_is_noop()
        return moved or bool(self.unnoticed), \
            None if self.unnoticed else int(moved)

    @precondition(lambda self: not self.joining
                  and self.cluster.n_nodes < MAX_NODES)
    @step()
    def begin_join(self):
        """Start a live join; the handoff stays pending across the rules
        that follow until complete_join cuts it over."""
        self.concord.begin_join()
        self.joining = True
        return True, 1

    @precondition(lambda self: self.joining)
    @step()
    def complete_join(self):
        self.concord.complete_join()
        self.joining = False
        return True, None if self.unnoticed else 1

    @step(entity=st.sampled_from(DETACHABLE))
    def detach(self, entity):
        if entity in self.attached:
            self.concord.detach_entity(entity)
            self.attached.discard(entity)
            return True, 1

    @step(entity=ENTITY)
    def remove_entity(self, entity):
        """Purge an entity from every shard behind its monitor's back
        (damage only a full repair heals)."""
        self.engine.remove_entity(entity)
        return True, 1

    @step()
    def clear(self):
        """Wipe every shard, RAM and storage (healed by a full repair)."""
        self.engine.clear()
        return True, 1

    @step()
    def flush(self):
        """A durability barrier: gives a warm restart a commit to load."""
        self.engine.flush_storage()

    @precondition(lambda self: not self.unnoticed_nodes())
    @step(queries=st.lists(QUERY, min_size=1, max_size=8))
    def query(self, queries):
        """A burst of queries through the three frontends.  (A crash
        nobody has noticed makes "the same instant" ambiguous across
        frontends that share one system; the kept
        ``test_undetected_dead_home_*`` tests pin that path on twins.)"""
        self.ask(queries)

    @precondition(lambda self: self.root is not None and not self.joining)
    @step(mode=st.sampled_from(["delta", "recon"]),
          lost=st.none() | st.tuples(ENTITY, PAGE, VALUE))
    def restart_process(self, mode, lost):
        """The service process dies and a new one comes up on the same
        storage root, re-detaches what was detached, and finishes with
        ``warm_restart``.  With ``lost=None`` it exits cleanly (``close``
        commits every up shard); otherwise it dies right after a page write
        that nothing has committed, so each shard comes back as its last
        commit and the warm restart must remove rows as well as restore
        them."""
        self.retire_frontends()
        clean = lost is None
        if clean:
            self.concord.close()
        else:
            self.write_page(*lost)
        self.open()
        assert self.concord.storage_recovered or not clean
        for eid in sorted(set(range(N_ENTITIES)) - self.attached):
            self.concord.detach_entity(eid)
        if self.concord.storage_recovered:
            self.concord.warm_restart(mode)
        else:                       # a wipe left nothing committed
            self.concord.initial_scan()
        if all(self.cluster.network.node_up):
            assert shard_states(self.engine) == self.cold_states()
        if not clean:
            self.before = self.epochs()   # a new process, a new epoch history

    # -- after every rule -------------------------------------------------------------

    @invariant()
    def holds(self):
        m = self.membership
        after = [s.epoch for s in self.engine.shards]
        assert after == m.epoch_vector().tolist()
        ranges = m._intact[:m.partition.n_nodes]
        assert m.coverage == float(ranges.mean())
        assert m.all_intact == bool(ranges.all())
        (before, g0), (advance, steps) = self.before, self.expect
        if advance:
            assert all(a > b for a, b in zip(after, before)), (before, after)
        else:
            assert all(a >= b for a, b in zip(after, before)), (before, after)
        if steps is not None:
            assert m.global_epoch == g0 + steps, (g0, m.global_epoch)
        if self.just_crashed:
            self.just_crashed = False
        else:
            # Union view == per-shard fold (its queries notice any crash).
            attached = sorted(self.attached)
            for eids in (attached, [0, 1, *WIDE]):
                assert answered(self.concord, eids) == \
                    folded(self.concord, eids), eids
            r = self.concord.sharing(attached)
            assert 0.0 <= r.coverage <= 1.0 and 0.0 <= r.value <= 1.0
            assert r.degraded == (r.coverage < 1.0)
            self.ask(SWEEP)
            homes = m.partition.home_nodes(HASHES)
            assert np.isin(homes, m.partition.alive_nodes()).all()
            assert np.asarray(self.cluster.network.node_up)[homes].all()
        self.checked = True

    # -- after the history -------------------------------------------------------------

    def teardown(self):
        try:
            if self.checked:    # the run passed every rule's checks
                self.settled()
        finally:
            try:
                if self.concord is not None:
                    self.concord.close()
            finally:
                if self.root is not None:
                    shutil.rmtree(self.root, ignore_errors=True)

    def settled(self):
        concord = self.concord
        if self.joining:
            concord.complete_join()
        for node in FAULTY_NODES:
            if not self.cluster.network.node_up[node]:
                concord.restart_node(node)
        concord.repair(full=True)
        assert concord.coverage == 1.0
        # Every answer is the ground truth's.
        ref = ReferenceModel(self.cluster)
        attached = sorted(self.attached)
        for eids in (attached, [0, 1, 64]):
            got, want = answered(concord, eids), answered(ref, eids)
            for key in RATIOS:
                assert got.pop(key) == pytest.approx(want.pop(key)), key
            assert got == want, eids
        per = {e: ref.copy_counts([e]) for e in attached}
        for h in HASHES.tolist():
            assert concord.num_copies(h).value == sum(
                c[h] for c in per.values())
            assert concord.entities(h).value == {
                e for e, c in per.items() if c[h]}
        self.recon_is_noop()
        # A repeated sweep hits the cache with the same answers.
        sweep = [("num_copies", i) for i in range(ALL_IDS)]
        first = self.ask(sweep)
        again = self.ask(sweep)
        assert all(r.cache_hit for r in again)
        assert [r.answer for r in again] == [r.answer for r in first]
        self.retire_frontends()
        assert shard_states(self.engine) == self.cold_states()

    def replay(self, rules, drawn=False, **setup):
        """Run a rule sequence — ``(rule name, arguments)`` pairs — with
        the invariants after each rule and the teardown's checks at the
        end.  A rule whose precondition does not hold is an error in a
        fixed sequence and skipped in a ``drawn`` one (:func:`schedules`)."""
        try:
            self.bring_up(**setup)
            self.holds()
            for name, kw in rules:
                spec = getattr(getattr(type(self), name), RULE_MARKER)
                if not all(p(self) for p in spec.preconditions):
                    assert drawn, name
                    continue
                getattr(self, name)(**kw)
                self.holds()
        finally:
            self.teardown()


def schedules(*names, max_size=10, **narrowed):
    """Rule sequences drawn from the named rules only, for
    :meth:`SystemMachine.replay` with ``drawn=True``: a run of the machine
    focused on some operations.  ``narrowed`` replaces a rule's argument
    strategies (``repair={"mode": st.just("recon")}``)."""
    def rule_steps(name):
        spec = getattr(getattr(SystemMachine, name), RULE_MARKER)
        args = {**spec.arguments, **narrowed.get(name, {})}
        return st.tuples(st.just(name), st.fixed_dictionaries(args))
    return st.lists(st.one_of(*map(rule_steps, names)), min_size=1,
                    max_size=max_size)


def focused():
    """Settings for a focused run: a hundredth of the profile's examples
    (1 in tier-1, 10 at ``HYPOTHESIS_PROFILE=deep``); the machine's own
    run explores the whole rule set."""
    return settings(max_examples=max(1, settings.default.max_examples // 100),
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


TestSystem = SystemMachine.TestCase
TestSystem.settings = settings(
    max_examples=max(1, settings.default.max_examples // 5),
    stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
