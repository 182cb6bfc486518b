"""Distributed execution engine for content-aware service commands.

"At a high-level, it can be viewed as a purpose-specific map-reduce engine
that operates over the data in the tracing engine" (paper §3.1).  The
engine executes the two-phase model of §4:

* **Collective phase** — for each distinct content hash the (best-effort)
  DHT believes exists in the service entities, select a replica among the
  SE/PE holders and invoke ``collective_command`` on that replica's node,
  *verifying against ground truth first*: "A collective_command()
  invocation may fail because the content is no longer available in the
  node.  When this is detected ... ConCORD will select a different
  potential replica and try again.  If it is unsuccessful for all replicas,
  it knows that its information about the content hash is stale."
* **Local phase** — every block of every SE is visited with ground-truth
  information plus the set of collectively-handled hashes, so the service
  is correct regardless of how stale the DHT was.

The host path works in columns: a shard's believed rows, their decoded
candidates and replica orders, each scope entity's ground truth (a sorted
hash column) and each node's handled set (a
:class:`~repro.core.command.HandledMap`) are arrays from the collective
phase to the local phase.

Timing: the executor runs the *real* protocol (real DHT contents, real
selection, real retries, real dissemination) and charges modelled costs to
each node; a node's phase total is the ``math.fsum`` of its charges, so no
order of arrival moves it.  A phase's wall time is the slowest node's CPU
+ NIC time plus the synchronization (barrier) cost.  Byte counts come from
the wire sizes in :mod:`repro.util.records`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from repro.core.command import (
    CollectiveBatch,
    CommandFailed,
    ExecMode,
    HandledMap,
    NodeContext,
    ServiceCallbacks,
    sorted_find,
)
from repro.core.events import CommandTracer, EventKind
from repro.core.scope import ServiceScope
from repro.dht.engine import ContentTracingEngine
from repro.exec import ops as _ops
from repro.exec.pool import ShardPool
from repro.obs import Observability
from repro.queries.interface import _is_integer
from repro.sim.cluster import Cluster
from repro.util.hashing import mix64, mix64_int
from repro.util.records import ENTITY_ID_BYTES, HASH_BYTES, UDP_HEADER_BYTES

__all__ = ["ServiceCommandExecutor", "CommandResult", "CommandStats", "PhaseBreakdown"]

_U64 = np.uint64
_M64 = (1 << 64) - 1

_MSG_OVERHEAD = UDP_HEADER_BYTES + 16
_INVOKE_BYTES = HASH_BYTES + ENTITY_ID_BYTES + 4
_RESULT_BYTES = HASH_BYTES + 12
_EXCHANGE_ENTRY_BYTES = HASH_BYTES + 12

PHASES = ("init", "collective", "local", "teardown")


@dataclass
class CommandStats:
    """What actually happened during one command execution."""

    believed_hashes: int = 0        # distinct hashes the DHT claimed for SEs
    handled: int = 0                # hashes successfully handled collectively
    stale_unhandled: int = 0        # hashes whose every replica had vanished
    retries: int = 0                # failed invocations that triggered retry
    invokes: int = 0                # collective_command dispatches
    select_calls: int = 0           # collective_select invocations
    local_blocks: int = 0           # SE blocks visited in the local phase
    covered_blocks: int = 0         # ... whose hash was handled collectively
    uncovered_blocks: int = 0       # ... handled purely locally
    tx_bytes_per_node: dict[int, int] = field(default_factory=dict)
    rx_bytes_per_node: dict[int, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of SE blocks the collective phase covered."""
        if self.local_blocks == 0:
            return 0.0
        return self.covered_blocks / self.local_blocks

    @property
    def total_bytes(self) -> int:
        return sum(self.tx_bytes_per_node.values())

    def max_node_bytes(self) -> int:
        nodes = set(self.tx_bytes_per_node) | set(self.rx_bytes_per_node)
        return max((self.tx_bytes_per_node.get(n, 0)
                    + self.rx_bytes_per_node.get(n, 0) for n in nodes), default=0)


@dataclass
class PhaseBreakdown:
    """Wall time of one phase plus the critical-path node's split.

    ``cpu`` and ``comm`` are the CPU and communication components *of the
    node that attains the phase's maximum cpu+comm* (the critical path), so
    ``cpu + comm + barrier`` (+ shared/extra wall) reconstructs ``wall``.
    ``max_node_cpu`` is the largest CPU component across all nodes, which
    may belong to a different node than the critical-path one.
    """

    wall: float = 0.0
    max_node_cpu: float = 0.0
    cpu: float = 0.0
    comm: float = 0.0
    barrier: float = 0.0

    @classmethod
    def from_totals(cls, cpu: list[float], comm: list[float],
                    shared: float = 0.0, barrier: float = 0.0,
                    extra_wall: float = 0.0) -> PhaseBreakdown:
        """The breakdown of per-node totals, ``cpu[n]`` and ``comm[n]`` of
        node ``n``.

        The critical path is the node maximizing cpu+comm, and the split
        reported is *that* node's (mixing the global max-cpu with the
        global max-total would blend two different nodes).  Ties go to the
        lowest node id; an idle node contributes nothing.
        """
        max_cpu = max_total = crit_cpu = crit_comm = 0.0
        for c, m in zip(cpu, comm):
            max_cpu = max(max_cpu, c)
            if c + m > max_total:
                max_total, crit_cpu, crit_comm = c + m, c, m
        return cls(wall=max_total + shared + barrier + extra_wall,
                   max_node_cpu=max_cpu, cpu=crit_cpu, comm=crit_comm,
                   barrier=barrier)


@dataclass
class CommandResult:
    success: bool
    wall_time: float
    phases: dict[str, PhaseBreakdown]
    stats: CommandStats
    mode: ExecMode
    handled_private: HandledMap
    contexts: dict[int, NodeContext]


class ServiceCommandExecutor:
    """Executes one parametrized service command over the cluster."""

    def __init__(self, cluster: Cluster, tracing: ContentTracingEngine,
                 n_represented: int = 1,
                 obs: Observability | None = None) -> None:
        self.cluster = cluster
        self.tracing = tracing
        self.cost = cluster.cost
        self.n_represented = n_represented
        self.obs = obs if obs is not None else Observability()
        self.pool = ShardPool()

    # -- accounting -----------------------------------------------------------------

    def _reset_accounting(self) -> None:
        # Every charge of the command, per (node, phase) and, for the
        # shared resource, per phase.  A phase's totals are math.fsum of
        # these lists: correctly rounded, so no arrival order moves them.
        self._cpu: dict[tuple[int, str], list[float]] = defaultdict(list)
        self._shared: dict[str, list[float]] = defaultdict(list)
        self._tx: dict[tuple[int, str], int] = defaultdict(int)
        self._rx: dict[tuple[int, str], int] = defaultdict(int)
        self._phase = "init"
        self._tracer: CommandTracer | None = None
        # Timeline cursor for the command's modelled spans: phases are laid
        # out back-to-back in sim time starting at the engine's current
        # clock (executor costs are analytic; the sim clock does not
        # advance while execute() runs).
        self._t_cursor = float(self.cluster.engine.now)

    def _charge(self, node: int, seconds: float) -> None:
        self._cpu[(node, self._phase)].append(seconds)

    def _charge_shared(self, seconds: float) -> None:
        self._shared[self._phase].append(seconds)

    def _charge_rows(self, nodes: np.ndarray, seconds: np.ndarray) -> None:
        """``_charge(nodes[i], seconds[i])`` for every row ``i``."""
        by_node = np.argsort(nodes)
        seconds = seconds[by_node]
        for node, lo, hi in _runs(nodes[by_node]):
            self._cpu[(node, self._phase)] += seconds[lo:hi].tolist()

    def _charge_shared_rows(self, seconds: np.ndarray) -> None:
        self._shared[self._phase] += seconds.tolist()

    def _emit(self, kind: EventKind, *data) -> None:
        if self._tracer is not None:
            self._tracer.emit(kind, *data)

    def _set_phase(self, phase: str) -> None:
        self._emit(EventKind.PHASE_END, self._phase)
        self._phase = phase
        self._emit(EventKind.PHASE_BEGIN, phase)

    def _msg(self, src: int, dst: int, payload: int) -> None:
        if src == dst:
            return
        size = payload + _MSG_OVERHEAD
        self._tx[(src, self._phase)] += size
        self._rx[(dst, self._phase)] += size

    def _phase_breakdown(self, phase: str, extra_wall: float = 0.0) -> PhaseBreakdown:
        """Close one phase: its breakdown from each node's fsum'd charges
        and NIC time; with tracing on, the phase's spans (per node cpu
        first, then NIC time); then advance the timeline cursor by the
        wall."""
        n_nodes = self.cluster.n_nodes
        bw = self.cost.link_bw
        cpu = [math.fsum(self._cpu.get((node, phase), ()))
               for node in range(n_nodes)]
        comm = [(self._tx.get((node, phase), 0)
                 + self._rx.get((node, phase), 0)) / bw
                for node in range(n_nodes)]
        shared = math.fsum(self._shared.get(phase, ()))
        barrier = self.cost.barrier_time(n_nodes)
        bd = PhaseBreakdown.from_totals(cpu, comm, shared=shared,
                                        barrier=barrier, extra_wall=extra_wall)
        t0 = self._t_cursor
        tr = self.obs.tracer
        if tr.enabled:
            tr.add_span(f"cmd.phase.{phase}", t0, t0 + bd.wall, phase=phase)
            for node, (c, m) in enumerate(zip(cpu, comm)):
                if c > 0.0:
                    tr.add_span("cmd.cpu", t0, t0 + c, node=node, phase=phase)
                if m > 0.0:
                    tr.add_span("cmd.comm", t0 + c, t0 + c + m, node=node,
                                phase=phase)
            # Shared work and the barrier run after the slowest node.
            t = t0 + bd.cpu + bd.comm
            if shared > 0.0:
                tr.add_span("cmd.shared", t, t + shared, phase=phase)
            if barrier > 0.0:
                tr.add_span("cmd.barrier", t + shared, t + shared + barrier,
                            phase=phase)
        self._t_cursor = t0 + bd.wall
        return bd

    # -- main entry point -------------------------------------------------------------

    def execute(self, service: ServiceCallbacks, scope: ServiceScope,
                mode: ExecMode = ExecMode.INTERACTIVE, config: Any = None,
                seed: int = 0, sample_cap: int = 1024,
                tracer: CommandTracer | None = None) -> CommandResult:
        mode = ExecMode.check(mode, param="mode")
        if mode not in (ExecMode.INTERACTIVE, ExecMode.BATCH):
            raise ValueError(
                f"mode {mode} is a query mode, not a command mode "
                "(use ExecMode.INTERACTIVE or ExecMode.BATCH)")
        cluster = self.cluster
        cost = self.cost
        R = self.n_represented
        stats = CommandStats()
        self._reset_accounting()
        self._tracer = tracer

        for eid in scope.all_entities():
            if not _is_integer(eid) or eid not in cluster.entities:
                raise ValueError(f"entity id {eid!r} is not a known entity")
        # The local phase walks every SE's blocks on its host node; a dead
        # host means those blocks are gone and the command cannot be
        # correct, so refuse up front.  Dead *PE* hosts are fine — their
        # replicas just fail over in the collective phase — but callbacks
        # run node-locally, so an entity on a dead host gets none.
        node_up = cluster.network.node_up
        for eid in scope.service_entities:
            if not node_up[cluster.node_of(eid)]:
                raise RuntimeError(
                    f"service entity {eid} lives on failed node "
                    f"{cluster.node_of(eid)}; restart it before commanding")

        live_entities = [eid for eid in scope.all_entities()
                         if node_up[cluster.node_of(eid)]]
        scope_nodes = sorted(cluster.nodes_hosting(live_entities))
        contexts: dict[int, NodeContext] = {}
        for node in range(cluster.n_nodes):
            nsm = cluster.nodes[node].nsm
            if nsm is None:
                raise RuntimeError("ConCORD not brought up on this cluster "
                                   "(node has no NSM)")
            ctx = NodeContext(node, cluster, nsm, mode,
                              np.random.default_rng(seed * 1000003 + node))
            ctx.n_represented = R
            ctx.obs = self.obs
            ctx._charge_sink = self._charge
            ctx._net_sink = self._msg
            ctx._shared_sink = self._charge_shared
            contexts[node] = ctx
        t_start = self._t_cursor

        phases: dict[str, PhaseBreakdown] = {}

        # ---- phase 0: service initialization ---------------------------------
        self._emit(EventKind.PHASE_BEGIN, "init")
        bcast_wall = cost.reliable_bcast_time(len(scope_nodes), 256)
        for node in scope_nodes:
            service.service_init(contexts[node], config)

        # collective_start per scope entity, with advisory hash samples
        # from the entity's node-local DHT shard slice.
        samples = self._hash_samples(live_entities, sample_cap)
        for eid in live_entities:
            entity = cluster.entity(eid)
            node = entity.node_id
            role = scope.role_of(eid)
            service.collective_start(contexts[node], role, entity,
                                     samples.get(eid, np.empty(0, np.uint64)))
        phases["init"] = self._phase_breakdown("init", extra_wall=bcast_wall)

        # ---- phase 1: collective -----------------------------------------------
        self._set_phase("collective")
        handled_private, handled_by_node = self._collective_phase(
            service, scope, contexts, seed, stats, mode)
        for eid in live_entities:
            entity = cluster.entity(eid)
            service.collective_finalize(contexts[entity.node_id],
                                        scope.role_of(eid), entity)
        phases["collective"] = self._phase_breakdown("collective")

        # ---- phase 2: local ------------------------------------------------------
        self._set_phase("local")
        self._local_phase(service, scope, contexts, handled_by_node, stats,
                          mode)
        for eid in scope.service_entities:
            entity = cluster.entity(eid)
            service.local_finalize(contexts[entity.node_id], entity)
        phases["local"] = self._phase_breakdown("local")

        # ---- phase 3: teardown ------------------------------------------------------
        self._set_phase("teardown")
        success = True
        for node in scope_nodes:
            ok = service.service_deinit(contexts[node])
            self._emit(EventKind.DEINIT, node, bool(ok))
            self._msg(node, scope_nodes[0], 64)  # result gather at controller
            success = success and bool(ok)
        phases["teardown"] = self._phase_breakdown(
            "teardown", extra_wall=cost.rtt())
        self._emit(EventKind.PHASE_END, "teardown")

        for (node, _ph), b in self._tx.items():
            stats.tx_bytes_per_node[node] = stats.tx_bytes_per_node.get(node, 0) + b
        for (node, _ph), b in self._rx.items():
            stats.rx_bytes_per_node[node] = stats.rx_bytes_per_node.get(node, 0) + b

        wall = sum(p.wall for p in phases.values())
        reg = self.obs.registry
        reg.counter("cmd.executions").inc()
        reg.counter("cmd.invokes").inc(stats.invokes)
        reg.counter("cmd.retries").inc(stats.retries)
        reg.counter("cmd.handled").inc(stats.handled)
        reg.counter("cmd.stale_unhandled").inc(stats.stale_unhandled)
        reg.histogram("cmd.wall_s").observe(wall)
        tr = self.obs.tracer
        if tr.enabled:
            tr.add_span("cmd", t_start, t_start + wall,
                        service=type(service).__name__,
                        mode=mode.name,
                        handled=stats.handled, coverage=stats.coverage)
        return CommandResult(success=success, wall_time=wall, phases=phases,
                             stats=stats, mode=mode,
                             handled_private=handled_private, contexts=contexts)

    # -- helpers -----------------------------------------------------------------------

    def _hash_samples(self, entity_ids: list[int],
                      sample_cap: int) -> dict[int, np.ndarray]:
        """Advisory per-entity hash samples from each entity's local shard.

        For entity e on node n, the sample is the set of hashes *node n's
        own shard* maps to e — "a partial set ... derived using the data
        available on the local instance of the DHT" (paper §4.3) — i.e. a
        1/n slice of e's believed content.
        """
        cluster = self.cluster
        tracing = self.tracing
        by_node: dict[int, list[int]] = defaultdict(list)
        for eid in entity_ids:
            by_node[cluster.node_of(eid)].append(eid)
        nodes = list(by_node)
        shards = [tracing.shards[n] for n in nodes]
        for node, shard in zip(nodes, shards):
            self._charge(node, shard.n_hashes * self.cost.query_scan_per_entry
                         * self.n_represented)
        # One sampling kernel per involved shard, merged in node order.
        samples = self.pool.map_shards(
            shards, _ops.hash_samples,
            args_per_shard=[(by_node[n], sample_cap) for n in nodes])
        return {eid: s for m in samples for eid, s in m.items()}

    def _collective_phase(self, service: ServiceCallbacks, scope: ServiceScope,
                          contexts: dict[int, NodeContext], seed: int,
                          stats: CommandStats, mode: ExecMode
                          ) -> tuple[HandledMap, dict[int, HandledMap]]:
        """Map collective_command over distinct believed SE hashes, then
        disseminate the handled set.

        Returns the private data of every handled hash, and each node's
        view of it (:meth:`_disseminate_handled`).

        Each shard's believed rows are worked as arrays.  A row's
        candidates are its holders in scope; its replica order is
        ``collective_select``'s pick first, then the candidates by
        :func:`_replica_rank` under the key ``mix64_int(seed)`` (a lone
        candidate ranks nothing).  A replica whose node is down or whose
        memory no longer holds the hash fails over to the next; the first
        that holds it gets the row's ``collective_command``, through one
        ``collective_command_batch`` per shard.  Each charge joins its
        node's (or the shared resource's) list for the phase as it comes:
        the totals are their ``math.fsum``, so handling the rows in any
        order — the batch's, the per-hash protocol's, a service's own —
        gives the same totals.
        """
        cluster = self.cluster
        cost = self.cost
        R = self.n_represented
        se_mask = scope.se_mask
        scope_mask = scope.scope_mask
        scope_lo = _U64(scope_mask & _M64)
        se_lo = _U64(se_mask & _M64)
        handled: list[_Handled] = []
        invoke_cost = (cost.cmd_invoke_overhead if mode is ExecMode.INTERACTIVE
                       else cost.cmd_invoke_overhead * 0.6 + cost.cmd_plan_append)
        truth = _GroundTruth(cluster, scope)
        # SE-holder mask -> nodes hosting those SEs, memoized: the distinct
        # holder sets are few even at millions of hashes.
        ses = sorted(scope.service_entities)
        se_memo: dict[int, frozenset] = {}

        def holder_nodes(se_part: int) -> frozenset:
            nodes = se_memo.get(se_part)
            if nodes is None:
                nodes = se_memo[se_part] = frozenset(
                    cluster.node_of(e) for e in ses if se_part >> e & 1)
            return nodes

        # Only the live shards can answer: holed ranges contribute nothing
        # here, and the local phase covers whatever this misses (§4.3's
        # staleness argument extends unchanged to failure-induced holes).
        # The scans themselves are prefetched through the pool; the
        # protocol then walks the results in shard order.
        live = self.tracing.live_shards()
        scans = self.pool.map_shards(live, _ops.se_scan, (se_mask,))
        for shard, (hashes, lo, wide) in zip(live, scans):
            shard_node = shard.node_id
            # The shard scans its slice for hashes believed in the SEs.
            self._charge(shard_node,
                         shard.n_hashes * cost.query_scan_per_entry * R)
            stats.believed_hashes += len(hashes)
            if not len(hashes):
                continue
            hash_list = hashes.tolist()

            # -- candidates and replica order ------------------------------
            cand_lo = lo & scope_lo
            n_cand = np.bitwise_count(cand_lo)
            # A lone candidate is the index of its bit.
            first = np.bitwise_count(cand_lo - _U64(1)).astype(np.int64)
            # Several candidates, or a wide row (holders >= entity 64
            # live only in its full mask): decode each row's holders.
            multi = np.flatnonzero(n_cand > 1)
            words = cand_lo[multi, None]
            se_wide: dict[int, int] = {}
            if wide:
                w_rows = np.searchsorted(hashes, np.fromiter(
                    wide, dtype=_U64, count=len(wide)))
                se_wide = dict(zip(w_rows.tolist(),
                                   [f & se_mask for f in wide.values()]))
                multi = np.union1d(multi, w_rows)
                shifts = range(0, scope_mask.bit_length() + 1, 64)
                words = np.zeros((len(multi), len(shifts)), _U64)
                words[:, 0] = cand_lo[multi]
                words[np.searchsorted(multi, w_rows)] = [
                    [(f & scope_mask) >> s & _M64 for s in shifts]
                    for f in wide.values()]
            owner, cand = np.nonzero(np.unpackbits(
                words.astype("<u8", copy=False).view(np.uint8), axis=1,
                bitorder="little"))
            n_multi = np.bincount(owner, minlength=len(multi))
            drawn = n_multi > 0
            n_cand[multi] = drawn
            start = np.cumsum(n_multi) - n_multi
            order = cand[np.lexsort((_replica_rank(
                mix64_int(seed), hashes[multi[owner]], cand), owner))]
            first[multi[drawn]] = order[start[drawn]]
            rows = np.flatnonzero(n_cand)
            if not len(rows):
                continue
            row_list = rows.tolist()
            replicas = _Replicas(first, multi, np.append(start, len(cand)),
                                 cand, order, {})
            if service.collective_select is not None:
                self._select(service, contexts[shard_node], row_list,
                             hash_list, replicas)
                stats.select_calls += len(row_list)

            # -- ground truth: the first replica that holds the hash -------
            eids = first[rows]
            nodes = truth.node_arr[eids]
            pages = truth.pages(eids, hashes[rows], nodes)
            tries = np.zeros(len(rows), dtype=np.int64)
            # Rows whose first choice failed keep a trail: (entity,
            # node invoked or None, reason) per replica that failed.
            trails: dict[int, list[_Failed]] = {}
            for j in np.flatnonzero(pages < 0).tolist():
                r = row_list[j]
                trails[j] = []
                found = truth.walk(hash_list[r], replicas.lists(r)[1], 0,
                                   trails[j])
                if found is not None:
                    tries[j], eids[j], nodes[j], pages[j] = found
            take = np.flatnonzero(pages >= 0)

            # -- the service: one batch, then any CommandFailed chains -----
            privates = self._invoke(service, contexts, eids[take],
                                    hashes[rows[take]], pages[take],
                                    nodes[take])
            failed = [] if privates.dtype != object else [
                i for i, p in enumerate(privates) if isinstance(p, CommandFailed)]
            for i in failed:
                result = privates[i]
                j = int(take[i])
                r = row_list[j]
                trail = trails.setdefault(j, [])
                while isinstance(result, CommandFailed):
                    trail.append((int(eids[j]), int(nodes[j]),
                                  result.reason or "callback-failed"))
                    found = truth.walk(hash_list[r], replicas.lists(r)[1],
                                       int(tries[j]) + 1, trail)
                    if found is None:
                        result = _STALE
                        break
                    tries[j], eids[j], nodes[j], pages[j] = found
                    (result,) = self._invoke(
                        service, contexts, eids[j:j + 1], hashes[r:r + 1],
                        pages[j:j + 1], nodes[j:j + 1])
                privates[i] = result
            ok = np.zeros(len(rows), dtype=bool)   # row was handled
            ok[take] = True
            ok[take[[i for i in failed if privates[i] is _STALE]]] = False

            # -- accounting ------------------------------------------------
            self._cpu[(shard_node, self._phase)] += \
                [cost.cmd_select_overhead * R] * len(rows)
            self._account_invokes(stats, shard_node, nodes, ok, trails,
                                  invoke_cost * R)

            # -- the handled set and the protocol trace ---------------------
            h_rows = rows[ok]
            privates = privates[ok[take]]
            stats.handled += len(privates)
            stats.stale_unhandled += len(rows) - len(privates)
            se_parts, group = np.unique(lo[h_rows] & se_lo,
                                        return_inverse=True)
            holders = [holder_nodes(m) for m in se_parts.tolist()]
            for r, se_part in se_wide.items():
                at = np.searchsorted(h_rows, r)
                if at < len(h_rows) and h_rows[at] == r:
                    group[at] = len(holders)
                    holders.append(holder_nodes(se_part))
            handled.append(_Handled(shard_node, hashes[h_rows], privates,
                                    group, holders))
            if self._tracer is not None:
                self._trace_rows(row_list, hash_list, replicas, eids,
                                 nodes, ok, trails)
        parts = [(p.hashes, p.privates) for p in handled if len(p.hashes)]
        handled_private = (HandledMap(*map(np.concatenate, zip(*parts)))
                           if parts else HandledMap())
        return handled_private, self._disseminate_handled(handled)

    def _select(self, service: ServiceCallbacks, ctx: NodeContext,
                row_list: list[int], hash_list: list[int],
                replicas: _Replicas) -> None:
        """``collective_select`` per candidate row, in row order, on the
        shard's node: its pick goes first in the row's order."""
        for r in row_list:
            c, order = replicas.lists(r)
            pick = service.collective_select(ctx, hash_list[r], list(c))
            if pick is None:
                continue
            if pick not in c:
                raise ValueError(
                    f"collective_select returned non-candidate {pick}")
            order.remove(pick)
            replicas.picked[r] = [pick] + order
            replicas.first[r] = pick

    def _invoke(self, service: ServiceCallbacks,
                contexts: dict[int, NodeContext], eids: np.ndarray,
                hashes: np.ndarray, pages: np.ndarray,
                nodes: np.ndarray) -> np.ndarray:
        """One ``collective_command_batch`` over these rows, its results
        as a column: a typed array as it is, else objects (None: True)."""
        if not len(hashes):
            return np.empty(0, dtype=object)
        batch = CollectiveBatch(contexts, self.cluster, eids, hashes, pages,
                                nodes, self._charge_rows,
                                self._charge_shared_rows)
        results = service.collective_command_batch(batch)
        if not isinstance(results, np.ndarray) or results.dtype == object:
            results = np.fromiter((True if r is None else r for r in results),
                                  dtype=object)
        if len(results) != len(hashes):
            raise ValueError(
                f"collective_command_batch returned {len(results)} results "
                f"for {len(hashes)} rows")
        return results

    def _account_invokes(self, stats: CommandStats, shard_node: int,
                         nodes: np.ndarray, ok: np.ndarray,
                         trails: dict[int, list[_Failed]],
                         invoke_cost: float) -> None:
        """Charges, messages and counts of every invocation of one shard's
        rows."""
        plain = ok.copy()                 # handled by the first choice
        plain[list(trails)] = False
        retried: list[int] = []           # nodes invoked by rows that retried
        for j, trail in trails.items():
            stats.retries += len(trail)
            retried += [node for _eid, node, _reason in trail
                        if node is not None]
            if ok[j]:
                retried.append(int(nodes[j]))
        inv_nodes = np.concatenate([nodes[plain], retried]).astype(np.int64)
        stats.invokes += len(inv_nodes)
        # Invoke to the replica's node, result back: small control messages.
        R = self.n_represented
        ph = self._phase
        invoke = _INVOKE_BYTES * R + _MSG_OVERHEAD
        result = _RESULT_BYTES * R + _MSG_OVERHEAD
        for node, n in zip(*(a.tolist() for a in np.unique(
                inv_nodes, return_counts=True))):
            self._cpu[(node, ph)] += [invoke_cost] * n
            if node != shard_node:
                self._tx[(shard_node, ph)] += n * invoke
                self._rx[(node, ph)] += n * invoke
                self._tx[(node, ph)] += n * result
                self._rx[(shard_node, ph)] += n * result

    def _trace_rows(self, row_list: list[int], hash_list: list[int],
                    replicas: _Replicas, eids: np.ndarray, nodes: np.ndarray,
                    ok: np.ndarray, trails: dict[int, list[_Failed]]) -> None:
        """One shard's protocol events, row by row in serial order."""
        emit = self._tracer.emit
        for j, (r, eid, node, handled) in enumerate(zip(
                row_list, eids.tolist(), nodes.tolist(), ok.tolist())):
            h = hash_list[r]
            c, order = replicas.lists(r)
            emit(EventKind.SELECT, h, tuple(c), order[0])
            for failed, at, reason in trails.get(j, ()):
                if at is not None:
                    emit(EventKind.INVOKE, h, failed, at)
                emit(EventKind.INVOKE_FAILED, h, failed, reason)
            if handled:
                emit(EventKind.INVOKE, h, eid, node)
                emit(EventKind.HANDLED, h, eid)
            else:
                emit(EventKind.STALE, h, tuple(order))

    def _disseminate_handled(self, handled: list[_Handled]
                             ) -> dict[int, HandledMap]:
        """Shards push handled entries to the nodes believed to need them.

        Each shard pushes its handled (hash, private) entries to the nodes
        whose SEs it believes hold that hash, so local_command can see the
        handled set (paper §4.3).  Per-node traffic is therefore bounded by
        the node's own content, which is what keeps it constant as the
        system scales (§5.4's ~15 MB/node).  A node learns about hash h
        only if the DHT's bitmap says one of its SEs holds h.  If that
        information was stale the node simply treats h as unhandled and
        falls back to local content — correct, slightly less deduplicated.
        Returns each node's :class:`HandledMap`, built from the column
        slices every shard sent it.

        Each shard sends one exchange per destination, in the order its
        rows (then their holder sets) first name the destination.
        """
        R = self.n_represented
        parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = \
            defaultdict(list)
        for shard_node, hashes, privates, group, holders in handled:
            told = np.zeros((len(holders), self.cluster.n_nodes), dtype=bool)
            told[np.repeat(np.arange(len(holders)), list(map(len, holders))),
                 [dst for nodes in holders for dst in nodes]] = True
            entries = np.bincount(group, minlength=len(holders)) @ told
            dsts: list[int] = []            # in the order rows name them
            for g in dict.fromkeys(group.tolist()):
                dsts += [dst for dst in holders[g] if dst not in dsts]
            for dst, n_entries in zip(dsts, entries[dsts].tolist()):
                rows = told[group, dst]
                parts[dst].append((hashes[rows], privates[rows]))
                self._emit(EventKind.EXCHANGE, shard_node, dst, n_entries)
                self._msg(shard_node, dst,
                          n_entries * _EXCHANGE_ENTRY_BYTES * R)
        return {dst: HandledMap(*map(np.concatenate, zip(*cols)))
                for dst, cols in parts.items()}

    def _local_phase(self, service: ServiceCallbacks, scope: ServiceScope,
                     contexts: dict[int, NodeContext],
                     handled_by_node: dict[int, HandledMap],
                     stats: CommandStats, mode: ExecMode) -> None:
        cluster = self.cluster
        cost = self.cost
        R = self.n_represented
        per_block = (cost.cmd_local_per_block if mode is ExecMode.INTERACTIVE
                     else cost.cmd_local_per_block * 0.6 + cost.cmd_plan_append)

        for eid in scope.service_entities:
            entity = cluster.entity(eid)
            node = entity.node_id
            handled = handled_by_node.get(node) or HandledMap()
            ctx = contexts[node]
            service.local_start(ctx, entity)
            hashes = entity.content_hashes()
            n = len(hashes)
            self._charge(node, n * per_block * R)
            stats.local_blocks += n

            covered = handled.covered(hashes)
            service.local_command_batch(ctx, entity, hashes, covered,
                                        handled)
            n_cov = int(covered.sum())
            stats.covered_blocks += n_cov
            stats.uncovered_blocks += n - n_cov
            self._emit(EventKind.LOCAL_ENTITY, eid, n, n_cov)


# The private value of a row whose every replica failed.
_STALE = object()

# A replica that failed a row: (entity, the node invoked — None if its node
# was down — reason).
_Failed = tuple[int, int | None, str]


class _Handled(NamedTuple):
    """One shard's handled rows, in row order."""

    shard_node: int
    hashes: np.ndarray            # uint64
    privates: np.ndarray          # aligned with ``hashes``
    group: np.ndarray             # row -> its SE-holder set in ``holders``
    holders: list[frozenset]      # nodes hosting the SEs believed to hold it


def _runs(keys: np.ndarray):
    """``(value, start, stop)`` of each run of equal values in ``keys``,
    a sorted array of non-negative ints."""
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    return zip(keys[heads].tolist(), heads.tolist(),
               [*heads[1:].tolist(), len(keys)])


def _replica_rank(key: int, hashes: np.ndarray,
                  entities: np.ndarray) -> np.ndarray:
    """Rendezvous rank of replica ``entities[i]`` of ``hashes[i]`` under
    a command's ``key``, ascending: ``mix64`` is a bijection, so no two
    candidates tie, and no candidate moves another's place."""
    return mix64(mix64(hashes ^ _U64(key)) ^ entities.astype(_U64))


class _Replicas(NamedTuple):
    """One shard's replica choices.  Row ``multi[k]`` has several
    candidates, ``cand[bounds[k]:bounds[k + 1]]`` ascending, and its order
    of them at the same place in ``ranked``; any other row has its first
    choice alone.  ``picked`` holds ``collective_select``'s orders."""

    first: np.ndarray
    multi: np.ndarray
    bounds: np.ndarray
    cand: np.ndarray
    ranked: np.ndarray
    picked: dict[int, list[int]]

    def lists(self, r: int) -> tuple[list[int], list[int]]:
        """Row ``r``'s candidates and replica order, as lists."""
        k = int(np.searchsorted(self.multi, r))
        if k < len(self.multi) and self.multi[k] == r:
            at = slice(self.bounds[k], self.bounds[k + 1])
            c, order = self.cand[at].tolist(), self.ranked[at].tolist()
        else:
            c = order = [int(self.first[r])]
        return c, self.picked.get(r) or order


class _GroundTruth:
    """Where each scope entity lives, and what its memory holds now: the
    check ``NodeSpecificModule.resolve_block`` makes, over arrays — each
    entity's ``sorted_index``, one sorted search per entity and shard."""

    def __init__(self, cluster: Cluster, scope: ServiceScope) -> None:
        self.cluster = cluster
        eids = scope.all_entities()
        self.node_arr = np.zeros(max(eids, default=-1) + 1, dtype=np.int64)
        for eid in eids:
            self.node_arr[eid] = cluster.node_of(eid)
        self.up = np.array(cluster.network.node_up, dtype=bool)

    def pages(self, eids: np.ndarray, hashes: np.ndarray,
              nodes: np.ndarray) -> np.ndarray:
        """Page of ``eids[i]`` holding ``hashes[i]``, -1 if gone or its
        node is down."""
        out = np.full(len(eids), -1, dtype=np.int64)
        at = np.flatnonzero(self.up[nodes])
        at = at[np.argsort(eids[at], kind="stable")]
        for eid, lo, hi in _runs(eids[at]):
            col, page_of = self.cluster.entity(eid).sorted_index()
            i, found = sorted_find(col, hashes[at[lo:hi]])
            out[at[lo:hi][found]] = page_of[i[found]]
        return out

    def walk(self, h: int, order: list[int], k: int,
             trail: list[_Failed]
             ) -> tuple[int, int, int, int] | None:
        """First replica from ``order[k]`` on that holds ``h``: ``(k,
        entity, node, page)``; those that fail are appended to
        ``trail``."""
        for k in range(k, len(order)):
            eid = order[k]
            node = int(self.node_arr[eid])
            if not self.up[node]:
                trail.append((eid, None, "node-down"))
                continue
            page = self.cluster.entity(eid).find_block(h)
            if page is None:
                trail.append((eid, node, "content-gone"))
                continue
            return k, eid, node, page
        return None
