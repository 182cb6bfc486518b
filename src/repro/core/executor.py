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

Timing: the executor runs the *real* protocol (real DHT contents, real
selection, real retries, real dissemination) and charges modelled costs to
each node; a phase's wall time is the slowest node's CPU + NIC time plus
the synchronization (barrier) cost.  Byte counts come from the wire sizes
in :mod:`repro.util.records`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, NamedTuple

import numpy as np

from repro.core.command import (
    CollectiveBatch,
    CommandFailed,
    ExecMode,
    NodeContext,
    ServiceCallbacks,
)
from repro.core.events import CommandTracer, EventKind
from repro.core.scope import ServiceScope
from repro.dht.engine import ContentTracingEngine
from repro.dht.table import mask_bits
from repro.exec import ops as _ops
from repro.exec.pool import ShardPool
from repro.obs import Observability, Span
from repro.sim.cluster import Cluster
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
    def from_spans(cls, spans: list[Span], shared: float = 0.0,
                   barrier: float = 0.0,
                   extra_wall: float = 0.0) -> PhaseBreakdown:
        """Derive the breakdown from per-node ``cmd.cpu``/``cmd.comm`` spans.

        The spans are the single source of truth for per-node work; the
        critical path is the node maximizing cpu+comm, and the split
        reported is *that* node's (mixing the global max-cpu with the
        global max-total would blend two different nodes).  Ties go to the
        lowest node id, and nodes with no spans contribute nothing.
        """
        cpu_by: dict[int, float] = defaultdict(float)
        comm_by: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.name == "cmd.cpu":
                cpu_by[s.node] += s.duration
            elif s.name == "cmd.comm":
                comm_by[s.node] += s.duration
        max_cpu = max_total = crit_cpu = crit_comm = 0.0
        for node in sorted(set(cpu_by) | set(comm_by)):
            cpu = cpu_by[node]
            comm = comm_by[node]
            if cpu > max_cpu:
                max_cpu = cpu
            if cpu + comm > max_total:
                max_total = cpu + comm
                crit_cpu, crit_comm = cpu, comm
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
    handled_private: dict[int, Any]
    contexts: dict[int, NodeContext]

    def phase_wall(self, name: str) -> float:
        return self.phases[name].wall


class ServiceCommandExecutor:
    """Executes one parametrized service command over the cluster."""

    def __init__(self, cluster: Cluster, tracing: ContentTracingEngine,
                 n_represented: int = 1,
                 obs: Observability | None = None,
                 pool: ShardPool | None = None) -> None:
        self.cluster = cluster
        self.tracing = tracing
        self.cost = cluster.cost
        self.n_represented = n_represented
        self.obs = obs if obs is not None else Observability()
        # Parallel backend for the shard-scan fan-outs (docs/PARALLEL.md);
        # workers=1 = inline, exactly the previous behavior.
        self.pool = pool if pool is not None else ShardPool(1)

    # -- accounting -----------------------------------------------------------------

    def _reset_accounting(self) -> None:
        self._cpu: dict[tuple[int, str], float] = defaultdict(float)
        self._tx: dict[tuple[int, str], int] = defaultdict(int)
        self._rx: dict[tuple[int, str], int] = defaultdict(int)
        self._phase = "init"
        self._shared: dict[str, float] = defaultdict(float)
        self._tracer: CommandTracer | None = None
        # Timeline cursor for the command's modelled spans: phases are laid
        # out back-to-back in sim time starting at the engine's current
        # clock (executor costs are analytic; the sim clock does not
        # advance while execute() runs).
        self._t_cursor = float(self.cluster.engine.now)

    def _charge(self, node: int, seconds: float) -> None:
        self._cpu[(node, self._phase)] += seconds

    def _charge_shared(self, seconds: float) -> None:
        self._shared[self._phase] += seconds

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

    def _node_spans(self, phase: str) -> list[Span]:
        """Per-node ``cmd.cpu``/``cmd.comm`` spans of one phase, laid out at
        the timeline cursor (cpu first, then the node's NIC time)."""
        cost = self.cost
        t0 = self._t_cursor
        spans: list[Span] = []
        for node in range(self.cluster.n_nodes):
            cpu = self._cpu.get((node, phase), 0.0)
            comm = (self._tx.get((node, phase), 0)
                    + self._rx.get((node, phase), 0)) / cost.link_bw
            if cpu > 0.0:
                spans.append(Span("cmd.cpu", t0, t0 + cpu, node=node,
                                  phase=phase))
            if comm > 0.0:
                spans.append(Span("cmd.comm", t0 + cpu, t0 + cpu + comm,
                                  node=node, phase=phase))
        return spans

    def _phase_breakdown(self, phase: str, extra_wall: float = 0.0) -> PhaseBreakdown:
        """Close one phase: derive its breakdown from the per-node spans,
        record the spans, and advance the timeline cursor by the wall."""
        spans = self._node_spans(phase)
        shared = self._shared.get(phase, 0.0)
        barrier = self.cost.barrier_time(self.cluster.n_nodes)
        bd = PhaseBreakdown.from_spans(spans, shared=shared, barrier=barrier,
                                       extra_wall=extra_wall)
        t0 = self._t_cursor
        tr = self.obs.tracer
        if tr.enabled:
            tr.add_span(f"cmd.phase.{phase}", t0, t0 + bd.wall, phase=phase)
            tr.extend(spans)
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
        rng = np.random.default_rng(seed)
        stats = CommandStats()
        self._reset_accounting()
        self._tracer = tracer

        for eid in scope.all_entities():
            if eid not in cluster.entities:
                raise KeyError(f"unknown entity {eid} in scope")
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
            service, scope, contexts, rng, stats, mode)
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
        # One sampling kernel per involved shard; dispatched through the
        # pool (inline at workers=1) and merged in node order, so the
        # result dict is identical at any worker count.
        samples = self.pool.map_shards(
            shards, _ops.hash_samples,
            args_per_shard=[(by_node[n], sample_cap) for n in nodes],
            versions=[s.epoch for s in shards])
        out: dict[int, np.ndarray] = {}
        for m in samples:
            out.update(m)
        return out

    def _collective_phase(self, service: ServiceCallbacks, scope: ServiceScope,
                          contexts: dict[int, NodeContext],
                          rng: np.random.Generator, stats: CommandStats,
                          mode: ExecMode
                          ) -> tuple[dict[int, Any], dict[int, dict[int, Any]]]:
        """Map collective_command over distinct believed SE hashes, then
        disseminate the handled set.

        Returns the private data of every handled hash, and each node's
        view of it (:meth:`_disseminate_handled`).

        Each shard's believed rows are worked as arrays.  A row's
        candidates are its holders in scope; its replica order is
        ``collective_select``'s pick first, then ``rng.permutation`` —
        drawn per multi-candidate row in shard then row order (a lone
        candidate draws nothing).  A replica whose node is down or whose
        memory no longer holds the hash fails over to the next; the first
        that holds it gets the row's ``collective_command``, through one
        ``collective_command_batch`` per shard.  Every charge is keyed by
        its place in the per-hash serial order and each node's are folded
        in that order, so every total is the per-hash protocol's to the
        last bit.
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
        ledger = _RowLedger()
        # SE-holder mask -> nodes hosting those SEs, memoized: the distinct
        # holder sets are few even at millions of hashes.
        se_memo: dict[int, frozenset] = {}

        def holder_nodes(se_part: int) -> frozenset:
            nodes = se_memo.get(se_part)
            if nodes is None:
                nodes = se_memo[se_part] = frozenset(
                    cluster.node_of(e) for e in mask_bits(se_part))
            return nodes

        # Only the live shards can answer: holed ranges contribute nothing
        # here, and the local phase covers whatever this misses (§4.3's
        # staleness argument extends unchanged to failure-induced holes).
        # The scans themselves are prefetched through the pool (inline at
        # workers=1); the protocol then walks the results in shard order.
        live = self.tracing.live_shards()
        scans = self.pool.map_shards(
            live, _ops.se_scan, (se_mask,),
            versions=[s.epoch for s in live])
        for ctx in contexts.values():
            ctx._charge_sink = ledger.charge
            ctx._shared_sink = ledger.charge_shared
        try:
            for shard, (hashes, lo, wide) in zip(live, scans):
                shard_node = shard.node_id
                # The shard scans its slice for hashes believed in the SEs.
                self._charge(shard_node,
                             shard.n_hashes * cost.query_scan_per_entry * R)
                stats.believed_hashes += len(hashes)
                if not len(hashes):
                    continue
                hash_list = hashes.tolist()

                # -- candidates and replica order --------------------------
                cand_lo = lo & scope_lo
                n_cand = np.bitwise_count(cand_lo)
                # A lone candidate is the index of its bit.
                first = np.bitwise_count(cand_lo - _U64(1)).astype(np.int64)
                multi = n_cand > 1
                cands = dict(zip(np.flatnonzero(multi).tolist(),
                                 map(mask_bits, cand_lo[multi].tolist())))
                se_wide: dict[int, int] = {}
                if wide:
                    # Holders >= entity 64 live only in the full mask.
                    for h, full in wide.items():
                        r = int(np.searchsorted(hashes, _U64(h)))
                        cands[r] = mask_bits(full & scope_mask)
                        n_cand[r] = len(cands[r]) > 0
                        se_wide[r] = full & se_mask
                    cands = dict(sorted(cands.items()))
                rows = np.flatnonzero(n_cand)
                if not len(rows):
                    continue
                row_list = rows.tolist()
                orders: dict[int, list[int]] = {}
                for r, c in cands.items():
                    if c:
                        orders[r] = [c[i] for i in rng.permutation(len(c))]
                        first[r] = orders[r][0]
                if service.collective_select is not None:
                    self._select(service, contexts[shard_node], ledger,
                                 row_list, hash_list, first, cands, orders)
                    stats.select_calls += len(row_list)

                # -- ground truth: the first replica that holds the hash ---
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
                    found = truth.walk(hash_list[r],
                                       orders.get(r) or [int(first[r])], 0,
                                       trails[j])
                    if found is not None:
                        tries[j], eids[j], nodes[j], pages[j] = found
                take = np.flatnonzero(pages >= 0)

                # -- the service: one batch, then any CommandFailed chains -
                b_hashes = [hash_list[r] for r in rows[take].tolist()]
                privates = self._invoke(service, contexts, ledger,
                                        rows[take], tries[take], eids[take],
                                        b_hashes, pages[take], nodes[take])
                for i, result in enumerate(privates):
                    if not isinstance(result, CommandFailed):
                        continue
                    j = int(take[i])
                    r = row_list[j]
                    trail = trails.setdefault(j, [])
                    while isinstance(result, CommandFailed):
                        trail.append((int(eids[j]), int(nodes[j]),
                                      result.reason or "callback-failed"))
                        found = truth.walk(
                            hash_list[r], orders.get(r) or [int(first[r])],
                            int(tries[j]) + 1, trail)
                        if found is None:
                            result = _STALE
                            break
                        tries[j], eids[j], nodes[j], pages[j] = found
                        (result,) = self._invoke(
                            service, contexts, ledger, rows[j:j + 1],
                            tries[j:j + 1], eids[j:j + 1], [hash_list[r]],
                            pages[j:j + 1], nodes[j:j + 1])
                    privates[i] = result
                ok = np.zeros(len(rows), dtype=bool)   # row was handled
                ok[take] = [p is not _STALE for p in privates]

                # -- accounting, in the per-hash serial order --------------
                ledger.add(rows, _STEP_SELECT, shard_node,
                           cost.cmd_select_overhead * R)
                self._account_invokes(ledger, stats, shard_node, rows, nodes,
                                      ok, trails, invoke_cost * R)

                # -- the handled set and the protocol trace -----------------
                h_rows = rows[ok]
                h_hashes = [h for h, p in zip(b_hashes, privates)
                            if p is not _STALE]
                privates = [True if p is None else p
                            for p in privates if p is not _STALE]
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
                handled.append(_Handled(shard_node, h_hashes, privates, group,
                                        holders))
                if self._tracer is not None:
                    self._trace_rows(row_list, hash_list, first, eids, nodes,
                                     ok, cands, orders, trails)
        finally:
            for ctx in contexts.values():
                ctx._charge_sink = self._charge
                ctx._shared_sink = self._charge_shared
        handled_private: dict[int, Any] = {}
        for part in handled:
            handled_private.update(zip(part.hashes, part.privates))
        return handled_private, self._disseminate_handled(handled)

    def _select(self, service: ServiceCallbacks, ctx: NodeContext,
                ledger: _RowLedger, row_list: list[int], hash_list: list[int],
                first: np.ndarray, cands: dict[int, list[int]],
                orders: dict[int, list[int]]) -> None:
        """``collective_select`` per candidate row, in row order, on the
        shard's node: its pick goes first in the row's order."""
        for r in row_list:
            c = cands.get(r) or [int(first[r])]
            ledger.at(r, _STEP_SELECT_CB)
            pick = service.collective_select(ctx, hash_list[r], list(c))
            if pick is None:
                continue
            if pick not in c:
                raise ValueError(
                    f"collective_select returned non-candidate {pick}")
            order = orders.get(r) or list(c)
            order.remove(pick)
            order.insert(0, pick)
            orders[r] = order
            first[r] = pick

    def _invoke(self, service: ServiceCallbacks,
                contexts: dict[int, NodeContext], ledger: _RowLedger,
                rows: np.ndarray, tries: np.ndarray, eids: np.ndarray,
                hashes: list[int], pages: np.ndarray,
                nodes: np.ndarray) -> list[Any]:
        """One ``collective_command_batch``: its charges land at each row's
        attempt ``tries[i]``."""
        if not len(rows):
            return []
        ledger.bind(rows, _command_step(tries), nodes)
        batch = CollectiveBatch(contexts, self.cluster, eids, hashes, pages,
                                nodes, ledger)
        results = list(service.collective_command_batch(batch))
        if len(results) != len(rows):
            raise ValueError(
                f"collective_command_batch returned {len(results)} results "
                f"for {len(rows)} rows")
        return results

    def _account_invokes(self, ledger: _RowLedger, stats: CommandStats,
                         shard_node: int, rows: np.ndarray, nodes: np.ndarray,
                         ok: np.ndarray,
                         trails: dict[int, list[_Failed]],
                         invoke_cost: float) -> None:
        """Charges, messages and counts of every invocation of one shard's
        rows, then the shard's charges folded in serial order."""
        plain = ok.copy()                 # handled by the first choice
        plain[list(trails)] = False
        inv_rows, inv_steps, inv_nodes = [], [], []
        for j, trail in trails.items():
            stats.retries += len(trail)
            tried = [(k, node) for k, (_eid, node, _reason) in enumerate(trail)
                     if node is not None]
            if ok[j]:
                tried.append((len(trail), int(nodes[j])))
            for k, node in tried:
                inv_rows.append(int(rows[j]))
                inv_steps.append(_invoke_step(k))
                inv_nodes.append(node)
        inv_rows = np.concatenate([rows[plain], inv_rows]).astype(np.int64)
        inv_steps = np.concatenate([np.full(int(plain.sum()), _invoke_step(0)),
                                    inv_steps]).astype(np.int64)
        inv_nodes = np.concatenate([nodes[plain], inv_nodes]).astype(np.int64)
        ledger.add(inv_rows, inv_steps, inv_nodes, invoke_cost)
        self._fold(ledger)
        stats.invokes += len(inv_rows)
        # Invoke to the replica's node, result back: small control messages.
        R = self.n_represented
        ph = self._phase
        invoke = _INVOKE_BYTES * R + _MSG_OVERHEAD
        result = _RESULT_BYTES * R + _MSG_OVERHEAD
        remote, counts = np.unique(inv_nodes[inv_nodes != shard_node],
                                   return_counts=True)
        for node, n in zip(remote.tolist(), counts.tolist()):
            self._tx[(shard_node, ph)] += n * invoke
            self._rx[(node, ph)] += n * invoke
            self._tx[(node, ph)] += n * result
            self._rx[(shard_node, ph)] += n * result

    def _fold(self, ledger: _RowLedger) -> None:
        """Add a shard's charges onto the phase totals, each node's (and
        the shared resource's) in serial order: ``np.add.accumulate`` is
        the ``+=`` left fold, bit for bit."""
        (rows, steps, nodes, seconds), (s_rows, s_steps, s_seconds) = \
            ledger.drain()
        ph = self._phase
        serial = np.lexsort((steps, rows))
        nodes, seconds = nodes[serial], seconds[serial]
        for node in np.unique(nodes).tolist():
            key = (node, ph)
            self._cpu[key] = _fold_left(self._cpu.get(key, 0.0),
                                        seconds[nodes == node])
        if len(s_seconds):
            self._shared[ph] = _fold_left(
                self._shared.get(ph, 0.0),
                s_seconds[np.lexsort((s_steps, s_rows))])

    def _trace_rows(self, row_list: list[int], hash_list: list[int],
                    first: np.ndarray, eids: np.ndarray, nodes: np.ndarray,
                    ok: np.ndarray, cands: dict[int, list[int]],
                    orders: dict[int, list[int]],
                    trails: dict[int, list[_Failed]]) -> None:
        """One shard's protocol events, row by row in serial order."""
        emit = self._tracer.emit
        first = first.tolist()
        for j, (r, eid, node, handled) in enumerate(zip(
                row_list, eids.tolist(), nodes.tolist(), ok.tolist())):
            h = hash_list[r]
            lone = [first[r]]
            order = orders.get(r) or lone
            emit(EventKind.SELECT, h, tuple(cands.get(r) or lone), order[0])
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
                             ) -> dict[int, dict[int, Any]]:
        """Shards push handled entries to the nodes believed to need them.

        Each shard pushes its handled (hash, private) entries to the nodes
        whose SEs it believes hold that hash, so local_command can see the
        handled set (paper §4.3).  Per-node traffic is therefore bounded by
        the node's own content, which is what keeps it constant as the
        system scales (§5.4's ~15 MB/node).  A node learns about hash h
        only if the DHT's bitmap says one of its SEs holds h.  If that
        information was stale the node simply treats h as unhandled and
        falls back to local content — correct, slightly less deduplicated.
        Returns the per-node visible handled maps.

        Each shard sends one exchange per destination, in the order its
        rows (then their holder sets) first name the destination.
        """
        R = self.n_represented
        by_node: dict[int, dict[int, Any]] = defaultdict(dict)
        for shard_node, hashes, privates, group, holders in handled:
            n_rows = np.bincount(group, minlength=len(holders)).tolist()
            _, first_row = np.unique(group, return_index=True)
            entries: dict[int, int] = {}          # dst -> rows it is told
            told = np.zeros((len(holders), self.cluster.n_nodes), dtype=bool)
            for g in group[np.sort(first_row)].tolist():
                for dst in holders[g]:
                    entries[dst] = entries.get(dst, 0) + n_rows[g]
                    told[g, dst] = True
            hash_col = np.array(hashes, dtype=object)   # the same ints
            private_col = np.fromiter(privates, dtype=object,
                                      count=len(privates))
            for dst in entries:
                rows = told[group, dst]
                by_node[dst].update(zip(hash_col[rows].tolist(),
                                        private_col[rows].tolist()))
            for dst, n_entries in entries.items():
                self._emit(EventKind.EXCHANGE, shard_node, dst, n_entries)
                self._msg(shard_node, dst,
                          n_entries * _EXCHANGE_ENTRY_BYTES * R)
        return dict(by_node)

    def _local_phase(self, service: ServiceCallbacks, scope: ServiceScope,
                     contexts: dict[int, NodeContext],
                     handled_by_node: dict[int, dict[int, Any]],
                     stats: CommandStats, mode: ExecMode) -> None:
        cluster = self.cluster
        cost = self.cost
        R = self.n_represented
        per_block = (cost.cmd_local_per_block if mode is ExecMode.INTERACTIVE
                     else cost.cmd_local_per_block * 0.6 + cost.cmd_plan_append)

        for eid in scope.service_entities:
            entity = cluster.entity(eid)
            node = entity.node_id
            handled_private = handled_by_node.get(node, {})
            ctx = contexts[node]
            service.local_start(ctx, entity)
            hashes = entity.content_hashes()
            n = len(hashes)
            self._charge(node, n * per_block * R)
            stats.local_blocks += n

            covered = np.fromiter(
                map(handled_private.__contains__, hashes.tolist()),
                dtype=bool, count=n)
            service.local_command_batch(ctx, entity, hashes, covered,
                                        handled_private)
            n_cov = int(covered.sum())
            stats.covered_blocks += n_cov
            stats.uncovered_blocks += n - n_cov
            self._emit(EventKind.LOCAL_ENTITY, eid, n, n_cov)


# A row's steps in the per-hash serial order: the selection overhead,
# collective_select's own charges, then per replica tried (attempt k) the
# invocation overhead and collective_command's charges.
_STEP_SELECT, _STEP_SELECT_CB = 0, 1


def _invoke_step(k):
    return 2 + 2 * k


def _command_step(k):
    return 3 + 2 * k


# The private value of a row whose every replica failed.
_STALE = object()

# A replica that failed a row: (entity, the node invoked — None if its node
# was down — reason).
_Failed = tuple[int, int | None, str]


class _Handled(NamedTuple):
    """One shard's handled rows, in row order."""

    shard_node: int
    hashes: list[int]
    privates: list[Any]
    group: np.ndarray             # row -> its SE-holder set in ``holders``
    holders: list[frozenset]      # nodes hosting the SEs believed to hold it


def _fold_left(start: float, seconds: np.ndarray) -> float:
    """``start += s`` for each ``s`` in order, as one array call."""
    return float(np.add.accumulate(
        np.concatenate(([start], seconds)))[-1])


class _GroundTruth:
    """Where each scope entity lives, and what its memory holds now: the
    check ``NodeSpecificModule.resolve_block`` makes, over arrays."""

    def __init__(self, cluster: Cluster, scope: ServiceScope) -> None:
        self.cluster = cluster
        eids = scope.all_entities()
        self.node_arr = np.zeros(max(eids, default=-1) + 1, dtype=np.int64)
        for eid in eids:
            self.node_arr[eid] = cluster.node_of(eid)
        self.up = np.array(cluster.network.node_up, dtype=bool)

    def pages(self, eids: np.ndarray, hashes: np.ndarray,
              nodes: np.ndarray) -> np.ndarray:
        """Page of ``eids[i]`` holding ``hashes[i]`` (the one
        ``Entity.hash_index`` names), -1 if gone or its node is down."""
        out = np.full(len(eids), -1, dtype=np.int64)
        up = self.up[nodes]
        for eid in np.unique(eids[up]).tolist():
            at = np.flatnonzero(up & (eids == eid))
            index = self.cluster.entity(eid).hash_index()
            out[at] = np.fromiter(map(index.get, hashes[at].tolist(),
                                      repeat(-1)), dtype=np.int64,
                                  count=len(at))
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
            page = self.cluster.entity(eid).hash_index().get(h)
            if page is None:
                trail.append((eid, node, "content-gone"))
                continue
            return k, eid, node, page
        return None


class _RowLedger:
    """One shard's charges, each keyed by its place in the per-hash serial
    order — (row, step) — until :meth:`drain` hands them over for folding.

    During the shard walk it is every context's charge sink (an entry takes
    the current row and step) and the account of the
    :class:`CollectiveBatch` being run (:meth:`bind`)."""

    def __init__(self) -> None:
        self._row = self._step = 0
        self._bound: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._cpu: list[tuple[np.ndarray, ...]] = []
        self._shared: list[tuple[np.ndarray, ...]] = []
        self._loose_cpu: list[tuple[int, int, int, float]] = []
        self._loose_shared: list[tuple[int, int, float]] = []

    def at(self, row: int, step: int) -> None:
        self._row, self._step = row, step

    # -- NodeContext sinks ------------------------------------------------------

    def charge(self, node: int, seconds: float) -> None:
        self._loose_cpu.append((self._row, self._step, node, seconds))

    def charge_shared(self, seconds: float) -> None:
        self._loose_shared.append((self._row, self._step, seconds))

    # -- CollectiveBatch account ------------------------------------------------

    def bind(self, rows: np.ndarray, steps: np.ndarray,
             nodes: np.ndarray) -> None:
        self._bound = (rows, steps, nodes)
        self.at_row(0)

    def at_row(self, i: int) -> None:
        rows, steps, _nodes = self._bound
        self.at(int(rows[i]), int(steps[i]))

    def cpu(self, seconds: np.ndarray) -> None:
        self.add(*self._bound, seconds)

    def shared(self, seconds: np.ndarray) -> None:
        rows, steps, _nodes = self._bound
        self._flush()
        self._shared.append((rows, steps, seconds))

    # -- the executor's own -----------------------------------------------------

    def add(self, rows: np.ndarray, steps, nodes, seconds) -> None:
        """Entries for ``rows``; the others broadcast against it."""
        self._flush()
        n = len(rows)
        self._cpu.append((rows, *(np.broadcast_to(x, (n,))
                                  for x in (steps, nodes, seconds))))

    def _flush(self) -> None:
        if self._loose_cpu:
            self._cpu.append(tuple(map(np.array, zip(*self._loose_cpu))))
            self._loose_cpu = []
        if self._loose_shared:
            self._shared.append(tuple(map(np.array,
                                          zip(*self._loose_shared))))
            self._loose_shared = []

    def drain(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """((rows, steps, nodes, seconds), (rows, steps, seconds)) of every
        entry so far, in arrival order; the ledger starts over."""
        self._flush()
        cpu = _columns(self._cpu, 4)
        shared = _columns(self._shared, 3)
        self._cpu, self._shared = [], []
        return cpu, shared


def _columns(chunks: list[tuple[np.ndarray, ...]], width: int
             ) -> tuple[np.ndarray, ...]:
    if not chunks:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(width - 1)) \
            + (np.empty(0),)
    cols = [np.concatenate(col) for col in zip(*chunks)]
    return (*(c.astype(np.int64) for c in cols[:-1]),
            cols[-1].astype(np.float64))
