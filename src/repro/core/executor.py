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
from typing import Any

import numpy as np

from repro.core.command import (
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
        handled = self._collective_phase(service, scope, contexts, rng, stats,
                                         mode)

        # Dissemination: each shard pushes its handled (hash, private)
        # entries to the nodes whose SEs it believes hold that hash, so
        # local_command can see the handled set (paper §4.3).  Per-node
        # traffic is therefore bounded by the node's own content, which
        # is what keeps it constant as the system scales (§5.4's
        # ~15 MB/node).
        handled_by_node = self._disseminate_handled(handled)

        for eid in live_entities:
            entity = cluster.entity(eid)
            service.collective_finalize(contexts[entity.node_id],
                                        scope.role_of(eid), entity)
        phases["collective"] = self._phase_breakdown("collective")

        # ---- phase 2: local ------------------------------------------------------
        self._set_phase("local")
        handled_private = {h: priv for h, (priv, _n, _d) in handled.items()}
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
            versions=[tracing.shard_epoch(n) for n in nodes])
        out: dict[int, np.ndarray] = {}
        for m in samples:
            out.update(m)
        return out

    def _collective_phase(self, service: ServiceCallbacks, scope: ServiceScope,
                          contexts: dict[int, NodeContext],
                          rng: np.random.Generator, stats: CommandStats,
                          mode: ExecMode) -> dict[int, tuple[Any, int, frozenset]]:
        """Map collective_command over distinct believed SE hashes.

        Returns handled: hash -> (private data, shard node, SE-holder nodes).
        """
        cluster = self.cluster
        cost = self.cost
        R = self.n_represented
        se_mask = scope.se_mask
        scope_mask = scope.scope_mask
        scope_lo = _U64(scope_mask & _M64)
        se_lo = _U64(se_mask & _M64)
        handled: dict[int, tuple[Any, int, frozenset]] = {}
        invoke_cost = (cost.cmd_invoke_overhead if mode is ExecMode.INTERACTIVE
                       else cost.cmd_invoke_overhead * 0.6 + cost.cmd_plan_append)
        # SE-holder mask -> nodes hosting those SEs, memoized: the distinct
        # holder sets are few even at millions of hashes.
        se_memo: dict[int, frozenset] = {}
        node_up = cluster.network.node_up

        # Only the live shards can answer: holed ranges contribute nothing
        # here, and the local phase covers whatever this misses (§4.3's
        # staleness argument extends unchanged to failure-induced holes).
        # The scans themselves — the CPU-heavy part — are prefetched
        # through the pool (inline at workers=1); the protocol below then
        # walks the results in shard order on the coordinator, so charges,
        # selection, and retries happen in exactly the serial order.
        live = self.tracing.live_shards()
        scans = self.pool.map_shards(
            live, _ops.se_scan, (se_mask,),
            versions=[self.tracing.shard_epoch(s.node_id) for s in live])
        for shard, (hashes, lo, wide) in zip(live, scans):
            shard_node = shard.node_id
            # The shard scans its slice for hashes believed in the SEs.
            self._charge(shard_node,
                         shard.n_hashes * cost.query_scan_per_entry * R)
            if not len(hashes):
                continue
            # Candidate discovery and SE-mask filtering for every believed
            # row in one shot.
            cand_col = (lo & scope_lo).tolist()
            se_col = (lo & se_lo).tolist()
            for i, h in enumerate(hashes.tolist()):
                if wide and h in wide:
                    full = wide[h]
                    cand_mask = full & scope_mask
                    se_part = full & se_mask
                else:
                    cand_mask = cand_col[i]
                    se_part = se_col[i]
                stats.believed_hashes += 1
                candidates = mask_bits(cand_mask)
                if not candidates:
                    continue
                self._charge(shard_node, cost.cmd_select_overhead * R)
                order = self._select_order(service, contexts, shard_node, h,
                                           candidates, rng, stats)
                self._emit(EventKind.SELECT, h, tuple(candidates), order[0])
                private = None
                ok = False
                for eid in order:
                    target = cluster.node_of(eid)
                    if not node_up[target]:
                        # Dead replica host (a PE node): fail over to the
                        # next candidate, same as vanished content.
                        stats.retries += 1
                        self._emit(EventKind.INVOKE_FAILED, h, eid,
                                   "node-down")
                        continue
                    stats.invokes += 1
                    self._emit(EventKind.INVOKE, h, eid, target)
                    self._msg(shard_node, target, _INVOKE_BYTES * R)
                    self._charge(target, invoke_cost * R)
                    block = cluster.nodes[target].nsm.resolve_block(eid, h)
                    if block is None:
                        # Ground truth disagrees: stale DHT entry; retry.
                        stats.retries += 1
                        self._emit(EventKind.INVOKE_FAILED, h, eid,
                                   "content-gone")
                        self._msg(target, shard_node, _RESULT_BYTES * R)
                        continue
                    result = service.collective_command(
                        contexts[target], cluster.entity(eid), h, block)
                    self._msg(target, shard_node, _RESULT_BYTES * R)
                    if isinstance(result, CommandFailed):
                        stats.retries += 1
                        self._emit(EventKind.INVOKE_FAILED, h, eid,
                                   result.reason or "callback-failed")
                        continue
                    # Normalize: a successful callback returning None still
                    # marks the hash handled (private data is optional).
                    private = True if result is None else result
                    ok = True
                    break
                if ok:
                    se_holder_nodes = se_memo.get(se_part)
                    if se_holder_nodes is None:
                        se_holder_nodes = se_memo[se_part] = frozenset(
                            cluster.node_of(e) for e in mask_bits(se_part))
                    handled[h] = (private, shard_node, se_holder_nodes)
                    stats.handled += 1
                    self._emit(EventKind.HANDLED, h, eid)
                else:
                    stats.stale_unhandled += 1
                    self._emit(EventKind.STALE, h, tuple(order))
        return handled

    def _select_order(self, service: ServiceCallbacks,
                      contexts: dict[int, NodeContext], shard_node: int,
                      content_hash: int, candidates: list[int],
                      rng: np.random.Generator,
                      stats: CommandStats) -> list[int]:
        """Replica try-order: collective_select's pick first, else random."""
        order = [candidates[i] for i in rng.permutation(len(candidates))]
        if service.collective_select is not None:
            stats.select_calls += 1
            pick = service.collective_select(
                contexts[shard_node], content_hash, list(candidates))
            if pick is not None:
                if pick not in candidates:
                    raise ValueError(
                        f"collective_select returned non-candidate {pick}")
                order.remove(pick)
                order.insert(0, pick)
        return order

    def _disseminate_handled(
            self, handled: dict[int, tuple[Any, int, frozenset]],
    ) -> dict[int, dict[int, Any]]:
        """Shards push handled entries to the nodes believed to need them.

        A node learns about hash h only if the DHT's bitmap says one of its
        SEs holds h.  If that information was stale the node simply treats
        h as unhandled and falls back to local content — correct, slightly
        less deduplicated.  Returns the per-node visible handled maps.
        """
        R = self.n_represented
        by_node: dict[int, dict[int, Any]] = defaultdict(dict)
        pair_entries: dict[tuple[int, int], int] = defaultdict(int)
        for h, (priv, shard_node, se_holder_nodes) in handled.items():
            for dst in se_holder_nodes:
                by_node[dst][h] = priv
                pair_entries[(shard_node, dst)] += 1
        for (shard_node, dst), n_entries in pair_entries.items():
            self._emit(EventKind.EXCHANGE, shard_node, dst, n_entries)
            self._msg(shard_node, dst, n_entries * _EXCHANGE_ENTRY_BYTES * R)
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
                (h in handled_private for h in hashes.tolist()),
                dtype=bool, count=n)
            service.local_command_batch(ctx, entity, hashes, covered,
                                        handled_private)
            n_cov = int(covered.sum())
            stats.covered_blocks += n_cov
            stats.uncovered_blocks += n - n_cov
            self._emit(EventKind.LOCAL_ENTITY, eid, n, n_cov)
