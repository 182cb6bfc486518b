"""The batched collective phase against the per-hash loop it replaced.

``_reference_collective_phase`` is that loop — one ``mask_bits``, one
``rng.permutation``, one ground-truth ``resolve_block`` and one
``collective_command`` per believed hash, every charge folded the moment
it happens — followed by the dissemination that went with it.  Patched in
for ``ServiceCommandExecutor._collective_phase``, it is the oracle: over
random staleness, a dead PE host, a ``collective_select`` service and a
service whose commands fail, the executor must decide, charge and trace
exactly what the oracle does, floats compared with ``==``.
"""

from collections import defaultdict
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (CheckpointStore, Cluster, CollectiveCheckpoint, ConCORD,
                   ConCORDConfig, Entity, ServiceScope)
from repro.core import executor as _executor
from repro.core.command import CommandFailed, ExecMode, ServiceCallbacks
from repro.core.events import CommandTracer, EventKind
from repro.core.executor import ServiceCommandExecutor
from repro.dht.table import mask_bits
from repro.exec import ops as _ops
from repro.services.migrate import CollectiveMigration, MigrationPlan
from repro.services.null import NullService
from repro.storage import ParallelFileSystem


def _reference_collective_phase(self, service, scope, contexts, rng, stats,
                                mode):
    """The per-hash collective phase and dissemination, as they were."""
    U64, M64 = _executor._U64, _executor._M64
    R = self.n_represented
    cluster, cost = self.cluster, self.cost
    se_mask, scope_mask = scope.se_mask, scope.scope_mask
    scope_lo, se_lo = U64(scope_mask & M64), U64(se_mask & M64)
    handled = {}
    invoke_cost = (cost.cmd_invoke_overhead if mode is ExecMode.INTERACTIVE
                   else cost.cmd_invoke_overhead * 0.6 + cost.cmd_plan_append)
    se_memo = {}
    node_up = cluster.network.node_up
    live = self.tracing.live_shards()
    scans = self.pool.map_shards(
        live, _ops.se_scan, (se_mask,),
        versions=[s.epoch for s in live])
    for shard, (hashes, lo, wide) in zip(live, scans):
        shard_node = shard.node_id
        self._charge(shard_node, shard.n_hashes * cost.query_scan_per_entry * R)
        if not len(hashes):
            continue
        cand_col = (lo & scope_lo).tolist()
        se_col = (lo & se_lo).tolist()
        for i, h in enumerate(hashes.tolist()):
            if wide and h in wide:
                cand_mask, se_part = wide[h] & scope_mask, wide[h] & se_mask
            else:
                cand_mask, se_part = cand_col[i], se_col[i]
            stats.believed_hashes += 1
            candidates = mask_bits(cand_mask)
            if not candidates:
                continue
            self._charge(shard_node, cost.cmd_select_overhead * R)
            order = [candidates[k] for k in rng.permutation(len(candidates))]
            if service.collective_select is not None:
                stats.select_calls += 1
                pick = service.collective_select(contexts[shard_node], h,
                                                 list(candidates))
                if pick is not None:
                    order.remove(pick)
                    order.insert(0, pick)
            self._emit(EventKind.SELECT, h, tuple(candidates), order[0])
            private, ok = None, False
            for eid in order:
                target = cluster.node_of(eid)
                if not node_up[target]:
                    stats.retries += 1
                    self._emit(EventKind.INVOKE_FAILED, h, eid, "node-down")
                    continue
                stats.invokes += 1
                self._emit(EventKind.INVOKE, h, eid, target)
                self._msg(shard_node, target, _executor._INVOKE_BYTES * R)
                self._charge(target, invoke_cost * R)
                block = cluster.nodes[target].nsm.resolve_block(eid, h)
                if block is None:
                    stats.retries += 1
                    self._emit(EventKind.INVOKE_FAILED, h, eid, "content-gone")
                    self._msg(target, shard_node, _executor._RESULT_BYTES * R)
                    continue
                result = service.collective_command(
                    contexts[target], cluster.entity(eid), h, block)
                self._msg(target, shard_node, _executor._RESULT_BYTES * R)
                if isinstance(result, CommandFailed):
                    stats.retries += 1
                    self._emit(EventKind.INVOKE_FAILED, h, eid,
                               result.reason or "callback-failed")
                    continue
                private, ok = (True if result is None else result), True
                break
            if ok:
                if se_part not in se_memo:
                    se_memo[se_part] = frozenset(
                        cluster.node_of(e) for e in mask_bits(se_part))
                handled[h] = (private, shard_node, se_memo[se_part])
                stats.handled += 1
                self._emit(EventKind.HANDLED, h, eid)
            else:
                stats.stale_unhandled += 1
                self._emit(EventKind.STALE, h, tuple(order))

    by_node = defaultdict(dict)
    pair_entries = defaultdict(int)
    for h, (priv, shard_node, holders) in handled.items():
        for dst in holders:
            by_node[dst][h] = priv
            pair_entries[(shard_node, dst)] += 1
    for (shard_node, dst), n in pair_entries.items():
        self._emit(EventKind.EXCHANGE, shard_node, dst, n)
        self._msg(shard_node, dst, n * _executor._EXCHANGE_ENTRY_BYTES * R)
    return ({h: priv for h, (priv, _s, _d) in handled.items()},
            dict(by_node))


class _Flaky(ServiceCallbacks):
    """Fails some (hash, replica) pairs, charges a per-hash figure on the
    replica's node and the shared resource, ships bytes, and picks the
    replica for some hashes — all stateless, so the order the commands
    arrive in cannot change what they return."""

    def collective_select(self, ctx, content_hash, candidates):
        ctx.charge(1e-9 * (content_hash % 13))
        return candidates[-1] if content_hash % 4 == 0 else None

    def collective_command(self, ctx, entity, content_hash, block):
        ctx.charge(1e-7 + 1e-10 * (content_hash % 1009))
        ctx.charge_shared(1e-9 * (content_hash % 7))
        ctx.send_bytes(0, 64)
        if (content_hash + entity.entity_id) % 3 == 0:
            # "" reads as "callback-failed"; "node-down" from a callback
            # still cost an invocation, unlike a dead host.
            return CommandFailed(("flaky", "", "node-down")[content_hash % 3])
        return (entity.entity_id, block.page_idx)


def _world(n_nodes, n_entities, pages, pool, stale, dead_pe, R, seed):
    """Entities round-robin over all nodes but the last, which hosts only
    the PE; scanned, then partly overwritten without telling the DHT."""
    cluster = Cluster(n_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    pe_node = n_nodes - 1
    ents = [Entity.create(cluster,
                          pe_node if i == n_entities - 1 else i % pe_node,
                          rng.integers(1, pool, pages).astype(np.uint64))
            for i in range(n_entities)]
    concord = ConCORD(cluster, ConCORDConfig(n_represented=R))
    concord.initial_scan()
    for e in ents:
        e.mutate_random(stale, rng,
                        content_pool=np.arange(1, pool + 8, dtype=np.uint64))
    if dead_pe:
        concord.fail_node(pe_node)
        concord.detect_failures()
    return ents, concord


def _service(name, ents):
    """(service, scope, what it produced) for one of the services below."""
    ses = [e.entity_id for e in ents[:-1]]
    pes = [ents[-1].entity_id]
    if name.startswith("checkpoint"):
        store = CheckpointStore()
        pfs = ParallelFileSystem() if name == "checkpoint+pfs" else None
        return (CollectiveCheckpoint(store, pfs=pfs),
                ServiceScope.of(ses, pes),
                lambda: (store.shared.blocks,
                         sorted((eid, f.records)
                                for eid, f in store.se_files.items())))
    if name == "migrate":
        svc = CollectiveMigration(MigrationPlan({ses[0]: 1}))
        return svc, ServiceScope.of(ses[:1], ses[1:] + pes), lambda: None
    svc = {"null": NullService, "flaky": _Flaky}[name]()
    return svc, ServiceScope.of(ses, pes), lambda: None


SERVICES = ("checkpoint", "checkpoint+pfs", "migrate", "null", "flaky")


def _run(params, name, mode, reference):
    ents, concord = _world(**params)
    service, scope, outcome = _service(name, ents)
    tracer = CommandTracer()
    phase = (_reference_collective_phase if reference
             else ServiceCommandExecutor._collective_phase)
    with mock.patch.object(ServiceCommandExecutor, "_collective_phase",
                           phase):
        result = concord.execute_command(service, scope, mode=mode,
                                         seed=params["seed"], tracer=tracer)
    ex = concord.executor
    return {
        "success": result.success,
        "handled": list(result.handled_private.items()),
        "stats": result.stats,
        "events": [(e.kind, e.data) for e in tracer],
        "cpu": dict(ex._cpu), "tx": dict(ex._tx), "rx": dict(ex._rx),
        "shared": dict(ex._shared),
        "phases": result.phases, "wall": result.wall_time,
        "outcome": outcome(),
    }


worlds = st.fixed_dictionaries({
    "n_nodes": st.integers(3, 6),
    "n_entities": st.sampled_from([4, 7, 70]),
    "pages": st.integers(4, 24),
    "pool": st.integers(4, 60),
    "stale": st.sampled_from([0.0, 0.2, 0.6]),
    "dead_pe": st.booleans(),
    "R": st.sampled_from([1, 3]),
    "seed": st.integers(0, 10_000),
})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(worlds, st.sampled_from(SERVICES),
       st.sampled_from([ExecMode.INTERACTIVE, ExecMode.BATCH]))
def test_batched_phase_is_the_per_hash_loop(params, name, mode):
    got = _run(params, name, mode, reference=False)
    want = _run(params, name, mode, reference=True)
    for key in want:
        assert got[key] == want[key], key


def test_the_worlds_reach_every_retry_path():
    """The property above is only as strong as its worlds: a stale one
    with a dead PE host reaches every way a replica can fail, a hash no
    replica can take, and collective_select."""
    params = dict(n_nodes=4, n_entities=7, pages=24, pool=30, stale=0.4,
                  dead_pe=True, R=3, seed=1)
    run = _run(params, "flaky", ExecMode.INTERACTIVE, reference=False)
    reasons = {data[2] for kind, data in run["events"]
               if kind is EventKind.INVOKE_FAILED}
    assert reasons == {"node-down", "content-gone", "flaky", "callback-failed"}
    assert run["stats"].stale_unhandled and run["stats"].select_calls
    assert run == _run(params, "flaky", ExecMode.INTERACTIVE, reference=True)
