"""The distributed memory content tracing engine.

"A site-wide distributed system that enables ConCORD to locate entities
having a copy of a given memory block using its content hash" (paper §3.1).
One :class:`LocalDHT` shard lives on each node; the zero-hop partition
routes each update to its home shard; updates travel as best-effort
datagrams ("send and forget"), so a loaded receiver can drop them and the
DHT view drifts from ground truth — which downstream consumers (queries,
service commands) must and do tolerate.

``use_network=False`` applies updates synchronously with no loss — the
configuration unit tests use to compare against reference models.

Fault tolerance (docs/FAULTS.md): the engine maintains the shared alive
view inside its :class:`~repro.dht.partition.Partition` and a per-primary-
range *intact* flag.  A dead home shard is detected by timeout — reliable
probes in :meth:`detect_failures`, or the cheap inline equivalent on the
query paths — after which its hash ranges re-home to ring successors and
are marked non-intact until :meth:`repair` re-populates them from the
per-node monitors' ground truth (``se_scan``/``bulk_insert`` make this
cheap), mirroring the paper's claim that the DHT can always be rebuilt
from node-local content.  ``coverage`` reports the intact fraction of the
hash space; degraded queries annotate their answers with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.partition import Partition
from repro.dht.storage import StorageConfig, StorageSet, open_storage
from repro.dht.table import LocalDHT, mask_bits
from repro.exec import ops as _ops
from repro.exec.pool import ShardPool
from repro.obs import Observability
from repro.recon import (DigestCache, PairSetDigest, ReconSession,
                         canonical_pairs, pair_multiset_diff)
from repro.sim.cluster import Cluster
from repro.sim.network import DeliveryError
from repro.util.records import (ENTITY_ID_BYTES, HASH_BYTES,
                                ControlMessage, MsgKind, UpdateBatch)

__all__ = ["ContentTracingEngine", "TracingStats", "RepairReport",
           "JoinReport"]

# Updates per datagram: 64 updates x 13 B + headers fits one MTU.
DEFAULT_UPDATE_BATCH = 64
# Update transports (``ConCORDConfig.update_transport``).
TRANSPORTS = ("udp", "rdma")


class TracingStats:
    """DHT counters as a live view over the engine's metrics registry
    (``dht.*``); same single-source-of-truth arrangement as
    :class:`repro.sim.network.NetworkStats`."""

    def __init__(self, engine: ContentTracingEngine) -> None:
        self._eng = engine

    @property
    def updates_routed(self) -> int:
        return self._eng._c_routed.value

    @property
    def updates_applied(self) -> int:
        return self._eng._c_applied.value

    @property
    def batches_sent(self) -> int:
        return self._eng._c_batches.value

    @property
    def failovers(self) -> int:
        """Nodes processed as failed (ranges re-homed)."""
        return self._eng._c_failovers.value

    @property
    def rejoins(self) -> int:
        """Nodes re-admitted after restart."""
        return self._eng._c_rejoins.value

    @property
    def repairs(self) -> int:
        """Anti-entropy repair passes."""
        return self._eng._c_repairs.value

    @property
    def joins(self) -> int:
        """Live node joins completed (cutovers)."""
        return self._eng._c_joins.value

    @property
    def entries_moved(self) -> int:
        """Rows re-homed across all join cutovers."""
        return self._eng._c_entries_moved.value

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k)
                for k in ("updates_routed", "updates_applied", "batches_sent",
                          "failovers", "rejoins", "repairs", "joins",
                          "entries_moved")}


@dataclass(frozen=True)
class RepairReport:
    """What one anti-entropy repair pass rebuilt, and what it cost.

    ``hashes_restored`` counts distinct hashes the inserts brought back
    that no shard row held once the removes were applied — never
    negative, the same meaning in every mode.  ``copies_removed`` is
    only nonzero for delta/recon repairs (stale believed copies
    reconciled away); a replay purges first, so it reports 0.
    ``bytes_wire``/``rounds`` account the repair traffic: modeled
    :class:`UpdateBatch` framing for a locally discovered diff (one
    round), real per-message costs of the
    :class:`~repro.recon.session.ReconSession` protocol for
    ``mode="recon"``.  ``node_ops`` lists, per shard that needed
    changes, ``(node, copies_inserted, copies_removed)`` — how the lab
    triage names the divergent node.
    """

    ranges_repaired: int
    hashes_restored: int
    copies_restored: int
    nodes_scanned: int
    copies_removed: int = 0
    bytes_wire: int = 0
    rounds: int = 0
    node_ops: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class JoinReport:
    """What one live node join moved (docs/ELASTICITY.md).

    ``precopied`` rows streamed to the joining node while the old ring
    kept serving; at cutover only the divergence since then moves
    (``delta_inserts``/``delta_removes``, via the pair-multiset diff),
    plus any rows reshuffling between pre-existing nodes
    (``entries_moved`` counts every row whose home changed).
    """

    node: int
    policy: str
    entries_total: int
    entries_moved: int
    precopied: int
    delta_inserts: int
    delta_removes: int

    @property
    def moved_fraction(self) -> float:
        """Fraction of tracked rows re-homed by this resize."""
        return self.entries_moved / max(1, self.entries_total)


_U64 = np.uint64
_ONE = np.uint64(1)


def _in_sorted(sorted_hashes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in ``sorted_hashes`` (boolean, per key)."""
    if not len(sorted_hashes):
        return np.zeros(len(keys), dtype=bool)
    i = np.minimum(np.searchsorted(sorted_hashes, keys),
                   len(sorted_hashes) - 1)
    return sorted_hashes[i] == keys


def _pairs_where(shard: LocalDHT, sel: np.ndarray | None = None) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shard's believed copies on the selected rows, as a
    (hash, entity, count) multiset — wide holders and extra copies
    folded in.  ``sel`` is a boolean mask over the shard's sorted rows
    (None = all rows); selection preserves sort order."""
    hashes, lo, wide = shard.items_arrays()
    if sel is not None and len(hashes):
        hs, ms = hashes[sel], lo[sel]
    else:
        hs, ms = hashes, lo
    out_h: list[np.ndarray] = []
    out_e: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    for eid in range(64):
        rows = hs[((ms >> _U64(eid)) & _ONE) != 0]
        if len(rows):
            out_h.append(rows)
            out_e.append(np.full(len(rows), eid, dtype=np.int64))
            out_c.append(np.ones(len(rows), dtype=np.int64))
    if wide:                            # holders >= entity 64 (sparse)
        wh = np.fromiter(wide, dtype=_U64, count=len(wide))
        for h in wh[_in_sorted(hs, wh)].tolist():
            bits = mask_bits(wide[h])
            out_h.append(np.full(len(bits), h, dtype=_U64))
            out_e.append(np.asarray(bits, dtype=np.int64) + 64)
            out_c.append(np.ones(len(bits), dtype=np.int64))
    xh, xe, xc = shard.extra_arrays()   # extra copies beyond the first
    if len(xh):
        keep = _in_sorted(hs, xh)
        out_h.append(xh[keep])
        out_e.append(xe[keep])
        out_c.append(xc[keep])
    if out_h:
        return (np.concatenate(out_h), np.concatenate(out_e),
                np.concatenate(out_c))
    return (np.empty(0, dtype=_U64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64))


def _expand(h: np.ndarray, e: np.ndarray, c: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray]:
    """A (hash, entity, count) multiset as the (hash, entity) stream a
    replay would send: each pair repeated ``count`` times."""
    return np.repeat(h, c), np.repeat(e, c)


def _stream_where(shard: LocalDHT, sel: np.ndarray | None = None) \
        -> tuple[np.ndarray, np.ndarray]:
    """The selected rows of :func:`_pairs_where`, expanded to a stream."""
    return _expand(*_pairs_where(shard, sel))


def _concat(parts, dtype) -> np.ndarray:
    return np.concatenate(parts) if len(parts) else np.empty(0, dtype=dtype)


# One DHT update on the wire (UpdateBatch): hash + entity + op flag.
_UPDATE_BYTES = HASH_BYTES + ENTITY_ID_BYTES + 1
# UDP/IP + ConCORD header overhead per update datagram.
_UPDATE_HEADER_BYTES = 58


def _modeled_replay_bytes(n_updates: int, n_represented: int,
                          batch: int) -> int:
    """Wire bytes a purge-and-replay (or delta replay) of ``n_updates``
    update records would cost, matching :class:`UpdateBatch` framing."""
    if n_updates <= 0:
        return 0
    return (n_updates * _UPDATE_BYTES * n_represented
            + -(-n_updates // batch) * _UPDATE_HEADER_BYTES)


class ContentTracingEngine:
    """Routes content updates to DHT shards and owns the shards."""

    def __init__(self, cluster: Cluster, use_network: bool = True,
                 batch_size: int = DEFAULT_UPDATE_BATCH,
                 n_represented: int = 1, transport: str = "udp",
                 obs: Observability | None = None,
                 pool: ShardPool | None = None,
                 storage: StorageConfig | None = None,
                 placement: str = "mod") -> None:
        """``transport``: "udp" (default) sends updates as datagrams the
        receiver must process; "rdma" models the paper's envisioned
        one-sided path — "because the originator of an update in principle
        knows the target node and address ... the originator could send
        the update via a non-blocking, asynchronous, unreliable RDMA"
        (§3.4) — removing the receive-side per-packet cost.

        ``storage`` selects the shard storage backend (docs/STORAGE.md);
        None reads the env-driven :class:`StorageConfig` default.  With a
        persistent backend pointed at a prior run's root, the shards load
        their last committed state at construction (``recovered``) and
        :meth:`repair` with ``delta=True`` reconciles them against the
        monitors' ground truth — the warm-restart path.

        ``placement`` selects the hash→node map
        (:data:`~repro.dht.partition.PLACEMENT_POLICIES`); the default
        ``mod`` is the original fixed-membership map, ``hd`` minimizes
        remapping under :meth:`add_node`.
        """
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {', '.join(TRANSPORTS)}")
        self.cluster = cluster
        self.partition = Partition(cluster.n_nodes, policy=placement)
        self.storage: StorageSet = open_storage(storage, cluster.n_nodes)
        self.shards = [LocalDHT(node_id=i, storage=s)
                       for i, s in enumerate(self.storage.shards)]
        #: True when at least one shard loaded a prior run's commit.
        self.recovered = any(s.recovered for s in self.shards)
        self.use_network = use_network
        self.batch_size = batch_size
        self.n_represented = n_represented
        self.transport = transport
        self.obs = obs if obs is not None else Observability()
        # Parallel backend for repair routing (docs/PARALLEL.md);
        # workers=1 = inline, exactly the previous behavior.
        self.pool = pool if pool is not None else ShardPool(1)
        reg = self.obs.registry
        self._c_routed = reg.counter("dht.updates_routed")
        self._c_applied = reg.counter("dht.updates_applied")
        self._c_batches = reg.counter("dht.batches_sent")
        self._c_failovers = reg.counter("dht.failovers")
        self._c_rejoins = reg.counter("dht.rejoins")
        self._c_repairs = reg.counter("dht.repairs")
        # Repair traffic (docs/RECONCILIATION.md): bytes on the wire and
        # protocol rounds of the last repair passes, all modes.
        self._c_repair_bytes = reg.counter("dht.repair.bytes_wire")
        self._c_repair_rounds = reg.counter("dht.repair.rounds")
        # Per-shard digest memo for mode="recon", keyed by shard epoch.
        self._digests = DigestCache()
        # Elastic membership (docs/ELASTICITY.md).
        self._c_joins = reg.counter("ring.joins")
        self._c_entries_moved = reg.counter("ring.entries_moved")
        self._c_precopied = reg.counter("ring.precopied")
        self._c_delta_ins = reg.counter("ring.delta_inserts")
        self._c_delta_rem = reg.counter("ring.delta_removes")
        self._g_ring_nodes = reg.gauge("ring.n_nodes")
        self._g_ring_nodes.set(cluster.n_nodes)
        #: (node, pending Partition) while a begun join awaits cutover.
        self._pending_join: tuple[int, Partition] | None = None
        self.stats = TracingStats(self)
        # Per-primary-range data availability: range r (hashes whose
        # primary node is r) is intact while a live shard holds its data.
        self._intact = np.ones(cluster.n_nodes, dtype=bool)
        # What the query paths read of it, refreshed by _summarize_intact
        # wherever _intact is written or the routed ring changes size.
        #: Fraction of the hash space whose data is intact (served by a
        #: live shard that was never holed by failover).
        self.coverage = 1.0
        #: Whether every primary range is intact (``coverage == 1``).
        self.all_intact = True
        # Update epochs (docs/SERVING.md): one per shard, bumped on every
        # mutation of that shard's content, plus a global epoch bumped on
        # every mutation anywhere.  Routing/coverage changes (failover,
        # rejoin, repair) bump *all* shards — they can re-home any hash
        # and move `coverage`, both of which change answers that never
        # touched the mutated shard.  The serve-layer result cache keys
        # answers on these epochs and is thereby invalidated precisely
        # when a covering shard advances.
        self._epochs = np.zeros(cluster.n_nodes, dtype=np.int64)
        self._global_epoch = 0
        if self.recovered:
            # Resume the persisted epoch sequence so epochs stay monotone
            # across a warm restart (docs/STORAGE.md).
            for i, shard in enumerate(self.shards):
                self._epochs[i] = shard.epoch
            self._global_epoch = int(self._epochs.max())
        for node, shard in zip(cluster.nodes, self.shards):
            node.dht = shard

    # -- update epochs (docs/SERVING.md) ----------------------------------------------

    def bump_epoch(self, shard: int) -> None:
        """Record a content mutation of one shard."""
        self._epochs[shard] += 1
        self._global_epoch += 1
        self.shards[shard].epoch = int(self._epochs[shard])

    def bump_all_epochs(self) -> None:
        """Record an event that may change any answer (failover, rejoin,
        repair, wholesale clear): every shard's epoch advances."""
        self._epochs += 1
        self._global_epoch += 1
        for i, shard in enumerate(self.shards):
            shard.epoch = int(self._epochs[i])

    def shard_epoch(self, node: int) -> int:
        """Epoch of one shard's content (monotone per mutation)."""
        return int(self._epochs[node])

    @property
    def global_epoch(self) -> int:
        """Monotone counter covering every shard mutation site-wide."""
        return self._global_epoch

    def epoch_vector(self) -> np.ndarray:
        """Copy of the per-shard epoch vector (index = node id)."""
        return self._epochs.copy()

    # -- update path -------------------------------------------------------------

    def route_updates(self, src_node: int, inserts, removes,
                      duration: float = 0.0) -> None:
        """Route (hash, entity) updates to their home shards.

        This is the sink handed to each node's memory update monitor.
        ``inserts`` and ``removes`` are ``(n, 2)`` ``uint64`` arrays of
        ``(hash, entity)`` rows (any array-like of that shape, e.g. a
        list of pairs, is converted once here).  ``duration`` is the wall
        time over which the monitor produced these updates (the scan
        time); sends are paced uniformly over it, as a real monitor emits
        updates while it scans rather than in one burst.

        Rows are grouped by home shard once per op — inserts before
        removes, homes ascending, rows of one home in arrival order — and
        every group ends in :meth:`_apply`: directly when the engine runs
        networkless, else cut into ``batch_size``-row :class:`UpdateBatch`
        datagrams whose delivery calls it.
        """
        ops = [(op, np.asarray(updates, dtype=np.uint64).reshape(-1, 2))
               for op, updates in (("i", inserts), ("r", removes))]
        self._c_routed.inc(sum(len(rows) for _op, rows in ops))
        groups = [(dst, op, rows[idxs])
                  for op, rows in ops if len(rows)
                  for dst, idxs in
                  self.partition.group_by_home(rows[:, 0]).items()]
        if not self.use_network:
            for dst, op, rows in groups:
                self._apply(dst, op, rows)
            return
        batches = []
        for dst, op, rows in groups:
            for lo in range(0, len(rows), self.batch_size):
                chunk = rows[lo:lo + self.batch_size]
                batches.append(UpdateBatch(
                    kind=MsgKind.UPDATE, src_node=src_node, dst_node=dst,
                    one_sided=(self.transport == "rdma"),
                    inserts=chunk if op == "i" else (),
                    removes=chunk if op == "r" else (),
                    n_represented=self.n_represented))
        # Interleave by source order and pace over the production window.
        self.cluster.rng.shuffle(batches)
        engine = self.cluster.engine
        n = len(batches)
        for i, batch in enumerate(batches):
            self._c_batches.inc()
            delay = duration * i / n if duration > 0 and n else 0.0
            engine.after(delay, self.cluster.network.send, batch,
                         self._apply_batch)

    def _apply_batch(self, batch: UpdateBatch) -> None:
        """Delivery callback of one update datagram."""
        for op, rows in (("i", batch.inserts), ("r", batch.removes)):
            if len(rows):
                self._apply(batch.dst_node, op, rows)

    def _apply(self, dst: int, op: str, rows: np.ndarray) -> None:
        """Apply one op's ``(hash, entity)`` rows to their home shard and
        record the mutation — where the update path ends, with and
        without the network."""
        shard = self.shards[dst]
        bulk = shard.bulk_insert if op == "i" else shard.bulk_remove
        bulk(rows[:, 0], rows[:, 1])
        self._c_applied.inc(len(rows))
        self.bump_epoch(dst)

    # -- failure detection / failover (docs/FAULTS.md) ---------------------------------

    def check_failover(self, node: int) -> bool:
        """Whether :meth:`node_failed` has work to do for ``node`` — a
        ring member believed alive (a mid-join node is not one yet).
        Raises ``ValueError`` for the last alive member, whose ranges
        would have nowhere to go; callers ask before mutating anything."""
        if node >= self.partition.n_nodes or not self.partition.is_alive(node):
            return False
        if self.partition.n_alive == 1:
            raise ValueError("cannot mark the last alive node dead")
        return True

    def node_failed(self, node: int) -> None:
        """Process a detected node failure: re-home its hash ranges.

        Every primary range currently homed on ``node`` (its own range plus
        any ranges that failed over to it earlier) loses its data and is
        marked non-intact; the shared alive view drops the node, so the
        zero-hop successor walk now routes those ranges to the next alive
        node.  The re-homed shards start empty until :meth:`repair`.

        The crash loses the shard's *RAM*; a persistent storage backend
        keeps its last commit, which a warm rejoin can recover.
        """
        if not self.check_failover(node):
            return
        lost = self.partition.range_homes() == node
        self._intact[:len(lost)][lost] = False
        self._summarize_intact()
        self.shards[node].crash()
        self.partition.set_alive(node, False)
        self.bump_all_epochs()
        self._c_failovers.inc()
        tr = self.obs.tracer
        if tr.enabled:
            tr.instant("dht.node_failed", node=node,
                       ranges_lost=int(lost.sum()))

    def node_restarted(self, node: int, recover: bool = False) -> None:
        """Re-admit a restarted node.

        Ranges whose home moves back to ``node`` are purged from their
        failover owners and marked non-intact until repaired — the
        restarted node's RAM-resident shard did not survive the crash.

        By default the node rejoins empty.  With ``recover=True`` (and a
        persistent storage backend holding a commit) it reloads its local
        segments first — the warm-rejoin path; the recovered view is
        stale, so its ranges still need :meth:`repair` (``delta=True``
        makes that cost scale with the staleness, not the content).
        """
        if node >= self.partition.n_nodes:
            return
        if self.partition.is_alive(node):
            return
        old_homes = self.partition.range_homes()
        self.partition.set_alive(node, True)
        moved = old_homes != self.partition.range_homes()
        moved_ranges = set(np.flatnonzero(moved).tolist())
        for owner in np.unique(old_homes[moved]).tolist():
            self._purge_ranges_at(int(owner), moved_ranges)
        self._intact[:len(moved)][moved] = False
        self._summarize_intact()
        if recover and self.shards[node].recover():
            # The recovered segments may hold ranges that re-homed to
            # other owners while the node was down; keep only rows this
            # node homes *now* (all of which are in `moved`, hence
            # non-intact until repaired) so nothing double-counts.
            homes = self.partition.range_homes()
            self._purge_ranges_at(node,
                                  set(np.flatnonzero(homes != node).tolist()))
        else:
            self.shards[node].crash()
        self.bump_all_epochs()
        self._c_rejoins.inc()
        tr = self.obs.tracer
        if tr.enabled:
            tr.instant("dht.node_rejoined", node=node,
                       ranges_moved=len(moved_ranges))

    # -- elastic membership: live join with incremental handoff ------------------------
    # (docs/ELASTICITY.md)

    def begin_join(self) -> int:
        """Start a live node join; returns the joining node's ID.

        Grows the machine (cluster, network, storage, shard) and
        *pre-copies* every row whose home under the grown ring is the
        new node — while the old ring keeps routing and serving, so no
        query or update ever waits on the transfer.  The new node is
        not a ring member until :meth:`complete_join` cuts over; only
        the divergence accumulated between the two calls moves then.
        """
        if self._pending_join is not None:
            raise RuntimeError("a node join is already in progress")
        node = self.cluster.add_node()
        shard = LocalDHT(node_id=node, storage=self.storage.add_shard())
        if shard.recovered:
            # A joining node is *new*; whatever a prior (larger) run left
            # in its storage slot is garbage for this membership.
            shard.clear()
        self.shards.append(shard)
        self.cluster.nodes[node].dht = shard
        self._intact = np.append(self._intact, True)
        self._summarize_intact()
        self._epochs = np.append(self._epochs, 0)
        pending = self.partition.grown()
        precopied = 0
        for src in range(node):
            if not self.partition.is_alive(src):
                continue
            s = self.shards[src]
            hashes, _lo, _wide = s.items_arrays()
            if not len(hashes):
                continue
            sel = pending.home_nodes(hashes) == node
            if not sel.any():
                continue
            shard.bulk_insert(*_stream_where(s, sel))
            precopied += int(sel.sum())
        self._pending_join = (node, pending, precopied)
        self._c_precopied.inc(precopied)
        # The machine just grew: query *values* are unchanged (the old
        # ring still routes) but modeled collective latency covers one
        # more node, so cached answers are stale as QueryResults.  Bump
        # now as well as at cutover to keep verify-mode byte-identical.
        self.bump_all_epochs()
        tr = self.obs.tracer
        if tr.enabled:
            tr.instant("ring.join_begin", node=node, precopied=precopied)
        return node

    def complete_join(self) -> JoinReport:
        """Cut a begun join over: the grown ring becomes the routed map.

        The joining node catches up *incrementally* — its pre-copied
        content is reconciled against the current truth with the
        pair-multiset diff, so only rows written/removed since
        :meth:`begin_join` move now.  Rows reshuffling between
        pre-existing nodes (a ``mod``-policy resize moves many; the
        remap-minimizing policies almost none) transfer wholesale.
        Every shard epoch bumps at the swap, so the serve-layer
        :class:`~repro.serve.cache.EpochCache` invalidates exactly the
        answers the new map could change — byte-identical serving by
        construction.
        """
        if self._pending_join is None:
            raise RuntimeError("no node join in progress")
        node, pending, precopied = self._pending_join
        with self.obs.tracer.span("ring.handoff", node=node):
            report = self._cutover(node, pending, precopied)
        self._pending_join = None
        self._c_joins.inc()
        self._c_entries_moved.inc(report.entries_moved)
        self._c_delta_ins.inc(report.delta_inserts)
        self._c_delta_rem.inc(report.delta_removes)
        self._g_ring_nodes.set(self.partition.n_nodes)
        return report

    def _cutover(self, node: int, pending: Partition,
                 precopied: int) -> JoinReport:
        self.refresh_failed()
        # Carry failures detected since begin_join onto the pending map.
        for i in range(self.partition.n_nodes):
            pending.ring.set_alive(i, self.partition.is_alive(i))
        old_n = self.partition.n_nodes
        entries_total = sum(self.shards[i].n_hashes for i in range(old_n))
        # Phase 1 (read-only): per source shard, where does each row live
        # under the grown ring?  Collect keep-masks and per-destination
        # pair multisets before mutating anything, so masks stay aligned.
        moved = 0
        keep: dict[int, np.ndarray] = {}
        arriving: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        for src in range(old_n + 1):
            if src < old_n and not self.partition.is_alive(src):
                continue
            s = self.shards[src if src < old_n else node]
            src_id = s.node_id
            hashes, _lo, _wide = s.items_arrays()
            if not len(hashes):
                continue
            homes = pending.home_nodes(hashes)
            moving = homes != src_id
            if not moving.any():
                continue
            keep[src_id] = ~moving
            if src_id != node:
                moved += int(moving.sum())
            for dst in np.unique(homes[moving]).tolist():
                rh, re = _stream_where(s, homes == dst)
                hs, es = arriving.setdefault(int(dst), ([], []))
                hs.append(rh)
                es.append(re)
        # Phase 2: evict movers from their sources (masks pre-computed).
        for src_id, mask in keep.items():
            self.shards[src_id].retain(mask)
        # Phase 3: the joining node converges its pre-copied content onto
        # the current truth — the incremental part of the handoff.
        delta_ins, delta_rem, *_ = self._converge([node], arriving)
        # Phase 4: wholesale moves between pre-existing nodes.
        for dst in sorted(arriving.keys() - {node}):
            hs, es = arriving[dst]
            self.shards[dst].bulk_insert(np.concatenate(hs),
                                         np.concatenate(es))
        # Phase 5: swap the routed map and invalidate every cached answer.
        # Intactness is conservative: holes under the old map land in
        # unknown places under the new one, so any hole voids everything
        # (the next repair converges it back).
        all_intact = bool(self._intact[:old_n].all())
        self._intact[:] = all_intact
        self.partition = pending
        self._summarize_intact()
        self.bump_all_epochs()
        tr = self.obs.tracer
        if tr.enabled:
            tr.instant("ring.join_cutover", node=node,
                       entries_moved=moved, delta_inserts=delta_ins,
                       delta_removes=delta_rem)
        return JoinReport(node=node, policy=pending.policy,
                          entries_total=entries_total, entries_moved=moved,
                          precopied=precopied,
                          delta_inserts=delta_ins, delta_removes=delta_rem)

    def add_node(self) -> JoinReport:
        """Join one node atomically (begin + immediate cutover)."""
        self.begin_join()
        return self.complete_join()

    def refresh_failed(self) -> list[int]:
        """Inline failure detection: the cheap equivalent of the timeout a
        routed update/query would hit.  Returns newly detected nodes."""
        net = self.cluster.network
        detected = []
        # Ring members only: a node mid-join is not routed to yet.
        for node in range(self.partition.n_nodes):
            if self.partition.is_alive(node) and not net.node_up[node]:
                self.node_failed(node)
                detected.append(node)
        return detected

    def detect_failures(self, issuing_node: int = 0) -> list[int]:
        """Probe every believed-alive peer over the reliable channel.

        A dead peer blackholes all ``MAX_RELIABLE_ATTEMPTS`` probe
        retransmissions, so the probe times out with
        :class:`~repro.sim.network.DeliveryError` — the timeout *is* the
        failure signal, exactly like a routed query that goes unanswered.
        Falls back to the inline check when the engine runs networkless.
        """
        if not self.use_network:
            return self.refresh_failed()
        detected = []
        with self.obs.tracer.span("dht.detect", node=issuing_node):
            for node in range(self.partition.n_nodes):
                if node == issuing_node or not self.partition.is_alive(node):
                    continue
                acked: list[bool] = []
                self.cluster.network.send_reliable(
                    ControlMessage(MsgKind.CONTROL, issuing_node, node,
                                   op="ping"),
                    on_deliver=lambda _m: acked.append(True))
                try:
                    self.cluster.engine.run()
                except DeliveryError:
                    # The timeout is the failure signal; count it.
                    self._delivery_error("detect")
                if not acked:
                    self.node_failed(node)
                    detected.append(node)
        return detected

    # -- anti-entropy repair ------------------------------------------------------------

    def _purge_ranges_at(self, owner: int, ranges: set[int]) -> int:
        """Evict all hashes of the given primary ranges from one shard."""
        shard = self.shards[owner]
        hashes, _masks, _wide = shard.items_arrays()
        if not len(hashes) or not ranges:
            return 0
        prim = self.partition.primary_nodes(hashes)
        keep = ~np.isin(prim, np.fromiter(ranges, dtype=np.int64,
                                          count=len(ranges)))
        return shard.retain(keep)

    def repair(self, full: bool = False, delta: bool = False,
               mode: str | None = None) -> RepairReport:
        """Converge non-intact ranges onto the monitors' ground truth.

        Each alive node re-routes its NSM's last-scanned view — restricted
        to the ranges under repair — to the ranges' current homes, and
        every home shard converges onto what was routed to it
        (:meth:`_converge`); the paper's observation that "the DHT can
        always be rebuilt from the node-local content" made operational.
        ``full=True`` covers every range (a complete anti-entropy pass),
        which also heals holes left by lost update datagrams, not just
        failover damage.

        The default is a *replay*: the target ranges are purged first,
        so the converge step re-inserts every truth copy and the report
        carries the full rebuild cost.  ``delta=True`` skips the purge:
        only the difference between the believed rows and the truth is
        applied, so *local* cost scales with divergence rather than
        content size — what makes a warm restart cheap
        (docs/STORAGE.md).  ``mode="recon"`` also skips the purge and
        discovers the difference through the digest-tree
        set-reconciliation protocol
        (:class:`~repro.recon.session.ReconSession`) over every range,
        so *wire* cost scales with divergence too
        (docs/RECONCILIATION.md); it takes no ``delta``.  Because the
        packed representation is canonical after compaction, all three
        land on byte-identical shards.

        Entities hosted on dead nodes contribute nothing (their memory is
        gone), so their entries do not reappear in repaired ranges.
        """
        if mode not in (None, "recon"):
            raise ValueError(f"unknown repair mode {mode!r}; "
                             f"expected None or 'recon'")
        recon = mode == "recon"
        if recon and delta:
            raise ValueError("repair(delta=True, mode='recon'): recon "
                             "already applies only the difference; pass "
                             "one or the other")
        self.refresh_failed()
        # Targets are primary ranges of the routed ring; the NSM scan
        # below walks every cluster node (a mid-join node hosts no
        # entities yet, so the distinction is only about ranges).  A
        # recon pass always covers every range: pruning intact subtrees
        # is the protocol's own job and costs one digest round.
        n = self.partition.n_nodes
        targets = (np.arange(n, dtype=np.int64) if full or recon
                   else np.flatnonzero(~self._intact[:n]).astype(np.int64))
        if not len(targets):
            return RepairReport(0, 0, 0, 0)
        alive = self.partition.alive_nodes().tolist()
        if not delta and not recon:
            target_set = set(targets.tolist())
            for owner in alive:
                self._purge_ranges_at(owner, target_set)
        nodes_scanned = 0
        net = self.cluster.network
        # Routing (select hashes in repaired ranges, group by current
        # home) is pure and fans out through the pool — one task per
        # (node, entity), gathered in collection order; the converge
        # step runs on the coordinator in (hash, entity) order, so
        # repaired shards are byte-identical at any worker count.
        tasks: list[tuple[np.ndarray, Partition, np.ndarray]] = []
        task_eids: list[int] = []
        work = 0
        for node in range(self.cluster.n_nodes):
            if not net.node_up[node]:
                continue
            nsm = self.cluster.nodes[node].nsm
            if nsm is None:
                continue
            nodes_scanned += 1
            for entity in nsm.entities():
                hashes = nsm.scanned_hashes_of(entity.entity_id)
                if hashes is None or not len(hashes):
                    continue
                tasks.append((hashes, self.partition, targets))
                task_eids.append(entity.entity_id)
                work += len(hashes)
        routed = self.pool.run_tasks(_ops.repair_route, tasks, work=work)
        truth: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        for eid, groups in zip(task_eids, routed):
            for dst, hs in (groups or {}).items():
                want_h, want_e = truth.setdefault(dst, ([], []))
                want_h.append(hs)
                want_e.append(np.full(len(hs), eid, dtype=np.int64))
        copies, removed, restored, bytes_wire, rounds, node_ops = \
            self._converge(alive, truth,
                           targets=None if len(targets) == n else targets,
                           recon=recon)
        self._c_repair_bytes.inc(bytes_wire)
        self._c_repair_rounds.inc(rounds)
        self._intact[targets] = True
        self._summarize_intact()
        self.bump_all_epochs()
        self._c_repairs.inc()
        tr = self.obs.tracer
        if tr.enabled:
            tr.instant("dht.repair", ranges=len(targets),
                       copies_restored=copies, copies_removed=removed,
                       nodes_scanned=nodes_scanned, bytes_wire=bytes_wire,
                       mode=mode or ("delta" if delta else "replay"))
        return RepairReport(ranges_repaired=len(targets),
                            hashes_restored=restored,
                            copies_restored=copies,
                            nodes_scanned=nodes_scanned,
                            copies_removed=removed,
                            bytes_wire=bytes_wire, rounds=rounds,
                            node_ops=tuple(node_ops))

    def _converge(self, shards: list[int],
                  truth: dict[int, tuple[list[np.ndarray],
                                         list[np.ndarray]]],
                  targets: np.ndarray | None = None, recon: bool = False) \
            -> tuple[int, int, int, int, int, list[tuple[int, int, int]]]:
        """Converge each listed shard's believed rows onto the truth
        routed to it — the one place a diff is discovered and applied;
        repair, warm restart and join catch-up all end here.

        ``truth[dst]`` holds the (hash, entity) replay stream destined to
        shard ``dst`` as lists of parallel array parts (absent = the
        shard should hold nothing); believed rows are restricted to the
        primary ranges in ``targets`` (None = every row).  The
        difference is discovered locally by the pair-multiset diff, or —
        ``recon=True``, all rows only — by one
        :class:`~repro.recon.session.ReconSession` per shard against a
        coordinator (``shards[0]``) holding the aggregated truth digest
        (counts sum and 64-bit mixed digests combine across contributing
        nodes without shipping rows), so what crosses the wire is digest
        rounds plus the mismatched leaf rows.  Either way it is applied
        removes-then-inserts in (hash, entity) order.

        Returns ``(copies inserted, copies removed, hashes restored,
        wire bytes, protocol rounds, per-node op list)``; a locally
        discovered diff is charged as one round of :class:`UpdateBatch`
        framing over every applied record.
        """
        emit = None
        if recon and self.use_network:
            net = self.cluster.network

            def emit(msg):
                if msg.src_node != msg.dst_node:
                    net.send_reliable(msg, on_deliver=lambda _m: None)
        inserted = removed = restored = bytes_wire = rounds = 0
        node_ops: list[tuple[int, int, int]] = []
        for dst in shards:
            shard = self.shards[dst]
            sel = None
            if targets is not None:
                hashes = shard.items_arrays()[0]
                if len(hashes):
                    sel = np.isin(self.partition.primary_nodes(hashes),
                                  targets)
            want_h, want_e = truth.get(dst, ((), ()))
            wh, we = _concat(want_h, _U64), _concat(want_e, np.int64)
            if recon:
                believed = self._digests.get(
                    dst, self.shard_epoch(dst),
                    lambda: PairSetDigest(
                        *canonical_pairs(*_pairs_where(shard, sel))))
                report = ReconSession(
                    believed, PairSetDigest(*canonical_pairs(wh, we)),
                    src_node=dst, dst_node=shards[0], emit=emit).run()
                ins, rem = report.ins, report.rem
                bytes_wire += report.bytes_wire
                rounds = max(rounds, report.rounds)
            else:
                ins, rem = pair_multiset_diff(*_pairs_where(shard, sel),
                                              wh, we)
            if len(rem[0]):
                shard.bulk_remove(*_expand(*rem))
            after_removes = shard.n_hashes
            if len(ins[0]):
                shard.bulk_insert(*_expand(*ins))
            restored += shard.n_hashes - after_removes
            d_ins, d_rem = int(ins[2].sum()), int(rem[2].sum())
            inserted += d_ins
            removed += d_rem
            if d_ins or d_rem:
                node_ops.append((dst, d_ins, d_rem))
        if emit is not None:
            try:
                self.cluster.engine.run()
            except DeliveryError:
                self._delivery_error("recon")
        if not recon:
            bytes_wire = _modeled_replay_bytes(
                inserted + removed, self.n_represented, self.batch_size)
            rounds = 1 if inserted + removed else 0
        return inserted, removed, restored, bytes_wire, rounds, node_ops

    def _delivery_error(self, site: str) -> None:
        """Count a reliable send that exhausted its retransmissions."""
        self.obs.registry.counter("dht.delivery_errors", site=site).inc()

    # -- degraded-mode introspection ---------------------------------------------------

    def _summarize_intact(self) -> None:
        """Recompute :attr:`coverage` and :attr:`all_intact` over the
        routed ring's ranges, so a query reads two fields instead of
        reducing ``_intact`` per call."""
        ranges = self._intact[:self.partition.n_nodes]
        self.coverage = float(ranges.mean())
        self.all_intact = bool(ranges.all())

    def is_degraded(self, content_hash: int) -> bool:
        """Whether a node-wise answer for this hash may undercount: its
        primary range is holed.  The one definition the scalar queries and
        the serving fill share; with every range intact nothing is routed.
        """
        return not (self.all_intact or self.range_intact(content_hash))

    def range_intact(self, content_hash: int) -> bool:
        return bool(self._intact[self.partition.primary_node(content_hash)])

    def hashes_intact(self, content_hashes) -> np.ndarray:
        """Vectorized :meth:`range_intact` over an array of hashes."""
        return self._intact[self.partition.primary_nodes(content_hashes)]

    def live_shards(self, detect: bool = True) -> list[LocalDHT]:
        """Shards of believed-alive nodes; by default an unreachable node
        discovered along the way is processed as failed (lazy detection)."""
        if detect:
            self.refresh_failed()
        return [self.shards[i]
                for i in self.partition.alive_nodes().tolist()]

    # -- lookups ---------------------------------------------------------------------

    def _shard_of(self, content_hash: int) -> LocalDHT:
        return self.shards[self.home_node(content_hash)]

    def home_node(self, content_hash: int) -> int:
        """Current home of a hash; an unreachable home is detected as
        failed (the query timeout path) and routing retried."""
        home = self.partition.home_node(content_hash)
        net = self.cluster.network
        while not net.node_up[home]:
            self.node_failed(home)
            home = self.partition.home_node(content_hash)
        return home

    def lookup_mask(self, content_hash: int) -> int:
        """Entity bitmask for a hash (whichever shard owns it)."""
        return self._shard_of(content_hash).entities_mask(content_hash)

    def lookup_copies(self, content_hash: int) -> int:
        return self._shard_of(content_hash).num_copies(content_hash)

    @property
    def total_hashes(self) -> int:
        """Distinct content hashes tracked site-wide."""
        return sum(s.n_hashes for s in self.shards)

    @property
    def total_copies(self) -> int:
        return sum(s.n_copies for s in self.shards)

    def shard_sizes(self) -> list[int]:
        return [s.n_hashes for s in self.shards]

    def remove_entity(self, entity_id: int) -> int:
        """Purge an entity's entries from every shard (detach path);
        returns rows touched.  Bumps every epoch — the entity's content
        may have lived anywhere."""
        touched = sum(s.remove_entity(entity_id) for s in self.shards)
        self.bump_all_epochs()
        return touched

    def clear(self) -> None:
        for s in self.shards:
            s.clear()
        self.bump_all_epochs()

    # -- storage lifecycle (docs/STORAGE.md) -------------------------------------------

    def flush_storage(self) -> None:
        """Durability barrier: force-commit every shard (overlay included)."""
        for shard in self.shards:
            shard.flush()

    def close(self) -> None:
        """Remove an ephemeral storage root; idempotent.  The facade
        calls this."""
        self.storage.close()
