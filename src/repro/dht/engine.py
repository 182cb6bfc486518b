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

The engine owns the shards, the update path and the shard lookups;
``membership`` (:class:`~repro.dht.membership.Membership`) owns routing,
coverage, epochs, failover and joins (docs/FAULTS.md,
docs/ELASTICITY.md), and ``repairer`` (:class:`~repro.dht.repair.Repair`)
rebuilds ranges from the monitors' ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.dht.membership import Membership
from repro.dht.repair import Repair, RepairReport
from repro.dht.storage import StorageConfig, StorageSet, open_storage
from repro.dht.table import LocalDHT
from repro.exec.pool import ShardPool
from repro.obs import MetricsRegistry, Observability
from repro.sim.cluster import Cluster
from repro.sim.network import DeliveryError
from repro.util.records import ControlMessage, MsgKind, UpdateBatch

__all__ = ["ContentTracingEngine", "TracingStats"]

# Updates per datagram: 64 updates x 13 B + headers fits one MTU.
DEFAULT_UPDATE_BATCH = 64
# Update transports (``ConCORDConfig.update_transport``).
TRANSPORTS = ("udp", "rdma")


def _count(name: str, doc: str | None = None) -> property:
    return property(lambda self: self._registry.value(name), doc=doc)


class TracingStats:
    """DHT counters as a live view over the engine's metrics registry
    (``dht.*``); same single-source-of-truth arrangement as
    :class:`repro.sim.network.NetworkStats`."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    updates_routed = _count("dht.updates_routed")
    updates_applied = _count("dht.updates_applied")
    batches_sent = _count("dht.batches_sent")
    failovers = _count("dht.failovers",
                       "Nodes processed as failed (ranges re-homed).")
    rejoins = _count("dht.rejoins", "Nodes re-admitted after restart.")


class ContentTracingEngine:
    """Routes content updates to DHT shards and owns the shards."""

    def __init__(self, cluster: Cluster, use_network: bool = True,
                 batch_size: int = DEFAULT_UPDATE_BATCH,
                 n_represented: int = 1, transport: str = "udp",
                 obs: Observability | None = None,
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
        :meth:`repair` with ``mode="delta"`` reconciles them against the
        monitors' ground truth — the warm-restart path.

        ``placement`` selects the hash→node map
        (:data:`~repro.dht.partition.PLACEMENT_POLICIES`); the default
        ``mod`` is the original fixed-membership map, ``hd`` minimizes
        remapping under a live join.
        """
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {', '.join(TRANSPORTS)}")
        self.cluster = cluster
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        self.storage: StorageSet = open_storage(storage, cluster.n_nodes, reg)
        self.shards = [LocalDHT(node_id=i, storage=s)
                       for i, s in enumerate(self.storage.shards)]
        #: True when at least one shard loaded a prior run's commit.
        self.recovered = any(s.recovered for s in self.shards)
        self.use_network = use_network
        self.batch_size = batch_size
        self.n_represented = n_represented
        self.transport = transport
        self.pool = ShardPool()
        self._c_routed = reg.counter("dht.updates_routed")
        self._c_applied = reg.counter("dht.updates_applied")
        self._c_batches = reg.counter("dht.batches_sent")
        self.stats = TracingStats(reg)
        self.membership = Membership(self, placement)
        self.repairer = Repair(self)
        # The alive list the home lookup reads (grown in place on a join,
        # never replaced).
        self._node_up = cluster.network.node_up
        for node, shard in zip(cluster.nodes, self.shards):
            node.dht = shard

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
        partition = self.membership.partition
        groups = [(dst, op, rows[idxs])
                  for op, rows in ops if len(rows)
                  for dst, idxs in
                  partition.group_by_home(rows[:, 0]).items()]
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
        self.membership.bump_epoch(shard)

    # -- failure detection and repair (docs/FAULTS.md) --------------------------------

    def detect_failures(self, issuing_node: int = 0) -> list[int]:
        """Probe every believed-alive peer over the reliable channel.

        A dead peer blackholes all ``MAX_RELIABLE_ATTEMPTS`` probe
        retransmissions, so the probe times out with
        :class:`~repro.sim.network.DeliveryError` — the timeout *is* the
        failure signal, exactly like a routed query that goes unanswered;
        :meth:`Membership.node_failed` processes it.  Falls back to the
        inline check when the engine runs networkless.

        A probe from a missing or down node would time out at *every*
        peer, so it is refused before anything is probed or failed over.
        """
        cluster, membership = self.cluster, self.membership
        if not (0 <= issuing_node < cluster.n_nodes
                and cluster.network.node_up[issuing_node]):
            raise ValueError(f"cannot detect failures from node "
                             f"{issuing_node}: it is not an up node")
        if not self.use_network:
            return membership.refresh_failed()
        detected = []
        with self.obs.tracer.span("dht.detect", node=issuing_node):
            partition = membership.partition
            for node in range(partition.n_nodes):
                if node == issuing_node or not partition.is_alive(node):
                    continue
                acked: list[bool] = []
                cluster.network.send_reliable(
                    ControlMessage(MsgKind.CONTROL, issuing_node, node,
                                   op="ping"),
                    on_deliver=lambda _m: acked.append(True))
                try:
                    cluster.engine.run()
                except DeliveryError:
                    # The timeout is the failure signal; count it.
                    self.delivery_error("detect")
                if not acked:
                    membership.node_failed(node)
                    detected.append(node)
        return detected

    def send_recon(self, msg) -> None:
        """Ship one set-reconciliation message reliably (the ``emit`` of
        :meth:`Repair.converge`); a node's message to itself stays local.
        Like the probes, it is sent from here: the engine owns the DHT's
        traffic, and a delivery callback is attributed to the module that
        defines it (bench/layers.py)."""
        if msg.src_node != msg.dst_node:
            self.cluster.network.send_reliable(msg, on_deliver=lambda _m: None)

    def delivery_error(self, site: str) -> None:
        """Count a reliable send that exhausted its retransmissions."""
        self.obs.registry.counter("dht.delivery_errors", site=site).inc()

    def repair(self, full: bool = False, mode: str = "replay") -> RepairReport:
        """:meth:`Repair.run` (bound here by name for the benchmark's
        layer table)."""
        return self.repairer.run(full, mode)

    # -- degraded-mode introspection ---------------------------------------------------

    def is_degraded(self, content_hash: int) -> bool:
        """Whether a node-wise answer for this hash may undercount: its
        primary range is holed.  The one definition the scalar queries and
        the serving fill share; with every range intact nothing is routed.
        """
        m = self.membership
        return not (m.all_intact
                    or m._intact[m.partition.primary_node(content_hash)])

    def hashes_intact(self, content_hashes) -> np.ndarray:
        """Per hash: whether its primary range is intact."""
        m = self.membership
        return m._intact[m.partition.primary_nodes(content_hashes)]

    def live_shards(self) -> list[LocalDHT]:
        """Shards of believed-alive nodes; an unreachable node discovered
        along the way is processed as failed (lazy detection)."""
        m = self.membership
        m.refresh_failed()
        return [self.shards[i] for i in m.partition.alive_nodes().tolist()]

    # -- lookups ---------------------------------------------------------------------

    def _shard_of(self, content_hash: int) -> LocalDHT:
        return self.shards[self.home_node(content_hash)]

    def home_node(self, content_hash: int) -> int:
        """Current home of a hash; an unreachable home is detected as
        failed (the query timeout path) and routing retried."""
        m = self.membership
        home = m.partition.home_node(content_hash)
        node_up = self._node_up
        while not node_up[home]:
            m.node_failed(home)
            home = m.partition.home_node(content_hash)
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
        self.membership.content_changed()
        return touched

    def clear(self) -> None:
        for s in self.shards:
            s.clear()
        self.membership.content_changed()

    # -- storage lifecycle (docs/STORAGE.md) -------------------------------------------

    def flush_storage(self) -> None:
        """Durability barrier: force-commit every up node's shard (write
        log included).  A down node's RAM is gone, so its last commit —
        what a warm rejoin recovers — stays as it is."""
        for shard, up in zip(self.shards, self._node_up):
            if up:
                shard.flush()

    def close(self) -> None:
        """Remove an ephemeral storage root; idempotent.  The facade
        calls this."""
        self.storage.close()
