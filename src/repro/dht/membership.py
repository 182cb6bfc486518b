"""Ring membership: the routed partition, range intactness and epochs.

:class:`Membership` runs failover and rejoin (docs/FAULTS.md) and the two
phases of a live join (docs/ELASTICITY.md).  Each such event, a repair
that changed anything and a wholesale content change ends in one call to
:meth:`Membership._changed` — the one rule the serve cache's
self-validating hit rests on (docs/SERVING.md).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dht.partition import Partition
from repro.dht.repair import purge_ranges, stream_where
from repro.dht.table import LocalDHT

if TYPE_CHECKING:  # pragma: no cover
    from repro.dht.engine import ContentTracingEngine

__all__ = ["Membership", "JoinReport"]


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


class Membership:
    """Owns the routed :class:`Partition` (and its alive view), one
    *intact* flag per primary range, ``coverage``/``all_intact``, the
    global update epoch and a pending join of one engine."""

    def __init__(self, engine: ContentTracingEngine, placement: str) -> None:
        self.engine = engine
        #: The engine's shard list (shared: a join appends to it).
        self.shards = engine.shards
        n = engine.cluster.n_nodes
        self.partition = Partition(n, policy=placement)
        reg = engine.obs.registry
        self._c_failovers = reg.counter("dht.failovers")
        self._c_rejoins = reg.counter("dht.rejoins")
        self._c_joins = reg.counter("ring.joins")
        self._c_entries_moved = reg.counter("ring.entries_moved")
        self._c_precopied = reg.counter("ring.precopied")
        self._c_delta_ins = reg.counter("ring.delta_inserts")
        self._c_delta_rem = reg.counter("ring.delta_removes")
        self._g_ring_nodes = reg.gauge("ring.n_nodes")
        self._g_ring_nodes.set(n)
        #: (node, pending Partition, rows pre-copied) while a begun join
        #: awaits cutover.
        self._pending_join: tuple[int, Partition, int] | None = None
        # Per-primary-range data availability: range r (hashes whose
        # primary node is r) is intact while a live shard holds its data.
        self._intact = np.ones(n, dtype=bool)
        # What the query paths read of it, refreshed by _changed.
        #: Fraction of the hash space whose data is intact (served by a
        #: live shard that was never holed by failover).
        self.coverage = 1.0
        #: Whether every primary range is intact (``coverage == 1``).
        self.all_intact = True
        # Update epochs (docs/SERVING.md): each shard's ``epoch`` advances
        # on every mutation of its content, and this global epoch on
        # every mutation anywhere.  The serve-layer result cache keys
        # answers on them and is thereby invalidated precisely when a
        # covering shard advances.  Bring-up resumes every shard at the
        # highest persisted epoch, which a clean close() commits as the
        # global epoch, so epochs stay monotone across a warm restart,
        # also for a node that was down at the exit (docs/STORAGE.md).
        self.global_epoch = max(s.epoch for s in self.shards)
        for shard in self.shards:
            shard.epoch = self.global_epoch

    # -- update epochs (docs/SERVING.md) -----------------------------------------------

    def bump_epoch(self, shard: LocalDHT) -> None:
        """Record a content mutation of one shard (the update path)."""
        shard.epoch += 1
        self.global_epoch += 1

    def shard_epoch(self, node: int) -> int:
        """Epoch of one shard's content (monotone per mutation)."""
        return self.shards[node].epoch

    def epoch_vector(self) -> np.ndarray:
        """The per-shard epochs (index = node id), as a new array."""
        return np.array([s.epoch for s in self.shards], dtype=np.int64)

    def _changed(self, event: str | None, **fields) -> None:
        """End of every event that can re-home a hash or move coverage.

        The only code that recomputes :attr:`coverage`/:attr:`all_intact`
        (so a query reads two fields, not a reduction of ``_intact``) and
        that advances *every* shard epoch: such an event changes answers
        that never touched a mutated shard.  Emits ``event`` as a tracer
        instant with ``fields`` (None: no instant).
        """
        ranges = self._intact[:self.partition.n_nodes]
        self.coverage = float(ranges.mean())
        self.all_intact = bool(ranges.all())
        for shard in self.shards:
            shard.epoch += 1
        self.global_epoch += 1
        tr = self.engine.obs.tracer
        if event is not None and tr.enabled:
            tr.instant(event, **fields)

    def content_changed(self) -> None:
        """Record a content change that may touch any shard — a
        wholesale clear, an entity purge, or damage done to shards
        directly: every epoch advances."""
        self._changed(None)

    def repaired(self, targets: np.ndarray, **fields) -> None:
        """Mark the repaired primary ranges intact (end of a
        :meth:`~repro.dht.repair.Repair.run` that healed a hole or
        changed a shard)."""
        self._intact[targets] = True
        self._changed("dht.repair", **fields)

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
        node.  The re-homed shards start empty until a repair.

        The crash loses the shard's *RAM*; a persistent storage backend
        keeps its last commit, which a warm rejoin can recover.
        """
        if not self.check_failover(node):
            return
        lost = self.partition.range_homes() == node
        self._intact[:len(lost)][lost] = False
        self.shards[node].crash()
        self.partition.set_alive(node, False)
        self._c_failovers.inc()
        self._changed("dht.node_failed", node=node,
                      ranges_lost=int(lost.sum()))

    def node_restarted(self, node: int, recover: bool = False) -> None:
        """Re-admit a restarted node.

        Ranges whose home moves back to ``node`` are purged from their
        failover owners and marked non-intact until repaired — the
        restarted node's RAM-resident shard did not survive the crash.

        By default the node rejoins empty.  With ``recover=True`` (and a
        persistent storage backend holding a commit) it reloads its local
        segments first — the warm-rejoin path; the recovered view is
        stale, so its ranges still need a repair (``mode="delta"``
        makes that cost scale with the staleness, not the content).  The shard
        keeps its live epoch, so no epoch a cached answer holds recurs.
        """
        if node >= self.partition.n_nodes or self.partition.is_alive(node):
            return
        old_homes = self.partition.range_homes()
        self.partition.set_alive(node, True)
        moved = old_homes != self.partition.range_homes()
        moved_ranges = set(np.flatnonzero(moved).tolist())
        for owner in np.unique(old_homes[moved]).tolist():
            purge_ranges(self.shards[owner], self.partition, moved_ranges)
        self._intact[:len(moved)][moved] = False
        shard = self.shards[node]
        if recover and shard.recover():
            # The recovered segments may hold ranges that re-homed to
            # other owners while the node was down; keep only rows this
            # node homes *now* (all of which are in `moved`, hence
            # non-intact until repaired) so nothing double-counts.
            homes = self.partition.range_homes()
            purge_ranges(shard, self.partition,
                         set(np.flatnonzero(homes != node).tolist()))
        else:
            shard.crash()
        self._c_rejoins.inc()
        self._changed("dht.node_rejoined", node=node,
                      ranges_moved=len(moved_ranges))

    def refresh_failed(self) -> list[int]:
        """Inline failure detection: the cheap equivalent of the timeout a
        routed update/query would hit.  Returns newly detected nodes."""
        net = self.engine.cluster.network
        if all(net.node_up):
            return []   # no NIC is down, so no ring member can be undetected
        detected = []
        # Ring members only: a node mid-join is not routed to yet.
        for node in range(self.partition.n_nodes):
            if self.partition.is_alive(node) and not net.node_up[node]:
                self.node_failed(node)
                detected.append(node)
        return detected

    # -- elastic membership: live join with incremental handoff ------------------------
    # (docs/ELASTICITY.md)

    def _homes_under(self, pending: Partition, sources) \
            -> Iterator[tuple[LocalDHT, np.ndarray]]:
        """Each listed source shard holding rows, with its rows' homes
        under ``pending`` — what the pre-copy and cutover phase 1 walk."""
        for src in sources:
            shard = self.shards[src]
            hashes, _lo, _wide = shard.items_arrays()
            if len(hashes):
                yield shard, pending.home_nodes(hashes)

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
        eng = self.engine
        node = eng.cluster.add_node()
        shard = LocalDHT(node_id=node, storage=eng.storage.add_shard())
        if shard.recovered:
            # A joining node is *new*; whatever a prior (larger) run left
            # in its storage slot is garbage for this membership, its
            # epoch included: a joining shard starts at 0.
            shard.clear()
            shard.epoch = 0
        self.shards.append(shard)
        eng.cluster.nodes[node].dht = shard
        self._intact = np.append(self._intact, True)
        pending = self.partition.grown()
        precopied = 0
        for src, homes in self._homes_under(
                pending, self.partition.alive_nodes().tolist()):
            sel = homes == node
            if sel.any():
                shard.bulk_insert(*stream_where(src, sel))
                precopied += int(sel.sum())
        self._pending_join = (node, pending, precopied)
        self._c_precopied.inc(precopied)
        # The machine just grew: query *values* are unchanged (the old
        # ring still routes) but modeled collective latency covers one
        # more node, so cached answers are stale as QueryResults.  Bump
        # now as well as at cutover to keep verify-mode byte-identical.
        self._changed("ring.join_begin", node=node, precopied=precopied)
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
        with self.engine.obs.tracer.span("ring.handoff", node=node):
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
            pending.set_alive(i, self.partition.is_alive(i))
        old_n = self.partition.n_nodes
        entries_total = sum(self.shards[i].n_hashes for i in range(old_n))
        # Phase 1 (read-only): per source shard, where does each row live
        # under the grown ring?  Collect keep-masks and per-destination
        # pair multisets before mutating anything, so masks stay aligned.
        moved = 0
        keep: dict[int, np.ndarray] = {}
        arriving: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        sources = [*self.partition.alive_nodes().tolist(), node]
        for src, homes in self._homes_under(pending, sources):
            moving = homes != src.node_id
            if not moving.any():
                continue
            keep[src.node_id] = ~moving
            if src.node_id != node:
                moved += int(moving.sum())
            for dst in np.unique(homes[moving]).tolist():
                rh, re = stream_where(src, homes == dst)
                hs, es = arriving.setdefault(int(dst), ([], []))
                hs.append(rh)
                es.append(re)
        # Phase 2: evict movers from their sources (masks pre-computed).
        for src_id, mask in keep.items():
            self.shards[src_id].retain(mask)
        # Phase 3: the joining node converges its pre-copied content onto
        # the current truth — the incremental part of the handoff.
        delta_ins, delta_rem, *_ = self.engine.repairer.converge(
            [node], arriving)
        # Phase 4: wholesale moves between pre-existing nodes.
        for dst in sorted(arriving.keys() - {node}):
            hs, es = arriving[dst]
            self.shards[dst].bulk_insert(np.concatenate(hs),
                                         np.concatenate(es))
        # Phase 5: swap the routed map and invalidate every cached answer.
        # Intactness is conservative: holes under the old map land in
        # unknown places under the new one, so any hole voids everything
        # (the next repair converges it back).
        self._intact[:] = bool(self._intact[:old_n].all())
        self.partition = pending
        self._changed("ring.join_cutover", node=node, entries_moved=moved,
                      delta_inserts=delta_ins, delta_removes=delta_rem)
        return JoinReport(node=node, policy=pending.policy,
                          entries_total=entries_total, entries_moved=moved,
                          precopied=precopied,
                          delta_inserts=delta_ins, delta_removes=delta_rem)
