"""Anti-entropy repair: "the DHT can always be rebuilt from the
node-local content" (paper §3.4) made operational (docs/FAULTS.md,
docs/RECONCILIATION.md).  Repair, warm restart and the join cutover all
end in :meth:`Repair.converge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.dht.generation import _in_sorted
from repro.dht.partition import Partition
from repro.dht.table import LocalDHT, mask_bits
from repro.exec import ops as _ops
from repro.recon import (DigestCache, PairSetDigest, ReconSession,
                         canonical_pairs, pair_multiset_diff)
from repro.sim.network import DeliveryError
from repro.util.records import ENTITY_ID_BYTES, HASH_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.dht.engine import ContentTracingEngine

__all__ = ["MODES", "Repair", "RepairReport"]

#: How a repair finds and reports the difference (:meth:`Repair.run`).
MODES = ("replay", "delta", "recon")


@dataclass(frozen=True)
class RepairReport:
    """What one anti-entropy repair pass rebuilt, and what it cost.

    ``hashes_restored`` counts distinct hashes the inserts brought back
    that no shard row held once the removes were applied — never
    negative, the same meaning in every mode.  ``copies_removed`` is
    only nonzero for delta/recon repairs (stale believed copies
    reconciled away).  A replay applies the same difference as delta
    but reports the rebuild from empty that it models: every truth copy
    restored, none removed, every distinct truth hash restored.
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


_U64 = np.uint64
_ONE = np.uint64(1)


def pairs_where(shard: LocalDHT, sel: np.ndarray | None = None) \
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
    for eid in mask_bits(int(np.bitwise_or.reduce(ms))):   # holders only
        rows = hs[((ms >> _U64(eid)) & _ONE) != 0]
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


def stream_where(shard: LocalDHT, sel: np.ndarray | None = None) \
        -> tuple[np.ndarray, np.ndarray]:
    """The selected rows of :func:`pairs_where`, expanded to a stream."""
    return _expand(*pairs_where(shard, sel))


def _concat(parts, dtype) -> np.ndarray:
    return np.concatenate(parts) if len(parts) else np.empty(0, dtype=dtype)


def purge_ranges(shard: LocalDHT, partition: Partition,
                 ranges: set[int]) -> int:
    """Evict all hashes of the given primary ranges from one shard."""
    hashes, _masks, _wide = shard.items_arrays()
    if not len(hashes) or not ranges:
        return 0
    prim = partition.primary_nodes(hashes)
    keep = ~np.isin(prim, np.fromiter(ranges, dtype=np.int64,
                                      count=len(ranges)))
    return shard.retain(keep)


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


class Repair:
    """The engine's anti-entropy pass and its converge step."""

    def __init__(self, engine: ContentTracingEngine) -> None:
        self.engine = engine
        reg = engine.obs.registry
        self._c_repairs = reg.counter("dht.repairs")
        # Repair traffic (docs/RECONCILIATION.md): bytes on the wire and
        # protocol rounds of the last repair passes, all modes.
        self._c_bytes = reg.counter("dht.repair.bytes_wire")
        self._c_rounds = reg.counter("dht.repair.rounds")
        # Per-shard digest memo for mode="recon", keyed by shard epoch.
        self._digests = DigestCache()

    def run(self, full: bool = False, mode: str = "replay") -> RepairReport:
        """Converge non-intact ranges onto the monitors' ground truth.

        Each alive node re-routes its NSM's last-scanned view — restricted
        to the ranges under repair — to the ranges' current homes, and
        every home shard converges onto what was routed to it
        (:meth:`converge`).  ``full=True`` covers every range (a complete
        anti-entropy pass), which also heals holes left by lost update
        datagrams, not just failover damage.

        Every mode applies only the difference between the believed rows
        and the truth, so *local* cost scales with divergence rather
        than content size; ``mode`` picks how it is found and reported
        (:data:`MODES`).  ``"replay"`` (the default) reports the
        modelled cost of a purge-and-replay of the target ranges (every
        truth copy re-inserted, none removed; see :class:`RepairReport`).
        ``"delta"`` reports the difference itself — what makes a warm
        restart cheap (docs/STORAGE.md).  ``"recon"`` discovers the
        difference through the digest-tree set-reconciliation protocol
        (:class:`~repro.recon.session.ReconSession`) over every range,
        so *wire* cost scales with divergence too
        (docs/RECONCILIATION.md).  Because the packed representation is
        canonical after compaction, all three land on byte-identical
        shards.

        A pass that found every target range intact and applied no
        change leaves the epochs alone, so cached answers survive it;
        it is still counted in ``dht.repairs`` and the repair traffic.

        Entities hosted on dead nodes contribute nothing (their memory is
        gone), so their entries do not reappear in repaired ranges.
        """
        if mode not in MODES:
            raise ValueError(f"unknown repair mode {mode!r}; "
                             f"expected one of {', '.join(MODES)}")
        eng = self.engine
        membership = eng.membership
        membership.refresh_failed()
        partition = membership.partition
        # Targets are primary ranges of the routed ring; the NSM scan
        # below walks every cluster node (a mid-join node hosts no
        # entities yet, so the distinction is only about ranges).  A
        # recon pass always covers every range: pruning intact subtrees
        # is the protocol's own job and costs one digest round.
        n = partition.n_nodes
        targets = (np.arange(n, dtype=np.int64) if full or mode == "recon"
                   else np.flatnonzero(
                       ~membership._intact[:n]).astype(np.int64))
        if not len(targets):
            return RepairReport(0, 0, 0, 0)
        alive = partition.alive_nodes().tolist()
        nodes_scanned = 0
        cluster = eng.cluster
        # Routing (select hashes in repaired ranges, group by current
        # home) is pure and runs through the pool — one task per
        # (node, entity), in collection order; the converge step then
        # applies the groups in (hash, entity) order.
        tasks: list[tuple[np.ndarray, Partition, np.ndarray]] = []
        task_eids: list[int] = []
        for node in range(cluster.n_nodes):
            if not cluster.network.node_up[node]:
                continue
            nsm = cluster.nodes[node].nsm
            if nsm is None:
                continue
            nodes_scanned += 1
            for entity in nsm.entities():
                hashes = nsm.scanned_hashes_of(entity.entity_id)
                if hashes is None or not len(hashes):
                    continue
                tasks.append((hashes, partition, targets))
                task_eids.append(entity.entity_id)
        routed = eng.pool.run_tasks(_ops.repair_route, tasks)
        truth: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        for eid, groups in zip(task_eids, routed):
            for dst, hs in (groups or {}).items():
                want_h, want_e = truth.setdefault(dst, ([], []))
                want_h.append(hs)
                want_e.append(np.full(len(hs), eid, dtype=np.int64))
        holed = not membership._intact[targets].all()
        copies, removed, restored, bytes_wire, rounds, node_ops, applied = \
            self.converge(alive, truth,
                          targets=None if len(targets) == n else targets,
                          mode=mode)
        self._c_bytes.inc(bytes_wire)
        self._c_rounds.inc(rounds)
        self._c_repairs.inc()
        if holed or applied:
            membership.repaired(
                targets, ranges=len(targets), copies_restored=copies,
                copies_removed=removed, nodes_scanned=nodes_scanned,
                bytes_wire=bytes_wire, mode=mode)
        return RepairReport(ranges_repaired=len(targets),
                            hashes_restored=restored,
                            copies_restored=copies,
                            nodes_scanned=nodes_scanned,
                            copies_removed=removed,
                            bytes_wire=bytes_wire, rounds=rounds,
                            node_ops=tuple(node_ops))

    def converge(self, shards: list[int],
                 truth: dict[int, tuple[list[np.ndarray],
                                        list[np.ndarray]]],
                 targets: np.ndarray | None = None, mode: str = "delta") \
            -> tuple[int, int, int, int, int, list[tuple[int, int, int]],
                     bool]:
        """Converge each listed shard's believed rows onto the truth
        routed to it — the one place a diff is discovered and applied;
        repair, warm restart and join catch-up all end here.

        ``truth[dst]`` holds the (hash, entity) replay stream destined to
        shard ``dst`` as lists of parallel array parts (absent = the
        shard should hold nothing); believed rows are restricted to the
        primary ranges in ``targets`` (None = every row).  The
        difference is discovered locally by the pair-multiset diff, or —
        ``mode="recon"``, all rows only — by one
        :class:`~repro.recon.session.ReconSession` per shard against a
        coordinator (``shards[0]``) holding the aggregated truth digest
        (counts sum and 64-bit mixed digests combine across contributing
        nodes without shipping rows), so what crosses the wire is digest
        rounds plus the mismatched leaf rows.  Either way it is applied
        removes-then-inserts in (hash, entity) order.

        Returns ``(copies inserted, copies removed, hashes restored,
        wire bytes, protocol rounds, per-node op list, whether any shard
        changed)``; a locally discovered diff is charged as one round of
        :class:`UpdateBatch` framing over every applied record;
        ``mode="replay"`` applies the same diff but reports a rebuild
        from empty (:class:`RepairReport`).
        """
        eng = self.engine
        recon = mode == "recon"
        emit = eng.send_recon if recon and eng.use_network else None
        applied = False
        inserted = removed = restored = bytes_wire = rounds = 0
        node_ops: list[tuple[int, int, int]] = []
        for dst in shards:
            shard = eng.shards[dst]
            sel = None
            if targets is not None:
                hashes = shard.items_arrays()[0]
                if len(hashes):
                    sel = np.isin(
                        eng.membership.partition.primary_nodes(hashes),
                        targets)
            want_h, want_e = truth.get(dst, ((), ()))
            wh, we = _concat(want_h, _U64), _concat(want_e, np.int64)
            if recon:
                believed = self._digests.get(
                    dst, shard.epoch,
                    lambda: PairSetDigest(
                        *canonical_pairs(*pairs_where(shard, sel))))
                report = ReconSession(
                    believed, PairSetDigest(*canonical_pairs(wh, we)),
                    src_node=dst, dst_node=shards[0], emit=emit).run()
                ins, rem = report.ins, report.rem
                bytes_wire += report.bytes_wire
                rounds = max(rounds, report.rounds)
            else:
                ins, rem = pair_multiset_diff(*pairs_where(shard, sel),
                                              wh, we)
            if len(rem[0]):
                shard.bulk_remove(*_expand(*rem))
            after_removes = shard.n_hashes
            if len(ins[0]):
                shard.bulk_insert(*_expand(*ins))
            d_ins, d_rem = int(ins[2].sum()), int(rem[2].sum())
            d_new = shard.n_hashes - after_removes
            applied = applied or bool(d_ins or d_rem)
            if mode == "replay":  # distinct truth hashes: a sort beats np.unique's hash path
                s = np.sort(wh)
                d_ins, d_rem, d_new = len(s), 0, len(s) - int(np.count_nonzero(s[1:] == s[:-1]))
            restored += d_new
            inserted += d_ins
            removed += d_rem
            if d_ins or d_rem:
                node_ops.append((dst, d_ins, d_rem))
        if emit is not None:
            try:
                eng.cluster.engine.run()
            except DeliveryError:
                # The timeout is the failure signal; count it.
                eng.delivery_error("recon")
        if not recon:
            bytes_wire = _modeled_replay_bytes(
                inserted + removed, eng.n_represented, eng.batch_size)
            rounds = 1 if inserted + removed else 0
        return (inserted, removed, restored, bytes_wire, rounds, node_ops,
                applied)
