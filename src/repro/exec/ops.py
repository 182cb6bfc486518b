"""Per-shard kernels: the map steps of the executor's map-reduce jobs.

Every function here is a *pure* map over one shard: it takes a
:class:`~repro.dht.table.LocalDHT` (or a frozen
:class:`~repro.dht.generation.Generation`, such as the collective
queries' union of the live shards) plus plain-data arguments and
returns a plain result.  No function mutates shard state or touches the
sim clock — :class:`~repro.exec.pool.ShardPool` maps them over shards in
order and the caller folds the results.

This module is an import leaf (NumPy, stdlib, and the mask decode of
:mod:`repro.dht.table`) so every layer above can import it without
cycles.  :class:`SharingBreakdown` lives here for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.dht.table import mask_bits

__all__ = [
    "SharingBreakdown", "se_scan", "bulk_masks", "bulk_num_copies",
    "hash_samples", "shard_in_s_copies", "shard_breakdown",
    "count_at_least", "hashes_at_least", "repair_route",
    "copy_histogram", "copy_counts", "pairwise_shared",
]

_U64 = np.uint64
_M64 = (1 << 64) - 1
_ONE = _U64(1)


@dataclass
class SharingBreakdown:
    """The sums behind the sharing queries, over one shard or the union
    of the live ones."""

    total_copies: int = 0
    distinct: int = 0
    intra_dup: int = 0
    inter_dup: int = 0


# -- thin pass-throughs (named so the executor can map them) ------------------------


def se_scan(table, se_mask: int):
    """One shard's ``se_scan`` as a map function."""
    return table.se_scan(se_mask)


def bulk_masks(table, hashes):
    return table.bulk_masks(hashes)


def bulk_num_copies(table, hashes):
    return table.bulk_num_copies(hashes)


# -- collective-query kernels -------------------------------------------------------


def shard_in_s_copies(table, s_mask: int) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, int]]:
    """Columnar scan of one shard against an entity-set mask.

    Returns ``(hashes, in_s_lo, copies, wide)``: the believed hashes
    intersecting S, their low-64 in-S holder bits, the exact per-hash
    copy count inside S (extras and wide holders folded in), and the
    full-mask dict for wide rows.

    Extra copies come from the shard's columnar overflow view
    (:meth:`~repro.dht.table.LocalDHT.extra_arrays`): one vector
    ``searchsorted`` of its hashes into the scanned rows, a vector test
    that the entry's entity holds the row inside S, one scatter-add —
    the cost does not grow a Python step per overflow entry.  Only
    entries of entities >= 64 are visited one by one, since their
    holder bit lives in the ``wide`` full mask.
    """
    hashes, lo, wide = table.se_scan(s_mask)
    n = len(hashes)
    if n == 0:
        return hashes, lo, np.empty(0, dtype=np.int64), wide
    in_s_lo = lo & _U64(s_mask & _M64)
    copies = np.bitwise_count(in_s_lo).astype(np.int64)
    if wide:
        for h, full in wide.items():
            i = int(np.searchsorted(hashes, _U64(h)))
            copies[i] = (full & s_mask).bit_count()
    xh, xe, xc = table.extra_arrays()
    if len(xh):
        row = np.minimum(np.searchsorted(hashes, xh), n - 1)
        scanned = hashes[row] == xh
        narrow = xe < 64
        bit = (xe & 63).astype(_U64)    # in range; wide rows are masked out
        held = scanned & narrow & (((in_s_lo[row] >> bit) & _ONE) != 0)
        np.add.at(copies, row[held], xc[held])
        for j in np.flatnonzero(scanned & ~narrow).tolist():
            if wide.get(int(xh[j]), 0) & s_mask & (1 << int(xe[j])):
                copies[row[j]] += xc[j]
    return hashes, in_s_lo, copies, wide


def shard_breakdown(table, s_mask: int,
                    node_masks: dict[int, int]) -> SharingBreakdown:
    """One shard's partial :class:`SharingBreakdown` for an entity set."""
    out = SharingBreakdown()
    hashes, in_s_lo, copies, wide = shard_in_s_copies(table, s_mask)
    n = len(hashes)
    if n == 0:
        return out
    # Each copy inside S belongs to exactly one node, so per hash
    # intra = copies - nodes_holding and inter = nodes_holding - 1 —
    # the same split the per-node loop used to compute entry by entry.
    nodes_holding = np.zeros(n, dtype=np.int64)
    for _node, nmask in node_masks.items():
        nodes_holding += (in_s_lo & _U64(nmask & _M64)) != 0
    if wide:
        for h, full in wide.items():
            i = int(np.searchsorted(hashes, _U64(h)))
            in_s = full & s_mask
            nodes_holding[i] = sum(1 for _node, nmask in node_masks.items()
                                   if in_s & nmask)
    out.total_copies = int(copies.sum())
    out.distinct = n
    out.intra_dup = int(copies.sum()) - int(nodes_holding.sum())
    out.inter_dup = int(nodes_holding.sum()) - n
    return out


def count_at_least(table, s_mask: int, k: int) -> int:
    """How many of this shard's hashes have >= k copies inside S."""
    _hs, _lo, copies, _w = shard_in_s_copies(table, s_mask)
    return int((copies >= k).sum())


def hashes_at_least(table, s_mask: int, k: int) -> np.ndarray:
    """This shard's hashes with >= k copies inside S (sorted)."""
    hs, _lo, copies, _w = shard_in_s_copies(table, s_mask)
    return hs[copies >= k] if len(hs) else hs


# -- executor kernels ---------------------------------------------------------------


def hash_samples(table, eids: list[int], sample_cap: int) \
        -> dict[int, np.ndarray]:
    """Per-entity hash samples from one shard (executor advisory phase).

    Returns {entity -> first ``sample_cap`` believed hashes} for the
    entities that have any; entities with none are omitted, exactly as
    the executor's inline loop did.
    """
    node_mask = 0
    for eid in eids:
        node_mask |= 1 << eid
    out: dict[int, np.ndarray] = {}
    hashes, lo, wide = table.se_scan(node_mask)
    if not len(hashes):
        return out
    for eid in eids:
        if eid < 64:
            # se_scan keeps low-64 bits in the mask column even for
            # wide rows, so one bit-test covers every row.
            hs = hashes[((lo >> _U64(eid)) & _ONE) != 0]
        else:
            bit = 1 << eid
            hs = np.asarray(sorted(hh for hh, m in wide.items()
                                   if m & bit), dtype=np.uint64)
        if len(hs):
            out[eid] = hs[:sample_cap]
    return out


# -- anti-entropy repair routing ----------------------------------------------------


def repair_route(hashes: np.ndarray, partition,
                 targets: np.ndarray) -> dict[int, np.ndarray] | None:
    """Route one entity's ground-truth hashes to repair destinations.

    Selects the hashes whose primary range is under repair and groups
    them by current home shard.  Pure: the coordinator replays the
    returned {home -> hashes} groups with ``bulk_insert``, in the same
    (ascending home) order the serial loop used, so parallel repair is
    byte-identical to serial.
    """
    sel = np.isin(partition.primary_nodes(hashes), targets)
    if not sel.any():
        return None
    hs = hashes[sel]
    return {dst: hs[idxs]
            for dst, idxs in partition.group_by_home(hs).items()}


# -- analysis kernels (src/repro/analysis) -----------------------------------------


def copy_histogram(table, s_mask: int) -> dict[int, int]:
    """{copy count -> #hashes} for this shard's hashes inside S."""
    _hs, _lo, copies, _w = shard_in_s_copies(table, s_mask)
    if not len(copies):
        return {}
    vals, counts = np.unique(copies, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals.tolist(), counts.tolist())}


def copy_counts(table, s_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, per-hash copy counts inside S) for ranking shared content."""
    hs, _lo, copies, _w = shard_in_s_copies(table, s_mask)
    return hs, copies


def pairwise_shared(table, s_mask: int) -> dict[tuple[int, int], int]:
    """{(eid_a, eid_b) -> #blocks both hold} within one shard's view."""
    hashes, lo, wide = table.se_scan(s_mask)
    shared: dict[tuple[int, int], int] = {}
    if not len(hashes):
        return shared
    lo_in = (lo & _U64(s_mask & _M64)).tolist()
    for i, h in enumerate(hashes.tolist()):
        in_s = (wide[h] & s_mask) if h in wide else lo_in[i]
        if in_s.bit_count() < 2:
            continue
        for a, b in combinations(mask_bits(in_s), 2):
            shared[(a, b)] = shared.get((a, b), 0) + 1
    return shared
