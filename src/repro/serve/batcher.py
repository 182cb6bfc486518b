"""Batching/coalescing of node-wise queries onto the bulk DHT APIs.

The frontend drains a QoS queue as one batch.  Identical requests are
deduplicated (one execution fans out to every waiter), and the distinct
node-wise lookups are pushed through the columnar ``bulk_num_copies`` /
``bulk_masks`` shard APIs — one grouped probe per home shard, scalar or
vector as the group's width decides (``repro.dht.table._VECTOR_MIN``), so
a lone miss costs what the individual query's lookup costs and a wide
batch costs one vector scan per shard.

Routing: each pair may carry its hash's home, which the frontend's cache
lookup already routed (its miss token is ``(home, epoch)``).  Only a pair
without one — an *unhanded* hash — is routed here, once per distinct hash,
so a miss whose home was handed down costs one route in all.

Answer fidelity: the bulk value arrays are observationally equivalent to
per-item lookups (pinned by the PR 1 property suite), and the per-request
latency/compute fields come from the same
:func:`~repro.queries.interface.nodewise_result` the individual queries
use — so a batched answer is byte-identical to the answer an individual
``QueryInterface`` call would have produced at the same instant (pinned by
``tests/serve/test_batcher.py``).  That is what lets batch-filled results
go straight into the epoch cache.
"""

from __future__ import annotations

from repro.dht.engine import ContentTracingEngine
from repro.dht.table import mask_bits
from repro.queries.interface import QueryResult, nodewise_result
from repro.serve.request import NODEWISE_OPS
from repro.sim.costmodel import CostModel

__all__ = ["bulk_answers"]


def bulk_answers(engine: ContentTracingEngine, cost: CostModel, op: str,
                 pairs: list[tuple[int, int, int | None]],
                 ) -> list[QueryResult]:
    """Answer ``(content_hash, issuing_node, home)`` node-wise requests in
    bulk.

    ``home`` is the hash's current home — what ``engine.home_node`` would
    return now — or ``None``.  A caller hands a home down only while it
    knows it is current (the frontend: its lookup routed the hash and
    ``membership.global_epoch`` has not moved since), and passes ``None``
    for every pair otherwise.  One route per distinct *unhanded* hash and
    one ``bulk_num_copies``/``bulk_masks`` call per home shard; every pair
    gets its own :class:`QueryResult` equal to the individual query's.
    ``op`` is ``"num_copies"`` or ``"entities"``.
    """
    if op not in NODEWISE_OPS:
        raise ValueError(f"op {op!r} is not a batchable node-wise query")
    if not pairs:
        return []
    # Resolve the unhanded homes first: home_node performs the same lazy
    # failure detection (and failover) the individual lookups would.  A
    # resolved home is up, and detection only ever takes nodes down, so no
    # home resolved here goes stale before the probes below.
    home_node = engine.home_node
    homes: dict[int, int] = {}
    by_home: dict[int, list[int]] = {}
    for h, _n, home in pairs:
        if h not in homes:
            if home is None:
                home = home_node(h)
            homes[h] = home
            group = by_home.get(home)
            if group is None:
                by_home[home] = [h]
            else:
                group.append(h)

    # Each home's distinct hashes go to its shard as they are; the shard
    # picks the scalar or the vector probe by the group's width.
    shards = engine.shards
    values: dict[int, object] = {}
    if op == "num_copies":
        for home, group in by_home.items():
            counts = shards[home].bulk_num_copies(group)
            values.update(zip(group, counts.tolist()))
    else:
        for home, group in by_home.items():
            masks_lo, wide = shards[home].bulk_masks(group)
            for h, lo in zip(group, masks_lo.tolist()):
                values[h] = set(mask_bits(wide.get(h, lo)))

    membership = engine.membership
    coverage = membership.coverage
    # Which hashes sit in a holed range: none, without hashing anything,
    # while every range is intact (``engine.is_degraded``'s definition).
    holed = () if membership.all_intact else {
        h for h, ok in zip(homes, engine.hashes_intact(list(homes)).tolist())
        if not ok}
    return [nodewise_result(cost, op, values[h], issuing, homes[h], coverage,
                            h in holed)
            for h, issuing, _home in pairs]
