"""Batching/coalescing of node-wise queries onto the bulk DHT APIs.

The frontend drains a QoS queue as one batch.  Identical requests are
deduplicated (one execution fans out to every waiter), and the distinct
node-wise lookups are pushed through the columnar ``bulk_num_copies`` /
``bulk_masks`` shard APIs — one grouped scan per home shard instead of a
Python-level lookup per request (the PR 1 bulk paths, now on the serving
hot path).

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

import numpy as np

from repro.dht.engine import ContentTracingEngine
from repro.dht.table import mask_bits
from repro.queries.interface import QueryResult, nodewise_result
from repro.serve.request import NODEWISE_OPS
from repro.sim.costmodel import CostModel

__all__ = ["bulk_answers"]


def bulk_answers(engine: ContentTracingEngine, cost: CostModel, op: str,
                 pairs: list[tuple[int, int]]) -> list[QueryResult]:
    """Answer ``(content_hash, issuing_node)`` node-wise requests in bulk.

    One ``bulk_num_copies``/``bulk_masks`` call per home shard over the
    *distinct* hashes; every pair gets its own :class:`QueryResult` equal
    to the individual query's.  ``op`` is ``"num_copies"`` or
    ``"entities"``.
    """
    if op not in NODEWISE_OPS:
        raise ValueError(f"op {op!r} is not a batchable node-wise query")
    if not pairs:
        return []
    uniq = sorted({int(h) for h, _n in pairs})
    # Resolve homes first: home_node performs the same lazy failure
    # detection (and failover) the individual lookups would.
    homes = {h: engine.home_node(h) for h in uniq}
    q = np.fromiter(uniq, dtype=np.uint64, count=len(uniq))
    by_home: dict[int, list[int]] = {}
    for i, h in enumerate(uniq):
        by_home.setdefault(homes[h], []).append(i)

    values: dict[int, object] = {}
    if op == "num_copies":
        for home, idxs in by_home.items():
            sub = q[np.asarray(idxs, dtype=np.int64)]
            counts = engine.shards[home].bulk_num_copies(sub)
            for h, c in zip(sub.tolist(), counts.tolist()):
                values[h] = int(c)
    else:
        for home, idxs in by_home.items():
            sub = q[np.asarray(idxs, dtype=np.int64)]
            masks_lo, wide = engine.shards[home].bulk_masks(sub)
            for row, h in enumerate(sub.tolist()):
                values[h] = set(mask_bits(wide.get(h, int(masks_lo[row]))))

    coverage = engine.coverage
    intact = {h: bool(f) for h, f in zip(uniq, engine.hashes_intact(q))}
    out: list[QueryResult] = []
    for h, issuing in pairs:
        h = int(h)
        out.append(nodewise_result(cost, op, values[h], issuing, homes[h],
                                   coverage, not intact[h]))
    return out
