"""Sharing-aware entity placement (Memory Buddies over ConCORD).

Memory Buddies (VEE'09) "uses memory fingerprints to discover VMs with
high sharing potential and then co-locates them on the same node" — a
service the paper lists among those a content-tracking platform should
enable.  Here it takes ~100 lines on top of ConCORD's data:

1. build a weighted *sharing graph*: vertices are entities, edge weights
   the number of distinct content hashes two entities share (computed
   from the DHT's bitmaps, no memory access needed), held as a plain
   symmetric adjacency dict ``{entity: {neighbour: shared_hashes}}``;
2. greedily pack entities onto nodes, each step choosing the placement
   that gains the most intra-node sharing, subject to per-node capacity.

The score of a placement is the number of (distinct-hash, node) pairs
saved by intra-node dedup — exactly what page-sharing mechanisms like
KSM would reclaim after co-location.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.concord import ConCORD
from repro.exec import ops as _ops

__all__ = ["sharing_graph", "suggest_colocation", "placement_sharing_score"]

SharingGraph = dict[int, dict[int, int]]


def sharing_graph(concord: ConCORD, entity_ids: list[int]) -> SharingGraph:
    """Pairwise content sharing, ``{entity: {neighbour: shared_hashes}}``:
    symmetric, every requested entity a key (an isolated one maps to
    ``{}``); an id that is not a known entity raises ValueError."""
    mask, _ = concord.queries._entity_masks(entity_ids)
    g: SharingGraph = {eid: {} for eid in entity_ids}
    # MapReduce over shards: each shard counts its own
    # pair co-occurrences; the partial dicts sum centrally in shard order.
    for part in concord.map_shards(_ops.pairwise_shared, (mask,)):
        for (a, b), w in part.items():
            g[a][b] = g[b][a] = g[a].get(b, 0) + w
    return g


def _edges(graph: SharingGraph) -> Iterator[tuple[int, int, int]]:
    """Each undirected edge once as ``(a, b, weight)``: entities in key
    order, each one's neighbours in insertion order, skipping those
    already walked — so ``max`` over it breaks ties as a networkx
    ``Graph.edges()`` walk of the same insertions would."""
    seen: set[int] = set()
    for a, nbrs in graph.items():
        for b, w in nbrs.items():
            if b not in seen:
                yield a, b, w
        seen.add(a)


def suggest_colocation(graph: SharingGraph, n_nodes: int,
                       capacity: int) -> dict[int, int]:
    """Greedy sharing-maximizing placement: entity -> node.

    Seeds each node with the heaviest remaining edge, then grows the
    node's group by the entity with the largest total shared weight into
    it, until capacity; isolated entities fill remaining slots round
    robin.  Greedy is the point — Memory Buddies itself is a heuristic.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    entities = list(graph)
    if len(entities) > n_nodes * capacity:
        raise ValueError(
            f"{len(entities)} entities exceed capacity {n_nodes}x{capacity}")
    unplaced = set(entities)
    placement: dict[int, int] = {}
    groups: dict[int, list[int]] = {n: [] for n in range(n_nodes)}

    def weight_into(eid: int, group: list[int]) -> int:
        return sum(graph[eid].get(g, 0) for g in group)

    for node in range(n_nodes):
        if not unplaced:
            break
        # Seed with the heaviest remaining edge (or any entity).
        seed_pair = max(
            ((a, b, w) for a, b, w in _edges(graph)
             if a in unplaced and b in unplaced),
            key=lambda abw: abw[2], default=None)
        if seed_pair is not None and capacity >= 2:
            a, b, _w = seed_pair
            groups[node] = [a, b]
            unplaced -= {a, b}
        else:
            eid = min(unplaced)
            groups[node] = [eid]
            unplaced.discard(eid)
        while len(groups[node]) < capacity and unplaced:
            best = max(unplaced,
                       key=lambda e: (weight_into(e, groups[node]), -e))
            if weight_into(best, groups[node]) == 0:
                break  # nothing gains here; let later nodes seed fresh
            groups[node].append(best)
            unplaced.discard(best)

    # Round-robin the remainder into free slots.
    node = 0
    for eid in sorted(unplaced):
        while len(groups[node]) >= capacity:
            node = (node + 1) % len(groups)
        groups[node].append(eid)
        node = (node + 1) % len(groups)

    for node, members in groups.items():
        for eid in members:
            placement[eid] = node
    return placement


def placement_sharing_score(graph: SharingGraph,
                            placement: dict[int, int]) -> int:
    """Total shared weight realised *within* nodes under a placement."""
    return sum(w for a, b, w in _edges(graph)
               if placement.get(a) is not None
               and placement.get(a) == placement.get(b))
