"""Sharing-aware entity placement (Memory Buddies over ConCORD).

Memory Buddies (VEE'09) "uses memory fingerprints to discover VMs with
high sharing potential and then co-locates them on the same node" — a
service the paper lists among those a content-tracking platform should
enable.  Here it takes ~100 lines on top of ConCORD's data:

1. build a weighted *sharing graph*: vertices are entities, edge weights
   the number of distinct content hashes two entities share (computed
   from the DHT's bitmaps, no memory access needed);
2. greedily pack entities onto nodes, each step choosing the placement
   that gains the most intra-node sharing, subject to per-node capacity.

The score of a placement is the number of (distinct-hash, node) pairs
saved by intra-node dedup — exactly what page-sharing mechanisms like
KSM would reclaim after co-location.
"""

from __future__ import annotations

from collections import defaultdict

import networkx as nx

from repro.core.concord import ConCORD
from repro.exec import ops as _ops

__all__ = ["sharing_graph", "suggest_colocation", "placement_sharing_score"]


def _pairwise_shared(concord: ConCORD,
                     entity_ids: list[int]) -> dict[tuple[int, int], int]:
    """Distinct hashes shared by each entity pair (one pass over shards)."""
    mask = 0
    for eid in entity_ids:
        mask |= 1 << eid
    shared: dict[tuple[int, int], int] = defaultdict(int)
    # MapReduce over shards: each shard counts its own
    # pair co-occurrences; the partial dicts sum centrally in shard order.
    for part in concord.map_shards(_ops.pairwise_shared, (mask,)):
        for pair, w in part.items():
            shared[pair] += w
    return dict(shared)


def sharing_graph(concord: ConCORD, entity_ids: list[int]) -> nx.Graph:
    """Weighted graph of pairwise content sharing between entities."""
    g = nx.Graph()
    g.add_nodes_from(entity_ids)
    for (a, b), w in _pairwise_shared(concord, entity_ids).items():
        g.add_edge(a, b, weight=w)
    return g


def suggest_colocation(graph: nx.Graph, n_nodes: int,
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
    entities = list(graph.nodes)
    if len(entities) > n_nodes * capacity:
        raise ValueError(
            f"{len(entities)} entities exceed capacity {n_nodes}x{capacity}")
    unplaced = set(entities)
    placement: dict[int, int] = {}
    groups: dict[int, list[int]] = {n: [] for n in range(n_nodes)}

    def weight_into(eid: int, group: list[int]) -> int:
        return sum(graph[eid][g]["weight"] for g in group
                   if graph.has_edge(eid, g))

    for node in range(n_nodes):
        if not unplaced:
            break
        # Seed with the heaviest remaining edge (or any entity).
        seed_pair = max(
            ((a, b, d["weight"]) for a, b, d in graph.edges(data=True)
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


def placement_sharing_score(graph: nx.Graph,
                            placement: dict[int, int]) -> int:
    """Total shared weight realised *within* nodes under a placement."""
    score = 0
    for a, b, d in graph.edges(data=True):
        if placement.get(a) is not None and placement.get(a) == placement.get(b):
            score += d["weight"]
    return score
