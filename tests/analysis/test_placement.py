"""Unit tests for sharing-aware placement (Memory Buddies over ConCORD)."""

import re

import numpy as np
import pytest

from repro import Cluster, ConCORD, Entity
from repro.analysis import (
    placement_sharing_score,
    sharing_graph,
    suggest_colocation,
)


def build_vm_families(n_families=2, vms_per_family=2, shared=32, private=16,
                      seed=0):
    """Families of VMs: same-family VMs share an OS image; cross-family
    VMs share nothing.  Spread so families start split across nodes."""
    cluster = Cluster(4, seed=seed)
    rng = np.random.default_rng(seed)
    vms = []
    for fam in range(n_families):
        base = np.arange(shared, dtype=np.uint64) + 10_000 * (fam + 1)
        for i in range(vms_per_family):
            priv = rng.integers((fam * 8 + i + 1) << 40,
                                (fam * 8 + i + 2) << 40,
                                private, dtype=np.uint64)
            node = (fam + i * n_families) % cluster.n_nodes
            vms.append(Entity.create(cluster, node,
                                     np.concatenate([base, priv]),
                                     name=f"fam{fam}-vm{i}"))
    concord = ConCORD(cluster)
    concord.initial_scan()
    return cluster, vms, concord


def random_sharing_graph(n_entities, seed):
    """Entities 0..n-1, each pair an edge with probability 0.4 and weight
    in [1, 100), edges inserted in (a, b) order."""
    rng = np.random.default_rng(seed)
    g = {a: {} for a in range(n_entities)}
    for a in range(n_entities):
        for b in range(a + 1, n_entities):
            if rng.random() < 0.4:
                g[a][b] = g[b][a] = int(rng.integers(1, 100))
    return g


def graph_of(n_entities, edges):
    """The sharing graph holding ``edges`` (a, b, weight), inserted in
    list order."""
    g = {a: {} for a in range(n_entities)}
    for a, b, w in edges:
        g[a][b] = g[b][a] = w
    return g


class TestSharingGraph:
    def test_family_edges_only(self):
        _c, vms, concord = build_vm_families()
        g = sharing_graph(concord, [v.entity_id for v in vms])
        assert list(g) == [v.entity_id for v in vms]
        # fam0: vms[0],vms[1]; fam1: vms[2],vms[3]
        assert vms[1].entity_id in g[vms[0].entity_id]
        assert vms[3].entity_id in g[vms[2].entity_id]
        assert vms[2].entity_id not in g[vms[0].entity_id]

    def test_edge_weight_is_shared_distinct_hashes(self):
        _c, vms, concord = build_vm_families(shared=32)
        g = sharing_graph(concord, [v.entity_id for v in vms])
        assert g[vms[0].entity_id][vms[1].entity_id] == 32

    def test_symmetric_adjacency_dict(self):
        _c, vms, concord = build_vm_families(n_families=3)
        g = sharing_graph(concord, [v.entity_id for v in vms])
        assert g == {0: {1: 32}, 1: {0: 32}, 2: {3: 32}, 3: {2: 32},
                     4: {5: 32}, 5: {4: 32}}

    def test_isolated_entity_maps_to_empty(self):
        from repro import workloads
        from tests.conftest import make_system

        _c, ents, concord = make_system(n_nodes=4,
                                        spec=workloads.nasty(4, 16))
        eids = [e.entity_id for e in ents]
        assert sharing_graph(concord, eids) == {e: {} for e in eids}

    @pytest.mark.parametrize("bad", [999, -1, True, "x"])
    def test_refuses_what_the_query_api_refuses(self, bad):
        _c, vms, concord = build_vm_families()
        ids = [vms[0].entity_id, vms[1].entity_id, bad]
        err = re.escape(f"entity id {bad!r} is not a known entity")
        with pytest.raises(ValueError, match=err):
            concord.sharing(ids)
        with pytest.raises(ValueError, match=err):
            sharing_graph(concord, ids)

    def test_multicopy_counts_once(self):
        """An entity holding a block twice still shares one distinct hash."""
        cluster = Cluster(2, seed=1)
        a = Entity.create(cluster, 0, np.array([5, 5, 6], dtype=np.uint64))
        b = Entity.create(cluster, 1, np.array([5, 7, 8], dtype=np.uint64))
        concord = ConCORD(cluster)
        concord.initial_scan()
        g = sharing_graph(concord, [a.entity_id, b.entity_id])
        assert g[a.entity_id][b.entity_id] == 1


class TestColocation:
    def test_families_reunited(self):
        _c, vms, concord = build_vm_families()
        eids = [v.entity_id for v in vms]
        g = sharing_graph(concord, eids)
        placement = suggest_colocation(g, n_nodes=2, capacity=2)
        assert placement[vms[0].entity_id] == placement[vms[1].entity_id]
        assert placement[vms[2].entity_id] == placement[vms[3].entity_id]
        assert placement[vms[0].entity_id] != placement[vms[2].entity_id]

    def test_score_improves_over_initial_spread(self):
        cluster, vms, concord = build_vm_families()
        eids = [v.entity_id for v in vms]
        g = sharing_graph(concord, eids)
        initial = {v.entity_id: v.node_id for v in vms}
        suggested = suggest_colocation(g, n_nodes=2, capacity=2)
        assert placement_sharing_score(g, suggested) > \
            placement_sharing_score(g, initial)

    def test_capacity_respected(self):
        _c, vms, concord = build_vm_families(n_families=3, vms_per_family=2)
        g = sharing_graph(concord, [v.entity_id for v in vms])
        placement = suggest_colocation(g, n_nodes=3, capacity=2)
        from collections import Counter
        loads = Counter(placement.values())
        assert max(loads.values()) <= 2
        assert len(placement) == 6

    def test_validation(self):
        _c, vms, concord = build_vm_families()
        g = sharing_graph(concord, [v.entity_id for v in vms])
        with pytest.raises(ValueError):
            suggest_colocation(g, n_nodes=0, capacity=2)
        with pytest.raises(ValueError):
            suggest_colocation(g, n_nodes=2, capacity=0)
        with pytest.raises(ValueError):
            suggest_colocation(g, n_nodes=1, capacity=2)  # 4 vms > 2 slots

    def test_no_sharing_still_places_everyone(self):
        from repro import workloads
        from tests.conftest import make_system

        _c, ents, concord = make_system(n_nodes=4,
                                        spec=workloads.nasty(4, 16))
        eids = [e.entity_id for e in ents]
        g = sharing_graph(concord, eids)
        placement = suggest_colocation(g, n_nodes=4, capacity=1)
        assert sorted(placement) == sorted(eids)
        assert placement_sharing_score(g, placement) == 0

    def test_score_of_empty_placement(self):
        _c, vms, concord = build_vm_families()
        g = sharing_graph(concord, [v.entity_id for v in vms])
        assert placement_sharing_score(g, {}) == 0


# Placements and scores recorded when the advisor's graph was a
# networkx Graph; the adjacency dict must reproduce every one,
# tie-breaks included.
# (build_vm_families kwargs, n_nodes, capacity, placement by entity, score)
PINNED_FAMILIES = [
    ({}, 2, 2, [0, 0, 1, 1], 64),
    ({"n_families": 3}, 3, 2, [0, 0, 1, 1, 2, 2], 96),
    ({"n_families": 3}, 2, 3, [0, 0, 1, 1, 0, 1], 64),
]
# (n_entities, capacity, seed of random_sharing_graph, placement, score)
PINNED_RANDOM = [
    (2, 1, 1, [0, 1], 0),
    (9, 2, 4, [1, 0, 2, 3, 4, 1, 3, 0, 2], 209),
    (5, 3, 7, [1, 0, 1, 0, 0], 64),
    (12, 4, 10, [2, 0, 2, 0, 1, 0, 2, 1, 1, 0, 2, 1], 677),
    (8, 1, 13, [0, 1, 2, 3, 4, 5, 6, 7], 0),
    (4, 2, 16, [0, 1, 1, 0], 53),
    (11, 3, 19, [1, 0, 1, 1, 3, 0, 3, 2, 2, 2, 0], 417),
    (7, 4, 22, [0, 0, 1, 0, 1, 0, 1], 261),
    (3, 1, 25, [0, 1, 2], 0),
    (10, 2, 28, [4, 2, 2, 0, 3, 1, 4, 0, 1, 3], 343),
    (6, 3, 31, [0, 0, 0, 1, 1, 1], 207),
    (2, 4, 34, [0, 0], 12),
    (9, 1, 37, [0, 1, 2, 3, 4, 5, 6, 7, 8], 0),
    (5, 2, 40, [1, 2, 1, 0, 0], 98),
    (12, 3, 43, [2, 0, 0, 0, 1, 2, 3, 1, 3, 3, 1, 2], 499),
    (8, 4, 46, [1, 1, 0, 0, 0, 1, 0, 1], 349),
    (4, 1, 49, [0, 1, 2, 3], 0),
    (11, 2, 52, [3, 0, 1, 4, 0, 2, 3, 2, 5, 4, 1], 323),
    (7, 3, 55, [0, 1, 0, 0, 1, 2, 1], 277),
    (3, 4, 58, [0, 0, 0], 206),
]
# Weights of 1 or 2 inserted in shuffled order, so the seed edge is a tie
# among several and only the edge walk's order picks it: the first case
# places differently if the walk visits edges in sorted order instead.
# (n_entities, capacity, edges in insertion order, placement, score)
PINNED_TIES = [
    (6, 2, [(0, 3, 2), (4, 2, 1), (1, 0, 1), (1, 2, 2), (5, 3, 2), (2, 0, 2)],
     [0, 1, 1, 0, 2, 2], 4),
    (8, 3, [(4, 0, 1), (0, 2, 1), (4, 7, 1), (2, 1, 1), (6, 7, 2), (5, 6, 2),
            (0, 3, 1), (1, 5, 2), (1, 3, 2), (2, 4, 1), (3, 4, 1), (7, 0, 2)],
     [0, 1, 2, 1, 0, 1, 2, 0], 8),
    (9, 2, [(6, 7, 1), (8, 1, 2), (4, 5, 1), (3, 7, 1), (2, 3, 2), (3, 6, 1),
            (4, 2, 1), (6, 8, 1), (3, 5, 2), (6, 2, 2), (1, 5, 1), (7, 1, 2),
            (1, 0, 2), (0, 5, 2), (4, 8, 2), (6, 5, 1), (2, 0, 2)],
     [0, 0, 1, 1, 2, 3, 3, 4, 2], 7),
    (10, 4, [(8, 9, 1), (2, 7, 1), (2, 3, 1), (5, 9, 1), (0, 3, 2), (9, 7, 1),
             (0, 4, 1), (3, 4, 1), (6, 4, 1), (2, 8, 2), (7, 4, 1), (6, 1, 2),
             (9, 3, 1), (0, 9, 2), (0, 7, 2), (3, 6, 2), (8, 0, 1), (6, 0, 2)],
     [0, 2, 1, 0, 0, 2, 0, 1, 1, 1], 14),
]


def _placed(g, n_entities, capacity):
    n_nodes = (n_entities + capacity - 1) // capacity
    placement = suggest_colocation(g, n_nodes=n_nodes, capacity=capacity)
    return ([placement[e] for e in range(n_entities)],
            placement_sharing_score(g, placement))


class TestPinnedPlacements:
    @pytest.mark.parametrize("kw,n_nodes,capacity,want,score",
                             PINNED_FAMILIES)
    def test_vm_families(self, kw, n_nodes, capacity, want, score):
        _c, vms, concord = build_vm_families(**kw)
        eids = [v.entity_id for v in vms]
        g = sharing_graph(concord, eids)
        placement = suggest_colocation(g, n_nodes=n_nodes, capacity=capacity)
        assert [placement[e] for e in eids] == want
        assert placement_sharing_score(g, placement) == score

    @pytest.mark.parametrize("n,capacity,seed,want,score", PINNED_RANDOM)
    def test_random_graphs(self, n, capacity, seed, want, score):
        g = random_sharing_graph(n, seed)
        assert _placed(g, n, capacity) == (want, score)

    @pytest.mark.parametrize("n,capacity,edges,want,score", PINNED_TIES)
    def test_ties_follow_insertion_order(self, n, capacity, edges, want,
                                         score):
        assert _placed(graph_of(n, edges), n, capacity) == (want, score)
