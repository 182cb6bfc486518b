"""Unit tests for zero-hop partitioning, placement policies, and the
membership ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.partition import (PLACEMENT_POLICIES, Partition,
                                 entries_moved_fraction)

# Content hashes with the word's edges always in the draw.
EDGE_HASHES = [0, 1, 2**63, 2**64 - 1]
HASHES = st.lists(st.integers(0, 2**64 - 1), max_size=20).map(
    lambda hs: EDGE_HASHES + hs)


class TestHomeNode:
    def test_in_range(self):
        p = Partition(7)
        for h in range(1000):
            assert 0 <= p.home_node(h) < 7

    def test_deterministic_and_zero_hop(self):
        """Every node computes the same home with no shared state."""
        assert Partition(5).home_node(123) == Partition(5).home_node(123)

    def test_single_node(self):
        p = Partition(1)
        assert all(p.home_node(h) == 0 for h in range(100))

    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            Partition(0)

    def test_vectorized_matches_scalar(self):
        p = Partition(9)
        hs = np.random.default_rng(0).integers(0, 2**63, 500, dtype=np.uint64)
        homes = p.home_nodes(hs)
        for h, home in zip(hs.tolist(), homes.tolist()):
            assert p.home_node(int(h)) == home

    def test_balance(self):
        """Keys spread near-uniformly over nodes."""
        p = Partition(8)
        hs = np.random.default_rng(1).integers(0, 2**63, 80000, dtype=np.uint64)
        counts = np.bincount(p.home_nodes(hs), minlength=8)
        assert counts.min() > 80000 / 8 * 0.9
        assert counts.max() < 80000 / 8 * 1.1

    def test_not_identity_on_content_hash(self):
        """Routing is salted: home != hash % n in general."""
        p = Partition(16)
        mismatches = sum(p.home_node(h) != h % 16 for h in range(1000))
        assert mismatches > 800


class TestGrouping:
    def test_group_by_home_partitions_indices(self):
        p = Partition(4)
        hs = np.arange(100, dtype=np.uint64)
        groups = p.group_by_home(hs)
        all_idx = np.concatenate(list(groups.values()))
        assert sorted(all_idx.tolist()) == list(range(100))
        for home, idxs in groups.items():
            assert (p.home_nodes(hs[idxs]) == home).all()

    def test_group_empty(self):
        assert Partition(4).group_by_home(np.empty(0, dtype=np.uint64)) == {}


class TestNodeRing:
    def test_walk_skips_dead_to_successor(self):
        p = Partition(4)
        p.set_alive(1, False)
        p.set_alive(2, False)
        assert p.range_homes().tolist() == [0, 3, 3, 3]
        hs = np.arange(200, dtype=np.uint64)
        prim = p.primary_nodes(hs)
        assert (p.home_nodes(hs) == np.array([0, 3, 3, 3])[prim]).all()
        h = int(hs[prim == 1][0])
        assert p.home_node(h) == 3    # the scalar walk agrees
        p.set_alive(3, False)         # the walk wraps round to node 0
        assert p.range_homes().tolist() == [0, 0, 0, 0]
        assert p.home_node(h) == 0

    def test_partition_still_guards_last_survivor(self):
        p = Partition(2)
        p.set_alive(0, False)
        with pytest.raises(ValueError):
            p.set_alive(1, False)
        assert p.is_alive(1)  # the guard rolled the flag back


class TestPlacementPolicies:
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_scalar_matches_vector(self, policy):
        p = Partition(9, policy=policy)
        hs = np.random.default_rng(0).integers(0, 2**63, 300, dtype=np.uint64)
        # The scalar path routes on Python ints: the ends of the 64-bit
        # range and the salts themselves are where a dropped mask shows.
        hs = np.append(hs, np.array([0, 1, 2**63, 2**64 - 1,
                                     0xC2B2AE3D27D4EB4F, 0x9E3779B97F4A7C15],
                                    dtype=np.uint64))
        homes = p.home_nodes(hs)
        for h, home in zip(hs.tolist(), homes.tolist()):
            assert p.home_node(int(h)) == home
            assert p.home_node(np.uint64(h)) == home

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_balance(self, policy):
        p = Partition(8, policy=policy)
        hs = np.random.default_rng(1).integers(0, 2**63, 80000,
                                               dtype=np.uint64)
        counts = np.bincount(p.home_nodes(hs), minlength=8)
        assert counts.min() > 80000 / 8 * 0.5
        assert counts.max() < 80000 / 8 * 1.6

    def test_mod_is_default_and_byte_compatible(self):
        hs = np.random.default_rng(2).integers(0, 2**63, 1000,
                                               dtype=np.uint64)
        assert Partition(7).policy == "mod"
        assert (Partition(7).home_nodes(hs)
                == Partition(7, policy="mod").home_nodes(hs)).all()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Partition(4, policy="tea-leaves")
        with pytest.raises(ValueError):
            entries_moved_fraction("tea-leaves", 4, 5)

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_grown_equals_fresh(self, policy):
        # The property live join relies on: growing via grown() is
        # indistinguishable from constructing at the new size, because
        # per-node placement state derives from ID only.
        hs = np.random.default_rng(3).integers(0, 2**63, 2000,
                                               dtype=np.uint64)
        grown = Partition(5, policy=policy).grown()
        fresh = Partition(6, policy=policy)
        assert grown.n_nodes == 6
        assert (grown.home_nodes(hs) == fresh.home_nodes(hs)).all()

    def test_grown_carries_alive_view(self):
        p = Partition(4)
        p.set_alive(2, False)
        g = p.grown()
        assert g.n_nodes == 5
        assert not g.is_alive(2)
        assert g.is_alive(4)
        assert not p.is_alive(2)  # original untouched

    def test_minimal_remap_policies_beat_mod(self):
        # The acceptance yardstick: at n -> n+1 the remap-minimizing
        # policy moves <= 2x the theoretical minimum 1/(n+1), while
        # mod-N moves ~n/(n+1) of everything.
        lo = 1 / 9
        assert entries_moved_fraction("mod", 8, 9) > 0.8
        assert lo <= entries_moved_fraction("hd", 8, 9) <= 2 * lo

    def test_entries_moved_identity(self):
        for policy in PLACEMENT_POLICIES:
            assert entries_moved_fraction(policy, 6, 6, sample=500) == 0.0


class TestScalarRouteIsTheVectorRoute:
    """``home_node`` routes one hash on Python ints; it must agree with
    the vector ``home_nodes`` everywhere, dead nodes included."""

    @settings(max_examples=60, deadline=None)
    @given(policy=st.sampled_from(PLACEMENT_POLICIES),
           n_nodes=st.integers(1, 12), hashes=HASHES, data=st.data())
    def test_home_node_equals_home_nodes(self, policy, n_nodes, hashes,
                                         data):
        p = Partition(n_nodes, policy=policy)
        dead = data.draw(st.sets(st.integers(0, n_nodes - 1),
                                 max_size=n_nodes - 1))
        for node in dead:
            p.set_alive(node, False)
        for h in hashes:
            want = int(p.home_nodes(np.array([h], dtype=np.uint64))[0])
            assert p.home_node(h) == want, (policy, sorted(dead), h)
            assert p.is_alive(want)
