"""Property-based tests (hypothesis) for core data structures."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.partition import PLACEMENT_POLICIES, Partition
from repro.dht.table import LocalDHT
from repro.memory.monitor import multiset_diff
from repro.util.hashing import mix64, page_hashes, unmix64

ids = st.integers(min_value=0, max_value=2**64 - 1)


class TestHashingProps:
    @given(ids)
    def test_mix64_bijective(self, x):
        assert int(unmix64(mix64(x))) == x

    @given(ids)
    def test_mix64_scalar_matches_vector(self, x):
        want = mix64(np.array([x], dtype=np.uint64))[0]
        assert mix64(x) == want and mix64(np.uint64(x)) == want

    @given(ids, st.sampled_from(PLACEMENT_POLICIES),
           st.integers(min_value=1, max_value=12))
    def test_scalar_routing_matches_vector(self, x, policy, n_nodes):
        p = Partition(n_nodes, policy=policy)
        want = int(p.home_nodes(np.array([x], dtype=np.uint64))[0])
        assert p.home_node(x) == p.home_node(np.uint64(x)) == want

    @given(st.lists(ids, min_size=1, max_size=200))
    def test_page_hashes_respect_equality_structure(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        hs = page_hashes(arr)
        # equal ids <-> equal hashes (bijection)
        for i in range(len(xs)):
            for j in range(i + 1, min(i + 5, len(xs))):
                assert (xs[i] == xs[j]) == (hs[i] == hs[j])


class TestLocalDHTProps:
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, 30),
                              st.integers(0, 8)),
                    max_size=200))
    def test_multiset_semantics(self, ops):
        from collections import Counter

        t = LocalDHT()
        model = Counter()
        for ins, h, e in ops:
            if ins:
                t.insert(h, e)
                model[(h, e)] += 1
            else:
                t.remove(h, e)
                if model[(h, e)] > 0:
                    model[(h, e)] -= 1
        assert t.n_copies == sum(model.values())
        for h in {h for h, _ in model}:
            assert t.entity_ids(h) == sorted(
                {e for (hh, e), c in model.items() if hh == h and c > 0})
            assert t.num_copies(h) == sum(
                c for (hh, _e), c in model.items() if hh == h)


class TestPartitionProps:
    @given(st.lists(ids, min_size=1, max_size=100),
           st.integers(min_value=1, max_value=64))
    def test_grouping_is_a_partition(self, hs, n_nodes):
        p = Partition(n_nodes)
        arr = np.array(hs, dtype=np.uint64)
        groups = p.group_by_home(arr)
        seen = sorted(np.concatenate(list(groups.values())).tolist())
        assert seen == list(range(len(hs)))
        for home, idxs in groups.items():
            assert 0 <= home < n_nodes
            assert all(p.home_node(int(arr[i])) == home for i in idxs)


class TestMultisetDiffProps:
    @given(st.lists(st.integers(0, 20), max_size=80),
           st.lists(st.integers(0, 20), max_size=80))
    def test_diff_transforms_old_into_new(self, old, new):
        from collections import Counter

        o = np.array(old, dtype=np.uint64)
        n = np.array(new, dtype=np.uint64)
        ins, rem = multiset_diff(o, n)
        c = Counter(o.tolist())
        for h in rem.tolist():
            c[h] -= 1
        for h in ins.tolist():
            c[h] += 1
        assert +c == Counter(n.tolist())

    @given(st.lists(st.integers(0, 20), max_size=80))
    def test_self_diff_empty(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        ins, rem = multiset_diff(arr, arr)
        assert len(ins) == 0 and len(rem) == 0
