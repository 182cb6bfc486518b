"""Unit tests for node-wise queries (num_copies / entities, Fig 8)."""

import re

import numpy as np
import pytest

from repro.queries.reference import ReferenceModel
from tests.conftest import make_system


class TestValues:
    def test_num_copies_matches_reference(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        counts = ref.copy_counts(cluster4.all_entity_ids())
        some = list(counts)[:50]
        for h in some:
            assert concord4.num_copies(h).value == counts[h]

    def test_entities_matches_reference(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        counts = ref.copy_counts(cluster4.all_entity_ids())
        for h in list(counts)[:30]:
            assert concord4.entities(h).value == ref.entities(h)

    def test_unknown_hash(self, concord4):
        assert concord4.num_copies(0xDEAD).value == 0
        assert concord4.entities(0xDEAD).value == set()

    def test_multicopy_within_entity(self):
        from repro import workloads
        spec = workloads.WorkloadSpec(name="dup", n_entities=1,
                                      pages_per_entity=64, common_frac=1.0,
                                      pool_frac=0.1)
        _cluster, ents, concord = make_system(n_nodes=2, spec=spec)
        hashes = ents[0].content_hashes()
        h, count = np.unique(hashes, return_counts=True)
        dup_hash = int(h[np.argmax(count)])
        assert concord.num_copies(dup_hash).value == int(count.max())
        assert concord.entities(dup_hash).value == {ents[0].entity_id}


class TestHashValidation:
    """The direct API takes admission's hash rule: an integer (never a
    bool) in [0, 2**64).  Anything else raises ValueError naming the hash
    the caller passed, instead of answering some other hash."""

    @staticmethod
    def tracked(concord, cluster):
        return int(next(iter(cluster.entities.values())).content_hashes()[0])

    @pytest.mark.parametrize("op", ["num_copies", "entities"])
    @pytest.mark.parametrize("bad", [str, float, lambda h: True,
                                     lambda h: -1, lambda h: 2**64,
                                     lambda h: None],
                             ids=["str", "float", "bool", "negative",
                                  "2**64", "None"])
    def test_rejects_a_non_hash(self, concord4, cluster4, op, bad):
        arg = bad(self.tracked(concord4, cluster4))
        with pytest.raises(ValueError, match=re.escape(repr(arg))):
            getattr(concord4, op)(arg)

    @pytest.mark.parametrize("op", ["num_copies", "entities"])
    def test_accepts_every_integer_form(self, concord4, cluster4, op):
        h = self.tracked(concord4, cluster4)
        want = getattr(concord4, op)(h)
        assert getattr(concord4, op)(np.uint64(h)) == want
        for edge in (0, 2**64 - 1):
            assert getattr(concord4, op)(edge).value in (0, set())


class TestLatency:
    def test_ping_dominated(self, concord4, cluster4):
        """Fig 8: query latency ~ RTT, compute time an order smaller."""
        ents = cluster4.entities
        h = int(next(iter(ents.values())).content_hashes()[0])
        home = concord4.tracing.home_node(h)
        issuing = (home + 1) % cluster4.n_nodes
        r = concord4.num_copies(h, issuing_node=issuing)
        assert r.latency > cluster4.cost.rtt()
        assert r.compute_time < r.latency / 3

    def test_local_issue_skips_network(self, concord4, cluster4):
        h = int(next(iter(cluster4.entities.values())).content_hashes()[0])
        home = concord4.tracing.home_node(h)
        r = concord4.num_copies(h, issuing_node=home)
        assert r.latency == r.compute_time

    def test_latency_independent_of_table_size(self):
        """The flatness claim of Fig 8."""
        import repro.workloads as w
        lat = []
        for pages in (64, 1024):
            _c, ents, concord = make_system(
                n_nodes=2, spec=w.nasty(2, pages))
            h = int(ents[0].content_hashes()[0])
            home = concord.tracing.home_node(h)
            lat.append(concord.num_copies(
                h, issuing_node=(home + 1) % 2).latency)
        assert lat[0] == pytest.approx(lat[1])

    def test_entities_latency_exceeds_num_copies(self, concord4, cluster4):
        h = int(next(iter(cluster4.entities.values())).content_hashes()[0])
        home = concord4.tracing.home_node(h)
        issuing = (home + 1) % cluster4.n_nodes
        assert (concord4.entities(h, issuing_node=issuing).latency
                > concord4.num_copies(h, issuing_node=issuing).latency)
