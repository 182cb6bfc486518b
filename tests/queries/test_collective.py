"""Unit tests for collective queries (sharing metrics, k-copy queries, Fig 9)."""

import numpy as np
import pytest

from repro import ExecMode, workloads
from repro.queries.reference import ReferenceModel
from tests.conftest import make_system


class TestSharingValues:
    def test_matches_reference_moldy(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        eids = cluster4.all_entity_ids()
        assert concord4.sharing(eids).value == pytest.approx(ref.sharing(eids))
        assert concord4.intra_sharing(eids).value == pytest.approx(
            ref.intra_sharing(eids))
        assert concord4.inter_sharing(eids).value == pytest.approx(
            ref.inter_sharing(eids))

    def test_intra_plus_inter_equals_sharing(self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        total = concord4.sharing(eids).value
        parts = (concord4.intra_sharing(eids).value
                 + concord4.inter_sharing(eids).value)
        assert parts == pytest.approx(total)

    def test_subset_of_entities(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        eids = cluster4.all_entity_ids()[:2]
        assert concord4.sharing(eids).value == pytest.approx(ref.sharing(eids))

    def test_no_redundancy_workload(self):
        _c, ents, concord = make_system(n_nodes=4, spec=workloads.nasty(4, 128))
        eids = [e.entity_id for e in ents]
        assert concord.sharing(eids).value == 0.0
        assert concord.degree_of_sharing(eids).value == 1.0

    def test_full_redundancy_single_page_pool(self):
        spec = workloads.WorkloadSpec(name="all-same", n_entities=4,
                                      pages_per_entity=32, common_frac=1.0,
                                      pool_frac=1 / 32)
        _c, ents, concord = make_system(n_nodes=4, spec=spec)
        eids = [e.entity_id for e in ents]
        # 128 copies of one distinct page
        assert concord.sharing(eids).value == pytest.approx(127 / 128)

    def test_intra_only_when_packed_on_one_node(self):
        spec = workloads.moldy(4, 64, seed=5)
        cluster, ents, concord = make_system(n_nodes=1, spec=spec)
        eids = [e.entity_id for e in ents]
        assert concord.inter_sharing(eids).value == 0.0
        assert concord.intra_sharing(eids).value == pytest.approx(
            concord.sharing(eids).value)

    def test_dos_is_complement_of_sharing(self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        dos = concord4.degree_of_sharing(eids)
        assert dos.value == pytest.approx(1.0 - concord4.sharing(eids).value)
        assert dos.coverage == 1.0 and not dos.degraded


class TestKCopyQueries:
    def test_num_shared_content_matches_reference(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        eids = cluster4.all_entity_ids()
        for k in (1, 2, 3, 4, 8):
            assert concord4.num_shared_content(eids, k).value == \
                ref.num_shared_content(eids, k)

    def test_shared_content_matches_reference(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        eids = cluster4.all_entity_ids()
        assert concord4.shared_content(eids, 2).value == \
            ref.shared_content(eids, 2)

    def test_k1_equals_distinct(self, concord4, cluster4):
        ref = ReferenceModel(cluster4)
        eids = cluster4.all_entity_ids()
        assert concord4.num_shared_content(eids, 1).value == \
            len(ref.distinct_content(eids))

    def test_monotone_in_k(self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        counts = [concord4.num_shared_content(eids, k).value
                  for k in range(1, 6)]
        assert counts == sorted(counts, reverse=True)

    def test_k_validation(self, concord4, cluster4):
        with pytest.raises(ValueError):
            concord4.num_shared_content(cluster4.all_entity_ids(), 0)
        with pytest.raises(ValueError):
            concord4.shared_content(cluster4.all_entity_ids(), -1)


class TestExecutionModes:
    def test_single_and_distributed_agree_on_value(self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        d = concord4.sharing(eids, exec_mode=ExecMode.DISTRIBUTED)
        s = concord4.sharing(eids, exec_mode=ExecMode.SINGLE)
        assert d.value == s.value

    def test_single_latency_grows_with_total(self):
        """Fig 9: single-node execution is linear in total hashes."""
        lats = []
        for pages in (256, 1024):
            _c, ents, concord = make_system(n_nodes=4,
                                            spec=workloads.nasty(4, pages))
            lats.append(concord.sharing(
                [e.entity_id for e in ents], exec_mode=ExecMode.SINGLE).latency)
        assert lats[1] > 2.5 * lats[0]

    def test_distributed_flat_when_per_node_constant(self):
        """Fig 9: distributed latency ~constant when hashes/node is fixed."""
        lats = []
        for n_nodes in (2, 8):
            _c, ents, concord = make_system(
                n_nodes=n_nodes, spec=workloads.nasty(n_nodes, 512))
            lats.append(concord.sharing(
                [e.entity_id for e in ents], exec_mode=ExecMode.DISTRIBUTED).latency)
        assert lats[1] < 1.5 * lats[0]

    def test_distributed_beats_single_at_scale(self):
        _c, ents, concord = make_system(n_nodes=8,
                                        spec=workloads.nasty(8, 2048))
        eids = [e.entity_id for e in ents]
        assert concord.sharing(eids, exec_mode=ExecMode.DISTRIBUTED).latency < \
            concord.sharing(eids, exec_mode=ExecMode.SINGLE).latency

    def test_command_mode_rejected_for_queries(self, concord4, cluster4):
        with pytest.raises(ValueError):
            concord4.sharing(cluster4.all_entity_ids(),
                             exec_mode=ExecMode.INTERACTIVE)

    @pytest.mark.parametrize("not_a_mode", ["single", "magic", 1, None])
    def test_non_execmode_is_a_type_error(self, concord4, cluster4,
                                          not_a_mode):
        with pytest.raises(TypeError, match="must be an ExecMode"):
            concord4.sharing(cluster4.all_entity_ids(), exec_mode=not_a_mode)


class TestStalenessBestEffort:
    def test_stale_view_yields_best_effort_answers(self):
        """After unsynced mutations the answers reflect the old view —
        best-effort, exactly as the paper specifies."""
        cluster, ents, concord = make_system(n_nodes=4)
        eids = [e.entity_id for e in ents]
        before = concord.sharing(eids).value
        rng = np.random.default_rng(0)
        for e in ents:
            e.mutate_random(0.5, rng)
        assert concord.sharing(eids).value == before  # unchanged view
        concord.sync()
        ref = ReferenceModel(cluster)
        assert concord.sharing(eids).value == pytest.approx(ref.sharing(eids))
