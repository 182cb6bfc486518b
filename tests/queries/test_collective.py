"""Unit tests for collective queries (sharing metrics, k-copy queries, Fig 9)."""

import numpy as np
import pytest

from repro import ExecMode, workloads
from repro.dht.generation import Generation
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


COLLECTIVE = ("sharing", "intra_sharing", "inter_sharing",
              "degree_of_sharing", "num_shared_content", "shared_content")


def _ask(concord, op, eids, k=2):
    if op in ("num_shared_content", "shared_content"):
        return getattr(concord, op)(eids, k)
    return getattr(concord, op)(eids)


class TestInputValidation:
    """The direct API refuses what admission refuses, with a ValueError
    naming the bad argument instead of a wrong answer or a bare
    KeyError."""

    @pytest.mark.parametrize("op", ["num_shared_content", "shared_content"])
    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None,
                                   np.float64(3.0)])
    def test_non_integer_k_raises(self, concord4, cluster4, op, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            getattr(concord4, op)(cluster4.all_entity_ids(), k)

    @pytest.mark.parametrize("op", ["num_shared_content", "shared_content"])
    def test_numpy_integer_k_is_an_integer(self, concord4, cluster4, op):
        eids = cluster4.all_entity_ids()
        assert getattr(concord4, op)(eids, np.int32(2)).value == \
            getattr(concord4, op)(eids, 2).value

    @pytest.mark.parametrize("op", COLLECTIVE)
    @pytest.mark.parametrize("bad", [99, -1, True, 1.0, "0"])
    def test_unknown_entity_id_raises(self, concord4, cluster4, op, bad):
        eids = cluster4.all_entity_ids()[:1] + [bad]
        with pytest.raises(ValueError, match=f"entity id {bad!r} "):
            _ask(concord4, op, eids)

    def test_numpy_entity_ids_answer_as_ints(self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        as_np = [np.int64(e) for e in eids]
        for op in COLLECTIVE:
            assert _ask(concord4, op, as_np).value == \
                _ask(concord4, op, eids).value


class TestUnionView:
    """Collective queries scan one cached union of the live shards'
    generations (``QueryInterface.view``)."""

    @staticmethod
    def _absent_hash(concord):
        h = (1 << 63) + 12345
        assert concord.num_copies(h).value == 0
        return h

    def test_view_is_cached_until_a_shard_changes(self, concord4):
        qi = concord4.queries
        view = qi.view()
        assert qi.view() is view
        h = self._absent_hash(concord4)
        concord4.tracing.shards[concord4.tracing.home_node(h)].insert(h, 0)
        assert qi.view() is not view

    def test_direct_shard_write_is_seen_without_an_epoch_bump(
            self, concord4, cluster4):
        eids = cluster4.all_entity_ids()
        before = concord4.num_shared_content(eids, 1).value
        membership = concord4.tracing.membership
        epoch = membership.global_epoch
        h = self._absent_hash(concord4)
        concord4.tracing.shards[concord4.tracing.home_node(h)].insert(h, 0)
        assert membership.global_epoch == epoch
        assert concord4.num_shared_content(eids, 1).value == before + 1
        assert h in concord4.shared_content(eids, 1).value

    def test_overflow_only_write_is_seen(self, concord4, cluster4):
        """Another copy of a hash its entity already holds changes only
        the overflow columns; the next query still sees it."""
        eids = cluster4.all_entity_ids()
        tracing = concord4.tracing
        h = next(iter(concord4.shared_content(eids, 1).value))
        n = concord4.num_copies(h).value
        before = concord4.num_shared_content(eids, n + 1).value
        holder = min(concord4.entities(h).value)
        tracing.shards[tracing.home_node(h)].insert(h, holder)
        assert concord4.num_shared_content(eids, n + 1).value == before + 1

    def test_held_view_never_changes(self, concord4, cluster4):
        qi = concord4.queries
        view = qi.view()
        frozen = (view.ph.copy(), view.pm.copy(), dict(view.wide),
                  [c.copy() for c in view.extra], view.n_hashes,
                  view.n_copies)
        h = self._absent_hash(concord4)
        tracing = concord4.tracing
        tracing.shards[tracing.home_node(h)].insert(h, 0)
        first = int(view.ph[0])
        tracing.shards[tracing.home_node(first)].remove(
            first, min(concord4.entities(first).value))
        rng = np.random.default_rng(1)
        for e in cluster4.entities.values():
            e.mutate_random(0.3, rng)
        concord4.sync()
        for shard in tracing.shards:
            shard.flush()
        assert qi.view() is not view
        assert np.array_equal(view.ph, frozen[0])
        assert np.array_equal(view.pm, frozen[1])
        assert view.wide == frozen[2]
        for col, was in zip(view.extra, frozen[3]):
            assert np.array_equal(col, was)
        assert (view.n_hashes, view.n_copies) == frozen[4:]

    def test_view_sums_the_live_shards(self, concord4):
        view = concord4.queries.view()
        live = concord4.tracing.live_shards()
        assert view.n_hashes == sum(s.n_hashes for s in live)
        assert view.n_copies == sum(s.n_copies for s in live)
        assert np.all(view.ph[1:] > view.ph[:-1])

    def test_hash_on_two_live_shards_raises(self, concord4, cluster4):
        shards = concord4.tracing.live_shards()
        h = int(shards[0].generation().ph[0])
        shards[1].insert(h, 0)
        with pytest.raises(ValueError, match=f"hash {h:#x} is held by"):
            concord4.sharing(cluster4.all_entity_ids())

    def test_union_of_nothing_or_one(self, concord4):
        gen = concord4.tracing.shards[0].generation()
        assert Generation.union([gen]) is gen
        assert Generation.union([]).n_hashes == 0
