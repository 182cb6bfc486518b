"""Unit tests for redundancy profiling."""

import re

import numpy as np
import pytest

from repro import workloads
from repro.analysis import (
    RedundancyProfiler,
    copy_distribution,
    top_shared_content,
)
from repro.queries.reference import ReferenceModel
from tests.conftest import make_system


class TestProfiler:
    def test_snapshot_matches_queries(self):
        cluster, ents, concord = make_system(n_nodes=4)
        eids = [e.entity_id for e in ents]
        prof = RedundancyProfiler(concord, eids)
        snap = prof.snapshot()
        assert snap.sharing == pytest.approx(concord.sharing(eids).value)
        assert snap.dos == pytest.approx(1 - snap.sharing)
        assert snap.dedup_potential == snap.sharing
        assert prof.history == [snap]

    def test_snapshot_syncs_by_default(self):
        cluster, ents, concord = make_system(n_nodes=2)
        eids = [e.entity_id for e in ents]
        prof = RedundancyProfiler(concord, eids)
        rng = np.random.default_rng(0)
        for e in ents:
            e.mutate_random(0.5, rng)
        snap = prof.snapshot()
        ref = ReferenceModel(cluster)
        assert snap.sharing == pytest.approx(ref.sharing(eids))

    def test_no_sync_keeps_stale_view(self):
        cluster, ents, concord = make_system(n_nodes=2)
        eids = [e.entity_id for e in ents]
        prof = RedundancyProfiler(concord, eids)
        before = prof.snapshot(sync=False).sharing
        for e in ents:
            e.mutate_random(0.5, np.random.default_rng(0))
        assert prof.snapshot(sync=False).sharing == before

    def test_requires_entities(self):
        _c, _e, concord = make_system(n_nodes=2)
        with pytest.raises(ValueError):
            RedundancyProfiler(concord, [])

    def test_periodic_profile_under_churn(self):
        """Profile a churning workload on the engine: redundancy decays as
        unique writes replace shared pages."""
        from repro.workloads import ChurnDriver

        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.moldy(2, 128, seed=1))
        eids = [e.entity_id for e in ents]
        prof = RedundancyProfiler(concord, eids)
        prof.snapshot(time=0.0)
        driver = ChurnDriver(ents, pages_per_tick=16, seed=1)
        driver.run_on(cluster.engine, period=1.0, horizon=8.0)
        prof.run_on(cluster.engine, period=2.0, horizon=8.0)
        cluster.engine.run()
        assert len(prof.history) >= 4
        assert prof.history[-1].sharing < prof.history[0].sharing
        table = prof.report()
        assert "sharing" in table.render()
        assert len(table.x_values) == len(prof.history)

    def test_run_on_validates_period(self):
        cluster, ents, concord = make_system(n_nodes=2)
        prof = RedundancyProfiler(concord, [ents[0].entity_id])
        with pytest.raises(ValueError):
            prof.run_on(cluster.engine, 0, 1)


class TestCopyDistribution:
    def test_matches_reference_counts(self):
        cluster, ents, concord = make_system(n_nodes=4)
        eids = [e.entity_id for e in ents]
        dist = copy_distribution(concord, eids)
        ref = ReferenceModel(cluster).copy_counts(eids)
        from collections import Counter
        want = Counter(ref.values())
        assert dist == want

    def test_nasty_all_single_copy(self):
        _c, ents, concord = make_system(n_nodes=2,
                                        spec=workloads.nasty(2, 64))
        dist = copy_distribution(concord, [e.entity_id for e in ents])
        assert set(dist) == {1}
        assert dist[1] == 128

    def test_subset_scoping(self):
        cluster, ents, concord = make_system(n_nodes=4)
        sub = [ents[0].entity_id]
        dist = copy_distribution(concord, sub)
        ref = ReferenceModel(cluster).copy_counts(sub)
        assert sum(dist.values()) == len(ref)


class TestTopShared:
    def test_descending_and_consistent(self):
        cluster, ents, concord = make_system(n_nodes=4)
        eids = [e.entity_id for e in ents]
        top = top_shared_content(concord, eids, n=5)
        assert len(top) == 5
        copies = [c for _h, c in top]
        assert copies == sorted(copies, reverse=True)
        ref = ReferenceModel(cluster).copy_counts(eids)
        assert copies[0] == max(ref.values())
        for h, c in top:
            assert ref[h] == c

    def test_n_larger_than_content(self):
        _c, ents, concord = make_system(n_nodes=2,
                                        spec=workloads.nasty(2, 4))
        top = top_shared_content(concord, [e.entity_id for e in ents], n=100)
        assert len(top) == 8


class TestRefusesUnknownEntityIds:
    """Every tool refuses an id the query API refuses, with its error."""

    @pytest.mark.parametrize("bad", [999, -1, True, "x"])
    @pytest.mark.parametrize("tool", [copy_distribution, top_shared_content,
                                      RedundancyProfiler])
    def test_refused_like_the_query_api(self, tool, bad):
        _c, ents, concord = make_system(n_nodes=2)
        ids = [ents[0].entity_id, bad]
        err = re.escape(f"entity id {bad!r} is not a known entity")
        with pytest.raises(ValueError, match=err):
            concord.sharing(ids)
        with pytest.raises(ValueError, match=err):
            tool(concord, ids)
