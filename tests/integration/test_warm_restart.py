"""Warm restart: rejoining from persistent shard storage (docs/STORAGE.md).

The headline contract: a ConCORD instance brought up on an
already-populated storage root (``storage_recovered``) finishes its
restart with :meth:`~repro.core.concord.ConCORD.warm_restart`, and the
resulting shards are *byte-identical* to a cold full-NSM rebuild — while
the work done scales with how far memory diverged since the last commit,
not with total content.
"""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, StorageConfig, workloads
from tests.conftest import (GEN_FILE_REGIONS, flip_byte, gen_file_offset,
                            shard_states)

PERSISTENT = ("mmap",)

N_NODES = 4
PAGES = 256
SEED = 9


def make_cluster():
    """The 'machine': entity memory is deterministic in the seed, so a
    fresh Cluster models the same machine across service restarts."""
    cluster = Cluster(n_nodes=N_NODES, cost="new-cluster", seed=SEED)
    ents = workloads.instantiate(
        cluster, workloads.moldy(N_NODES, PAGES, seed=SEED))
    return cluster, ents


def mutate(ents, fraction, seed=6):
    rng = np.random.default_rng(seed)
    for e in ents[:2]:
        e.mutate_random(fraction, rng)


def cold_reference(mutation=0.0):
    """Ground truth: a memory-backend system built from current memory."""
    cluster, ents = make_cluster()
    if mutation:
        mutate(ents, mutation)
    with ConCORD(cluster, ConCORDConfig()) as concord:
        concord.initial_scan()
        return shard_states(concord.tracing)


@pytest.mark.parametrize("backend", PERSISTENT)
class TestWarmRestart:
    def seed_storage(self, backend, root):
        cluster, _ents = make_cluster()
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(root)))
        with ConCORD(cluster, cfg) as concord:
            concord.initial_scan()
            assert concord.storage_recovered is False
            return shard_states(concord.tracing)
        # close() flushed: the root now holds the full committed state

    def test_quiet_restart_is_byte_identical_and_near_free(self, backend,
                                                           tmp_path):
        before = self.seed_storage(backend, tmp_path)
        cluster, _ents = make_cluster()
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        with ConCORD(cluster, cfg) as concord:
            assert concord.storage_recovered is True
            report = concord.warm_restart()
            # Nothing changed while the service was down: zero delta ops.
            assert report.copies_restored == 0
            assert report.copies_removed == 0
            assert shard_states(concord.tracing) == before
            assert shard_states(concord.tracing) == cold_reference()

    def assert_shard0_heals(self, backend, root, before, refused=1):
        """Bring-up on ``root`` recovers every shard but 0 (counted warm;
        shard 0 counted cold when its file was there), and the warm
        restart rebuilds shard 0 to the cold reference."""
        cluster, _ents = make_cluster()
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(root)))
        with ConCORD(cluster, cfg) as concord:
            assert [s.recovered for s in concord.tracing.shards] == \
                [False] + [True] * (N_NODES - 1)
            reg = concord.obs.registry
            assert (reg.value("storage.recover", rung="warm"),
                    reg.value("storage.recover", rung="cold")) == \
                (N_NODES - 1, refused)
            report = concord.warm_restart()
            # Shard 0 whole, nothing anywhere else.
            assert report.copies_restored == before[0][-1] > 0
            assert report.copies_removed == 0
            assert shard_states(concord.tracing) == before == cold_reference()

    def test_damaged_shard_cold_starts_and_heals(self, backend, tmp_path):
        """A truncated shard file is a shard with nothing to recover, not
        a bring-up error; the warm restart's repair rebuilds it."""
        before = self.seed_storage(backend, tmp_path)
        path = tmp_path / "shard0.gen"
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)
        self.assert_shard0_heals(backend, tmp_path, before)

    @pytest.mark.parametrize("damage", GEN_FILE_REGIONS + ("deleted",))
    def test_corrupt_shard_cold_starts_and_heals(self, backend, tmp_path,
                                                 damage):
        """One byte flipped in any region of shard 0's file, or the file
        deleted: never a wrong answer, a cold start that heals."""
        before = self.seed_storage(backend, tmp_path)
        path = tmp_path / "shard0.gen"
        if damage == "deleted":
            path.unlink()
        else:
            flip_byte(path, gen_file_offset(path, damage))
        self.assert_shard0_heals(backend, tmp_path, before,
                                 refused=int(damage != "deleted"))

    def test_divergent_restart_matches_cold_rebuild(self, backend, tmp_path):
        self.seed_storage(backend, tmp_path)
        cluster, ents = make_cluster()
        mutate(ents, 0.10)               # memory moved while service was down
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        with ConCORD(cluster, cfg) as concord:
            assert concord.storage_recovered is True
            report = concord.warm_restart()
            applied = report.copies_restored + report.copies_removed
            total = sum(s.n_copies for s in concord.tracing.shards)
            assert 0 < applied < total   # cost scales with the divergence
            assert shard_states(concord.tracing) == cold_reference(mutation=0.10)

    def test_warm_cost_scales_with_divergence(self, backend, tmp_path):
        applied = []
        for fraction in (0.02, 0.25):
            root = tmp_path / f"f{int(fraction * 100)}"
            self.seed_storage(backend, root)
            cluster, ents = make_cluster()
            mutate(ents, fraction)
            cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                      root=str(root)))
            with ConCORD(cluster, cfg) as concord:
                report = concord.warm_restart()
                applied.append(report.copies_restored +
                               report.copies_removed)
        assert applied[0] < applied[1]

    def test_queries_agree_after_warm_restart(self, backend, tmp_path):
        self.seed_storage(backend, tmp_path)
        cluster, ents = make_cluster()
        mutate(ents, 0.10)
        eids = [e.entity_id for e in ents]
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        with ConCORD(cluster, cfg) as warm:
            warm.warm_restart()
            warm_sharing = warm.sharing(eids).value
        cluster2, ents2 = make_cluster()
        mutate(ents2, 0.10)
        with ConCORD(cluster2, ConCORDConfig()) as cold:
            cold.initial_scan()
            assert warm_sharing == pytest.approx(cold.sharing(eids).value)


@pytest.mark.parametrize("backend", PERSISTENT)
class TestInRunWarmRejoin:
    """fail_node + restart_node(warm=True) inside one running system."""

    def test_warm_rejoin_equals_cold_rejoin_plus_full_repair(self, backend,
                                                             tmp_path):
        def run(warm):
            cluster, ents = make_cluster()
            cfg = ConCORDConfig(storage=StorageConfig(
                backend=backend, root=str(tmp_path / ("w" if warm else "c"))))
            with ConCORD(cluster, cfg) as concord:
                concord.initial_scan()
                concord.tracing.flush_storage()
                concord.fail_node(2)
                mutate(ents, 0.05)
                concord.sync()
                concord.restart_node(2, warm=warm)
                if not warm:
                    concord.repair(full=True)
                return shard_states(concord.tracing)

        assert run(warm=True) == run(warm=False)

    def test_warm_rejoin_applies_fewer_ops_than_cold(self, backend,
                                                     tmp_path):
        cluster, ents = make_cluster()
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        with ConCORD(cluster, cfg) as concord:
            concord.initial_scan()
            concord.tracing.flush_storage()
            victim_copies = concord.tracing.shards[2].n_copies
            concord.fail_node(2)
            mutate(ents, 0.02)
            concord.sync()
            report = concord.restart_node(2, warm=True)
            # The rejoin healed only the small divergence, not the whole
            # shard — the point of warm restart.
            applied = report.copies_restored + report.copies_removed
            assert applied < victim_copies

    def test_close_keeps_a_dead_nodes_last_commit(self, backend, tmp_path):
        # A crash loses the node's RAM, not its storage: a clean exit
        # after it must not commit the empty shard over the last commit.
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        cluster, _ents = make_cluster()
        with ConCORD(cluster, cfg) as concord:
            concord.initial_scan()
            concord.tracing.flush_storage()
            rows = shard_states(concord.tracing)[2]
            committed = (tmp_path / "shard2.gen").read_bytes()
            concord.fail_node(2)
        assert rows[4] > 0
        assert (tmp_path / "shard2.gen").read_bytes() == committed
        # The next process on the same root recovers shard 2's rows.
        cluster, _ents = make_cluster()
        with ConCORD(cluster, cfg) as again:
            assert shard_states(again.tracing)[2] == rows

    def test_epochs_stay_monotone_over_a_clean_exit_with_a_node_down(
            self, backend, tmp_path):
        # Shard 2 dies as the newest shard: its live epoch is above every
        # other shard's, and the commit it keeps is older still.
        cfg = ConCORDConfig(storage=StorageConfig(backend=backend,
                                                  root=str(tmp_path)))
        cluster, _ents = make_cluster()
        with ConCORD(cluster, cfg) as concord:
            concord.initial_scan()
            concord.tracing.flush_storage()
            m = concord.tracing.membership
            for _ in range(50):
                m.bump_epoch(concord.tracing.shards[2])
            concord.fail_node(2)
            live, g = m.epoch_vector(), m.global_epoch
        cluster, _ents = make_cluster()
        with ConCORD(cluster, cfg) as again:
            m = again.tracing.membership
            assert (m.epoch_vector() >= live).all(), (live, m.epoch_vector())
            assert m.global_epoch >= g
