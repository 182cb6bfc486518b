"""The three repair modes through the one converge step (docs/FAULTS.md,
docs/RECONCILIATION.md): same damage, same final bytes, and a report
whose fields mean the same thing in every mode."""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig
from repro.dht.repair import RepairReport
from repro.sim.faults import FaultPlan

U64 = np.uint64

MODES = {
    "replay": {"full": True, "mode": "replay"},
    "delta": {"full": True, "mode": "delta"},
    "recon": {"mode": "recon"},
}


def bring_up(backend="memory", seed=0, use_network=False):
    cluster = Cluster(4, seed=seed)
    rng = np.random.default_rng(seed)
    for node in (0, 1, 0):
        Entity.create(cluster, node, rng.integers(0, 400, 256).astype(U64))
    concord = ConCORD(cluster, ConCORDConfig(
        use_network=use_network, storage=StorageConfig(backend=backend)))
    concord.initial_scan()
    return concord


def packed(concord):
    """Every shard's packed columns and side tables, as bytes."""
    out = []
    for shard in concord.tracing.shards:
        hashes, lo, wide = shard.items_arrays()
        out.append((hashes.tobytes(), lo.tobytes(), dict(wide),
                    dict(shard.extra_items()), shard.n_hashes,
                    shard.n_copies))
    return out


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("mode", list(MODES))
def test_modes_converge_missing_and_stale_rows(mode, backend):
    with bring_up() as fresh, bring_up(backend) as concord:
        want = packed(fresh)
        assert packed(concord) == want
        # Damage one shard both ways: drop its low hashes (missing rows)
        # and plant copies the ground truth does not have (stale rows).
        shard = concord.tracing.shards[1]
        hashes, _lo, _wide = shard.items_arrays()
        copies_before = shard.n_copies
        cut = hashes[len(hashes) // 3]
        dropped = shard.retain(hashes >= cut)
        missing_copies = copies_before - shard.n_copies
        stale = np.arange(1, 135, dtype=U64) << U64(40)
        shard.bulk_insert(stale, 5)
        shard.bulk_insert(hashes[-3:], 6)       # stale holder of live hashes
        concord.tracing.membership.content_changed()
        assert dropped > 0 and packed(concord) != want

        report = concord.repair(**MODES[mode])

        assert packed(concord) == want
        assert sum(i for _n, i, _r in report.node_ops) \
            == report.copies_restored
        assert sum(r for _n, _i, r in report.node_ops) \
            == report.copies_removed
        if mode == "replay":
            # Reported as a rebuild from empty: every truth copy
            # re-inserted, none removed.
            assert report.copies_removed == 0
            assert report.copies_restored == fresh.tracing.total_copies
            assert report.hashes_restored == fresh.tracing.total_hashes
        else:
            assert report.node_ops == ((1, missing_copies, len(stale) + 3),)
            assert report.hashes_restored == dropped


def damage(concord):
    """Drop shard 1's low third and plant stale copies on it."""
    shard = concord.tracing.shards[1]
    hashes, _lo, _wide = shard.items_arrays()
    shard.retain(hashes >= hashes[len(hashes) // 3])
    shard.bulk_insert(np.arange(1, 135, dtype=U64) << U64(40), 5)
    shard.bulk_insert(hashes[-3:], 6)
    concord.tracing.membership.content_changed()


def fail_detect_restart(concord):
    concord.fail_node(2)
    concord.detect_failures()
    concord.restart_node(2)


def fail_detect(concord):
    concord.cluster.network.set_node_up(2, False)
    concord.detect_failures()


FULL = dict(ranges_repaired=4, hashes_restored=341, copies_restored=768,
            nodes_scanned=4, copies_removed=0, bytes_wire=10680, rounds=1,
            node_ops=((0, 175, 0), (1, 191, 0), (2, 192, 0), (3, 210, 0)))
PARTIAL = dict(ranges_repaired=1, hashes_restored=86, copies_restored=192,
               copies_removed=0, bytes_wire=2670, rounds=1)

# Every field of a replay's report, as the purge-and-replay implementation
# reported it: a replay applies only the difference, but accounts the
# rebuild from empty it models.
REPLAY_REPORTS = {
    "damaged": (damage, {}, {"full": True}, FULL),
    "undamaged": (None, {}, {"full": True}, FULL),
    "network": (damage, {"use_network": True}, {"full": True}, FULL),
    "fail-detect-restart": (fail_detect_restart, {}, {},
                            dict(PARTIAL, nodes_scanned=4,
                                 node_ops=((2, 192, 0),))),
    "fail-detect": (fail_detect, {}, {},
                    dict(PARTIAL, nodes_scanned=3, node_ops=((3, 192, 0),))),
}


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("case", list(REPLAY_REPORTS))
def test_replay_report_is_pinned(case, backend):
    setup, kw, repair_kw, want = REPLAY_REPORTS[case]
    with bring_up(**kw) as fresh, bring_up(backend, **kw) as concord:
        if setup is not None:
            setup(concord)
        report = concord.repair(**repair_kw)
        assert report == RepairReport(**want)
        assert {type(getattr(report, k)) for k in want if k != "node_ops"} \
            == {int}
        if case != "fail-detect":       # node 2's ranges stay re-homed
            assert packed(concord) == packed(fresh)


def test_replay_of_an_undamaged_system_commits_nothing():
    with bring_up("mmap") as concord:
        shards = concord.tracing.shards
        for shard in shards:
            shard.flush()
        before = packed(concord), [s._store.generation for s in shards]
        assert min(before[1]) > 0
        report = concord.repair(full=True)
        assert report == RepairReport(**FULL)
        assert (packed(concord), [s._store.generation for s in shards]) \
            == before


@pytest.mark.parametrize("mode", list(MODES))
def test_a_repair_that_changes_nothing_moves_no_epoch(mode):
    """A pass over a converged system applies nothing, so every cached
    answer stays valid: no epoch moves and a repeated query still hits."""
    with bring_up() as concord:
        fe = concord.frontend()
        h = int(concord.tracing.shards[0].items_arrays()[0][0])
        got = []
        fe.submit("num_copies", (h,), on_done=got.append)
        concord.cluster.engine.run()
        m = concord.tracing.membership
        before = m.epoch_vector().tolist(), m.global_epoch
        repairs = concord.metrics().value("dht.repairs")
        report = concord.repair(**MODES[mode])
        assert report.ranges_repaired == 4
        assert (m.epoch_vector().tolist(), m.global_epoch) == before
        assert concord.metrics().value("dht.repairs") == repairs + 1
        fe.submit("num_copies", (h,), on_done=got.append)
        concord.cluster.engine.run()
        assert got[1].cache_hit and got[1].answer == got[0].answer


def test_swallowed_delivery_errors_are_counted():
    with bring_up(use_network=True) as concord:
        reg = concord.metrics()
        concord.cluster.network.set_node_up(3, False)
        assert concord.detect_failures() == [3]
        assert reg.value("dht.delivery_errors", site="detect") == 1
        # A partition cutting a shard off from the recon coordinator:
        # the protocol messages exhaust their retransmissions.
        concord.inject_faults(FaultPlan().partition(
            concord.cluster.engine.now, [0], [1, 2]))
        concord.repair(mode="recon")
        assert reg.value("dht.delivery_errors", site="recon") == 1
