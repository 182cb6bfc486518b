"""The three repair modes through the one converge step (docs/FAULTS.md,
docs/RECONCILIATION.md): same damage, same final bytes, and a report
whose fields mean the same thing in every mode."""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity, StorageConfig
from repro.sim.faults import FaultPlan

U64 = np.uint64

MODES = {
    "replay": {"full": True},
    "delta": {"full": True, "delta": True},
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
        concord.tracing.bump_all_epochs()
        assert dropped > 0 and packed(concord) != want

        report = concord.repair(**MODES[mode])

        assert packed(concord) == want
        assert sum(i for _n, i, _r in report.node_ops) \
            == report.copies_restored
        assert sum(r for _n, _i, r in report.node_ops) \
            == report.copies_removed
        if mode == "replay":
            # Purged first: every truth copy is re-inserted, none removed.
            assert report.copies_removed == 0
            assert report.copies_restored == fresh.tracing.total_copies
            assert report.hashes_restored == fresh.tracing.total_hashes
        else:
            assert report.node_ops == ((1, missing_copies, len(stale) + 3),)
            assert report.hashes_restored == dropped


def test_recon_takes_no_delta():
    with bring_up() as concord:
        with pytest.raises(ValueError, match="delta"):
            concord.repair(delta=True, mode="recon")


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
