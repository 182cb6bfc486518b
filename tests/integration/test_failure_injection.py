"""Failure injection: the platform under hostile conditions.

Best-effort systems earn their keep when things go wrong.  These tests
drive loss, overload, exhausted retransmissions, vanishing entities, and
degenerate entities through the full stack.
"""

import numpy as np
import pytest

from repro import (
    ConCORDConfig,
    CheckpointStore,
    Cluster,
    CollectiveCheckpoint,
    ConCORD,
    Entity,
    FaultPlan,
    NullService,
    ServiceScope,
    restore_entity,
    workloads,
)
from repro.sim.network import DeliveryError
from repro.util.records import ControlMessage, MsgKind, UpdateBatch


class TestReliableChannelExhaustion:
    def test_delivery_error_after_max_attempts(self):
        """A receiver that can never accept traffic exhausts the reliable
        channel's retransmission budget."""
        cluster = Cluster(2, cost=cluster_cost_with_zero_queue(), seed=0)
        net = cluster.network
        msg = ControlMessage(MsgKind.CONTROL, 0, 1, op="start")
        net.send_reliable(msg)
        with pytest.raises(DeliveryError):
            cluster.engine.run()

    def test_retries_counted_once_and_no_delivery_on_exhaustion(self):
        """Exhaustion makes exactly MAX_RELIABLE_ATTEMPTS sends: the first
        transmission plus MAX-1 retransmissions, each counted once, and
        on_deliver never fires."""
        cluster = Cluster(2, cost=cluster_cost_with_zero_queue(), seed=0)
        net = cluster.network
        delivered = []
        net.send_reliable(ControlMessage(MsgKind.CONTROL, 0, 1, op="start"),
                          on_deliver=delivered.append)
        with pytest.raises(DeliveryError):
            cluster.engine.run()
        assert delivered == []
        assert net.stats.retransmissions == net.MAX_RELIABLE_ATTEMPTS - 1
        assert net.stats.msgs_sent == net.MAX_RELIABLE_ATTEMPTS
        assert net.stats.msgs_dropped == net.MAX_RELIABLE_ATTEMPTS
        assert net.stats.msgs_delivered == 0

    def test_lossy_reliable_delivers_exactly_once(self):
        """Under heavy (but not total) loss the reliable channel retries
        until it lands the message — and lands it exactly once."""
        cluster = Cluster(2, cost="new-cluster", seed=3)
        net = cluster.network
        net.set_loss(0.8)
        delivered = []
        net.send_reliable(ControlMessage(MsgKind.CONTROL, 0, 1, op="start"),
                          on_deliver=delivered.append)
        cluster.engine.run()
        assert len(delivered) == 1
        assert net.stats.msgs_delivered == 1
        # Every failed attempt was retransmitted once; the ledger balances.
        assert net.stats.retransmissions == net.stats.msgs_dropped
        assert net.stats.msgs_sent == net.stats.msgs_dropped + 1

    def test_dead_destination_blackholes_until_delivery_error(self):
        """A crashed node blackholes every retransmission: the resulting
        DeliveryError is the failure-detection signal (docs/FAULTS.md)."""
        cluster = Cluster(2, cost="new-cluster", seed=0)
        net = cluster.network
        net.set_node_up(1, False)
        net.send_reliable(ControlMessage(MsgKind.CONTROL, 0, 1, op="ping"))
        with pytest.raises(DeliveryError):
            cluster.engine.run()
        assert net.stats.msgs_blackholed == net.MAX_RELIABLE_ATTEMPTS
        assert net.stats.msgs_dropped == net.MAX_RELIABLE_ATTEMPTS

    def test_unreliable_flood_never_raises(self):
        cluster = Cluster(2, cost=cluster_cost_with_zero_queue(), seed=0)
        for _ in range(100):
            cluster.network.send(UpdateBatch(MsgKind.UPDATE, 0, 1,
                                             inserts=[(1, 0)]))
        cluster.engine.run()  # drops silently; no exception
        assert cluster.network.stats.msgs_dropped == 100


def cluster_cost_with_zero_queue():
    from repro.sim.costmodel import NEW_CLUSTER

    # A receive queue that can hold nothing: every non-loopback arrival
    # is dropped.
    return NEW_CLUSTER.scaled(rx_queue_delay=0.0)


class TestLossyTracking:
    def test_half_lost_updates_checkpoint_still_exact(self):
        """Force heavy update loss, then checkpoint: the local phase
        papers over every hole."""
        from repro.sim.costmodel import NEW_CLUSTER

        # A receiver much slower than the scan guarantees heavy loss.
        slow_rx = NEW_CLUSTER.scaled(rx_per_msg=10e-6, rx_queue_delay=1e-3)
        cluster = Cluster(4, cost=slow_rx, seed=1)
        ents = workloads.instantiate(cluster,
                                     workloads.nasty(4, 4096, seed=1))
        concord = ConCORD(cluster, ConCORDConfig(use_network=True,
                                                 update_batch_size=1))
        concord.initial_scan()
        lost = cluster.network.stats.updates_lost
        tracked = concord.total_tracked_hashes
        total = sum(e.n_pages for e in ents)
        assert lost > 0
        assert tracked == total - lost
        store = CheckpointStore()
        r = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([e.entity_id for e in ents]))
        assert r.success
        for e in ents:
            assert (restore_entity(store, e.entity_id) == e.pages).all()
        assert r.stats.uncovered_blocks >= lost

    def test_lost_removes_leave_ghost_entries_that_commands_survive(self):
        """A lost *remove* leaves a ghost DHT entry (hash no entity still
        holds); commands must detect it as stale, not crash."""
        cluster = Cluster(2, cost="new-cluster", seed=2)
        e = Entity.create(cluster, 0,
                          np.arange(32, dtype=np.uint64) + 100)
        concord = ConCORD(cluster)  # lossless for the initial view
        concord.initial_scan()
        # Mutate; manually drop the removes (simulating their loss).
        old_hashes = e.content_hashes().copy()
        e.write_pages(np.arange(8), np.arange(8, dtype=np.uint64) + 999)
        mon = concord.monitors[0]
        mon.scan()
        # Lose the removes between monitor and engine, keep the inserts:
        # the ghost scenario.
        deliver = mon.sink
        mon.sink = lambda node, inserts, removes, duration=0.0: deliver(
            node, inserts, removes[:0], duration=duration)
        mon.flush()
        ghost = int(old_hashes[0])
        assert concord.num_copies(ghost).value == 1  # ghost present
        store = CheckpointStore()
        r = concord.execute_command(CollectiveCheckpoint(store),
                                    ServiceScope.of([e.entity_id]))
        assert r.stats.stale_unhandled >= 1
        assert (restore_entity(store, e.entity_id) == e.pages).all()


class TestVanishingEntities:
    def test_detached_entity_content_gone_from_view(self):
        cluster = Cluster(2, seed=3)
        a = Entity.create(cluster, 0, np.arange(16, dtype=np.uint64))
        b = Entity.create(cluster, 1, np.arange(16, dtype=np.uint64))
        concord = ConCORD(cluster)
        concord.initial_scan()
        concord.detach_entity(b.entity_id)
        h = int(a.content_hashes()[0])
        assert concord.entities(h).value == {a.entity_id}

    def test_checkpoint_with_detached_pe_falls_back(self):
        """The scope references a PE whose tracking was torn down after
        the DHT learned about it: its replicas fail, SEs still complete."""
        cluster = Cluster(2, seed=4)
        pages = np.arange(16, dtype=np.uint64) + 500
        se = Entity.create(cluster, 0, pages)
        pe = Entity.create(cluster, 1, pages.copy())
        concord = ConCORD(cluster)
        concord.initial_scan()
        # Wipe the PE's memory (crash) but leave stale DHT entries for it.
        pe.write_pages(np.arange(16),
                       np.arange(16, dtype=np.uint64) + 10**9)
        store = CheckpointStore()
        r = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([se.entity_id], [pe.entity_id]))
        assert r.success
        assert (restore_entity(store, se.entity_id) == se.pages).all()


class TestDegenerateEntities:
    def test_empty_entity_checkpoints_to_empty(self):
        cluster = Cluster(2, seed=5)
        empty = Entity.create(cluster, 0, np.empty(0, dtype=np.uint64))
        other = Entity.create(cluster, 1, np.arange(8, dtype=np.uint64))
        concord = ConCORD(cluster)
        concord.initial_scan()
        store = CheckpointStore()
        r = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([empty.entity_id, other.entity_id]))
        assert r.success
        assert len(restore_entity(store, empty.entity_id)) == 0
        assert (restore_entity(store, other.entity_id) == other.pages).all()

    def test_single_page_entity(self):
        cluster = Cluster(1, seed=6)
        e = Entity.create(cluster, 0, np.array([7], dtype=np.uint64))
        concord = ConCORD(cluster)
        concord.initial_scan()
        r = concord.execute_command(NullService(),
                                    ServiceScope.of([e.entity_id]))
        assert r.success
        assert r.stats.local_blocks == 1
        assert r.stats.coverage == 1.0

    def test_all_entities_identical(self):
        cluster = Cluster(4, seed=7)
        pages = np.arange(32, dtype=np.uint64)
        ents = [Entity.create(cluster, i, pages.copy()) for i in range(4)]
        concord = ConCORD(cluster)
        concord.initial_scan()
        store = CheckpointStore()
        r = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([e.entity_id for e in ents]))
        assert store.shared.n_blocks == 32  # 128 logical -> 32 stored
        for e in ents:
            assert (restore_entity(store, e.entity_id) == e.pages).all()


def read_dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestDegradedRunMatchesFaultFree:
    """The ISSUE acceptance scenario: >=20% datagram loss plus two of
    eight DHT home nodes crashed mid-run must not change what a collective
    checkpoint *saves* — only how much of it the collective phase covers —
    and after repair the content view converges back to the fault-free one.
    """

    N_NODES = 8
    VICTIMS = (6, 7)      # entity-free nodes: their death costs DHT state only
    PAGES = 256

    def _run(self, faulty: bool):
        cluster = Cluster(self.N_NODES, cost="new-cluster", seed=11)
        ents = workloads.instantiate(
            cluster, workloads.moldy(4, self.PAGES, seed=11))
        concord = ConCORD(cluster, ConCORDConfig(use_network=True))
        if faulty:
            plan = (FaultPlan()
                    .set_loss(0.0, 0.25)
                    .kill(0.05, *self.VICTIMS))
            concord.inject_faults(plan)
        concord.initial_scan(run_network=False)
        cluster.engine.run()
        return cluster, ents, concord

    def test_degraded_checkpoint_bytes_identical_and_repair_converges(self, tmp_path):
        eids = lambda ents: [e.entity_id for e in ents]  # noqa: E731

        # Fault-free, lossless reference run.
        _c0, ents0, ref = self._run(faulty=False)
        ref_store = CheckpointStore()
        assert ref.execute_command(CollectiveCheckpoint(ref_store),
                                   ServiceScope.of(eids(ents0))).success
        ref_answer = ref.sharing(eids(ents0))
        assert ref_answer.coverage == 1.0 and not ref_answer.degraded

        # Hostile run: 25% loss the whole way, two home shards die mid-scan.
        cluster, ents, concord = self._run(faulty=True)
        assert concord.detect_failures() == list(self.VICTIMS)
        assert concord.coverage == pytest.approx(
            (self.N_NODES - len(self.VICTIMS)) / self.N_NODES)

        degraded = concord.sharing(eids(ents))
        assert degraded.degraded
        assert degraded.coverage < 1.0

        store = CheckpointStore()
        r = concord.execute_command(CollectiveCheckpoint(store),
                                    ServiceScope.of(eids(ents)))
        assert r.success
        assert r.stats.coverage < 1.0        # the collective phase saw holes
        for e in ents:
            assert (restore_entity(store, e.entity_id) == e.pages).all()

        # Canonical serialization: byte-for-byte equal to the fault-free run.
        ref_store.write_to_dir(tmp_path / "ref", canonical=True)
        store.write_to_dir(tmp_path / "faulty", canonical=True)
        assert (read_dir_bytes(tmp_path / "faulty")
                == read_dir_bytes(tmp_path / "ref"))

        # Repair: restart the victims, heal the loss, rebuild every range.
        cluster.network.set_loss(0.0)
        for node in self.VICTIMS:
            concord.restart_node(node)
        report = concord.repair(full=True)
        assert report.ranges_repaired == self.N_NODES
        assert concord.coverage == 1.0

        healed = concord.sharing(eids(ents))
        assert healed.coverage == 1.0 and not healed.degraded
        assert healed.value == pytest.approx(ref_answer.value)
