"""Property-based tests for the extension subsystems."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.costmodel import NEW_CLUSTER
from repro.sim.engine import SimEngine
from repro.sim.network import Network
from repro.storage import AppendLog, IOCosts
from repro.util.records import Message, MsgKind, UpdateBatch

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestAppendLogProps:
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4096)),
                    max_size=120))
    def test_append_once_is_a_function_of_key(self, ops):
        """Whatever the interleaving, each key maps to exactly one offset
        and the payload first associated with it."""
        log = AppendLog("t", IOCosts())
        first: dict[int, int] = {}
        for key, size in ops:
            off, created = log.append_once(key, f"payload-{key}", size)
            if key in first:
                assert not created
                assert off == first[key]
            else:
                assert created
                first[key] = off
        assert log.n_records == len(first)
        for key, off in first.items():
            assert log.read(off) == f"payload-{key}"

    @given(st.lists(st.integers(0, 10_000), max_size=100))
    def test_total_bytes_is_sum(self, sizes):
        log = AppendLog("t", IOCosts())
        for i, s in enumerate(sizes):
            log.append(i, s)
        assert log.total_bytes == sum(sizes)


class TestNetworkConservation:
    @SLOW
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(1, 64)),
                    min_size=1, max_size=300))
    def test_sent_equals_delivered_plus_dropped(self, sends):
        """Message conservation: after the engine drains, every datagram
        was either delivered or dropped — none lingers, none duplicates."""
        eng = SimEngine()
        net = Network(eng, NEW_CLUSTER, 4)
        delivered = []
        for src, dst, n in sends:
            net.send(UpdateBatch(MsgKind.UPDATE, src, dst,
                                 inserts=[(i, 0) for i in range(n)]),
                     on_deliver=lambda m: delivered.append(m))
        eng.run()
        s = net.stats
        assert s.msgs_sent == len(sends)
        assert s.msgs_delivered + s.msgs_dropped == s.msgs_sent
        assert len(delivered) == s.msgs_delivered
        assert s.updates_sent == sum(n for _s, _d, n in sends)
        assert s.updates_lost <= s.updates_sent

    @SLOW
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=60))
    def test_rdma_messages_never_dropped_under_light_load(self, pairs):
        eng = SimEngine()
        net = Network(eng, NEW_CLUSTER, 3)
        for src, dst in pairs:
            net.send(Message(MsgKind.UPDATE, src, dst, one_sided=True))
        eng.run()
        assert net.stats.msgs_dropped == 0


class TestPlacementProps:
    @SLOW
    @given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 50))
    def test_colocation_is_total_and_capacity_safe(self, n_entities,
                                                   capacity, seed):
        from repro.analysis import placement_sharing_score, suggest_colocation
        from tests.analysis.test_placement import random_sharing_graph

        g = random_sharing_graph(n_entities, seed)
        n_nodes = (n_entities + capacity - 1) // capacity
        placement = suggest_colocation(g, n_nodes=n_nodes, capacity=capacity)
        assert set(placement) == set(range(n_entities))
        from collections import Counter
        assert max(Counter(placement.values()).values()) <= capacity
        assert placement_sharing_score(g, placement) >= 0


class TestVMProps:
    @SLOW
    @given(st.integers(1, 32), st.integers(0, 8), st.integers(0, 4),
           st.integers(0, 10**6))
    def test_guest_address_space_partitions(self, ram, device, rom, seed):
        from repro.memory.vm import VirtualMachine
        from repro.sim.cluster import Cluster

        cluster = Cluster(1, seed=0)
        vm = VirtualMachine(
            cluster, 0, np.arange(ram, dtype=np.uint64) + seed,
            device_pages=device,
            rom_pages=(np.arange(rom, dtype=np.uint64) + 10**9
                       if rom else None))
        # Every guest page belongs to exactly one region.
        total = vm.n_guest_pages
        assert total == ram + device + rom
        for gp in range(total):
            r = vm.region_of(gp)
            assert r.contains(gp)
            vm.guest_read(gp)  # readable everywhere
        with pytest.raises(ValueError):
            vm.region_of(total)


class TestIncrementalProps:
    @SLOW
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)),
                    max_size=25),
           st.integers(0, 1000))
    def test_increment_plus_base_is_identity(self, writes, seed):
        from repro import (CheckpointStore, Cluster, CollectiveCheckpoint,
                           ConCORD, Entity, ServiceScope)
        from repro.services.incremental import (
            IncrementalCheckpoint, restore_incremental_entity)

        cluster = Cluster(2, seed=seed)
        e = Entity.create(cluster, 0,
                          np.arange(32, dtype=np.uint64) + seed * 100)
        concord = ConCORD(cluster)
        concord.initial_scan()
        base = CheckpointStore()
        concord.execute_command(CollectiveCheckpoint(base),
                                ServiceScope.of([e.entity_id]))
        for idx, val in writes:
            e.write_page(idx % 32, val)
        # No resync: maximum staleness.
        inc = CheckpointStore()
        r = concord.execute_command(IncrementalCheckpoint(inc, base),
                                    ServiceScope.of([e.entity_id]))
        assert r.success
        assert (restore_incremental_entity(inc, base, e.entity_id)
                == e.pages).all()
