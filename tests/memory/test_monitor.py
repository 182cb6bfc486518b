"""Unit tests for memory update monitors."""

import numpy as np
import pytest

from repro import ConCORD, ConCORDConfig
from repro.memory.entity import Entity
from repro.memory.monitor import MemoryUpdateMonitor, MonitorMode, multiset_diff
from repro.memory.nsm import NodeSpecificModule
from repro.sim.cluster import Cluster
from repro.sim.costmodel import NEW_CLUSTER


class CollectingSink:
    """Checks the one update format — (n, 2) uint64 rows of (hash, entity)
    — and keeps the rows as int tuples for the assertions below."""

    def __init__(self):
        self.inserts = []
        self.removes = []
        self.calls = 0
        self.durations = []

    def __call__(self, node_id, inserts, removes, duration=0.0):
        self.calls += 1
        for rows in (inserts, removes):
            assert rows.dtype == np.uint64 and rows.shape[1:] == (2,)
        self.inserts.extend(map(tuple, inserts.tolist()))
        self.removes.extend(map(tuple, removes.tolist()))
        self.durations.append(duration)


def make(pages=(1, 2, 3, 2), mode=MonitorMode.PERIODIC_SCAN, throttle=None):
    c = Cluster(1)
    e = Entity.create(c, 0, np.array(pages, dtype=np.uint64))
    nsm = NodeSpecificModule(c, 0)
    nsm.attach_entity(e)
    sink = CollectingSink()
    mon = MemoryUpdateMonitor(nsm, sink, NEW_CLUSTER, mode=mode,
                              throttle_updates_per_s=throttle)
    return c, e, nsm, sink, mon


class TestMultisetDiff:
    def test_empty(self):
        ins, rem = multiset_diff(np.empty(0, np.uint64), np.empty(0, np.uint64))
        assert len(ins) == 0 and len(rem) == 0

    def test_pure_insert(self):
        ins, rem = multiset_diff(np.empty(0, np.uint64),
                                 np.array([5, 5, 7], dtype=np.uint64))
        assert sorted(ins.tolist()) == [5, 5, 7]
        assert len(rem) == 0

    def test_multiplicity(self):
        old = np.array([1, 1, 1, 2], dtype=np.uint64)
        new = np.array([1, 2, 2, 3], dtype=np.uint64)
        ins, rem = multiset_diff(old, new)
        assert sorted(ins.tolist()) == [2, 3]
        assert sorted(rem.tolist()) == [1, 1]

    def test_no_change(self):
        a = np.array([9, 9, 4], dtype=np.uint64)
        ins, rem = multiset_diff(a, a[::-1])
        assert len(ins) == 0 and len(rem) == 0


class TestInitialScan:
    def test_inserts_every_page(self):
        _c, e, nsm, sink, mon = make()
        n = mon.initial_scan()
        mon.flush()
        assert n == 4
        assert len(sink.inserts) == 4
        assert len(sink.removes) == 0
        # all inserts carry the entity id
        assert {eid for _h, eid in sink.inserts} == {e.entity_id}

    def test_populates_nsm_map(self):
        _c, e, nsm, _sink, mon = make()
        mon.initial_scan()
        scanned = nsm.scanned_hashes_of(e.entity_id)
        assert (scanned == e.content_hashes()).all()
        assert len(np.unique(scanned)) == 3  # pages (1,2,3,2) -> 3 distinct

    def test_charges_cpu(self):
        _c, _e, _nsm, _sink, mon = make()
        mon.initial_scan()
        assert mon.stats.cpu_time > 0
        assert mon.stats.pages_hashed == 4


class TestRescans:
    def test_idempotent_rescan_produces_nothing(self):
        _c, _e, _nsm, sink, mon = make()
        mon.initial_scan()
        mon.flush()
        assert mon.scan() == 0
        mon.flush()
        assert len(sink.inserts) == 4

    def test_mutation_produces_delta(self):
        _c, e, _nsm, sink, mon = make()
        mon.initial_scan()
        mon.flush()
        old_h = int(e.content_hashes()[0])
        e.write_page(0, 42)
        new_h = int(e.content_hashes()[0])
        assert mon.scan() == 2
        mon.flush()
        assert (new_h, e.entity_id) in sink.inserts
        assert (old_h, e.entity_id) in sink.removes

    def test_dirty_mode_hashes_only_dirty_pages(self):
        _c, e, _nsm, _sink, mon = make(pages=tuple(range(100)),
                                       mode=MonitorMode.DIRTY_BIT)
        mon.initial_scan()
        hashed0 = mon.stats.pages_hashed
        e.write_page(3, 4242)
        mon.scan()
        assert mon.stats.pages_hashed == hashed0 + 1

    def test_dirty_mode_no_writes_no_updates(self):
        _c, _e, _nsm, _sink, mon = make(mode=MonitorMode.DIRTY_BIT)
        mon.initial_scan()
        assert mon.scan() == 0

    def test_dirty_and_scan_modes_agree_on_delta(self):
        for mode in (MonitorMode.PERIODIC_SCAN, MonitorMode.DIRTY_BIT,
                     MonitorMode.COW):
            _c, e, _nsm, sink, mon = make(pages=(1, 2, 3, 4), mode=mode)
            mon.initial_scan()
            mon.flush()
            sink.inserts.clear()
            e.write_page(1, 77)
            mon.scan()
            mon.flush()
            assert len(sink.inserts) == 1, mode
            assert len(sink.removes) == 1, mode

    def test_cow_mode_charges_fault_overhead(self):
        _c, e, _n, _s, mon_cow = make(mode=MonitorMode.COW)
        mon_cow.initial_scan()
        base = mon_cow.stats.cpu_time
        e.write_page(0, 9)
        mon_cow.scan()
        _c2, e2, _n2, _s2, mon_dirty = make(mode=MonitorMode.DIRTY_BIT)
        mon_dirty.initial_scan()
        base2 = mon_dirty.stats.cpu_time
        e2.write_page(0, 9)
        mon_dirty.scan()
        assert (mon_cow.stats.cpu_time - base) > (mon_dirty.stats.cpu_time - base2)


class TestThrottling:
    def test_budget_limits_flush(self):
        _c, _e, _nsm, sink, mon = make(pages=tuple(range(50)), throttle=10.0)
        mon.initial_scan()
        sent = mon.flush(interval=1.0)
        assert sent == 10
        assert mon.pending_updates == 40

    def test_pending_drains_over_time(self):
        _c, _e, _nsm, sink, mon = make(pages=tuple(range(20)), throttle=10.0)
        mon.initial_scan()
        total = 0
        for _ in range(3):
            total += mon.flush(interval=1.0)
        assert total == 20
        assert mon.pending_updates == 0

    def test_unthrottled_flush_sends_all(self):
        _c, _e, _nsm, sink, mon = make(pages=tuple(range(30)))
        mon.initial_scan()
        assert mon.flush() == 30

    def test_stats_track_deferred_peak(self):
        _c, _e, _nsm, _sink, mon = make(pages=tuple(range(50)), throttle=1.0)
        mon.initial_scan()
        assert mon.stats.updates_deferred_peak == 50

    def test_throttled_flushes_hand_over_production_order(self):
        """Each throttled flush hands the sink exactly the first ``budget``
        queued updates — across entity and insert/remove boundaries — and
        the flushes together emit what one unthrottled flush would."""
        c = Cluster(1)
        ents = [Entity.create(c, 0, np.arange(8, dtype=np.uint64) + 100 * i)
                for i in range(2)]
        nsm = NodeSpecificModule(c, 0)
        for e in ents:
            nsm.attach_entity(e)
        sink = CollectingSink()
        mon = MemoryUpdateMonitor(nsm, sink, NEW_CLUSTER,
                                  throttle_updates_per_s=4.0)
        mon.initial_scan()
        mon.flush()  # no interval: unthrottled
        before = [e.content_hashes().copy() for e in ents]
        for i, e in enumerate(ents):
            e.write_pages(np.arange(3),
                          np.arange(3, dtype=np.uint64) + 900 + 10 * i)
        # A scan queues, per entity in turn, its inserts then its removes.
        queued = []
        for e, old in zip(ents, before):
            ins, rem = multiset_diff(old, e.content_hashes())
            queued += [("i", h, e.entity_id) for h in ins.tolist()]
            queued += [("r", h, e.entity_id) for h in rem.tolist()]
        assert mon.scan() == len(queued) == 12
        sink.inserts.clear()
        for k in range(3):
            n_i, n_r = len(sink.inserts), len(sink.removes)
            assert mon.flush(interval=1.0) == 4
            want = queued[4 * k:4 * k + 4]
            assert sink.inserts[n_i:] == [u[1:] for u in want if u[0] == "i"]
            assert sink.removes[n_r:] == [u[1:] for u in want if u[0] == "r"]
        assert mon.pending_updates == 0
        assert sink.inserts == [u[1:] for u in queued if u[0] == "i"]
        assert sink.removes == [u[1:] for u in queued if u[0] == "r"]


class TestRegistryAccounting:
    @pytest.mark.parametrize("mode", list(MonitorMode))
    def test_registry_counters_match_monitor_stats(self, mode):
        """The platform-wide ``monitor.*`` counters and the per-node
        ``MonitorStats`` advance together on every discovery path — scans
        and, for CoW, write faults."""
        cluster = Cluster(2, seed=1)
        ents = [Entity.create(cluster, i % 2,
                              np.arange(16, dtype=np.uint64) + 100 * i)
                for i in range(3)]
        concord = ConCORD(cluster, ConCORDConfig(monitor_mode=mode))
        concord.initial_scan()
        if mode is MonitorMode.COW:
            for mon in concord.monitors:
                mon.enable_write_faults()
        for i, e in enumerate(ents):
            e.write_pages(np.arange(4),
                          np.arange(4, dtype=np.uint64) + 5000 + 10 * i)
        concord.sync()  # scan + unthrottled flush on every node
        reg = concord.obs.registry
        stats = concord.monitor_stats()
        produced = sum(s.updates_produced for s in stats)
        assert produced == 3 * 16 + 3 * 8
        assert sum(s.updates_sent for s in stats) == produced
        assert reg.value("monitor.updates_produced") == produced
        assert reg.value("monitor.updates_sent") == produced
        assert reg.value("monitor.pages_hashed") == sum(
            s.pages_hashed for s in stats)


class TestPeriodicOperation:
    def test_run_periodic_on_engine(self):
        c, e, _nsm, sink, mon = make(pages=tuple(range(10)))
        mon.initial_scan()
        mon.flush()
        mon.run_periodic(c.engine, period=1.0, horizon=5.0)
        c.engine.at(2.5, e.write_page, 0, 999)
        c.engine.run()
        assert mon.stats.scans >= 5
        # The mutation at t=2.5 was picked up by a later scan.
        new_h = int(e.content_hashes()[0])
        assert (new_h, e.entity_id) in sink.inserts

    def test_overhead_fraction(self):
        _c, _e, _nsm, _sink, mon = make(pages=tuple(range(100)))
        mon.initial_scan()
        frac = mon.stats.cpu_overhead(elapsed=2.0)
        assert 0 < frac < 1
        assert mon.stats.cpu_overhead(0) == 0.0
