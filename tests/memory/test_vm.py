"""Unit tests for the VM abstraction and write-fault (CoW) monitoring."""

import numpy as np
import pytest

from repro import (Cluster, ConCORD, ConCORDConfig, EntityKind,
                   ServiceScope, workloads)
from repro.memory.monitor import MonitorMode
from repro.memory.vm import MemoryRegion, MemoryRegionKind, VirtualMachine


def make_vm(ram=16, device=4, rom=2, node=0, seed=0):
    cluster = Cluster(2, seed=seed)
    ram_pages = np.arange(ram, dtype=np.uint64) + 100
    rom_pages = np.arange(rom, dtype=np.uint64) + 90_000
    vm = VirtualMachine(cluster, node, ram_pages, name="testvm",
                        device_pages=device, rom_pages=rom_pages, seed=seed)
    return cluster, vm


class TestLayout:
    def test_regions_in_order(self):
        _c, vm = make_vm()
        kinds = [r.kind for r in vm.regions]
        assert kinds == [MemoryRegionKind.ROM, MemoryRegionKind.RAM,
                         MemoryRegionKind.DEVICE]
        assert vm.n_guest_pages == 2 + 16 + 4
        assert vm.guest_memory_bytes == 22 * 4096

    def test_region_lookup(self):
        _c, vm = make_vm()
        assert vm.region_of(0).kind is MemoryRegionKind.ROM
        assert vm.region_of(2).kind is MemoryRegionKind.RAM
        assert vm.region_of(18).kind is MemoryRegionKind.DEVICE
        with pytest.raises(ValueError):
            vm.region_of(22)

    def test_only_ram_trackable(self):
        _c, vm = make_vm()
        assert [r.trackable for r in vm.regions] == [False, True, False]

    def test_region_validation(self):
        with pytest.raises(ValueError):
            MemoryRegion("bad", 0, 0, MemoryRegionKind.RAM)
        with pytest.raises(ValueError):
            MemoryRegion("bad", -1, 4, MemoryRegionKind.RAM)

    def test_entity_is_registered_vm(self):
        cluster, vm = make_vm()
        assert vm.entity.kind is EntityKind.VM
        assert vm.entity.entity_id in cluster.entities


class TestGuestAccess:
    def test_read_each_region(self):
        _c, vm = make_vm()
        assert vm.guest_read(0) == 90_000       # ROM
        assert vm.guest_read(2) == 100          # RAM page 0
        assert isinstance(vm.guest_read(18), int)  # device

    def test_ram_write_reaches_entity(self):
        _c, vm = make_vm()
        vm.guest_write(3, 4242)
        assert vm.entity.read_page(1) == 4242
        assert vm.entity.dirty[1]

    def test_device_write_untracked(self):
        _c, vm = make_vm()
        v0 = vm.entity.version
        vm.guest_write(18, 777)
        assert vm.guest_read(18) == 777
        assert vm.entity.version == v0  # entity untouched

    def test_rom_write_rejected(self):
        _c, vm = make_vm()
        with pytest.raises(PermissionError):
            vm.guest_write(0, 1)


class TestPauseResume:
    def test_pause_blocks_writes(self):
        _c, vm = make_vm()
        vm.pause()
        assert vm.paused
        with pytest.raises(RuntimeError):
            vm.guest_write(2, 1)
        with pytest.raises(RuntimeError):
            vm.guest_write(18, 1)  # device writes also fenced
        vm.resume()
        vm.guest_write(2, 1)
        assert vm.guest_read(2) == 1

    def test_consistent_hashes_resumes(self):
        _c, vm = make_vm()
        hs = vm.consistent_hashes()
        assert len(hs) == 16
        assert not vm.paused
        vm.guest_write(2, 9)  # writable again

    def test_untracked_device_content_not_in_dht(self):
        cluster, vm = make_vm()
        concord = ConCORD(cluster)
        concord.initial_scan()
        from repro.util.hashing import page_hash
        dev_cid = vm.guest_read(18)
        assert concord.num_copies(page_hash(dev_cid)).value == 0
        ram_h = int(vm.entity.content_hashes()[0])
        assert concord.num_copies(ram_h).value == 1


class TestWriteFaultMonitoring:
    def make_cow_system(self):
        cluster = Cluster(1, seed=3)
        ents = workloads.instantiate(cluster, workloads.nasty(1, 32, seed=3))
        concord = ConCORD(cluster, ConCORDConfig(monitor_mode=MonitorMode.COW))
        concord.initial_scan()
        mon = concord.monitors[0]
        mon.enable_write_faults()
        return cluster, ents[0], concord, mon

    def test_write_queues_updates_immediately(self):
        _c, e, concord, mon = self.make_cow_system()
        old_h = int(e.content_hashes()[0])
        e.write_page(0, 999_999)
        new_h = int(e.content_hashes()[0])
        assert mon.pending_updates == 2  # one remove + one insert
        mon.flush()
        assert concord.num_copies(new_h).value == 1
        assert concord.num_copies(old_h).value == 0

    def test_nsm_view_updated_incrementally(self):
        _c, e, _concord, mon = self.make_cow_system()
        e.write_page(3, 555)
        new_h = int(e.content_hashes()[3])
        assert int(mon.nsm.scanned_hashes_of(e.entity_id)[3]) == new_h
        # Ground-truth resolution still agrees.
        assert mon.nsm.resolve_block(e.entity_id, new_h) is not None

    def test_rewrite_same_content_produces_nothing(self):
        _c, e, _concord, mon = self.make_cow_system()
        e.write_page(0, e.read_page(0))
        assert mon.pending_updates == 0

    def test_dirty_bits_cleared_so_scans_dont_duplicate(self):
        _c, e, _concord, mon = self.make_cow_system()
        e.write_page(0, 111)
        assert not e.dirty[0]
        assert mon.scan() == 0  # nothing left for the periodic pass

    def test_requires_cow_mode(self):
        cluster = Cluster(1)
        workloads.instantiate(cluster, workloads.nasty(1, 8))
        concord = ConCORD(cluster,
                          ConCORDConfig(monitor_mode=MonitorMode.PERIODIC_SCAN))
        with pytest.raises(ValueError):
            concord.monitors[0].enable_write_faults()

    def test_disable_unhooks(self):
        _c, e, _concord, mon = self.make_cow_system()
        mon.disable_write_faults()
        e.write_page(0, 222)
        assert mon.pending_updates == 0
        assert e.dirty[0]  # back to dirty-bit territory

    def test_checkpoint_of_cow_tracked_vm_is_exact(self):
        """End to end: VM under write-fault tracking, writes right up to
        the checkpoint, pause, checkpoint, verify."""
        from repro import CheckpointStore, CollectiveCheckpoint, restore_entity

        cluster = Cluster(2, seed=5)
        ram = np.arange(64, dtype=np.uint64) + 5_000
        vm = VirtualMachine(cluster, 0, ram, device_pages=4, seed=5)
        concord = ConCORD(cluster, ConCORDConfig(monitor_mode=MonitorMode.COW))
        concord.initial_scan()
        concord.monitors[0].enable_write_faults()
        for i in range(10):
            vm.guest_write(i, 77_000 + i)
        concord.monitors[0].flush()
        vm.pause()
        store = CheckpointStore()
        r = concord.execute_command(CollectiveCheckpoint(store),
                                    ServiceScope.of([vm.entity.entity_id]))
        vm.resume()
        assert r.success
        assert r.stats.stale_unhandled == 0  # CoW view was fresh
        assert (restore_entity(store, vm.entity.entity_id)
                == vm.entity.pages).all()
