"""Unit tests for the node-specific module."""

import numpy as np
import pytest

from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef, NodeSpecificModule
from repro.sim.cluster import Cluster


def make(pages=(10, 20, 30)):
    c = Cluster(2)
    e = Entity.create(c, 0, np.array(pages, dtype=np.uint64))
    nsm = NodeSpecificModule(c, 0)
    nsm.attach_entity(e)
    return c, e, nsm


class TestAttachment:
    def test_attach(self):
        _c, e, nsm = make()
        assert e.entity_id in nsm.entity_ids
        assert nsm.entities() == [e]

    def test_attach_idempotent(self):
        _c, e, nsm = make()
        nsm.attach_entity(e)
        assert nsm.entity_ids.count(e.entity_id) == 1

    def test_wrong_node_rejected(self):
        c = Cluster(2)
        e = Entity.create(c, 1, np.arange(2, dtype=np.uint64))
        with pytest.raises(ValueError):
            NodeSpecificModule(c, 0).attach_entity(e)

    def test_unregistered_rejected(self):
        c = Cluster(1)
        e = Entity(0, np.arange(2, dtype=np.uint64))
        with pytest.raises(ValueError):
            NodeSpecificModule(c, 0).attach_entity(e)


class TestScannedView:
    def test_record_scan_builds_map(self):
        _c, e, nsm = make()
        assert nsm.scanned_hashes_of(e.entity_id) is None
        nsm.record_scan(e, e.content_hashes())
        scanned = nsm.scanned_hashes_of(e.entity_id)
        assert scanned.dtype == np.uint64
        assert (scanned == e.content_hashes()).all()

    def test_rescan_replaces(self):
        _c, e, nsm = make()
        old_h = int(e.content_hashes()[0])
        nsm.record_scan(e, e.content_hashes())
        e.write_page(0, 99)
        # The recorded view is a snapshot: it does not follow the write...
        assert int(nsm.scanned_hashes_of(e.entity_id)[0]) == old_h
        nsm.record_scan(e, e.content_hashes())
        # ...until the next scan replaces it.
        scanned = nsm.scanned_hashes_of(e.entity_id)
        assert old_h not in scanned.tolist()
        assert (scanned == e.content_hashes()).all()

    def test_duplicate_content_lists_both_blocks(self):
        _c, e, nsm = make(pages=(5, 5, 7))
        nsm.record_scan(e, e.content_hashes())
        h = int(e.content_hashes()[0])
        scanned = nsm.scanned_hashes_of(e.entity_id)
        assert np.flatnonzero(scanned == h).tolist() == [0, 1]

    def test_update_blocks_assigns_pages(self):
        _c, e, nsm = make()
        nsm.record_scan(e, e.content_hashes())
        e.write_page(1, 77)
        new_h = e.content_hashes()[[1]]
        nsm.update_blocks(e, np.array([1]), new_h)
        assert (nsm.scanned_hashes_of(e.entity_id)
                == e.content_hashes()).all()

    def test_update_blocks_needs_a_scan_base(self):
        _c, e, nsm = make()
        with pytest.raises(ValueError):
            nsm.update_blocks(e, np.array([0]), e.content_hashes()[[0]])

    def test_detach_purges(self):
        _c, e, nsm = make()
        nsm.record_scan(e, e.content_hashes())
        nsm.detach_entity(e.entity_id)
        assert nsm.entity_ids == []
        assert nsm.scanned_hashes_of(e.entity_id) is None


class TestGroundTruth:
    def test_resolve_block_current(self):
        _c, e, nsm = make()
        h = int(e.content_hashes()[2])
        ref = nsm.resolve_block(e.entity_id, h)
        assert ref == BlockRef(e.entity_id, 2, 4096)
        assert ref.pointer == (e.entity_id, 2)
        assert nsm.read_block(ref) == 30

    def test_resolve_detects_staleness(self):
        """The central mechanism: content mutated after a scan resolves to
        None even though the scanned view still lists it."""
        _c, e, nsm = make()
        h = int(e.content_hashes()[0])
        nsm.record_scan(e, e.content_hashes())
        e.write_page(0, 999)
        # The scanned view is stale: it still lists the old hash.
        assert h in nsm.scanned_hashes_of(e.entity_id).tolist()
        assert nsm.resolve_block(e.entity_id, h) is None  # truth wins

    def test_resolve_new_content_without_scan(self):
        _c, e, nsm = make()
        e.write_page(0, 4242)
        h = int(e.content_hashes()[0])
        assert nsm.resolve_block(e.entity_id, h) is not None

    def test_resolve_wrong_node(self):
        c = Cluster(2)
        e = Entity.create(c, 1, np.arange(3, dtype=np.uint64))
        nsm0 = NodeSpecificModule(c, 0)
        assert nsm0.resolve_block(e.entity_id, int(e.content_hashes()[0])) is None
