"""Unit tests for collective VM reconstruction."""

import numpy as np
import pytest

from repro import Cluster, ConCORD, Entity, EntityKind, ServiceScope
from repro.services.checkpoint import CheckpointStore, CollectiveCheckpoint
from repro.services.reconstruct import (
    CollectiveReconstruction,
    ImageDescriptor,
    register_image,
)
from repro.util.hashing import page_hash, page_hashes
from tests.conftest import append_records


def build_world(overlap_fraction=0.5, n_pages=64, seed=0):
    """A stored image, live PEs sharing `overlap_fraction` of its content,
    and a blank target entity on node 0."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(4, seed=seed)
    image_pages = (np.arange(n_pages, dtype=np.uint64) + 10_000)
    n_overlap = int(n_pages * overlap_fraction)
    # Two live VMs that together still hold the first n_overlap pages.
    live1 = Entity.create(cluster, 1, np.concatenate([
        image_pages[:n_overlap // 2],
        rng.integers(1 << 40, 1 << 41, n_pages // 2, dtype=np.uint64)]),
        kind=EntityKind.VM)
    live2 = Entity.create(cluster, 2, np.concatenate([
        image_pages[n_overlap // 2:n_overlap],
        rng.integers(1 << 41, 1 << 42, n_pages // 2, dtype=np.uint64)]),
        kind=EntityKind.VM)

    # The backing checkpoint holding the full image.
    backing = CheckpointStore()
    f = backing.se_file(777)
    hs = page_hashes(image_pages)
    for idx, (h, cid) in enumerate(zip(hs.tolist(), image_pages.tolist())):
        f.add_data(idx, int(h), int(cid))

    # Blank target on node 0.
    target = Entity.create(cluster, 0,
                           np.zeros(n_pages, dtype=np.uint64),
                           kind=EntityKind.VM, name="target")
    concord = ConCORD(cluster)
    concord.initial_scan()
    descriptor = ImageDescriptor(entity_id=target.entity_id, hashes=hs)
    register_image(concord, target, descriptor)
    return cluster, concord, target, (live1, live2), backing, descriptor, \
        image_pages


def run_reconstruction(overlap=0.5, **kw):
    (cluster, concord, target, lives, backing, descriptor,
     image_pages) = build_world(overlap_fraction=overlap, **kw)
    svc = CollectiveReconstruction(descriptor, backing, backing_entity_id=777)
    scope = ServiceScope.of([target.entity_id],
                            [e.entity_id for e in lives])
    result = concord.execute_command(svc, scope)
    return target, image_pages, result, svc


class TestReconstruction:
    def test_image_fully_rebuilt(self):
        target, image_pages, result, _svc = run_reconstruction()
        assert result.success
        assert (target.pages == image_pages).all()

    def test_live_content_preferred_over_storage(self):
        target, _img, result, svc = run_reconstruction(overlap=0.5)
        st = [c.state for c in result.contexts.values() if c.state]
        from_net = sum(s.from_network for s in st)
        from_store = sum(s.from_storage for s in st)
        assert from_net > 0
        assert from_store > 0
        # roughly the overlap fraction comes from the network
        total = from_net + from_store
        assert 0.3 < from_net / total < 0.7

    def test_zero_overlap_all_from_storage(self):
        target, image_pages, result, _svc = run_reconstruction(overlap=0.0)
        assert (target.pages == image_pages).all()
        st = [c.state for c in result.contexts.values() if c.state]
        assert sum(s.from_network for s in st) == 0

    def test_full_overlap_mostly_network(self):
        target, image_pages, result, _svc = run_reconstruction(overlap=1.0)
        assert (target.pages == image_pages).all()
        st = [c.state for c in result.contexts.values() if c.state]
        assert sum(s.from_storage for s in st) == 0

    def test_network_bytes_accounted(self):
        _t, _i, result, _svc = run_reconstruction(overlap=1.0)
        assert result.stats.total_bytes > 64 * 4096 * 0.4

    def test_descriptor_from_checkpoint(self):
        """ImageDescriptor can be derived from a real collective
        checkpoint, closing the loop checkpoint -> reconstruct."""
        cluster = Cluster(2, seed=3)
        vm = Entity.create(cluster, 0,
                           np.arange(32, dtype=np.uint64) + 500,
                           kind=EntityKind.VM)
        concord = ConCORD(cluster)
        concord.initial_scan()
        store = CheckpointStore()
        concord.execute_command(CollectiveCheckpoint(store),
                                ServiceScope.of([vm.entity_id]))
        desc = ImageDescriptor.from_checkpoint(store, vm.entity_id)
        assert desc.n_pages == 32
        assert np.array_equal(desc.hashes, vm.content_hashes())

    def test_missing_hash_raises(self):
        (cluster, concord, target, lives, backing, descriptor,
         _img) = build_world(overlap_fraction=0.0)
        empty_backing = CheckpointStore()  # nothing stored at all
        svc = CollectiveReconstruction(descriptor, empty_backing,
                                       backing_entity_id=777)
        scope = ServiceScope.of([target.entity_id])
        with pytest.raises(KeyError):
            concord.execute_command(svc, scope)


class TestReadBacking:
    """The storage fallback resolves a page's record as restore does."""

    def svc(self, *records):
        backing = CheckpointStore()
        backing.shared.append(page_hash(40), 40)
        append_records(backing.se_file(777), records)
        descriptor = ImageDescriptor(entity_id=5, hashes=np.array(
            [page_hash(777)], dtype=np.uint64))
        return CollectiveReconstruction(descriptor, backing,
                                        backing_entity_id=777)

    @staticmethod
    def read(svc, want_hash, page_idx):
        """The storage fallback for one page, its shared-file offset looked
        up as the local phase looks up every page's."""
        offset = int(svc.backing.shared.offsets_of([want_hash])[0])
        return svc._read_backing(want_hash, page_idx, offset)

    def test_base_pointer_is_refused_not_read_as_content(self):
        svc = self.svc(("bptr", 0, page_hash(777), 5))
        with pytest.raises(ValueError, match="page 0 is a base pointer"):
            self.read(svc, page_hash(777), 0)

    def test_pointer_and_data_records_resolve(self):
        svc = self.svc(("data", 1, page_hash(778), 778),
                       ("ptr", 0, page_hash(41), 0))
        assert self.read(svc, page_hash(777), 0) == 40
        assert self.read(svc, page_hash(777), 1) == 778
        assert self.read(svc, page_hash(40), 9) == 40  # shared file hit
        with pytest.raises(KeyError):
            self.read(svc, page_hash(777), 2)

    def test_pointer_past_the_shared_file_is_named(self):
        svc = self.svc(("ptr", 0, page_hash(41), 3))
        with pytest.raises(ValueError, match="page 0 points at shared-file "
                           "offset 3, past the end"):
            self.read(svc, page_hash(777), 0)


def test_backing_file_resolves_once_per_local_phase(monkeypatch):
    """A data-only backing file restores every page exactly, resolving
    its content IDs once for the phase rather than once per page (which
    made a storage-only rebuild quadratic in the image size)."""
    calls = []
    real = CheckpointStore._content_ids

    def counted(self, f, *args):
        calls.append(f)
        return real(self, f, *args)

    monkeypatch.setattr(CheckpointStore, "_content_ids", counted)
    target, image_pages, result, svc = run_reconstruction(overlap=0.0,
                                                          n_pages=4000)
    assert result.success
    assert (target.pages == image_pages).all()
    assert sum(c.state.from_storage for c in result.contexts.values()
               if c.state) == 4000
    assert calls == [svc.backing.se_files[777]]
