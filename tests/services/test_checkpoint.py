"""Unit tests for collective checkpointing (paper §6)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.core.command import ExecMode
from repro.core.scope import ServiceScope
from repro.harness.benchsuite import RECIPES
from repro.memory.pagedata import intern_chunk
from repro.queries.reference import ReferenceModel
from repro.services.checkpoint import (
    CheckpointStore,
    CollectiveCheckpoint,
    RawCheckpoint,
    restore_entity,
)
from repro.services.incremental import (CheckpointChain,
                                        restore_incremental_entity)
from repro.util.hashing import page_hash
from repro import workloads
from tests.conftest import append_records, make_system


def checkpoint(concord, ents, mode=ExecMode.INTERACTIVE, pes=()):
    store = CheckpointStore()
    ses = [e.entity_id for e in ents if e.entity_id not in set(pes)]
    result = concord.execute_command(CollectiveCheckpoint(store),
                                     ServiceScope.of(ses, pes), mode=mode)
    return store, result


class TestRoundTrip:
    def test_restore_identity(self, cluster4, moldy4, concord4):
        store, result = checkpoint(concord4, moldy4)
        assert result.success
        for e in moldy4:
            assert (restore_entity(store, e.entity_id) == e.pages).all()

    def test_restore_identity_batch_mode(self, cluster4, moldy4, concord4):
        store, result = checkpoint(concord4, moldy4, mode=ExecMode.BATCH)
        for e in moldy4:
            assert (restore_entity(store, e.entity_id) == e.pages).all()

    def test_restore_under_staleness(self):
        cluster, ents, concord = make_system(n_nodes=4)
        rng = np.random.default_rng(1)
        for e in ents:
            e.mutate_random(0.4, rng)
        store, result = checkpoint(concord, ents)
        assert result.stats.stale_unhandled > 0
        for e in ents:
            assert (restore_entity(store, e.entity_id) == e.pages).all()

    def test_restore_missing_entity_raises(self, concord4, moldy4):
        store, _ = checkpoint(concord4, moldy4)
        with pytest.raises(KeyError):
            restore_entity(store, 999)


class TestDeduplication:
    def test_each_distinct_block_once_in_shared_file(self, cluster4, moldy4,
                                                     concord4):
        store, result = checkpoint(concord4, moldy4)
        ids = store.shared.blocks
        assert len(ids) == len(set(ids))  # no duplicates
        ref = ReferenceModel(cluster4)
        distinct = ref.distinct_content([e.entity_id for e in moldy4])
        assert len(ids) == len(distinct)

    def test_se_files_hold_only_pointers_when_synced(self, concord4, moldy4):
        store, _ = checkpoint(concord4, moldy4)
        for f in store.se_files.values():
            assert f.n_data_records == 0
            assert f.n_pointer_records > 0

    def test_compression_ratio_tracks_dos(self, cluster4, moldy4, concord4):
        """Fig 14a: the ConCORD ratio matches the degree of sharing."""
        store, _ = checkpoint(concord4, moldy4)
        dos = concord4.degree_of_sharing([e.entity_id for e in moldy4]).value
        assert store.compression_ratio == pytest.approx(dos, abs=0.03)

    def test_nasty_overhead_minuscule(self):
        """Fig 14b: with no redundancy the overhead stays tiny."""
        _c, ents, concord = make_system(n_nodes=4,
                                        spec=workloads.nasty(4, 256))
        store, _ = checkpoint(concord, ents)
        assert 1.0 <= store.compression_ratio < 1.02

    def test_pe_content_contributes(self):
        """A PE holding an SE's page provides the shared copy."""
        from repro import Cluster, ConCORD, Entity

        cluster = Cluster(2, seed=0)
        pages = np.arange(50, 66, dtype=np.uint64)
        se = Entity.create(cluster, 0, pages)
        pe = Entity.create(cluster, 1, pages.copy())
        concord = ConCORD(cluster)
        concord.initial_scan()
        store = CheckpointStore()
        result = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([se.entity_id], [pe.entity_id]))
        assert result.stats.coverage == 1.0
        assert (restore_entity(store, se.entity_id) == se.pages).all()
        # The PE itself got no checkpoint file.
        assert pe.entity_id not in store.se_files


class TestSizesAndGzip:
    def test_raw_size_accounts_every_block(self, cluster4, moldy4, concord4):
        store, _ = checkpoint(concord4, moldy4)
        total_pages = sum(e.n_pages for e in moldy4)
        assert store.raw_size_bytes >= total_pages * 4096

    def test_gzip_model_orders(self, concord4, moldy4):
        store, _ = checkpoint(concord4, moldy4)
        raw_gzip, concord_gzip = store.gzip_sizes_model(0.62)
        assert concord_gzip < store.concord_size_bytes
        assert raw_gzip < store.raw_size_bytes
        assert concord_gzip < raw_gzip

    def test_gzip_real_bytes(self):
        """Real zlib on materialized pages: ConCORD+gzip beats raw+gzip
        when redundancy exists, because gzip's window misses far-apart
        duplicate pages."""
        _c, ents, concord = make_system(n_nodes=2,
                                        spec=workloads.moldy(2, 64, seed=8))
        store, _ = checkpoint(concord, ents)
        raw_gzip, concord_gzip = store.gzip_sizes_real()
        assert concord_gzip < raw_gzip
        assert raw_gzip < store.raw_size_bytes

    def test_gzip_real_refuses_an_increment(self):
        """An increment's base pointers are offsets into its *base's*
        shared file: its real sizes cannot be taken alone (this read them
        from the increment's own file — IndexError here, a wrong block
        had the file been longer)."""
        world, svc, scope, _outcome = RECIPES["incremental"][0]()
        world.concord.execute_command(svc, scope)
        assert any(rec[0] == "bptr" for f in svc.store.se_files.values()
                   for rec in f.records)
        with pytest.raises(ValueError, match="incremental"):
            svc.store.gzip_sizes_real()


class TestOnDiskFormat:
    def test_write_load_restore(self, tmp_path):
        _c, ents, concord = make_system(n_nodes=2,
                                        spec=workloads.moldy(2, 32, seed=9))
        store, _ = checkpoint(concord, ents)
        store.write_to_dir(tmp_path / "ckpt")
        loaded = CheckpointStore.load_from_dir(tmp_path / "ckpt")
        for e in ents:
            assert (restore_entity(loaded, e.entity_id) == e.pages).all()

    def test_disk_files_exist(self, tmp_path):
        _c, ents, concord = make_system(n_nodes=2,
                                        spec=workloads.nasty(2, 8, seed=1))
        store, _ = checkpoint(concord, ents)
        store.write_to_dir(tmp_path / "d")
        assert (tmp_path / "d" / "shared.bin").exists()
        for e in ents:
            assert (tmp_path / "d" / f"entity_{e.entity_id}.ckpt").exists()

    def test_bad_magic_rejected(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "shared.bin").write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(ValueError):
            CheckpointStore.load_from_dir(d)

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("chunking", ["fixed", "cdc"])
    def test_writer_emits_one_container(self, tmp_path, chunking, canonical):
        """Every file is CCS2/CCE2 whatever the entities and the mode;
        stale entities put literal data records in the plain form."""
        cluster = Cluster(2, seed=21)
        rng = np.random.default_rng(21)
        if chunking == "cdc":       # byte-backed: variable-sized chunks
            blob = rng.integers(0, 256, 8 * 4096, dtype=np.uint8).tobytes()
            ents = [Entity.from_bytes(cluster, n, blob + bytes([n]) * 4096)
                    for n in range(2)]
            fresh = intern_chunk(b"\x5a" * 4096)
        else:                       # ID-backed pages, v1 before this writer
            ents = [Entity.create(cluster, n,
                                  rng.integers(0, 40, 32).astype(np.uint64))
                    for n in range(2)]
            fresh = 10**6
        concord = ConCORD(cluster, ConCORDConfig(chunking=chunking))
        concord.initial_scan()
        ents[1].write_page(0, fresh)        # unscanned: a literal record
        store, _ = checkpoint(concord, ents)
        assert any(f.n_data_records for f in store.se_files.values())
        store.write_to_dir(tmp_path / "d", canonical=canonical)
        magics = {p.name: p.read_bytes()[:4]
                  for p in (tmp_path / "d").iterdir()}
        assert magics.pop("shared.bin") == b"CCS2"
        assert len(magics) == 2 and set(magics.values()) == {b"CCE2"}
        loaded = CheckpointStore.load_from_dir(tmp_path / "d")
        for e in ents:
            assert (restore_entity(loaded, e.entity_id)
                    == e.block_ids()).all()

    @pytest.mark.parametrize("cut", ["payload", "header"])
    @pytest.mark.parametrize("name", ["shared.bin", "entity_4.ckpt"])
    def test_truncated_file_raises_naming_it(self, tmp_path, name, cut):
        """A file that ends before what its headers declare is refused
        with a ValueError naming it, wherever the cut falls: 10 bytes
        short (inside the last block's bytes) or inside the file header."""
        store = CheckpointStore(page_size=64)
        for cid in (101, 102):
            store.shared.append(page_hash(cid), cid)
        f = store.se_file(4)
        f.add_pointer(0, page_hash(101), 0)
        f.add_data(1, page_hash(303), 303)
        store.write_to_dir(tmp_path)
        whole = CheckpointStore.load_from_dir(tmp_path)
        assert restore_entity(whole, 4).tolist() == [101, 303]
        victim = tmp_path / name
        data = victim.read_bytes()
        victim.write_bytes(data[:-10] if cut == "payload" else data[:10])
        with pytest.raises(ValueError, match=name):
            CheckpointStore.load_from_dir(tmp_path)

    def test_retired_v1_magic_is_refused(self, tmp_path):
        """The fixed-page v1 container (``CCSH``/``CCSE``) is no longer
        read: its magic is as unknown as any other."""
        (tmp_path / "shared.bin").write_bytes(
            b"CCSH" + struct.pack("<IQ", 64, 0))
        with pytest.raises(ValueError, match="magic"):
            CheckpointStore.load_from_dir(tmp_path)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestCanonicalFormat:
    """canonical=True bytes must depend only on the *logical* checkpoint
    (each SE's page contents), not on how the store was produced — the
    property the fault-tolerance integration tests build on."""

    def test_concord_and_raw_stores_serialize_identically(self, tmp_path):
        """The extreme case: a fully covered ConCORD checkpoint (all
        pointers) vs a raw one (all literal data) of the same entities."""
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.moldy(2, 64, seed=9))
        concord_store, _ = checkpoint(concord, ents)
        raw_store, _ = RawCheckpoint().run(
            cluster, [e.entity_id for e in ents])
        concord_store.write_to_dir(tmp_path / "a", canonical=True)
        raw_store.write_to_dir(tmp_path / "b", canonical=True)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_default_mode_differs_but_canonical_agrees(self, tmp_path):
        """Two stale views of the same memory produce different record
        mixes (the default serialization shows it) yet one canonical form."""
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.moldy(2, 64, seed=3))
        fresh, _ = checkpoint(concord, ents)
        # Stale view: clear the DHT so every block goes down the local path.
        concord.tracing.clear()
        stale, _ = checkpoint(concord, ents)
        fresh.write_to_dir(tmp_path / "f")
        stale.write_to_dir(tmp_path / "s")
        assert dir_bytes(tmp_path / "f") != dir_bytes(tmp_path / "s")
        fresh.write_to_dir(tmp_path / "fc", canonical=True)
        stale.write_to_dir(tmp_path / "sc", canonical=True)
        assert dir_bytes(tmp_path / "fc") == dir_bytes(tmp_path / "sc")

    def test_canonical_output_loads_and_restores(self, tmp_path):
        _c, ents, concord = make_system(
            n_nodes=2, spec=workloads.nasty(2, 32, seed=5))
        store, _ = checkpoint(concord, ents)
        store.write_to_dir(tmp_path / "c", canonical=True)
        loaded = CheckpointStore.load_from_dir(tmp_path / "c")
        for e in ents:
            assert (restore_entity(loaded, e.entity_id) == e.pages).all()

    def test_canonical_garbage_collects_unreferenced_blocks(self, tmp_path):
        """Shared blocks appended collectively but never referenced by an
        SE record (stale handled hashes) are dropped from canonical bytes."""
        _c, ents, concord = make_system(
            n_nodes=2, spec=workloads.moldy(2, 32, seed=7))
        store, _ = checkpoint(concord, ents)
        store.shared.append(10**9 + 7, 424242)     # orphan block
        store.write_to_dir(tmp_path / "c", canonical=True)
        loaded = CheckpointStore.load_from_dir(tmp_path / "c")
        referenced = {h for f in store.se_files.values()
                      for _k, _i, h, _p in f.records}
        assert loaded.shared.n_blocks == len(referenced)


class TestTiming:
    def test_ordering_raw_le_concord_le_rawgzip(self):
        """Fig 15: raw < ConCORD < raw+gzip in response time."""
        cluster, ents, concord = make_system(
            n_nodes=4, spec=workloads.moldy(4, 512, seed=4))
        eids = [e.entity_id for e in ents]
        _store, t_concord = (lambda s_r: (s_r[0], s_r[1].wall_time))(
            checkpoint(concord, ents))
        raw = RawCheckpoint()
        _s, t_raw = raw.run(cluster, eids)
        _s, t_rawgzip = raw.run(cluster, eids, gzip=True)
        assert t_raw < t_concord < t_rawgzip

    def test_time_flat_with_scale(self):
        """Fig 16/17: response time roughly constant as nodes scale."""
        t = []
        for n in (2, 8):
            _c, ents, concord = make_system(
                n_nodes=n, spec=workloads.moldy(n, 256, seed=4))
            _store, result = checkpoint(concord, ents)
            t.append(result.wall_time)
        assert t[1] < 2.0 * t[0]


class TestSharedContentFile:
    def test_append_dedup_idempotent(self):
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        o1 = f.append(10, 100)
        o2 = f.append(10, 100)
        assert o1 == o2
        assert f.n_blocks == 1
        assert f.read(o1) == 100

    def test_offsets_sequential(self):
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        assert [f.append(h, h) for h in range(5)] == list(range(5))
        assert f.offset_of(3) == 3
        assert f.offset_of(99) is None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 12),
                                       st.integers(0, 2**64 - 1)),
                             max_size=12), max_size=5), st.booleans())
    def test_extend_is_the_dict_log(self, calls, scalar_between):
        """The columnar file against the dict-and-list log it replaced:
        a hash already in the file gets its old offset, a new one (even
        twice in one call) the next offset at its first appearance —
        with scalar appends in between, and the same blocks after."""
        from repro.services.checkpoint import SharedContentFile

        f, offset_of, blocks = SharedContentFile(), {}, []

        def log(h, cid):
            if h not in offset_of:
                offset_of[h] = len(blocks)
                blocks.append(cid)
            return offset_of[h]

        for i, call in enumerate(calls):
            got = f.extend(np.array([h for h, _c in call], dtype=np.uint64),
                           np.array([c for _h, c in call], dtype=np.uint64))
            assert got.dtype == np.int64
            assert got.tolist() == [log(h, c) for h, c in call]
            if scalar_between:
                assert f.append(100 + i, i) == log(100 + i, i)
        assert f.blocks.tolist() == blocks and f.n_blocks == len(blocks)
        for h in range(14):
            assert f.offset_of(h) == offset_of.get(h)
            assert f.offset_of(np.uint64(h)) == offset_of.get(h)

    def test_extend_refuses_columns_of_different_lengths(self):
        """One content ID short is refused before any block is
        appended (zipping the columns would drop hash 3)."""
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        with pytest.raises(ValueError, match="3 content hashes for 2"):
            f.extend([1, 2, 3], [10, 20])
        assert f.n_blocks == 0

    @pytest.mark.parametrize("h", [-5, 2**64])
    def test_append_refuses_a_hash_outside_uint64(self, h):
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        with pytest.raises(OverflowError, match="64-bit"):
            f.append(h, 7)
        with pytest.raises(OverflowError):
            f.extend(np.array([h], dtype=object if h > 0 else np.int64),
                     np.array([7], dtype=np.uint64))
        assert f.n_blocks == 0

    def test_extend_refuses_a_bool_or_a_fraction(self):
        """A column of hashes is refused as one hash is: ``True`` is not
        content hash 1, and 2.5 is not hash 2."""
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        for hashes in ([True, 2], np.array([2.5, 3.0]), np.array([True])):
            with pytest.raises(ValueError, match="not an integer"):
                f.extend(hashes, np.arange(len(hashes), dtype=np.uint64))
        assert f.n_blocks == 0

    def test_offset_of_refuses_a_bool(self):
        """``True`` is not content hash 1 (the query API's integer
        rule)."""
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        f.append(1, 10)
        with pytest.raises(ValueError, match="not an integer"):
            f.offset_of(True)
        with pytest.raises(ValueError, match="not an integer"):
            f.append(False, 10)

    @pytest.mark.parametrize("offset", [-1, 2, True, 0.0])
    def test_read_refuses_an_offset_outside_the_file(self, offset):
        """Only an offset of a block is read: -1 would alias the last
        block."""
        from repro.services.checkpoint import SharedContentFile

        f = SharedContentFile()
        f.extend([5, 6], [50, 60])
        with pytest.raises(ValueError, match="not a block of the shared"):
            f.read(offset)
        assert f.read(1) == 60

    def test_duplicate_page_record_rejected_on_restore(self):
        store = CheckpointStore()
        f = store.se_file(0)
        f.add_data(0, 1, 11)
        f.add_data(0, 2, 22)
        with pytest.raises(ValueError):
            restore_entity(store, 0)

    def test_incomplete_checkpoint_rejected_on_restore(self):
        store = CheckpointStore()
        f = store.se_file(0)
        f.add_data(3, 1, 11)  # pages 0-2 missing
        with pytest.raises(ValueError):
            restore_entity(store, 0)


class TestColumnarFile:
    """The SE file's columns: what an append refuses, and the pointers a
    restore, a writer and a loader refuse."""

    @pytest.mark.parametrize("append", [
        pytest.param(lambda f: f.add_data(-1, 1, 11), id="add_data"),
        pytest.param(lambda f: f.add_pointer(-1, 5, 0), id="add_pointer"),
        pytest.param(lambda f: f.append_columns([2], [-1], [7], [0],
                                                {0: (0, 0)}), id="bptr"),
        pytest.param(lambda f: f.append_columns(
            np.array([1, 1]), np.array([1, -1]), np.array([1, 2]),
            np.array([11, 22])), id="append_columns"),
    ])
    def test_negative_page_index_refused(self, append):
        store = CheckpointStore()
        f = store.se_file(0)
        f.add_data(0, 2, 22)
        with pytest.raises(ValueError, match="page index -1"):
            append(f)
        assert f.records == [("data", 0, 2, 22)] and len(f) == 1
        assert restore_entity(store, 0).tolist() == [22]

    def test_a_refused_record_leaves_no_trace(self):
        store = CheckpointStore()
        f = store.se_file(0)
        with pytest.raises(ValueError):
            f.append_columns([2], [0], ["not a hash"], [0], {0: (0, 5)})
        f.add_data(0, 1, 11)
        assert f.records == [("data", 0, 1, 11)]
        for bad in (lambda: f.add_data(1, 2**64, 22),     # no uint64 hash
                    lambda: f.add_data(1, -2, 22),
                    lambda: f.add_pointer(1, 2, 2**64),   # nor payload
                    lambda: f.append_columns([1], [1], [2], [-1])):
            with pytest.raises(ValueError, match="page 1: .* outside uint64"):
                bad()
        f.add_data(1, 2, 22)
        assert f.records == [("data", 0, 1, 11), ("data", 1, 2, 22)]
        assert restore_entity(store, 0).tolist() == [11, 22]

    @pytest.mark.parametrize("hashes, payload", [
        pytest.param(np.array([-2]), np.array([7]), id="hash"),
        pytest.param(np.array([2]), np.array([-7]), id="payload"),
    ])
    def test_a_negative_int64_column_is_refused(self, hashes, payload):
        """``add_data(0, -2, 7)`` is refused, so the same row as an
        ``int64`` column is too — not wrapped to 2**64 - 2."""
        f = CheckpointStore().se_file(0)
        with pytest.raises(ValueError, match="page 0: .* -[27] outside"):
            f.append_columns(np.array([1]), np.array([0]), hashes, payload)
        assert len(f) == 0

    def test_a_fractional_payload_is_refused(self):
        """2.7 is not content ID 2."""
        f = CheckpointStore().se_file(0)
        with pytest.raises(ValueError, match=r"payload .*2\.7.* is not an integer"):
            f.append_columns([1], [0], [5], np.array([2.7]))
        assert len(f) == 0

    @pytest.mark.parametrize("kind", [9, -1])
    def test_a_kind_code_outside_the_kinds_is_refused(self, kind):
        """Kind 9 used to restore as data, count as a pointer record in
        ``size_bytes`` and make ``records`` raise IndexError."""
        f = CheckpointStore().se_file(0)
        with pytest.raises(ValueError, match=rf"kind codes \[{kind}\]"):
            f.append_columns(np.array([1, kind]), [0, 1], [5, 6], [50, 60])
        assert len(f) == 0 and f.records == []

    def test_bptr_payloads_must_be_the_bptr_rows(self):
        f = CheckpointStore().se_file(0)
        for kind, bptr in (([2], {}), ([1], {0: (0, 5)}), ([2], {1: 5})):
            with pytest.raises(ValueError, match="not the bptr rows"):
                f.append_columns(kind, [0], [5], [0], bptr)
        assert len(f) == 0

    def test_columns_of_different_lengths_refused(self):
        f = CheckpointStore().se_file(0)
        with pytest.raises(ValueError, match="different lengths"):
            f.append_columns(np.array([1, 1]), np.array([0, 1]),
                             np.array([5]), np.array([11, 22]))
        assert len(f) == 0

    def test_pointer_past_the_shared_file_names_page_and_offset(self,
                                                                tmp_path):
        store = CheckpointStore(page_size=64)
        store.shared.append(5, 50)
        f = store.se_file(0)
        f.add_data(0, 1, 11)
        f.add_pointer(1, 5, 7)
        with pytest.raises(ValueError, match=r"page 1 points at shared-file "
                           r"offset 7, past the end .*\(1 blocks\)"):
            restore_entity(store, 0)
        with pytest.raises(ValueError, match="past the end"):
            store.write_to_dir(tmp_path / "w")
        assert not (tmp_path / "w").exists()    # nothing half written

    def test_loader_refuses_a_pointer_past_the_shared_file(self, tmp_path):
        store = CheckpointStore(page_size=64)
        store.shared.append(page_hash(50), 50)
        f = store.se_file(3)
        f.add_data(0, page_hash(11), 11)
        f.add_pointer(1, page_hash(50), 0)
        store.write_to_dir(tmp_path)
        # The shared file loses its one block; the SE file still points.
        (tmp_path / "shared.bin").write_bytes(
            b"CCS2" + struct.pack("<IQ", 64, 0))
        with pytest.raises(ValueError, match=r"entity_3\.ckpt: page 1 "
                           r"points at shared-file offset 0"):
            CheckpointStore.load_from_dir(tmp_path)

    def test_write_to_dir_bytes_pinned(self, tmp_path):
        """A fixed small store's bytes, both modes, as the tuple-list
        store wrote them."""
        import hashlib

        store = CheckpointStore(page_size=512)
        for cid in (31, 7, 19):
            store.shared.append(page_hash(cid), cid)
        a = store.se_file(2)
        a.add_pointer(1, page_hash(7), 1)
        a.add_data(0, page_hash(44), 44)
        a.add_pointer(2, page_hash(31), 0)
        b = store.se_file(0)
        b.add_data(1, page_hash(19), 19)
        b.add_pointer(0, page_hash(19), 2)
        digests = []
        for canonical in (False, True):
            d = tmp_path / str(canonical)
            store.write_to_dir(d, canonical=canonical)
            h = hashlib.sha256()
            for path in sorted(d.iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
            digests.append(h.hexdigest())
        assert digests == [
            "e16b225ac78d6914d49f426981997d1b61e11b3a875721a4c215ac495bc50cc1",
            "30e77743362c618113d4cb315f66280b18b3ac636f9bdcdc7d51cf14e353e449"]


def _restore_plain(store, base):
    return restore_entity(store, 0)


def _restore_incremental(store, base):
    return restore_incremental_entity(store, base, 0)


def _restore_chain(store, base):
    chain = CheckpointChain(base)
    chain.stores.append(store)
    return chain.restore(0)


class TestRestoreWalk:
    """The three public restore entry points are one record walk; they
    differ only in how (and whether) a base pointer resolves."""

    # name -> (entry point, payload of a base pointer to base offset 0)
    ENTRIES = {"plain": (_restore_plain, 0),
               "incremental": (_restore_incremental, 0),
               "chain": (_restore_chain, (0, 0))}

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("case, expect", [
        pytest.param("ok", [50, 11], id="ok"),
        pytest.param("duplicate", "duplicate record for page 0",
                     id="duplicate"),
        pytest.param("missing", r"pages \[0, 1, 2\] missing", id="missing"),
        pytest.param("bptr", [70, 50], id="bptr"),
    ])
    def test_same_records_same_outcome(self, entry, case, expect):
        restore, base_ptr = self.ENTRIES[entry]
        base = CheckpointStore()
        base.shared.append(7, 70)
        store = CheckpointStore()
        store.shared.append(5, 50)
        append_records(store.se_file(0), {
            "ok": [("data", 1, 1, 11), ("ptr", 0, 5, 0)],
            "duplicate": [("data", 0, 1, 11), ("ptr", 0, 5, 0)],
            "missing": [("data", 3, 1, 11)],
            "bptr": [("ptr", 1, 5, 0), ("bptr", 0, 7, base_ptr)],
        }[case])
        if (entry, case) == ("plain", "bptr"):
            expect = "base pointer"        # nothing to resolve it against
        if isinstance(expect, str):
            with pytest.raises(ValueError, match=expect):
                restore(store, base)
        else:
            pages = restore(store, base)
            assert pages.dtype == np.uint64 and pages.tolist() == expect

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_empty_file_and_unknown_entity(self, entry):
        restore, _ = self.ENTRIES[entry]
        store = CheckpointStore()
        with pytest.raises(KeyError):
            restore(store, CheckpointStore())
        store.se_file(0)
        assert restore(store, CheckpointStore()).tolist() == []


class TestPlanRefinement:
    def test_refined_batch_is_faster_and_identical(self):
        """Paper §4.2: batch mode exists so the service can refine the
        plan; refinement must change cost, never outcome."""
        import numpy as np

        from repro.core.command import ExecMode

        cluster, ents, concord = make_system(
            n_nodes=4, spec=workloads.moldy(4, 512, seed=10))
        rng = np.random.default_rng(10)
        for e in ents:
            e.mutate_random(0.3, rng)  # force data records into SE files
        eids = [e.entity_id for e in ents]
        plain_store = CheckpointStore()
        r_plain = concord.execute_command(
            CollectiveCheckpoint(plain_store),
            ServiceScope.of(eids), mode=ExecMode.BATCH)
        refined_store = CheckpointStore()
        r_refined = concord.execute_command(
            CollectiveCheckpoint(refined_store, refine_plan=True),
            ServiceScope.of(eids), mode=ExecMode.BATCH)
        assert r_refined.wall_time < r_plain.wall_time
        for e in ents:
            assert (restore_entity(refined_store, e.entity_id)
                    == e.pages).all()
            assert (restore_entity(plain_store, e.entity_id)
                    == e.pages).all()

    def test_refined_plan_writes_records_in_page_order(self):
        from repro.core.command import ExecMode

        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.nasty(2, 64, seed=11))
        store = CheckpointStore()
        concord.execute_command(
            CollectiveCheckpoint(store, refine_plan=True),
            ServiceScope.of([e.entity_id for e in ents]),
            mode=ExecMode.BATCH)
        for f in store.se_files.values():
            idxs = [r[1] for r in f.records]
            assert idxs == sorted(idxs)
