"""Units for content-defined chunking (docs/RECONCILIATION.md):
boundary determinism, shift resynchronisation, size clamps, entity
integration, and the fixed-mode byte-identity guarantee.
"""

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.memory.chunking import WINDOW, ContentChunker, make_chunker
from repro.memory.pagedata import is_interned_id, materialize_page


def stream(n, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=n, dtype=np.uint8).tobytes()


class TestContentChunker:
    def test_deterministic(self):
        data = stream(200_000)
        a = ContentChunker(avg_size=1024)
        b = ContentChunker(avg_size=1024)
        assert a.cut_points(data) == b.cut_points(data)

    def test_chunks_reassemble(self):
        data = stream(50_000, seed=1)
        ch = ContentChunker(avg_size=512)
        assert b"".join(ch.chunk_bytes(data)) == data

    def test_size_clamps(self):
        ch = ContentChunker(avg_size=1024)
        sizes = [len(c) for c in ch.chunk_bytes(stream(300_000, seed=2))]
        assert max(sizes) <= ch.max_size
        # All but the final tail chunk respect min_size.
        assert all(s >= ch.min_size for s in sizes[:-1])
        # Average lands in the right ballpark (clamps skew it upward).
        assert 512 <= sum(sizes) / len(sizes) <= 4096

    def test_shift_resynchronises(self):
        """After a shift the chunk sets re-align within ~one chunk."""
        data = stream(100_000, seed=3)
        ch = ContentChunker(avg_size=1024)
        orig = set(ch.chunk_bytes(data))
        shifted = ch.chunk_bytes(b"\xAB" * 7 + data)
        matched = sum(1 for c in shifted if c in orig)
        assert matched / len(shifted) > 0.9

    def test_fixed_blocks_share_nothing_after_shift(self):
        """The contrast motivating CDC: fixed paging loses everything."""
        data = stream(64 * 1024, seed=4)
        ps = 4096
        fixed = {data[o:o + ps] for o in range(0, len(data), ps)}
        shifted = b"\x00" * 7 + data
        moved = [shifted[o:o + ps] for o in range(0, len(shifted), ps)]
        assert sum(1 for p in moved if p in fixed) == 0

    def test_boundary_depends_only_on_window(self):
        data = stream(100_000, seed=5)
        ch = ContentChunker(avg_size=1024)
        cuts = [c for c in ch.cut_points(data)[:-1]]
        # Re-present each cut's window in a fresh stream: cut recurs at
        # the same offset (mod min-size gating from the new context).
        mid = cuts[len(cuts) // 2]
        tail = data[mid - WINDOW:]
        again = ch.cut_points(tail)
        assert WINDOW in [c for c in again] or again[0] <= ch.max_size

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentChunker(avg_size=1000)      # not a power of two
        with pytest.raises(ValueError):
            ContentChunker(avg_size=1024, min_size=2)
        with pytest.raises(ValueError):
            make_chunker("bogus")
        assert make_chunker("fixed") is None
        assert make_chunker("cdc", 1024).avg_size == 1024

    def test_empty_stream(self):
        ch = ContentChunker(avg_size=1024)
        assert ch.cut_points(b"") == []
        assert ch.chunk_bytes(b"") == []


class TestEntityChunking:
    def test_from_bytes_round_trip(self):
        cluster = Cluster(2, seed=0)
        data = stream(5 * 4096 + 123, seed=6)
        e = Entity.from_bytes(cluster, 0, data)
        assert all(is_interned_id(int(c)) for c in e.pages.tolist())
        got = b"".join(materialize_page(int(c), e.page_size)
                       for c in e.pages.tolist())
        assert got[:len(data)] == data            # zero-padded tail

    def test_chunked_blocks_reassemble(self):
        cluster = Cluster(2, seed=0)
        data = stream(8 * 4096, seed=7)
        e = Entity.from_bytes(cluster, 0, data)
        e.set_chunker(make_chunker("cdc", 4096))
        assert e.chunked
        got = b"".join(materialize_page(int(c), e.page_size)
                       for c in e.block_ids().tolist())
        assert got == data
        assert sum(e.block_size(i) for i in range(e.n_blocks)) == len(data)

    def test_fixed_mode_is_byte_identical(self, monkeypatch):
        """chunking="fixed" must not perturb any tracked state: the same
        machine under an explicit "fixed" and under the config default
        produce byte-identical shards, for ID- and byte-backed
        entities alike."""
        monkeypatch.delenv("CONCORD_CHUNKING", raising=False)

        def states(cfg):
            cluster = Cluster(2, seed=8)
            rng = np.random.default_rng(8)
            Entity.create(cluster, 0,
                          rng.integers(0, 90, 64).astype(np.uint64))
            Entity.from_bytes(cluster, 1, stream(4 * 4096, seed=8))
            c = ConCORD(cluster, cfg)
            c.initial_scan()
            mask = (1 << 80) - 1
            return [tuple(a.tolist() if hasattr(a, "tolist") else a
                          for a in s.se_scan(mask))
                    for s in c.tracing.shards]

        explicit = states(ConCORDConfig(chunking="fixed"))
        default = states(ConCORDConfig())
        assert explicit == default

    def test_cdc_ignores_synthetic_entities(self):
        """ID-backed entities keep fixed page blocks even under cdc."""
        cluster = Cluster(2, seed=9)
        rng = np.random.default_rng(9)
        e = Entity.create(cluster, 0,
                          rng.integers(0, 90, 64).astype(np.uint64))
        c = ConCORD(cluster, ConCORDConfig(chunking="cdc"))
        assert not e.chunked
        assert c.config.chunking == "cdc"

    def test_cdc_chunks_byte_backed_entities(self):
        cluster = Cluster(2, seed=10)
        e = Entity.from_bytes(cluster, 0, stream(6 * 4096, seed=10))
        c = ConCORD(cluster, ConCORDConfig(chunking="cdc"))
        assert e.chunked
        c.initial_scan()
        assert len(e.content_hashes()) == e.n_blocks

    def test_invalid_chunking_rejected(self):
        cluster = Cluster(2, seed=11)
        with pytest.raises(ValueError):
            ConCORD(cluster, ConCORDConfig(chunking="lz4"))

    def test_invalid_chunking_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CONCORD_CHUNKING", "cdc")
        assert ConCORDConfig().chunking == "cdc"
        monkeypatch.setenv("CONCORD_CHUNKING", "lz4")
        with pytest.raises(ValueError, match="CONCORD_CHUNKING.*fixed, cdc"):
            ConCORDConfig()
