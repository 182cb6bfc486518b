"""Unit tests for content hashing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import (
    HashAlgo,
    hash_bytes,
    md5_64,
    mix64,
    mix64_int,
    page_hash,
    page_hashes,
    superfasthash32,
    superfasthash32_batch,
    superfasthash64,
    unmix64,
)


class TestMix64:
    def test_scalar_roundtrip(self):
        for x in [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]:
            assert int(unmix64(mix64(x))) == x

    def test_array_roundtrip(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
        assert np.array_equal(unmix64(mix64(xs)), xs)

    def test_deterministic(self):
        assert int(mix64(12345)) == int(mix64(12345))

    def test_scalar_matches_array(self):
        xs = np.array([7, 99, 2**40], dtype=np.uint64)
        ys = mix64(xs)
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert int(mix64(int(x))) == y

    # 0, 1, the sign bit, all ones, and the routing / page salts (the
    # values the scalar routing path XORs in before mixing).
    EDGES = [0, 1, 2**63, 2**64 - 1, 0xC2B2AE3D27D4EB4F, 0x9E3779B97F4A7C15]

    @pytest.mark.parametrize("x", EDGES)
    def test_integer_scalar_is_the_vector_function(self, x):
        want = mix64(np.array([x], dtype=np.uint64))[0]
        for scalar in (x, np.uint64(x), np.asarray(x, dtype=np.uint64)):
            got = mix64(scalar)
            assert type(got) is np.uint64 and got == want
        assert int(unmix64(mix64(x))) == x
        assert mix64_int(x) == int(want)

    @settings(max_examples=200, deadline=None)
    @given(x=st.integers(0, 2**64 - 1))
    def test_mix64_int_is_mix64(self, x):
        got = mix64_int(x)
        assert type(got) is int and got == int(mix64(np.uint64(x)))

    @pytest.mark.parametrize("x", [-1, 2**64, -2**70])
    def test_integer_scalar_out_of_range_raises(self, x):
        with pytest.raises(OverflowError):
            mix64(x)
        with pytest.raises(OverflowError):
            mix64_int(x)

    def test_avalanche(self):
        """Flipping one input bit flips ~half the output bits."""
        a = int(mix64(0x1234567890ABCDEF))
        b = int(mix64(0x1234567890ABCDEE))
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48

    def test_output_dtype(self):
        assert mix64(np.uint64(5)).dtype == np.uint64
        assert mix64(np.arange(4, dtype=np.uint64)).dtype == np.uint64


class TestPageHashes:
    def test_bijective_on_distinct_ids(self):
        ids = np.arange(10000, dtype=np.uint64)
        hs = page_hashes(ids)
        assert len(np.unique(hs)) == len(ids)

    def test_equal_ids_equal_hashes(self):
        ids = np.array([5, 5, 9, 5], dtype=np.uint64)
        hs = page_hashes(ids)
        assert hs[0] == hs[1] == hs[3]
        assert hs[0] != hs[2]

    def test_scalar_wrapper(self):
        ids = np.array([77], dtype=np.uint64)
        assert page_hash(77) == int(page_hashes(ids)[0])

    def test_zero_id_nonzero_hash(self):
        assert page_hash(0) != 0

    def test_distribution_uniformity(self):
        """Hash high bits should be roughly uniform (chi-square-ish)."""
        hs = page_hashes(np.arange(64000, dtype=np.uint64))
        buckets = (hs >> np.uint64(58)).astype(int)  # 64 buckets
        counts = np.bincount(buckets, minlength=64)
        assert counts.min() > 64000 / 64 * 0.8
        assert counts.max() < 64000 / 64 * 1.2


class TestSuperFastHash:
    def test_deterministic(self):
        assert superfasthash32(b"hello world") == superfasthash32(b"hello world")

    def test_distinct_inputs(self):
        seen = {superfasthash32(bytes([i, j])) for i in range(16)
                for j in range(16)}
        assert len(seen) == 256

    def test_length_tails(self):
        """1/2/3-byte tails hash distinctly from each other and prefixes."""
        vals = {superfasthash32(b"abcd"[:n]) for n in range(5)}
        assert len(vals) == 5

    def test_empty(self):
        assert isinstance(superfasthash32(b""), int)

    def test_seed_changes_hash(self):
        assert superfasthash32(b"data") != superfasthash32(b"data", seed=1)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        pages = rng.integers(0, 256, size=(16, 64), dtype=np.uint8)
        batch = superfasthash32_batch(pages)
        for i in range(16):
            assert int(batch[i]) == superfasthash32(pages[i].tobytes())

    def test_batch_4kb_pages(self):
        rng = np.random.default_rng(2)
        pages = rng.integers(0, 256, size=(4, 4096), dtype=np.uint8)
        batch = superfasthash32_batch(pages)
        assert int(batch[0]) == superfasthash32(pages[0].tobytes())

    def test_batch_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            superfasthash32_batch(np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError):
            superfasthash32_batch(np.zeros((2, 3), dtype=np.uint8))

    def test_sfh64_combines_two_seeds(self):
        h = superfasthash64(b"block content")
        assert h >> 32 == superfasthash32(b"block content")
        assert h & 0xFFFFFFFF == superfasthash32(b"block content",
                                                 seed=0x5BD1E995)


class TestHashBytes:
    def test_md5_64_matches_hashlib(self):
        data = b"x" * 4096
        expect = int.from_bytes(hashlib.md5(data).digest()[:8], "little")
        assert md5_64(data) == expect

    def test_algo_dispatch(self):
        data = b"some page"
        assert hash_bytes(data, HashAlgo.MD5) == md5_64(data)
        assert hash_bytes(data, HashAlgo.SUPERFAST) == superfasthash64(data)

    def test_algos_disagree(self):
        data = b"content"
        assert hash_bytes(data, HashAlgo.MD5) != hash_bytes(
            data, HashAlgo.SUPERFAST)

    def test_bad_algo(self):
        with pytest.raises(ValueError):
            hash_bytes(b"", "nope")  # type: ignore[arg-type]


def _sfh_c_reference(data: bytes, seed: int | None = None) -> int:
    """Direct transcription of Hsieh's published SuperFastHash C code.

    Pure-Python/uint32 arithmetic, independent of the NumPy implementation
    under test.  The odd tail byte goes through ``(signed char)`` in the C
    (cases 3 and 1), so bytes >= 0x80 sign-extend; the 2-byte tail uses
    get16bits and stays unsigned.
    """
    M = 0xFFFFFFFF
    h = (len(data) if seed is None else seed) & M
    n4, rem = divmod(len(data), 4)
    for i in range(n4):
        lo = data[4 * i] | (data[4 * i + 1] << 8)
        hi = data[4 * i + 2] | (data[4 * i + 3] << 8)
        h = (h + lo) & M
        tmp = ((hi << 11) & M) ^ h
        h = ((h << 16) & M) ^ tmp
        h = (h + (h >> 11)) & M
    t = data[n4 * 4:]
    if rem == 3:
        h = (h + (t[0] | (t[1] << 8))) & M
        h ^= (h << 16) & M
        sc = t[2] - 256 if t[2] >= 128 else t[2]
        h ^= (sc << 18) & M
        h = (h + (h >> 11)) & M
    elif rem == 2:
        h = (h + (t[0] | (t[1] << 8))) & M
        h ^= (h << 11) & M
        h = (h + (h >> 17)) & M
    elif rem == 1:
        sc = t[0] - 256 if t[0] >= 128 else t[0]
        h = (h + sc) & M
        h ^= (h << 10) & M
        h = (h + (h >> 1)) & M
    h ^= (h << 3) & M
    h = (h + (h >> 5)) & M
    h ^= (h << 4) & M
    h = (h + (h >> 17)) & M
    h ^= (h << 25) & M
    h = (h + (h >> 6)) & M
    return h


class TestSFHReferenceVectors:
    """superfasthash32 must match Hsieh's C for every tail length,
    including tail bytes >= 0x80 where (signed char) sign-extends."""

    VECTORS = {
        b"": 0x00000000,
        b"a": 0x115EA782,
        b"ab": 0x516B8B44,
        b"abc": 0xD2BE198A,
        b"abcd": 0xDAD8B8DB,
        b"hello world": 0xA68C6882,
        # high-bit bytes in each tail position
        b"\x80": 0xF30533C4,
        b"\xff": 0x00000000,          # len=1, +(-1) cancels hash=len=1
        b"\x00\xff": 0x59780F22,
        b"ab\xff": 0xC25F0954,        # rem==3, (signed char)<<18
        b"ab\x80": 0x81AA4BD5,
        b"\xff\xff\xff": 0xCD1CA2A0,
        b"abcd\xff": 0xBC3C1B4D,      # rem==1 after a full word
        b"abcd\xfe\xff": 0xCB9EFF66,  # rem==2 stays unsigned
        b"abcd\xff\xff\xff": 0x41C18F78,
        bytes(range(240, 256)) + b"\x81\x92\xa3": 0x2AE68E1A,
    }

    def test_frozen_vectors(self):
        for data, want in self.VECTORS.items():
            assert superfasthash32(data) == want, data

    def test_reference_agrees_with_frozen_vectors(self):
        for data, want in self.VECTORS.items():
            assert _sfh_c_reference(data) == want, data

    def test_all_tail_lengths_all_byte_values(self):
        """Sweep every tail length with every possible final byte."""
        for prefix in (b"", b"wxyz"):
            for tail_len in (1, 2, 3):
                for b in (0x00, 0x01, 0x7F, 0x80, 0x81, 0xFE, 0xFF):
                    data = prefix + bytes([0x42] * (tail_len - 1)) + bytes([b])
                    assert superfasthash32(data) == _sfh_c_reference(data), \
                        (prefix, tail_len, b)

    def test_seeded_variant_matches_reference(self):
        for seed in (0, 1, 7, 0x5BD1E995):
            for data in (b"ab\x80", b"\xff", b"abcde\xff\xfe"):
                assert superfasthash32(data, seed=seed) == \
                    _sfh_c_reference(data, seed=seed)

    def test_batch_matches_fixed_scalar(self):
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 256, size=(8, 32), dtype=np.uint8)
        batch = superfasthash32_batch(pages)
        for i in range(8):
            assert int(batch[i]) == _sfh_c_reference(pages[i].tobytes())
