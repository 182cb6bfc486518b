"""Content hashing for memory blocks.

ConCORD identifies a memory block (one 4 KB page by default) by a content
hash.  The paper evaluates two hash functions: MD5 (cryptographic) and
SuperFastHash (Hsieh's non-cryptographic hash, much cheaper).  This module
provides both, plus the *content-ID* hash used throughout the simulation.

In the simulated memory model (see :mod:`repro.memory.entity`) a page's
content is represented by a 64-bit content ID; two pages are identical iff
their IDs are equal.  The canonical content hash of such a page is
``mix64(id)`` — the splitmix64 finalizer — which is a bijection on 64-bit
words, so the simulation is collision-free by construction (real MD5 at
these scales is collision-free in practice too).  When page bytes are
materialized (:mod:`repro.memory.pagedata`), the byte-level hashes here let
tests confirm the two views agree on equality structure.

All array paths are vectorized over NumPy ``uint64``/``uint8`` arrays; there
are no per-page Python loops on hot paths.
"""

from __future__ import annotations

import enum
import hashlib

import numpy as np

__all__ = [
    "HashAlgo",
    "mix64",
    "mix64_int",
    "unmix64",
    "page_hashes",
    "page_hash",
    "superfasthash32",
    "superfasthash64",
    "superfasthash32_batch",
    "md5_64",
    "hash_bytes",
]

_U64 = np.uint64
_M64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele et al., "Fast splittable PRNGs").
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_M1_INT, _M2_INT = int(_M1), int(_M2)
# Inverses of _M1/_M2 modulo 2**64, for unmix64.
_M1_INV = _U64(pow(0xBF58476D1CE4E5B9, -1, 2**64))
_M2_INV = _U64(pow(0x94D049BB133111EB, -1, 2**64))

# Domain-separation constant so that page_hashes(id) != id even for id=0.
_PAGE_SALT = _U64(0x9E3779B97F4A7C15)


class HashAlgo(enum.Enum):
    """Hash function choices mirrored from the paper's evaluation."""

    MD5 = "md5"
    SUPERFAST = "superfast"
    MIX64 = "mix64"


def mix64_int(x: int) -> int:
    """:func:`mix64` of one integer, on Python ints: the per-request
    routing call, without building a NumPy scalar.  Raises OverflowError
    for a value outside ``[0, 2**64)``, as ``np.uint64`` does."""
    z = int(x)
    if z >> 64:     # negative, or 2**64 and up
        raise OverflowError(f"{z} does not fit an unsigned 64-bit word")
    z ^= z >> 30
    z = (z * _M1_INT) & _M64
    z ^= z >> 27
    z = (z * _M2_INT) & _M64
    return z ^ (z >> 31)


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """splitmix64 finalizer: a fast, invertible 64-bit mixing function.

    Accepts a scalar or a ``uint64`` array; returns the same shape.  An
    integer scalar is mixed by :func:`mix64_int` — the same function bit
    for bit, without building a 0-d array.
    """
    if isinstance(x, (int, np.integer)):
        return _U64(mix64_int(x))
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=_U64)
        z = z ^ (z >> _U64(30))
        z = z * _M1
        z = z ^ (z >> _U64(27))
        z = z * _M2
        z = z ^ (z >> _U64(31))
    if np.isscalar(x) or np.ndim(x) == 0:
        return _U64(z)
    return z


def _unshift_right(z: np.ndarray, s: int) -> np.ndarray:
    """Invert ``z ^= z >> s`` for 64-bit words."""
    out = z.copy()
    shift = _U64(s)
    # Repeated application converges in ceil(64/s) rounds.
    for _ in range((63 // s) + 1):
        out = z ^ (out >> shift)
    return out


def unmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """Inverse of :func:`mix64` (used by tests to prove bijectivity)."""
    with np.errstate(over="ignore"):
        z = np.atleast_1d(np.asarray(x, dtype=_U64))
        z = _unshift_right(z, 31)
        z = z * _M2_INV
        z = _unshift_right(z, 27)
        z = z * _M1_INV
        z = _unshift_right(z, 30)
    if np.isscalar(x) or np.ndim(x) == 0:
        return _U64(z[0])
    return z


def page_hashes(content_ids: np.ndarray) -> np.ndarray:
    """Content hashes for an array of page content IDs (vectorized).

    The hash is ``mix64(id ^ SALT)``; bijective, so distinct IDs never
    collide and the DHT key distribution is uniform.
    """
    ids = np.asarray(content_ids, dtype=_U64)
    return mix64(ids ^ _PAGE_SALT)


def page_hash(content_id: int) -> int:
    """Scalar convenience wrapper around :func:`page_hashes`."""
    return int(page_hashes(np.asarray([content_id], dtype=_U64))[0])


def superfasthash32(data: bytes, seed: int | None = None) -> int:
    """Paul Hsieh's SuperFastHash over a byte string (reference scalar).

    Matches the published C algorithm for inputs whose length is a multiple
    of 4 and handles the 1/2/3-byte tails the same way the C code does.
    """
    length = len(data)
    h = np.uint32(length if seed is None else seed)
    u32 = np.uint32
    with np.errstate(over="ignore"):
        n4 = length // 4
        if n4:
            words = np.frombuffer(data[: n4 * 4], dtype="<u2").astype(np.uint32)
            lo = words[0::2]
            hi = words[1::2]
            for i in range(n4):
                h = u32(h + lo[i])
                tmp = u32(u32(hi[i] << u32(11)) ^ h)
                h = u32(u32(h << u32(16)) ^ tmp)
                h = u32(h + (h >> u32(11)))
        rem = length & 3
        tail = data[n4 * 4 :]
        # Hsieh's C casts the odd tail byte through (signed char), so bytes
        # >= 0x80 sign-extend before widening to 32 bits (cases 3 and 1);
        # the 2-byte case goes through get16bits and stays unsigned.
        if rem == 3:
            h = u32(h + int.from_bytes(tail[:2], "little"))
            h = u32(h ^ u32(h << u32(16)))
            signed = tail[2] - 256 if tail[2] >= 128 else tail[2]
            h = u32(h ^ np.uint32((signed << 18) & 0xFFFFFFFF))
            h = u32(h + (h >> u32(11)))
        elif rem == 2:
            h = u32(h + int.from_bytes(tail, "little"))
            h = u32(h ^ u32(h << u32(11)))
            h = u32(h + (h >> u32(17)))
        elif rem == 1:
            signed = tail[0] - 256 if tail[0] >= 128 else tail[0]
            h = u32(h + np.uint32(signed & 0xFFFFFFFF))
            h = u32(h ^ u32(h << u32(10)))
            h = u32(h + (h >> u32(1)))
        # Final avalanche.
        h = u32(h ^ u32(h << u32(3)))
        h = u32(h + (h >> u32(5)))
        h = u32(h ^ u32(h << u32(4)))
        h = u32(h + (h >> u32(17)))
        h = u32(h ^ u32(h << u32(25)))
        h = u32(h + (h >> u32(6)))
    return int(h)


def superfasthash32_batch(pages: np.ndarray, seed: int | None = None) -> np.ndarray:
    """SuperFastHash over a batch of equal-length pages, vectorized.

    ``pages`` is a 2-D ``uint8`` array of shape (n_pages, page_bytes) with
    ``page_bytes`` a multiple of 4.  The inner mixing loop runs once per
    4-byte column (e.g. 1024 iterations for 4 KB pages) but each iteration
    processes *all* pages at once, so throughput is set by NumPy, not the
    Python interpreter.
    """
    pages = np.ascontiguousarray(pages, dtype=np.uint8)
    if pages.ndim != 2:
        raise ValueError("pages must be 2-D (n_pages, page_bytes)")
    n_pages, nbytes = pages.shape
    if nbytes % 4 != 0:
        raise ValueError("page length must be a multiple of 4")
    u32 = np.uint32
    words = pages.reshape(n_pages, nbytes // 2, 2).view("<u2")[..., 0].astype(np.uint32)
    lo = words[:, 0::2]
    hi = words[:, 1::2]
    h = np.full(n_pages, nbytes if seed is None else seed, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for i in range(nbytes // 4):
            h += lo[:, i]
            tmp = (hi[:, i] << u32(11)) ^ h
            h = (h << u32(16)) ^ tmp
            h += h >> u32(11)
        h ^= h << u32(3)
        h += h >> u32(5)
        h ^= h << u32(4)
        h += h >> u32(17)
        h ^= h << u32(25)
        h += h >> u32(6)
    return h


def superfasthash64(data: bytes) -> int:
    """64-bit content hash built from two independently-seeded SFH passes."""
    hi = superfasthash32(data)
    lo = superfasthash32(data, seed=0x5BD1E995)
    return (hi << 32) | lo


def md5_64(data: bytes) -> int:
    """First 64 bits of the MD5 digest, as the paper's MD5 configuration."""
    return int.from_bytes(hashlib.md5(data).digest()[:8], "little")


def hash_bytes(data: bytes, algo: HashAlgo = HashAlgo.SUPERFAST) -> int:
    """Hash a block of real bytes with the selected algorithm."""
    if algo is HashAlgo.MD5:
        return md5_64(data)
    if algo is HashAlgo.SUPERFAST:
        return superfasthash64(data)
    if algo is HashAlgo.MIX64:
        return int(mix64(_U64(int.from_bytes(data[:8].ljust(8, b"\0"), "little"))))
    raise ValueError(f"unknown hash algo: {algo!r}")
