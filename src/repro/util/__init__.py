"""Shared low-level utilities: hashing, wire records, reporting."""

from repro.util.hashing import (
    mix64,
    unmix64,
    page_hashes,
    page_hash,
    superfasthash32,
    superfasthash64,
    md5_64,
    hash_bytes,
    HashAlgo,
)
from repro.util.stats import Series, Table

__all__ = [
    "mix64",
    "unmix64",
    "page_hashes",
    "page_hash",
    "superfasthash32",
    "superfasthash64",
    "md5_64",
    "hash_bytes",
    "HashAlgo",
    "Series",
    "Table",
]
