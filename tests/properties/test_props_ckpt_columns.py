"""Property-based pinning of the columnar checkpoint file.

An SE checkpoint file holds its Fig 13 records as columns (kind, page
index, hash, payload) plus a side table for base-pointer payloads
(:class:`repro.services.checkpoint.SECheckpointFile`), and its one
write path is a column append.  Hypothesis interleaves scalar adds (each
a one-row append), appends of Python lists and appends of NumPy columns
— ``bptr`` rows with integer (increment) and ``(store, offset)`` (chain)
payloads among them — and every observable must equal that of the list
of record tuples the columns replaced, which this file keeps as its
oracle: ``records``, the record counts and sizes, every restore entry
point, and the bytes ``write_to_dir`` writes in both modes.  The example
count comes from the Hypothesis profile (``tests/conftest.py``).
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.memory.pagedata import materialize_page
from repro.services.checkpoint import (_KINDS, CheckpointStore,
                                       restore_entity)
from repro.services.incremental import (CheckpointChain,
                                        restore_incremental_entity)
from tests.conftest import append_records

PAGE = 64
BLOCKS = [900, 901, 902]            # the store's shared file, by offset
BASE_BLOCKS = [700, 701]            # the base's
EIDS = (0, 3)


# -- the oracle: one tuple per record --------------------------------------------


def oracle_cid(kind, payload, blocks, read_bptr=None):
    if kind == "ptr":
        if payload >= len(blocks):
            raise ValueError("past the end of the shared file")
        return blocks[payload]
    if kind == "data":
        return payload
    if read_bptr is None:
        raise ValueError("base pointer")
    return read_bptr(payload)


def oracle_restore(records, blocks, read_bptr=None):
    seen = set()
    for kind, idx, _h, _p in records:
        if idx in seen:
            raise ValueError("duplicate record")
        if kind == "bptr" and read_bptr is None:
            raise ValueError("base pointer")
        seen.add(idx)
    pages = {i: oracle_cid(k, p, blocks, read_bptr) for k, i, _h, p in records}
    if len(pages) != (max(pages) + 1 if pages else 0):
        raise ValueError("missing")
    return [pages[i] for i in range(len(pages))]


def oracle_write(d, blocks, files, canonical):
    if canonical:
        by_hash = {}
        for recs in files.values():
            for kind, _i, h, p in recs:
                by_hash.setdefault(h, oracle_cid(kind, p, blocks))
        order = sorted(by_hash)
        blocks = [by_hash[h] for h in order]
        files = {eid: [("ptr", i, h, order.index(h)) for _k, i, h, _p
                       in sorted(files[eid], key=lambda r: r[1])]
                 for eid in sorted(files)}
    with open(d / "shared.bin", "wb") as fh:
        fh.write(b"CCS2" + struct.pack("<IQ", PAGE, len(blocks)))
        for cid in blocks:
            page = materialize_page(cid, PAGE)
            fh.write(struct.pack("<QI", cid, len(page)) + page)
    for eid, recs in files.items():
        cids = [oracle_cid(k, p, blocks) for k, _i, _h, p in recs]
        with open(d / f"entity_{eid}.ckpt", "wb") as fh:
            fh.write(b"CCE2" + struct.pack("<IIQ", eid, PAGE, len(recs)))
            for (kind, idx, h, p), cid in zip(recs, cids):
                if kind == "ptr":
                    fh.write(struct.pack("<BIQQ", 0, idx, h, p))
                else:
                    page = materialize_page(cid, PAGE)
                    fh.write(struct.pack("<BIQQI", 1, idx, h, cid, len(page))
                             + page)


# -- the strategy ------------------------------------------------------------------


def record_strategy(chain: bool, bptr: bool, past_end: bool):
    """One record: ``bptr`` allows base pointers, ``past_end`` pointers
    past the end of the shared file."""
    idx, h = st.integers(0, 5), st.integers(0, 2**64 - 1)
    ptr = st.tuples(st.just("ptr"), idx, h,
                    st.integers(0, len(BLOCKS) - 1 + past_end))
    data = st.tuples(st.just("data"), idx, h, st.integers(0, 2**40))
    if not bptr:
        return ptr | data
    bptr_payload = (st.tuples(st.integers(0, 1), st.integers(0, 1)) if chain
                    else st.integers(0, len(BASE_BLOCKS) - 1))
    return ptr | data | st.tuples(st.just("bptr"), idx, h, bptr_payload)


def op_strategy(*flags: bool):
    recs = st.lists(record_strategy(*flags), max_size=6)
    return st.tuples(st.sampled_from(EIDS),
                     st.sampled_from(["scalar", "lists", "bulk"]), recs)


def apply(f, how, records):
    if how == "lists":
        append_records(f, records)
    elif how == "bulk":
        kind = np.array([_KINDS.index(r[0]) for r in records], dtype=np.uint8)
        bptr = {i: r[3] for i, r in enumerate(records) if r[0] == "bptr"}
        f.append_columns(kind, np.array([r[1] for r in records], np.int64),
                         np.array([r[2] for r in records], np.uint64),
                         np.array([0 if r[0] == "bptr" else r[3]
                                   for r in records], np.uint64), bptr)
    else:
        for kind, idx, h, p in records:
            if kind == "ptr":
                f.add_pointer(idx, h, p)
            elif kind == "data":
                f.add_data(idx, h, p)
            else:
                f.append_columns([2], [idx], [h], [0], {0: p})


def outcome(fn):
    """A restore's answer, or the kind of refusal (the oracle's words)."""
    try:
        return list(fn())
    except ValueError as exc:
        for word in ("duplicate", "base pointer", "past the end", "missing"):
            if word in str(exc):
                return word
        raise


def tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=st.booleans(), bptr=st.booleans(), past_end=st.booleans(),
       fresh=st.booleans(), data=st.data())
def test_columnar_file_equals_the_tuple_list(chain, bptr, past_end, fresh,
                                             data):
    ops = data.draw(st.lists(op_strategy(chain, bptr, past_end), max_size=8))
    if fresh:
        # Renumber each file's pages to a permutation of 0..n-1, so its
        # restore can succeed.
        for eid in EIDS:
            rows = [(i, j) for i, op in enumerate(ops) if op[0] == eid
                    for j in range(len(op[2]))]
            perm = data.draw(st.permutations(range(len(rows))))
            for (i, j), page in zip(rows, perm):
                kind, _idx, h, p = ops[i][2][j]
                ops[i][2][j] = (kind, page, h, p)
    base = CheckpointStore(PAGE)
    for cid in BASE_BLOCKS:
        base.shared.append(cid, cid)
    store = CheckpointStore(PAGE)
    for cid in BLOCKS:
        store.shared.append(cid, cid)
    lists = {eid: [] for eid in EIDS}
    for eid in EIDS:
        store.se_file(eid)
    for eid, how, records in ops:
        apply(store.se_files[eid], how, records)
        lists[eid].extend(records)
        # Reads between appends must not disturb the columns.
        assert store.se_files[eid].records == lists[eid]

    for eid, recs in lists.items():
        f = store.se_files[eid]
        assert f.records == recs and len(f) == len(recs)
        assert all(type(v) is int for r in f.records for v in r[1:3])
        n_data = sum(r[0] == "data" for r in recs)
        assert (f.n_data_records, f.n_pointer_records) == (
            n_data, len(recs) - n_data)
        assert f.size_bytes == 32 + (len(recs) - n_data) * 20 + n_data * (
            16 + PAGE)

        assert outcome(lambda: restore_entity(store, eid)) == outcome(
            lambda: oracle_restore(recs, BLOCKS))
        if chain:
            members = [BASE_BLOCKS, BLOCKS]
            c = CheckpointChain(base)
            c.stores.append(store)
            got = outcome(lambda: c.restore(eid))
            want = outcome(lambda: oracle_restore(
                recs, BLOCKS, lambda p: members[p[0]][p[1]]))
        else:
            got = outcome(lambda: restore_incremental_entity(store, base,
                                                             eid))
            want = outcome(lambda: oracle_restore(recs, BLOCKS,
                                                  BASE_BLOCKS.__getitem__))
        event(f"base-aware restore: {want if isinstance(want, str) else 1}")
        assert got == want
    assert store.total_blocks == sum(map(len, lists.values()))

    for canonical in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            old.mkdir()
            try:
                oracle_write(old, BLOCKS, lists, canonical)
            except ValueError:
                event("write refused")
                with pytest.raises(ValueError):
                    store.write_to_dir(new, canonical=canonical)
                continue
            store.write_to_dir(new, canonical=canonical)
            assert tree_bytes(new) == tree_bytes(old)
