"""The scan diff and the repair's pair reader visit only what changed or
is present, against the whole-array forms they replaced, kept here as
oracles.

``repro.memory.monitor.multiset_diff`` drops the positions where two
equal-length scans agree before its ``np.unique``; the oracle runs that
``np.unique`` over both whole arrays.  ``repro.dht.repair.pairs_where``
visits only the entities that hold a bit on some selected row; the oracle
makes one masked pass per bit of the 64-bit mask.  Both must return the
same arrays, order and dtype included.  The example count comes from the
Hypothesis profile (``tests/conftest.py``); CI runs this module again
under ``HYPOTHESIS_PROFILE=deep``.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.generation import _in_sorted
from repro.dht.repair import pairs_where
from repro.dht.storage import MmapSegmentStorage
from repro.dht.table import LocalDHT, mask_bits
from repro.memory.monitor import multiset_diff

U64 = np.uint64


# -- the oracles: the whole-array forms ---------------------------------------------


def oracle_multiset_diff(old, new):
    """One ``np.unique`` over both whole arrays."""
    old = np.asarray(old, dtype=U64)
    new = np.asarray(new, dtype=U64)
    if len(old) == 0 and len(new) == 0:
        return old, new
    uniq, inv = np.unique(np.concatenate([old, new]), return_inverse=True)
    delta = (np.bincount(inv[len(old):], minlength=len(uniq))
             - np.bincount(inv[:len(old)], minlength=len(uniq)))
    return (np.repeat(uniq[delta > 0], delta[delta > 0]),
            np.repeat(uniq[delta < 0], -delta[delta < 0]))


def oracle_pairs_where(shard, sel=None):
    """One masked pass per bit of the 64-bit mask, in entity order."""
    hashes, lo, wide = shard.items_arrays()
    hs, ms = (hashes[sel], lo[sel]) if sel is not None and len(hashes) \
        else (hashes, lo)
    out_h, out_e, out_c = [], [], []
    for eid in range(64):
        rows = hs[((ms >> U64(eid)) & U64(1)) != 0]
        if len(rows):
            out_h.append(rows)
            out_e.append(np.full(len(rows), eid, dtype=np.int64))
            out_c.append(np.ones(len(rows), dtype=np.int64))
    if wide:
        wh = np.fromiter(wide, dtype=U64, count=len(wide))
        for h in wh[_in_sorted(hs, wh)].tolist():
            bits = mask_bits(wide[h])
            out_h.append(np.full(len(bits), h, dtype=U64))
            out_e.append(np.asarray(bits, dtype=np.int64) + 64)
            out_c.append(np.ones(len(bits), dtype=np.int64))
    xh, xe, xc = shard.extra_arrays()
    if len(xh):
        keep = _in_sorted(hs, xh)
        out_h.append(xh[keep])
        out_e.append(xe[keep])
        out_c.append(xc[keep])
    if out_h:
        return (np.concatenate(out_h), np.concatenate(out_e),
                np.concatenate(out_c))
    return (np.empty(0, dtype=U64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


# -- multiset_diff -----------------------------------------------------------------

# A small alphabet makes duplicates (multiplicity > 1) common; full-width
# values reach the top of uint64.
values = st.one_of(st.integers(0, 12), st.integers(0, 2**64 - 1))
scans = st.lists(values, max_size=60)


@st.composite
def few_changes(draw):
    """An equal-length rescan: a handful of positions rewritten."""
    old = draw(scans)
    new = list(old)
    if old:
        for i, v in draw(st.lists(st.tuples(
                st.integers(0, len(old) - 1), values), max_size=4)):
            new[i] = v
    return old, new


@st.composite
def moved(draw):
    """An equal-length rescan holding the same multiset, reordered, with
    at most one position rewritten."""
    old = draw(scans)
    new = list(draw(st.permutations(old)))
    if new and draw(st.booleans()):
        new[draw(st.integers(0, len(new) - 1))] = draw(values)
    return old, new


@st.composite
def resized(draw):
    """A rescan of another length: grown, shrunk, or unrelated."""
    old = draw(scans)
    how = draw(st.sampled_from(["grow", "shrink", "other"]))
    if how == "grow":
        new = old + draw(st.lists(values, min_size=1, max_size=8))
    elif how == "shrink" and old:
        new = old[:draw(st.integers(0, len(old) - 1))]
    else:
        new = draw(scans.filter(lambda xs: len(xs) != len(old)))
    return old, new


def check_diff(pair):
    old, new = (np.array(x, dtype=U64) for x in pair)
    assert_same_arrays(multiset_diff(old, new), oracle_multiset_diff(old, new))


@given(few_changes())
def test_multiset_diff_of_a_few_changed_positions(pair):
    check_diff(pair)


@given(moved())
def test_multiset_diff_of_moved_content(pair):
    check_diff(pair)


@given(resized())
def test_multiset_diff_of_unequal_lengths(pair):
    check_diff(pair)


# -- pairs_where -------------------------------------------------------------------

# A tiny hash universe forces extra copies; entity ids past 63 are wide
# holders.
shard_ops = st.lists(st.tuples(
    st.booleans(), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 130)),
                            max_size=40)), max_size=6)


def build(backend, root, ops):
    shard = LocalDHT(0, None if backend == "memory"
                     else MmapSegmentStorage(root, 0))
    for is_insert, ps in ops:
        h = np.array([p[0] for p in ps], dtype=U64)
        e = np.array([p[1] for p in ps], dtype=np.int64)
        (shard.bulk_insert if is_insert else shard.bulk_remove)(h, e)
    return shard


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@settings(deadline=None)
@given(ops=shard_ops, unselected=st.sets(st.integers(0, 40)))
def test_pairs_where_matches_the_64_entity_loop(backend, ops, unselected):
    with tempfile.TemporaryDirectory() as root:
        shard = build(backend, root, ops)
        rows = shard.items_arrays()[0]
        some = ~np.isin(rows, np.array(sorted(unselected), dtype=U64))
        for sel in (None, some, np.zeros(len(rows), dtype=bool)):
            assert_same_arrays(pairs_where(shard, sel),
                               oracle_pairs_where(shard, sel))


def test_pairs_where_of_an_empty_shard():
    shard = LocalDHT()
    for sel in (None, np.zeros(0, dtype=bool)):
        got = pairs_where(shard, sel)
        assert_same_arrays(got, oracle_pairs_where(shard, sel))
        assert [len(a) for a in got] == [0, 0, 0]
