"""The shard write path against an independent copy-count model.

Every ``LocalDHT`` writer appends (hash, entity, ±1) rows to one log that
a vectorised fold applies (``repro.dht.generation.fold``).  The oracle
here shares none of that code: a count per (hash, entity), +1 per insert,
-1 per remove of a pair that holds a copy (a stale remove is skipped).
Random interleaved streams of scalar and bulk writes — entity ids past
63, datagram widths and the widths around the commit point, repeated
pairs, stale removes — with reads, ``retain``, ``remove_entity`` and
crash/recover in between must leave the shard answering as the model
does: items, overflow and counters.  On mmap, every commit's file, loaded
fresh, holds the model's state as of that commit.

The example count comes from the Hypothesis profile (``tests/conftest.py``);
CI runs this module again under ``HYPOTHESIS_PROFILE=deep``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.generation import Generation
from repro.dht.storage import MmapSegmentStorage
from repro.dht.table import LocalDHT


class CopyModel:
    """(hash, entity) -> copies, with the skip-absent remove."""

    def __init__(self, counts: Counter | None = None) -> None:
        self.counts = Counter(counts or ())
        self.generation = 0         # the commit it stands for, if any

    def insert(self, h: int, e: int) -> None:
        self.counts[(h, e)] += 1

    def remove(self, h: int, e: int) -> None:
        if self.counts[(h, e)] > 0:
            self.counts[(h, e)] -= 1

    def remove_entity(self, e: int) -> int:
        mine = [k for k in self.counts if k[1] == e]
        return sum(self.counts.pop(k) for k in mine)

    def drop_hashes(self, hashes: set[int]) -> None:
        for k in [k for k in self.counts if k[0] in hashes]:
            del self.counts[k]

    def hashes(self) -> list[int]:
        return sorted({h for (h, _e), c in self.counts.items() if c})

    def state(self):
        """(items, overflow, n_hashes, n_copies) as a shard reports them."""
        masks: dict[int, int] = {}
        over: dict[int, dict[int, int]] = {}
        for (h, e), c in self.counts.items():
            if c:
                masks[h] = masks.get(h, 0) | 1 << e
                if c > 1:
                    over.setdefault(h, {})[e] = c - 1
        return (sorted(masks.items()), over, len(masks),
                sum(self.counts.values()))


def generation_state(g: Generation):
    return list(g.items()), g.overflow(), g.n_hashes, g.n_copies


def shard_state(shard: LocalDHT):
    """Counters and overflow first (folded in RAM), then the items (a
    commit)."""
    n_hashes, n_copies = shard.n_hashes, shard.n_copies
    over = dict(shard.extra_items())
    return list(shard.items()), over, n_hashes, n_copies


#: Widths of one row, a datagram's neighbourhood, and both sides of the
#: commit point of a shard with fewer than 32 768 rows.
WIDTHS = (1, 7, 8, 64, 4095, 4096, 4097)
ENTITIES = (0, 1, 2, 7, 63, 64, 65, 130)
small_hash = st.integers(min_value=0, max_value=40)
entity = st.sampled_from(ENTITIES)
seed = st.integers(min_value=0, max_value=2**32 - 1)
step = st.one_of(
    st.tuples(st.sampled_from(["insert", "remove"]), small_hash, entity),
    st.tuples(st.sampled_from(["bulk_insert", "bulk_remove"]),
              st.sampled_from(WIDTHS),
              st.sampled_from(["small", "fresh", "held"]),
              st.booleans(), seed),             # entities past 63?
    st.tuples(st.just("read"), st.booleans(),   # a scan (commits)?
              st.lists(small_hash, max_size=6)),
    st.tuples(st.just("retain"), seed),
    st.tuples(st.just("remove_entity"), entity),
    st.tuples(st.just("restart"), st.booleans()),   # flush first?
)
# A restart is crash() then recover(): the shard is then its last commit.


def bulk_columns(model, width, source, wide, rng):
    if source == "held" and model.hashes():
        pool = np.array(model.hashes(), dtype=np.uint64)
        h = pool[rng.integers(0, len(pool), width)]
    elif source == "fresh":
        h = rng.integers(1 << 40, 1 << 63, width, dtype=np.uint64)
    else:
        h = rng.integers(0, 41, width).astype(np.uint64)
    return h, rng.integers(0, 131 if wide else 8, width)


def apply(shard, model, op, args):
    """One write or read on the shard and the model."""
    if op in ("insert", "remove"):
        getattr(shard, op)(*args)
        getattr(model, op)(*args)
    elif op in ("bulk_insert", "bulk_remove"):
        width, source, wide, s = args
        h, e = bulk_columns(model, width, source, wide,
                            np.random.default_rng(s))
        getattr(shard, op)(h, e)
        for hh, ee in zip(h.tolist(), e.tolist()):
            getattr(model, op[5:])(hh, ee)
    elif op == "read":
        scan, probe = args
        probe = probe + model.hashes()[:3]
        want_items, want_over, n_hashes, n_copies = model.state()
        masks = dict(want_items)
        assert (shard.n_hashes, shard.n_copies) == (n_hashes, n_copies)
        for h in probe:
            assert shard.entities_mask(h) == masks.get(h, 0)
            assert shard.num_copies(h) == (masks.get(h, 0).bit_count() + sum(
                want_over.get(h, {}).values()))
            assert shard.extra_copies(h) == want_over.get(h, {})
        if scan:
            q = np.array(probe, dtype=np.uint64)
            assert shard.bulk_num_copies(q).tolist() == [
                shard.num_copies(h) for h in probe]
            assert shard_state(shard) == model.state()
    elif op == "retain":
        rows = shard.items_arrays()[0]
        keep = np.random.default_rng(args[0]).random(len(rows)) < 0.7
        assert shard.retain(keep) == int((~keep).sum())
        model.drop_hashes(set(rows[~keep].tolist()))
    else:
        assert shard.remove_entity(args[0]) == model.remove_entity(args[0])


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@given(steps=st.lists(step, min_size=1, max_size=12))
@settings(deadline=None)
def test_write_log_matches_the_copy_count_model(tmp_path_factory, backend,
                                                steps):
    store = (MmapSegmentStorage(tmp_path_factory.mktemp("shard"), 0)
             if backend == "mmap" else None)
    shard, model = LocalDHT(0, store), CopyModel()
    committed = CopyModel()         # the model as of the last commit
    for op, *args in steps:
        if op == "restart":
            if args[0]:
                shard.flush()
        else:
            apply(shard, model, op, args)
        if store is not None and store.generation != committed.generation:
            loaded = Generation.load(store.path)
            assert loaded is not None and loaded[0] == store.generation
            assert generation_state(loaded[1]) == model.state()
            committed = CopyModel(model.counts)
            committed.generation = store.generation
        if op == "restart":
            shard.crash()
            shard.recover()
            model = CopyModel(committed.counts if store else ())
    assert shard_state(shard) == model.state()
    assert shard.n_multicopy_entries == len(model.state()[1])
    assert generation_state(shard.generation()) == model.state()
