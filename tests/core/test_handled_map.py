"""The column-backed handled map against the dict it replaced.

The executor used to disseminate the handled set by ``dict.update``-ing
each shard's (hash, private) rows into a per-node dict.  A node's
:class:`HandledMap` is built from the same per-shard column slices, and
must answer every question that dict answered: ``in``, ``[]``, ``get``,
``len`` and iteration, plus the vector ``covered`` and ``gather``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.command import HandledMap

_U64_MAX = 2**64 - 1

# What a collective_command may return: a shared-file offset, an
# incremental checkpoint's (tag, offset) base pointer, the engine's
# "handled, no data" True, or anything else a service keeps.
privates = st.one_of(
    st.integers(0, 2**40),
    st.tuples(st.just("base-offset"), st.integers(0, 2**20)),
    st.just(True),
    st.builds(object),
)


@st.composite
def shard_chunks(draw):
    """Per-shard (hashes, privates) chunks; a hash lives on one shard."""
    hashes = draw(st.lists(st.integers(0, _U64_MAX), unique=True,
                           max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(hashes)), max_size=4)))
    bounds = [0, *cuts, len(hashes)]
    return [(hashes[lo:hi], [draw(privates) for _ in hashes[lo:hi]])
            for lo, hi in zip(bounds, bounds[1:])]


def _old_way(chunks):
    seen = {}
    for hashes, values in chunks:
        seen.update(zip(hashes, values))
    return seen


def _new_way(chunks):
    """As ``_disseminate_handled`` builds it: column slices, concatenated."""
    cols = [(np.array(h, dtype=np.uint64),
             np.fromiter(v, dtype=object, count=len(v))) for h, v in chunks]
    return HandledMap(*map(np.concatenate, zip(*cols)))


@settings(max_examples=200, deadline=None)
@given(shard_chunks(), st.lists(st.integers(0, _U64_MAX), max_size=20))
def test_handled_map_answers_as_the_dict(chunks, others):
    want = _old_way(chunks)
    got = _new_way(chunks)
    assert len(got) == len(want)
    assert list(got) == sorted(want)
    assert got == want and dict(got.items()) == want
    for h, value in want.items():
        assert h in got and np.uint64(h) in got
        assert got[h] is value and got.get(h) is value
    absent = [h for h in others if h not in want]
    for h in absent + [-1, 2**64, 0.5, "x", None, (1, 2)]:
        assert h not in got
        assert got.get(h, "none") == "none"
        with pytest.raises(KeyError):
            got[h]
    queries = np.array(list(want) + absent, dtype=np.uint64)
    np.random.default_rng(len(queries)).shuffle(queries)
    assert got.covered(queries).tolist() == [int(h) in want
                                             for h in queries]
    present = np.array(list(want)[::-1], dtype=np.uint64)
    gathered = got.gather(present)
    assert gathered.dtype == object
    assert all(g is want[h] for g, h in zip(gathered, present.tolist()))
    if absent:
        with pytest.raises(KeyError, match=str(absent[0])):
            got.gather(np.array([*want, absent[0]], dtype=np.uint64))


def test_empty_map():
    empty = HandledMap()
    assert len(empty) == 0 and list(empty) == [] and empty == {}
    assert 5 not in empty and empty.get(5) is None
    assert empty.covered(np.array([0, 5], dtype=np.uint64)).tolist() == [
        False, False]
    assert len(empty.gather(np.empty(0, dtype=np.uint64))) == 0
    with pytest.raises(KeyError):
        empty.gather(np.array([5], dtype=np.uint64))


def test_a_hash_handled_twice_is_refused():
    with pytest.raises(ValueError, match="0xbeef handled twice"):
        HandledMap([7, 0xBEEF, 3, 0xBEEF], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="differ in length"):
        HandledMap([7, 8], [1])


def test_it_is_read_only():
    m = HandledMap([7], [1])
    with pytest.raises(TypeError):
        m[8] = 2
    assert not hasattr(m, "update")


def test_a_typed_private_column_stays_typed():
    """An array of privates keeps its dtype — a checkpoint's offsets
    gather as integers — while scalar reads answer with Python values."""
    m = HandledMap(np.array([9, 3, 7], dtype=np.uint64),
                   np.array([0, 1, 2], dtype=np.int64))
    assert m.privates.dtype == np.int64
    assert m.gather(np.array([7, 9], dtype=np.uint64)).tolist() == [2, 0]
    assert dict(m) == {3: 1, 7: 2, 9: 0}
    assert type(m[3]) is int and m.get(4) is None


def test_the_checkpoint_hands_its_offsets_on_as_one_typed_column():
    """The collective checkpoint returns its shared-file offsets as an
    int64 column: the command's handled set keeps it, and says for every
    handled hash where its block landed."""
    from repro import CheckpointStore, CollectiveCheckpoint, ServiceScope
    from tests.conftest import make_system

    _c, ents, concord = make_system(n_nodes=3)
    store = CheckpointStore()
    result = concord.execute_command(
        CollectiveCheckpoint(store),
        ServiceScope.of([e.entity_id for e in ents]))
    handled = result.handled_private
    assert isinstance(handled, HandledMap) and len(handled) > 0
    assert handled.privates.dtype == np.int64
    assert dict(handled) == {h: store.shared.offset_of(h) for h in handled}
    assert sorted(handled.privates.tolist()) == list(range(
        store.shared.n_blocks))
