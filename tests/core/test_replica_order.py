"""The collective phase's replica order is keyed: a pure function of
(command seed, content hash, candidate set).

A row's candidates go in ascending ``_replica_rank`` under the key
``mix64_int(seed)`` — rendezvous (highest-random-weight) ordering — after
any ``collective_select`` pick.  So the order cannot depend on the
placement policy that decided which shard holds the hash, on the order
the shards are walked, or on which other candidates exist, and each
candidate is first equally often.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServiceScope
from repro.core.command import CommandFailed, ServiceCallbacks
from repro.core.events import CommandTracer, EventKind
from repro.core.executor import _replica_rank
from repro.dht.engine import ContentTracingEngine
from repro.util.hashing import mix64_int
from tests.conftest import make_system


def _order(seed, h, candidates):
    ranks = _replica_rank(mix64_int(seed),
                          np.full(len(candidates), h, dtype=np.uint64),
                          np.array(candidates, dtype=np.int64))
    return [candidates[i] for i in np.argsort(ranks)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 300), min_size=1, max_size=12, unique=True),
       st.data())
def test_order_is_a_permutation_stable_under_subsets(seed, h, candidates,
                                                     data):
    order = _order(seed, h, candidates)
    assert sorted(order) == sorted(candidates)
    subset = data.draw(st.lists(st.sampled_from(candidates), unique=True))
    assert _order(seed, h, subset) == [e for e in order if e in subset]


def test_each_candidate_is_first_about_equally_often():
    """Over 20 000 hashes, each of k fixed candidates comes first within
    10 % of 1/k of the time."""
    hashes = np.random.default_rng(4).integers(0, 2**64, 20_000,
                                               dtype=np.uint64)
    key = mix64_int(12)
    for candidates in ([5, 9], [0, 1, 2], [3, 10, 17, 40, 63, 64, 100, 129]):
        k = len(candidates)
        ranks = np.stack([_replica_rank(key, hashes, np.full(len(hashes), e))
                          for e in candidates])
        firsts = np.bincount(np.argmin(ranks, axis=0), minlength=k)
        assert np.all(np.abs(firsts / len(hashes) - 1 / k) < 0.1 / k), firsts


class _Refuses(ServiceCallbacks):
    """Every replica refuses, so every row walks its whole order and ends
    in a STALE event that carries it."""

    def collective_command(self, ctx, entity, content_hash, block):
        return CommandFailed("refused")


def _orders(placement, seed, reverse_walk=False):
    """{hash: replica order} of one command over every entity, and the
    rows' candidate sets."""
    _c, ents, concord = make_system(n_nodes=4, placement=placement)
    tracer = CommandTracer()
    walk = ContentTracingEngine.live_shards
    with mock.patch.object(
            ContentTracingEngine, "live_shards",
            lambda self: walk(self)[::-1] if reverse_walk else walk(self)):
        concord.execute_command(
            _Refuses(), ServiceScope.of([e.entity_id for e in ents]),
            seed=seed, tracer=tracer)
    orders = {e.data[0]: list(e.data[1]) for e in tracer
              if e.kind is EventKind.STALE}
    candidates = {e.data[0]: list(e.data[1]) for e in tracer
                  if e.kind is EventKind.SELECT}
    return orders, candidates


def test_order_depends_on_seed_hash_and_candidates_only():
    orders, candidates = _orders("mod", seed=7)
    multi = [h for h, c in candidates.items() if len(c) > 1]
    assert len(multi) > 100 and orders.keys() == candidates.keys()
    for h in multi:
        assert orders[h] == _order(7, h, candidates[h])
    # Random, not the candidates' own order.
    assert any(orders[h] != sorted(orders[h]) for h in multi)
    assert _orders("hd", seed=7) == (orders, candidates)
    assert _orders("mod", seed=7, reverse_walk=True) == (orders, candidates)
    assert _orders("mod", seed=7) == (orders, candidates)
    other, _ = _orders("mod", seed=8)
    assert any(other[h] != orders[h] for h in multi)
