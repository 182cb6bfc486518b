"""Batched node-wise answers must be byte-identical to individual ones."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.dht import table
from repro.dht.storage import StorageConfig
from repro.queries.interface import QueryInterface
from repro.serve import bulk_answers
from tests.conftest import make_system


@pytest.fixture
def system():
    cluster, ents, concord = make_system(seed=13)
    return cluster, concord, QueryInterface(cluster, concord.tracing)


def sample_hashes(concord, n=12):
    out = []
    for shard in concord.tracing.shards:
        for h in shard.hashes():
            out.append(int(h))
            if len(out) >= n:
                return out
    return out


class TestBulkAnswers:
    @pytest.mark.parametrize("op", ["num_copies", "entities"])
    def test_matches_individual_queries(self, system, op):
        cluster, concord, q = system
        pairs = [(h, i % cluster.n_nodes)
                 for i, h in enumerate(sample_hashes(concord))]
        batched = bulk_answers(concord.tracing, cluster.cost, op, pairs)
        for (h, node), got in zip(pairs, batched):
            assert got == getattr(q, op)(h, node), (op, h, node)

    def test_duplicate_hashes_fan_out(self, system):
        cluster, concord, q = system
        h = sample_hashes(concord, 1)[0]
        pairs = [(h, 0), (h, 1), (h, 0)]
        batched = bulk_answers(concord.tracing, cluster.cost, "num_copies",
                               pairs)
        assert batched[0] == batched[2] == q.num_copies(h, 0)
        assert batched[1] == q.num_copies(h, 1)
        # Remote and local issuers see different modelled latency.
        home = concord.tracing.home_node(h)
        lats = {node: r.latency for (_h, node), r in zip(pairs, batched)}
        assert (lats[home] < lats[1 - home] if home in (0, 1)
                else lats[0] == lats[1])

    def test_absent_hashes(self, system):
        cluster, concord, q = system
        pairs = [(0xFEED, 2), (0xF00D, 3)]
        for op in ("num_copies", "entities"):
            batched = bulk_answers(concord.tracing, cluster.cost, op, pairs)
            for (h, node), got in zip(pairs, batched):
                assert got == getattr(q, op)(h, node)

    def test_matches_after_failover(self, system):
        cluster, concord, q = system
        hashes = sample_hashes(concord)
        concord.fail_node(2)
        pairs = [(h, 0) for h in hashes]
        for op in ("num_copies", "entities"):
            batched = bulk_answers(concord.tracing, cluster.cost, op, pairs)
            for (h, _n), got in zip(pairs, batched):
                assert got == getattr(q, op)(h, 0)

    def test_empty_and_bad_op(self, system):
        cluster, concord, _q = system
        assert bulk_answers(concord.tracing, cluster.cost,
                            "num_copies", []) == []
        with pytest.raises(ValueError):
            bulk_answers(concord.tracing, cluster.cost, "sharing", [(1, 0)])


# -- the fill on both sides of the probe-width constant -----------------------------
#
# ``LocalDHT.bulk_masks`` / ``bulk_num_copies`` answer a probe narrower than
# ``table._VECTOR_MIN`` with the scalar walk and a wider one with the vector
# pass.  The choice must be invisible: same answers, same arrays, same shard
# state afterwards, whatever the shard holds and wherever it is stored.

K = table._VECTOR_MIN
WIDTHS = (1, K - 1, K, K + 1, 3 * K)
SCALAR, VECTOR = 10 ** 9, 0      # values of the constant forcing one side
BACKENDS = ("memory", "mmap")
WIDE_ENTITY = 70                 # past bit 63: the mask spills into _pw
SPARE_ENTITY = 9                 # holds nothing in the fixture


def homed_at(engine, node):
    """Fresh (untracked) hashes the engine routes to ``node``."""
    return (h for h in itertools.count(1 << 40)
            if engine.membership.partition.home_node(h) == node)


class World:
    """A 4-node system whose shard 0 holds one row of every kind the probe
    branches on, plus the point updates that keep the overlay non-empty."""

    def __init__(self, backend, persists):
        self.cluster, _ents, self.concord = make_system(
            seed=13, storage=StorageConfig(backend=backend))
        self.engine = engine = self.concord.tracing
        self.queries = QueryInterface(self.cluster, engine)
        shard = engine.shards[0]
        own = [int(h) for h in shard.hashes()]
        fresh = homed_at(engine, 0)
        self.absent = next(fresh)
        self.wide = own[0]                  # holders past entity 63
        shard.insert(self.wide, WIDE_ENTITY)
        shard.insert(self.wide, WIDE_ENTITY + 30)
        self.multi = own[1]                 # extra copies beyond the first
        for _ in range(3):
            shard.insert(self.multi, shard.entity_ids(self.multi)[0])
        self.wide_multi = own[2]            # both at once
        shard.insert(self.wide_multi, WIDE_ENTITY)
        shard.insert(self.wide_multi, WIDE_ENTITY)
        self.toggled = [next(fresh), next(fresh)]   # live in the overlay
        shard.insert(self.toggled[0], 1)
        engine.flush_storage()
        self.special = [self.absent, self.wide, self.multi, self.wide_multi,
                        *self.toggled]
        self.ordinary = own[3:]
        self.elsewhere = [int(next(iter(s.hashes())))
                          for s in engine.shards[1:]]
        self._persists = persists           # id(shard) -> _persist calls

    def dirty(self):
        """Point updates on every shard: afterwards each overlay is
        non-empty, one queried hash exists only there and one is deleted
        only there (the two swap roles every call)."""
        shard = self.engine.shards[0]
        for h in self.toggled:
            if h in shard:
                assert shard.remove(h, 1)
            else:
                shard.insert(h, 1)
        for s, h in zip(self.engine.shards[1:], self.elsewhere):
            s.insert(h, SPARE_ENTITY)
            assert s.remove(h, SPARE_ENTITY)
        assert all(s._delta for s in self.engine.shards)

    def group(self, width, lead):
        """``width`` distinct hashes homed at shard 0, ``special[lead]``
        first, padded with ordinary rows."""
        ring = self.special[lead:] + self.special[:lead] + self.ordinary
        return ring[:width]

    def shard_state(self):
        return [(s.n_hashes, s.n_copies, dict(s._delta),
                 s._ph.tolist(), s._pm.tolist(), dict(s._pw))
                for s in self.engine.shards], self.persists

    @property
    def persists(self):
        """Storage commits so far (``_persist`` calls on any backend)."""
        return sum(self._persists[id(s)] for s in self.engine.shards)

    def close(self):
        self.concord.close()


@pytest.fixture
def worlds(monkeypatch):
    """Twin worlds on one backend: one is only ever probed on the scalar
    side of the constant, the other only on the vector side."""
    made = []
    persists = Counter()
    persist = table.LocalDHT._persist

    def counted(shard):
        persists[id(shard)] += 1
        return persist(shard)
    monkeypatch.setattr(table.LocalDHT, "_persist", counted)

    def make(backend, n=2):
        made.extend(World(backend, persists) for _ in range(n))
        return made[-n:]
    yield make
    for w in made:
        w.close()


class TestFillOnBothSidesOfTheConstant:
    def test_widths_straddle_the_constant(self):
        assert 1 < K - 1 and len({*WIDTHS}) == len(WIDTHS)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", ["num_copies", "entities"])
    def test_answers_and_shard_state_do_not_depend_on_the_side(
            self, worlds, monkeypatch, backend, op):
        scalar, vector = worlds(backend)
        seen_values = set()
        for width in WIDTHS:
            for lead in range(len(scalar.special)):
                answers = []
                for world, const in ((scalar, SCALAR), (vector, VECTOR)):
                    world.dirty()
                    # Width `width` at home 0, width 1 at every other home.
                    hashes = world.group(width, lead) + world.elsewhere
                    pairs = [(h, i % 4) for i, h in enumerate(hashes)]
                    pairs.append(pairs[0])          # a duplicate fans out
                    monkeypatch.setattr(table, "_VECTOR_MIN", const)
                    got = bulk_answers(world.engine, world.cluster.cost, op,
                                       pairs)
                    monkeypatch.setattr(table, "_VECTOR_MIN", K)
                    assert not any(s._delta for s in world.engine.shards)
                    for (h, node), answer in zip(pairs, got):
                        assert answer == getattr(world.queries, op)(h, node), \
                            (op, width, lead, h)
                    answers.append(got)
                assert answers[0] == answers[1], (op, width, lead)
                assert scalar.shard_state() == vector.shard_state()
                seen_values.update(repr(a.value) for a in answers[0])
        # The inputs reached every kind of row.
        q = getattr(scalar.queries, op)
        assert q(scalar.absent).value in (0, set())
        if op == "num_copies":
            assert q(scalar.multi).value > len(
                scalar.queries.entities(scalar.multi).value)
            holders = scalar.queries.entities(scalar.wide_multi).value
            assert WIDE_ENTITY in holders
            assert q(scalar.wide_multi).value > len(holders)
        else:
            assert {WIDE_ENTITY, WIDE_ENTITY + 30} < q(scalar.wide).value
        assert len(seen_values) > 3
        if backend != "memory":
            assert scalar.persists > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fn", ["bulk_masks", "bulk_num_copies"])
    def test_shard_probes_return_equal_arrays(self, worlds, monkeypatch,
                                              backend, fn):
        scalar, vector = worlds(backend)
        for width in WIDTHS:
            for lead in range(len(scalar.special)):
                out = []
                for world, const in ((scalar, SCALAR), (vector, VECTOR)):
                    world.dirty()
                    group = world.group(width, lead)
                    monkeypatch.setattr(table, "_VECTOR_MIN", const)
                    as_list = getattr(world.engine.shards[0], fn)(group)
                    as_array = getattr(world.engine.shards[0], fn)(
                        np.array(group, dtype=np.uint64))
                    monkeypatch.setattr(table, "_VECTOR_MIN", K)
                    out.append((as_list, as_array))
                for a, b in zip(out[0] + out[1], out[1] + out[0]):
                    if fn == "bulk_masks":
                        (a, wide_a), (b, wide_b) = a, b
                        assert wide_a == wide_b
                    assert a.dtype == b.dtype and a.tolist() == b.tolist()
                assert scalar.shard_state() == vector.shard_state()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_holed_ranges_after_a_failover(self, worlds, width):
        (world,) = worlds("memory", n=1)
        engine, victim = world.engine, 0
        lost = world.group(width, 1)          # primary range 0: holed below
        world.concord.fail_node(victim)
        assert not engine.membership.all_intact
        pairs = [(h, i % 4) for i, h in enumerate(lost + world.elsewhere)]
        for op in ("num_copies", "entities"):
            got = bulk_answers(engine, world.cluster.cost, op, pairs)
            for (h, node), answer in zip(pairs, got):
                assert answer == getattr(world.queries, op)(h, node)
            assert [a.degraded for a in got] == \
                [True] * width + [False] * len(world.elsewhere)
            assert {a.coverage for a in got} == {0.75}

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("op", ["num_copies", "entities"])
    def test_home_killed_but_not_yet_detected(self, worlds, width, op):
        filled, uncached = worlds("memory")
        for world in (filled, uncached):
            world.cluster.network.set_node_up(0, False)   # no node_failed()
            world.engine.shards[0].crash()
            assert world.engine.membership.partition.is_alive(0)
        # The dead home's hashes first, so the uncached twin detects on
        # its first query, as the fill does before it probes anything.
        hashes = filled.group(width, 1) + filled.elsewhere
        pairs = [(h, i % 4) for i, h in enumerate(hashes)]
        got = bulk_answers(filled.engine, filled.cluster.cost, op, pairs)
        assert got == [getattr(uncached.queries, op)(h, node)
                       for h, node in pairs]
        assert [a.degraded for a in got] == \
            [True] * width + [False] * len(filled.elsewhere)
        for world in (filled, uncached):
            assert not world.engine.membership.partition.is_alive(0)
        assert filled.engine.stats.failovers == \
            uncached.engine.stats.failovers == 1
        assert filled.engine.membership.epoch_vector().tolist() == \
            uncached.engine.membership.epoch_vector().tolist()
