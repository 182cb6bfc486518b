"""The ConCORD query interface (paper Fig 3) in one place: the op table,
the answer type, and the implementation of all eight queries.

Application services and tools issue queries through
:class:`QueryInterface`.  Every answer is a :class:`QueryResult` carrying
its modelled latency (so experiments can report Fig 8/9-style series while
tests assert on the values) plus the fault-tolerance annotations:
``coverage`` — the fraction of the hash space served by intact shards —
and ``degraded``, set when the answer may undercount because of unrepaired
failures (docs/FAULTS.md).

Node-wise queries
-----------------
Content information lives on the home node of its hash, so a node-wise
query is one request/response to that node plus a local hash-table lookup;
its latency "is dominated by the communication, which is essentially a ping
time" (paper §5.3, Fig 8), independent of how many hashes the shard holds.
When a hash's primary range was holed by a node failure and has not been
repaired yet, the (re-homed) shard simply has no entry — the query still
answers, marked ``degraded``.

Collective queries
------------------
Definitions (paper §3.3; reconstructed precisely from the dissertation's
degree-of-sharing usage in Fig 14).  For an entity set S, using the DHT's
best-effort view, let ``copies(h, S)`` be the number of copies of hash
``h`` across S and ``distinct(S)`` the number of hashes with at least one
copy.  With ``tot(S) = sum_h copies``:

* ``sharing(S)      = (tot - distinct) / tot``  — redundant-block fraction;
* ``intra_sharing``  — the part of that redundancy between copies on the
  *same node*:  ``sum_h sum_n (copies(h, S on n) - 1 if > 0) / tot``;
* ``inter_sharing``  — the cross-node part:
  ``sum_h (nodes_holding(h, S) - 1 if > 0) / tot``.

``intra + inter == sharing`` identically (each hash's ``copies - 1``
duplicates split into within-node and across-node parts), a property the
test suite checks for arbitrary workloads.  The *degree of sharing* (DoS)
plotted in Fig 14 is ``distinct / tot = 1 - sharing``.

* ``num_shared_content(S, k)`` / ``shared_content(S, k)`` — the "at least k
  copies" queries: how much / which content is replicated >= k times.

Execution: ``ExecMode.DISTRIBUTED`` scans every shard in parallel and
combines the partial sums over a binomial reduction tree (latency = slowest
shard scan + tree latency — constant as nodes and memory scale together).
``ExecMode.SINGLE`` executes the same scan over all entries at one node
(latency linear in total entries).  The Fig 9 crossover between the two is
the design argument for distributing the DHT; :meth:`QueryInterface._answer`
charges that modelled cost to the sim clock.

On the host a collective query runs its kernel once, over one read view of
the cluster: :meth:`Generation.union <repro.dht.generation.Generation.union>`
of the live shards' current generations.  A hash is stored only at its
home, so the union's integer sums are the shards' sums, bit for bit.  The
view is cached on the *identity* of the live shards' generations: a
generation is never written in place and ``LocalDHT.generation()`` returns
a new one after any write, so the view is rebuilt after every write
(epoch-bumping or not) and membership change, and reused otherwise
(BlobSeer's shared immutable version, PAPERS.md "Distributed Management
of Massive Data").

Scans cover only the *live* shards.  Hash ranges holed by a node failure
(not yet repaired) contribute nothing, so every answer is annotated with
``coverage`` and is ``degraded`` when that is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.command import ExecMode
from repro.dht.engine import ContentTracingEngine
from repro.dht.generation import Generation
from repro.exec import ops as _ops
from repro.exec.ops import SharingBreakdown
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel

__all__ = ["QueryInterface", "QueryResult", "QueryOp", "OPS",
           "nodewise_result"]


@dataclass(frozen=True)
class QueryResult:
    """Uniform answer: value, modelled cost, and degradation status."""

    value: object
    latency: float       # total: communication + compute (Fig 8's two curves)
    compute_time: float  # at the (slowest) answering node only
    coverage: float = 1.0   # intact fraction of the hash space
    degraded: bool = False  # True when the answer may undercount


_new = object.__new__
_setattr = object.__setattr__


class QueryOp(NamedTuple):
    """Shape of one Fig 3 operation as the serving layers see it."""

    #: Node-wise ops take one content hash and are answered by its home
    #: shard; collective ops take an entity set and scan every live shard.
    nodewise: bool
    #: Whether a ``k`` follows the entity set (positional arity 2, not 1).
    takes_k: bool = False


#: The op table: every layer that dispatches on, validates, or generates
#: queries by name derives from this (``serve.request``'s op tuples,
#: admission, the cache's ``query``, the frontend, ``TrafficDriver``).
#: Each name is a :class:`QueryInterface` method.
OPS: dict[str, QueryOp] = {
    "num_copies": QueryOp(nodewise=True),
    "entities": QueryOp(nodewise=True),
    "sharing": QueryOp(nodewise=False),
    "intra_sharing": QueryOp(nodewise=False),
    "inter_sharing": QueryOp(nodewise=False),
    "degree_of_sharing": QueryOp(nodewise=False),
    "num_shared_content": QueryOp(nodewise=False, takes_k=True),
    "shared_content": QueryOp(nodewise=False, takes_k=True),
}


def nodewise_result(cost: CostModel, op: str, value, issuing_node: int,
                    home_node: int, coverage: float,
                    degraded: bool) -> QueryResult:
    """A node-wise answer from its looked-up ``value``: the one place the
    compute / response-size / latency formulas live, shared by the scalar
    queries below and the serving kernel (``serve.batcher.bulk_answers``).
    """
    if op == "num_copies":
        compute = cost.query_compute_base
        resp_bytes = 8
    else:
        # Scanning the bitmap words costs slightly more than the bare lookup.
        compute = cost.query_compute_base * 1.6
        resp_bytes = 4 * len(value) + 8
    # One request/response to the home shard, free when issued from it.
    latency = compute if issuing_node == home_node else (
        cost.rtt() + cost.tx_time(resp_bytes + 74) + compute)
    # The fields set directly: the frozen __init__'s five setattr calls,
    # without the call.
    result = _new(QueryResult)
    _setattr(result, "value", value)
    _setattr(result, "latency", latency)
    _setattr(result, "compute_time", compute)
    _setattr(result, "coverage", coverage)
    _setattr(result, "degraded", degraded)
    return result


def _is_integer(x) -> bool:
    """The one integer rule for a content hash, an entity id and ``k``
    alike (admission and the direct API): an ``int`` or NumPy integer of
    any width, never a ``bool`` (``True`` is not content hash 1)."""
    return type(x) is int or (isinstance(x, (int, np.integer))
                              and not isinstance(x, bool))


#: A content hash is an integer in ``[0, _HASH_MAX]``: one 64-bit word.
_HASH_MAX = (1 << 64) - 1


def _check_hash(h) -> None:
    if not (_is_integer(h) and 0 <= h <= _HASH_MAX):
        raise ValueError(f"content hash {h!r} is not an integer in "
                         "[0, 2**64)")


def _check_k(k) -> None:
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


class QueryInterface:
    """Issue the paper's node-wise and collective queries.

    A collective query runs one kernel over :meth:`view`, the cached
    union of the live shards' generations.
    """

    def __init__(self, cluster: Cluster, engine: ContentTracingEngine,
                 n_represented: int = 1) -> None:
        self.cluster = cluster
        self.engine = engine
        self.membership = engine.membership
        self.cost: CostModel = cluster.cost
        self.n_represented = n_represented
        self._view_key: tuple[Generation, ...] = ()
        self._view = Generation.union(())

    # -- node-wise (paper Fig 3, top) --------------------------------------------

    def num_copies(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        """How many copies of this content exist (per the best-effort view)."""
        _check_hash(content_hash)
        engine = self.engine
        home = engine.home_node(content_hash)
        return nodewise_result(
            self.cost, "num_copies",
            engine.shards[home].num_copies(content_hash), issuing_node, home,
            self.membership.coverage, engine.is_degraded(content_hash))

    def entities(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        """Which entities currently have copies (per the best-effort view)."""
        _check_hash(content_hash)
        engine = self.engine
        home = engine.home_node(content_hash)
        return nodewise_result(
            self.cost, "entities",
            set(engine.shards[home].entity_ids(content_hash)), issuing_node,
            home, self.membership.coverage, engine.is_degraded(content_hash))

    # -- collective helpers --------------------------------------------------------

    def view(self) -> Generation:
        """The live shards' current generations as one frozen union,
        rebuilt only when one of them is no longer the one it was built
        from (generations compare by identity)."""
        key = tuple(s.generation() for s in self.engine.live_shards())
        if key != self._view_key:
            self._view = Generation.union(key)
            self._view_key = key
        return self._view

    def _entity_masks(self, entity_ids: list[int]) -> tuple[int, dict[int, int]]:
        """(set mask, per-node masks) for the queried entity set; an id
        that is not a known entity's raises ValueError naming it."""
        entities = self.cluster.entities
        s_mask = 0
        node_masks: dict[int, int] = {}
        for eid in entity_ids:
            if not _is_integer(eid) or eid not in entities:
                raise ValueError(f"entity id {eid!r} is not a known entity")
            bit = 1 << int(eid)
            s_mask |= bit
            node = entities[eid].node_id
            node_masks[node] = node_masks.get(node, 0) | bit
        return s_mask, node_masks

    def _answer(self, value: object, exec_mode: ExecMode,
                result_bytes: int = 16) -> QueryResult:
        """Annotate a collective value with the scan's modelled cost."""
        mode = ExecMode.check(exec_mode)
        cost = self.cost
        per_entry = cost.query_scan_per_entry * self.n_represented
        sizes = self.engine.shard_sizes()
        max_scan = max(sizes) * per_entry if sizes else 0.0
        if mode is ExecMode.DISTRIBUTED:
            depth = cost.tree_depth(self.cluster.n_nodes)
            reduce_t = depth * (cost.udp_latency + cost.query_reduce_per_node
                                + cost.tx_time(result_bytes + 74))
            latency = cost.rtt() + max_scan + reduce_t + cost.query_compute_base
        elif mode is ExecMode.SINGLE:
            latency = (cost.rtt() + sum(sizes) * per_entry
                       + cost.query_compute_base)
        else:
            raise ValueError(
                f"exec_mode {mode} is a command mode, not a query mode "
                "(use ExecMode.DISTRIBUTED or ExecMode.SINGLE)")
        coverage = self.membership.coverage
        return QueryResult(value, latency, max_scan, coverage,
                           degraded=coverage < 1.0)

    def breakdown(self, entity_ids: list[int]) -> SharingBreakdown:
        """Full sharing breakdown (shared work for the sharing queries).

        Scans the live shards only; under unrepaired failures the holed
        ranges contribute nothing (the callers annotate coverage).
        """
        s_mask, node_masks = self._entity_masks(entity_ids)
        return _ops.shard_breakdown(self.view(), s_mask, node_masks)

    # -- collective (paper Fig 3, middle) --------------------------------------------

    def sharing(self, entity_ids: list[int],
                exec_mode: ExecMode = ExecMode.DISTRIBUTED) -> QueryResult:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else (
            (b.total_copies - b.distinct) / b.total_copies)
        return self._answer(val, exec_mode)

    def intra_sharing(self, entity_ids: list[int],
                      exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                      ) -> QueryResult:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else b.intra_dup / b.total_copies
        return self._answer(val, exec_mode)

    def inter_sharing(self, entity_ids: list[int],
                      exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                      ) -> QueryResult:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else b.inter_dup / b.total_copies
        return self._answer(val, exec_mode)

    def degree_of_sharing(self, entity_ids: list[int],
                          exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                          ) -> QueryResult:
        """distinct/total — the DoS line plotted in Fig 14 (1 - sharing).

        A full collective query like the others: it runs the same shard
        scans, so it carries the same modelled latency and coverage.
        """
        b = self.breakdown(entity_ids)
        val = 1.0 if b.total_copies == 0 else b.distinct / b.total_copies
        return self._answer(val, exec_mode)

    def num_shared_content(self, entity_ids: list[int], k: int,
                           exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                           ) -> QueryResult:
        _check_k(k)
        s_mask, _ = self._entity_masks(entity_ids)
        count = _ops.count_at_least(self.view(), s_mask, k)
        return self._answer(count * self.n_represented, exec_mode)

    def shared_content(self, entity_ids: list[int], k: int,
                       exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                       ) -> QueryResult:
        _check_k(k)
        s_mask, _ = self._entity_masks(entity_ids)
        hashes = set(_ops.hashes_at_least(self.view(), s_mask, k).tolist())
        return self._answer(hashes, exec_mode,
                            result_bytes=8 * len(hashes) * self.n_represented)
