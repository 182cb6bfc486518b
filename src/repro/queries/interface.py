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
the design argument for distributing the DHT.

Scans cover only the *live* shards.  Hash ranges holed by a node failure
(not yet repaired) contribute nothing, so every answer is annotated with
``coverage`` and is ``degraded`` when that is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.command import ExecMode
from repro.dht.engine import ContentTracingEngine
from repro.exec import ops as _ops
from repro.exec.ops import SharingBreakdown
from repro.exec.pool import ShardPool
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
    return QueryResult(value, latency, compute, coverage, degraded)


def _merge_breakdown(a: SharingBreakdown,
                     b: SharingBreakdown) -> SharingBreakdown:
    a.merge(b)
    return a


class QueryInterface:
    """Issue the paper's node-wise and collective queries.

    Collective shard scans dispatch through a
    :class:`~repro.exec.pool.ShardPool` (docs/PARALLEL.md): at
    ``workers=1`` they run inline; with workers the per-shard kernels fan
    out across processes and partial results merge in shard-index order,
    so the answers are byte-identical at any worker count.
    """

    def __init__(self, cluster: Cluster, engine: ContentTracingEngine,
                 n_represented: int = 1, pool: ShardPool | None = None) -> None:
        self.cluster = cluster
        self.engine = engine
        self.membership = engine.membership
        self.cost: CostModel = cluster.cost
        self.n_represented = n_represented
        self.pool = pool if pool is not None else ShardPool(1)

    # -- node-wise (paper Fig 3, top) --------------------------------------------

    def num_copies(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        """How many copies of this content exist (per the best-effort view)."""
        engine = self.engine
        home = engine.home_node(content_hash)
        return nodewise_result(
            self.cost, "num_copies",
            engine.shards[home].num_copies(content_hash), issuing_node, home,
            self.membership.coverage, engine.is_degraded(content_hash))

    def entities(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        """Which entities currently have copies (per the best-effort view)."""
        engine = self.engine
        home = engine.home_node(content_hash)
        return nodewise_result(
            self.cost, "entities",
            set(engine.shards[home].entity_ids(content_hash)), issuing_node,
            home, self.membership.coverage, engine.is_degraded(content_hash))

    # -- collective helpers --------------------------------------------------------

    def _entity_masks(self, entity_ids: list[int]) -> tuple[int, dict[int, int]]:
        """(set mask, per-node masks) for the queried entity set."""
        s_mask = 0
        node_masks: dict[int, int] = {}
        for eid in entity_ids:
            bit = 1 << eid
            s_mask |= bit
            node = self.cluster.node_of(eid)
            node_masks[node] = node_masks.get(node, 0) | bit
        return s_mask, node_masks

    def _live_shards_versioned(self) -> tuple[list, list[int]]:
        """The live shards plus their epochs (segment-reuse versions)."""
        shards = self.engine.live_shards()
        return shards, [s.epoch for s in shards]

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
        shards, versions = self._live_shards_versioned()
        return self.pool.map_shards(shards, _ops.shard_breakdown,
                                    (s_mask, node_masks), versions=versions,
                                    reduce_fn=_merge_breakdown,
                                    initial=SharingBreakdown())

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
        if k < 1:
            raise ValueError("k must be >= 1")
        s_mask, _ = self._entity_masks(entity_ids)
        shards, versions = self._live_shards_versioned()
        count = self.pool.map_shards(shards, _ops.count_at_least,
                                     (s_mask, k), versions=versions,
                                     reduce_fn=lambda a, b: a + b, initial=0)
        return self._answer(count * self.n_represented, exec_mode)

    def shared_content(self, entity_ids: list[int], k: int,
                       exec_mode: ExecMode = ExecMode.DISTRIBUTED,
                       ) -> QueryResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        s_mask, _ = self._entity_masks(entity_ids)
        shards, versions = self._live_shards_versioned()
        hashes: set[int] = set()
        for hs in self.pool.map_shards(shards, _ops.hashes_at_least,
                                       (s_mask, k), versions=versions):
            if len(hs):
                hashes.update(hs.tolist())
        return self._answer(hashes, exec_mode,
                            result_bytes=8 * len(hashes) * self.n_represented)
