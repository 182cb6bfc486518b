"""Collective queries: aggregate content information across shards.

Definitions (paper §3.3; reconstructed precisely from the dissertation's
degree-of-sharing usage in Fig 14):

For an entity set S, using the DHT's best-effort view, let ``copies(h, S)``
be the number of copies of hash ``h`` across S and ``distinct(S)`` the
number of hashes with at least one copy.  With ``tot(S) = sum_h copies``:

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

Degraded mode: scans cover only the *live* shards.  Hash ranges holed by a
node failure (not yet repaired) contribute nothing, so every answer is
annotated with ``coverage`` — the intact fraction of the hash space — and
``degraded`` when that is below 1 (docs/FAULTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.command import ExecMode
from repro.dht.engine import ContentTracingEngine
from repro.exec import ops as _ops
from repro.exec.pool import ShardPool
from repro.exec.ops import SharingBreakdown
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel

__all__ = ["CollectiveAnswer", "CollectiveQueryEngine"]

_U64 = np.uint64
_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class CollectiveAnswer:
    value: object
    latency: float
    max_shard_compute: float
    total_compute: float
    coverage: float = 1.0
    degraded: bool = False


def _merge_breakdown(a: SharingBreakdown,
                     b: SharingBreakdown) -> SharingBreakdown:
    a.merge(b)
    return a


class CollectiveQueryEngine:
    """Executes collective queries over the tracing engine's shards.

    Shard scans dispatch through a :class:`~repro.exec.pool.ShardPool`
    (docs/PARALLEL.md): at ``workers=1`` they run inline exactly as
    before; with workers the per-shard kernels fan out across processes
    and partial results merge in shard-index order, so the answers are
    byte-identical at any worker count.
    """

    def __init__(self, cluster: Cluster, engine: ContentTracingEngine,
                 n_represented: int = 1, pool: ShardPool | None = None) -> None:
        self.cluster = cluster
        self.engine = engine
        self.cost: CostModel = cluster.cost
        self.n_represented = n_represented
        self.pool = pool if pool is not None else ShardPool(1)

    # -- helpers -----------------------------------------------------------------

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

    def _shard_in_s_copies(self, shard, s_mask: int) \
            -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, int]]:
        """One shard's in-S scan (kernel body in :mod:`repro.exec.ops`)."""
        return _ops.shard_in_s_copies(shard, s_mask)

    def _shard_breakdown(self, shard, s_mask: int,
                         node_masks: dict[int, int]) -> SharingBreakdown:
        """One shard's partial sums (kernel in :mod:`repro.exec.ops`)."""
        return _ops.shard_breakdown(shard, s_mask, node_masks)

    def _live_shards_versioned(self) -> tuple[list, list[int]]:
        """The live shards plus their epochs (segment-reuse versions)."""
        shards = self.engine.live_shards()
        return shards, [self.engine.shard_epoch(s.node_id) for s in shards]

    # -- latency model -------------------------------------------------------------

    def _scan_latency(self, mode: ExecMode, result_bytes: int = 16) -> float:
        cost = self.cost
        per_entry = cost.query_scan_per_entry * self.n_represented
        sizes = self.engine.shard_sizes()
        if mode is ExecMode.DISTRIBUTED:
            max_scan = max(sizes) * per_entry if sizes else 0.0
            depth = cost.tree_depth(self.cluster.n_nodes)
            reduce_t = depth * (cost.udp_latency + cost.query_reduce_per_node
                                + cost.tx_time(result_bytes + 74))
            return cost.rtt() + max_scan + reduce_t + cost.query_compute_base
        if mode is ExecMode.SINGLE:
            total_scan = sum(sizes) * per_entry
            return cost.rtt() + total_scan + cost.query_compute_base
        raise ValueError(
            f"exec_mode {mode} is a command mode, not a query mode "
            "(use ExecMode.DISTRIBUTED or ExecMode.SINGLE)")

    def _compute_times(self) -> tuple[float, float]:
        per_entry = self.cost.query_scan_per_entry * self.n_represented
        sizes = self.engine.shard_sizes()
        max_c = max(sizes) * per_entry if sizes else 0.0
        return max_c, sum(sizes) * per_entry

    def _answer(self, value: object, exec_mode: ExecMode | str,
                result_bytes: int = 16) -> CollectiveAnswer:
        mode = ExecMode.coerce(exec_mode)
        max_c, total_c = self._compute_times()
        coverage = self.engine.coverage
        return CollectiveAnswer(value, self._scan_latency(mode, result_bytes),
                                max_c, total_c, coverage=coverage,
                                degraded=coverage < 1.0)

    # -- the five collective queries -----------------------------------------------

    def breakdown(self, entity_ids: list[int]) -> SharingBreakdown:
        """Full sharing breakdown (shared work for the first three queries).

        Scans the live shards only; under unrepaired failures the holed
        ranges contribute nothing (the callers annotate coverage).
        """
        s_mask, node_masks = self._entity_masks(entity_ids)
        shards, versions = self._live_shards_versioned()
        return self.pool.map_shards(shards, _ops.shard_breakdown,
                                    (s_mask, node_masks), versions=versions,
                                    reduce_fn=_merge_breakdown,
                                    initial=SharingBreakdown())

    def sharing(self, entity_ids: list[int],
                exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                ) -> CollectiveAnswer:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else (
            (b.total_copies - b.distinct) / b.total_copies)
        return self._answer(val, exec_mode)

    def intra_sharing(self, entity_ids: list[int],
                      exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                      ) -> CollectiveAnswer:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else b.intra_dup / b.total_copies
        return self._answer(val, exec_mode)

    def inter_sharing(self, entity_ids: list[int],
                      exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                      ) -> CollectiveAnswer:
        b = self.breakdown(entity_ids)
        val = 0.0 if b.total_copies == 0 else b.inter_dup / b.total_copies
        return self._answer(val, exec_mode)

    def degree_of_sharing(self, entity_ids: list[int],
                          exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                          ) -> CollectiveAnswer:
        """distinct/total — the DoS line plotted in Fig 14 (1 - sharing).

        A full collective query like the others: it runs the same shard
        scans, so it carries the same modelled latency and coverage.
        """
        b = self.breakdown(entity_ids)
        val = 1.0 if b.total_copies == 0 else b.distinct / b.total_copies
        return self._answer(val, exec_mode)

    def num_shared_content(self, entity_ids: list[int], k: int,
                           exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                           ) -> CollectiveAnswer:
        if k < 1:
            raise ValueError("k must be >= 1")
        s_mask, _ = self._entity_masks(entity_ids)
        shards, versions = self._live_shards_versioned()
        count = self.pool.map_shards(shards, _ops.count_at_least,
                                     (s_mask, k), versions=versions,
                                     reduce_fn=lambda a, b: a + b, initial=0)
        return self._answer(count * self.n_represented, exec_mode)

    def shared_content(self, entity_ids: list[int], k: int,
                       exec_mode: ExecMode | str = ExecMode.DISTRIBUTED,
                       ) -> CollectiveAnswer:
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
