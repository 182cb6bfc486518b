"""Parallel execution backend: ShardPool over shards.

See docs/PARALLEL.md.  Per-shard kernels live in :mod:`repro.exec.ops`
(import-leaf, worker-safe); :class:`ShardPool` fans them out across
processes over shared-memory shard views; ``ConCORD.map_shards`` runs
analytics jobs through it.
"""

from repro.exec.pool import DEFAULT_MIN_ROWS, ShardPool

__all__ = ["ShardPool", "DEFAULT_MIN_ROWS"]
