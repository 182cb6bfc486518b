"""Shard execution: per-shard kernels and the in-order map-and-fold.

Per-shard kernels live in :mod:`repro.exec.ops` (an import leaf);
:class:`ShardPool` maps them over shards inline and folds the results in
shard order; ``ConCORD.map_shards`` runs analytics jobs through it.
"""

from repro.exec.pool import ShardPool

__all__ = ["ShardPool"]
