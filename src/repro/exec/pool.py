"""ShardPool: the executor's in-order map-and-fold over shards.

The paper's executor is a map-reduce engine over the DHT (§3.1); its
parallelism is across cluster nodes, which the simulator charges
analytically.  On the host every per-shard kernel (:mod:`repro.exec.ops`)
runs inline, in shard order, on the real shards, and results fold
left-to-right in that same order.  The pool holds no state; callers keep
going through it so the executor's map-reduce steps stay one named seam.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import reduce

from repro.dht.table import LocalDHT

__all__ = ["ShardPool"]


class ShardPool:
    """Map a kernel over shards (or tasks) inline, in order."""

    #: Every call runs inline; there is no other mode.
    parallel = False

    def map_shards(self, shards: Sequence[LocalDHT], map_fn: Callable,
                   args: tuple = (), *,
                   args_per_shard: Sequence[tuple] | None = None,
                   reduce_fn: Callable | None = None, initial=None):
        """``map_fn(shard, *args)`` over shards, reduced in shard order.

        ``args_per_shard`` overrides ``args`` with one tuple per shard.
        Without ``reduce_fn`` the per-shard results come back as a list
        in shard order; with it they fold left-to-right from ``initial``
        (or from the first result when ``initial`` is None, in which case
        folding zero shards raises ``TypeError``).
        """
        if args_per_shard is None:
            results = [map_fn(s, *args) for s in shards]
        else:  # misaligned lists raise ValueError
            results = [map_fn(s, *a)
                       for s, a in zip(shards, args_per_shard, strict=True)]
        if reduce_fn is None:
            return results
        if initial is None:
            return reduce(reduce_fn, results)
        return reduce(reduce_fn, results, initial)

    def run_tasks(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        """``fn(*task)`` for each task, results in task order."""
        return [fn(*t) for t in tasks]
