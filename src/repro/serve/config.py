"""Configuration of the query-serving frontend (docs/SERVING.md).

One frozen dataclass, carried as the ``serve`` section of
:class:`~repro.core.config.ConCORDConfig` — the same arrangement as the
``obs`` section.  This module is import-leaf (no repro imports), so the
core config can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything configurable about a :class:`~repro.serve.QueryFrontend`.

    Counts and the node are integers, windows, costs and the rate finite
    non-negative numbers; anything else raises ``ValueError`` naming
    ``ServeConfig.<field>`` at construction (and at :meth:`replace`).

    Fields
    ------
    frontend_node:
        Node the frontend process runs on; its CPU is the serial resource
        requests serialize over.
    queue_limit:
        Bounded admission queue depth *per QoS class*; a full queue sheds
        load with a typed ``Rejected(QUEUE_FULL)`` answer.
    rate_limit_qps / rate_burst:
        Token-bucket admission rate over all classes (tokens refill on the
        sim clock).  ``None`` or ``0`` disables rate limiting.
    interactive_window_s / batch_window_s:
        Batching windows: how long an admitted request may wait for
        companions before its class's queue is drained.  Interactive
        queries trade little latency for coalescing; batch commands trade
        more for bigger bulk lookups.
    max_batch:
        Requests drained per batch, after which a fresh drain is scheduled
        immediately (prevents unbounded batches under overload).
    cache_capacity:
        The update-epoch result cache (docs/SERVING.md): answers keyed on
        ``(query, args, shard-epoch)`` and invalidated precisely when a
        covering shard's epoch advances.  Capacity is entries, evicted
        LRU; capacity 0 turns the cache off — a true bypass (nothing
        stored, every lookup misses, no evictions counted).
    cache_hit_cost_s:
        Modelled service time of answering from cache (a dict hit plus
        serialization) — the denominator of the cached-throughput win.
    verify_cache:
        Shadow mode: every cache hit *also* executes the query and
        compares answers, counting ``serve.cache.violations``.  Slow;
        meant for CI smoke runs and debugging, not serving.
    """

    frontend_node: int = 0
    queue_limit: int = 256
    rate_limit_qps: float | None = None
    rate_burst: int = 64
    interactive_window_s: float = 100e-6
    batch_window_s: float = 2e-3
    max_batch: int = 128
    cache_capacity: int = 65536
    cache_hit_cost_s: float = 2e-6
    verify_cache: bool = False

    def __post_init__(self) -> None:
        # A NaN or infinite window or cost cannot be scheduled on the sim
        # clock, and a fractional count cannot size a queue or a batch:
        # refuse them here, naming the field, not inside a later drain.
        for name, low in (("frontend_node", 0), ("queue_limit", 1),
                          ("rate_burst", 1), ("max_batch", 1),
                          ("cache_capacity", 0)):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                    or v < low):
                raise ValueError(
                    f"ServeConfig.{name} must be an integer >= {low}, "
                    f"got {v!r}")
        reals = ["interactive_window_s", "batch_window_s", "cache_hit_cost_s"]
        if self.rate_limit_qps is not None:
            reals.append("rate_limit_qps")
        for name in reals:
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v) or v < 0):
                raise ValueError(
                    f"ServeConfig.{name} must be a finite number >= 0, "
                    f"got {v!r}")

    def replace(self, **changes) -> ServeConfig:
        """Functional update (`dataclasses.replace` as a method)."""
        return dataclasses.replace(self, **changes)
