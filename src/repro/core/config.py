"""Platform configuration: one frozen dataclass instead of kwarg plumbing.

:class:`ConCORDConfig` collects every knob the :class:`~repro.core.concord.
ConCORD` facade used to take as ad-hoc keyword arguments (and silently
re-plumb into the tracing engine).  A config value is immutable, hashable,
and comparable, so experiments can sweep variations with
:func:`dataclasses.replace` and log the exact configuration they ran.

The facade accepts configuration *only* this way
(``ConCORD(cluster, ConCORDConfig(use_network=True))``;
docs/ARCHITECTURE.md has the field table).  Fields that default from a
``CONCORD_*`` env var reject an invalid value with ``ValueError``
(:func:`repro.util.env.env_default`), and so does construction for any
field value that could not work (``__post_init__``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.dht.engine import TRANSPORTS
from repro.dht.partition import PLACEMENT_POLICIES
from repro.dht.storage import StorageConfig
from repro.memory.monitor import MonitorMode
from repro.obs import ObsConfig
from repro.serve.config import ServeConfig
from repro.sim.costmodel import HASH_ALGOS
from repro.util.env import env_default

__all__ = ["ConCORDConfig"]


_CHUNKING_SCHEMES = ("fixed", "cdc")


def _default_chunking() -> str:
    """Default chunking scheme: the ``CONCORD_CHUNKING`` env var, else
    fixed page blocks."""
    return env_default("CONCORD_CHUNKING", "fixed", _CHUNKING_SCHEMES)


@dataclass(frozen=True)
class ConCORDConfig:
    """Everything configurable about a ConCORD instance.

    Fields
    ------
    use_network:
        If True, DHT updates travel as best-effort datagrams through the
        simulated network (and can be lost under load or injected faults);
        if False they apply synchronously and losslessly — the right
        setting for unit tests and for experiments that inject staleness
        deliberately.
    monitor_mode / hash_algo / throttle_updates_per_s:
        Memory update monitor configuration (paper §3.1).
    n_represented:
        Coarse-graining factor: each simulated block stands for this many
        real 4 KB blocks.  Costs, wire sizes, and reported counts scale by
        it; content *structure* (redundancy) is unaffected.  See DESIGN.md.
    update_batch_size:
        Hash updates per wire message (None = engine default).
    update_transport:
        ``"udp"`` (best-effort datagrams, paper default) or ``"rdma"``
        (one-sided writes: no receive-side per-packet cost, §3.4).
    workers:
        Always 1: every shard kernel runs inline, in shard order; any
        other value raises ``ValueError``.  Not a setting — the field
        remains only because the repo benchmark (``bench/``) passes
        ``workers=1``, until a benchmark change drops it together with
        its ``exec.pool`` layer.
    obs:
        Observability section (:class:`~repro.obs.ObsConfig`): the metrics
        registry is always on; ``obs.trace`` turns on sim-time span tracing
        (see docs/OBSERVABILITY.md).
    serve:
        Query-serving section (:class:`~repro.serve.config.ServeConfig`):
        admission control, batching windows, and the update-epoch result
        cache used by ``ConCORD.frontend()`` (see docs/SERVING.md).
    storage:
        Shard storage section (:class:`~repro.dht.storage.StorageConfig`):
        whether the DHT shards are RAM-only (``memory``) or persist
        through mmap shard files (``mmap``), defaulting from
        ``$CONCORD_STORAGE``, and the root directory for those files
        (``$CONCORD_STORAGE_DIR``; None = a private temp dir per
        instance).  ``mmap`` plus a named root is what enables warm
        restart (docs/STORAGE.md).
    chunking:
        Block-boundary scheme for *byte-backed* entities
        (``Entity.from_bytes``): ``"fixed"`` (default, or any unset
        ``$CONCORD_CHUNKING``) hashes page_size slices — byte-identical
        to the pre-chunking behavior; ``"cdc"`` attaches a Gear
        rolling-hash :class:`~repro.memory.chunking.ContentChunker` so
        block boundaries travel with content and shifted/inserted byte
        streams still dedup (docs/RECONCILIATION.md).  Synthetic
        ID-backed entities always use fixed page blocks — their pages
        are atomic content units with no byte substructure to re-chunk.
    placement:
        Hash→node placement policy of the DHT partition
        (:data:`~repro.dht.partition.PLACEMENT_POLICIES`): ``mod``
        (default; the original fixed-membership map) or ``hd``
        (hyperdimensional-style similarity placement), which minimizes
        entries moved per ``add_node()`` resize — see
        docs/ELASTICITY.md.
    """

    use_network: bool = False
    monitor_mode: MonitorMode = MonitorMode.PERIODIC_SCAN
    hash_algo: str = "sfh"
    throttle_updates_per_s: float | None = None
    n_represented: int = 1
    update_batch_size: int | None = None
    update_transport: str = "udp"
    workers: int = 1
    obs: ObsConfig = field(default_factory=ObsConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    placement: str = "mod"
    chunking: str = field(default_factory=_default_chunking)

    def __post_init__(self) -> None:
        """Reject an invalid value here, by field name, not at first use."""
        def check(name: str, ok: bool, expected: str) -> None:
            if not ok:
                raise ValueError(
                    f"ConCORDConfig.{name}={getattr(self, name)!r} is not "
                    f"valid: expected {expected}")

        def one_of(name: str, choices: tuple[str, ...]) -> None:
            check(name, getattr(self, name) in choices,
                  "one of " + ", ".join(choices))

        check("n_represented", self.n_represented >= 1, ">= 1")
        check("update_batch_size", self.update_batch_size is None
              or self.update_batch_size >= 1, "None or >= 1")
        check("throttle_updates_per_s", self.throttle_updates_per_s is None
              or self.throttle_updates_per_s > 0, "None or > 0")
        check("workers", self.workers == 1 and type(self.workers) is int,
              "1 (shard kernels always run inline)")
        one_of("hash_algo", HASH_ALGOS)
        one_of("update_transport", TRANSPORTS)
        one_of("placement", PLACEMENT_POLICIES)
        one_of("chunking", _CHUNKING_SCHEMES)

    def replace(self, **changes) -> ConCORDConfig:
        """Functional update (`dataclasses.replace` as a method)."""
        return dataclasses.replace(self, **changes)
