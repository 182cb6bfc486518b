"""Redundancy profiling over the query interface.

Everything here consumes only public ConCORD queries (plus
``ConCORD.map_shards`` for the copy distribution — the executor's
map-reduce over shards, which a real deployment would expose as one more
collective query) — the platform-service thesis in action: tools need no
monitor or tracking code of their own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.concord import ConCORD
from repro.exec import ops as _ops
from repro.util.stats import Table

__all__ = ["RedundancySnapshot", "RedundancyProfiler", "copy_distribution",
           "top_shared_content"]


@dataclass(frozen=True)
class RedundancySnapshot:
    """One observation of an entity set's redundancy."""

    time: float
    sharing: float
    intra_sharing: float
    inter_sharing: float
    dos: float
    tracked_hashes: int

    @property
    def dedup_potential(self) -> float:
        """Fraction of blocks a perfect deduplicator would not store."""
        return self.sharing


class RedundancyProfiler:
    """Periodic redundancy observation of an entity set.

    Mirrors the measurement methodology of the paper's prior study: sync
    the view, snapshot the sharing metrics, repeat.  Snapshots accumulate
    in :attr:`history`; :meth:`report` renders the time series.
    """

    def __init__(self, concord: ConCORD, entity_ids: list[int]) -> None:
        if not entity_ids:
            raise ValueError("need at least one entity to profile")
        self.concord = concord
        self.entity_ids = list(entity_ids)
        concord.queries._entity_masks(self.entity_ids)  # unknown ids raise
        self.history: list[RedundancySnapshot] = []

    def snapshot(self, time: float | None = None,
                 sync: bool = True) -> RedundancySnapshot:
        """Take one observation (optionally syncing the view first).

        When called from inside an engine event (see :meth:`run_on`), the
        sync cannot re-run the engine; monitor updates are flushed and
        ride the already-running simulation instead.
        """
        if sync:
            engine = self.concord.cluster.engine
            self.concord.sync(run_network=not engine._running)
        t = (self.concord.cluster.engine.now if time is None else time)
        snap = RedundancySnapshot(
            time=t,
            sharing=self.concord.sharing(self.entity_ids).value,
            intra_sharing=self.concord.intra_sharing(self.entity_ids).value,
            inter_sharing=self.concord.inter_sharing(self.entity_ids).value,
            dos=self.concord.degree_of_sharing(self.entity_ids).value,
            tracked_hashes=self.concord.total_tracked_hashes,
        )
        self.history.append(snap)
        return snap

    def run_on(self, engine, period: float, horizon: float) -> None:
        """Schedule periodic snapshots on the simulation engine."""
        if period <= 0:
            raise ValueError("period must be positive")

        def _tick() -> None:
            self.snapshot()  # in-engine: sync flushes without re-running
            if engine.now + period <= horizon:
                engine.after(period, _tick)

        engine.after(period, _tick)

    def report(self) -> Table:
        t = Table("Redundancy profile", "time_s")
        s_sh = t.add_series("sharing")
        s_in = t.add_series("intra")
        s_ix = t.add_series("inter")
        s_dos = t.add_series("dos")
        for snap in self.history:
            t.x_values.append(round(snap.time, 6))
            s_sh.append(snap.sharing)
            s_in.append(snap.intra_sharing)
            s_ix.append(snap.inter_sharing)
            s_dos.append(snap.dos)
        return t


def copy_distribution(concord: ConCORD, entity_ids: list[int]) -> Counter:
    """copies -> number of distinct hashes with that many copies.

    The histogram behind the "at least k copies" queries: its tail tells a
    service which content is worth exploiting (paper §3.3).
    """
    mask, _ = concord.queries._entity_masks(entity_ids)
    dist: Counter = Counter()
    # MapReduce over shards: one columnar histogram
    # kernel per shard, merged centrally in shard order.
    for hist in concord.map_shards(_ops.copy_histogram, (mask,)):
        dist.update(hist)
    return dist


def top_shared_content(concord: ConCORD, entity_ids: list[int],
                       n: int = 10) -> list[tuple[int, int]]:
    """The n most-replicated content hashes: [(hash, copies)], descending."""
    mask, _ = concord.queries._entity_masks(entity_ids)
    best: list[tuple[int, int]] = []
    for hs, copies in concord.map_shards(_ops.copy_counts, (mask,)):
        best.extend(zip(hs.tolist(), copies.tolist()))
    best.sort(key=lambda hc: (-hc[1], hc[0]))
    return best[:n]
