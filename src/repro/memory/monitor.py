"""Memory update monitors.

The monitor is "the heartbeat of ConCORD: discovery of memory content
changes" (paper §3.1).  Three modes are modelled, as in the paper:

* ``PERIODIC_SCAN`` — step through the full memory of each traced entity,
  hash every block, and diff against the last scan (the mode used in the
  paper's evaluation);
* ``DIRTY_BIT`` — periodically harvest dirty bits and rescan only written
  pages (the x86 nested-page-table dirty-bit technique);
* ``COW`` — write faults report changes immediately (shadow/nested page
  tables marked read-only), giving minimal staleness at per-write cost.

A monitor can be *throttled* to a maximum update rate, trading DHT
precision/staleness for node and network load, exactly as §3.1 describes.
Updates are multiset deltas of (content hash, entity) pairs.  From the
moment :func:`multiset_diff` returns they travel as ``(n, 2)`` ``uint64``
arrays of ``(hash, entity)`` rows: every discovery path queues its rows
through :meth:`MemoryUpdateMonitor._enqueue` (also the one place the
monitor's statistics advance), and :meth:`MemoryUpdateMonitor.flush`
hands the sink (the distributed content tracing engine) one array of
insert rows and one of remove rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.memory.entity import Entity
from repro.memory.nsm import NodeSpecificModule
from repro.obs import Observability
from repro.sim.costmodel import CostModel

__all__ = ["MemoryUpdateMonitor", "MonitorMode", "multiset_diff", "MonitorStats"]

# Sink signature: (node_id, inserts, removes, duration) where inserts and
# removes are (n, 2) uint64 arrays of (content_hash, entity_id) rows and
# duration is the production window the sink may pace transmission over.
UpdateSink = Callable[..., None]


class MonitorMode(enum.Enum):
    """How the monitor discovers content changes (paper §3.1): periodic
    full scans, dirty-bit harvesting, or copy-on-write write faults."""

    PERIODIC_SCAN = "scan"
    DIRTY_BIT = "dirty"
    COW = "cow"


def multiset_diff(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiset delta between two hash arrays.

    Returns ``(inserts, removes)`` with multiplicity: a hash whose count
    went from 3 to 1 appears twice in ``removes``.  One ``np.unique`` over
    the positions that changed (equal lengths), or a sort if none was old.
    """
    old = np.asarray(old, dtype=np.uint64)
    new = np.asarray(new, dtype=np.uint64)
    if len(old) == len(new):
        changed = old != new
        old, new = old[changed], new[changed]
    if not len(old):                    # nothing to cancel: all inserts
        return np.sort(new), old
    both = np.concatenate([old, new])
    uniq, inv = np.unique(both, return_inverse=True)
    old_counts = np.bincount(inv[: len(old)], minlength=len(uniq))
    new_counts = np.bincount(inv[len(old):], minlength=len(uniq))
    delta = new_counts - old_counts
    ins = np.repeat(uniq[delta > 0], delta[delta > 0])
    rem = np.repeat(uniq[delta < 0], -delta[delta < 0])
    return ins, rem


@dataclass
class MonitorStats:
    scans: int = 0
    pages_hashed: int = 0
    updates_produced: int = 0
    updates_sent: int = 0
    updates_deferred_peak: int = 0
    cpu_time: float = 0.0  # modelled seconds of CPU consumed by scanning

    def cpu_overhead(self, elapsed: float) -> float:
        """Fraction of one CPU consumed over an elapsed interval."""
        if elapsed <= 0:
            return 0.0
        return self.cpu_time / elapsed


class MemoryUpdateMonitor:
    """Per-node monitor feeding content updates to the tracing engine."""

    def __init__(self, nsm: NodeSpecificModule, sink: UpdateSink,
                 cost: CostModel, mode: MonitorMode = MonitorMode.PERIODIC_SCAN,
                 hash_algo: str = "sfh",
                 throttle_updates_per_s: float | None = None,
                 n_represented: int = 1,
                 obs: Observability | None = None) -> None:
        self.nsm = nsm
        self.sink = sink
        self.cost = cost
        self.mode = mode
        self.hash_algo = hash_algo
        self.throttle = throttle_updates_per_s
        self.n_represented = n_represented
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        self._c_scans = reg.counter("monitor.scans")
        self._c_pages = reg.counter("monitor.pages_hashed")
        self._c_produced = reg.counter("monitor.updates_produced")
        self._c_sent = reg.counter("monitor.updates_sent")
        self._c_flushes = reg.counter("monitor.flushes")
        self._h_scan = reg.histogram("monitor.scan_s")
        self.stats = MonitorStats()
        # Queued updates in production order: (is_insert flag per row,
        # (n, 2) rows) chunks, one per _enqueue call that produced any.
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._n_pending = 0
        self._last_scan_time = 0.0  # production window for the next flush
        # Dirty-bit PTE walk cost per page (cheap compared to hashing).
        self._pte_scan_cost = 20e-9 * (cost.hash_page_sfh / 3.0e-6)

    # -- scanning ---------------------------------------------------------------

    def initial_scan(self) -> int:
        """First full pass over every traced entity; returns #updates."""
        total = 0
        for entity in self.nsm.entities():
            total += self._scan_entity(entity, full=True)
        return total

    def scan(self) -> int:
        """One monitoring pass in the configured mode; returns #updates."""
        total = 0
        full = self.mode is MonitorMode.PERIODIC_SCAN
        for entity in self.nsm.entities():
            total += self._scan_entity(entity, full=full)
        return total

    def rebase(self) -> int:
        """Re-establish the NSM ground truth without emitting updates.

        A warm restart already holds a believed DHT state recovered from
        storage; replaying a full initial scan's worth of inserts on top
        of it would double-count.  Rebase runs the scans (so the NSM view
        is current and ``repair(mode="delta")`` reconciles against live
        content) and then drops the produced delta.  Returns the number
        of pages hashed by the pass.
        """
        before = self.stats.pages_hashed
        for entity in self.nsm.entities():
            self._scan_entity(entity, full=True)
        self._pending.clear()
        self._n_pending = 0
        self._last_scan_time = 0.0
        return self.stats.pages_hashed - before

    def _scan_entity(self, entity: Entity, full: bool) -> int:
        eid = entity.entity_id
        old = self.nsm.scanned_hashes_of(eid)
        new = entity.content_hashes()
        hash_cost = self.cost.hash_page_cost(self.hash_algo)
        R = self.n_represented
        scan_time = 0.0

        if full or old is None:
            # Full scan: read + hash every page.
            n_hashed = entity.n_pages
            scan_time = n_hashed * R * (self.cost.page_scan_read + hash_cost)
            if entity.chunked:
                # Boundary detection rolls the Gear hash over the stream.
                scan_time += entity.memory_bytes * R * self.cost.cdc_per_byte
            ins, rem = multiset_diff(
                old if old is not None else np.empty(0, dtype=np.uint64), new)
            entity.clear_dirty()
        else:
            # Dirty-bit / CoW: only written pages are rehashed.
            dirty = entity.clear_dirty()
            n_hashed = len(dirty)
            scan_time += entity.n_pages * R * self._pte_scan_cost
            scan_time += n_hashed * R * (self.cost.page_scan_read + hash_cost)
            if self.mode is MonitorMode.COW:
                # Write-fault overhead per dirtied page.
                scan_time += n_hashed * R * 1e-6
            if n_hashed == 0:
                ins = rem = np.empty(0, dtype=np.uint64)
            elif entity.chunked:
                # A written page can move chunk boundaries arbitrarily
                # far from its own offset, so the per-index shortcut is
                # unsound for chunked entities: diff the full block-hash
                # arrays instead (old/new lengths differ in general).
                scan_time += entity.memory_bytes * R * self.cost.cdc_per_byte
                ins, rem = multiset_diff(old, new)
            else:
                ins, rem = multiset_diff(old[dirty], new[dirty])
        self.stats.scans += 1
        self._c_scans.inc()
        self._h_scan.observe(scan_time)
        self.nsm.record_scan(entity, new)
        n_updates = self._enqueue(
            eid, n_hashed, scan_time, np.concatenate([ins, rem]),
            np.repeat([True, False], [len(ins), len(rem)]))
        tr = self.obs.tracer
        if tr.enabled:
            # The scan's modelled cost as a span at the current sim time.
            now = self.obs.now()
            tr.add_span("monitor.scan", now, now + scan_time,
                        node=self.nsm.node_id, entity=eid,
                        pages=n_hashed, updates=n_updates)
        return n_updates

    def _enqueue(self, eid: int, n_hashed: int, cost: float,
                 hashes: np.ndarray, is_insert: np.ndarray) -> int:
        """Queue one discovery step's updates for entity ``eid`` and
        account for the step; returns the number of updates queued.

        ``hashes`` and the parallel boolean ``is_insert`` are in
        production order, which :meth:`flush` preserves.  Scans and both
        write-fault paths end here, so :class:`MonitorStats` and the
        ``monitor.*`` registry counters advance together or not at all.
        """
        n = len(hashes)
        self.stats.cpu_time += cost
        self._last_scan_time += cost
        self.stats.pages_hashed += n_hashed
        self.stats.updates_produced += n
        self._c_pages.inc(n_hashed)
        self._c_produced.inc(n)
        if n:
            rows = np.column_stack([hashes, np.full_like(hashes, eid)])
            self._pending.append((is_insert, rows))
            self._n_pending += n
        self.stats.updates_deferred_peak = max(
            self.stats.updates_deferred_peak, self._n_pending)
        return n

    # -- write-fault (true CoW) operation ------------------------------------------

    def enable_write_faults(self) -> None:
        """Hook page writes so changes are discovered at fault time.

        The real CoW monitor marks shadow/nested page-table entries
        read-only; "page faults then indicate writes" (§3.1).  Here the
        entities' write observers play the fault handler: each write is
        diffed immediately against the scan base, the NSM's view is
        updated incrementally, and updates queue for the next flush —
        staleness shrinks to the flush interval.

        Requires COW mode and an initial scan to establish the base.
        """
        if self.mode is not MonitorMode.COW:
            raise ValueError("write faults require MonitorMode.COW")
        for entity in self.nsm.entities():
            entity.add_write_observer(self._on_write_fault)

    def disable_write_faults(self) -> None:
        for entity in self.nsm.entities():
            try:
                entity.remove_write_observer(self._on_write_fault)
            except ValueError:
                pass

    def _on_write_fault(self, entity: Entity, idxs: np.ndarray) -> None:
        from repro.util.hashing import page_hashes

        eid = entity.entity_id
        old = self.nsm.scanned_hashes_of(eid)
        if old is None:
            return  # no base yet; the initial scan will pick this up
        idxs = np.asarray(idxs, dtype=np.int64)
        if entity.chunked:
            # Chunk boundaries shift with content: page index != block
            # index, so fall back to a full block-array diff and a fresh
            # scan base (costed as a re-chunk of the whole stream).
            new = entity.content_hashes()
            ins, rem = multiset_diff(old, new)
            cost = (len(idxs) * self.n_represented * 1e-6
                    + entity.memory_bytes * self.n_represented
                    * self.cost.cdc_per_byte
                    + entity.n_blocks * self.n_represented
                    * self.cost.hash_page_cost(self.hash_algo))
            if self._enqueue(
                    eid, entity.n_blocks, cost, np.concatenate([rem, ins]),
                    np.repeat([False, True], [len(rem), len(ins)])):
                self.nsm.record_scan(entity, new)
            entity.dirty[idxs] = False
            return
        new_h = page_hashes(entity.pages[idxs])
        old_h = old[idxs]
        changed = new_h != old_h
        # Fault + rehash costs for every faulting write (even no-ops fault).
        cost = len(idxs) * self.n_represented * (
            1e-6 + self.cost.hash_page_cost(self.hash_algo))
        # Per changed page, in page order: remove the old hash, insert
        # the new one.
        old_new = np.column_stack([old_h[changed], new_h[changed]]).ravel()
        if self._enqueue(eid, len(idxs), cost, old_new,
                         np.tile([False, True], len(old_new) // 2)):
            self.nsm.update_blocks(entity, idxs[changed], new_h[changed])
        # These pages are fully accounted for; clear their dirty bits so a
        # later scan() pass does not reprocess them.
        entity.dirty[idxs] = False

    # -- update emission (with throttling) -------------------------------------------

    def flush(self, interval: float | None = None) -> int:
        """Emit pending updates to the sink, honouring the throttle.

        ``interval`` is the wall time this flush represents; with a throttle
        of R updates/s at most ``R * interval`` updates are sent and the
        remainder stays pending (precision loss, not data loss: the diff
        base only advances for sent updates' source scan, and the pending
        queue preserves ordering).  The sink receives the first ``budget``
        queued updates, split into insert rows and remove rows, each in
        production order.
        """
        sent = self._n_pending
        if self.throttle is not None and interval is not None:
            sent = min(sent, int(self.throttle * interval))
        if sent:
            is_insert = np.concatenate([f for f, _rows in self._pending])
            rows = np.concatenate([r for _f, r in self._pending])
            self._n_pending -= sent
            self._pending = ([(is_insert[sent:], rows[sent:])]
                             if self._n_pending else [])
            is_insert, rows = is_insert[:sent], rows[:sent]
            self.sink(self.nsm.node_id, rows[is_insert], rows[~is_insert],
                      duration=self._last_scan_time)
        self._last_scan_time = 0.0
        self.stats.updates_sent += sent
        self._c_flushes.inc()
        self._c_sent.inc(sent)
        return sent

    @property
    def pending_updates(self) -> int:
        return self._n_pending

    # -- simulated periodic operation ---------------------------------------------------

    def run_periodic(self, engine, period: float, horizon: float) -> None:
        """Schedule scan+flush ticks on the event engine until ``horizon``."""
        def tick() -> None:
            self.scan()
            self.flush(interval=period)
            if engine.now + period <= horizon:
                engine.after(period, tick)

        engine.after(period, tick)
