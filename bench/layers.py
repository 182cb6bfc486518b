"""Outside-in host-clock tracing of the program's layers.

``install`` replaces the **public callables** listed in :data:`SPEC` with
timing shims (plain attribute wrapping, done from the benchmark's files;
nothing under ``src/`` changes) and ``uninstall`` puts the originals back.
Each call becomes a span ``(name, start_ns, end_ns, parent)`` appended to
an in-memory :class:`SpanLog`; nothing is written until the run ends.

Two boundaries hand a callback across layers, so their shims also wrap the
callback in a span named for the module that owns it:

* ``SimEngine.at`` (and therefore ``after``): the event body runs later,
  from ``SimEngine.run``; wrapping it makes ``sim.engine.run``'s self time
  the heap and dispatch only, and lands batch drains and completions in
  ``serve.frontend``, datagram arrival in ``sim.network``, and so on.
* ``Network.send`` / ``send_reliable``: ``on_deliver`` runs inside the
  network's delivery event but belongs to the DHT engine.

A span's self time is its duration minus the part its direct children
cover (one thread, so siblings never overlap).
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = ["SpanLog", "Shims", "SPEC", "LAYERS", "self_times", "span_roots",
           "aggregate", "write_trace"]

_clock = time.perf_counter_ns


class SpanLog:
    """Columnar in-memory span store plus per-name unit counts."""

    def __init__(self) -> None:
        self.names: list[str] = []        # name id -> "layer.fn"
        self.layers: list[str] = []       # name id -> layer
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]      # open spans; -1 = no parent
        self.units: Counter = Counter()   # name id -> work units handled
        self.counters: Counter = Counter()

    def intern(self, layer: str, fn: str) -> int:
        name = f"{layer}.{fn}"
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end_ns.append(0)
        self.stack.append(idx)
        self.start_ns.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end_ns[idx] = _clock()
        self.stack.pop()

    def call(self, nid: int, fn, args: tuple):
        """Run ``fn(*args)`` as one span (the slow path, for callbacks)."""
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    @contextmanager
    def span(self, layer: str, fn: str):
        """A span opened by the benchmark's own code (stage boundaries)."""
        idx = self._open(self.intern(layer, fn))
        try:
            yield
        finally:
            self._close(idx)

    def __len__(self) -> int:
        return len(self.name_id)


def _wrap(log: SpanLog, nid: int, fn, units=None):
    """The hot-path shim: ``SpanLog._open``/``_close`` inlined over local
    names, clock read last-before and first-after the call so the shim's own
    cost falls outside the span."""
    name_id, start, end = log.name_id, log.start_ns, log.end_ns
    parent, stack, unit_tot = log.parent, log.stack, log.units

    if units is None:
        def shim(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
    else:
        def shim(*args, **kwargs):
            unit_tot[nid] += units(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()

    shim.__wrapped__ = fn
    shim.__name__ = getattr(fn, "__name__", "shim")
    shim._bench_shim = True
    return shim


class _Callback:
    """A callback handed across a layer boundary, run as its owner's span."""

    __slots__ = ("log", "nid", "fn")
    _bench_shim = True   # send_reliable -> send must not wrap it twice

    def __init__(self, log: SpanLog, nid: int, fn) -> None:
        self.log, self.nid, self.fn = log, nid, fn

    def __call__(self, *args):
        return self.log.call(self.nid, self.fn, args)


def _is_shim(fn) -> bool:
    return getattr(getattr(fn, "__func__", fn), "_bench_shim", False)


def _callback_owner(fn) -> tuple[str, str]:
    """(layer, name) of a callback: the module of the object it is bound
    to, else the module that defined it, minus the ``repro.`` prefix."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        module = type(owner).__module__
    else:
        module = getattr(fn, "__module__", None) or "unknown"
    layer = module.removeprefix("repro.")
    return layer, getattr(fn, "__name__", type(fn).__name__)


class _CallbackNames:
    """Memo of callback -> name id, keyed by code object so a closure
    created once per request still resolves to one name."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._ids: dict[object, int] = {}

    def __call__(self, fn) -> int:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = self.log.intern(*_callback_owner(fn))
        return nid


def _engine_at_shim(log: SpanLog, nid: int, fn, names: _CallbackNames):
    span_at = _wrap(log, nid, fn)
    run_event = log.call

    def at(self, time, cb, *args):
        if _is_shim(cb):
            return span_at(self, time, cb, *args)
        return span_at(self, time, run_event, names(cb), cb, args)

    at.__wrapped__ = fn
    at._bench_shim = True
    return at


def _network_send_shim(log: SpanLog, nid: int, fn, names: _CallbackNames):
    span_send = _wrap(log, nid, fn)

    def send(self, msg, on_deliver=None, *rest, **kwargs):
        if on_deliver is not None and not _is_shim(on_deliver):
            on_deliver = _Callback(log, names(on_deliver), on_deliver)
        return span_send(self, msg, on_deliver, *rest, **kwargs)

    send.__wrapped__ = fn
    send._bench_shim = True
    return send


def _digest_get_shim(log: SpanLog, nid: int, fn, _names):
    """``DigestCache.get`` builds on a miss: count the builds."""
    span_get = _wrap(log, nid, fn)

    def get(self, key, token, build):
        def counted_build():
            log.counters["recon.digest_cache_misses"] += 1
            return build()
        return span_get(self, key, token, counted_build)

    get.__wrapped__ = fn
    get._bench_shim = True
    return get


class Target(NamedTuple):
    """One public callable to wrap."""

    layer: str
    #: Module holding it — or, for a function other modules import by name,
    #: every module holding a reference (the first is canonical).
    modules: str | tuple[str, ...]
    owner: str | None           # class name; None = module-level function
    attr: str
    units: Callable | None = None    # units(*args, **kw): work units handled
    special: Callable | None = None  # shim factory, where a plain wrap is
    #                                  not enough

    def holders(self):
        """The classes/modules whose attribute the shim replaces."""
        modules = (self.modules,) if isinstance(self.modules, str) \
            else self.modules
        for module in modules:
            mod = importlib.import_module(module)
            yield getattr(mod, self.owner) if self.owner else mod


def _targets(layer: str, modules, owner: str | None, *attrs) -> list[Target]:
    """Targets sharing one holder: each of ``attrs`` is an attribute name
    or ``(name, units)`` / ``(name, None, special)``."""
    return [Target(layer, modules, owner,
                   *(a if isinstance(a, tuple) else (a,))) for a in attrs]


def _n_hashes(self, hashes, *_rest) -> int:
    return int(np.size(hashes))


def _n_rows(table, *_rest) -> int:
    return table.n_hashes


def _inline_only(pool, *_args, **_kwargs) -> int:
    """1 for a call that could only run inline (``workers == 1``)."""
    return 0 if pool.parallel else 1


SPEC = [
    *_targets("bench.driver", "bench.driver", "ClosedLoop",
              "kick", "on_done", "retry"),
    *_targets("bench.driver", "bench.driver", "OpenLoop",
              "arrive", "on_done"),
    *_targets("bench.driver", "bench.driver", "UpdateBursts", "burst"),
    # The calibration ticks run inside the drivers' callbacks; their own
    # layer keeps them out of bench.driver's self time.
    *_targets("bench.calibrate", "bench.calibrate", "SegmentClock", "mark"),
    *_targets("serve.frontend", "repro.serve.frontend", "QueryFrontend",
              "submit", "report"),
    *_targets("serve.admission", "repro.serve.admission",
              "AdmissionController", "admit"),
    *_targets("serve.admission", "repro.serve.admission", "TokenBucket",
              "try_take"),
    *_targets("serve.cache", "repro.serve.cache", "EpochCache", "get", "put"),
    *_targets("serve.cache", "repro.serve.cache", "CachedQueries",
              "query", "nodewise_token", "collective_token"),
    # frontend.py imports bulk_answers by name: both references are replaced.
    *_targets("serve.batcher", ("repro.serve.batcher", "repro.serve.frontend"),
              None, ("bulk_answers",
                     lambda engine, cost, op, pairs: len(pairs))),
    *_targets("queries", "repro.queries.interface", "QueryInterface",
              "num_copies", "entities", "sharing", "num_shared_content",
              "degree_of_sharing"),
    # group_by_home delegates to home_nodes, which counts the hashes.
    *_targets("dht.partition", "repro.dht.partition", "Partition",
              ("home_node", lambda self, h: 1), ("home_nodes", _n_hashes),
              "group_by_home"),
    *_targets("dht.engine", "repro.dht.engine", "ContentTracingEngine",
              ("route_updates",
               lambda self, src, inserts, removes, duration=0.0:
                   len(inserts) + len(removes)),
              "home_node", "hashes_intact", "repair", "detect_failures",
              "flush_storage"),
    *_targets("dht.table", "repro.dht.table", "LocalDHT",
              ("bulk_insert", _n_hashes), ("bulk_remove", _n_hashes),
              ("bulk_masks", _n_hashes), ("bulk_num_copies", _n_hashes),
              ("se_scan", _n_rows), "flush"),
    *_targets("dht.storage", "repro.dht.storage.mmapseg",
              "MmapSegmentStorage",
              ("commit", lambda self, state: 16 * len(state.ph)), "load"),
    *_targets("exec.ops", "repro.exec.ops", None,
              ("se_scan", _n_rows), ("shard_breakdown", _n_rows),
              ("shard_in_s_copies", _n_rows), ("count_at_least", _n_rows),
              ("copy_histogram", _n_rows), ("bulk_masks", _n_hashes),
              ("bulk_num_copies", _n_hashes)),
    *_targets("exec.pool", "repro.exec.pool", "ShardPool",
              ("map_shards", _inline_only), ("run_tasks", _inline_only)),
    *_targets("sim.engine", "repro.sim.engine", "SimEngine",
              "run", ("at", None, _engine_at_shim), "after"),
    *_targets("sim.network", "repro.sim.network", "Network",
              ("send", None, _network_send_shim),
              ("send_reliable", None, _network_send_shim)),
    *_targets("memory.monitor", "repro.memory.monitor", "MemoryUpdateMonitor",
              "initial_scan", "scan", "flush", "rebase"),
    *_targets("recon", "repro.recon.session", "ReconSession", "run"),
    *_targets("recon", "repro.recon.digest", "DigestCache",
              ("get", None, _digest_get_shim)),
    *_targets("core.executor", "repro.core.executor",
              "ServiceCommandExecutor", "execute"),
    # collective_start/_finalize and local_finalize bound the executor's
    # collective and local phases from outside.
    *_targets("services.checkpoint", "repro.services.checkpoint",
              "CollectiveCheckpoint", "collective_start",
              "collective_command", "collective_finalize",
              "local_command_batch", "local_finalize"),
    *_targets("services.checkpoint", "repro.services.checkpoint",
              "SharedContentFile", "append"),
    *_targets("services.checkpoint", "repro.services.checkpoint", None,
              "restore_entity"),
]

#: Layers in outside-in order (the order tables print in).
LAYERS = tuple(dict.fromkeys(t.layer for t in SPEC))


class Shims:
    """Installs and removes the timing shims of :data:`SPEC`."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def targets():
        """Every ``(holder, attribute)`` the shims replace."""
        for target in SPEC:
            for holder in target.holders():
                yield holder, target.attr

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("shims already installed")
        names = _CallbackNames(self.log)
        for target in SPEC:
            nid = self.log.intern(target.layer, target.attr)
            shim = None
            for holder in target.holders():
                original = vars(holder)[target.attr]
                if shim is None:
                    shim = (target.special(self.log, nid, original, names)
                            if target.special else
                            _wrap(self.log, nid, original, target.units))
                self._saved.append((holder, target.attr, original))
                setattr(holder, target.attr, shim)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> Shims:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- span arithmetic ---------------------------------------------------------------


def self_times(start_ns, end_ns, parent) -> np.ndarray:
    """Self time per span: duration minus what its direct children cover."""
    start = np.asarray(start_ns, dtype=np.int64)
    end = np.asarray(end_ns, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = par >= 0
    cover = np.bincount(par[has_parent], weights=dur[has_parent],
                        minlength=len(dur)).astype(np.int64)
    return dur - cover


def span_roots(parent, is_dispatch) -> list[int]:
    """The span each span was caused by: its outermost ancestor below the
    event loop — one engine event (a batch drain, a delivery), one submit,
    or one pipeline stage.  Spans under one of those share its index.

    ``is_dispatch[i]`` marks ``sim.engine.run`` spans, whose children are
    independent events rather than parts of one operation.
    """
    roots: list[int] = []
    for i, p in enumerate(parent):
        roots.append(i if p < 0 or is_dispatch[p] else roots[p])
    return roots


def aggregate(log: SpanLog, t0_ns: int, t1_ns: int) -> dict[str, dict]:
    """Per-name ``calls`` / ``self_ns`` / ``total_ns`` / ``units`` over the
    spans that lie inside the timed window ``[t0_ns, t1_ns]``."""
    out: dict[str, dict] = {}
    if not len(log):
        return out
    start = np.asarray(log.start_ns, dtype=np.int64)
    end = np.asarray(log.end_ns, dtype=np.int64)
    nid = np.asarray(log.name_id, dtype=np.int64)
    selfs = self_times(start, end, log.parent)
    inside = (start >= t0_ns) & (end <= t1_ns)
    n_names = len(log.names)
    calls = np.bincount(nid[inside], minlength=n_names)
    self_ns = np.bincount(nid[inside], weights=selfs[inside],
                          minlength=n_names)
    total_ns = np.bincount(nid[inside], weights=(end - start)[inside],
                           minlength=n_names)
    for i, name in enumerate(log.names):
        out[name] = {"layer": log.layers[i], "calls": int(calls[i]),
                     "self_ns": int(self_ns[i]), "total_ns": int(total_ns[i]),
                     "units": int(log.units.get(i, 0))}
    return out


def span_windows(log: SpanLog, name: str) -> list[tuple[int, int]]:
    """``(start_ns, end_ns)`` of every span called ``name``, in order."""
    nid = log._ids.get(name)
    if nid is None:
        return []
    return [(log.start_ns[i], log.end_ns[i])
            for i, n in enumerate(log.name_id) if n == nid]


def write_trace(log: SpanLog, path: Path, meta: dict,
                timed_region_ns: tuple[int, int]) -> None:
    """Write the span columns, times relative to the first span (spans are
    appended as they open, so that is ``start_ns[0]``)."""
    base = log.start_ns[0] if len(log) else 0
    run_id = log._ids.get("sim.engine.run", -1)
    is_dispatch = [n == run_id for n in log.name_id]
    doc = dict(meta)
    doc.update({
        "timed_region_ns": [t - base for t in timed_region_ns],
        "columns": ["name_id", "start_ns", "end_ns", "parent", "root"],
        "names": log.names,
        "name_id": log.name_id,
        "start_ns": [t - base for t in log.start_ns],
        "end_ns": [t - base for t in log.end_ns],
        "parent": log.parent,
        "root": span_roots(log.parent, is_dispatch),
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
