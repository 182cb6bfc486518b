"""ShardPool: multi-core execution over shared-memory shard views.

The parallel execution backend of docs/PARALLEL.md.  The discrete-event
sim stays the single-threaded *coordination* layer; CPU-heavy per-shard
work (scans, collective-phase reductions, repair routing) fans out to a
pool of worker processes.  Workers see each shard as the frozen
:class:`~repro.dht.generation.Generation` it was published at.  A
file-backed generation (an mmap shard's last commit) ships as its path;
any other is first saved through the same segment codec into the pool's
segment dir (on ``/dev/shm`` where available, so "file" means shared
memory pages).  A worker maps the file read-only — publishing a shard
costs at most one write on the coordinator and zero copies per worker.

Determinism rule: results are always gathered and reduced in
**shard-index (submission) order**, never completion order, and workers
run the *same* kernel functions (:mod:`repro.exec.ops`) the serial path
runs inline — so same-seed output is byte-identical at any worker count.

``workers=1`` (the default) never spawns anything: every operation runs
inline on the real shards, exactly today's single-core behavior.  Small
jobs (total rows below ``min_rows``) also stay inline even when workers
are configured — fan-out overhead would dominate.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
import weakref
from collections.abc import Callable, Sequence

from repro.dht.generation import Generation
from repro.dht.table import LocalDHT

__all__ = ["ShardPool", "DEFAULT_MIN_ROWS", "sweep_stale_segments"]

# Below this many total rows the per-task IPC round-trip costs more than
# the scan itself; such jobs run inline (identical results either way).
DEFAULT_MIN_ROWS = 32768


# -- worker side --------------------------------------------------------------------

def _shard_call(fn: Callable, gen: Generation, args: tuple):
    """Worker entry for map_shards: run the kernel on the shipped
    generation (unpickling a file-backed one mapped its segment)."""
    return fn(gen, *args)


def _task_call(fn: Callable, args: tuple):
    """Worker entry for run_tasks: plain function application."""
    return fn(*args)


def _pick_segment_root() -> str | None:
    """Prefer /dev/shm (RAM-backed, so segments are true shared memory)."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return None  # tempfile's default


_SEGMENT_PREFIX = "concord-shards-"


def sweep_stale_segments(root: str) -> int:
    """Remove segment dirs left by dead processes; returns dirs removed.

    The GC finalizer cannot run after ``kill -9``, so ``/dev/shm`` (RAM!)
    would leak one dir per killed run.  Segment dir names embed the
    owning pid (``concord-shards-<pid>-...``); any whose process is gone
    is garbage.  Runs once per pool, before its first dir is created.
    """
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        pid_part = name[len(_SEGMENT_PREFIX):].split("-", 1)[0]
        try:
            pid = int(pid_part)
        except ValueError:
            continue  # pre-pid-naming dir or foreign file: leave it
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
            removed += 1
        except OSError:
            continue  # e.g. EPERM: pid alive under another user
    return removed


def _cleanup(state: dict) -> None:
    """Idempotent teardown shared by close() and the GC finalizer."""
    procs = state.pop("procs", None)
    if procs is not None:
        procs.terminate()
        procs.join()
    seg_dir = state.pop("dir", None)
    if seg_dir is not None:
        shutil.rmtree(seg_dir, ignore_errors=True)


class ShardPool:
    """Fan per-shard kernels out across worker processes.

    Parameters
    ----------
    workers:
        Process count.  1 (default) = fully inline, no processes, no
        segment files — byte-for-byte today's behavior.
    min_rows:
        Jobs whose shards hold fewer total rows than this run inline
        even when workers are available (set 0 to force fan-out, as the
        determinism property tests do).
    start_method:
        ``multiprocessing`` start method (None = platform default,
        ``fork`` on Linux).  The worker entry points and every kernel in
        :mod:`repro.exec.ops` are module-level, so ``spawn`` works too.
    segment_dir:
        Where segment files live; default a fresh temp dir under
        /dev/shm when writable.
    """

    def __init__(self, workers: int = 1, *, min_rows: int = DEFAULT_MIN_ROWS,
                 start_method: str | None = None,
                 segment_dir: str | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.min_rows = min_rows
        self._start_method = start_method
        self._segment_root = segment_dir
        # node -> (version key, published generation); key None = never reuse
        self._published: dict[int, tuple[object, Generation]] = {}
        self._seq = 0
        # Mutable holder the finalizer can reach without keeping self alive.
        self._state: dict = {}
        self._finalizer = weakref.finalize(self, _cleanup, self._state)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when this pool can actually fan out."""
        return self.workers > 1

    def _segment_dir(self) -> str:
        d = self._state.get("dir")
        if d is None:
            root = self._segment_root or _pick_segment_root()
            sweep_stale_segments(root if root is not None
                                 else tempfile.gettempdir())
            d = tempfile.mkdtemp(prefix=f"{_SEGMENT_PREFIX}{os.getpid()}-",
                                 dir=root)
            self._state["dir"] = d
        return d

    def _procs(self):
        procs = self._state.get("procs")
        if procs is None:
            ctx = mp.get_context(self._start_method)
            procs = ctx.Pool(self.workers)
            self._state["procs"] = procs
        return procs

    def invalidate(self, node_id: int | None = None) -> None:
        """Drop published views (all, or one shard's) so the next job
        re-exports.  Only needed when mutating a shard *without* moving
        its epoch — normal engine mutations version themselves."""
        if node_id is None:
            self._published.clear()
        else:
            self._published.pop(node_id, None)

    def close(self) -> None:
        """Terminate workers and remove segment files (idempotent)."""
        self._published.clear()
        _cleanup(self._state)

    def __enter__(self) -> ShardPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- publishing --------------------------------------------------------------

    def _publish(self, table: LocalDHT, version: object) -> Generation:
        """A file-backed generation of the shard, reusing the previous
        one when the (table identity, version) key is unchanged."""
        key = None if version is None else (id(table), version)
        cached = self._published.get(table.node_id)
        if cached is not None and key is not None and cached[0] == key:
            return cached[1]
        gen = table.generation()
        if gen.path is None:
            self._seq += 1
            gen = gen.save(os.path.join(
                self._segment_dir(), f"shard{table.node_id}.{self._seq}.seg"))
        # Only the pool's own copies are unlinked here: a storage
        # backend owns its committed segments.
        old = cached[1].path if cached is not None else None
        if old is not None and os.path.dirname(old) == self._state.get("dir"):
            try:
                os.unlink(old)
            except OSError:
                pass
        self._published[table.node_id] = (key, gen)
        return gen

    # -- the MapReduce primitive ---------------------------------------------------

    def map_shards(self, shards: Sequence[LocalDHT], map_fn: Callable,
                   args: tuple = (), *,
                   args_per_shard: Sequence[tuple] | None = None,
                   versions: Sequence[object] | None = None,
                   shard_filter: Callable[[LocalDHT], bool] | None = None,
                   reduce_fn: Callable | None = None, initial=None):
        """``map_fn(shard, *args)`` over shards, reduced in shard order.

        * ``shard_filter`` runs on the coordinator (it may inspect live
          state) and prunes the shard list first.
        * ``args_per_shard`` overrides ``args`` with one tuple per shard.
        * ``versions`` (e.g. shard epochs) lets the pool reuse published
          segment files across calls; None forces re-export.
        * Without ``reduce_fn`` the per-shard results are returned as a
          list in shard order; with it they are folded left-to-right in
          that same order starting from ``initial`` (or the first result
          when ``initial`` is None).

        ``map_fn`` must be picklable (module-level) when the job can go
        parallel; any callable works on the inline path.
        """
        if args_per_shard is not None and len(args_per_shard) != len(shards):
            raise ValueError("args_per_shard must align with shards")
        if versions is not None and len(versions) != len(shards):
            raise ValueError("versions must align with shards")
        per = args_per_shard
        if shard_filter is not None:
            idx = [i for i in range(len(shards)) if shard_filter(shards[i])]
            shards = [shards[i] for i in idx]
            per = [per[i] for i in idx] if per is not None else None
            versions = ([versions[i] for i in idx]
                        if versions is not None else None)

        run_parallel = (self.parallel and len(shards) > 1
                        and sum(s.n_hashes for s in shards) >= self.min_rows)
        if not run_parallel:
            results = [map_fn(s, *(per[i] if per is not None else args))
                       for i, s in enumerate(shards)]
        else:
            procs = self._procs()
            pending = []
            for i, s in enumerate(shards):
                gen = self._publish(
                    s, versions[i] if versions is not None else None)
                a = per[i] if per is not None else args
                pending.append(procs.apply_async(_shard_call,
                                                 (map_fn, gen, a)))
            # Gather strictly in submission (= shard-index) order.
            results = [p.get() for p in pending]

        if reduce_fn is None:
            return results
        it = iter(results)
        out = next(it) if initial is None else initial
        for r in it:
            out = reduce_fn(out, r)
        return out

    # -- plain fan-out (repair routing etc.) ---------------------------------------

    def run_tasks(self, fn: Callable, tasks: Sequence[tuple], *,
                  work: int | None = None) -> list:
        """``fn(*task)`` for each task, results in task order.

        For pure functions over plain-data arguments (no shards).
        ``work`` is an optional size hint compared against ``min_rows``;
        small jobs run inline.
        """
        if (not self.parallel or len(tasks) <= 1
                or (work is not None and work < self.min_rows)):
            return [fn(*t) for t in tasks]
        procs = self._procs()
        pending = [procs.apply_async(_task_call, (fn, tuple(t)))
                   for t in tasks]
        return [p.get() for p in pending]
