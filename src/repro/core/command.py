"""The service-command callback interface (paper Fig 4).

A developer creates an application service by subclassing
:class:`ServiceCallbacks` and implementing some or all of the nine
callbacks; the parametrized service command *is* the application service
implementation.  The execution engine invokes them in four phases:

1. **Service initialization** — ``service_init`` once per live node
   holding a service or participating entity; the node's private service
   state is whatever the service stores on ``ctx``.
2. **Collective phase** — ``collective_start`` per entity (with a partial,
   advisory hash set from the local DHT shard); then, for every distinct
   hash ConCORD believes exists in the SEs, replica selection (optionally
   via ``collective_select``) and one successful ``collective_command`` on
   the node of the selected replica; then ``collective_finalize`` per
   entity (a synchronization point).  The engine enters the commands
   through one call per DHT shard, ``collective_command_batch``, whose
   default body loops ``collective_command`` over the shard's rows.
3. **Local phase** — ``local_start`` per SE; then the SE's memory blocks,
   each told whether (and with what private data) its hash was already
   handled collectively; then ``local_finalize`` per SE.  The engine
   enters the blocks through one call per SE, ``local_command_batch``,
   whose default body is the paper's per-block loop over
   ``local_command``: override ``local_command``, or
   ``local_command_batch`` for large entities — never both.
4. **Teardown** — ``service_deinit`` per node; returns service success.

Callbacks run "node-locally": they may touch the node's entities through
``ctx`` and charge modelled CPU/IO cost, but they never see other nodes'
state except through what the engine disseminates — the same constraint
the real system's C callbacks live under.  It follows that a scope
entity whose node is down gets no callbacks at all: a dead *PE* host
simply contributes no replicas, while a dead *SE* host makes the command
impossible and ``execute`` refuses it.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef, NodeSpecificModule

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cluster import Cluster
    from repro.sim.costmodel import CostModel

__all__ = ["ServiceCallbacks", "CommandFailed", "CollectiveBatch", "ExecMode",
           "HandledMap", "NodeContext"]


class ExecMode(enum.Enum):
    """Execution modes, end to end.

    For *service commands* (paper §4.2): ``INTERACTIVE`` applies
    transformations immediately; ``BATCH`` builds an execution plan the
    service runs as a whole.  For *collective queries* (paper §5.3):
    ``DISTRIBUTED`` scans every shard in parallel with a tree reduction;
    ``SINGLE`` ships every entry to one node and scans there.  The two
    pairs share one enum so every ``exec_mode`` parameter in the public
    API speaks the same type; each call site validates the pair it
    accepts.
    """

    INTERACTIVE = "interactive"
    BATCH = "batch"
    DISTRIBUTED = "distributed"
    SINGLE = "single"

    @classmethod
    def check(cls, value: ExecMode, param: str = "exec_mode") -> ExecMode:
        """``value`` if it is an ``ExecMode``, else ``TypeError``."""
        if not isinstance(value, cls):
            raise TypeError(
                f"{param} must be an ExecMode, not {type(value).__name__}")
        return value


@dataclass(frozen=True)
class CommandFailed:
    """Returned by a callback to signal failure for this invocation.

    In the collective phase this triggers replica retry, exactly like the
    content having vanished from the node.
    """

    reason: str = ""


class NodeContext:
    """Per-node execution environment handed to every callback."""

    def __init__(self, node_id: int, cluster: Cluster,
                 nsm: NodeSpecificModule, mode: ExecMode,
                 rng: np.random.Generator) -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.nsm = nsm
        self.mode = mode
        self.rng = rng
        self.cost: CostModel = cluster.cost
        self.state: Any = None          # the service's private state
        self.plan = ExecutionPlan()     # used in batch mode
        self.n_represented = 1
        self.obs = None                 # Observability, set by the executor
        # Set by the executor before each phase.
        self._charge_sink = None
        self._net_sink = None
        self._shared_sink = None

    def count(self, name: str, n: int | float = 1, **labels) -> None:
        """Bump a service-level counter (``ckpt.shared_appends``, ...) in
        the platform's metrics registry; a no-op when the executor did not
        attach observability (e.g. a bare NodeContext in tests)."""
        if self.obs is not None:
            self.obs.registry.counter(name, **labels).inc(n)

    def send_bytes(self, dst_node: int, nbytes: int) -> None:
        """Account a bulk data transfer from this node to ``dst_node``.

        Services whose payloads exceed the engine's small control messages
        (e.g. migration/reconstruction shipping page contents) use this so
        the wall-time model sees their traffic.
        """
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        if self._net_sink is not None and dst_node != self.node_id:
            self._net_sink(self.node_id, dst_node,
                           int(nbytes * self.n_represented))

    def charge(self, seconds: float) -> None:
        """Account modelled CPU/IO time against this node in this phase."""
        _check_seconds(seconds)
        if self._charge_sink is not None:
            self._charge_sink(self.node_id, seconds)

    def charge_per_block(self, seconds_per_block: float, n_blocks: int = 1) -> None:
        """Charge per-block cost scaled by the representation factor."""
        self.charge(seconds_per_block * n_blocks * self.n_represented)

    def charge_shared(self, seconds: float) -> None:
        """Charge time on a *globally shared* serial resource (e.g. a
        parallel filesystem's shared append log): unlike :meth:`charge`,
        this does not parallelize across nodes — every node's shared work
        adds to the phase's wall time."""
        _check_seconds(seconds)
        if self._shared_sink is not None:
            self._shared_sink(seconds)

    def read_block(self, ref: BlockRef) -> int:
        """Content ID of a block (the 'pointer' dereference)."""
        return self.nsm.read_block(ref)


class CollectiveBatch:
    """One shard's collective-phase rows, in row order.

    Row ``i`` asks for ``collective_command`` on node ``nodes[i]`` over
    block ``page_idx[i]`` of entity ``entity_ids[i]``, whose content hash
    ``hashes[i]`` the engine has just checked against ground truth
    (every column is an array, ``hashes`` a ``uint64`` one).
    Iterating yields each row's ``(ctx, entity, content_hash, block)`` —
    exactly the arguments of ``collective_command``; the rows may be
    handled in any order, since a charge is a charge to its node whenever
    it comes.  A service handling the arrays in bulk charges through
    :meth:`charge_per_block` and :meth:`charge_shared` instead: one figure
    per row (or one for every row), charged to that row's node just as
    its ``ctx`` would be.
    """

    def __init__(self, contexts: dict[int, NodeContext], cluster: Cluster,
                 entity_ids: np.ndarray, hashes: np.ndarray,
                 page_idx: np.ndarray, nodes: np.ndarray,
                 charge_rows, charge_shared_rows) -> None:
        self.contexts = contexts
        self.cluster = cluster
        self.entity_ids = entity_ids
        self.hashes = np.asarray(hashes, dtype=np.uint64)
        self.page_idx = page_idx
        self.nodes = nodes
        # What every row's context shares.
        some = next(iter(contexts.values()))
        self.mode, self.cost = some.mode, some.cost
        self.n_represented = some.n_represented
        # The engine's sinks: charge_rows(nodes, seconds) and
        # charge_shared_rows(seconds), one figure per row.
        self._charge_rows = charge_rows
        self._charge_shared_rows = charge_shared_rows

    def __len__(self) -> int:
        return len(self.hashes)

    def __iter__(self):
        contexts, entity = self.contexts, self.cluster.entity
        for eid, h, idx, node in zip(
                self.entity_ids.tolist(), self.hashes.tolist(),
                self.page_idx.tolist(), self.nodes.tolist()):
            ent = entity(eid)
            yield contexts[node], ent, h, BlockRef(eid, idx,
                                                   ent.block_size(idx))

    def take(self, rows) -> CollectiveBatch:
        """These rows (a mask or indices) as a batch of their own, in row
        order, charging the same sinks."""
        return CollectiveBatch(self.contexts, self.cluster, *(
            c[rows] for c in (self.entity_ids, self.hashes, self.page_idx,
                              self.nodes)), self._charge_rows,
            self._charge_shared_rows)

    def content_ids(self) -> np.ndarray:
        """Content ID of every row's block (``ctx.read_block`` per row)."""
        out = np.empty(len(self), dtype=np.uint64)
        by_eid = np.argsort(self.entity_ids, kind="stable")
        eids, first = np.unique(self.entity_ids[by_eid], return_index=True)
        for eid, rows in zip(eids.tolist(), np.split(by_eid, first[1:])):
            out[rows] = self.cluster.entity(eid).block_ids()[
                self.page_idx[rows]]
        return out

    def charge_per_block(self, seconds_per_block) -> None:
        """``ctx.charge_per_block(seconds_per_block[i])`` for every row
        ``i`` (a scalar is charged to every row)."""
        self._charge_rows(self.nodes, self._per_row(
            np.asarray(seconds_per_block) * self.n_represented))

    def charge_shared(self, seconds) -> None:
        """``ctx.charge_shared(seconds[i])`` for every row."""
        self._charge_shared_rows(self._per_row(seconds))

    def _per_row(self, seconds) -> np.ndarray:
        seconds = np.broadcast_to(np.asarray(seconds, dtype=np.float64),
                                  (len(self),))
        bad = seconds[~((seconds >= 0) & (seconds < np.inf))]
        if len(bad):
            _check_seconds(float(bad[0]))
        return seconds


def _check_seconds(seconds: float) -> None:
    """``ValueError`` naming ``seconds`` unless it is a finite time >= 0
    (NaN fails both comparisons)."""
    if not 0 <= seconds < math.inf:
        raise ValueError(f"cannot charge {seconds} s: a charge must be a "
                         "finite, non-negative time")


def sorted_find(col: np.ndarray, keys: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each of ``keys`` in the sorted column ``col``;
    searched in key order, each search starts from the last one's answer."""
    by_key = np.argsort(keys)
    at = np.empty(len(keys), dtype=np.intp)
    at[by_key] = np.searchsorted(col, keys[by_key])
    if not len(col):
        return at, np.zeros(len(keys), dtype=bool)
    return at, col.take(at, mode="clip") == keys


class HandledMap(Mapping):
    """A handled set, read-only: content hash -> ``collective_command``'s
    private data, as a sorted ``uint64`` hash column and an aligned
    private column (an array keeps its dtype).  Scalar ``in``, ``[]`` and
    ``get`` answer as a dict would, with Python values; :meth:`covered`
    and :meth:`gather` answer a hash array in one call.  A hash given
    twice is refused."""

    def __init__(self, hashes=(), privates=()) -> None:
        hashes = np.asarray(hashes, dtype=np.uint64)
        if len(privates) != len(hashes):
            raise ValueError("hashes and privates differ in length")
        if not isinstance(privates, np.ndarray):
            privates = np.fromiter(privates, dtype=object, count=len(hashes))
        order = np.argsort(hashes)
        self.hashes, self.privates = hashes[order], privates[order]
        again = np.flatnonzero(self.hashes[1:] == self.hashes[:-1])
        if len(again):
            raise ValueError(
                f"hash {int(self.hashes[again[0]]):#x} handled twice")
        self._keys: list[int] | None = None    # both columns as lists,
        self._values: list[Any] = []           # on demand

    def __getitem__(self, h) -> Any:
        if self._keys is None:
            self._keys, self._values = (self.hashes.tolist(),
                                        self.privates.tolist())
        try:
            i = bisect_left(self._keys, h)
        except TypeError:                       # not a number: never a key
            raise KeyError(h) from None
        if i == len(self._keys) or self._keys[i] != h:
            raise KeyError(h)
        return self._values[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.hashes.tolist())

    def __len__(self) -> int:
        return len(self.hashes)

    def covered(self, hashes: np.ndarray) -> np.ndarray:
        """``h in self`` for each ``h`` of ``hashes``, as a bool array."""
        return sorted_find(self.hashes, hashes)[1]

    def gather(self, hashes: np.ndarray) -> np.ndarray:
        """``self[h]`` for each ``h`` of ``hashes``, from the column."""
        at, found = sorted_find(self.hashes, hashes)
        if not found.all():
            raise KeyError(int(hashes[np.argmin(found)]))
        return self.privates[at]


class ServiceCallbacks:
    """Base class for application services; override what you need.

    ``collective_select`` is optional in the paper's interface; leave it as
    None (the class default) to get random replica selection, or assign a
    method to take control.

    Override :meth:`local_command`, or :meth:`local_command_batch` for
    large entities — never both: the engine calls only the latter, so a
    service that replaces it leaves its ``local_command`` unreachable.

    The collective phase has the same two shapes: the engine calls
    :meth:`collective_command_batch` once per DHT shard, with the rows it
    resolved in row order, and the default loops
    :meth:`collective_command`.  A service whose batch handles one mode
    in bulk may hand the other back to that loop, keeping
    ``collective_command`` as its row form (the checkpoint does, for
    batch mode's plan).  Rows that return :class:`CommandFailed` finish
    their retry chain after the batch (no bundled service returns it).
    """

    name = "service"

    # Optional callback slot; subclasses may define a method.
    collective_select = None

    # -- service initialization -------------------------------------------------

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        """Parse config, allocate node-local resources, set ctx.state."""

    # -- collective phase -----------------------------------------------------------

    def collective_start(self, ctx: NodeContext, role: EntityRole,
                         entity: Entity, hash_sample: np.ndarray) -> None:
        """Called once per SE/PE on its node with an advisory hash sample."""

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        """Apply the service to one distinct content block.

        Runs on the node of the selected replica.  Return value is the
        private data attached to the handled hash (e.g. the block's
        content ID, shipped), or :class:`CommandFailed` to make the engine
        retry elsewhere.
        """
        return None

    def collective_command_batch(self, batch: CollectiveBatch) -> list[Any]:
        """Apply the service to every row of one shard's batch: the
        engine's one entry into ``collective_command``.

        Called once per shard with the rows whose replica the engine
        chose and found holding the content, in row order, after
        ``collective_select`` has run for each of the shard's hashes.
        Returns one ``collective_command`` result per row: a list, or an
        array kept as the rows' typed private column unless its dtype is
        ``object``.  A row whose result is :class:`CommandFailed`
        finishes its retry chain after the batch, each further attempt a
        one-row batch.  The default
        runs :meth:`collective_command` per row, in row order; override
        this method instead to handle the arrays in bulk.
        """
        return [self.collective_command(ctx, entity, h, block)
                for ctx, entity, h, block in batch]

    def collective_finalize(self, ctx: NodeContext, role: EntityRole,
                            entity: Entity) -> None:
        """Reduce/gather collective-phase work; also a barrier."""

    # -- local phase -----------------------------------------------------------------

    def local_start(self, ctx: NodeContext, entity: Entity) -> None:
        """Prepare the local phase for one SE (PEs are not involved)."""

    def local_command(self, ctx: NodeContext, entity: Entity, page_idx: int,
                      content_hash: int, block: BlockRef,
                      handled_private: Any | None) -> None:
        """Handle one memory block of an SE.

        ``handled_private`` is the collective_command return value if this
        hash was handled in the collective phase, else None — letting the
        service "easily detect and handle content that ConCORD was unaware
        of" (paper §4.3).
        """

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: HandledMap) -> None:
        """Handle every memory block of an SE: the engine's one entry into
        the local phase, called once per SE between ``local_start`` and
        ``local_finalize``.

        ``hashes`` is ``entity.content_hashes()`` (one per block, in block
        order), ``covered[i]`` is ``hashes[i] in handled_map``, and
        ``handled_map`` is a read-only :class:`HandledMap` (a ``Mapping``,
        not a ``dict``) from each hash the collective phase handled *and
        this node was told about* to its private data; its
        :meth:`~HandledMap.gather` reads the privates of a hash array at
        once.  The default runs :meth:`local_command` per block, in block
        order; override this method instead to handle the arrays in bulk.
        """
        eid = entity.entity_id
        resolve = ctx.nsm.resolve_block
        for idx, h in enumerate(hashes.tolist()):
            self.local_command(ctx, entity, idx, h, resolve(eid, h),
                               handled_map.get(h))

    def local_finalize(self, ctx: NodeContext, entity: Entity) -> None:
        """Complete the local phase for one SE; also a barrier."""

    # -- teardown -----------------------------------------------------------------------

    def service_deinit(self, ctx: NodeContext) -> bool:
        """Interpret final private state; return service success."""
        return True
