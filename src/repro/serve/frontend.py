"""The query-serving frontend (docs/SERVING.md).

:class:`QueryFrontend` turns the passive :class:`~repro.queries.interface.
QueryInterface` into a *service*: simulated clients submit requests on the
sim clock, admission control sheds overload with typed answers, admitted
requests wait one QoS batching window so identical queries coalesce and
node-wise lookups batch onto the bulk shard APIs, and results are served
from the update-epoch cache whenever the covering shard epochs stand
still.

Timing model
------------
The frontend runs on one node and its CPU is a serial
:class:`~repro.sim.engine.Resource`.  A drained batch occupies the CPU for
its modelled service time — ``cache_hit_cost_s`` per cache lookup that
hits, the slowest bulk lookup among node-wise executions (they fan out in
parallel), and the modelled latency of each collective execution (run
serially).  Every request in the batch completes when the batch does, so a
request's frontend latency = queue wait + batch window remainder + service
time — all simulated seconds, fully deterministic.

Fidelity: *values* are byte-identical to what an individual uncached
``QueryInterface`` call would return at the same instant (the epoch-cache
property pins this); the frontend's ``Response.latency_s`` is the serving
latency on top, while ``answer.latency`` remains the query's own modelled
network latency.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.obs import Observability
from repro.queries.interface import QueryInterface
from repro.serve.admission import AdmissionController
from repro.serve.batcher import bulk_answers
from repro.serve.cache import CachedQueries
from repro.serve.config import ServeConfig
from repro.serve.request import (NODEWISE_OPS, QoSClass, RejectReason,
                                 Request, Response)
from repro.sim.engine import Resource
from repro.util.stats import Table

__all__ = ["QueryFrontend", "ServeReport"]

#: Serving-latency histogram bounds (simulated seconds): queries answer in
#: microseconds-to-milliseconds, so the default 1us..100s decades are too
#: coarse at the low end.
LATENCY_BOUNDS = (2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
                  1e-3, 2e-3, 5e-3, 1e-2, 1e-1, 1.0)

_INTERACTIVE = QoSClass.INTERACTIVE
_NODEWISE = frozenset(NODEWISE_OPS)
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class ServeReport:
    """Summary of one serving run (all values from the metrics registry)."""

    duration_s: float
    submitted: int
    admitted: int
    rejected: int
    rejected_by_reason: dict[str, int]
    completed: int
    coalesced: int
    batches: int
    executions: int
    cache_hits: int
    cache_misses: int
    cache_invalidations: int
    cache_violations: int
    qps: float
    mean_latency_s: dict[str, float]
    p95_latency_s: dict[str, float]

    @property
    def coalesce_rate(self) -> float:
        """Fraction of admitted requests satisfied by another request's
        execution."""
        return self.coalesced / self.admitted if self.admitted else 0.0

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def summary_table(self) -> Table:
        t = Table("query serving summary", "metric")
        vals = t.add_series("value")
        rows = [
            ("duration_s (sim)", self.duration_s),
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("throughput_qps (sim)", self.qps),
            ("batches", self.batches),
            ("coalesced", self.coalesced),
            ("coalesce_rate", self.coalesce_rate),
            ("executions", self.executions),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_hit_rate", self.hit_rate),
            ("cache_invalidations", self.cache_invalidations),
            ("cache_violations", self.cache_violations),
        ]
        for reason, n in sorted(self.rejected_by_reason.items()):
            rows.append((f"rejected[{reason}]", n))
        for qos in sorted(self.mean_latency_s):
            rows.append((f"latency_mean_s[{qos}]", self.mean_latency_s[qos]))
            rows.append((f"latency_p95_s[{qos}]", self.p95_latency_s[qos]))
        for name, v in rows:
            t.x_values.append(name)
            vals.append(float(v))
        return t


class _Lane:
    """Everything the frontend keeps per QoS class, in one record: the
    drain event carries its lane, so the hot path reaches queue, window
    and metrics by attribute instead of hashing the enum member."""

    __slots__ = ("qos", "window", "queue", "drain_pending", "c_admitted",
                 "c_completed", "g_depth", "h_latency")

    def __init__(self, qos: QoSClass, window: float, reg) -> None:
        self.qos = qos
        self.window = window
        self.queue: deque[Request] = deque()
        self.drain_pending = False
        self.c_admitted = reg.counter("serve.admitted", qos=qos.value)
        self.c_completed = reg.counter("serve.completed", qos=qos.value)
        self.g_depth = reg.gauge("serve.queue_depth", qos=qos.value)
        self.h_latency = reg.histogram("serve.latency_s",
                                       bounds=LATENCY_BOUNDS, qos=qos.value)


class QueryFrontend:
    """Admission control + batching/coalescing + epoch cache, in front of
    a :class:`QueryInterface`, on the cluster's sim clock."""

    def __init__(self, cluster, queries: QueryInterface,
                 cfg: ServeConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.cluster = cluster
        self.sim = cluster.engine
        self.queries = queries
        self.engine = queries.engine
        self._membership = queries.engine.membership
        self.cost = cluster.cost
        self.cfg = cfg if cfg is not None else ServeConfig()
        self.obs = obs if obs is not None else Observability(
            clock=lambda: cluster.engine.now)
        self.admission = AdmissionController(self.cfg, cluster.entities)
        self.cpu = Resource()
        self.cached = CachedQueries(queries, self.cfg.cache_capacity,
                                    verify=self.cfg.verify_cache,
                                    obs=self.obs)
        self.t_first_submit: float | None = None
        self.t_last_done = 0.0
        # Metrics, resolved once (the registry is the single bookkeeper).
        reg = self.obs.registry
        self._lanes = tuple(
            _Lane(q, self.cfg.interactive_window_s
                  if q is QoSClass.INTERACTIVE else self.cfg.batch_window_s,
                  reg)
            for q in QoSClass)
        self._interactive = self._lane(_INTERACTIVE)
        self._c_submitted = reg.counter("serve.submitted")
        self._c_rejected = {r: reg.counter("serve.rejected", reason=r.value)
                            for r in RejectReason}
        self._c_coalesced = reg.counter("serve.coalesced")
        self._c_batches = reg.counter("serve.batches")
        self._c_executions = reg.counter("serve.executions")

    # -- submission ----------------------------------------------------------------
    # Counters and gauges on the request path are bumped as attribute
    # writes (``c.value += 1``, ``g.value = float(n)``): the same values
    # ``inc``/``set`` leave, at every event boundary, without the calls.

    def _lane(self, qos: QoSClass) -> _Lane:
        for lane in self._lanes:
            if lane.qos is qos:
                return lane
        raise ValueError(f"unknown QoS class {qos!r}")

    def submit(self, op: str, args: tuple, *,
               qos: QoSClass = QoSClass.INTERACTIVE, issuing_node: int = 0,
               client_id: int = 0, on_done=None) -> Request:
        """Submit one request at the current sim time.

        Rejections complete *synchronously* (``on_done`` is called before
        ``submit`` returns, with a :class:`Rejected` answer); admitted
        requests complete via the event loop when their batch drains.
        """
        lane = self._interactive if qos is _INTERACTIVE else self._lane(qos)
        now = self.sim.now
        if self.t_first_submit is None:
            self.t_first_submit = now
        req = Request(op, args if type(args) is tuple else tuple(args), qos,
                      issuing_node, client_id, now, on_done)
        self._c_submitted.value += 1
        queue = lane.queue
        verdict = self.admission.admit(req, len(queue), now)
        if verdict is not None:
            self._c_rejected[verdict.reason].value += 1
            if on_done is not None:
                on_done(Response(req, verdict, now))
            return req
        lane.c_admitted.value += 1
        queue.append(req)
        lane.g_depth.value = float(len(queue))
        if not lane.drain_pending:
            lane.drain_pending = True
            self.sim.at(now + lane.window, self._drain, lane)
        return req

    # -- batch drain ---------------------------------------------------------------

    def _drain(self, lane: _Lane) -> None:
        lane.drain_pending = False
        queue = lane.queue
        if not queue:
            return
        now = self.sim.now
        max_batch = self.cfg.max_batch
        if len(queue) <= max_batch:
            batch = list(queue)
            queue.clear()
        else:
            # Overload: more than max_batch waiting — drain again after a
            # fresh window rather than growing this batch unboundedly.
            batch = [queue.popleft() for _ in range(max_batch)]
            lane.drain_pending = True
            self.sim.at(now + lane.window, self._drain, lane)
        lane.g_depth.value = float(len(queue))
        self._c_batches.value += 1

        # Coalesce: requests with equal (op, args) share one execution.
        groups: dict[tuple, list[Request]] = {}
        for req in batch:
            key = (req.op, req.args)
            reqs = groups.get(key)
            if reqs is None:
                groups[key] = [req]
            else:
                reqs.append(req)
        n = len(batch)
        coalesced = n - len(groups)
        if coalesced:
            self._c_coalesced.value += coalesced

        slots, svc, n_exec = self._answer_groups(groups)
        self._c_executions.value += n_exec
        done = self.cpu.submit(now, svc)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.add_span(
                "serve.batch", now, done, node=self.cfg.frontend_node,
                phase="serve", qos=lane.qos.value, n=n,
                coalesced=coalesced, executions=n_exec)
        # tuple.__new__ builds the NamedTuple without its Python __new__.
        responses = [
            _new_tuple(Response, (req, result, done, done - req.t_submit, hit,
                                  follower, n))
            for req, result, hit, follower in slots]
        # `now + (done - now)`, not `done`: the two can differ by an ulp,
        # and this sum is the completion instant the sim goldens pin.
        self.sim.at(now + (done - now), self._complete, lane, done,
                    responses)

    def _answer_groups(self, groups):
        """Answer each key group; returns (slots, service_time, n_exec),
        ``slots`` holding one ``(request, QueryResult, hit, follower)`` per
        request in completion order: groups as first seen, arrival order
        within a group, ``follower`` true for all but a group's first.

        The one place a drained batch meets the cache: one lookup per
        collective key and per distinct node-wise ``(op, hash,
        issuing_node)`` — the latency field depends on the issuing node,
        and same-key requests from the same node ride along free — then
        one ``bulk_answers`` fill per node-wise op over its misses, which
        writes the answers into the slots (lists, not tuples) left open
        for them.
        """
        slots: list = []
        n_hits = 0          # cache lookups that hit (one per cache key)
        n_exec = 0
        nodewise_max = 0.0  # node-wise executions fan out in parallel
        collective_sum = 0.0  # collective executions run serially
        # Node-wise misses, per op: (args, issuing node, the token the
        # lookup missed on, waiting slots).
        misses: dict[str, list[tuple[tuple, int, tuple, Sequence[list]]]] = {}
        lookup = self.cached.lookup
        # Those tokens stay good while this stands still (CachedQueries.store).
        as_of = self._membership.global_epoch

        for (op, args), reqs in groups.items():
            if op not in _NODEWISE:
                result, hit = self.cached.query(op, args)
                if hit:
                    n_hits += 1
                else:
                    n_exec += 1
                    collective_sum += result.latency
                follower = False
                for r in reqs:
                    slots.append((r, result, hit, follower))
                    follower = True
                continue
            if len(reqs) == 1:
                # One request: one lookup, no per-node bookkeeping.
                r = reqs[0]
                token, result = lookup(op, args, r.issuing_node)
                if result is None:
                    slot = [r, None, False, False]
                    misses.setdefault(op, []).append(
                        (args, r.issuing_node, token, (slot,)))
                else:
                    n_hits += 1
                    slot = (r, result, True, False)
                slots.append(slot)
                continue
            # One lookup per distinct issuing node, at its first request:
            # node -> (cached answer, None) or (None, slots its miss fills).
            by_node: dict[int, tuple] = {}
            follower = False
            for r in reqs:
                node = r.issuing_node
                cell = by_node.get(node)
                if cell is None:
                    token, result = lookup(op, args, node)
                    if result is None:
                        cell = by_node[node] = (None, [])
                        misses.setdefault(op, []).append(
                            (args, node, token, cell[1]))
                    else:
                        n_hits += 1
                        cell = by_node[node] = (result, None)
                result, waiting = cell
                if waiting is None:
                    slot = (r, result, True, follower)
                else:
                    slot = [r, None, False, follower]
                    waiting.append(slot)
                slots.append(slot)
                follower = True

        # Fills in op-table order, whatever order the misses arrived in.
        for op in NODEWISE_OPS:
            waiting = misses.get(op)
            if waiting is None:
                continue
            # Each miss's home is its token's while the global epoch stands
            # (the rule CachedQueries.store applies); once a later lookup or
            # fill has detected a failure, the fill routes every hash again.
            if self._membership.global_epoch == as_of:
                pairs = [(args[0], node, token[0])
                         for args, node, token, _slots in waiting]
            else:
                pairs = [(args[0], node, None)
                         for args, node, _token, _slots in waiting]
            results = bulk_answers(self.engine, self.cost, op, pairs)
            n_exec += len(results)
            for (args, node, token, open_slots), result in zip(waiting,
                                                               results):
                nodewise_max = max(nodewise_max, result.latency)
                self.cached.store(op, args, node, result, token, as_of)
                for slot in open_slots:
                    slot[1] = result

        svc = (n_hits * self.cfg.cache_hit_cost_s + nodewise_max
               + collective_sum)
        return slots, svc, n_exec

    # -- completion ----------------------------------------------------------------

    def _complete(self, lane: _Lane, done: float,
                  responses: list[Response]) -> None:
        lane.c_completed.value += len(responses)
        if done > self.t_last_done:
            self.t_last_done = done
        lane.h_latency.observe_many([resp.latency_s for resp in responses])
        for resp in responses:
            on_done = resp.request.on_done
            if on_done is not None:
                on_done(resp)

    # -- reporting -----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed (queued or in flight)."""
        return int(sum(lane.c_admitted.value - lane.c_completed.value
                       for lane in self._lanes))

    def report(self, duration_s: float | None = None) -> ServeReport:
        """Summarize the run; ``duration_s`` defaults to the span from the
        first submit to the last completion."""
        reg = self.obs.registry
        admitted = int(sum(lane.c_admitted.value for lane in self._lanes))
        rejected_by = {r.value: int(c.value)
                       for r, c in self._c_rejected.items() if c.value}
        rejected = int(sum(c.value for c in self._c_rejected.values()))
        completed = int(sum(lane.c_completed.value for lane in self._lanes))
        if duration_s is None:
            t0 = self.t_first_submit if self.t_first_submit is not None \
                else 0.0
            duration_s = max(self.t_last_done - t0, 0.0)
        qps = completed / duration_s if duration_s > 0 else 0.0
        mean_lat: dict[str, float] = {}
        p95_lat: dict[str, float] = {}
        for lane in self._lanes:
            h = lane.h_latency
            if h.count:
                mean_lat[lane.qos.value] = h.mean
                p95_lat[lane.qos.value] = h.quantile(0.95)
        return ServeReport(
            duration_s=duration_s,
            submitted=int(self._c_submitted.value),
            admitted=admitted,
            rejected=rejected,
            rejected_by_reason=rejected_by,
            completed=completed,
            coalesced=int(self._c_coalesced.value),
            batches=int(self._c_batches.value),
            executions=int(self._c_executions.value),
            cache_hits=int(reg.value("serve.cache.hits")),
            cache_misses=int(reg.value("serve.cache.misses")),
            cache_invalidations=int(reg.value("serve.cache.invalidations")),
            cache_violations=int(reg.value("serve.cache.violations")),
            qps=qps,
            mean_latency_s=mean_lat,
            p95_latency_s=p95_lat,
        )
