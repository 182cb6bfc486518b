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

from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.obs import Observability
from repro.queries.interface import OPS, QueryInterface, QueryResult
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
        self.cost = cluster.cost
        self.cfg = cfg if cfg is not None else ServeConfig()
        self.obs = obs if obs is not None else Observability(
            clock=lambda: cluster.engine.now)
        self.admission = AdmissionController(self.cfg)
        self.cpu = Resource()
        self.cached = CachedQueries(queries, self.cfg.cache_capacity,
                                    verify=self.cfg.verify_cache,
                                    obs=self.obs)
        self._queues: dict[QoSClass, deque[Request]] = {
            q: deque() for q in QoSClass}
        self._drain_pending: dict[QoSClass, bool] = {
            q: False for q in QoSClass}
        self.t_first_submit: float | None = None
        self.t_last_done = 0.0
        # Metrics, resolved once (the registry is the single bookkeeper).
        reg = self.obs.registry
        self._c_submitted = reg.counter("serve.submitted")
        self._c_admitted = {q: reg.counter("serve.admitted", qos=q.value)
                            for q in QoSClass}
        self._c_rejected = {r: reg.counter("serve.rejected", reason=r.value)
                            for r in RejectReason}
        self._c_completed = {q: reg.counter("serve.completed", qos=q.value)
                             for q in QoSClass}
        self._c_coalesced = reg.counter("serve.coalesced")
        self._c_batches = reg.counter("serve.batches")
        self._c_executions = reg.counter("serve.executions")
        self._g_depth = {q: reg.gauge("serve.queue_depth", qos=q.value)
                         for q in QoSClass}
        self._h_latency = {
            q: reg.histogram("serve.latency_s", bounds=LATENCY_BOUNDS,
                             qos=q.value)
            for q in QoSClass}

    # -- submission ----------------------------------------------------------------

    def _window(self, qos: QoSClass) -> float:
        return (self.cfg.interactive_window_s if qos is QoSClass.INTERACTIVE
                else self.cfg.batch_window_s)

    def submit(self, op: str, args: tuple, *,
               qos: QoSClass = QoSClass.INTERACTIVE, issuing_node: int = 0,
               client_id: int = 0, on_done=None) -> Request:
        """Submit one request at the current sim time.

        Rejections complete *synchronously* (``on_done`` is called before
        ``submit`` returns, with a :class:`Rejected` answer); admitted
        requests complete via the event loop when their batch drains.
        """
        now = self.sim.now
        if self.t_first_submit is None:
            self.t_first_submit = now
        req = Request(op, tuple(args), qos=qos, issuing_node=issuing_node,
                      client_id=client_id, t_submit=now, on_done=on_done)
        self._c_submitted.inc()
        verdict = self.admission.admit(req, len(self._queues[qos]), now)
        if verdict is not None:
            self._c_rejected[verdict.reason].inc()
            self._deliver(Response(req, verdict, t_done=now, latency_s=0.0))
            return req
        self._c_admitted[qos].inc()
        queue = self._queues[qos]
        queue.append(req)
        self._g_depth[qos].set(len(queue))
        if not self._drain_pending[qos]:
            self._drain_pending[qos] = True
            self.sim.after(self._window(qos), self._drain, qos)
        return req

    # -- batch drain ---------------------------------------------------------------

    def _drain(self, qos: QoSClass) -> None:
        self._drain_pending[qos] = False
        queue = self._queues[qos]
        if not queue:
            return
        now = self.sim.now
        n_take = min(len(queue), self.cfg.max_batch)
        batch = [queue.popleft() for _ in range(n_take)]
        self._g_depth[qos].set(len(queue))
        if queue:
            # Overload: more than max_batch waiting — drain again after a
            # fresh window rather than growing this batch unboundedly.
            self._drain_pending[qos] = True
            self.sim.after(self._window(qos), self._drain, qos)
        self._c_batches.inc()

        # Coalesce: requests with equal keys share one execution.
        groups: OrderedDict[tuple, list[Request]] = OrderedDict()
        for req in batch:
            groups.setdefault(req.key, []).append(req)
        coalesced = len(batch) - len(groups)
        if coalesced:
            self._c_coalesced.inc(coalesced)

        answers, svc, n_exec = self._answer_groups(groups)
        self._c_executions.inc(n_exec)
        done = self.cpu.submit(now, svc)
        self.obs.tracer.add_span(
            "serve.batch", now, done, node=self.cfg.frontend_node,
            phase="serve", qos=qos.value, n=len(batch),
            coalesced=coalesced, executions=n_exec)
        responses = []
        for reqs in groups.values():
            for i, req in enumerate(reqs):
                result, hit = answers[id(req)]
                responses.append(Response(
                    req, result, t_done=done, latency_s=done - req.t_submit,
                    cache_hit=hit, coalesced=i > 0, batch_size=len(batch)))
        self.sim.after(done - now, self._complete, responses)

    def _answer_groups(self, groups):
        """Answer each key group; returns (answers, service_time, n_exec),
        ``answers`` mapping ``id(request)`` to its ``(QueryResult, hit)``.

        The one place a drained batch meets the cache: one lookup per
        collective key and per distinct node-wise ``(op, hash,
        issuing_node)`` — the latency field depends on the issuing node,
        and same-key requests from the same node ride along free — then
        one ``bulk_answers`` fill per node-wise op over its misses.
        """
        answers: dict[int, tuple[QueryResult, bool]] = {}
        n_hits = 0          # cache lookups that hit (one per cache key)
        n_exec = 0
        nodewise_max = 0.0  # node-wise executions fan out in parallel
        collective_sum = 0.0  # collective executions run serially
        # Node-wise misses, per op: (args, issuing node, waiting requests).
        misses: dict[str, list[tuple[tuple, int, list[Request]]]] = {
            op: [] for op in NODEWISE_OPS}

        for (op, args), reqs in groups.items():
            if OPS[op].nodewise:
                by_node: OrderedDict[int, list[Request]] = OrderedDict()
                for r in reqs:
                    by_node.setdefault(r.issuing_node, []).append(r)
                for node, node_reqs in by_node.items():
                    result = self.cached.lookup(op, args, node)
                    if result is None:
                        misses[op].append((args, node, node_reqs))
                        continue
                    n_hits += 1
                    for r in node_reqs:
                        answers[id(r)] = (result, True)
            else:
                result, hit = self.cached.query(op, args)
                if hit:
                    n_hits += 1
                else:
                    n_exec += 1
                    collective_sum += result.latency
                for r in reqs:
                    answers[id(r)] = (result, hit)

        for op, waiting in misses.items():
            if not waiting:
                continue
            results = bulk_answers(
                self.engine, self.cost, op,
                [(args[0], node) for args, node, _reqs in waiting])
            n_exec += len(results)
            for (args, node, node_reqs), result in zip(waiting, results):
                nodewise_max = max(nodewise_max, result.latency)
                self.cached.store(op, args, node, result)
                for r in node_reqs:
                    answers[id(r)] = (result, False)

        svc = (n_hits * self.cfg.cache_hit_cost_s + nodewise_max
               + collective_sum)
        return answers, svc, n_exec

    # -- completion ----------------------------------------------------------------

    def _complete(self, responses: list[Response]) -> None:
        for resp in responses:
            qos = resp.request.qos
            self._c_completed[qos].inc()
            self._h_latency[qos].observe(resp.latency_s)
            self.t_last_done = max(self.t_last_done, resp.t_done)
            self._deliver(resp)

    def _deliver(self, resp: Response) -> None:
        cb = resp.request.on_done
        if cb is not None:
            cb(resp)

    # -- reporting -----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed (queued or in flight)."""
        admitted = sum(c.value for c in self._c_admitted.values())
        completed = sum(c.value for c in self._c_completed.values())
        return int(admitted - completed)

    def report(self, duration_s: float | None = None) -> ServeReport:
        """Summarize the run; ``duration_s`` defaults to the span from the
        first submit to the last completion."""
        reg = self.obs.registry
        admitted = int(sum(c.value for c in self._c_admitted.values()))
        rejected_by = {r.value: int(c.value)
                       for r, c in self._c_rejected.items() if c.value}
        rejected = int(sum(c.value for c in self._c_rejected.values()))
        completed = int(sum(c.value for c in self._c_completed.values()))
        if duration_s is None:
            t0 = self.t_first_submit if self.t_first_submit is not None \
                else 0.0
            duration_s = max(self.t_last_done - t0, 0.0)
        qps = completed / duration_s if duration_s > 0 else 0.0
        mean_lat: dict[str, float] = {}
        p95_lat: dict[str, float] = {}
        for q, h in self._h_latency.items():
            if h.count:
                mean_lat[q.value] = h.mean
                p95_lat[q.value] = h.quantile(0.95)
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
