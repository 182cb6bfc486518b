"""The load drivers: a closed loop and an open loop over pre-drawn requests.

Both submit through the public ``QueryFrontend.submit(op, args, qos=,
issuing_node=, client_id=, on_done=)`` and schedule on ``cluster.engine``;
they add no randomness of their own.  One load-generating thread, always.

* :class:`ClosedLoop` — callers that each wait for a reply: client *c*
  keeps exactly one request outstanding and submits its next pre-drawn
  request the instant the previous one completes (zero think time), so a
  slower system receives less load.
* :class:`OpenLoop` — independent users: request *i* is submitted at its
  pre-drawn arrival instant regardless of completions, so a queue can
  grow.  Each request is timed from its due instant; on a discrete-event
  clock the generator is never late, and ``lag_s`` records that it was not.

Both close a :class:`~bench.calibrate.SegmentClock` segment every ``chunk``
completions.  The stream is stationary, so the chunks are exchangeable
samples of the same cost, and the median chunk time is a host-speed estimate
that a burst of machine noise cannot move (bench/README.md).
"""

from __future__ import annotations

from repro.serve.request import Response

from bench.calibrate import SegmentClock
from bench.reqgen import RequestStream

__all__ = ["ClosedLoop", "OpenLoop", "UpdateBursts"]

#: Closed-loop clients start this far apart so they do not phase-lock.
STAGGER_S = 1e-7


class ClosedLoop:
    """N clients, one outstanding request each, zero think time."""

    def __init__(self, frontend, stream: RequestStream, n_clients: int,
                 chunk: int, milestones: dict[int, object] | None = None,
                 ) -> None:
        self.submit = frontend.submit
        self.sim = frontend.sim
        self.stream = stream
        per = len(stream) // n_clients
        self.cursor = [c * per for c in range(n_clients)]
        self.limit = [(c + 1) * per for c in range(n_clients)]
        self.responses: list[Response] = []
        self.n_rejected = 0
        self.chunk = chunk
        self.clock = SegmentClock()         # one segment per `chunk` done
        self._next_mark = chunk
        #: completed-count -> zero-argument callable, scheduled as its own
        #: event at the instant that many requests have completed.
        self.milestones = milestones or {}
        self._on_done = self.on_done

    def start(self) -> None:
        for cid in range(len(self.cursor)):
            self.sim.after(cid * STAGGER_S, self.kick, cid)

    def kick(self, cid: int) -> None:
        """Submit client ``cid``'s next request, if it has one."""
        i = self.cursor[cid]
        if i < self.limit[cid]:
            self.cursor[cid] = i + 1
            s = self.stream
            self.submit(s.ops[i], s.args[i], qos=s.qos[i],
                        issuing_node=s.node[i], client_id=cid,
                        on_done=self._on_done)

    def on_done(self, resp: Response) -> None:
        self.responses.append(resp)
        if len(self.responses) == self._next_mark:
            self.clock.mark()
            self._next_mark += self.chunk
        if self.milestones:
            hook = self.milestones.get(len(self.responses))
            if hook is not None:
                self.sim.at(self.sim.now, hook)
        cid = resp.request.client_id
        if resp.rejected:
            # Refused: a failure, and the client backs off before going on
            # (rejections complete synchronously inside submit).
            self.n_rejected += 1
            self.sim.after(max(resp.answer.retry_after_s, 1e-6),
                           self.retry, cid)
            return
        self.kick(cid)

    def retry(self, cid: int) -> None:
        self.kick(cid)


class OpenLoop:
    """Arrivals on a pre-drawn schedule, independent of completions."""

    def __init__(self, frontend, stream: RequestStream, chunk: int) -> None:
        self.submit = frontend.submit
        self.sim = frontend.sim
        self.stream = stream
        self.responses: list[Response] = []
        self.lag_s: list[float] = []
        self.chunk = chunk
        self.clock = SegmentClock()
        self._next_mark = chunk
        self._next = 0
        self._t0 = 0.0
        self._on_done = self.on_done

    def start(self) -> None:
        self._t0 = self.sim.now
        self.sim.at(self._t0 + self.stream.due[0], self.arrive)

    def arrive(self) -> None:
        i = self._next
        self._next = i + 1
        s = self.stream
        self.lag_s.append(self.sim.now - (self._t0 + s.due[i]))
        if i + 1 < len(s):
            self.sim.at(self._t0 + s.due[i + 1], self.arrive)
        self.submit(s.ops[i], s.args[i], qos=s.qos[i], issuing_node=s.node[i],
                    client_id=s.client[i], on_done=self._on_done)

    def on_done(self, resp: Response) -> None:
        self.responses.append(resp)
        if len(self.responses) == self._next_mark:
            self.clock.mark()
            self._next_mark += self.chunk


class UpdateBursts:
    """Writes beside reads: each burst rewrites a fraction of one entity's
    pages and pushes the change through the monitors into the DHT."""

    def __init__(self, concord, entities, fraction: float, rngs) -> None:
        self.concord = concord
        self.entities = entities
        self.fraction = fraction
        self.rngs = list(rngs)      # one pre-seeded generator per burst
        self.done = 0
        self.t_last = 0.0           # sim time of the latest burst

    def burst(self) -> None:
        k = self.done
        self.done = k + 1
        entity = self.entities[k % len(self.entities)]
        entity.mutate_random(self.fraction, self.rngs[k])
        # Inside an engine event: apply synchronously, do not re-enter run().
        self.concord.sync(run_network=False)
        self.t_last = self.concord.cluster.engine.now
