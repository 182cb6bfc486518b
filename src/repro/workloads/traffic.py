"""Query traffic generator for the serving frontend (docs/SERVING.md).

The serving PR needs *request streams*, not memory content: N simulated
clients issuing Fig 3 queries against a brought-up ConCORD on the sim
clock.  :class:`TrafficSpec` describes the stream shape:

* **arrival process** — ``"poisson"`` (open loop: each client submits at
  exponentially-spaced instants regardless of completions — the overload
  regime admission control exists for) or ``"closed"`` (closed loop: each
  client keeps one request outstanding, resubmitting ``think_time_s``
  after each completion — the throughput regime the epoch cache
  accelerates);
* **key popularity** — queries draw content hashes from a ``population``
  of hot keys with Zipf(``zipf_s``) popularity, so repeated queries both
  coalesce inside batching windows and hit the result cache across them;
* **mix** — ``nodewise_frac`` splits node-wise vs. collective ops,
  ``batch_frac`` splits interactive vs. batch QoS;
* **client churn** — clients depart and are replaced (fresh id, fresh
  home node) at ``churn_rate`` per second.

Everything draws from one seeded generator and schedules on the cluster's
:class:`~repro.sim.engine.SimEngine`, so a (spec, seed, system) triple
replays identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from repro.queries.interface import OPS, _is_integer
from repro.serve.frontend import QueryFrontend, ServeReport
from repro.serve.request import QoSClass, Response

__all__ = ["TrafficSpec", "TrafficDriver"]

_ARRIVALS = ("poisson", "closed")
_INT_FIELDS = ("n_clients", "population", "n_groups", "group_size",
               "collective_k", "seed")
_FLOAT_FIELDS = ("duration_s", "rate_per_client", "think_time_s", "zipf_s",
                 "nodewise_frac", "entities_frac", "batch_frac", "churn_rate")

#: Collective ops the driver mixes in (k-ops get ``collective_k``).
_COLLECTIVE_MIX = ("sharing", "degree_of_sharing", "num_shared_content")


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one client traffic run (see module docstring)."""

    n_clients: int = 8
    duration_s: float = 0.5
    arrival: str = "poisson"
    rate_per_client: float = 2000.0   # open-loop mean submits/s per client
    think_time_s: float = 0.0         # closed-loop pause after a completion
    zipf_s: float = 1.2               # key popularity skew (>= 0; 0 uniform)
    population: int = 256             # hot content hashes drawn from the DHT
    nodewise_frac: float = 0.9        # node-wise share of the op mix
    entities_frac: float = 0.25       # "entities" share *within* node-wise
    batch_frac: float = 0.1           # QoSClass.BATCH share of submissions
    n_groups: int = 16                # distinct entity groups for collectives
    group_size: int = 3               # entities per collective group
    collective_k: int = 2             # k for the k-parameterized collectives
    churn_rate: float = 0.0           # client replacements per second
    seed: int = 0

    def __post_init__(self) -> None:
        # Types first: a NaN or infinite duration never ends the run
        # (``sim.now > nan`` is never true), and ``True`` is not 1 client.
        for name in _INT_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in _FLOAT_FIELDS:
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, Real)
                    or not math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.arrival not in _ARRIVALS:
            raise ValueError(f"arrival must be one of {_ARRIVALS}")
        if self.arrival == "poisson" and self.rate_per_client <= 0:
            raise ValueError("rate_per_client must be positive")
        if self.think_time_s < 0:
            raise ValueError("think_time_s must be non-negative")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        if self.population < 1:
            raise ValueError("population must be >= 1")
        for name in ("nodewise_frac", "entities_frac", "batch_frac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.n_groups < 1 or self.group_size < 1:
            raise ValueError("n_groups and group_size must be >= 1")
        if self.collective_k < 1:
            raise ValueError("collective_k must be >= 1")
        if self.churn_rate < 0:
            raise ValueError("churn_rate must be non-negative")

    def replace(self, **changes) -> TrafficSpec:
        return dataclasses.replace(self, **changes)


class _Client:
    __slots__ = ("client_id", "node", "active")

    def __init__(self, client_id: int, node: int) -> None:
        self.client_id = client_id
        self.node = node
        self.active = True


class TrafficDriver:
    """Drives a :class:`TrafficSpec` request stream into a frontend.

    ``run()`` schedules every client on the frontend's sim engine, runs
    the engine until the stream drains, and returns the frontend's
    :class:`~repro.serve.frontend.ServeReport` over the spec duration.
    """

    def __init__(self, frontend: QueryFrontend, spec: TrafficSpec,
                 keep_responses: bool = False) -> None:
        self.frontend = frontend
        self.spec = spec
        self.sim = frontend.sim
        self.cluster = frontend.cluster
        self.rng = np.random.default_rng(spec.seed)
        self.keep_responses = keep_responses
        self.responses: list[Response] = []
        self.n_responses = 0
        self.n_rejected = 0
        self.n_orphaned = 0
        self._t_end = 0.0
        self._next_client_id = spec.n_clients
        n_nodes = self.cluster.n_nodes
        self.clients = [_Client(i, i % n_nodes)
                        for i in range(spec.n_clients)]
        self._keys = self._hot_keys()
        cdf = self._zipf_weights(len(self._keys), spec.zipf_s).cumsum()
        self._key_cdf = cdf / cdf[-1]
        self._groups = self._entity_groups()

    # -- populations -------------------------------------------------------------

    def _hot_keys(self) -> list[int]:
        """The hot content-hash population, sampled from the DHT."""
        engine = self.frontend.engine
        all_hashes: list[int] = []
        for shard in engine.shards:
            all_hashes.extend(int(h) for h in shard.hashes())
        all_hashes.sort()
        if not all_hashes:
            # Nothing traced yet: absent keys still exercise the path
            # (num_copies == 0 answers are cacheable too).
            return [int(x) for x in range(1, self.spec.population + 1)]
        if len(all_hashes) <= self.spec.population:
            return all_hashes
        idx = self.rng.choice(len(all_hashes), size=self.spec.population,
                              replace=False)
        return [all_hashes[i] for i in sorted(idx)]

    @staticmethod
    def _zipf_weights(n: int, s: float) -> np.ndarray:
        w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
        return w / w.sum()

    def _entity_groups(self) -> list[tuple[int, ...]]:
        eids = sorted(self.cluster.all_entity_ids())
        if not eids:
            return [(0,)]
        size = min(self.spec.group_size, len(eids))
        groups = []
        for _ in range(self.spec.n_groups):
            pick = self.rng.choice(len(eids), size=size, replace=False)
            groups.append(tuple(eids[i] for i in sorted(pick)))
        return groups

    # -- request synthesis -------------------------------------------------------

    def _draw_key(self) -> int:
        """One Zipf-popular hot key, by inverse-CDF lookup.  This is what
        ``Generator.choice(n, p=)`` does with its one ``random()`` per
        draw — after re-validating ``p`` in O(population) on every call —
        so the request stream is the same, bit for bit."""
        u = self.rng.random()
        return self._keys[int(self._key_cdf.searchsorted(u, side="right"))]

    def _draw_request(self) -> tuple[str, tuple, QoSClass]:
        r = self.rng
        qos = (QoSClass.BATCH if r.random() < self.spec.batch_frac
               else QoSClass.INTERACTIVE)
        if r.random() < self.spec.nodewise_frac:
            op = ("entities" if r.random() < self.spec.entities_frac
                  else "num_copies")
            return op, (self._draw_key(),), qos
        op = _COLLECTIVE_MIX[int(r.integers(len(_COLLECTIVE_MIX)))]
        group = self._groups[int(r.integers(len(self._groups)))]
        if OPS[op].takes_k:
            return op, (group, self.spec.collective_k), qos
        return op, (group,), qos

    def _submit(self, client: _Client, on_done) -> None:
        op, args, qos = self._draw_request()
        self.frontend.submit(op, args, qos=qos, issuing_node=client.node,
                             client_id=client.client_id, on_done=on_done)

    def _observe(self, resp: Response) -> None:
        self.n_responses += 1
        if resp.rejected:
            self.n_rejected += 1
        if self.keep_responses:
            self.responses.append(resp)

    def _observe_for(self, client: _Client):
        """An ``on_done`` bound to *client*: a response completing after
        churn killed the client is dropped (counted ``n_orphaned``), not
        recorded — a departed client double-counting in the report made
        churn runs non-reproducible."""
        def on_done(resp: Response) -> None:
            if not client.active:
                self.n_orphaned += 1
                return
            self._observe(resp)
        return on_done

    # -- open loop ----------------------------------------------------------------

    def _open_arrival(self, client: _Client) -> None:
        if not client.active or self.sim.now > self._t_end:
            return
        self._submit(client, self._observe_for(client))
        gap = self.rng.exponential(1.0 / self.spec.rate_per_client)
        self.sim.after(gap, self._open_arrival, client)

    # -- closed loop --------------------------------------------------------------

    def _closed_next(self, client: _Client) -> None:
        if not client.active or self.sim.now > self._t_end:
            return

        def on_done(resp: Response, _client=client) -> None:
            if not _client.active:
                # Churn killed this client while its request was in
                # flight: drop the response and do not respawn the loop.
                self.n_orphaned += 1
                return
            self._observe(resp)
            if resp.rejected:
                # Back off at least a microsecond so a synchronous
                # rejection cannot respawn at the same instant.
                delay = max(resp.answer.retry_after_s, 1e-6)
            else:
                delay = self.spec.think_time_s
            self.sim.after(delay, self._closed_next, _client)

        self._submit(client, on_done)

    # -- churn --------------------------------------------------------------------

    def _churn_event(self) -> None:
        if self.sim.now > self._t_end:
            return
        victim = self.clients[int(self.rng.integers(len(self.clients)))]
        victim.active = False
        fresh = _Client(self._next_client_id,
                        int(self.rng.integers(self.cluster.n_nodes)))
        self._next_client_id += 1
        self.clients[self.clients.index(victim)] = fresh
        self._start_client(fresh)
        self.sim.after(self.rng.exponential(1.0 / self.spec.churn_rate),
                       self._churn_event)

    # -- run ----------------------------------------------------------------------

    def _start_client(self, client: _Client) -> None:
        if self.spec.arrival == "poisson":
            gap = self.rng.exponential(1.0 / self.spec.rate_per_client)
            self.sim.after(gap, self._open_arrival, client)
        else:
            # Stagger closed-loop starts so clients do not phase-lock.
            self.sim.after(float(self.rng.random()) * 1e-5,
                           self._closed_next, client)

    def run(self) -> ServeReport:
        """Run the stream to completion and report over the spec duration."""
        self._t_end = self.sim.now + self.spec.duration_s
        for client in self.clients:
            self._start_client(client)
        if self.spec.churn_rate > 0:
            self.sim.after(self.rng.exponential(1.0 / self.spec.churn_rate),
                           self._churn_event)
        self.sim.run()
        return self.frontend.report(duration_s=self.spec.duration_s)
