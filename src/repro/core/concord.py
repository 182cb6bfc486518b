"""The ConCORD facade: the whole platform service in one object.

Brings the per-node components up on a cluster (NSMs, memory update
monitors, DHT shards, the tracing engine), wires monitors to the engine,
and exposes the three interfaces of Fig 1: the memory update interface
(scan/sync), the content-sharing query interface (Fig 3), and the
content-aware collective command controller (§4) — plus the fault
interface (fail/restart/detect/repair, docs/FAULTS.md).

Configuration lives in one :class:`~repro.core.config.ConCORDConfig`
value.

Instances are context managers: ``with ConCORD(cluster, cfg) as
concord: ...`` releases the parallel backend's shared-memory
segments and an ephemeral shard storage root on exit (docs/STORAGE.md).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any

from repro.core.command import ExecMode, ServiceCallbacks
from repro.core.config import ConCORDConfig
from repro.core.executor import CommandResult, ServiceCommandExecutor
from repro.core.scope import ServiceScope
from repro.dht.engine import ContentTracingEngine
from repro.dht.membership import JoinReport
from repro.dht.repair import RepairReport
from repro.exec import ShardPool
from repro.memory.chunking import ContentChunker, make_chunker
from repro.memory.entity import Entity
from repro.memory.monitor import MemoryUpdateMonitor
from repro.memory.pagedata import is_interned_id
from repro.memory.nsm import NodeSpecificModule
from repro.obs import (MetricsRegistry, MetricsSampler, Observability,
                       active_capture)
from repro.queries.interface import QueryInterface, QueryResult
from repro.sim.cluster import Cluster
from repro.util.stats import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
    from repro.serve.frontend import QueryFrontend, ServeReport
    from repro.sim.faults import FaultInjector, FaultPlan
    from repro.workloads.traffic import TrafficSpec

__all__ = ["ConCORD"]


class ConCORD:
    """The memory content-tracking platform service, brought up on a cluster.

    Build it from a config value::

        concord = ConCORD(cluster, ConCORDConfig(use_network=True))

    (defaults apply when ``config`` is omitted).
    """

    def __init__(self, cluster: Cluster,
                 config: ConCORDConfig | None = None) -> None:
        self.config = config or ConCORDConfig()
        self._closed = False
        cfg = self.config
        # One ContentChunker per page size, shared by every byte-backed
        # entity attached under chunking="cdc" (docs/RECONCILIATION.md).
        self._chunkers: dict[int, ContentChunker] = {}
        self.cluster = cluster
        self.n_represented = cfg.n_represented
        # Observability: one registry + tracer on the cluster's sim clock.
        # An active capture session (repro.obs.capture_traces) overrides
        # the obs config so the CLI can trace experiment-built instances.
        cap = active_capture()
        obs_cfg = cap.config if cap is not None else cfg.obs
        self.obs = Observability(clock=lambda: cluster.engine.now,
                                 config=obs_cfg)
        cluster.network.use_registry(self.obs.registry)
        cluster.network.tracer = self.obs.tracer
        self.pool = ShardPool()
        engine_kw = {}
        if cfg.update_batch_size is not None:
            engine_kw["batch_size"] = cfg.update_batch_size
        self.tracing = ContentTracingEngine(cluster,
                                            use_network=cfg.use_network,
                                            n_represented=cfg.n_represented,
                                            transport=cfg.update_transport,
                                            obs=self.obs,
                                            storage=cfg.storage,
                                            placement=cfg.placement,
                                            **engine_kw)
        self.nsms: list[NodeSpecificModule] = []
        self.monitors: list[MemoryUpdateMonitor] = []
        for node in cluster.nodes:
            nsm = NodeSpecificModule(cluster, node.node_id)
            node.nsm = nsm
            self.nsms.append(nsm)
            self.monitors.append(self._new_monitor(nsm))
        self.queries = QueryInterface(cluster, self.tracing, cfg.n_represented)
        self.executor = ServiceCommandExecutor(cluster, self.tracing,
                                               cfg.n_represented,
                                               obs=self.obs)
        self._frontend: QueryFrontend | None = None
        self._last_traffic = None
        self._last_autoscaler = None
        self._last_sampler: MetricsSampler | None = None
        for entity in cluster.entities.values():
            self.attach_entity(entity)
        if cap is not None:
            cap.add(self.obs)

    def _new_monitor(self, nsm: NodeSpecificModule) -> MemoryUpdateMonitor:
        cfg = self.config
        return MemoryUpdateMonitor(
            nsm, self.tracing.route_updates, self.cluster.cost,
            mode=cfg.monitor_mode, hash_algo=cfg.hash_algo,
            throttle_updates_per_s=cfg.throttle_updates_per_s,
            n_represented=cfg.n_represented, obs=self.obs)

    # -- entity lifecycle ------------------------------------------------------------

    def attach_entity(self, entity: Entity) -> None:
        """Start tracking an entity (it must be registered with the cluster).

        Under ``config.chunking == "cdc"``, byte-backed entities
        (:meth:`Entity.from_bytes`) get a shared
        :class:`~repro.memory.chunking.ContentChunker` so their tracked
        blocks are content-defined chunks; ID-backed synthetic entities
        keep fixed page blocks either way — their pages are atomic
        content units with no byte substructure to re-chunk.
        """
        if (self.config.chunking == "cdc" and entity.chunker is None
                and entity.n_pages
                and all(is_interned_id(c)
                        for c in entity.pages.tolist())):
            ch = self._chunkers.get(entity.page_size)
            if ch is None:
                ch = make_chunker("cdc", entity.page_size)
                self._chunkers[entity.page_size] = ch
            entity.set_chunker(ch)
        self.nsms[entity.node_id].attach_entity(entity)

    def detach_entity(self, entity_id: int) -> None:
        """Stop tracking an entity and purge it from every shard."""
        node = self.cluster.node_of(entity_id)
        self.nsms[node].detach_entity(entity_id)
        self.tracing.remove_entity(entity_id)

    # -- memory update interface ---------------------------------------------------------

    def _node_up(self, node_id: int) -> bool:
        return bool(self.cluster.network.node_up[node_id])

    def initial_scan(self, run_network: bool = True) -> int:
        """First full monitor pass on every *up* node; returns updates produced."""
        total = 0
        for node_id, mon in enumerate(self.monitors):
            if not self._node_up(node_id):
                continue
            total += mon.initial_scan()
            mon.flush()
        if run_network:
            self.cluster.engine.run()
        return total

    def sync(self, run_network: bool = True) -> int:
        """One monitoring pass + flush on every up node (brings the DHT view
        up to date modulo datagram loss, throttling, and dead nodes)."""
        total = 0
        for node_id, mon in enumerate(self.monitors):
            if not self._node_up(node_id):
                continue
            total += mon.scan()
            mon.flush()
        if run_network:
            self.cluster.engine.run()
        return total

    # -- fault interface (docs/FAULTS.md) ----------------------------------------------

    def _crash(self, node: int) -> None:
        """The crash step: NIC blackholed, DHT shard RAM lost, monitor
        stopped.  A persistent backend keeps the shard's last committed
        state on disk (a crash loses RAM, not storage)."""
        self.cluster.network.set_node_up(node, False)
        self.tracing.shards[node].crash()

    def fail_node(self, node: int) -> None:
        """Crash-stop ``node`` now and let the tracing engine fail it
        over; :meth:`restart_node` with ``warm=True`` can rejoin from its
        last commit.  The last alive ring member is refused with
        ``ValueError`` before anything is touched."""
        membership = self.tracing.membership
        if membership.check_failover(node):
            self.cluster.network.set_node_up(node, False)
            membership.node_failed(node)    # loses the shard's RAM
        else:   # already failed over, or still joining: no ranges move
            self._crash(node)

    def restart_node(self, node: int,
                     warm: bool = False) -> RepairReport | None:
        """Bring ``node`` back up; its primary ranges route back to it
        (holed until :meth:`repair`).  A ``FaultPlan`` restart runs
        this too, cold.

        Default (cold): the shard rejoins empty.  ``warm=True`` with a
        persistent backend reloads the last committed segments and then
        runs a delta repair, so rejoin cost scales with what changed
        while the node was down, not with total content
        (docs/STORAGE.md); the delta pass's :class:`RepairReport` is
        returned.  Warm on a memory backend (or with nothing committed)
        degrades gracefully to the cold path.  A down node nobody has
        detected yet is failed over first: its RAM died with the crash.
        Restarting a node that is up does nothing.
        """
        membership = self.tracing.membership
        if not self._node_up(node):
            membership.node_failed(node)
        self.cluster.network.set_node_up(node, True)
        membership.node_restarted(node, recover=warm)
        if warm:
            return self.repair(mode="delta")
        return None

    def detect_failures(self, issuing_node: int = 0) -> list[int]:
        """Probe believed-alive peers; fail over any that are down."""
        return self.tracing.detect_failures(issuing_node)

    def repair(self, full: bool = False, mode: str = "replay") -> RepairReport:
        """Anti-entropy repair: re-populate holed hash ranges from the
        monitors' ground truth (``full=True`` rebuilds every range, also
        healing datagram-loss holes).  Every mode applies only the
        difference: ``"replay"`` reports it as a purge-and-replay,
        ``"delta"`` as the difference itself — same final bytes — and
        ``"recon"`` runs the digest-tree set-reconciliation protocol so
        *wire* cost is proportional to divergence too
        (docs/RECONCILIATION.md)."""
        return self.tracing.repair(full=full, mode=mode)

    def warm_restart(self, mode: str = "delta") -> RepairReport:
        """Finish a warm process restart: rebase the monitors (ground
        truth without update replay) and reconcile the recovered shards
        against it.

        Call this instead of :meth:`initial_scan` when the instance came
        up with :attr:`storage_recovered` True — a fresh instance on an
        already-populated storage root.  The reconcile pass heals exactly
        the divergence between the last commit and live memory (plus any
        un-committed write log lost in the crash), so a quiet restart is
        near-free while a cold rebuild re-routes every copy.  The
        resulting shards are byte-identical to a cold full rebuild.

        ``mode`` picks the reconciliation: ``"delta"`` (default) diffs
        locally and replays only the difference; ``"recon"`` drives the
        digest-tree :class:`~repro.recon.session.ReconSession` protocol,
        whose wire bytes also scale with the divergence.
        """
        if mode not in ("delta", "recon"):
            raise ValueError(f"unknown warm_restart mode {mode!r}; "
                             f"expected 'delta' or 'recon'")
        for node_id, mon in enumerate(self.monitors):
            if self._node_up(node_id):
                mon.rebase()
        return self.tracing.repair(full=True, mode=mode)

    @property
    def storage_recovered(self) -> bool:
        """Whether any shard rejoined from persistent storage at bring-up
        (i.e. a warm restart is in progress; see :meth:`warm_restart`)."""
        return self.tracing.recovered

    @property
    def coverage(self) -> float:
        """Fraction of the hash space served by intact shards."""
        return self.tracing.membership.coverage

    def inject_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a :class:`~repro.sim.faults.FaultPlan` on this instance's
        cluster; events fire as simulation time advances.  A kill is the
        crash step alone (detection is left to the timeouts); a restart
        is :meth:`restart_node`, cold."""
        return plan.schedule(self.cluster.network, self.cluster.engine,
                             on_kill=self._crash, on_restart=self.restart_node)

    # -- elastic membership (docs/ELASTICITY.md) ----------------------------------------

    def begin_join(self) -> int:
        """Start a live node join; returns the new node's ID.

        Grows the machine and pre-copies the joining node's future
        range while the old ring keeps serving (the new node also gets
        its NSM and update monitor, so entities placed there later are
        tracked like anywhere else).  Cut over with
        :meth:`complete_join`; live updates in between are reconciled
        incrementally at cutover.
        """
        node = self.tracing.membership.begin_join()
        nsm = NodeSpecificModule(self.cluster, node)
        self.cluster.nodes[node].nsm = nsm
        self.nsms.append(nsm)
        self.monitors.append(self._new_monitor(nsm))
        return node

    def complete_join(self) -> JoinReport:
        """Cut a begun join over (the grown ring becomes the routed map);
        returns the :class:`~repro.dht.membership.JoinReport`."""
        return self.tracing.membership.complete_join()

    def add_node(self) -> JoinReport:
        """Join one node atomically (begin + immediate cutover)."""
        self.begin_join()
        return self.complete_join()

    def scale_to(self, n_nodes: int) -> list[JoinReport]:
        """Grow the cluster to ``n_nodes`` via live joins; returns one
        :class:`~repro.dht.membership.JoinReport` per join.  Scaling *in*
        (shrinking) is not supported — a no-op when already at or above
        the target."""
        reports = []
        while self.cluster.n_nodes < n_nodes:
            reports.append(self.add_node())
        return reports

    def autoscaler(self, cfg: "AutoscalerConfig | None" = None) -> "Autoscaler":
        """An :class:`~repro.serve.autoscaler.Autoscaler` policy loop
        bound to this instance's frontend (build, then ``arm()`` — or
        let :meth:`serve` do both via its ``autoscale`` argument)."""
        from repro.serve.autoscaler import Autoscaler
        return Autoscaler(self, self.frontend(), cfg)

    # -- query interface (Fig 3) ------------------------------------------------------------

    def num_copies(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        return self.queries.num_copies(content_hash, issuing_node)

    def entities(self, content_hash: int, issuing_node: int = 0) -> QueryResult:
        return self.queries.entities(content_hash, issuing_node)

    def sharing(self, entity_ids: list[int], **kw) -> QueryResult:
        return self.queries.sharing(entity_ids, **kw)

    def intra_sharing(self, entity_ids: list[int], **kw) -> QueryResult:
        return self.queries.intra_sharing(entity_ids, **kw)

    def inter_sharing(self, entity_ids: list[int], **kw) -> QueryResult:
        return self.queries.inter_sharing(entity_ids, **kw)

    def num_shared_content(self, entity_ids: list[int], k: int, **kw) -> QueryResult:
        return self.queries.num_shared_content(entity_ids, k, **kw)

    def shared_content(self, entity_ids: list[int], k: int, **kw) -> QueryResult:
        return self.queries.shared_content(entity_ids, k, **kw)

    def degree_of_sharing(self, entity_ids: list[int], **kw) -> QueryResult:
        return self.queries.degree_of_sharing(entity_ids, **kw)

    # -- query serving (docs/SERVING.md) ------------------------------------------------------

    def frontend(self, cfg=None) -> "QueryFrontend":
        """The query-serving frontend (admission control, batching, and
        the update-epoch result cache) in front of :attr:`queries`.

        One frontend per instance, created on first use from
        ``config.serve`` (or the ``cfg`` override on the first call); it
        shares the platform registry/tracer, so ``serve.*`` metrics land
        in :meth:`metrics_report`.
        """
        from repro.serve.frontend import QueryFrontend
        if self._frontend is None:
            self._frontend = QueryFrontend(
                self.cluster, self.queries,
                cfg if cfg is not None else self.config.serve, obs=self.obs)
        elif cfg is not None and cfg != self._frontend.cfg:
            raise ValueError("frontend already built with a different "
                             "ServeConfig")
        return self._frontend

    def serve(self, spec: "TrafficSpec", cfg=None,
              keep_responses: bool = False,
              autoscale: "AutoscalerConfig | None" = None,
              sample_period_s: float | None = None) -> "ServeReport":
        """Drive a :class:`~repro.workloads.traffic.TrafficSpec` request
        stream through :meth:`frontend` to completion; returns the
        :class:`~repro.serve.frontend.ServeReport`.

        With ``autoscale`` set, an :class:`~repro.serve.autoscaler.
        Autoscaler` with that config runs for the duration of the
        stream, live-joining nodes when the serve signals cross its
        thresholds; the armed instance is kept on
        ``self._last_autoscaler`` for inspection (``.joins``).

        With ``sample_period_s`` set, a :meth:`sampler` with that period
        records the standard serve/engine time-series over the stream;
        the stopped sampler is kept on ``self._last_sampler`` (its
        ``.series`` is the JSONL-exportable record — docs/LAB.md).
        """
        from repro.workloads.traffic import TrafficDriver
        driver = TrafficDriver(self.frontend(cfg), spec,
                               keep_responses=keep_responses)
        scaler = None
        if autoscale is not None:
            from repro.serve.autoscaler import Autoscaler
            scaler = Autoscaler(self, self.frontend(cfg), autoscale)
            scaler.arm(self.cluster.engine.now + spec.duration_s)
        self._last_autoscaler = scaler
        sampler = None
        if sample_period_s is not None:
            sampler = self.sampler(period_s=sample_period_s)
            sampler.arm(self.cluster.engine.now + spec.duration_s)
        self._last_sampler = sampler
        report = driver.run()
        self._last_traffic = driver
        if sampler is not None:
            sampler.stop()
        return report

    # -- command controller (Fig 1) ------------------------------------------------------------

    def execute_command(self, service: ServiceCallbacks, scope: ServiceScope,
                        mode: ExecMode = ExecMode.INTERACTIVE,
                        config: Any = None, seed: int = 0,
                        tracer=None) -> CommandResult:
        """Run a content-aware service command to completion.

        Pass a :class:`repro.core.events.CommandTracer` as ``tracer`` to
        capture a structured protocol trace of the execution.
        """
        return self.executor.execute(service, scope, mode=mode, config=config,
                                     seed=seed, tracer=tracer)

    # -- MapReduce analytics ---------------------------------------------------------------

    def map_shards(self, map_fn, args: tuple = (), *, shard_filter=None,
                   reduce_fn=None, initial=None, live_only: bool = True):
        """MapReduce over the DHT shards.

        ``map_fn(shard, *args)`` must be a pure per-shard kernel (e.g.
        from :mod:`repro.exec.ops`); ``shard_filter(shard)`` prunes the
        shards first.  Results return as a list in shard order, or folded
        through ``reduce_fn`` in that order from ``initial`` (from the
        first result when ``initial`` is None; folding zero shards that
        way raises ``TypeError``).  The analysis jobs in
        :mod:`repro.analysis` are the main consumers.
        """
        tracing = self.tracing
        shards = tracing.live_shards() if live_only else list(tracing.shards)
        if shard_filter is not None:
            shards = [s for s in shards if shard_filter(s)]
        return self.pool.map_shards(shards, map_fn, args,
                                    reduce_fn=reduce_fn, initial=initial)

    def close(self) -> None:
        """Tear the instance down: flush the up nodes' durable shard
        storage at the global epoch (a dead node keeps its last commit)
        and remove an ephemeral storage root.

        Idempotent — calling twice is a no-op — and safe to skip with a
        memory backend; a garbage-collected instance cleans up on its
        own.  Prefer the context-manager form, which cannot forget::

            with ConCORD(cluster, cfg) as concord:
                ...
        """
        if self._closed:
            return
        self._closed = True
        # Flush only when the files outlive us: an ephemeral root is
        # deleted two lines down, so committing to it is wasted I/O.
        if self.tracing.storage.durable:
            # Commit at the global epoch, so the next process resumes no
            # lower than any epoch this one issued, a down node's included.
            for shard in self.tracing.shards:
                shard.epoch = self.tracing.membership.global_epoch
            self.tracing.flush_storage()
        self.tracing.close()

    def __enter__(self) -> ConCORD:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------------------------

    @property
    def total_tracked_hashes(self) -> int:
        return self.tracing.total_hashes

    def monitor_stats(self):
        return [m.stats for m in self.monitors]

    # -- observability (docs/OBSERVABILITY.md) -------------------------------------

    def metrics(self) -> MetricsRegistry:
        """The platform-wide metrics registry (``net.*``, ``dht.*``,
        ``cmd.*``, ``monitor.*``, plus service-level counters)."""
        return self.obs.registry

    def metrics_report(self, title: str = "concord metrics",
                       prefix: str = "") -> Table:
        """Fixed-width text report of every metric (optionally only the
        names under ``prefix``; an empty selection renders cleanly)."""
        return self.obs.registry.report(title, prefix=prefix)

    def sampler(self, period_s: float = 1e-3,
                extra_probes: dict[str, Any] | None = None) -> MetricsSampler:
        """A :class:`~repro.obs.sampler.MetricsSampler` on this
        instance's sim clock and registry, pre-loaded with the standard
        scenario-triage columns (docs/LAB.md):

        ``serve.submitted`` / ``serve.completed`` / ``serve.rejected`` /
        ``serve.coalesced`` cumulative counts (windowed rates via
        ``series.rate``), ``serve.cache.hits`` / ``serve.cache.
        violations``, ``serve.p95_interactive`` / ``serve.p95_batch``
        latency quantiles, ``serve.queue_depth``, ``ring.n_nodes``,
        ``dht.repair.bytes_wire`` / ``dht.repair.rounds`` repair-traffic
        deltas, and live ``coverage``.  ``extra_probes`` maps extra
        column names to zero-argument callables evaluated at each tick.

        The caller arms it (``sampler.arm(deadline)``) — or lets
        :meth:`serve` do so via its ``sample_period_s`` argument.
        """
        s = MetricsSampler(self.cluster.engine, self.obs.registry,
                           period_s=period_s)
        s.track_counter("serve.submitted")
        s.track_counter_total("serve.completed")
        s.track_counter_total("serve.rejected")
        s.track_counter("serve.coalesced")
        s.track_counter("serve.cache.hits")
        s.track_counter("serve.cache.violations")
        s.track_quantile("serve.p95_interactive", "serve.latency_s", 0.95,
                         qos="interactive")
        s.track_quantile("serve.p95_batch", "serve.latency_s", 0.95,
                         qos="batch")
        s.track_fn("serve.queue_depth",
                   lambda: self.obs.registry.total("serve.queue_depth"))
        s.track_gauge("ring.n_nodes")
        s.track_counter("dht.repair.bytes_wire")
        s.track_counter("dht.repair.rounds")
        s.track_fn("coverage", lambda: self.tracing.membership.coverage)
        for col, fn in (extra_probes or {}).items():
            s.track_fn(col, fn)
        return s

    def trace_dump(self, path: str | None = None, fmt: str = "chrome"):
        """Export the recorded span trace.

        ``fmt="chrome"`` writes/returns Chrome ``trace_event`` JSON (load
        in chrome://tracing or Perfetto); ``fmt="jsonl"`` the byte-
        deterministic one-span-per-line form.  With ``path`` the trace is
        written there and the path returned; without, the document (dict)
        or text is returned directly.  A trace truncated at the span
        limit warns — the export is incomplete, not merely small.
        """
        tracer = self.obs.tracer
        if tracer.dropped:
            warnings.warn(
                f"trace is incomplete: {tracer.dropped} span(s) were "
                f"dropped at trace_limit={tracer.limit}; raise "
                "ObsConfig.trace_limit to capture the full run",
                RuntimeWarning, stacklevel=2)
        if fmt == "chrome":
            return (tracer.write_chrome_trace(path) if path is not None
                    else tracer.to_chrome_trace())
        if fmt == "jsonl":
            return (tracer.write_jsonl(path) if path is not None
                    else tracer.to_jsonl())
        raise ValueError(f"unknown trace format {fmt!r} "
                         "(expected 'chrome' or 'jsonl')")
