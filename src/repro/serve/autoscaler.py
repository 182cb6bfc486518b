"""Autoscaler: serve-signal-driven live node joins (docs/ELASTICITY.md).

The serving frontend already exports the three canonical overload
signals — queue depth, rejection rate, and p95 latency — so the
autoscaler is a small policy loop on the sim clock: every
``check_interval_s`` it reads the signals over the last window and, when
any crosses its threshold, starts a live join
(:meth:`~repro.core.concord.ConCORD.begin_join`).  The join it began
cuts over on the *next* tick (:meth:`complete_join`), so live updates
and queries flow between the two phases exactly as they would during a
real incremental handoff.

The policy is deliberately deterministic: signals come from metrics on
the sim clock, so a (spec, seed, config) triple scales identically on
every run — which is what lets the elastic-vs-static byte-identity
property hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.serve.request import QoSClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.concord import ConCORD
    from repro.dht.membership import JoinReport
    from repro.serve.frontend import QueryFrontend

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs for serve-signal-driven scale-out.

    A join triggers when, over the last check window, any of:

    * total queued requests  > ``queue_depth_high``
    * rejected / submitted   > ``reject_rate_high``
    * p95 interactive latency > ``p95_high_s``

    ``max_nodes`` caps growth (0 = the cluster testbed's physical
    capacity); ``cooldown_s`` spaces join *starts* so one overload spike
    cannot burst-join the whole headroom at once.
    """

    max_nodes: int = 0
    check_interval_s: float = 0.005
    queue_depth_high: float = 64.0
    reject_rate_high: float = 0.05
    p95_high_s: float = 0.01
    cooldown_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0 (0 = testbed cap)")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.queue_depth_high < 0 or self.p95_high_s < 0:
            raise ValueError("thresholds must be non-negative")
        if not 0.0 <= self.reject_rate_high <= 1.0:
            raise ValueError("reject_rate_high must be in [0, 1]")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


class Autoscaler:
    """Watches a frontend's serve signals and joins nodes while armed.

    ``arm(deadline)`` schedules the first tick; ticks re-arm themselves
    until the sim clock passes ``deadline``, at which point a still-
    pending join is completed (never left dangling) and the loop stops —
    so a ``sim.run()`` that drains the event queue always terminates.
    """

    def __init__(self, concord: ConCORD, frontend: QueryFrontend,
                 cfg: AutoscalerConfig | None = None) -> None:
        self.concord = concord
        self.frontend = frontend
        self.cfg = cfg if cfg is not None else AutoscalerConfig()
        self.sim = concord.cluster.engine
        reg = concord.obs.registry
        self._c_ticks = reg.counter("ring.autoscale.ticks")
        self._c_scaleups = reg.counter("ring.autoscale.scaleups")
        #: Completed joins, in cutover order.
        self.joins: list[JoinReport] = []
        self._deadline = 0.0
        self._armed = False
        self._join_pending = False
        self._last_submitted = 0
        self._last_rejected = 0
        self._last_start = float("-inf")

    # -- signals ------------------------------------------------------------------

    @property
    def max_nodes(self) -> int:
        return self.cfg.max_nodes or self.concord.cluster.cost.n_nodes

    def overloaded(self) -> bool:
        """Any serve signal over threshold in the last check window."""
        f = self.frontend
        depth = sum(lane.g_depth.value for lane in f._lanes)
        if depth > self.cfg.queue_depth_high:
            return True
        submitted = int(f._c_submitted.value)
        rejected = int(sum(c.value for c in f._c_rejected.values()))
        d_sub = submitted - self._last_submitted
        d_rej = rejected - self._last_rejected
        self._last_submitted, self._last_rejected = submitted, rejected
        if d_sub > 0 and d_rej / d_sub > self.cfg.reject_rate_high:
            return True
        h = f._lane(QoSClass.INTERACTIVE).h_latency
        return h.count > 0 and h.quantile(0.95) > self.cfg.p95_high_s

    # -- the policy loop ----------------------------------------------------------

    def arm(self, deadline: float) -> None:
        """Start ticking until the sim clock passes ``deadline``."""
        if self._armed:
            raise RuntimeError("autoscaler is already armed")
        self._armed = True
        self._deadline = deadline
        self.sim.after(self.cfg.check_interval_s, self._tick)

    def _tick(self) -> None:
        self._c_ticks.inc()
        if self._join_pending:
            # Cut over the join begun last tick; live traffic flowed in
            # between, which the delta catch-up reconciles.
            self.joins.append(self.concord.complete_join())
            self._join_pending = False
        now = self.sim.now
        if now > self._deadline:
            self._armed = False
            return
        if (self.concord.cluster.n_nodes < self.max_nodes
                and now - self._last_start >= self.cfg.cooldown_s
                and self.overloaded()):
            self.concord.begin_join()
            self._join_pending = True
            self._last_start = now
            self._c_scaleups.inc()
        self.sim.after(self.cfg.check_interval_s, self._tick)
