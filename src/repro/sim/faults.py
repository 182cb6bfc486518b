"""Declarative failure injection for the simulated cluster.

A :class:`FaultPlan` is a schedule of fault events — node kills/restarts,
link partitions, injected datagram loss, latency scaling — built with a
chainable API and handed to :meth:`FaultPlan.schedule`, which arms the
events on the discrete-event engine against a :class:`~repro.sim.network.
Network`.  Experiments and the CLI drive hostile scenarios through it; the
DHT's failover/repair machinery (``repro.dht.engine``) reacts to the
resulting timeouts.

The fault model (see ``docs/FAULTS.md``):

* **kill** — the node stops: its NIC blackholes traffic in both
  directions, its monitor stops scanning, and its DHT shard contents are
  lost (RAM).  Failures are *crash-stop*; a later **restart** brings the
  node back empty.
* **partition** — links between the given node groups blackhole datagrams
  while the partition lasts; **heal** removes all link blocks.
* **loss** — every non-loopback datagram is additionally dropped with the
  given probability (on top of the emergent receive-queue loss).
* **latency** — scales the one-way wire latency.

Kills and restarts invoke optional callbacks so the platform layer can
model the physical consequences (shard memory loss, rejoin announcements)
without the *belief* side — failure detection — being short-circuited:
detection still happens through timeouts on the reliable channel.  A
restart callback runs before the NIC comes back up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.sim.engine import SimEngine
from repro.sim.network import Network

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultInjector"]


class FaultKind(enum.Enum):
    KILL = "kill"
    RESTART = "restart"
    PARTITION = "partition"
    HEAL = "heal"
    LOSS = "loss"
    LATENCY = "latency"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what happens, to whom, when."""

    time: float
    kind: FaultKind
    nodes: tuple[int, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()
    factor: float = 0.0

    def describe(self) -> str:
        if self.kind is FaultKind.KILL:
            return f"kill nodes {list(self.nodes)}"
        if self.kind is FaultKind.RESTART:
            return f"restart nodes {list(self.nodes)}"
        if self.kind is FaultKind.PARTITION:
            return f"partition {[list(g) for g in self.groups]}"
        if self.kind is FaultKind.HEAL:
            return "heal all partitions"
        if self.kind is FaultKind.LOSS:
            return f"set injected loss to {self.factor:g}"
        return f"scale latency by {self.factor:g}"


class FaultPlan:
    """A chainable schedule of fault events.

    >>> plan = (FaultPlan()
    ...         .set_loss(0.0, 0.25)
    ...         .kill(1.0, 6, 7)
    ...         .restart(5.0, 6))
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    # -- builders --------------------------------------------------------------------

    def _add(self, ev: FaultEvent) -> FaultPlan:
        """Append one event, refusing at build time what could never be
        applied: a negative or non-finite time, a negative node id."""
        if not (math.isfinite(ev.time) and ev.time >= 0):
            raise ValueError(
                f"fault time must be finite and >= 0, got {ev.time!r}")
        for node in (*ev.nodes, *(n for g in ev.groups for n in g)):
            if node < 0:
                raise ValueError(f"node id must be >= 0, got {node!r}")
        self.events.append(ev)
        return self

    def kill(self, time: float, *nodes: int) -> FaultPlan:
        """Crash-stop the given nodes at ``time``."""
        return self._add(FaultEvent(time, FaultKind.KILL, nodes=tuple(nodes)))

    def restart(self, time: float, *nodes: int) -> FaultPlan:
        """Bring the given (previously killed) nodes back, empty."""
        return self._add(
            FaultEvent(time, FaultKind.RESTART, nodes=tuple(nodes)))

    def partition(self, time: float, *groups) -> FaultPlan:
        """Partition the cluster into the given node groups at ``time``.

        Links *between* groups blackhole datagrams; links within a group
        are untouched.  Nodes not listed in any group stay reachable from
        everyone.
        """
        return self._add(FaultEvent(
            time, FaultKind.PARTITION,
            groups=tuple(tuple(g) for g in groups)))

    def heal(self, time: float) -> FaultPlan:
        """Remove every link block (partitions end) at ``time``."""
        return self._add(FaultEvent(time, FaultKind.HEAL))

    def set_loss(self, time: float, prob: float) -> FaultPlan:
        """Inject i.i.d. datagram loss with probability ``prob``."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        return self._add(FaultEvent(time, FaultKind.LOSS, factor=prob))

    def scale_latency(self, time: float, factor: float) -> FaultPlan:
        """Multiply the one-way wire latency by ``factor``."""
        if not 0 < factor < math.inf:
            raise ValueError("latency factor must be positive and finite")
        return self._add(FaultEvent(time, FaultKind.LATENCY, factor=factor))

    # -- arming ----------------------------------------------------------------------

    def sorted_events(self) -> list[FaultEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def schedule(self, network: Network, engine: SimEngine,
                 on_kill: Callable[[int], None] | None = None,
                 on_restart: Callable[[int], None] | None = None,
                 ) -> FaultInjector:
        """Arm every event on the engine; returns the injector for logs."""
        inj = FaultInjector(network, on_kill=on_kill, on_restart=on_restart)
        for ev in self.sorted_events():
            engine.at(ev.time, inj.apply, ev)
        return inj


@dataclass
class FaultInjector:
    """Applies :class:`FaultEvent`\\ s to a network and keeps a log."""

    network: Network
    on_kill: Callable[[int], None] | None = None
    on_restart: Callable[[int], None] | None = None
    log: list[tuple[float, str]] = field(default_factory=list)

    def apply(self, ev: FaultEvent) -> None:
        net = self.network
        if ev.kind is FaultKind.KILL:
            for node in ev.nodes:
                net.set_node_up(node, False)
                if self.on_kill is not None:
                    self.on_kill(node)
        elif ev.kind is FaultKind.RESTART:
            for node in ev.nodes:
                # The callback runs while the NIC is still down, so it
                # can tell a crash nobody detected from a node that is up.
                if self.on_restart is not None:
                    self.on_restart(node)
                net.set_node_up(node, True)
        elif ev.kind is FaultKind.PARTITION:
            net.partition(*ev.groups)
        elif ev.kind is FaultKind.HEAL:
            net.heal()
        elif ev.kind is FaultKind.LOSS:
            net.set_loss(ev.factor)
        elif ev.kind is FaultKind.LATENCY:
            net.set_latency_scale(ev.factor)
        self.log.append((net.engine.now, ev.describe()))
