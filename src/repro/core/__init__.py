"""The paper's primary contribution: the content-aware service command.

An application service is implemented as a parametrization of a single
general query — a set of node-local callbacks (:class:`ServiceCallbacks`)
that ConCORD's distributed execution engine invokes in two phases: the
*collective* phase driven by the best-effort DHT view (exploiting
redundancy), then the *local* phase driven by ground-truth node-local
memory (guaranteeing correctness).

:class:`ConCORD` is the top-level facade: bring the platform service up on
a cluster, run monitors, issue queries, execute service commands.
"""

from repro.core.scope import ServiceScope, EntityRole
from repro.core.command import (
    ServiceCallbacks,
    CollectiveBatch,
    CommandFailed,
    ExecMode,
    NodeContext,
)
from repro.core.config import ConCORDConfig
from repro.core.events import CommandTracer, EventKind, TraceEvent
from repro.core.plan import ExecutionPlan, PlanOp
from repro.core.executor import ServiceCommandExecutor, CommandResult, CommandStats
from repro.core.concord import ConCORD

__all__ = [
    "ConCORDConfig",
    "ServiceScope",
    "EntityRole",
    "ServiceCallbacks",
    "CollectiveBatch",
    "CommandFailed",
    "ExecMode",
    "NodeContext",
    "CommandTracer",
    "EventKind",
    "TraceEvent",
    "ExecutionPlan",
    "PlanOp",
    "ServiceCommandExecutor",
    "CommandResult",
    "CommandStats",
    "ConCORD",
]
