"""Request/response vocabulary of the serving frontend (docs/SERVING.md).

A :class:`Request` names one Fig 3 query (op + args) with its QoS class
and issuing node; the frontend answers it with a :class:`Response` whose
``answer`` is either the query's :class:`~repro.queries.interface.
QueryResult` or a typed :class:`Rejected` — load shedding is a first-class
answer, not an exception, so closed-loop clients can back off on it.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.queries.interface import OPS, QueryResult

__all__ = ["QoSClass", "RejectReason", "Rejected", "Request", "Response",
           "NODEWISE_OPS", "COLLECTIVE_OPS", "ALL_OPS"]

#: Node-wise ops (single content hash argument; batchable/coalescable).
NODEWISE_OPS = tuple(op for op, spec in OPS.items() if spec.nodewise)

#: Collective ops (entity-set argument; cached on the global epoch).
COLLECTIVE_OPS = tuple(op for op, spec in OPS.items() if not spec.nodewise)

ALL_OPS = tuple(OPS)


class QoSClass(enum.Enum):
    """Service classes (paper Fig 1's tools vs. application services):
    interactive queries want latency, batch commands want throughput."""

    INTERACTIVE = "interactive"
    BATCH = "batch"


class RejectReason(enum.Enum):
    QUEUE_FULL = "queue_full"        # bounded admission queue overflowed
    RATE_LIMITED = "rate_limited"    # token bucket empty
    BAD_REQUEST = "bad_request"      # unknown op / malformed args


@dataclass(frozen=True)
class Rejected:
    """Typed load-shed answer.  ``retry_after_s`` is the modelled earliest
    time the same request could be admitted (0 when unknowable)."""

    reason: RejectReason
    retry_after_s: float = 0.0


@dataclass(slots=True)
class Request:
    """One client query as submitted to the frontend.  Requests with equal
    ``(op, args)`` coalesce onto one execution; the issuing node is not
    part of that identity — it changes only the modelled response
    latency, which is synthesized per request."""

    op: str                         # one of ALL_OPS
    args: tuple                     # hashable: (hash,) | (entity_ids[, k])
    qos: QoSClass = QoSClass.INTERACTIVE
    issuing_node: int = 0
    client_id: int = 0
    t_submit: float = 0.0           # stamped by the frontend (sim time)
    on_done: Callable[[Response], None] | None = None


class Response(NamedTuple):
    """The frontend's answer to one request (immutable; one per request
    per batch, so it is a plain tuple underneath)."""

    request: Request
    answer: QueryResult | Rejected
    t_done: float = 0.0             # sim time the answer left the frontend
    latency_s: float = 0.0          # t_done - t_submit (frontend-observed)
    cache_hit: bool = False
    coalesced: bool = False         # satisfied by another request's execution
    batch_size: int = 1             # requests drained in the same batch

    @property
    def rejected(self) -> bool:
        return isinstance(self.answer, Rejected)

    @property
    def value(self) -> Any:
        """The query value (None for rejected requests)."""
        return None if self.rejected else self.answer.value
