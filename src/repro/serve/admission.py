"""Admission control: token-bucket rate limiting and bounded queues.

The frontend admits a request only if (a) the token bucket — refilled on
the *sim* clock, so behaviour is deterministic — has a token, and (b) the
request's QoS queue has room.  Everything else is shed immediately with a
typed :class:`~repro.serve.request.Rejected` answer; a loaded service that
answers "no" in constant time beats one that melts (the backpressure story
fine-grain data services need at scale).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Container

from repro.queries.interface import _HASH_MAX, OPS, _is_integer
from repro.serve.config import ServeConfig
from repro.serve.request import QoSClass, Rejected, RejectReason, Request

__all__ = ["TokenBucket", "AdmissionController"]


def _entity_ids_ok(ids, known: Container) -> bool:
    """A hashable collection of non-negative integer entity ids, each one
    in ``known``?  (The coalescing key hashes it; the cache key holds it;
    the drain looks each id's node up.)"""
    try:
        hash(ids)
    except TypeError:
        return False
    if type(ids) is not tuple and not isinstance(ids, Collection):
        return False
    for e in ids:
        if not _is_integer(e) or e < 0 or e not in known:
            return False
    return True


class TokenBucket:
    """Deterministic token bucket on an external clock.

    ``rate`` tokens/second accrue continuously up to ``burst``; a take at
    time *t* first credits the elapsed interval.  With ``rate=None`` or
    ``rate=0`` the bucket is disabled and every take succeeds — 0 is
    "no limit", not "limit of nothing" (an always-rejecting bucket
    would have to answer ``retry_after_s=inf``, which no client can
    schedule).
    """

    #: retry_after_s ceiling for pathologically tiny rates — large
    #: enough to mean "not today", finite enough to schedule.
    MAX_RETRY_S = 1e18

    def __init__(self, rate: float | None, burst: int) -> None:
        if rate is not None and (rate < 0 or math.isnan(rate)):
            raise ValueError("rate must be >= 0 (or None)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = None if rate == 0 else rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float) -> bool:
        """Consume one token if available at sim time ``now``."""
        if self.rate is None:
            return True
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def time_to_token(self, now: float) -> float:
        """Seconds from ``now`` until one token *will actually* be
        available: a take at ``now + time_to_token(now)`` succeeds.

        Never negative and never ``inf``.  The naive
        ``(1 - tokens) / rate`` suffers fractional-token starvation:
        float rounding can leave ``tokens + dt * rate`` at
        0.999999...; the returned interval is nudged up until the
        credited balance truly reaches a full token.
        """
        if self.rate is None:
            return 0.0
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        dt = max(0.0, (1.0 - self.tokens) / self.rate)
        if not dt <= self.MAX_RETRY_S:      # inf/overflow at tiny rates
            return self.MAX_RETRY_S
        # Guard against fractional starvation.  The retrying client
        # computes ``now + dt`` and the bucket then credits
        # ``(now + dt) - now``, so the check must run through the same
        # absolute-time round-trip — nudge the *target time* up by ulps
        # (bounded: a few cover the rounding) until the credited
        # balance truly reaches a full token.
        target = now + dt
        while self.tokens + (target - now) * self.rate < 1.0:
            target = math.nextafter(target, math.inf)
        return target - now


class AdmissionController:
    """Decides admit / shed for each submitted request.

    ``entities`` is the set of entity ids a collective request may name
    (the frontend passes ``cluster.entities``, which only grows).
    """

    def __init__(self, cfg: ServeConfig, entities: Container[int]) -> None:
        self.cfg = cfg
        self.entities = entities
        self.bucket = TokenBucket(cfg.rate_limit_qps, cfg.rate_burst)

    def admit(self, req: Request, queue_depth: int,
              now: float) -> Rejected | None:
        """``None`` admits; otherwise the typed shed answer.

        A request the op table cannot execute is refused here, so it
        never reaches a batch it would abort: unknown op, wrong arity, a
        node-wise hash that is not an integer in ``[0, 2**64)``, an
        entity set that is not a hashable collection of non-negative
        integers or names an entity not in :attr:`entities`, ``k`` not a
        positive integer (:func:`~repro.queries.interface._is_integer`,
        the direct API's rule too, decides "integer" in all three
        positions).  Queue capacity is checked before the rate limit so a
        full queue does not consume tokens it cannot use; a disabled
        bucket is not consulted at all.
        """
        spec = OPS.get(req.op)
        args = req.args
        if spec is None:
            return Rejected(RejectReason.BAD_REQUEST)
        nodewise, takes_k = spec
        if len(args) != 1 + takes_k:
            return Rejected(RejectReason.BAD_REQUEST)
        first = args[0]
        if nodewise:
            ok = _is_integer(first) and 0 <= first <= _HASH_MAX
        else:
            ok = _entity_ids_ok(first, self.entities) and (not takes_k or (
                _is_integer(args[1]) and args[1] >= 1))
        if not ok:
            return Rejected(RejectReason.BAD_REQUEST)
        if queue_depth >= self.cfg.queue_limit:
            # Earliest useful retry: one batching window from now, when
            # the queue has had a chance to drain.
            window = (self.cfg.interactive_window_s
                      if req.qos is QoSClass.INTERACTIVE
                      else self.cfg.batch_window_s)
            return Rejected(RejectReason.QUEUE_FULL, retry_after_s=window)
        bucket = self.bucket
        if bucket.rate is not None and not bucket.try_take(now):
            return Rejected(RejectReason.RATE_LIMITED,
                            retry_after_s=bucket.time_to_token(now))
        return None
