"""The update-epoch result cache (docs/SERVING.md).

Content-awareness is a caching lever: identical content means identical
answers *until the tracked content changes*.  The DHT engine stamps a
per-shard epoch on every insert/remove (and bumps every epoch on
failover/rejoin/repair, which can re-home hashes and move coverage), so a
cached answer is valid exactly while its covering epochs stand still:

* node-wise queries cover one shard — the hash's current home — and are
  keyed on ``(op, hash, issuing_node)`` with that shard's epoch, so
  updates landing on *other* shards leave the entry hot;
* collective queries scan every live shard, so they are keyed on the
  global epoch.

Correctness pin (tests/properties/machine.py, *frontends*): under arbitrary
interleavings of memory updates, node kills/repairs, and queries, a
cache-enabled answer is byte-identical to the uncached answer at the same
instant.  To keep that exact, each cached op performs the *same* lazy
failure detection its uncached path performs (``home_node`` for node-wise,
``refresh_failed`` for collective) before serving from the cache —
detection bumps epochs, so a fault observed by the uncached path forces a
miss on the cached one.  A node-wise entry whose stored home is up and
whose stored epoch still stands is the one case where that detection
provably finds nothing and the token provably has not changed, so
:meth:`CachedQueries.lookup` serves it without routing the hash at all.
Fault-path integration falls out: failover and repair bump epochs, so
degraded answers are never served as fresh (nor fresh ones as degraded).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import Observability
from repro.queries.interface import OPS, QueryInterface, QueryResult

__all__ = ["EpochCache", "CachedQueries", "CacheViolation"]


@dataclass(frozen=True)
class CacheViolation:
    """One verify-mode mismatch: what the cache said vs. fresh execution."""

    key: tuple
    cached: QueryResult
    fresh: QueryResult


class EpochCache:
    """LRU map of ``key -> (epoch token, result)``.

    A ``get`` with a different token than the stored one is an
    *invalidation*: the entry is dropped and the lookup misses.  Counters
    live in the provided registry (``serve.cache.*``) — the metrics
    report is the single source of truth, never parallel bookkeeping.

    ``capacity=0`` is a true bypass: nothing is ever stored, every get
    misses, and no eviction is counted (an insert-then-evict would
    inflate ``serve.cache.evictions`` on every call).
    """

    def __init__(self, capacity: int = 65536,
                 obs: Observability | None = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        self._c_hits = reg.counter("serve.cache.hits")
        self._c_misses = reg.counter("serve.cache.misses")
        self._c_invalidations = reg.counter("serve.cache.invalidations")
        self._c_evictions = reg.counter("serve.cache.evictions")
        self._g_size = reg.gauge("serve.cache.size")
        self._map: OrderedDict[tuple, tuple[tuple, QueryResult]] = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._map)

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def invalidations(self) -> int:
        return self._c_invalidations.value

    @property
    def evictions(self) -> int:
        return self._c_evictions.value

    def get(self, key: tuple, token: tuple) -> QueryResult | None:
        # A hit is accounted here and in CachedQueries.lookup, which
        # serves a still-valid node-wise entry straight from ``_map``:
        # both move the entry to the LRU end and count one hit.
        entry = self._map.get(key)
        if entry is None:
            self._c_misses.value += 1
            return None
        stored_token, result = entry
        if stored_token != token:
            # A covering shard advanced: precise invalidation.
            del self._map[key]
            self._g_size.value = float(len(self._map))
            self._c_invalidations.value += 1
            self._c_misses.value += 1
            return None
        self._map.move_to_end(key)
        self._c_hits.value += 1
        return result

    def put(self, key: tuple, token: tuple, result: QueryResult) -> None:
        if self.capacity == 0:
            return  # bypass: no insert, no eviction accounting
        self._map[key] = (token, result)
        self._map.move_to_end(key)
        while len(self._map) > self.capacity:
            self._map.popitem(last=False)
            self._c_evictions.inc()
        self._g_size.set(len(self._map))

    def clear(self) -> None:
        self._map.clear()
        self._g_size.set(0)


class CachedQueries:
    """A :class:`~repro.queries.interface.QueryInterface` with the epoch
    cache in front.  :meth:`query` answers one op by name; the frontend's
    batched node-wise path uses the same :meth:`lookup` / :meth:`store`
    pair around its bulk fill, handing each miss's token from the one to
    the other.  With ``verify=True`` each hit is
    shadow-executed and compared, recording ``serve.cache.violations``
    (and the mismatch detail in :attr:`violations`) — the CI smoke job
    asserts this stays zero.
    """

    def __init__(self, queries: QueryInterface, capacity: int = 65536,
                 verify: bool = False,
                 obs: Observability | None = None) -> None:
        self.queries = queries
        self.engine = queries.engine
        self.membership = queries.membership
        self.verify = verify
        self.obs = obs if obs is not None else Observability()
        self.cache = EpochCache(capacity, obs=self.obs)
        self._c_violations = self.obs.registry.counter(
            "serve.cache.violations")
        self.violations: list[CacheViolation] = []
        # What a node-wise lookup reads, held directly: the cache's entries
        # and hit counter, the alive view and the shard list (all mutated
        # in place, never replaced).
        self._entries = self.cache._map
        self._c_hits = self.cache._c_hits
        self._node_up = self.engine.cluster.network.node_up
        self._shards = self.engine.shards

    # -- epoch tokens ------------------------------------------------------------

    def nodewise_token(self, content_hash: int) -> tuple:
        """(home shard, its epoch) — ``home_node`` performs the same lazy
        failure detection the uncached lookup would."""
        home = self.engine.home_node(content_hash)
        return (home, self._shards[home].epoch)

    def collective_token(self) -> tuple:
        """Global epoch, after the same eager detection ``live_shards``
        does on the uncached path."""
        self.membership.refresh_failed()
        return (self.membership.global_epoch,)

    # -- the one lookup / verify / store path ------------------------------------

    def _execute(self, key: tuple) -> QueryResult:
        """Run the query a cache key names: ``(op, hash, issuing_node)``
        or ``(op, entity_ids[, k])``, the ids as Python ints."""
        op, first, *rest = key
        fn = getattr(self.queries, op)
        if OPS[op].nodewise:
            return fn(first, *rest)
        return fn([int(e) for e in first], *rest)

    def _shadow(self, key: tuple, token: tuple,
                cached: QueryResult) -> QueryResult:
        """Verify mode: execute the query a hit answered and compare; a
        mismatch is recorded and the fresh answer replaces the entry and
        is served (self-healing)."""
        fresh = self._execute(key)
        if fresh != cached:
            self._c_violations.inc()
            self.violations.append(CacheViolation(key, cached, fresh))
            self.cache.put(key, token, fresh)
        return fresh

    def _get(self, key: tuple, token: tuple) -> QueryResult | None:
        cached = self.cache.get(key, token)
        if cached is None or not self.verify:
            return cached
        return self._shadow(key, token, cached)

    def lookup(self, op: str, args: tuple, issuing_node: int = 0,
               ) -> tuple[tuple, QueryResult | None]:
        """``(token, answer)`` for a node-wise query: the cached answer, or
        ``None`` on a miss, and the epoch token it was checked against —
        which :meth:`store` takes back after the caller executes the miss.

        An entry validates itself.  Its token is ``(home, epoch)`` as of
        the store; every change of membership or of the alive view bumps
        every shard epoch, and epochs only grow.  So while the stored home
        is up and its epoch stands where it stood, the home of the hash
        has not moved, ``home_node`` would detect nothing, and
        :meth:`nodewise_token` would return the stored token: a hit, for
        one dict probe and no routing.  Anything else — no entry, home
        down, epoch advanced — takes the token path: ``home_node`` runs
        the lazy failure detection the uncached query would, and
        ``EpochCache.get`` counts the miss or the invalidation.
        """
        h = int(args[0])
        key = (op, h, issuing_node)
        entry = self._entries.get(key)
        if entry is not None:
            token = entry[0]
            home, epoch = token
            if self._node_up[home] and self._shards[home].epoch == epoch:
                # The hit, accounted as EpochCache.get accounts one.
                self._entries.move_to_end(key)
                self._c_hits.value += 1
                if self.verify:
                    return token, self._shadow(key, token, entry[1])
                return entry
        token = self.nodewise_token(h)
        return token, self._get(key, token)

    def store(self, op: str, args: tuple, issuing_node: int,
              result: QueryResult, token: tuple | None = None,
              as_of: int = -1) -> None:
        """Cache a node-wise answer executed outside (the frontend's bulk
        fill) under the token as it stands *after* execution — executing
        ran the lazy failure detection, so home and epochs are settled.

        ``token`` is the one :meth:`lookup` returned for this miss and
        ``as_of`` the ``membership.global_epoch`` read before that lookup, in
        the same sim instant.  While the global epoch still stands there
        nothing was mutated and nothing was detected in between, so the
        settled token *is* that token and the hash is not routed again;
        once it has moved (a later lookup or the fill detected a dead
        home, which bumps every epoch) the token is re-derived.
        """
        if not self.cache.capacity:
            return  # bypass: nothing is stored, so nothing to key it on
        h = int(args[0])
        if token is None or as_of != self.membership.global_epoch:
            token = self.nodewise_token(h)
        self.cache.put((op, h, issuing_node), token, result)

    def query(self, op: str, args: tuple,
              issuing_node: int = 0) -> tuple[QueryResult, bool]:
        """``(answer, cache_hit)`` for one op by name, with the frontend's
        args convention: node-wise ``(hash,)``; collective
        ``(entity_ids,)`` or ``(entity_ids, k)``, always
        ``ExecMode.DISTRIBUTED``."""
        spec = OPS.get(op)
        if spec is None:
            raise ValueError(f"unknown query op {op!r}")
        if spec.nodewise:
            as_of = self.membership.global_epoch
            token, result = self.lookup(op, args, issuing_node)
            if result is not None:
                return result, True
            result = self._execute((op, int(args[0]), issuing_node))
            self.store(op, args, issuing_node, result, token, as_of)
            return result, False
        # The args as given: a NumPy-int id equals and hashes like its
        # Python int, so both find one entry; only a list is made a tuple.
        ids = args[0]
        key = (op, ids if type(ids) is tuple else tuple(ids), *args[1:])
        token = self.collective_token()
        result = self._get(key, token)
        if result is not None:
            return result, True
        result = self._execute(key)
        self.cache.put(key, token, result)
        return result, False
