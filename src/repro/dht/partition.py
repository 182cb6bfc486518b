"""Zero-hop key partitioning with successor failover and elastic growth.

"A hash over the key determines the node and service daemon to which the
update is routed" (paper §3.3).  Every node evaluates the same pure function
locally, so routing needs no lookup hops and no coordination — the property
the paper calls *zero-hop*.  The update originator can therefore, in
principle, compute not just the node but the exact bucket an update will
touch (the paper's motivation for eventually using one-sided RDMA).

Failover keeps routing zero-hop: the partition carries an *alive view*
(the set of nodes currently believed up, maintained by the tracing
engine's failure detector), and a hash whose *primary* node is believed
dead walks clockwise to the next alive node ID — a deterministic
successor walk every node computes identically from the same view, so
re-homed routing still needs no lookups.  The primary
map itself never changes while membership is fixed; when a node rejoins,
its ranges route back to it.

Membership is *elastic* (docs/ELASTICITY.md): ``grown()`` builds the
grown ring a live join cuts over to, and the primary map is a pluggable
:data:`PLACEMENT_POLICIES` knob chosen at construction:

``mod``
    ``mix64(h ^ salt) % n`` — the original map.  O(1) per key and
    perfectly balanced, but growing n → n+1 remaps ~(n-1)/n of all
    keys: nearly everything moves on every resize.
``hd``
    A hyperdimensional-hashing-style similarity map (PAPERS.md
    "Hyperdimensional Hashing"): each node gets a pseudo-random
    signature, and a key homes on the node whose signature scores
    highest against the key (here the score is ``mix64(key ^ sig)``,
    i.e. rendezvous-style highest-random-weight as a 64-bit stand-in
    for the paper's hypervector similarity).  Growing n → n+m remaps
    exactly the keys the new nodes win: m/(n+m) in expectation, the
    information-theoretic minimum.

Every policy derives per-node state (signatures) from the node
ID alone, so a partition *grown* from n to n' is byte-identical to a
partition *constructed* at n' — the invariant the elastic-membership
property tests pin system answers against.
"""

from __future__ import annotations

import numpy as np

from repro.util.hashing import mix64, mix64_int

__all__ = ["Partition", "PLACEMENT_POLICIES", "entries_moved_fraction"]

# Domain separation: routing must not reuse the content hash directly, or
# each shard would hold a contiguous hash range and per-shard iteration
# order would correlate with content.
_ROUTE_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_ROUTE_SALT_INT = int(_ROUTE_SALT)      # scalar routing stays on Python ints
# Per-node identity salt (signatures) — distinct from the routing salt so
# node state never collides with key state.
_NODE_SALT = np.uint64(0x9E3779B97F4A7C15)

PLACEMENT_POLICIES = ("mod", "hd")


def _node_sigs(n_nodes: int) -> np.ndarray:
    """Deterministic 64-bit signature per node, a function of ID only."""
    ids = np.arange(1, n_nodes + 1, dtype=np.uint64)
    return mix64(ids * _NODE_SALT)


# -- placement policies (primary map; failure-oblivious) --------------------------


class _ModPlacer:
    """``mix64 % n`` — byte-compatible with the pre-elastic partition."""

    name = "mod"

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes

    def primary(self, content_hash: int) -> int:
        return mix64_int(int(content_hash) ^ _ROUTE_SALT_INT) % self.n_nodes

    def primaries(self, h: np.ndarray) -> np.ndarray:
        return (mix64(h ^ _ROUTE_SALT) % np.uint64(self.n_nodes)).astype(np.int64)


class _HDPlacer:
    """Hyperdimensional-style similarity placement (HRW score argmax)."""

    name = "hd"

    #: Keys scored per chunk — bounds the len(h) x n_nodes score matrix.
    _CHUNK = 1 << 15

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._sigs = _node_sigs(n_nodes)

    def primary(self, content_hash: int) -> int:
        key = mix64_int(int(content_hash) ^ _ROUTE_SALT_INT)
        return int(np.argmax(mix64(np.uint64(key) ^ self._sigs)))

    def primaries(self, h: np.ndarray) -> np.ndarray:
        keys = mix64(h ^ _ROUTE_SALT)
        out = np.empty(len(keys), dtype=np.int64)
        for lo in range(0, len(keys), self._CHUNK):
            block = keys[lo:lo + self._CHUNK]
            scores = mix64(block[:, None] ^ self._sigs[None, :])
            out[lo:lo + self._CHUNK] = np.argmax(scores, axis=1)
        return out


_PLACERS = {"mod": _ModPlacer, "hd": _HDPlacer}


def entries_moved_fraction(policy: str, n_from: int, n_to: int, *,
                           sample: int = 50_000, seed: int = 0) -> float:
    """Fraction of keys whose primary changes growing ``n_from → n_to``.

    The yardstick for the `ring.resize.entries_moved` bench: the
    theoretical minimum for n → n+m is m/(n+m) (only keys the new nodes
    take can move), while naive mod-N remaps ~(n-1)/n of everything.
    """
    if policy not in _PLACERS:
        raise ValueError(f"unknown placement policy {policy!r}")
    if not (1 <= n_from <= n_to):
        raise ValueError("need 1 <= n_from <= n_to")
    rng = np.random.default_rng(seed)
    h = rng.integers(0, 1 << 63, size=sample, dtype=np.uint64)
    before = _PLACERS[policy](n_from).primaries(h)
    after = _PLACERS[policy](n_to).primaries(h)
    return float(np.mean(before != after))


# -- the partition (placement policy x alive view) --------------------------------


class Partition:
    """Maps content hashes to home nodes for the current membership.

    The *primary* node of a hash is the failure-oblivious placement map;
    the *home* node is the primary unless it is marked dead in the alive
    view, in which case routing walks to the next alive successor on the
    node ring.  With every node alive (the default) home == primary.

    The successor walk is over node IDs, not token space: every dead
    node's range shifts to its numeric successor, which all nodes compute
    identically from the same view.  ``set_alive`` refuses to mark the
    last alive node dead, so every walk ends.

    ``policy`` selects the placement map (:data:`PLACEMENT_POLICIES`);
    the default ``mod`` is byte-identical to the fixed-membership
    partition this class grew out of.
    """

    def __init__(self, n_nodes: int, policy: str = "mod") -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if policy not in _PLACERS:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}")
        self.n_nodes = n_nodes
        self._alive = np.ones(n_nodes, dtype=bool)
        self._placer = _PLACERS[policy](n_nodes)

    @property
    def policy(self) -> str:
        return self._placer.name

    # -- membership --------------------------------------------------------------

    def grown(self, extra: int = 1) -> Partition:
        """A copy with ``extra`` more nodes (alive), same alive view for
        the existing nodes — the pending map during a live join."""
        if extra < 1:
            raise ValueError("extra must be >= 1")
        new = Partition(self.n_nodes + extra, policy=self.policy)
        new._alive[:self.n_nodes] = self._alive
        return new

    # -- alive view --------------------------------------------------------------

    def set_alive(self, node: int, alive: bool = True) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range (n={self.n_nodes})")
        if not alive and self._alive[node] and self.n_alive == 1:
            raise ValueError("cannot mark the last alive node dead")
        self._alive[node] = alive

    def is_alive(self, node: int) -> bool:
        return bool(self._alive[node])

    @property
    def n_alive(self) -> int:
        return int(self._alive.sum())

    def alive_nodes(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    # -- primary map (failure-oblivious) ------------------------------------------

    def primary_node(self, content_hash: int) -> int:
        """Primary home of one content hash, ignoring failures."""
        return self._placer.primary(content_hash)

    def primary_nodes(self, content_hashes: np.ndarray) -> np.ndarray:
        """Vectorized primary-node computation."""
        h = np.asarray(content_hashes, dtype=np.uint64)
        return self._placer.primaries(h)

    # -- home map (alive-view aware) ----------------------------------------------

    def home_node(self, content_hash: int) -> int:
        """Home node of one content hash under the current alive view:
        its primary, walked to a successor only when that is down."""
        node = self._placer.primary(content_hash)
        while not self._alive[node]:
            node = (node + 1) % self.n_nodes
        return node

    def home_nodes(self, content_hashes: np.ndarray) -> np.ndarray:
        """Vectorized home-node computation."""
        return self._walk(self.primary_nodes(content_hashes))

    def range_homes(self) -> np.ndarray:
        """Current home of each primary range (range r = hashes whose
        primary is node r); identity when everyone is alive."""
        return self._walk(np.arange(self.n_nodes, dtype=np.int64))

    def _walk(self, homes: np.ndarray) -> np.ndarray:
        """Walk each primary in ``homes`` (in place) to its first alive
        successor."""
        if self._alive.all():
            return homes
        dead = ~self._alive[homes]
        while dead.any():
            homes[dead] = (homes[dead] + 1) % self.n_nodes
            dead = ~self._alive[homes]
        return homes

    def group_by_home(self, content_hashes: np.ndarray) -> dict[int, np.ndarray]:
        """Indices of ``content_hashes`` grouped by destination node."""
        homes = self.home_nodes(content_hashes)
        order = np.argsort(homes, kind="stable")
        sorted_homes = homes[order]
        boundaries = np.flatnonzero(np.diff(sorted_homes)) + 1
        groups = np.split(order, boundaries)
        return {int(homes[g[0]]): g for g in groups if len(g)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Partition(n_nodes={self.n_nodes}, "
                f"policy={self.policy!r}, n_alive={self.n_alive})")
