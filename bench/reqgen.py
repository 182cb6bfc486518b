"""Request-stream generation: the benchmark owns its inputs.

Every serve workload's full request sequence — op, args, QoS class,
client, and for the open loop the arrival instants — is drawn here with
NumPy from the workload seed *before* the timed region and handed to the
program as plain Python values.  ``repro.workloads.traffic.TrafficDriver``
is deliberately not used: it draws one RNG call chain per request inside
the timed path (O(population) per draw), and any change to its call order
would change the stream and break sim-metric comparison across commits.

The stream's :attr:`RequestStream.digest` is a SHA-256 over the drawn
arrays, so "same seed, same inputs" is checkable without running anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.serve.request import QoSClass

__all__ = ["Mix", "RequestStream", "draw_stream", "NODEWISE", "COLLECTIVE",
           "COLLECTIVE_K"]

NODEWISE = ("num_copies", "entities")
COLLECTIVE = ("sharing", "degree_of_sharing", "num_shared_content")
#: k of the k-parameterized collective op.
COLLECTIVE_K = 2


@dataclass(frozen=True)
class Mix:
    """The traffic properties the program's behaviour depends on."""

    n_keys: int                 # key population (vs the 65 536-entry cache)
    zipf_s: float               # popularity skew; 0 = uniform
    nodewise_frac: float        # node-wise share of the op mix
    entities_frac: float = 0.25  # "entities" share within node-wise
    batch_frac: float = 0.10    # QoSClass.BATCH share
    n_groups: int = 16          # distinct entity groups for collectives
    group_size: int = 3


@dataclass
class RequestStream:
    """One pre-drawn request sequence, as the values ``submit`` takes."""

    ops: list[str]
    args: list[tuple]
    qos: list[QoSClass]
    client: list[int]
    node: list[int]             # issuing node = client % n_nodes
    due: list[float] | None     # open loop: arrival offsets in sim seconds
    digest: str

    def __len__(self) -> int:
        return len(self.ops)


def _key_population(rng: np.random.Generator, hashes: np.ndarray,
                    n_keys: int) -> np.ndarray:
    """``n_keys`` content hashes: a sample of the tracked ones, padded with
    absent hashes (whose answers — 0 copies, no holders — are cacheable
    too) when the population is larger than the content."""
    if n_keys <= len(hashes):
        pick = np.sort(rng.choice(len(hashes), size=n_keys, replace=False))
        return hashes[pick]
    absent = rng.integers(1, 1 << 62, size=n_keys - len(hashes),
                          dtype=np.uint64)
    return np.concatenate([hashes, absent])


def _entity_groups(rng: np.random.Generator, eids: list[int],
                   mix: Mix) -> np.ndarray:
    """``n_groups`` entity groups, as many of them distinct as exist.

    Independent draws would repeat a group in ~40 % of seeds (8 groups out
    of 56 combinations), and a repeated group means fewer distinct
    collective queries to execute — a different workload, not a different
    sample of the same one.
    """
    combos = np.asarray(list(combinations(
        eids, min(mix.group_size, len(eids)))), dtype=np.int64)
    order = rng.permutation(len(combos))
    return combos[np.resize(order, mix.n_groups)]


def draw_stream(seed_seq, n: int, mix: Mix, hashes: np.ndarray,
                entity_ids: list[int], n_clients: int, n_nodes: int,
                rate: float | None = None) -> RequestStream:
    """Draw ``n`` requests.

    Closed loop (``rate`` None): client ``c`` owns the contiguous slice
    ``[c * n / n_clients, (c + 1) * n / n_clients)`` and works through it
    one request at a time.  Open loop: each request gets a uniformly drawn
    client and a Poisson arrival instant at the aggregate ``rate``.
    """
    rng = np.random.default_rng(seed_seq)
    hashes = np.sort(np.asarray(hashes, dtype=np.uint64))
    keys = _key_population(rng, hashes, mix.n_keys)
    if mix.zipf_s > 0:
        w = 1.0 / np.arange(1, len(keys) + 1, dtype=np.float64) ** mix.zipf_s
        key_idx = rng.choice(len(keys), size=n, p=w / w.sum())
    else:
        key_idx = rng.integers(len(keys), size=n)
    groups = _entity_groups(rng, sorted(entity_ids), mix)
    nodewise = rng.random(n) < mix.nodewise_frac
    entities = rng.random(n) < mix.entities_frac
    batch = rng.random(n) < mix.batch_frac
    coll_op = rng.integers(len(COLLECTIVE), size=n)
    group_idx = rng.integers(mix.n_groups, size=n)
    if rate is None:
        if n % n_clients:
            raise ValueError("closed-loop request count must divide evenly "
                             "among the clients")
        client = np.repeat(np.arange(n_clients, dtype=np.int64),
                           n // n_clients)
        due = None
    else:
        client = rng.integers(n_clients, size=n)
        due = np.cumsum(rng.exponential(1.0 / rate, size=n))

    # 0/1 node-wise, 2.. collective: the op code the digest covers.
    op_code = np.where(nodewise, entities.astype(np.int64), 2 + coll_op)
    h = hashlib.sha256()
    for arr in (keys, groups, op_code, np.where(nodewise, key_idx, group_idx),
                batch, client) + ((due,) if due is not None else ()):
        h.update(np.ascontiguousarray(arr).tobytes())

    # Materialize as the exact values QueryFrontend.submit takes.
    key_args = [(k,) for k in keys.tolist()]
    group_tuples = [tuple(g) for g in groups.tolist()]
    names = NODEWISE + COLLECTIVE
    coll_args = [[(g,), (g,), (g, COLLECTIVE_K)] for g in group_tuples]
    ops = [names[c] for c in op_code.tolist()]
    args = [key_args[k] if nw else coll_args[g][c]
            for nw, k, g, c in zip(nodewise.tolist(), key_idx.tolist(),
                                   group_idx.tolist(), coll_op.tolist())]
    qos = [QoSClass.BATCH if b else QoSClass.INTERACTIVE
           for b in batch.tolist()]
    clients = client.tolist()
    return RequestStream(
        ops=ops, args=args, qos=qos, client=clients,
        node=[c % n_nodes for c in clients],
        due=due.tolist() if due is not None else None,
        digest=h.hexdigest())
