"""Wire-format records and size accounting.

ConCORD uses two communication classes (paper §3.4): unreliable peer-to-peer
datagrams (the bulk: DHT updates, hash exchanges) and reliable, acknowledged
1-to-n control messages (command start/synchronization).  The simulator
moves Python objects, but every message carries a *wire size* so that
network-load figures (Fig 7, the ~15 MB/node null-command traffic) are driven
by realistic byte counts.

Sizes follow the C structs a real implementation would use: 8-byte content
hashes, 4-byte entity/node IDs, small fixed headers.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "MsgKind",
    "Message",
    "UpdateBatch",
    "ControlMessage",
    "UDP_HEADER_BYTES",
    "HASH_BYTES",
    "ENTITY_ID_BYTES",
]

UDP_HEADER_BYTES = 42  # Ethernet + IP + UDP headers
HASH_BYTES = 8
ENTITY_ID_BYTES = 4
MSG_HEADER_BYTES = 16  # ConCORD message header: type, seq, len, src


class MsgKind(enum.Enum):
    UPDATE = "update"
    CONTROL = "control"
    HASH_EXCHANGE = "hash_exchange"
    ACK = "ack"


@dataclass
class Message:
    """Base class: every simulated message knows its wire size.

    ``one_sided`` marks RDMA-style transfers (paper §3.4: "the originator
    could send the update via a non-blocking, asynchronous, unreliable
    RDMA"): the receiver's CPU is not involved, so delivery is limited by
    wire bandwidth rather than per-packet processing.
    """

    kind: MsgKind
    src_node: int
    dst_node: int
    one_sided: bool = False

    def payload_bytes(self) -> int:
        return 0

    def wire_bytes(self) -> int:
        return UDP_HEADER_BYTES + MSG_HEADER_BYTES + self.payload_bytes()


@dataclass
class UpdateBatch(Message):
    """A batch of DHT updates (insert/remove of (hash, entity) pairs).

    Monitors batch updates destined for the same home node into one
    datagram; ``n_represented`` scales counts when one simulated block
    stands for R real blocks (see DESIGN.md coarse-graining).

    ``inserts``/``removes`` hold ``(hash, entity)`` rows — the tracing
    engine stores slices of its ``(n, 2)`` ``uint64`` update arrays; size
    accounting only takes their ``len()``.
    """

    inserts: Sequence = ()
    removes: Sequence = ()
    n_represented: int = 1

    def n_updates(self) -> int:
        return (len(self.inserts) + len(self.removes)) * self.n_represented

    def payload_bytes(self) -> int:
        per = HASH_BYTES + ENTITY_ID_BYTES + 1  # hash, entity, op flag
        return per * self.n_updates()


@dataclass
class ControlMessage(Message):
    """Reliable control-plane message (command start, barrier, teardown)."""

    op: str = ""
    body: Any = None
    body_bytes: int = 64

    def payload_bytes(self) -> int:
        return self.body_bytes
