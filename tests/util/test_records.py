"""Unit tests for wire records and size accounting."""

from repro.util.records import (
    ControlMessage,
    Message,
    MsgKind,
    UpdateBatch,
    UDP_HEADER_BYTES,
)


def test_base_message_wire_size_includes_headers():
    m = Message(MsgKind.ACK, 0, 1)
    assert m.wire_bytes() == UDP_HEADER_BYTES + 16


def test_update_batch_size_scales_with_updates():
    b0 = UpdateBatch(MsgKind.UPDATE, 0, 1)
    b2 = UpdateBatch(MsgKind.UPDATE, 0, 1, inserts=[(1, 2), (3, 4)])
    assert b2.wire_bytes() - b0.wire_bytes() == 2 * 13


def test_update_batch_counts_removes():
    b = UpdateBatch(MsgKind.UPDATE, 0, 1, inserts=[(1, 2)], removes=[(3, 4)])
    assert b.n_updates() == 2


def test_update_batch_representation_factor():
    b = UpdateBatch(MsgKind.UPDATE, 0, 1, inserts=[(1, 2)], n_represented=64)
    assert b.n_updates() == 64
    assert b.payload_bytes() == 13 * 64


def test_control_message_body_bytes():
    m = ControlMessage(MsgKind.CONTROL, 0, 3, op="start", body_bytes=256)
    assert m.payload_bytes() == 256
