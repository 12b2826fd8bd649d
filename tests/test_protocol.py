"""Tests for frame encoding, decoding, and stream reassembly."""

from __future__ import annotations

import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainsim.protocol as protocol
from chainsim.blocks import Block, make_placeholder
from chainsim.protocol import (
    EmptyFrame,
    FrameOverflow,
    FrameReader,
    IncompleteFrame,
    MESSAGE_TYPES,
    ParseError,
    UnknownMessage,
    WireMessage,
    block_from_payload,
    block_to_payload,
    decode,
    encode,
    msg_miner_info,
    msg_sim_end,
    tx_from_payload,
    tx_to_payload,
)
from wiregen import rand_block, rand_tx, random_message


def test_frame_layout_matches_definition():
    frame = encode(msg_sim_end())
    length = struct.unpack(">I", frame[:4])[0]
    body = frame[4:]
    assert length == len(body)
    assert json.loads(body) == {"type": "SIM_END", "payload": {}}


def test_round_trip_identity_randomized():
    rng = random.Random(31337)
    for _ in range(1_000):
        msg = random_message(rng)
        frame = encode(msg)
        got, used = decode(frame)
        assert got == msg
        assert used == len(frame)


def test_all_types_covered_by_generator():
    rng = random.Random(2)
    seen = {random_message(rng).type for _ in range(500)}
    assert seen == MESSAGE_TYPES


def test_truncated_frame_is_incomplete_not_crash():
    frame = struct.pack(">I", 100) + b"x" * 40
    with pytest.raises(IncompleteFrame):
        decode(frame)
    with pytest.raises(IncompleteFrame):
        decode(b"\x00\x00")  # even the prefix is short


def test_zero_length_frame_rejected():
    with pytest.raises(EmptyFrame):
        decode(struct.pack(">I", 0) + b"extra")


def test_malformed_json_rejected():
    body = b"{not json"
    with pytest.raises(ParseError):
        decode(struct.pack(">I", len(body)) + body)


@pytest.mark.parametrize(
    "body",
    [
        b'{"type":"SIM_END","payload":{"n":1' + b"0" * 5000 + b"}}",
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["integer-too-long-to-convert", "nested-too-deep"],
)
def test_unparsable_json_values_rejected(body):
    with pytest.raises(ParseError):
        decode(struct.pack(">I", len(body)) + body)


def test_non_object_body_rejected():
    body = json.dumps([1, 2, 3]).encode()
    with pytest.raises(ParseError):
        decode(struct.pack(">I", len(body)) + body)


def test_missing_payload_rejected():
    body = json.dumps({"type": "SIM_END"}).encode()
    with pytest.raises(ParseError):
        decode(struct.pack(">I", len(body)) + body)


def test_unknown_type_rejected():
    body = json.dumps({"type": "GOSSIP", "payload": {}}).encode()
    with pytest.raises(UnknownMessage):
        decode(struct.pack(">I", len(body)) + body)
    with pytest.raises(UnknownMessage):
        WireMessage("GOSSIP", {})


def test_trailing_bytes_left_for_next_frame():
    first = encode(msg_sim_end())
    second = encode(protocol.msg_chain_request())
    buf = first + second
    msg1, used1 = decode(buf)
    msg2, used2 = decode(buf[used1:])
    assert msg1.type == "SIM_END"
    assert msg2.type == "CHAIN_REQUEST"
    assert used1 + used2 == len(buf)


def test_empty_roster_miner_info_decodes_to_empty_list():
    frame = encode(msg_miner_info(3, [], 0.0))
    got, _ = decode(frame)
    assert got.payload["miners"] == []
    assert got.payload["miner_id"] == 3


def test_frame_overflow_guard(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME", 8)
    with pytest.raises(FrameOverflow):
        encode(msg_sim_end())


def test_reader_reassembles_arbitrary_chunking():
    rng = random.Random(99)
    for _ in range(50):
        msgs = [random_message(rng) for _ in range(rng.randint(1, 10))]
        stream = b"".join(encode(m) for m in msgs)
        reader = FrameReader()
        got = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, 17)
            got.extend(reader.feed(stream[i : i + step]))
            i += step
        assert got == msgs
        assert reader.pending_bytes == 0


def test_reader_single_and_double_frames():
    reader = FrameReader()
    one = encode(msg_sim_end())
    assert [m.type for m in reader.feed(one)] == ["SIM_END"]
    two = encode(msg_sim_end()) + encode(protocol.msg_chain_request())
    assert [m.type for m in reader.feed(two)] == ["SIM_END", "CHAIN_REQUEST"]


def decode_whole(stream: bytes) -> list[WireMessage]:
    """Decode a stream frame by frame with decode alone."""
    msgs, pos = [], 0
    while pos < len(stream):
        msg, used = decode(stream[pos:])
        msgs.append(msg)
        pos += used
    return msgs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reader_any_chunking_matches_decoding_in_one_piece(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    msgs = [random_message(rng) for _ in range(data.draw(st.integers(1, 12), label="n"))]
    stream = b"".join(encode(m) for m in msgs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=40), label="cuts"))
    reader = FrameReader()
    got = []
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        got.extend(reader.feed(stream[lo:hi]))
    assert got == decode_whole(stream) == msgs
    assert reader.pending_bytes == 0


def test_reader_takes_thousands_of_coalesced_frames_in_one_chunk():
    rng = random.Random(4000)
    msgs = [random_message(rng) for _ in range(4000)]
    reader = FrameReader()
    assert reader.feed(b"".join(encode(m) for m in msgs)) == msgs
    assert reader.pending_bytes == 0


def test_reader_error_leaves_the_bad_frame_at_the_head():
    good = encode(msg_sim_end())
    bad = struct.pack(">I", 3) + b"{x}"
    reader = FrameReader()
    with pytest.raises(ParseError):
        reader.feed(good + good + bad + good)
    assert reader.pending_bytes == len(bad + good)  # both good frames were consumed


def test_block_payload_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        blk = rand_block(rng)
        assert block_from_payload(block_to_payload(blk)) == blk
    genesis = Block(id="aa", parent_id=None, depth=0, miner_id=0, blocktime=0.0)
    assert block_from_payload(block_to_payload(genesis)) == genesis
    hole = make_placeholder("bb", 4)
    assert block_from_payload(block_to_payload(hole)) == hole


def test_block_payload_rejects_garbage():
    with pytest.raises(ParseError):
        block_from_payload({"id": "x"})
    with pytest.raises(ParseError):
        block_from_payload({**block_to_payload(make_placeholder("bb", 4)), "depth": 0})


@pytest.mark.parametrize(
    "field, value",
    [
        ("tx_ids", "abc"),
        ("tx_ids", ["a", 1]),
        ("tx_ids", None),
        ("is_empty", 0),
        ("is_empty", "false"),
        ("depth", True),
        ("depth", 4.0),
        ("depth", "4"),
        ("miner_id", False),
        ("miner_id", 2.5),
        ("blocktime", "1.5"),
        ("blocktime", True),
        ("blocktime", None),
        ("blocktime", float("nan")),
        ("blocktime", float("inf")),
        ("id", 7),
        ("parent_id", 7),
    ],
)
def test_block_payload_rejects_wrong_types(field, value):
    good = block_to_payload(
        Block(id="aa", parent_id="bb", depth=4, miner_id=2, blocktime=1.5, tx_ids=("t",))
    )
    assert block_from_payload(good).depth == 4
    with pytest.raises(ParseError):
        block_from_payload({**good, field: value})


def test_block_payload_rejects_non_objects():
    for bad in (None, [], "block", 3):
        with pytest.raises(ParseError):
            block_from_payload(bad)


def test_block_payload_takes_an_integral_blocktime():
    payload = {**block_to_payload(make_placeholder("bb", 4)), "blocktime": 0}
    assert block_from_payload(payload) == make_placeholder("bb", 4)


def test_block_payload_takes_a_huge_integral_blocktime():
    # ints are always finite; only comparisons ever touch a received blocktime
    good = block_to_payload(
        Block(id="aa", parent_id="bb", depth=4, miner_id=2, blocktime=1.5, tx_ids=("t",))
    )
    frame = encode(WireMessage("BLOCK", {"block": {**good, "blocktime": 10**400}}))
    msg, _ = decode(frame)
    assert block_from_payload(msg.payload["block"]).blocktime == 10**400


def test_tx_payload_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        tx = rand_tx(rng)
        assert tx_from_payload(tx_to_payload(tx)) == tx
