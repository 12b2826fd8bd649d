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
from chainsim.mining import depth_limit
from chainsim.protocol import (
    LENGTH_PREFIX,
    MAX_FRAME,
    EmptyFrame,
    FrameOverflow,
    FrameReader,
    IncompleteFrame,
    MESSAGE_TYPES,
    ParseError,
    ProtocolError,
    UnknownMessage,
    WireMessage,
    block_from_payload,
    block_to_payload,
    chain_from_payload,
    consensus_result_from_payload,
    decode,
    encode,
    miner_info_from_payload,
    miner_record_from_payload,
    msg_chain,
    msg_chain_request,
    msg_discard,
    msg_miner_info,
    register_from_payload,
)
from wiregen import rand_block, random_message

START_AT = 1.8e9  # the Unix time these tests' SIM_START payloads start at
SLACK = 15.0  # as the miner's CONNECT_TIMEOUT


def sim_start_from_payload(obj: dict):
    """protocol's SIM_START parser, as a miner whose clock reads START_AT runs it."""
    return protocol.sim_start_from_payload(obj, START_AT, SLACK)


def test_frame_layout_matches_definition():
    frame = encode(msg_chain_request())
    length = struct.unpack(">I", frame[:4])[0]
    body = frame[4:]
    assert length == len(body)
    assert json.loads(body) == {"type": "CHAIN_REQUEST", "payload": {}}


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
        b'{"type":"CHAIN_REQUEST","payload":{"n":1' + b"0" * 5000 + b"}}",
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
    body = json.dumps({"type": "CHAIN_REQUEST"}).encode()
    with pytest.raises(ParseError):
        decode(struct.pack(">I", len(body)) + body)


def test_unknown_type_rejected():
    body = json.dumps({"type": "GOSSIP", "payload": {}}).encode()
    with pytest.raises(UnknownMessage):
        decode(struct.pack(">I", len(body)) + body)
    with pytest.raises(UnknownMessage):
        WireMessage("GOSSIP", {})


def test_sim_end_is_not_a_message_type():
    # each miner ends its run on its own clock; the admin never calls time
    body = json.dumps({"type": "SIM_END", "payload": {}}).encode()
    with pytest.raises(UnknownMessage):
        decode(struct.pack(">I", len(body)) + body)


def test_trailing_bytes_left_for_next_frame():
    first = encode(msg_chain_request())
    second = encode(msg_discard("late"))
    buf = first + second
    msg1, used1 = decode(buf)
    msg2, used2 = decode(buf[used1:])
    assert msg1.type == "CHAIN_REQUEST"
    assert msg2.type == "DISCARD"
    assert used1 + used2 == len(buf)


def test_empty_roster_miner_info_decodes_to_empty_list():
    frame = encode(msg_miner_info(3, [], 0.0))
    got, _ = decode(frame)
    assert got.payload["miners"] == []
    assert got.payload["miner_id"] == 3


def test_frame_overflow_guard(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME", 8)
    with pytest.raises(FrameOverflow):
        encode(msg_chain_request())


def test_over_cap_length_prefix_fails_before_the_body_arrives():
    over = LENGTH_PREFIX.pack(MAX_FRAME + 1)
    with pytest.raises(FrameOverflow):
        decode(over)  # the prefix alone is enough to refuse the frame
    reader = FrameReader()
    with pytest.raises(FrameOverflow):
        reader.feed(over + b'{"type"')
    assert reader.pending_bytes == len(over) + 7  # nothing more is waited for
    with pytest.raises(IncompleteFrame):
        decode(LENGTH_PREFIX.pack(MAX_FRAME))  # at the cap, the body is awaited


def test_longest_runs_chain_fits_the_frame_cap_with_room():
    # logical-deep's 150000 s at interval 12.42 is the longest run in the
    # repository
    chain = [Block(id="0" * 32, parent_id=None, depth=0, miner_id=0, blocktime=0.0)]
    for depth in range(1, depth_limit(150_000.0, 12.42) + 1):
        chain.append(
            Block(
                id=f"{depth:032x}",
                parent_id=chain[-1].id,
                depth=depth,
                miner_id=9999,
                blocktime=149_999.12345678901 - depth * 1e-3,
            )
        )
    body = len(encode(msg_chain(9999, chain))) - LENGTH_PREFIX.size
    assert 4 * body < MAX_FRAME


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
    one = encode(msg_chain_request())
    assert [m.type for m in reader.feed(one)] == ["CHAIN_REQUEST"]
    two = encode(msg_chain_request()) + encode(msg_discard("late"))
    assert [m.type for m in reader.feed(two)] == ["CHAIN_REQUEST", "DISCARD"]


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
    good = encode(msg_chain_request())
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
        Block(id="aa", parent_id="bb", depth=4, miner_id=2, blocktime=1.5)
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


def test_block_payload_ignores_fields_it_does_not_name():
    # a peer that still sends the retired tx_ids list is read as before
    block = Block(id="aa", parent_id="bb", depth=4, miner_id=2, blocktime=1.5)
    payload = {**block_to_payload(block), "tx_ids": ["t"], "extra": {"x": 1}}
    assert block_from_payload(payload) == block


def test_block_payload_takes_a_huge_integral_blocktime():
    # ints are always finite; only comparisons ever touch a received blocktime
    good = block_to_payload(Block(id="aa", parent_id="bb", depth=4, miner_id=2, blocktime=1.5))
    frame = encode(WireMessage("BLOCK", {"block": {**good, "blocktime": 10**400}}))
    msg, _ = decode(frame)
    assert block_from_payload(msg.payload["block"]).blocktime == 10**400


# fuzzing: whatever arrives, a reader or payload parser raises only ProtocolError

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 65536, 2**64, 10**400])
    | st.floats()
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# every field name some payload parser looks for, so objects reach the type checks
FIELD_NAMES = sorted(
    {
        *block_to_payload(make_placeholder("x", 1)),
        "miner_id", "hashpower", "ip", "port", "miners", "total_hashpower",
        "duration", "interval", "time_scale", "subseed",
        "winner_id", "blocks",
    }
)
FIELDS = st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES, max_size=8)
PAYLOADS = (
    JSON_VALUES
    | st.lists(FIELDS, max_size=3)  # a chain's blocks
    | st.dictionaries(  # a message payload, maybe holding a block or a roster
        st.sampled_from(FIELD_NAMES), JSON_VALUES | FIELDS | st.lists(FIELDS, max_size=3), max_size=8
    )
)


def framed(body: bytes) -> bytes:
    return LENGTH_PREFIX.pack(len(body)) + body


FRAMES = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(framed),
    JSON_VALUES.map(lambda v: framed(json.dumps(v).encode())),
    st.fixed_dictionaries(
        {"type": st.sampled_from(sorted(MESSAGE_TYPES)) | st.text(max_size=8), "payload": PAYLOADS}
    ).map(lambda v: framed(json.dumps(v).encode())),
)


@settings(max_examples=300, deadline=None)
@given(frame=FRAMES, tail=st.binary(max_size=8))
def test_decode_of_any_bytes_raises_only_protocol_errors(frame, tail):
    data = frame + tail
    try:
        msg, used = decode(data)
    except ProtocolError:
        return
    assert 0 < used <= len(data) and isinstance(msg.payload, dict)


PAYLOAD_PARSERS = [
    block_from_payload,
    chain_from_payload,
    miner_record_from_payload,
    register_from_payload,
    miner_info_from_payload,
    sim_start_from_payload,
    consensus_result_from_payload,
]


@settings(max_examples=250, deadline=None)
@given(payload=PAYLOADS)
def test_payload_parsers_raise_only_parse_errors(payload):
    for parse in PAYLOAD_PARSERS:
        try:
            parse(payload)
        except ParseError:
            pass


GOOD_RECORD = {"miner_id": 2, "hashpower": 1.5, "ip": "127.0.0.1", "port": 9000}
GOOD_ADMIN_PAYLOADS = {
    register_from_payload: {"hashpower": 12, "port": 9000},
    miner_record_from_payload: GOOD_RECORD,
    miner_info_from_payload: {"miner_id": 2, "miners": [GOOD_RECORD], "total_hashpower": 3.0},
    sim_start_from_payload: {
        "duration": 10, "interval": 1.5, "time_scale": 100.0, "subseed": 7, "start_at": START_AT
    },
    consensus_result_from_payload: {"winner_id": 2, "blocks": []},
}


@pytest.mark.parametrize(
    "parse, field, value",
    [
        (register_from_payload, "hashpower", True),
        (register_from_payload, "hashpower", 10**400),
        (register_from_payload, "port", 65536),
        (miner_record_from_payload, "miner_id", "2"),
        (miner_record_from_payload, "hashpower", 10**400),
        (miner_record_from_payload, "hashpower", float("nan")),
        (miner_record_from_payload, "ip", None),
        (miner_record_from_payload, "port", 0),
        (miner_record_from_payload, "port", True),
        (miner_info_from_payload, "miner_id", 2.0),
        (miner_info_from_payload, "miners", [{**GOOD_RECORD, "port": "9000"}]),
        (miner_info_from_payload, "total_hashpower", 10**400),
        (miner_info_from_payload, "total_hashpower", [1]),
        (sim_start_from_payload, "duration", 0),
        (sim_start_from_payload, "duration", 1e300),
        (sim_start_from_payload, "interval", 10**400),
        (sim_start_from_payload, "time_scale", float("inf")),
        (sim_start_from_payload, "subseed", False),
        (sim_start_from_payload, "start_at", float("nan")),
        (sim_start_from_payload, "start_at", float("-inf")),
        (sim_start_from_payload, "start_at", 10**400),
        (sim_start_from_payload, "start_at", "1.8e9"),
        (sim_start_from_payload, "start_at", START_AT + SLACK + 0.5),
        (sim_start_from_payload, "start_at", START_AT - SLACK - 0.5),
        (consensus_result_from_payload, "winner_id", None),
        (consensus_result_from_payload, "blocks", [None]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_admin_payloads_reject_one_bad_field(parse, field, value):
    good = GOOD_ADMIN_PAYLOADS[parse]
    parse(good)
    with pytest.raises(ParseError):
        parse({**good, field: value})
    with pytest.raises(ParseError):
        parse({name: v for name, v in good.items() if name != field})


def test_a_start_at_within_the_slack_is_taken_as_sent():
    good = GOOD_ADMIN_PAYLOADS[sim_start_from_payload]
    for start_at in (START_AT - SLACK, START_AT + SLACK, int(START_AT)):
        assert sim_start_from_payload({**good, "start_at": start_at})[4] == start_at


def test_admin_payload_parsers_take_what_the_admin_sends():
    rng = random.Random(8)
    for _ in range(200):
        msg = random_message(rng)
        if msg.type == "MINER_INFO":
            miner_id, roster, total = miner_info_from_payload(msg.payload)
            assert msg_miner_info(miner_id, roster, total) == msg
        elif msg.type == "SIM_START":
            # read at the instant it names: the admin's clock and the miner's agree
            now = msg.payload["start_at"]
            assert protocol.msg_sim_start(*protocol.sim_start_from_payload(msg.payload, now, 0.0)) == msg
        elif msg.type == "CONSENSUS_RESULT":
            assert protocol.msg_consensus_result(*consensus_result_from_payload(msg.payload)) == msg
