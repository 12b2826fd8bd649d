"""Wire protocol: length-prefixed JSON frames and the typed message set.

Every frame is a 4-byte big-endian unsigned length N followed by N bytes
of UTF-8 JSON shaped {"type": <name>, "payload": {...}}. Frames are
self-delimiting, so any chunking of the byte stream reassembles into the
same message sequence. The full byte-level contract lives in protocol.md.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

from .blocks import Block
from .simulation import MAX_EXPECTED_BLOCKS

MESSAGE_TYPES = frozenset(
    {
        "REGISTER",
        "MINER_INFO",
        "SIM_START",
        "GENESIS",
        "BLOCK",
        "LAST_BLOCK",
        "CHAIN_REQUEST",
        "CHAIN",
        "CONSENSUS_RESULT",
        "DISCARD",
    }
)

LENGTH_PREFIX = struct.Struct(">I")
# Longest frame body accepted, and the most one connection ever buffers.
# A CHAIN of mining.depth_limit blocks is about 165 bytes per block: 4.0 MB
# (24221 blocks) for a 150000 s run at interval 12.42, the longest in this
# repository; 64 MiB holds sixteen times that.
MAX_FRAME = 2**26


class ProtocolError(ValueError):
    """Base for every framing or message-shape violation."""


class FrameOverflow(ProtocolError):
    """Frame body, declared or encoded, is longer than MAX_FRAME."""


class IncompleteFrame(ProtocolError):
    """Buffer ends before the frame does; feed more bytes and retry."""


class EmptyFrame(ProtocolError):
    """Length prefix of zero; no valid message is empty."""


class ParseError(ProtocolError):
    """Frame body is not the expected JSON shape."""


class UnknownMessage(ProtocolError):
    """Well-formed frame with a type outside the message set."""


@dataclass(frozen=True)
class WireMessage:
    type: str
    payload: dict

    def __post_init__(self) -> None:
        if self.type not in MESSAGE_TYPES:
            raise UnknownMessage(f"unknown message type {self.type!r}")


@dataclass(frozen=True)
class MinerRecord:
    """One roster entry: everything peers need to reach a miner."""

    miner_id: int
    hashpower: float
    ip: str
    port: int


def encode(msg: WireMessage) -> bytes:
    """Serialize a message to one frame. Inverse of decode."""
    body = json.dumps(
        {"type": msg.type, "payload": msg.payload},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameOverflow(f"body of {len(body)} bytes exceeds frame limit")
    return LENGTH_PREFIX.pack(len(body)) + body


def decode(data: bytes | bytearray, pos: int = 0) -> tuple[WireMessage, int]:
    """Parse the frame that starts at data[pos:].

    Returns the message and the offset where the frame ends (from pos 0,
    the bytes consumed); anything after the frame is left for the next
    call.
    """
    have = len(data) - pos
    if have < LENGTH_PREFIX.size:
        raise IncompleteFrame("length prefix not yet complete")
    (length,) = LENGTH_PREFIX.unpack_from(data, pos)
    if length == 0:
        raise EmptyFrame("zero-length frame")
    if length > MAX_FRAME:
        # refused on the prefix alone, before any of the body is buffered
        raise FrameOverflow(f"frame declares {length} bytes, over the {MAX_FRAME} cap")
    if have < LENGTH_PREFIX.size + length:
        raise IncompleteFrame(f"frame wants {length} bytes, have {have - 4}")
    start = pos + LENGTH_PREFIX.size
    end = start + length
    try:
        obj = json.loads(data[start:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal too
        # long to convert; RecursionError, arrays nested too deep to parse
        raise ParseError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ParseError("frame body must be an object with a string 'type'")
    if obj["type"] not in MESSAGE_TYPES:
        raise UnknownMessage(f"unknown message type {obj['type']!r}")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("'payload' must be an object")
    return WireMessage(obj["type"], payload), end


class FrameReader:
    """Incremental reassembler: feed arbitrary chunks, get whole messages."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[WireMessage]:
        """Every whole message the stream holds so far, in order.

        Frames are decoded in place and the buffer is compacted once, so
        a chunk of many frames costs time linear in its size. A frame
        that fails to decode raises with it left at the head of the
        buffer and every frame before it consumed.
        """
        buf = self._buf
        buf.extend(chunk)
        out: list[WireMessage] = []
        pos = 0
        try:
            while True:
                msg, pos = decode(buf, pos)
                out.append(msg)
        except IncompleteFrame:
            return out
        finally:
            del buf[:pos]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# payload codecs


def block_to_payload(block: Block) -> dict:
    return {
        "id": block.id,
        "parent_id": block.parent_id,
        "depth": block.depth,
        "miner_id": block.miner_id,
        "blocktime": block.blocktime,
        "is_empty": block.is_empty,
    }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    # ints are always finite; math.isfinite would overflow on a huge one
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_positive(value: object) -> bool:
    return _is_number(value) and value > 0


def _is_list(value: object) -> bool:
    return isinstance(value, list)


def _is_port(value: object) -> bool:
    return _is_int(value) and 0 < value < 65536


def _checked(obj: object, what: str, fields: dict) -> dict:
    """obj, once it is an object whose every named field passes its check.

    fields maps each required field to a check of the JSON value it must
    decode to; a non-object, a missing field or a failed check is a
    ParseError naming what was being parsed.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"bad {what}: not an object")
    for name, valid in fields.items():
        if name not in obj:
            raise ParseError(f"bad {what}: missing {name!r}")
        if not valid(obj[name]):
            kind = type(obj[name]).__name__
            raise ParseError(f"bad {what}: {name} is {kind}, not a valid value")
    return obj


def _as_float(value: int | float, what: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:  # an int too large for a float
        raise ParseError(f"bad {what}: {exc}") from exc


# JSON type each block payload field must decode to; bool is not a number here
_BLOCK_FIELD_TYPES = {
    "id": _is_str,
    "parent_id": lambda v: v is None or isinstance(v, str),
    "depth": _is_int,
    "miner_id": _is_int,
    "blocktime": _is_number,
    "is_empty": lambda v: isinstance(v, bool),
}


def block_from_payload(obj: dict) -> Block:
    _checked(obj, "block payload", _BLOCK_FIELD_TYPES)
    try:
        return Block(
            id=obj["id"],
            parent_id=obj["parent_id"],
            depth=obj["depth"],
            miner_id=obj["miner_id"],
            blocktime=obj["blocktime"],
            is_empty=obj["is_empty"],
        )
    except ValueError as exc:
        raise ParseError(f"bad block payload: {exc}") from exc


def miner_record_to_payload(rec: MinerRecord) -> dict:
    return {
        "miner_id": rec.miner_id,
        "hashpower": rec.hashpower,
        "ip": rec.ip,
        "port": rec.port,
    }


_RECORD_FIELD_TYPES = {
    "miner_id": _is_int,
    "hashpower": _is_number,
    "ip": _is_str,
    "port": _is_port,
}


def miner_record_from_payload(obj: dict) -> MinerRecord:
    _checked(obj, "miner record", _RECORD_FIELD_TYPES)
    return MinerRecord(
        miner_id=obj["miner_id"],
        hashpower=_as_float(obj["hashpower"], "miner record"),
        ip=obj["ip"],
        port=obj["port"],
    )


def register_from_payload(obj: dict) -> tuple[float, int]:
    """Type-checked (hashpower, port) of a REGISTER; the admin's admission checks the hashpower."""
    _checked(obj, "REGISTER", {"hashpower": _is_number, "port": _is_port})
    return _as_float(obj["hashpower"], "REGISTER"), obj["port"]


# message constructors


def msg_register(port: int, hashpower: float) -> WireMessage:
    return WireMessage("REGISTER", {"port": port, "hashpower": hashpower})


def msg_miner_info(
    miner_id: int, miners: list[MinerRecord], total_hashpower: float
) -> WireMessage:
    return WireMessage(
        "MINER_INFO",
        {
            "miner_id": miner_id,
            "miners": [miner_record_to_payload(m) for m in miners],
            "total_hashpower": total_hashpower,
        },
    )


def msg_sim_start(
    duration: float, interval: float, time_scale: float, subseed: int, start_at: float
) -> WireMessage:
    return WireMessage(
        "SIM_START",
        {
            "duration": duration,
            "interval": interval,
            "time_scale": time_scale,
            "subseed": subseed,
            "start_at": start_at,
        },
    )


def msg_genesis(block: Block) -> WireMessage:
    return WireMessage("GENESIS", {"block": block_to_payload(block)})


def msg_block(block: Block) -> WireMessage:
    return WireMessage("BLOCK", {"block": block_to_payload(block)})


def msg_last_block(miner_id: int, block: Block) -> WireMessage:
    return WireMessage(
        "LAST_BLOCK", {"miner_id": miner_id, "block": block_to_payload(block)}
    )


def msg_chain_request() -> WireMessage:
    return WireMessage("CHAIN_REQUEST", {})


def msg_chain(miner_id: int, blocks: list[Block]) -> WireMessage:
    return WireMessage(
        "CHAIN", {"miner_id": miner_id, "blocks": [block_to_payload(b) for b in blocks]}
    )


def msg_consensus_result(winner_id: int, blocks: list[Block]) -> WireMessage:
    return WireMessage(
        "CONSENSUS_RESULT",
        {"winner_id": winner_id, "blocks": [block_to_payload(b) for b in blocks]},
    )


def msg_discard(reason: str) -> WireMessage:
    return WireMessage("DISCARD", {"reason": reason})


def chain_from_payload(objs: list[dict]) -> list[Block]:
    if not isinstance(objs, list):
        raise ParseError(f"bad chain payload: blocks is {type(objs).__name__}")
    return [block_from_payload(o) for o in objs]


# payloads a miner reads from the admin, type-checked like REGISTER


def miner_info_from_payload(obj: dict) -> tuple[int, list[MinerRecord], float]:
    """(miner_id, roster, total_hashpower) of a MINER_INFO, the ack or the roster."""
    fields = {"miner_id": _is_int, "miners": _is_list, "total_hashpower": _is_number}
    _checked(obj, "MINER_INFO", fields)
    roster = [miner_record_from_payload(o) for o in obj["miners"]]
    return obj["miner_id"], roster, _as_float(obj["total_hashpower"], "MINER_INFO")


def sim_start_from_payload(
    obj: dict, now: float, slack: float
) -> tuple[float, float, float, int, float]:
    """(duration, interval, time_scale, subseed, start_at) of a SIM_START.

    duration, interval and time_scale are positive, and duration / interval
    is at most the blocks a run may expect, as a SimulationConfig demands.
    start_at, the admin's Unix time for sim-time 0, is finite and at most
    slack seconds from now, the receiver's Unix time: the admin takes it
    just before it sends the bootstrap, so one further off is not this
    run's clock.
    """
    positive = ("duration", "interval", "time_scale")
    fields = {**dict.fromkeys(positive, _is_positive), "subseed": _is_int, "start_at": _is_number}
    _checked(obj, "SIM_START", fields)
    duration, interval, time_scale = (_as_float(obj[name], "SIM_START") for name in positive)
    if not duration / interval <= MAX_EXPECTED_BLOCKS:
        raise ParseError(
            f"bad SIM_START: duration {duration} at interval {interval} expects more than "
            f"{MAX_EXPECTED_BLOCKS:g} blocks"
        )
    start_at = _as_float(obj["start_at"], "SIM_START")
    if not abs(start_at - now) <= slack:
        raise ParseError(
            f"bad SIM_START: start_at {start_at} is {start_at - now:+.3f} s from this "
            f"host's clock, more than {slack:g} s"
        )
    return duration, interval, time_scale, obj["subseed"], start_at


def consensus_result_from_payload(obj: dict) -> tuple[int, list[Block]]:
    """(winner_id, chain) of a CONSENSUS_RESULT; the chain's shape is not checked here."""
    _checked(obj, "CONSENSUS_RESULT", {"winner_id": _is_int, "blocks": _is_list})
    return obj["winner_id"], chain_from_payload(obj["blocks"])
