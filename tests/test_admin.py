"""Unit tests for the admin's admission, and for a run's inputs and report."""

from __future__ import annotations

import contextlib
import json
import math
import random
import socket

import pytest

from chainsim.admin import AdminServer, MinerConn
from chainsim.blocks import Block, StructuralError
from chainsim.netio import BufferedConn
from chainsim.protocol import MinerRecord, WireMessage, encode, miner_info_from_payload
from chainsim.simulation import (
    SimulationConfig,
    create_genesis,
    emit_report,
    render_table,
    subseed_for,
    write_report,
)

TABLE_POWERS = [17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4]


def config(**kw) -> SimulationConfig:
    base = dict(num_miners=7, duration=1000.0, interval=12.42, seed=42)
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    config()
    with pytest.raises(ValueError):
        config(num_miners=0)
    with pytest.raises(ValueError):
        config(duration=0.0)
    with pytest.raises(ValueError):
        config(interval=-1.0)
    with pytest.raises(ValueError):
        config(time_scale=0.0)
    config(duration=1e12, interval=1.0)
    with pytest.raises(ValueError, match=r"expects 1\.1e\+12 blocks, over the 1e\+12"):
        config(duration=1.1e12, interval=1.0)


@pytest.mark.parametrize("field", ["duration", "interval", "time_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_run_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        config(**{field: value})


@contextlib.contextmanager
def registrants(*payloads: dict):
    """An admin that has read one REGISTER frame per payload through its
    admission, each from its own socket pair; yields it and the pairs' other ends."""
    server = AdminServer(config(num_miners=len(payloads)), port=0)
    ends: list[BufferedConn] = []
    try:
        for payload in payloads:
            ours, theirs = socket.socketpair()
            ends.append(BufferedConn(ours))
            ours.sendall(encode(WireMessage("REGISTER", payload)))
            assert server._admit(MinerConn(theirs, "127.0.0.1"))
        yield server, ends
    finally:
        for end in ends:
            end.close()
        server.close()


def admitted(server: AdminServer) -> list[MinerRecord]:
    return [conn.record for conn in server._conns]


def roster_sent_to(end: BufferedConn) -> tuple[int, list[MinerRecord], float]:
    """The (id, roster, total hashpower) the admin's bootstrap sent after the ack."""
    ack_id, _, _ = miner_info_from_payload(end.next_message(5.0).payload)
    my_id, records, total = miner_info_from_payload(end.next_message(5.0).payload)
    assert ack_id == my_id
    return my_id, records, total


def test_admit_assigns_consecutive_ids():
    payloads = [{"hashpower": hp, "port": 9000 + i} for i, hp in enumerate(TABLE_POWERS)]
    with registrants(*payloads) as (server, ends):
        assert [r.miner_id for r in admitted(server)] == list(range(1, 8))
        server._bootstrap()
        for i, end in enumerate(ends):
            my_id, records, total = roster_sent_to(end)
            assert my_id == i + 1
            assert records == admitted(server)
            assert total == pytest.approx(100.0)


def test_admit_single_registrant():
    with registrants({"hashpower": 30.0, "port": 9000}) as (server, [end]):
        server._bootstrap()
        my_id, records, total = roster_sent_to(end)
    assert my_id == 1
    assert records == [MinerRecord(miner_id=1, hashpower=30.0, ip="127.0.0.1", port=9000)]
    assert total == pytest.approx(30.0)


def test_admit_rejects_duplicates_and_bad_hashpower():
    with registrants(
        {"hashpower": 5.0, "port": 9000},
        {"hashpower": 6.0, "port": 9000},  # the same (ip, port) again
        {"hashpower": 6.0, "port": 9001},  # same ip, new port is fine
        {"hashpower": 0.0, "port": 9002},
        {"hashpower": -1.0, "port": 9003},
    ) as (server, _):
        assert [(r.miner_id, r.hashpower, r.port) for r in admitted(server)] == [
            (1, 5.0, 9000),
            (2, 6.0, 9001),
        ]


def test_genesis_shape_and_stability():
    g = create_genesis()
    assert g.depth == 0
    assert g.parent_id is None
    assert g.miner_id == 0
    assert create_genesis() == g


def test_subseeds_are_distinct_per_miner():
    seeds = {subseed_for(42, mid) for mid in range(1, 8)}
    assert len(seeds) == 7


def chain_of(miner_ids: list[int]) -> list[Block]:
    chain = [create_genesis()]
    for i, mid in enumerate(miner_ids, start=1):
        chain.append(
            Block(
                id=f"b{i}",
                parent_id=chain[-1].id,
                depth=i,
                miner_id=mid,
                blocktime=float(i),
            )
        )
    return chain


def heads(powers: list[float]) -> list[dict]:
    """Report row heads as the logical engine makes them."""
    return [{"miner_id": i + 1, "slot": i, "hashpower": hp} for i, hp in enumerate(powers)]


def test_report_single_miner_is_all_shares():
    report = emit_report(chain_of([1] * 10), heads([30.0]), config(num_miners=1), winner_id=1)
    row = report["miners"][0]
    assert row["hash_share_pct"] == pytest.approx(100.0)
    assert row["block_share_pct"] == pytest.approx(100.0)
    assert report["total_blocks"] == 10


def test_report_shares_sum_to_100():
    rng = random.Random(0)
    chain = chain_of([rng.randint(1, 7) for _ in range(117)])
    report = emit_report(chain, heads(TABLE_POWERS), config=config(), winner_id=3)
    assert sum(m["block_share_pct"] for m in report["miners"]) == pytest.approx(100.0, abs=0.1)
    assert sum(m["hash_share_pct"] for m in report["miners"]) == pytest.approx(100.0, abs=0.1)
    assert report["total_blocks"] == 117


def test_report_rejects_unknown_miners():
    with pytest.raises(StructuralError):
        emit_report(chain_of([1, 9]), heads([10.0]), config=config(num_miners=1), winner_id=1)


def test_discarded_report_shape():
    report = emit_report(
        None, heads([10.0]), config=config(num_miners=1), winner_id=None, reason="placeholders"
    )
    assert report["discarded"] is True
    assert report["total_blocks"] == 0
    assert report["final_chain_ids"] is None
    assert "DISCARDED" in render_table(report)


def test_render_table_lists_every_miner():
    chain = chain_of([1 + i % 7 for i in range(75)])
    table = render_table(emit_report(chain, heads(TABLE_POWERS), config=config(), winner_id=1))
    lines = table.splitlines()
    assert len(lines) == 1 + 7 + 1  # header, rows, totals
    assert "total blocks mined: 75" in lines[-1]


def test_write_report_round_trips(tmp_path):
    report = emit_report(chain_of([1, 1]), heads([10.0]), config=config(num_miners=1), winner_id=1)
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert json.loads(path.read_text()) == report


def test_admit_takes_an_integral_hashpower():
    with registrants({"hashpower": 10, "port": 7000}) as (server, _):
        assert [(r.hashpower, r.port) for r in admitted(server)] == [(10.0, 7000)]


@pytest.mark.parametrize(
    "payload",
    [
        {"hashpower": float("nan"), "port": 7000},
        {"hashpower": float("inf"), "port": 7000},
        {"hashpower": [1], "port": 7000},
        {"hashpower": True, "port": 7000},
        {"hashpower": "10", "port": 7000},
        {"hashpower": 10**400, "port": 7000},
        {"hashpower": 10.0, "port": "7000"},
        {"hashpower": 10.0, "port": 7000.0},
        {"hashpower": 10.0, "port": 70000},
    ],
    ids=["nan", "inf", "list", "bool", "str", "huge-int", "port-str", "port-float", "port-range"],
)
def test_admit_rejects_mistyped_registrations(payload):
    with registrants(payload) as (server, _):
        assert admitted(server) == []
