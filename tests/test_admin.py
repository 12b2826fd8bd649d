"""Unit tests for admin-side bookkeeping: ledger, genesis, pool, report."""

from __future__ import annotations

import json
import math
import random
import socket

import pytest

from chainsim.admin import (
    AdminServer,
    MinerConn,
    RegistrationLedger,
    SimulationConfig,
    create_genesis,
    create_tx_pool,
    emit_report,
    render_table,
    subseed_for,
    write_report,
)
from chainsim.blocks import Block, StructuralError
from chainsim.protocol import WireMessage, encode

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
    with pytest.raises(ValueError):
        config(tx_pool_size=-1)


@pytest.mark.parametrize("field", ["duration", "interval", "time_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_run_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        config(**{field: value})


def test_ledger_assigns_consecutive_ids():
    ledger = RegistrationLedger()
    for i, hp in enumerate(TABLE_POWERS):
        record = ledger.register(hp, ip="127.0.0.1", port=9000 + i)
        assert record.miner_id == i + 1
    assert [e.miner_id for e in ledger.entries] == list(range(1, 8))
    assert ledger.total_hashpower == pytest.approx(100.0)


def test_ledger_single_registrant():
    ledger = RegistrationLedger()
    ledger.register(30.0, ip="127.0.0.1", port=9000)
    assert ledger.total_hashpower == pytest.approx(30.0)
    assert ledger.entries[0].miner_id == 1


def test_ledger_rejects_duplicates_and_bad_hashpower():
    ledger = RegistrationLedger()
    ledger.register(5.0, ip="127.0.0.1", port=9000)
    with pytest.raises(ValueError):
        ledger.register(6.0, ip="127.0.0.1", port=9000)
    ledger.register(6.0, ip="127.0.0.1", port=9001)  # same ip, new port is fine
    with pytest.raises(ValueError):
        ledger.register(0.0, ip="127.0.0.1", port=9002)


def test_genesis_shape_and_stability():
    g = create_genesis()
    assert g.depth == 0
    assert g.parent_id is None
    assert g.miner_id == 0
    assert g.tx_ids == ()
    assert create_genesis() == g


def test_tx_pool_sizes_and_determinism():
    assert create_tx_pool(config(tx_pool_size=0), random.Random(1)) == []
    pool = create_tx_pool(config(tx_pool_size=1000), random.Random(1))
    assert len(pool) == 1000
    assert len({t.id for t in pool}) == 1000
    assert all(250 <= t.size_bytes <= 1000 for t in pool)
    assert all(0.0 <= t.fee < 1.0 for t in pool)
    again = create_tx_pool(config(tx_pool_size=1000), random.Random(1))
    assert again == pool


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


def test_report_single_miner_is_all_shares():
    ledger = RegistrationLedger()
    ledger.register(30.0, ip="x", port=1)
    report = emit_report(
        chain_of([1] * 10), ledger, config=config(num_miners=1), winner_id=1, discarded=False
    )
    row = report["miners"][0]
    assert row["hash_share_pct"] == pytest.approx(100.0)
    assert row["block_share_pct"] == pytest.approx(100.0)
    assert report["total_blocks"] == 10


def test_report_shares_sum_to_100():
    ledger = RegistrationLedger()
    for i, hp in enumerate(TABLE_POWERS):
        ledger.register(hp, ip="x", port=i)
    rng = random.Random(0)
    chain = chain_of([rng.randint(1, 7) for _ in range(117)])
    report = emit_report(chain, ledger, config=config(), winner_id=3, discarded=False)
    assert sum(m["block_share_pct"] for m in report["miners"]) == pytest.approx(100.0, abs=0.1)
    assert sum(m["hash_share_pct"] for m in report["miners"]) == pytest.approx(100.0, abs=0.1)
    assert report["total_blocks"] == 117


def test_report_rejects_unknown_miners():
    ledger = RegistrationLedger()
    ledger.register(10.0, ip="x", port=1)
    with pytest.raises(StructuralError):
        emit_report(chain_of([1, 9]), ledger, config=config(num_miners=1), winner_id=1, discarded=False)


def test_discarded_report_shape():
    ledger = RegistrationLedger()
    ledger.register(10.0, ip="x", port=1)
    report = emit_report(
        None, ledger, config=config(num_miners=1), winner_id=None, discarded=True, reason="placeholders"
    )
    assert report["discarded"] is True
    assert report["total_blocks"] == 0
    assert report["final_chain_ids"] is None
    assert "DISCARDED" in render_table(report)


def test_render_table_lists_every_miner():
    ledger = RegistrationLedger()
    for i, hp in enumerate(TABLE_POWERS):
        ledger.register(hp, ip="x", port=i)
    chain = chain_of([1 + i % 7 for i in range(75)])
    table = render_table(emit_report(chain, ledger, config=config(), winner_id=1, discarded=False))
    lines = table.splitlines()
    assert len(lines) == 1 + 7 + 1  # header, rows, totals
    assert "total blocks mined: 75" in lines[-1]


def test_write_report_round_trips(tmp_path):
    ledger = RegistrationLedger()
    ledger.register(10.0, ip="x", port=1)
    report = emit_report(chain_of([1, 1]), ledger, config=config(num_miners=1), winner_id=1, discarded=False)
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert json.loads(path.read_text()) == report


def admit(payload: dict) -> AdminServer:
    """Feed one REGISTER frame through the admin's admission over a socket pair."""
    server = AdminServer(config(num_miners=1), port=0)
    ours, theirs = socket.socketpair()
    try:
        ours.sendall(encode(WireMessage("REGISTER", payload)))
        assert server._admit(MinerConn(theirs, "127.0.0.1"))
    finally:
        ours.close()
        server.close()
    return server


def test_admit_takes_an_integral_hashpower():
    server = admit({"hashpower": 10, "port": 7000})
    assert [(e.hashpower, e.port) for e in server.ledger.entries] == [(10.0, 7000)]


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
    assert admit(payload).ledger.entries == []
