"""End-to-end socket tests: real admin, real miners, scripted edge cases."""

from __future__ import annotations

import logging
import random
import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from chainsim import cli
from chainsim.admin import (
    AdminServer,
    RegistrationTimeout,
    SimulationConfig,
    create_genesis,
)
from chainsim.blocks import Block, make_placeholder
from chainsim.miner import MinerNode, PeerLink
from chainsim.netio import BufferedConn
import chainsim.protocol as protocol
from chainsim.protocol import (
    FrameOverflow,
    MinerRecord,
    ProtocolError,
    WireMessage,
    block_to_payload,
    encode,
    msg_block,
    msg_chain,
    msg_chain_request,
    msg_consensus_result,
    msg_genesis,
    msg_last_block,
    msg_miner_info,
    msg_register,
    msg_sim_start,
    msg_tx_pool,
)
from chainsim.timing import DEFAULT_DELAY_RANGE

GENESIS = create_genesis()


def run_network(
    config: SimulationConfig,
    hashpowers: list[float],
    delay_range: tuple[float, float] = DEFAULT_DELAY_RANGE,
    **admin_kw,
) -> tuple[dict, list[dict]]:
    """One full in-process run: admin thread plus one thread per miner."""
    server = AdminServer(config, port=0, **admin_kw)
    with ThreadPoolExecutor(max_workers=config.num_miners + 1) as pool:
        admin_fut = pool.submit(server.run)
        miner_futs = [
            pool.submit(
                MinerNode(
                    "127.0.0.1",
                    server.port,
                    listen_port=0,
                    hashpower=hp,
                    delay_range=delay_range,
                ).run
            )
            for hp in hashpowers
        ]
        report = admin_fut.result(timeout=60)
        stats = [f.result(timeout=60) for f in miner_futs]
    return report, stats


class ScriptedMiner(threading.Thread):
    """Protocol-level fake miner for exercising admin edge cases."""

    def __init__(
        self,
        admin_port: int,
        listen_port: int,
        hashpower: float = 10.0,
        last_block: Block | None = None,
        chain: list[Block] | None = None,
        blocks_during_mining: tuple[Block, ...] = (),
        answer_chain_request: bool = True,
        last_block_payload: dict | None = None,
        peer_frames: tuple[bytes, ...] = (),
        chain_payload: dict | None = None,
        admin_frames: tuple[bytes, ...] = (),
        quit_after: str | None = None,
        send_last_block: bool = True,
    ):
        super().__init__(daemon=True)
        self.admin_port = admin_port
        self.listen_port = listen_port
        self.hashpower = hashpower
        self.last_block = last_block
        self.chain = chain
        self.blocks_during_mining = blocks_during_mining
        self.answer_chain_request = answer_chain_request
        self.last_block_payload = last_block_payload  # sent verbatim if given
        self.peer_frames = peer_frames  # raw frames, one connection each, to every peer
        self.chain_payload = chain_payload  # sent verbatim as CHAIN if given
        self.admin_frames = admin_frames  # raw bytes to the admin during mining
        self.quit_after = quit_after  # "register" or "bootstrap": close the admin connection
        self.send_last_block = send_last_block
        self.miner_id: int | None = None
        self.outcome: str | None = None
        self.got_chain_request = False
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            with socket.create_connection(("127.0.0.1", self.admin_port), timeout=5) as sock:
                self._script(sock, BufferedConn(sock))
        except Exception as exc:  # recorded for the test to assert on
            self.error = exc

    def _script(self, sock: socket.socket, conn: BufferedConn) -> None:
        conn.send(msg_register(self.listen_port, self.hashpower))
        ack = conn.next_message(10.0)
        self.miner_id = ack.payload["miner_id"]
        if self.quit_after == "register":
            return
        roster = conn.next_message(10.0).payload["miners"]
        for want in ("SIM_START", "GENESIS", "TX_POOL"):
            msg = conn.next_message(10.0)
            assert msg.type == want, f"expected {want}, got {msg.type}"
        if self.quit_after == "bootstrap":
            return
        for peer in roster:
            if peer["miner_id"] == self.miner_id:
                continue
            for frame in self.peer_frames:
                with socket.create_connection((peer["ip"], peer["port"]), timeout=5) as out:
                    out.sendall(frame)
        for blk in self.blocks_during_mining:
            conn.send(msg_block(blk))
        for raw in self.admin_frames:
            sock.sendall(raw)
        # no run to sit out: the tip goes to the admin at once
        if self.last_block_payload is not None:
            conn.send(WireMessage("LAST_BLOCK", self.last_block_payload))
        elif self.send_last_block:
            conn.send(msg_last_block(self.miner_id, self.last_block or GENESIS))
        while True:
            msg = conn.next_message(10.0)
            if msg.type == "CHAIN_REQUEST":
                self.got_chain_request = True
                if self.chain_payload is not None:
                    conn.send(WireMessage("CHAIN", self.chain_payload))
                elif self.answer_chain_request:
                    conn.send(msg_chain(self.miner_id, self.chain or [GENESIS]))
            elif msg.type in ("CONSENSUS_RESULT", "DISCARD"):
                self.outcome = msg.type
                break


def quick_config(n: int, **kw) -> SimulationConfig:
    base = dict(num_miners=n, duration=1.0, interval=12.42, seed=1, time_scale=100.0)
    base.update(kw)
    return SimulationConfig(**base)


def test_two_miners_agree_end_to_end():
    config = SimulationConfig(
        num_miners=2, duration=30.0, interval=2.0, seed=7, time_scale=200.0
    )
    report, stats = run_network(config, [10.0, 20.0])
    assert not report["discarded"]
    assert report["total_blocks"] > 0
    chains = {tuple(s["final_chain_ids"]) for s in stats}
    assert len(chains) == 1
    assert list(chains.pop()) == report["final_chain_ids"]
    acct = report["frame_accounting"]
    assert acct["block_frames_during_mining"] == 0
    assert acct["last_block_frames"] == 2
    assert acct["chain_frames"] == 1
    assert sum(m["block_share_pct"] for m in report["miners"]) == pytest.approx(100.0, abs=0.1)


def test_seven_miners_with_table_powers():
    powers = [17.0, 15.8, 12.9, 11.0, 6.6, 6.3, 30.4]
    config = SimulationConfig(
        num_miners=7, duration=60.0, interval=3.0, seed=11, time_scale=300.0
    )
    report, stats = run_network(config, powers)
    assert report["total_hashpower"] == pytest.approx(100.0)
    assert sorted(m["miner_id"] for m in report["miners"]) == list(range(1, 8))
    assert not report["discarded"]
    assert len({tuple(s["final_chain_ids"]) for s in stats}) == 1
    assert report["frame_accounting"]["last_block_frames"] == 7
    assert report["frame_accounting"]["chain_frames"] == 1
    assert report["frame_accounting"]["block_frames_during_mining"] == 0


def test_single_miner_throughput_across_seeds():
    totals = []
    for seed in range(20):
        config = SimulationConfig(
            num_miners=1, duration=100.0, interval=12.42, seed=seed, time_scale=500.0
        )
        report, stats = run_network(config, [15.0])
        assert not report["discarded"]
        assert report["miners"][0]["block_share_pct"] in (0.0, pytest.approx(100.0))
        assert stats[0]["tally"]["uncled"] == 0
        totals.append(report["total_blocks"])
    mean = sum(totals) / len(totals)
    expectation = 100.0 / 12.42
    assert expectation * 0.8 <= mean <= expectation * 1.2


def test_registration_timeout_when_miner_missing():
    server = AdminServer(quick_config(2), port=0, registration_timeout=0.6)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        scripted = ScriptedMiner(server.port, listen_port=7001)
        scripted.start()
        with pytest.raises(RegistrationTimeout):
            fut.result(timeout=10)
    scripted.join(timeout=5)
    assert scripted.error is not None  # connection died with the admin


def test_a_silent_or_half_sent_registrant_holds_up_no_one():
    timeout = 5.0
    server = AdminServer(quick_config(2), port=0, registration_timeout=timeout)
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=3) as pool:
        fut = pool.submit(server.run)
        silent = socket.create_connection(("127.0.0.1", server.port))
        half = socket.create_connection(("127.0.0.1", server.port))
        frame = encode(msg_register(7800, 10.0))
        half.sendall(frame[: len(frame) // 2])
        time.sleep(0.1)  # both are in the admin's queue before any real miner dials
        try:
            miners = [
                pool.submit(MinerNode("127.0.0.1", server.port, 0, hashpower=hp).run)
                for hp in (10.0, 20.0)
            ]
            stats = [f.result(timeout=30) for f in miners]
            report = fut.result(timeout=30)
            for sock in (silent, half):  # closed once registration was over
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
        finally:
            silent.close()
            half.close()
    assert time.monotonic() - started < timeout / 2
    assert not report["discarded"]
    assert sorted(s["miner_id"] for s in stats) == [1, 2]
    assert {m["port"] for m in report["miners"]} == {s["listen_port"] for s in stats}


def test_duplicate_registration_rejected():
    server = AdminServer(quick_config(2), port=0, registration_timeout=5.0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        first = ScriptedMiner(server.port, listen_port=7100)
        first.start()
        time.sleep(0.3)
        dup = ScriptedMiner(server.port, listen_port=7100)
        dup.start()
        dup.join(timeout=5)
        assert dup.error is not None  # admin closed the duplicate
        second = ScriptedMiner(server.port, listen_port=7101)
        second.start()
        report = fut.result(timeout=30)
        first.join(timeout=5)
        second.join(timeout=5)
    assert not report["discarded"]
    assert second.miner_id == 2
    assert report["total_blocks"] == 0  # nobody mined anything


def test_admin_ends_the_run_once_every_last_block_is_in():
    # a 30 wall-s run whose miners report their tips right after bootstrap
    config = quick_config(2, duration=3000.0)
    server = AdminServer(config, port=0)
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        miners = [ScriptedMiner(server.port, listen_port=port) for port in (7150, 7151)]
        for miner in miners:
            miner.start()
        report = fut.result(timeout=40)
        for miner in miners:
            miner.join(timeout=5)
    assert time.monotonic() - started < 5.0
    assert not report["discarded"]
    assert report["frame_accounting"]["last_block_frames"] == 2
    assert all(m.error is None and m.outcome == "CONSENSUS_RESULT" for m in miners)


def test_block_frames_to_admin_are_counted_as_violations():
    stray = Block(id="s1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.5)
    server = AdminServer(quick_config(1, duration=20.0), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        scripted = ScriptedMiner(server.port, listen_port=7200, blocks_during_mining=(stray,))
        scripted.start()
        report = fut.result(timeout=30)
        scripted.join(timeout=5)
    assert scripted.error is None
    assert report["frame_accounting"]["block_frames_during_mining"] == 1


def test_discard_when_winning_chain_has_placeholders():
    tip = Block(id="deep", parent_id="hole", depth=2, miner_id=1, blocktime=0.9)
    broken = [GENESIS, make_placeholder("hole", 1), tip]
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        bad = ScriptedMiner(server.port, listen_port=7300, last_block=tip, chain=broken)
        honest = ScriptedMiner(server.port, listen_port=7301)
        bad.start()
        honest.start()
        report = fut.result(timeout=30)
        bad.join(timeout=5)
        honest.join(timeout=5)
    assert report["discarded"] is True
    assert "placeholder" in report["reason"]
    assert bad.outcome == "DISCARD"
    assert honest.outcome == "DISCARD"
    assert bad.got_chain_request  # deepest tip won, then failed the check


def test_winner_chain_timeout_discards_run():
    tip = Block(id="t1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.5)
    server = AdminServer(quick_config(2), port=0, consensus_timeout=0.8)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        silent = ScriptedMiner(
            server.port, listen_port=7400, last_block=tip, answer_chain_request=False
        )
        honest = ScriptedMiner(server.port, listen_port=7401)
        silent.start()
        honest.start()
        report = fut.result(timeout=30)
        silent.join(timeout=5)
        honest.join(timeout=5)
    assert report["discarded"] is True
    assert "never sent its chain" in report["reason"]
    assert honest.outcome == "DISCARD"


def test_tie_broken_by_earliest_blocktime():
    early = Block(id="e1", parent_id=GENESIS.id, depth=1, miner_id=2, blocktime=0.3)
    late = Block(id="l1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.7)
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        slow = ScriptedMiner(server.port, listen_port=7500, last_block=late, chain=[GENESIS, late])
        slow.start()
        time.sleep(0.3)  # make sure the late-tip miner registers first (id 1)
        fast = ScriptedMiner(server.port, listen_port=7501, last_block=early, chain=[GENESIS, early])
        fast.start()
        report = fut.result(timeout=30)
        slow.join(timeout=5)
        fast.join(timeout=5)
    assert fast.got_chain_request and not slow.got_chain_request
    assert report["winner_id"] == fast.miner_id == 2
    assert report["final_chain_ids"] == [GENESIS.id, "e1"]


def test_last_block_is_keyed_by_connection_not_payload_id():
    tip = Block(id="t1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.5)
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        liar = ScriptedMiner(
            server.port,
            listen_port=7600,
            chain=[GENESIS, tip],
            last_block_payload={"miner_id": 99, "block": block_to_payload(tip)},
        )
        honest = ScriptedMiner(server.port, listen_port=7601)
        liar.start()
        honest.start()
        report = fut.result(timeout=30)
        liar.join(timeout=5)
        honest.join(timeout=5)
    assert liar.got_chain_request  # its real id won, not the claimed 99
    assert report["winner_id"] == liar.miner_id
    assert not report["discarded"]
    assert liar.outcome == honest.outcome == "CONSENSUS_RESULT"


@pytest.mark.parametrize(
    "payload",
    [
        {"miner_id": 1, "block": block_to_payload(make_placeholder("hole", 1))},
        {"miner_id": 1},
        {
            "miner_id": 1,
            "block": {**block_to_payload(GENESIS), "depth": 1, "blocktime": float("inf")},
        },
    ],
    ids=["placeholder-block", "no-block", "infinite-blocktime"],
)
def test_invalid_last_block_discards_run(payload):
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        bad = ScriptedMiner(server.port, listen_port=7700, last_block_payload=payload)
        honest = ScriptedMiner(server.port, listen_port=7701)
        bad.start()
        honest.start()
        report = fut.result(timeout=30)
        bad.join(timeout=5)
        honest.join(timeout=5)
    assert report["discarded"] is True
    assert "invalid LAST_BLOCK" in report["reason"]
    assert bad.outcome == honest.outcome == "DISCARD"


@pytest.mark.parametrize(
    "fault",
    [
        dict(quit_after="register"),
        dict(quit_after="bootstrap"),
        dict(admin_frames=(b"\x00\x00\x00\x05hello",)),  # framed, but not JSON
        dict(send_last_block=False),
    ],
    ids=["closes-before-bootstrap", "closes", "corrupt-frame", "silent"],
)
def test_dead_or_silent_miner_costs_only_its_run(fault):
    server = AdminServer(quick_config(2), port=0, consensus_timeout=0.8)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fut = pool.submit(server.run)
        bad = ScriptedMiner(server.port, listen_port=7710, **fault)
        bad.start()
        honest = pool.submit(
            MinerNode("127.0.0.1", server.port, listen_port=0, hashpower=10.0).run
        )
        report = fut.result(timeout=30)
        stats = honest.result(timeout=30)
        bad.join(timeout=5)
    assert report["discarded"] is True
    assert f"LAST_BLOCK from miner {bad.miner_id}" in report["reason"]
    assert stats["discarded"] and stats["reason"] == report["reason"]


def test_chain_payload_that_is_not_a_list_discards_run():
    tip = Block(id="t1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.5)
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        bad = ScriptedMiner(
            server.port, listen_port=7720, last_block=tip, chain_payload={"miner_id": 1, "blocks": 5}
        )
        honest = ScriptedMiner(server.port, listen_port=7721)
        bad.start()
        honest.start()
        report = fut.result(timeout=30)
        bad.join(timeout=5)
        honest.join(timeout=5)
    assert report["discarded"] is True
    assert "winning chain failed validation" in report["reason"]
    assert bad.outcome == honest.outcome == "DISCARD"


def test_huge_integral_blocktime_in_last_block_is_harmless():
    # ints are always finite, and the admin only compares blocktimes
    tip = Block(id="far", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=10**400)
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        far = ScriptedMiner(server.port, listen_port=7702, last_block=tip, chain=[GENESIS, tip])
        honest = ScriptedMiner(server.port, listen_port=7703)
        far.start()
        honest.start()
        report = fut.result(timeout=30)
        far.join(timeout=5)
        honest.join(timeout=5)
    assert far.error is None and honest.error is None
    assert not report["discarded"]
    assert report["winner_id"] == far.miner_id
    assert far.outcome == honest.outcome == "CONSENSUS_RESULT"


def test_junk_on_peer_ports_costs_only_that_connection(caplog):
    caplog.set_level(logging.WARNING, logger="chainsim.miner")
    malformed = b"\x00\x00\x00\x05hello"  # framed, but the body is not JSON
    config = SimulationConfig(
        num_miners=3, duration=60.0, interval=2.0, seed=3, time_scale=200.0
    )
    server = AdminServer(config, port=0)
    unlistened = refusing_port()  # the junk miner's registered port: every dial is refused
    with unlistened, ThreadPoolExecutor(max_workers=3) as pool:
        admin_fut = pool.submit(server.run)
        junk = ScriptedMiner(
            server.port,
            listen_port=unlistened.getsockname()[1],
            peer_frames=(encode(msg_chain_request()), malformed),
        )
        junk.start()
        miner_futs = [
            pool.submit(MinerNode("127.0.0.1", server.port, listen_port=0, hashpower=hp).run)
            for hp in (10.0, 20.0)
        ]
        report = admin_fut.result(timeout=60)
        stats = [f.result(timeout=60) for f in miner_futs]
        junk.join(timeout=5)
    assert junk.error is None
    assert not report["discarded"]
    assert report["total_blocks"] > 0
    for s in stats:
        assert s["final_chain_ids"] == report["final_chain_ids"]
    warnings = [r.getMessage() for r in caplog.records]
    assert any("CHAIN_REQUEST frame on a peer connection" in w for w in warnings)
    assert any("dropping peer connection" in w for w in warnings)
    # the dial to the junk miner fails once per honest miner, before mining;
    # the honest miners' blocks then skip it without a warning per frame
    no_link = [r for r in caplog.records if r.getMessage().startswith("no link to ")]
    assert len(no_link) == 2
    assert len({r.threadName for r in no_link}) == 2
    assert all(f"no link to miner {junk.miner_id} " in r.getMessage() for r in no_link)
    assert not any("dropping frame" in w for w in warnings)


def test_rule_breaking_blocks_cost_only_their_connection(caplog):
    caplog.set_level(logging.WARNING, logger="chainsim.miner")
    hole = make_placeholder("hole", 1)
    # depth 5 on genesis: a child of the tip at the wrong depth, or a branch
    # whose parent sits at the wrong depth once the tip has moved
    skewed = Block(id="skew", parent_id=GENESIS.id, depth=5, miner_id=1, blocktime=0.5)
    # valid by the chain rules, but far deeper than any run can reach: the
    # switch across its gap would pad the chain with 10^12 placeholders
    deep = Block(id="deep", parent_id="nowhere", depth=10**12, miner_id=1, blocktime=0.5)
    config = SimulationConfig(
        num_miners=3, duration=60.0, interval=2.0, seed=4, time_scale=200.0
    )
    server = AdminServer(config, port=0)
    with ThreadPoolExecutor(max_workers=3) as pool:
        admin_fut = pool.submit(server.run)
        forger = ScriptedMiner(
            server.port,
            listen_port=7900,
            peer_frames=tuple(encode(msg_block(b)) for b in (hole, skewed, deep)),
        )
        forger.start()
        miner_futs = [
            pool.submit(MinerNode("127.0.0.1", server.port, listen_port=0, hashpower=hp).run)
            for hp in (10.0, 20.0)
        ]
        report = admin_fut.result(timeout=60)
        stats = [f.result(timeout=60) for f in miner_futs]
        forger.join(timeout=5)
    assert forger.error is None
    assert not report["discarded"]
    assert report["total_blocks"] > 0
    for s in stats:
        assert s["final_chain_ids"] == report["final_chain_ids"]
        assert "skew" not in s["final_chain_ids"]
    warnings = [r.getMessage() for r in caplog.records]
    rejected = [w for w in warnings if "breaks the chain rules" in w]
    assert sum("block hole " in w for w in rejected) == 2  # one per honest miner
    assert sum("block skew " in w for w in rejected) == 2
    assert sum("block deep " in w for w in rejected) == 2


def test_delay_range_run_forks_and_agrees():
    # 0.5-1 sim-s of delay at a 2 s interval: blocks cross in flight often
    config = SimulationConfig(
        num_miners=3, duration=60.0, interval=2.0, seed=5, time_scale=200.0
    )
    report, stats = run_network(config, [10.0, 20.0, 30.0], delay_range=(0.5, 1.0))
    assert not report["discarded"]
    assert report["total_blocks"] > 0
    assert len({tuple(s["final_chain_ids"]) for s in stats}) == 1
    assert sum(s["tally"]["switches"] for s in stats) > 0
    acct = report["frame_accounting"]
    assert acct["last_block_frames"] == 3
    assert acct["chain_frames"] == 1
    assert acct["block_frames_during_mining"] == 0


def test_every_peer_is_dialed_once_before_mining(monkeypatch):
    mining = set()  # threads inside MinerNode._mine
    dials = []  # (address, dialed while mining)
    real_mine, real_dial = MinerNode._mine, socket.create_connection

    def mine(self, *args):
        mining.add(threading.get_ident())
        try:
            return real_mine(self, *args)
        finally:
            mining.discard(threading.get_ident())

    def dial(address, *args, **kw):
        dials.append((address, threading.get_ident() in mining))
        return real_dial(address, *args, **kw)

    monkeypatch.setattr(MinerNode, "_mine", mine)
    monkeypatch.setattr(socket, "create_connection", dial)
    config = SimulationConfig(
        num_miners=3, duration=60.0, interval=2.0, seed=6, time_scale=200.0
    )
    report, stats = run_network(config, [10.0, 20.0, 30.0])
    assert not report["discarded"]
    assert report["total_blocks"] > 0
    assert len({tuple(s["final_chain_ids"]) for s in stats}) == 1
    assert not any(while_mining for _, while_mining in dials)
    # each miner is dialed by its two peers, once each
    peer_ports = {m["port"] for m in report["miners"]}
    assert Counter(port for (_, port), _ in dials if port in peer_ports) == {
        port: 2 for port in peer_ports
    }


def test_a_partial_send_costs_the_link_for_the_rest_of_the_run(caplog):
    caplog.set_level(logging.WARNING, logger="chainsim.miner")
    with socket.create_server(("127.0.0.1", 0)) as peer:
        record = MinerRecord(2, 1.0, "127.0.0.1", peer.getsockname()[1])
        link = PeerLink(record, (0.0, 0.0), random.Random(1))
        link.submit(bytes(2**24), 0.0)  # more than the unread socket buffers hold
        link.flush(0.0)
        link.submit(b"later", 0.0)
        link.flush(0.0)
        link.close()
        peer.setblocking(False)
        peer.accept()[0].close()  # the dial made before mining
        with pytest.raises(BlockingIOError):
            peer.accept()  # and no redial after the failed send
    assert [r.getMessage() for r in caplog.records] == [
        "dropping frame and link to miner 2 for the rest of the run: send buffer full"
    ]
    assert not link.outbox


def test_peer_link_frames_wait_their_own_delay_and_may_overtake():
    with socket.create_server(("127.0.0.1", 0)) as peer:
        record = MinerRecord(2, 1.0, "127.0.0.1", peer.getsockname()[1])
        # a delay range of (1, 3) sim-s at time_scale 100: 10 to 30 wall-ms
        link = PeerLink(record, (1.0 / 100, 3.0 / 100), random.Random(7))
        frames = [i.to_bytes(2, "big") for i in range(50)]
        for frame in frames:
            link.submit(frame, 0.0)
        conn, _ = peer.accept()
        with conn:
            link.flush(0.0099)
            assert len(link.outbox) == 50
            link.flush(0.03)
            assert not link.outbox
            link.close()
            received = b""
            conn.settimeout(5.0)
            while chunk := conn.recv(4096):
                received += chunk
    got = [received[i : i + 2] for i in range(0, len(received), 2)]
    assert sorted(got) == frames
    assert got != frames  # later frames overtook earlier ones


def refusing_port() -> socket.socket:
    """A socket bound to a free local port but not listening: dials are refused."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def test_a_miner_whose_admin_is_not_listening_fails_at_once(capsys):
    # an admin listens before its miners are started, so the miner dials it once
    with refusing_port() as sock:
        args = cli.build_parser().parse_args(
            ["miner", "--admin", f"127.0.0.1:{sock.getsockname()[1]}", "--listen-port", "0",
             "--hashpower", "10"]
        )
        start = time.monotonic()
        status = cli.cmd_miner(args)
        waited = time.monotonic() - start
    assert status == 1
    assert capsys.readouterr().err.startswith("miner failed: ")
    assert waited < 1.0


class ScriptedAdmin(threading.Thread):
    """Protocol-level fake admin for one miner: sends every frame of a run at once.

    The bootstrap frames go out in one write as soon as the miner
    registers; the result goes out once the miner's LAST_BLOCK arrives.
    With no result, the admin hangs up right after the bootstrap.
    """

    def __init__(self, bootstrap: list[WireMessage], result: WireMessage | None):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.frames = b"".join(encode(m) for m in bootstrap)
        self.result = result
        self.last_block: WireMessage | None = None
        self.sent_at = self.last_block_at = 0.0  # monotonic: bootstrap sent, LAST_BLOCK in

    def run(self) -> None:
        self.listener.settimeout(10.0)
        try:
            sock, _ = self.listener.accept()
        finally:
            self.listener.close()
        conn = BufferedConn(sock)
        try:
            conn.next_message(10.0)  # REGISTER
            self.sent_at = time.monotonic()
            sock.sendall(self.frames)
            if self.result is None:
                return
            self.last_block = conn.next_message(10.0)
            self.last_block_at = time.monotonic()
            conn.send(self.result)
        except (OSError, ProtocolError):
            pass  # the miner gave up first
        finally:
            conn.close()


ADMIN_RUN = {
    "ack": msg_miner_info(1, [], 0.0),
    "roster": msg_miner_info(1, [MinerRecord(1, 10.0, "127.0.0.1", 9)], 10.0),
    "start": msg_sim_start(1.0, 12.42, 100.0, 5),
    "genesis": msg_genesis(GENESIS),
    "pool": msg_tx_pool([]),
    "result": msg_consensus_result(1, [GENESIS]),
}


def run_miner_cli(
    capsys, hang_up: bool = False, **replace: dict
) -> tuple[int, str, ScriptedAdmin]:
    """cli's miner command against a fake admin; replace maps an ADMIN_RUN
    frame's name to payload fields that overwrite its own, and hang_up has
    the admin close its connection right after the bootstrap."""
    frames = {
        name: WireMessage(msg.type, {**msg.payload, **replace.get(name, {})})
        for name, msg in ADMIN_RUN.items()
    }
    result = frames.pop("result")
    admin = ScriptedAdmin(list(frames.values()), None if hang_up else result)
    admin.start()
    args = cli.build_parser().parse_args(
        ["miner", "--admin", f"127.0.0.1:{admin.port}", "--listen-port", "0",
         "--hashpower", "10"]
    )
    status = cli.cmd_miner(args)
    admin.join(timeout=15)
    assert not admin.is_alive()
    return status, capsys.readouterr().err, admin


def test_miner_runs_to_consensus_against_the_scripted_admin(capsys):
    status, err, admin = run_miner_cli(capsys)
    assert status == 0, err
    assert admin.last_block.type == "LAST_BLOCK"


def test_miner_ends_the_run_on_its_own_clock(capsys):
    # a 0.5 wall-s run, and an admin that never calls time
    status, err, admin = run_miner_cli(capsys, start={"duration": 50.0})
    assert status == 0, err
    assert admin.last_block.type == "LAST_BLOCK"
    assert 0.5 <= admin.last_block_at - admin.sent_at <= 0.7


def test_a_dead_admin_ends_a_mining_miner_at_once(capsys):
    # the admin hangs up 30 wall-s before the run would end
    start = time.monotonic()
    status, err, _ = run_miner_cli(capsys, hang_up=True, start={"duration": 3000.0})
    assert time.monotonic() - start < 5.0
    assert status == 1
    assert err.startswith("miner failed: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "frame, fields",
    [
        ("ack", {"miner_id": "x"}),
        ("ack", {"miner_id": None}),
        ("roster", {"total_hashpower": [1]}),
        ("roster", {"total_hashpower": 10**400}),
        ("roster", {"miners": {"1": {}}}),
        ("roster", {"miners": [{"miner_id": 1, "hashpower": 10.0, "ip": "127.0.0.1"}]}),
        ("roster", {"miners": [{"miner_id": 2, "hashpower": 1.0, "ip": "h", "port": "9"}]}),
        ("roster", {"miners": [{"miner_id": 2, "hashpower": 1.0, "ip": "h", "port": 70000}]}),
        ("start", {"duration": "1.0"}),
        ("start", {"interval": 0}),
        ("start", {"time_scale": -1.0}),
        ("start", {"subseed": 1.5}),
        ("genesis", {"block": None}),
        ("pool", {"transactions": "abc"}),
        ("pool", {"transactions": [{"size_bytes": 1}]}),
        ("result", {"winner_id": "1"}),
        ("result", {"blocks": {"0": None}}),
    ],
)
def test_mistyped_admin_frame_ends_the_miner_cleanly(capsys, frame, fields):
    status, err, _ = run_miner_cli(capsys, **{frame: fields})
    assert status == 1
    assert err.startswith("miner failed: bad ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "frame, fields",
    [
        # a well-typed frame that still breaks the chain rules or the hashpower
        ("genesis", {"block": block_to_payload(make_placeholder("hole", 1))}),
        ("genesis", {"block": block_to_payload(Block("b1", GENESIS.id, 1, 2, 1.0))}),
        ("result", {"blocks": [block_to_payload(Block("b1", GENESIS.id, 1, 2, 1.0))]}),
        ("result", {"blocks": [block_to_payload(GENESIS), block_to_payload(make_placeholder("h", 1))]}),
        ("roster", {"total_hashpower": 5.0}),
    ],
)
def test_rule_breaking_admin_frame_ends_the_miner_cleanly(capsys, frame, fields):
    status, err, _ = run_miner_cli(capsys, **{frame: fields})
    assert status == 1
    assert err.startswith("miner failed: ")
    assert "Traceback" not in err


def test_over_cap_tx_pool_fails_before_the_admin_listens(monkeypatch, capsys):
    # the default 100-transaction pool is an 8477-byte TX_POOL frame
    monkeypatch.setattr(protocol, "MAX_FRAME", 3000)
    with pytest.raises(FrameOverflow):
        AdminServer(quick_config(1), port=0)
    args = cli.build_parser().parse_args(
        ["admin", "--port", "0", "--num-miners", "1", "--sim-time", "1",
         "--block-interval", "12.42", "--seed", "1"]
    )
    start = time.monotonic()
    assert cli.cmd_admin(args) == 1
    assert time.monotonic() - start < 5.0  # no wait for a registration
    err = capsys.readouterr().err
    assert err.startswith("admin failed: body of ") and "exceeds frame limit" in err
