"""End-to-end socket tests: real admin, real miners, scripted edge cases."""

from __future__ import annotations

import logging
import random
import select
import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from chainsim import cli
from chainsim.admin import AdminServer, MinerConn, RegistrationTimeout
from chainsim.blocks import Block, make_placeholder
from chainsim.miner import MinerNode, PeerLink
from chainsim.netio import BufferedConn, ConnectionClosed, LazyConn
import chainsim.admin as admin
import chainsim.miner
import chainsim.netio as netio
from chainsim.protocol import (
    MinerRecord,
    ProtocolError,
    WireMessage,
    block_from_payload,
    block_to_payload,
    consensus_result_from_payload,
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
)
from chainsim.simulation import SimulationConfig, create_genesis
from chainsim.timing import DEFAULT_DELAY_RANGE, HashpowerProfile, block_rate, compute_block_time

GENESIS = create_genesis()


def run_network(
    config: SimulationConfig,
    hashpowers: list[float],
    delay_range: tuple[float, float] = DEFAULT_DELAY_RANGE,
) -> tuple[dict, list[dict]]:
    """One full in-process run: admin thread plus one thread per miner."""
    server = AdminServer(config, port=0)
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
        peer_delay: float = 0.0,
        peer_stream: tuple[bytes, ...] = (),
        stream_pause: float = 0.0,
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
        self.peer_delay = peer_delay  # wall seconds after bootstrap before any peer frame
        # frames to every peer over one connection, sent as a miner sends its own
        # blocks, stream_pause wall seconds apart
        self.peer_stream = peer_stream
        self.stream_pause = stream_pause
        self.stream_cut = False  # a peer's socket could not take a whole streamed frame
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
        for want in ("SIM_START", "GENESIS"):
            msg = conn.next_message(10.0)
            assert msg.type == want, f"expected {want}, got {msg.type}"
        if self.quit_after == "bootstrap":
            return
        time.sleep(self.peer_delay)
        for peer in roster:
            if peer["miner_id"] == self.miner_id:
                continue
            for frame in self.peer_frames:
                with socket.create_connection((peer["ip"], peer["port"]), timeout=5) as out:
                    out.sendall(frame)
            if self.peer_stream:
                self._stream((peer["ip"], peer["port"]))
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

    def _stream(self, address: tuple[str, int]) -> None:
        """peer_stream to one peer as PeerLink sends: without blocking, so a
        frame the socket cannot take whole cuts the stream. The send buffer
        is pinned at 16 KiB, so a long stream lasts only while the receiver
        reads."""
        with socket.socket() as out:
            out.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            out.settimeout(5)
            out.connect(address)
            out.setblocking(False)
            for frame in self.peer_stream:
                try:
                    sent = out.send(frame)
                except BlockingIOError:
                    sent = 0
                if sent < len(frame):
                    self.stream_cut = True
                    return
                time.sleep(self.stream_pause)


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


def test_the_consensus_result_is_encoded_once_for_every_miner(monkeypatch):
    encoded = Counter()

    def counting(msg):
        encoded[msg.type] += 1
        return encode(msg)

    # every name the admin's frames are encoded through, in the admin and its connections
    monkeypatch.setattr(admin, "encode", counting)
    monkeypatch.setattr(netio, "encode", counting)
    config = SimulationConfig(num_miners=3, duration=30.0, interval=2.0, seed=8, time_scale=200.0)
    report, stats = run_network(config, [10.0, 20.0, 30.0])
    assert not report["discarded"]
    assert [s["discarded"] for s in stats] == [False] * 3  # each miner got the result
    assert encoded["CONSENSUS_RESULT"] == 1


def test_a_multi_megabyte_result_reaches_a_miner_that_reads_late():
    # a long run's result: over 6 MiB, more than loopback's socket buffers hold
    chain = [GENESIS]
    while len(chain) <= 42_000:
        depth = len(chain)
        chain.append(
            Block(
                id=f"{depth:032x}",
                parent_id=chain[-1].id,
                depth=depth,
                miner_id=1,
                blocktime=float(depth),
            )
        )
    result = msg_consensus_result(1, chain)
    assert len(encode(result)) > 6 * 2**20
    server = AdminServer(quick_config(1), port=0)
    miner = BufferedConn(socket.create_connection(("127.0.0.1", server.port)))
    try:
        sock, addr = server._listener.accept()
        conn = MinerConn(sock, addr[0])
        conn.record = MinerRecord(miner_id=1, hashpower=10.0, ip=addr[0], port=7000)
        server._conns.append(conn)
        miner.send(msg_last_block(1, chain[-1]))
        assert list(server._mining_wait()) == [conn]  # the admin has read the connection

        def broadcast_and_close() -> None:
            server._broadcast(result)
            server.close()  # as run() does once the result is out

        sender = threading.Thread(target=broadcast_and_close)
        sender.start()
        time.sleep(0.5)  # the miner reads only once the socket buffers are full
        got = miner.next_message(30.0)
        sender.join(timeout=30)
    finally:
        miner.close()
        server.close()
    assert got.type == "CONSENSUS_RESULT"
    assert consensus_result_from_payload(got.payload) == (1, chain)


def test_reading_a_connection_leaves_its_socket_mode_alone():
    ours, theirs = socket.socketpair()
    conn = BufferedConn(theirs)
    mode = theirs.gettimeout()
    try:
        ours.sendall(encode(msg_chain_request()))
        assert conn.next_message(5.0).type == "CHAIN_REQUEST"
        assert theirs.gettimeout() == mode
        ours.sendall(encode(msg_chain_request()))
        assert select.select([conn], [], [], 5.0)[0] == [conn]
        conn.pump()
        assert theirs.gettimeout() == mode
        assert [msg.type for msg in conn.inbox] == ["CHAIN_REQUEST"]
        assert mode == netio.IO_TIMEOUT  # blocking, so no send is ever cut short
    finally:
        ours.close()
        conn.close()


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


def test_registration_timeout_when_miner_missing(monkeypatch):
    monkeypatch.setattr(admin, "REGISTRATION_TIMEOUT", 0.6)
    server = AdminServer(quick_config(2), port=0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(server.run)
        scripted = ScriptedMiner(server.port, listen_port=7001)
        scripted.start()
        with pytest.raises(RegistrationTimeout):
            fut.result(timeout=10)
    scripted.join(timeout=5)
    assert scripted.error is not None  # connection died with the admin


def test_a_silent_or_half_sent_registrant_holds_up_no_one(monkeypatch):
    timeout = 5.0
    monkeypatch.setattr(admin, "REGISTRATION_TIMEOUT", timeout)
    server = AdminServer(quick_config(2), port=0)
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


def test_duplicate_registration_rejected(monkeypatch):
    monkeypatch.setattr(admin, "REGISTRATION_TIMEOUT", 5.0)
    server = AdminServer(quick_config(2), port=0)
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


def test_winner_chain_timeout_discards_run(monkeypatch):
    tip = Block(id="t1", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.5)
    monkeypatch.setattr(admin, "CONSENSUS_TIMEOUT", 0.8)
    server = AdminServer(quick_config(2), port=0)
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
def test_dead_or_silent_miner_costs_only_its_run(fault, monkeypatch):
    monkeypatch.setattr(admin, "CONSENSUS_TIMEOUT", 0.8)
    server = AdminServer(quick_config(2), port=0)
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


def test_a_link_sends_each_frame_at_once_with_nagle_off():
    # with Nagle on, a second own frame sent before the first is ACKed could
    # wait for the peer's delayed ACK: 40 ms, 4 sim-s at time_scale 100
    with socket.create_server(("127.0.0.1", 0)) as peer:
        link = PeerLink(MinerRecord(2, 1.0, "127.0.0.1", peer.getsockname()[1]))
        try:
            assert link._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            link.close()
            peer.accept()[0].close()


def test_a_partial_send_costs_the_link_for_the_rest_of_the_run(caplog):
    caplog.set_level(logging.WARNING, logger="chainsim.miner")
    with socket.create_server(("127.0.0.1", 0)) as peer:
        record = MinerRecord(2, 1.0, "127.0.0.1", peer.getsockname()[1])
        link = PeerLink(record)
        link.send(bytes(2**24))  # more than the unread socket buffers hold
        link.send(b"later")
        link.close()
        peer.setblocking(False)
        peer.accept()[0].close()  # the dial made before mining
        with pytest.raises(BlockingIOError):
            peer.accept()  # and no redial after the failed send
    assert [r.getMessage() for r in caplog.records] == [
        "dropping frame and link to miner 2 for the rest of the run: send buffer full"
    ]


def test_a_peer_that_closed_its_end_costs_its_link_without_a_warning(caplog):
    # The scripted peer ends at once, like a peer whose own clock ran out
    # first: it takes the honest miner's dial and closes it. The next
    # sends to it fail with a broken pipe or a reset, which is expected at
    # the end of a run and so is logged once at INFO, not as a fault.
    caplog.set_level(logging.INFO, logger="chainsim.miner")
    config = SimulationConfig(num_miners=2, duration=30.0, interval=1.0, seed=6, time_scale=100.0)
    server = AdminServer(config, port=0)
    inbound = socket.create_server(("127.0.0.1", 0))
    inbound.settimeout(30.0)
    with inbound, ThreadPoolExecutor(max_workers=2) as pool:
        admin_fut = pool.submit(server.run)
        gone = ScriptedMiner(server.port, listen_port=inbound.getsockname()[1], hashpower=1.0)
        gone.start()
        honest = pool.submit(
            MinerNode("127.0.0.1", server.port, listen_port=0, hashpower=29.0).run
        )
        inbound.accept()[0].close()  # the dial made before mining
        report = admin_fut.result(timeout=60)
        stats = honest.result(timeout=60)
        gone.join(timeout=5)
    assert gone.error is None and gone.outcome == "CONSENSUS_RESULT"
    assert not report["discarded"]
    assert stats["winner_id"] == stats["miner_id"]
    assert stats["final_chain_ids"] == report["final_chain_ids"]
    assert stats["tally"]["created"] > 1  # sends after the close: one fails, the rest are skipped
    assert [r.levelname for r in caplog.records] == ["INFO"]
    assert caplog.records[0].getMessage().startswith(
        f"miner {gone.miner_id} closed its end; no more frames to it this run: "
    )


def test_a_block_is_not_applied_before_its_delay_has_passed():
    # The scripted peer sends a valid depth-1 block of blocktime 0.01 just
    # after bootstrap, which the receiver reads at its first own block, at
    # r, 2.07 sim-s on average. The receiver holds it until its blocktime
    # plus 30, 30.01, and mines alone meanwhile: 29 of 30 hashpower at
    # interval 2, one own block per 2.07 sim-s on average. So its chain is
    # deeper when the block comes due, which then can only be an uncle:
    # P(no own block in 30 sim-s) = exp(-30 / 2.07) < 1e-6. With no delay
    # it would be applied in the step at r, before the own block is built,
    # and appended.
    early = Block(id="early", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.01)
    config = SimulationConfig(num_miners=2, duration=40.0, interval=2.0, seed=8, time_scale=20.0)
    server = AdminServer(config, port=0)
    unlistened = refusing_port()
    with unlistened, ThreadPoolExecutor(max_workers=2) as pool:
        admin_fut = pool.submit(server.run)
        sender = ScriptedMiner(
            server.port,
            listen_port=unlistened.getsockname()[1],
            hashpower=1.0,
            peer_frames=(encode(msg_block(early)),),
        )
        sender.start()
        honest = pool.submit(
            MinerNode(
                "127.0.0.1", server.port, listen_port=0, hashpower=29.0, delay_range=(30.0, 30.0)
            ).run
        )
        report = admin_fut.result(timeout=60)
        stats = honest.result(timeout=60)
        sender.join(timeout=5)
    assert sender.error is None
    assert not report["discarded"]
    assert stats["tally"]["appended_received"] == 0
    assert stats["tally"]["uncled"] == 1
    assert "early" not in stats["final_chain_ids"]
    assert stats["final_chain_len"] > 1


def chain_frames(miner_id: int, n: int, spacing: float) -> tuple[bytes, ...]:
    """BLOCK frames of a valid chain of n blocks on the genesis, blocktimes spacing apart."""
    frames, parent = [], GENESIS
    for depth in range(1, n + 1):
        parent = Block(f"{miner_id:04x}{depth:028x}", parent.id, depth, miner_id, spacing * depth)
        frames.append(encode(msg_block(parent)))
    return tuple(frames)


def run_against_scripted_peer(
    config: SimulationConfig, hashpower: float, scripted_hashpower: float, **script
) -> tuple[dict, dict, ScriptedMiner]:
    """One honest MinerNode against a ScriptedMiner that no dial reaches.

    The scripted miner registers first, so it is miner 1.
    """
    server = AdminServer(config, port=0)
    unlistened = refusing_port()
    with unlistened, ThreadPoolExecutor(max_workers=2) as pool:
        admin_fut = pool.submit(server.run)
        scripted = ScriptedMiner(
            server.port,
            listen_port=unlistened.getsockname()[1],
            hashpower=scripted_hashpower,
            **script,
        )
        scripted.start()
        deadline = time.monotonic() + 10.0
        while scripted.miner_id is None and time.monotonic() < deadline:
            time.sleep(0.01)
        honest = pool.submit(MinerNode("127.0.0.1", server.port, 0, hashpower=hashpower).run)
        report = admin_fut.result(timeout=60)
        stats = honest.result(timeout=60)
        scripted.join(timeout=30)
    assert scripted.error is None
    return report, stats, scripted


def test_a_miner_steps_only_at_its_own_blocks_and_at_the_end(monkeypatch):
    # The peer sends a frame every 0.1 wall-s (2 sim-s), between the honest
    # miner's own blocks. None of them reaches the low-water mark, so none
    # wakes the miner: it reads them all at its own steps, and still applies
    # every one.
    steps = Counter()
    real_step = chainsim.miner.step

    def counted(ctx, *args, **kw):
        steps[ctx.miner_id] += 1
        return real_step(ctx, *args, **kw)

    monkeypatch.setattr(chainsim.miner, "step", counted)
    config = SimulationConfig(num_miners=2, duration=40.0, interval=2.0, seed=9, time_scale=20.0)
    report, stats, scripted = run_against_scripted_peer(
        config, 29.0, 1.0, peer_stream=chain_frames(1, 15, 0.1), stream_pause=0.1
    )
    assert not report["discarded"] and not scripted.stream_cut
    tally = stats["tally"]
    assert tally["created"] > 5
    assert steps == {stats["miner_id"]: steps[stats["miner_id"]]}
    assert steps[stats["miner_id"]] <= tally["created"] + 1
    assert tally["appended_received"] + tally["uncled"] + tally["switches"] == 15


def test_a_quiet_miner_drains_a_long_stream_before_its_buffer_fills(caplog):
    # The honest miner's next own block is far off (a mean interval of
    # 5e5 sim-s), so only the low-water mark wakes it. The peer streams 2000
    # frames, about 370 KB: far more than twice the mark, and twice what an
    # unread link holds behind the stream's 16 KiB send buffer (about 180 KB
    # on loopback), so a miner that did not read at the mark would cut it.
    caplog.set_level(logging.WARNING, logger="chainsim.miner")
    n = 2000
    frames = chain_frames(1, n, 0.26)  # due in depth order, all before the end
    assert sum(map(len, frames)) > 2 * 180_000 > 2 * netio.LOW_WATER
    config = SimulationConfig(num_miners=2, duration=600.0, interval=0.5, seed=10, time_scale=150.0)
    report, stats, scripted = run_against_scripted_peer(
        config, 1.0, 1e6, peer_delay=0.2, peer_stream=frames, stream_pause=0.0005
    )
    assert not scripted.stream_cut
    assert not report["discarded"]
    assert stats["tally"] == {"created": 0, "appended_received": n, "uncled": 0, "switches": 0}
    assert stats["final_chain_len"] == n
    assert stats["late_frames"] == 0
    assert not [r for r in caplog.records if "dropping" in r.getMessage()]


def test_a_block_read_after_the_step_it_was_due_for_is_a_late_frame():
    # The peer waits 1 wall-s (20 sim-s) before it sends a block of blocktime
    # 0.01, due by 0.31. By then the honest miner (29 of 30 hashpower at
    # interval 2) has stepped at its own blocks well after 0.31, so the step
    # that applies the block comes after one it was due for.
    old = Block(id="old", parent_id=GENESIS.id, depth=1, miner_id=1, blocktime=0.01)
    config = SimulationConfig(num_miners=2, duration=40.0, interval=2.0, seed=8, time_scale=20.0)
    report, stats, _ = run_against_scripted_peer(
        config, 29.0, 1.0, peer_delay=1.0, peer_frames=(encode(msg_block(old)),)
    )
    assert not report["discarded"]
    assert stats["tally"]["uncled"] == 1
    assert stats["late_frames"] == 1
    assert 0.31 < stats["max_lateness"] < 40.0


def test_a_lazy_connection_wakes_select_at_its_low_water_mark_and_at_eof():
    frame = encode(msg_block(Block("b1", GENESIS.id, 1, 2, 1.0)))
    with socket.create_server(("127.0.0.1", 0)) as server:
        ours = socket.create_connection(server.getsockname())
        conn = LazyConn(server.accept()[0])
    try:
        ours.sendall(frame)
        assert select.select([conn], [], [], 0.2)[0] == []  # one frame wakes no one
        conn.drain()  # but a drain reads it, without waiting for the mark
        assert [m.type for m in conn.inbox] == ["BLOCK"]
        conn.inbox.clear()
        ours.sendall(frame * (netio.LOW_WATER // len(frame) + 1))
        assert select.select([conn], [], [], 5.0)[0] == [conn]
        conn.drain()
        assert len(conn.inbox) >= netio.LOW_WATER // len(frame)
        conn.inbox.clear()
        ours.sendall(frame)
        ours.close()
        assert select.select([conn], [], [], 5.0)[0] == [conn]  # EOF wakes at once
        with pytest.raises(ConnectionClosed):
            while True:
                conn.drain()
        assert [m.type for m in conn.inbox][-1:] == ["BLOCK"]  # read before the EOF
    finally:
        ours.close()
        conn.close()


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
    registers, a SIM_START whose start_at is None stamped with the Unix
    time as it goes, as the admin stamps it; the result goes out once the
    miner's LAST_BLOCK arrives. With no result, the admin hangs up right
    after the bootstrap.
    """

    def __init__(self, bootstrap: list[WireMessage], result: WireMessage | None):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.bootstrap = bootstrap
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
            sock.sendall(b"".join(encode(stamped(m)) for m in self.bootstrap))
            if self.result is None:
                return
            self.last_block = conn.next_message(10.0)
            self.last_block_at = time.monotonic()
            conn.send(self.result)
        except (OSError, ProtocolError):
            pass  # the miner gave up first
        finally:
            conn.close()


def stamped(msg: WireMessage) -> WireMessage:
    if msg.type == "SIM_START" and msg.payload["start_at"] is None:
        return WireMessage(msg.type, {**msg.payload, "start_at": time.time()})
    return msg


ADMIN_RUN = {
    "ack": msg_miner_info(1, [], 0.0),
    "roster": msg_miner_info(1, [MinerRecord(1, 10.0, "127.0.0.1", 9)], 10.0),
    "start": msg_sim_start(1.0, 12.42, 100.0, 5, start_at=None),  # stamped as it is sent
    "genesis": msg_genesis(GENESIS),
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


def test_a_network_miners_blocktimes_count_from_0(capsys):
    # a solo miner hears no block, so its own blocktimes are its whole chain:
    # chained draws on Random(subseed), the first from 0 as in the engine
    duration = 200.0  # 2 wall-s at time_scale 100
    status, err, admin = run_miner_cli(capsys, start={"duration": duration})
    assert status == 0, err
    tip = block_from_payload(admin.last_block.payload["block"])
    rng, rate = random.Random(5), block_rate(HashpowerProfile(own=10.0, total=10.0), 12.42)
    blocktimes = [compute_block_time(rate, 0.0, rng)]
    while blocktimes[-1] <= duration:
        blocktimes.append(compute_block_time(rate, blocktimes[-1], rng))
    assert tip.depth == len(blocktimes) - 1 > 5
    assert tip.blocktime == blocktimes[tip.depth - 1]


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
        ("genesis", {"block": {"id": GENESIS.id}}),
        ("genesis", {"block": {**block_to_payload(GENESIS), "depth": "0"}}),
        ("result", {"winner_id": "1"}),
        ("result", {"blocks": {"0": None}}),
        ("start", {"start_at": "now"}),
        ("start", {"start_at": float("nan")}),
        ("start", {"start_at": float("inf")}),
        # another clock: more than CONNECT_TIMEOUT behind or ahead of the miner's
        ("start", {"start_at": 0.0}),
        ("start", {"start_at": 1e12}),
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

