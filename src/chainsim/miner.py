"""Miner process: registration, peer mesh, mining loop, consensus.

A miner runs on one thread. It dials every peer once, after bootstrap
and before mining. Its clock starts at the admin's start_at, the one
origin every miner of the run shares. Each BLOCK a peer sends falls due
U(lo, hi) sim-seconds after its blocktime on that clock, as the engine
draws per (block, receiver), so when the frame is read does not change
when it is due. Mining is memoryless, so the miner's state matters only
when its own block falls due and when the run ends: only there does it
drain every peer connection, without blocking, and step, in the
engine's order, from mining.take_due and mining.step. Between steps a
single selectors loop waits only in select: for the next own blocktime,
the end of the run, the admin, or a peer whose unread bytes reach
netio's low-water mark or which closes. Own blocks go to every peer at
once, without blocking: a peer that cannot be dialed, or cannot take a
whole frame, loses its link for the rest of the run, never the miner's
time. A peer whose frame is corrupt, or whose block breaks the chain
rules, loses its connection; the miner mines on. A step that applies a
block due before the miner's previous step counts it as a late frame.
The miner is its MiningContext, chain state and run duration included,
so the mining loop and consensus take it alone.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import random
import selectors
import socket
import time
from collections.abc import Callable

from .blocks import Block
from .chain import finalize_state, validate_chain
from .mining import MiningContext, step, take_due
from .netio import BufferedConn, ConnectionClosed, LazyConn, listener
from .protocol import (
    MinerRecord,
    ProtocolError,
    WireMessage,
    block_from_payload,
    consensus_result_from_payload,
    encode,
    miner_info_from_payload,
    msg_block,
    msg_chain,
    msg_last_block,
    msg_register,
    sim_start_from_payload,
)
from .timing import (
    DEFAULT_DELAY_RANGE,
    HashpowerProfile,
    SimulationClock,
    check_delay_range,
    check_hashpower,
)

log = logging.getLogger(__name__)

CONNECT_TIMEOUT = 15.0
ROSTER_TIMEOUT = 120.0  # full roster arrives only once every miner registers
CONSENSUS_PHASE_TIMEOUT = 60.0


class PeerLink:
    """Own blocks to one peer, over one connection dialed before mining.

    The peer is dialed once, when the link is built, with Nagle's
    algorithm off; each frame is sent at once and the send never blocks. A
    failed dial, or a send that fails or that the socket cannot take whole,
    costs that peer every later frame of the run. A broken pipe or a reset means the peer closed its end, as a
    peer does once its clock has ended the run: that is logged at INFO,
    every other failure at WARNING.
    """

    def __init__(self, record: MinerRecord):
        self.record = record
        self._sock: socket.socket | None = None
        try:
            self._sock = socket.create_connection((record.ip, record.port), timeout=2.0)
            self._sock.setblocking(False)
            # else a second own frame could wait for the peer's delayed ACK of the first
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            self.close()
            log.warning(
                "no link to miner %d at %s:%d: %s", record.miner_id, record.ip, record.port, exc
            )

    def send(self, frame: bytes) -> None:
        if self._sock is None:
            return
        try:
            if self._sock.send(frame) == len(frame):
                return
            reason = "send buffer full"
        except (BrokenPipeError, ConnectionResetError) as exc:
            log.info(
                "miner %d closed its end; no more frames to it this run: %s",
                self.record.miner_id,
                exc,
            )
            self.close()
            return
        except OSError as exc:  # a full buffer raises BlockingIOError
            reason = str(exc)
        log.warning(
            "dropping frame and link to miner %d for the rest of the run: %s",
            self.record.miner_id,
            reason,
        )
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def expect(conn: BufferedConn, want: str, timeout: float) -> WireMessage:
    msg = conn.next_message(timeout)
    if msg.type != want:
        raise ProtocolError(f"expected {want}, got {msg.type}")
    return msg


class MinerNode:
    """One complete miner lifecycle against a live admin server."""

    def __init__(
        self,
        admin_host: str,
        admin_port: int,
        listen_port: int,
        hashpower: float,
        delay_range: tuple[float, float] = DEFAULT_DELAY_RANGE,
        listen_host: str = "127.0.0.1",
    ):
        self.admin_host = admin_host
        self.admin_port = admin_port
        self.listen_host = listen_host
        self.listen_port = listen_port
        check_delay_range(delay_range)
        self.delay_range = delay_range
        check_hashpower(hashpower)
        self.hashpower = hashpower

    def run(self) -> dict:
        listen_sock = listener(self.listen_host, self.listen_port)
        port = listen_sock.getsockname()[1]
        admin: BufferedConn | None = None
        links: list[PeerLink] = []
        try:
            # the admin listens before any miner is started: one dial, no retry
            admin = BufferedConn(
                socket.create_connection(
                    (self.admin_host, self.admin_port), timeout=CONNECT_TIMEOUT
                )
            )
            admin.send(msg_register(port, self.hashpower))
            ack = expect(admin, "MINER_INFO", CONNECT_TIMEOUT)
            my_id, _, _ = miner_info_from_payload(ack.payload)

            info = expect(admin, "MINER_INFO", ROSTER_TIMEOUT)
            _, records, total_hashpower = miner_info_from_payload(info.payload)
            peers = [r for r in records if r.miner_id != my_id]

            start = expect(admin, "SIM_START", CONNECT_TIMEOUT)
            wall, mono = time.time(), time.monotonic()
            duration, interval, time_scale, subseed, start_at = sim_start_from_payload(
                start.payload, wall, CONNECT_TIMEOUT
            )
            # the admin's Unix instant for sim-time 0, moved once onto the monotonic clock
            clock = SimulationClock(time_scale, mono - (wall - start_at))

            genesis_msg = expect(admin, "GENESIS", CONNECT_TIMEOUT)
            ctx = MiningContext(
                miner_id=my_id,
                profile=HashpowerProfile(own=self.hashpower, total=total_hashpower),
                interval=interval,
                rng=random.Random(subseed),
                genesis=block_from_payload(genesis_msg.payload.get("block")),
                duration=duration,
            )

            links = [PeerLink(peer) for peer in peers]
            # delays get a stream of their own: blocktimes never depend on what is heard
            delays = random.Random(f"delay:{subseed}")
            late = self._mine(ctx, clock, admin, listen_sock, links, delays)
            return {**self._consensus(ctx, admin, port), **late}
        finally:
            listen_sock.close()
            for link in links:
                link.close()
            if admin is not None:
                admin.close()

    def _mine(
        self,
        ctx: MiningContext,
        clock: SimulationClock,
        admin: BufferedConn,
        listen_sock: socket.socket,
        links: list[PeerLink],
        delays: random.Random,
    ) -> dict:
        """Mining loop: runs until the shared clock reaches ctx.duration.

        Blocks due after the duration are never applied, as in the engine,
        and own blocks built once the clock has passed it are not sent.
        Returns the late frames: how many blocks a step applied although
        they fell due before the previous step, and the most any one fell
        due before it, in sim-seconds.
        """
        lo, hi = self.delay_range
        duration = ctx.duration
        next_seq = itertools.count().__next__
        # (due, seq, block, sender) for each block read and not yet applied
        inbox: list[tuple[float, int, Block, LazyConn]] = []
        peers: list[LazyConn] = []
        sel = selectors.DefaultSelector()
        sel.register(listen_sock, selectors.EVENT_READ)
        # a dead admin still ends the miner at once; its frames wait for _consensus
        sel.register(admin.sock, selectors.EVENT_READ, admin)
        late_frames = 0
        max_lateness = 0.0
        previous = 0.0  # the instant of the last step

        def drop(conn: LazyConn) -> None:
            sel.unregister(conn.sock)
            conn.close()
            peers.remove(conn)

        def read(conn: LazyConn) -> None:
            for block in _read_peer(conn, drop):
                inbox.append((block.blocktime + delays.uniform(lo, hi), next_seq(), block, conn))

        def step_until(now: float, until: tuple) -> Block | None:
            """One step at now, on every peer's frames and the held blocks that sort before until."""
            nonlocal late_frames, max_lateness, previous
            for conn in peers[:]:
                read(conn)
            taken = take_due(inbox, until)
            if taken and taken[0][0] < previous:  # sorted: the late ones lead
                late_frames += bisect.bisect_left(taken, (previous,))
                max_lateness = max(max_lateness, previous - taken[0][0])
            previous = now

            def reject(block: Block, exc: ValueError) -> None:
                # by identity: a conflicting duplicate shares its id with another peer's block
                conn = next(c for _, _, b, c in taken if b is block)
                log.warning(
                    "dropping peer connection: block %s breaks the chain rules: %s", block.id, exc
                )
                if conn in peers:  # not dropped already, by its EOF or a reject
                    drop(conn)

            return step(ctx, [b for _, _, b, _ in taken], now, reject)

        timeout = 0.0
        try:
            while True:
                for key, _ in sel.select(timeout):
                    if key.fileobj is listen_sock:
                        sock, _addr = listen_sock.accept()
                        conn = LazyConn(sock)
                        sel.register(sock, selectors.EVENT_READ, conn)
                        peers.append(conn)
                    elif key.data is admin:
                        admin.pump()
                    else:  # its unread bytes reached the low-water mark, or it closed
                        read(key.data)
                now = clock.now()
                horizon = min(now, duration)
                while ctx.next_time is not None and ctx.next_time <= horizon:
                    own = step_until(ctx.next_time, (ctx.next_time,))
                    if now < duration:
                        frame = encode(msg_block(own))
                        for link in links:
                            link.send(frame)
                if now >= duration:
                    step_until(duration, (duration, math.inf))
                    return {"late_frames": late_frames, "max_lateness": max_lateness}
                wake = duration if ctx.next_time is None else min(ctx.next_time, duration)
                timeout = max(0.0, clock.start_instant + wake / clock.time_scale - time.monotonic())
        finally:
            for conn in peers:
                conn.close()
            sel.close()

    def _consensus(self, ctx: MiningContext, admin: BufferedConn, port: int) -> dict:
        state, my_id = ctx.state, ctx.miner_id
        remaining = finalize_state(state)
        admin.send(msg_last_block(my_id, state.tip))
        discarded = False
        winner_id = None
        reason = None
        # the run's agreed output; on a discard, this miner's own main chain
        chain: list[Block] | None = None
        while True:
            msg = admin.next_message(CONSENSUS_PHASE_TIMEOUT)
            if msg.type == "CHAIN_REQUEST":
                chain = state.main_chain
                admin.send(msg_chain(my_id, chain))
            elif msg.type == "CONSENSUS_RESULT":
                winner_id, chain = consensus_result_from_payload(msg.payload)
                validate_chain(chain, allow_empty=False)
                break
            elif msg.type == "DISCARD":
                discarded = True
                reason = msg.payload.get("reason")
                break
            else:
                log.warning("unexpected %s from admin during consensus", msg.type)
        if chain is None:  # discarded before its chain was asked for
            chain = state.main_chain
        return {
            "miner_id": my_id,
            "listen_port": port,
            "hashpower": self.hashpower,
            "discarded": discarded,
            "reason": reason,
            "winner_id": winner_id,
            "placeholders_remaining": remaining,
            "tally": ctx.tally.as_dict(),
            "final_chain_len": len(chain) - 1,
            "final_chain_ids": [b.id for b in chain],
        }


def _read_peer(conn: LazyConn, drop: Callable[[LazyConn], None]) -> list[Block]:
    """The BLOCK frames one peer has sent so far, read without blocking.

    A closed or corrupt stream costs only that peer, which drop is told
    of, after the blocks read before it.
    """
    blocks: list[Block] = []
    try:
        try:
            conn.drain()
        finally:
            while conn.inbox:
                msg = conn.inbox.popleft()
                if msg.type == "BLOCK":
                    blocks.append(block_from_payload(msg.payload.get("block")))
                else:
                    log.warning("protocol violation: %s frame on a peer connection", msg.type)
    except (OSError, ProtocolError) as exc:
        if not isinstance(exc, ConnectionClosed):
            log.warning("dropping peer connection: %s", exc)
        drop(conn)
    return blocks
