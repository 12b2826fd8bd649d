"""Miner process: registration, peer mesh, mining loop, consensus.

A miner runs on one thread. It dials every peer once, after bootstrap
and before mining. During mining a single selectors loop waits only in
select, until the next own blocktime, the next delayed outbound frame,
the end of the run on its own clock, or a readable socket. It accepts
peer connections, reads BLOCK frames off them into mining.step, and
writes its own blocks to every peer without blocking: a peer that cannot
be dialed, or cannot take a whole frame, loses its link for the rest of
the run, never the miner's time. Each outbound frame waits U(lo, hi)
sim-seconds of the delay range, drawn per (frame, peer) as the logical
engine draws per (block, receiver), and scaled to the wall clock;
loopback transport adds its own delay on top. A peer whose frame is
corrupt, or whose block breaks the chain rules, loses its connection;
the miner mines on.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
import selectors
import socket
import time

from .blocks import Block
from .chain import LocalChainState, finalize_state, validate_chain
from .mining import MiningContext, step
from .netio import BufferedConn, ConnectionClosed, listener
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
    tx_ids_from_payload,
)
from .timing import DEFAULT_DELAY_RANGE, HashpowerProfile, SimulationClock, check_delay_range

log = logging.getLogger(__name__)

CONNECT_TIMEOUT = 15.0
ROSTER_TIMEOUT = 120.0  # full roster arrives only once every miner registers
CONSENSUS_PHASE_TIMEOUT = 60.0


class PeerLink:
    """Outbound frames to one peer, over one connection dialed before mining.

    Each frame waits until its own due time, now + U(lo, hi) wall-seconds,
    where (lo, hi) is the run's delay range over its time_scale, so frames
    may overtake each other. The peer is dialed once, when the link is
    built; sends never block. A failed dial, or a send that fails or that
    the socket cannot take whole, costs that peer every later frame of the
    run.
    """

    def __init__(self, record: MinerRecord, delays: tuple[float, float], rng: random.Random):
        self.record = record
        self.delays = delays  # (lo, hi) in wall-seconds
        self.rng = rng
        self.outbox: list[tuple[float, bytes]] = []  # heap of (monotonic due, frame)
        self._sock: socket.socket | None = None
        try:
            self._sock = socket.create_connection((record.ip, record.port), timeout=2.0)
            self._sock.setblocking(False)
        except OSError as exc:
            self.close()
            log.warning(
                "no link to miner %d at %s:%d: %s", record.miner_id, record.ip, record.port, exc
            )

    def submit(self, frame: bytes, now: float) -> None:
        if self._sock is not None:
            heapq.heappush(self.outbox, (now + self.rng.uniform(*self.delays), frame))

    def flush(self, now: float) -> None:
        while self.outbox and self.outbox[0][0] <= now:
            self._deliver(heapq.heappop(self.outbox)[1])

    def _deliver(self, frame: bytes) -> None:
        try:
            if self._sock.send(frame) == len(frame):
                return
            reason = "send buffer full"
        except OSError as exc:  # a full buffer raises BlockingIOError
            reason = str(exc)
        log.warning(
            "dropping frame and link to miner %d for the rest of the run: %s",
            self.record.miner_id,
            reason,
        )
        self.close()

    def close(self) -> None:
        self.outbox.clear()
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
        if not 0 < hashpower < math.inf:  # NaN fails too
            raise ValueError("hashpower must be finite and positive")
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
            duration, interval, time_scale, subseed = sim_start_from_payload(start.payload)
            clock = SimulationClock(time_scale=time_scale)

            genesis_msg = expect(admin, "GENESIS", CONNECT_TIMEOUT)
            state = LocalChainState(block_from_payload(genesis_msg.payload.get("block")))
            pool_msg = expect(admin, "TX_POOL", CONNECT_TIMEOUT)
            tx_ids = tx_ids_from_payload(pool_msg.payload)

            ctx = MiningContext(
                miner_id=my_id,
                profile=HashpowerProfile(own=self.hashpower, total=total_hashpower),
                interval=interval,
                rng=random.Random(subseed),
                tx_pool_ids=tx_ids,
            )

            delays = (self.delay_range[0] / time_scale, self.delay_range[1] / time_scale)
            links = [
                PeerLink(peer, delays, random.Random(subseed ^ peer.miner_id)) for peer in peers
            ]
            self._mine(ctx, state, clock, duration, admin, listen_sock, links)
            return self._consensus(ctx, state, admin, my_id, port)
        finally:
            listen_sock.close()
            for link in links:
                link.close()
            if admin is not None:
                admin.close()

    def _mine(
        self,
        ctx: MiningContext,
        state: LocalChainState,
        clock: SimulationClock,
        duration: float,
        admin: BufferedConn,
        listen_sock: socket.socket,
        links: list[PeerLink],
    ) -> None:
        """Mining loop: runs until the miner's own clock reaches the duration.

        As in the logical engine, arrivals after the duration are dropped:
        the last step applies the blocks read so far and builds every own
        block due by the duration, and frames still in the outboxes stay unsent.
        """
        end = clock.start_instant + duration / clock.time_scale
        sel = selectors.DefaultSelector()
        sel.register(listen_sock, selectors.EVENT_READ)
        # a dead admin still ends the miner at once; its frames wait for _consensus
        sel.register(admin.sock, selectors.EVENT_READ, admin)
        received: list[tuple[BufferedConn, Block]] = []

        def reject(block: Block, exc: ValueError) -> None:
            conn = next(c for c, b in received if b is block)
            if conn.sock.fileno() >= 0:  # not dropped already
                log.warning(
                    "dropping peer connection: block %s breaks the chain rules: %s", block.id, exc
                )
                _drop_peer(sel, conn)

        timeout = 0.0
        try:
            while True:
                received.clear()
                for key, _ in sel.select(timeout):
                    if key.fileobj is listen_sock:
                        sock, _addr = listen_sock.accept()
                        sel.register(sock, selectors.EVENT_READ, BufferedConn(sock))
                    elif key.data is admin:
                        admin.pump(0.0)
                    else:
                        _read_peer(sel, key.data, received)
                blocks = [b for _, b in received]
                now = clock.now()
                _, broadcast = step(ctx, state, blocks, now, duration, reject)
                if now >= duration:
                    while step(ctx, state, (), now, duration)[1] is not None:
                        pass  # an own block the loop fell behind on, still due by the duration
                    return
                wall = time.monotonic()
                if broadcast is not None:
                    frame = encode(msg_block(broadcast))
                    for link in links:
                        link.submit(frame, wall)
                for link in links:
                    link.flush(wall)
                wakes = [end, *(link.outbox[0][0] for link in links if link.outbox)]
                if ctx.next_time is not None and ctx.next_time <= duration:
                    wakes.append(clock.start_instant + ctx.next_time / clock.time_scale)
                timeout = max(0.0, min(wakes) - time.monotonic())
        finally:
            for key in list(sel.get_map().values()):
                if key.data is not None and key.data is not admin:
                    key.data.close()
            sel.close()

    def _consensus(
        self,
        ctx: MiningContext,
        state: LocalChainState,
        admin: BufferedConn,
        my_id: int,
        port: int,
    ) -> dict:
        remaining = finalize_state(state)
        admin.send(msg_last_block(my_id, state.tip))
        discarded = False
        winner_id = None
        reason = None
        while True:
            msg = admin.next_message(CONSENSUS_PHASE_TIMEOUT)
            if msg.type == "CHAIN_REQUEST":
                admin.send(msg_chain(my_id, state.main_chain))
            elif msg.type == "CONSENSUS_RESULT":
                winner_id, chain = consensus_result_from_payload(msg.payload)
                validate_chain(chain, allow_empty=False)
                state.main_chain = chain  # the run's agreed output
                break
            elif msg.type == "DISCARD":
                discarded = True
                reason = msg.payload.get("reason")
                break
            else:
                log.warning("unexpected %s from admin during consensus", msg.type)
        return {
            "miner_id": my_id,
            "listen_port": port,
            "hashpower": self.hashpower,
            "discarded": discarded,
            "reason": reason,
            "winner_id": winner_id,
            "placeholders_remaining": remaining,
            "tally": ctx.tally.as_dict(),
            "final_chain_len": len(state.main_chain) - 1,
            "final_chain_ids": [b.id for b in state.main_chain],
        }


def _read_peer(
    sel: selectors.BaseSelector,
    conn: BufferedConn,
    received: list[tuple[BufferedConn, Block]],
) -> None:
    """Collect one peer's BLOCK frames; a closed or corrupt stream costs only that peer."""
    try:
        conn.pump(0.0)
        while conn.inbox:
            msg = conn.inbox.popleft()
            if msg.type == "BLOCK":
                received.append((conn, block_from_payload(msg.payload.get("block"))))
            else:
                log.warning("protocol violation: %s frame on a peer connection", msg.type)
    except (OSError, ProtocolError) as exc:
        if not isinstance(exc, ConnectionClosed):
            log.warning("dropping peer connection: %s", exc)
        _drop_peer(sel, conn)


def _drop_peer(sel: selectors.BaseSelector, conn: BufferedConn) -> None:
    sel.unregister(conn.sock)
    conn.close()

