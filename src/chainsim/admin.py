"""Admin server: registration rendezvous, bootstrap, and final consensus.

The admin never mines, never relays blocks and never times the run. It
brings the network up (ids, roster, clock parameters and the clock's
shared origin, genesis), collects the tip each miner sends when its copy
of the shared clock ends the run, then runs the cheap consensus: one
full chain out of the winner, one result broadcast.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from .blocks import Block, StructuralError
from .chain import ConsensusEntry, select_consensus_winner, validate_chain
from .netio import BufferedConn, ConnectionClosed, listener
from .protocol import (
    MinerRecord,
    ProtocolError,
    WireMessage,
    block_from_payload,
    chain_from_payload,
    encode,
    msg_chain_request,
    msg_consensus_result,
    msg_discard,
    msg_genesis,
    msg_miner_info,
    msg_sim_start,
    register_from_payload,
)
from .simulation import SimulationConfig, create_genesis, emit_report, subseed_for
from .timing import check_hashpower

log = logging.getLogger(__name__)

EXIT_DISCARDED = 3  # process status for a discarded simulation
ANNOUNCEMENT = "admin listening on "  # then HOST:PORT: the admin's first line of output
REGISTERED = "admin registered every miner"  # its second line, before the bootstrap

REGISTRATION_TIMEOUT = 60.0
CONSENSUS_TIMEOUT = 30.0


class RegistrationTimeout(TimeoutError):
    """Not every expected miner registered in time."""


class MinerConn(BufferedConn):
    """One miner's admin-side connection; record is set once it registers."""

    def __init__(self, sock: socket.socket, ip: str):
        super().__init__(sock)
        self.ip = ip
        self.record: MinerRecord | None = None

    @property
    def label(self) -> str:
        return f"miner {self.record.miner_id}" if self.record else f"registrant at {self.ip}"


@dataclass
class FrameAccounting:
    """Counts of message types the admin received, split by phase."""

    mining: Counter = field(default_factory=Counter)
    consensus: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        return {
            "mining": dict(self.mining),
            "consensus": dict(self.consensus),
            "block_frames_during_mining": self.mining.get("BLOCK", 0),
            "last_block_frames": self.consensus.get("LAST_BLOCK", 0),
            "chain_frames": self.consensus.get("CHAIN", 0),
        }


class AdminServer:
    """Runs one complete simulation from registration to report."""

    def __init__(self, config: SimulationConfig, port: int, host: str = "127.0.0.1"):
        self.config = config
        self.host = host
        self.accounting = FrameAccounting()
        self.genesis = create_genesis()
        self._listener = listener(host, port, backlog=config.num_miners)
        self.port = self._listener.getsockname()[1]
        self._conns: list[MinerConn] = []  # every admitted miner in id order; a dropped one stays

    def run(self, registered: Callable[[], object] = lambda: None) -> dict:
        """Full lifecycle; returns the report record (see emit_report).

        registered is called once, when every miner is in and before any
        of them is sent the roster.
        """
        try:
            self._run_registration()
            registered()
            self._bootstrap()
            return self._run_consensus(self._mining_wait())
        finally:
            self.close()

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        try:
            self._listener.close()
        except OSError:
            pass

    # phase 1: registration

    def _run_registration(self) -> None:
        """Accept and admit miners until all are in or the deadline passes.

        Waits only in select, over the listener and every connection whose
        REGISTER frame is not in yet, so a registrant that sends nothing,
        or half a frame, holds up no one; it is closed at the end.
        """
        deadline = time.monotonic() + REGISTRATION_TIMEOUT
        pending: list[MinerConn] = []  # in accept order
        try:
            while len(self._conns) < self.config.num_miners:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RegistrationTimeout(
                        f"{len(self._conns)}/{self.config.num_miners} miners registered"
                    )
                readable, _, _ = select.select([self._listener, *pending], [], [], remaining)
                for ready in readable:
                    if ready is self._listener:
                        sock, addr = ready.accept()
                        pending.append(MinerConn(sock, addr[0]))
                    elif self._admit(ready):
                        pending.remove(ready)
        finally:
            for conn in pending:
                conn.close()
        log.info(
            "registration complete: %d miners, total hashpower %.3f",
            len(self._conns),
            sum(conn.record.hashpower for conn in self._conns),
        )

    def _admit(self, conn: MinerConn) -> bool:
        """Read a readable registrant; admit it once its REGISTER frame is in.

        Returns False while the frame is incomplete. Admission checks that
        the hashpower is finite and positive and that no admitted miner has
        the same (ip, port), then sets conn.record with the next id: 1, 2,
        3, ... in admission order. A registrant that closes, sends a corrupt
        or other frame, or is refused is closed.
        """
        try:
            conn.pump()
            if not conn.inbox:
                return False
            msg = conn.inbox.popleft()
            if msg.type != "REGISTER":
                raise ProtocolError(f"expected REGISTER, got {msg.type}")
            hashpower, port = register_from_payload(msg.payload)
            check_hashpower(hashpower)
            if any(c.record.ip == conn.ip and c.record.port == port for c in self._conns):
                raise ValueError(f"duplicate registration from {conn.ip}:{port}")
        except (OSError, ValueError) as exc:  # ProtocolError is a ValueError
            log.warning("rejected %s: %s", conn.label, exc)
            conn.close()
            return True
        conn.record = MinerRecord(len(self._conns) + 1, hashpower, conn.ip, port)
        self._conns.append(conn)
        try:
            # immediate ack: your id, roster to follow once everyone is in
            conn.send(msg_miner_info(conn.record.miner_id, [], 0.0))
        except OSError as exc:
            self._drop(conn, exc)
        return True

    # phase 2: roster, clock parameters, genesis

    def _bootstrap(self) -> None:
        roster = [conn.record for conn in self._conns]
        total = sum(record.hashpower for record in roster)
        # sim-time 0 for every miner: one instant, taken once, on the host's Unix clock
        start_at = time.time()
        for conn in self._conns:
            mid = conn.record.miner_id
            try:
                conn.send(msg_miner_info(mid, roster, total))
                conn.send(
                    msg_sim_start(
                        self.config.duration,
                        self.config.interval,
                        self.config.time_scale,
                        subseed_for(self.config.seed, mid),
                        start_at,
                    )
                )
                conn.send(msg_genesis(self.genesis))
            except OSError as exc:
                self._drop(conn, exc)

    # phase 3: the miners mine; each sends LAST_BLOCK when its clock ends the run

    def _mining_wait(self) -> dict[MinerConn, WireMessage]:
        """Each live miner's LAST_BLOCK, waited for only in select until all are in
        or the duration and consensus timeout pass; later frames stay queued."""
        wall = self.config.duration / self.config.time_scale + CONSENSUS_TIMEOUT
        end = time.monotonic() + wall
        waiting = [conn for conn in self._conns if conn.fileno() >= 0]
        last_blocks: dict[MinerConn, WireMessage] = {}
        while waiting and (remaining := end - time.monotonic()) > 0:
            readable, _, _ = select.select(waiting, [], [], remaining)
            for conn in readable:
                try:
                    conn.pump()
                except (OSError, ProtocolError) as exc:
                    waiting.remove(conn)
                    self._drop(conn, exc)
                    continue
                while conn.inbox and conn in waiting:
                    msg = conn.inbox.popleft()
                    if msg.type == "LAST_BLOCK":
                        self.accounting.consensus[msg.type] += 1
                        last_blocks[conn] = msg
                        waiting.remove(conn)
                    else:  # no other message is legitimate while mining
                        self.accounting.mining[msg.type] += 1
                        log.warning(
                            "unexpected %s frame from %s during mining", msg.type, conn.label
                        )
        return last_blocks

    # phase 4: last-block consensus

    def _run_consensus(self, last_blocks: dict[MinerConn, WireMessage]) -> dict:
        entries: list[ConsensusEntry] = []
        for conn in self._conns:
            try:
                if conn.fileno() < 0:
                    raise ConnectionClosed("its connection was dropped")
                if conn not in last_blocks:
                    raise TimeoutError("none arrived within the consensus timeout")
                last_block = block_from_payload(last_blocks[conn].payload["block"])
                # keyed by the connection: a payload cannot claim another id
                entries.append(ConsensusEntry(conn.record.miner_id, last_block))
            except (OSError, ValueError, KeyError) as exc:
                return self._discard(f"missing or invalid LAST_BLOCK from {conn.label}: {exc}")
        winner_id = select_consensus_winner(entries)
        winner = next(c for c in self._conns if c.record.miner_id == winner_id)
        try:
            winner.send(msg_chain_request())
            msg = winner.next_message(CONSENSUS_TIMEOUT)
            self.accounting.consensus[msg.type] += 1
            if msg.type != "CHAIN":
                raise ProtocolError(f"got {msg.type} instead")
        except (OSError, ProtocolError) as exc:
            return self._discard(f"winner {winner_id} never sent its chain: {exc}")
        try:
            chain = chain_from_payload(msg.payload["blocks"])
            validate_chain(chain, allow_empty=True)
            if chain[0] != self.genesis:
                raise StructuralError("winning chain is not rooted at the genesis")
        except (ProtocolError, StructuralError, KeyError) as exc:
            return self._discard(f"winning chain failed validation: {exc}")
        if any(b.is_empty for b in chain):
            return self._discard("winning chain still contains placeholder blocks")
        self._broadcast(msg_consensus_result(winner_id, chain))
        return self._report(chain, winner_id, None)

    def _drop(self, conn: MinerConn, exc: Exception) -> None:
        # the run is lost, but the others still mine to the end of the run
        log.warning("dropping %s: %s", conn.label, exc)
        conn.close()

    def _broadcast(self, msg: WireMessage) -> None:
        """Send msg, encoded once, to every miner; a dropped or dead connection misses it."""
        frame = encode(msg)
        for conn in self._conns:
            try:
                conn.sock.sendall(frame)
            except OSError:
                pass

    def _discard(self, reason: str) -> dict:
        log.warning("simulation discarded: %s", reason)
        self._broadcast(msg_discard(reason))
        return self._report(None, None, reason)

    def _report(self, chain: list[Block] | None, winner_id: int | None, reason: str | None) -> dict:
        miners = [asdict(conn.record) for conn in self._conns]  # miner_id, hashpower, ip, port
        return emit_report(chain, miners, self.config, winner_id, reason, self.accounting.as_dict())
