"""Admin server: registration rendezvous, bootstrap, and final consensus.

The admin never mines and never relays blocks. It brings the network up
(ids, roster, genesis, transaction pool), waits out the simulation,
then runs the cheap consensus: one tip block per miner in, one full
chain out, one result broadcast.
"""

from __future__ import annotations

import json
import logging
import math
import random
import select
import socket
import time
from collections import Counter
from dataclasses import dataclass, field

from .blocks import ADMIN_ID, Block, StructuralError, Transaction, derive_block_id
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
    msg_sim_end,
    msg_sim_start,
    msg_tx_pool,
    register_from_payload,
)

log = logging.getLogger(__name__)

EXIT_DISCARDED = 3  # process status for a discarded simulation
ANNOUNCEMENT = "admin listening on "  # then HOST:PORT: the admin's first line of output

REGISTRATION_TIMEOUT = 60.0
CONSENSUS_TIMEOUT = 30.0
SIM_END_GRACE = 0.25  # wall seconds past the scaled duration before SIM_END


class RegistrationTimeout(TimeoutError):
    """Not every expected miner registered in time."""


@dataclass(frozen=True)
class SimulationConfig:
    num_miners: int
    duration: float
    interval: float
    seed: int
    time_scale: float = 1.0
    tx_pool_size: int = 100

    def __post_init__(self) -> None:
        if self.num_miners < 1:
            raise ValueError("need at least one miner")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.tx_pool_size < 0:
            raise ValueError("tx_pool_size cannot be negative")


class RegistrationLedger:
    """Miner roster in registration order; ids are 1, 2, 3, ..."""

    def __init__(self) -> None:
        self.entries: list[MinerRecord] = []

    def register(self, hashpower: float, ip: str, port: int) -> MinerRecord:
        if not 0 < hashpower < math.inf:
            raise ValueError("hashpower must be finite and positive")
        if any(e.ip == ip and e.port == port for e in self.entries):
            raise ValueError(f"duplicate registration from {ip}:{port}")
        record = MinerRecord(
            miner_id=len(self.entries) + 1, hashpower=hashpower, ip=ip, port=port
        )
        self.entries.append(record)
        return record

    @property
    def total_hashpower(self) -> float:
        return sum(e.hashpower for e in self.entries)


def create_genesis() -> Block:
    """The common root block; same on every invocation."""
    return Block(
        id=derive_block_id(ADMIN_ID, 0, 0.0, 0),
        parent_id=None,
        depth=0,
        miner_id=ADMIN_ID,
        blocktime=0.0,
    )


def create_tx_pool(config: SimulationConfig, rng: random.Random) -> list[Transaction]:
    """Common transaction pool every miner draws from, unique ids."""
    pool: list[Transaction] = []
    seen: set[str] = set()
    while len(pool) < config.tx_pool_size:
        tx_id = f"{rng.getrandbits(128):032x}"
        if tx_id in seen:
            continue
        seen.add(tx_id)
        pool.append(
            Transaction(id=tx_id, size_bytes=rng.randint(250, 1000), fee=rng.random())
        )
    return pool


def subseed_for(seed: int, miner_id: int) -> int:
    """Per-miner mining seed handed out in SIM_START."""
    return seed ^ miner_id


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

    def __init__(
        self,
        config: SimulationConfig,
        port: int,
        host: str = "127.0.0.1",
        registration_timeout: float = REGISTRATION_TIMEOUT,
        consensus_timeout: float = CONSENSUS_TIMEOUT,
    ):
        self.config = config
        self.host = host
        self.registration_timeout = registration_timeout
        self.consensus_timeout = consensus_timeout
        self.ledger = RegistrationLedger()
        self.accounting = FrameAccounting()
        self.genesis = create_genesis()
        # one frame for every miner, encoded before the port binds: a pool
        # over the frame cap fails here, before any miner registers
        self._tx_pool_frame = encode(
            msg_tx_pool(create_tx_pool(config, random.Random(config.seed)))
        )
        self._listener = listener(host, port, backlog=config.num_miners)
        self.port = self._listener.getsockname()[1]
        self._conns: list[MinerConn] = []

    def run(self) -> dict:
        """Full lifecycle; returns the report record (see emit_report)."""
        try:
            self._run_registration()
            self._bootstrap()
            self._mining_wait()
            return self._run_consensus()
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
        deadline = time.monotonic() + self.registration_timeout
        pending: dict[socket.socket, MinerConn] = {}
        try:
            while len(self._conns) < self.config.num_miners:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RegistrationTimeout(
                        f"{len(self._conns)}/{self.config.num_miners} miners registered"
                    )
                readable, _, _ = select.select([self._listener, *pending], [], [], remaining)
                for sock in readable:
                    if sock is self._listener:
                        conn_sock, addr = sock.accept()
                        pending[conn_sock] = MinerConn(conn_sock, addr[0])
                    elif self._admit(pending[sock]):
                        del pending[sock]
        finally:
            for conn in pending.values():
                conn.close()
        log.info(
            "registration complete: %d miners, total hashpower %.3f",
            len(self._conns),
            self.ledger.total_hashpower,
        )

    def _admit(self, conn: MinerConn) -> bool:
        """Read a readable registrant; register it once its REGISTER frame is in.

        Returns False while the frame is incomplete. A registrant that
        closes, sends a corrupt or other frame, or is refused by the ledger
        is closed. The read's timeout stays on the socket and bounds the
        blocking bootstrap sends.
        """
        try:
            conn.pump(self.registration_timeout)
            if not conn.inbox:
                return False
            msg = conn.inbox.popleft()
            if msg.type != "REGISTER":
                raise ProtocolError(f"expected REGISTER, got {msg.type}")
            hashpower, port = register_from_payload(msg.payload)
            conn.record = self.ledger.register(hashpower=hashpower, ip=conn.ip, port=port)
        except (OSError, ValueError) as exc:  # ProtocolError is a ValueError
            log.warning("rejected %s: %s", conn.label, exc)
            conn.close()
            return True
        self._conns.append(conn)
        try:
            # immediate ack: your id, roster to follow once everyone is in
            conn.send(msg_miner_info(conn.record.miner_id, [], 0.0))
        except OSError as exc:
            self._drop(conn, exc)
        return True

    # phase 2: roster, clock parameters, genesis, transaction pool

    def _bootstrap(self) -> None:
        roster = list(self.ledger.entries)
        total = self.ledger.total_hashpower
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
                    )
                )
                conn.send(msg_genesis(self.genesis))
                conn.sock.sendall(self._tx_pool_frame)
            except OSError as exc:
                self._drop(conn, exc)

    # phase 3: sit out the simulation, watching for stray frames

    def _mining_wait(self) -> None:
        wall = self.config.duration / self.config.time_scale + SIM_END_GRACE
        end = time.monotonic() + wall
        socks = {conn.sock: conn for conn in self._conns if conn.sock.fileno() >= 0}
        while (remaining := end - time.monotonic()) > 0:
            readable, _, _ = select.select(list(socks), [], [], remaining)
            for sock in readable:
                conn = socks[sock]
                try:
                    conn.pump(0.0)
                except (OSError, ProtocolError) as exc:
                    del socks[sock]
                    self._drop(conn, exc)
                # no message is legitimate before SIM_END; count and drop
                while conn.inbox:
                    msg = conn.inbox.popleft()
                    self.accounting.mining[msg.type] += 1
                    log.warning(
                        "unexpected %s frame from %s during mining", msg.type, conn.label
                    )
        self._broadcast(msg_sim_end())

    # phase 4: last-block consensus

    def _run_consensus(self) -> dict:
        deadline = time.monotonic() + self.consensus_timeout
        entries: list[ConsensusEntry] = []
        for conn in self._conns:
            try:
                if conn.sock.fileno() < 0:
                    raise ConnectionClosed("its connection was dropped")
                msg = conn.next_message(deadline - time.monotonic())
                self.accounting.consensus[msg.type] += 1
                if msg.type != "LAST_BLOCK":
                    raise ProtocolError(f"got {msg.type} instead")
                last_block = block_from_payload(msg.payload["block"])
                # keyed by the connection: a payload cannot claim another id
                entries.append(ConsensusEntry(conn.record.miner_id, last_block))
            except (OSError, ValueError, KeyError) as exc:  # OSError covers timeouts
                return self._discard(f"missing or invalid LAST_BLOCK from {conn.label}: {exc}")
        winner_id = select_consensus_winner(entries)
        winner = next(c for c in self._conns if c.record.miner_id == winner_id)
        try:
            winner.send(msg_chain_request())
            msg = winner.next_message(self.consensus_timeout)
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
        return emit_report(
            chain,
            self.ledger,
            config=self.config,
            winner_id=winner_id,
            discarded=False,
            accounting=self.accounting,
        )

    def _drop(self, conn: MinerConn, exc: Exception) -> None:
        # the run is lost, but the others still mine until SIM_END
        log.warning("dropping %s: %s", conn.label, exc)
        conn.close()

    def _broadcast(self, msg: WireMessage) -> None:
        """Send msg to every miner; a dropped or dead connection misses it."""
        for conn in self._conns:
            try:
                conn.send(msg)
            except OSError:
                pass

    def _discard(self, reason: str) -> dict:
        log.warning("simulation discarded: %s", reason)
        self._broadcast(msg_discard(reason))
        return emit_report(
            None,
            self.ledger,
            config=self.config,
            winner_id=None,
            discarded=True,
            accounting=self.accounting,
            reason=reason,
        )


def emit_report(
    final_chain: list[Block] | None,
    ledger: RegistrationLedger,
    config: SimulationConfig,
    winner_id: int | None,
    discarded: bool,
    accounting: FrameAccounting | None = None,
    reason: str | None = None,
) -> dict:
    """Machine-readable run record; render_table turns it into text."""
    total = ledger.total_hashpower
    mined = Counter()
    total_blocks = 0
    if final_chain is not None:
        mined = Counter(b.miner_id for b in final_chain[1:])
        total_blocks = len(final_chain) - 1
        unknown = set(mined) - {e.miner_id for e in ledger.entries}
        if unknown:
            raise StructuralError(f"chain contains blocks from unknown miners {unknown}")
    miners = []
    for entry in ledger.entries:
        blocks = mined.get(entry.miner_id, 0)
        miners.append(
            {
                "miner_id": entry.miner_id,
                "ip": entry.ip,
                "port": entry.port,
                "hashpower": entry.hashpower,
                "hash_share_pct": 100.0 * entry.hashpower / total if total else 0.0,
                "blocks": blocks,
                "block_share_pct": 100.0 * blocks / total_blocks if total_blocks else 0.0,
            }
        )
    report = {
        "discarded": discarded,
        "reason": reason,
        "winner_id": winner_id,
        "seed": config.seed,
        "duration": config.duration,
        "interval": config.interval,
        "time_scale": config.time_scale,
        "num_miners": config.num_miners,
        "total_hashpower": total,
        "total_blocks": total_blocks,
        "miners": miners,
        "final_chain_ids": [b.id for b in final_chain] if final_chain else None,
    }
    if accounting is not None:
        report["frame_accounting"] = accounting.as_dict()
    return report


def render_table(report: dict) -> str:
    """Aligned text table of hash share vs block share per miner."""
    lines = [
        f"{'miner':>5}  {'hashpower':>9}  {'hash %':>7}  {'blocks':>6}  {'block %':>7}",
    ]
    for m in report["miners"]:
        lines.append(
            f"{m['miner_id']:>5}  {m['hashpower']:>9.2f}  {m['hash_share_pct']:>7.2f}"
            f"  {m['blocks']:>6}  {m['block_share_pct']:>7.2f}"
        )
    status = "DISCARDED" if report["discarded"] else f"winner: miner {report['winner_id']}"
    lines.append(
        f"total blocks mined: {report['total_blocks']} ({status}, seed {report['seed']})"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Write a JSON record (a report, a miner's stats, an aggregate) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
