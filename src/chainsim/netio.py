"""Socket helpers shared by the admin server and miner nodes.

All connections speak the length-prefixed frame protocol. BufferedConn
wraps one socket with frame reassembly and a message inbox; callers
either wait on it for the next message (request/response phases) or
pump it once a selector reports the socket readable (the miner loop).
"""

from __future__ import annotations

import socket
import time
from collections import deque

from .protocol import FrameReader, WireMessage, encode


class ConnectionClosed(ConnectionError):
    """Peer closed the connection before a full message arrived."""


RETRY_FIRST_S = 0.005  # wait after the first refused dial, doubled after each
RETRY_MAX_S = 0.05


def connect_with_retry(host: str, port: int, deadline: float) -> socket.socket:
    """Dial until success or the wall-clock deadline passes.

    A refused dial is retried after RETRY_FIRST_S, doubling up to
    RETRY_MAX_S, so a listener that starts a moment late is reached a
    moment late, and a wait never overshoots the deadline.
    """
    last: Exception | None = None
    pause = RETRY_FIRST_S
    while time.monotonic() < deadline:
        try:
            return socket.create_connection((host, port), timeout=2.0)
        except OSError as exc:
            last = exc
            time.sleep(max(0.0, min(pause, deadline - time.monotonic())))
            pause = min(2 * pause, RETRY_MAX_S)
    raise ConnectionError(f"could not reach {host}:{port}: {last}")


class BufferedConn:
    """Socket with frame reassembly and a message inbox.

    Coalesced frames are fine: whatever a recv brings in is buffered,
    and next_message hands frames out one at a time.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = FrameReader()
        self.inbox: deque[WireMessage] = deque()

    @property
    def label(self) -> str:
        return "peer"

    def pump(self, timeout: float) -> None:
        """Read once with a timeout; decoded messages land in the inbox."""
        self.sock.settimeout(timeout)
        try:
            chunk = self.sock.recv(65536)
        except (socket.timeout, BlockingIOError):
            return
        if not chunk:
            raise ConnectionClosed(f"{self.label} closed its connection")
        self.inbox.extend(self.reader.feed(chunk))

    def next_message(self, timeout: float) -> WireMessage:
        deadline = time.monotonic() + timeout
        while not self.inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.label} sent nothing within {timeout}s")
            self.pump(remaining)
        return self.inbox.popleft()

    def send(self, msg: WireMessage) -> None:
        self.sock.sendall(encode(msg))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
