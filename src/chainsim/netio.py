"""Socket helpers shared by the admin server and miner nodes.

Both bind their listening socket through listener(), which checks the
port. All connections speak the length-prefixed frame protocol.
BufferedConn wraps one socket with frame reassembly and a message inbox;
callers either wait on it for the next message (request/response phases)
or pump it once a selector reports the socket readable (the miner loop).
"""

from __future__ import annotations

import socket
import time
from collections import deque

from .protocol import FrameReader, WireMessage, encode


class ConnectionClosed(ConnectionError):
    """Peer closed the connection before a full message arrived."""


def listener(host: str, port: int, backlog: int | None = None) -> socket.socket:
    """A TCP socket listening on (host, port); port 0 lets the OS pick one."""
    if not 0 <= port <= 65535:  # bind would raise OverflowError, not OSError
        raise ValueError(f"port must be in 0..65535, got {port}")
    return socket.create_server((host, port), backlog=backlog)


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
