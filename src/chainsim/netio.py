"""Socket helpers shared by the admin server and miner nodes.

Both bind their listening socket through listener(), which checks the
port. All connections speak the length-prefixed frame protocol.
BufferedConn wraps one socket with frame reassembly and a message inbox,
and it alone sets the socket's mode: blocking, with IO_TIMEOUT bounding
each send. It reads only once select has reported the socket readable:
callers either wait on it for the next message (request/response
phases), or select over connections themselves and pump each readable
one (the admin's registration and mining phases, the miner loop).
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque

from .protocol import FrameReader, WireMessage, encode

IO_TIMEOUT = 30.0  # wall seconds that any one send, or one read, may block


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
        sock.settimeout(IO_TIMEOUT)
        self.sock = sock
        self.reader = FrameReader()
        self.inbox: deque[WireMessage] = deque()

    @property
    def label(self) -> str:
        return "peer"

    def fileno(self) -> int:
        return self.sock.fileno()

    def pump(self) -> None:
        """Read once select reports the socket readable; decoded messages land in the inbox."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionClosed(f"{self.label} closed its connection")
        self.inbox.extend(self.reader.feed(chunk))

    def next_message(self, timeout: float) -> WireMessage:
        deadline = time.monotonic() + timeout
        while not self.inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self], [], [], remaining)[0]:
                raise TimeoutError(f"{self.label} sent nothing within {timeout}s")
            self.pump()
        return self.inbox.popleft()

    def send(self, msg: WireMessage) -> None:
        self.sock.sendall(encode(msg))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
