"""Socket helpers shared by the admin server and miner nodes.

Both bind their listening socket through listener(), which checks the
port. All connections speak the length-prefixed frame protocol.
BufferedConn wraps one socket with frame reassembly and a message inbox,
and it alone sets the socket's mode: blocking, with IO_TIMEOUT bounding
each send. It reads only once select has reported the socket readable:
callers either wait on it for the next message (request/response
phases), or select over connections themselves and pump each readable
one (the admin's registration and mining phases, the miner's admin).
LazyConn is the one exception, a connection that is only read, and in
bulk: a peer's BLOCK stream, which the miner drains without blocking
when its own step needs it. Its socket is non-blocking, and select
reports it readable only once LOW_WATER bytes wait in it, or at EOF.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque

from .protocol import FrameReader, WireMessage, encode

IO_TIMEOUT = 30.0  # wall seconds that any one send, or one read, may block
# SO_RCVLOWAT of a LazyConn, in bytes: about 80 BLOCK frames, an eighth of
# loopback's 128 KiB receive buffer, so a reader that waits for it is woken
# well before a full buffer would cut its sender's non-blocking sends
LOW_WATER = 16 * 1024


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

    timeout = IO_TIMEOUT  # the socket's mode, set once, when the connection is built

    def __init__(self, sock: socket.socket):
        sock.settimeout(self.timeout)
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


class LazyConn(BufferedConn):
    """A connection its owner only reads, in bulk and when it chooses.

    The socket is non-blocking, because a timeout-mode recv polls before it
    reads, and that poll waits on the low-water mark. select reports the
    socket readable only once LOW_WATER bytes wait in it, or at its EOF.
    """

    timeout = 0.0

    def __init__(self, sock: socket.socket):
        super().__init__(sock)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVLOWAT, LOW_WATER)

    def drain(self) -> None:
        """Read every byte the socket holds now; decoded messages land in the inbox.

        Raises ConnectionClosed at EOF, after the messages read before it.
        """
        while True:
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                return
            if not chunk:
                raise ConnectionClosed(f"{self.label} closed its connection")
            self.inbox.extend(self.reader.feed(chunk))
