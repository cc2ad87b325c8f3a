"""Wire protocol between the job coordinator and worker processes.

Every message is one frame with one layout, whatever its tag: an 8-byte
head of u8 tag, u32 ident, u8 status and u16 detail length (``<BIBH``,
little-endian), then exactly that many detail bytes of UTF-8.  The head
states the frame's length once, and its u16 caps a frame at 8 + 65,535
bytes.  A field that a tag does not use is 0 or empty.  The layout
carries no version: a worker and its coordinator must come from the same
pktm version.

Tags::

    0 REGISTER       worker -> coordinator: ident = pid
                     coordinator -> worker: detail = manifest path
    1 TASK_ASSIGN    ident = map task id
    2 REDUCE_ASSIGN  ident = partition id
    3 DONE           answers either assignment: its ident, status, detail
    4 SHUTDOWN       nothing; also answers a REGISTER that comes after
                     the job has ended

Status 0 means success; 1 carries a failure description in ``detail``, and
the task may be retried; 2 (map tasks only) means ``map_fn``'s output broke
the map contract (:class:`MapOutputError`), which a retry cannot mend, so
the job fails at once.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

REGISTER = 0
TASK_ASSIGN = 1
REDUCE_ASSIGN = 2
DONE = 3
SHUTDOWN = 4

_TAGS = frozenset(range(5))

_HEAD = struct.Struct("<BIBH")    # tag, ident, status, detail length
CONNECT_TIMEOUT = 30.0    # seconds a worker retries a refused connect

STATUS_OK = 0
STATUS_FAILED = 1
STATUS_REJECTED = 2


class MapOutputError(ValueError):
    """``map_fn`` returned keys or values that break the map contract.

    ``map_fn`` is deterministic, so running the task again would fail the
    same way: the job fails at once instead of retrying it.
    """


class ProtocolError(RuntimeError):
    """Malformed or truncated frame on the coordinator/worker link."""


@dataclass
class Message:
    tag: int
    ident: int = 0        # pid, task id, or partition id per tag
    status: int = STATUS_OK
    detail: str = ""      # failure description or manifest path

    def encode(self) -> bytes:
        if self.tag not in _TAGS:
            raise ProtocolError(f"unknown message tag {self.tag}")
        text = self.detail.encode("utf-8")
        try:
            head = _HEAD.pack(self.tag, self.ident, self.status, len(text))
        except struct.error as exc:
            raise ProtocolError(f"cannot encode tag {self.tag}: {exc}") from None
        return head + text


def parse_hostport(text: str) -> tuple[str, int]:
    """Split ``host:port`` at its last colon."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in {text!r}") from None


def send_message(sock: socket.socket, msg: Message) -> None:
    sock.sendall(msg.encode())


def recv_message(sock: socket.socket) -> Message | None:
    """Blocking read of one message; None on clean EOF at a frame boundary.

    Anything malformed raises :class:`ProtocolError`; an unknown tag does
    so before any detail byte is read.
    """
    head = _recv_exact(sock, _HEAD.size)
    if head is None:
        return None
    tag, ident, status, n = _HEAD.unpack(head)
    if tag not in _TAGS:
        raise ProtocolError(f"unknown message tag {tag}")
    detail = _recv_exact(sock, n)
    if detail is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        return Message(tag, ident, status, detail.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"tag {tag} detail is not UTF-8: {exc}") from None


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise ProtocolError("connection closed mid-frame")
            return None
        buf.extend(chunk)
    return bytes(buf)
