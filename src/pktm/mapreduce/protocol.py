"""Wire protocol between the job coordinator and worker processes.

Every message is one length-prefixed frame: u32 little-endian payload size,
then the payload.  Every payload has one layout, whatever its tag: u8 tag,
u32 ident, u8 status, u16 detail length (``<BIBH``, 8 bytes), then the
detail as UTF-8 bytes.  A field that a tag does not use is 0 or empty.
A frame that declares more than :data:`MAX_FRAME` bytes is refused unread.
The layout carries no version: a worker and its coordinator must come from
the same pktm version.

Tags::

    0 REGISTER       worker -> coordinator: ident = pid
                     coordinator -> worker: ident = worker id,
                                            detail = manifest path
    1 TASK_ASSIGN    ident = map task id
    2 TASK_DONE      ident = map task id, status, detail
    3 REDUCE_ASSIGN  ident = partition id
    4 REDUCE_DONE    ident = partition id, status, detail
    5 SHUTDOWN       nothing; also answers a REGISTER that comes after
                     the job has ended

:data:`REPLY` names the one tag that answers each assignment.  Status 0
means success; 1 carries a failure description in ``detail``, and the task
may be retried; 2 (map tasks only) means ``map_fn``'s output broke the map
contract (:class:`MapOutputError`), which a retry cannot mend, so the job
fails at once.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

REGISTER = 0
TASK_ASSIGN = 1
TASK_DONE = 2
REDUCE_ASSIGN = 3
REDUCE_DONE = 4
SHUTDOWN = 5

_TAGS = frozenset(range(6))
REPLY = {TASK_ASSIGN: TASK_DONE, REDUCE_ASSIGN: REDUCE_DONE}

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<BIBH")    # tag, ident, status, detail length
MAX_FRAME = _HEAD.size + 0xFFFF    # the longest payload the layout encodes
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
    """Malformed or oversized frame on the coordinator/worker link."""


@dataclass
class Message:
    tag: int
    ident: int = 0        # pid, worker_id, task id, or partition id per tag
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
        return _LEN.pack(_HEAD.size + len(text)) + head + text


def decode_payload(payload: bytes) -> Message:
    """Parse one frame's payload; anything malformed raises
    :class:`ProtocolError`."""
    if not payload:
        raise ProtocolError("empty payload")
    if payload[0] not in _TAGS:
        raise ProtocolError(f"unknown message tag {payload[0]}")
    if len(payload) < _HEAD.size:
        raise ProtocolError(f"short payload of {len(payload)} bytes")
    tag, ident, status, n = _HEAD.unpack_from(payload)
    if len(payload) != _HEAD.size + n:
        raise ProtocolError(f"tag {tag} declares {n} detail bytes but "
                            f"carries {len(payload) - _HEAD.size}")
    try:
        detail = payload[_HEAD.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"tag {tag} detail is not UTF-8: {exc}") from None
    return Message(tag, ident, status, detail)


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
    """Blocking read of one message; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    size = _LEN.unpack(header)[0]
    if size > MAX_FRAME:
        raise ProtocolError(f"frame of {size} bytes exceeds limit")
    payload = _recv_exact(sock, size)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload)


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
