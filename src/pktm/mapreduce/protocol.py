"""Wire protocol between the job coordinator and worker processes.

Every message is one length-prefixed frame: u32 little-endian payload size,
then the payload.  A payload starts with a one-byte message tag; integers are
little-endian and paths travel as u16 length + UTF-8 bytes.

Tags::

    0 REGISTER       worker -> coordinator: u32 pid
                     coordinator -> worker: u32 worker_id, manifest path
    1 TASK_ASSIGN    u32 map task id
    2 TASK_DONE      u32 map task id, u8 status, u16 detail len, detail
    3 REDUCE_ASSIGN  u32 partition id
    4 REDUCE_DONE    u32 partition id, u8 status, u16 detail len, detail
    5 SHUTDOWN       (empty)

Status 0 means success; 1 carries a failure description in ``detail``, and
the task may be retried; 2 (map tasks only) means ``map_fn``'s output broke
the map contract, which a retry cannot mend, so the job fails at once.
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

_LEN = struct.Struct("<I")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
MAX_FRAME = 1 << 20

STATUS_OK = 0
STATUS_FAILED = 1
STATUS_REJECTED = 2


class ProtocolError(RuntimeError):
    """Malformed or oversized frame on the coordinator/worker link."""


@dataclass
class Message:
    tag: int
    ident: int = 0        # pid, worker_id, task id, or partition id per tag
    status: int = STATUS_OK
    detail: str = ""      # failure description or manifest path

    def encode(self) -> bytes:
        if self.tag == SHUTDOWN:
            payload = bytes([self.tag])
        elif self.tag == REGISTER:
            text = self.detail.encode("utf-8")
            payload = (bytes([self.tag]) + _U32.pack(self.ident)
                       + _U16.pack(len(text)) + text)
        elif self.tag in (TASK_ASSIGN, REDUCE_ASSIGN):
            payload = bytes([self.tag]) + _U32.pack(self.ident)
        elif self.tag in (TASK_DONE, REDUCE_DONE):
            text = self.detail.encode("utf-8")
            payload = (bytes([self.tag]) + _U32.pack(self.ident)
                       + bytes([self.status]) + _U16.pack(len(text)) + text)
        else:
            raise ProtocolError(f"unknown message tag {self.tag}")
        return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Message:
    if not payload:
        raise ProtocolError("empty payload")
    tag = payload[0]
    body = payload[1:]
    try:
        if tag == SHUTDOWN:
            if body:
                raise ProtocolError(f"tag {tag} carries unexpected body")
            return Message(tag)
        if tag == REGISTER:
            ident = _U32.unpack_from(body, 0)[0]
            n = _U16.unpack_from(body, 4)[0]
            text = body[6:6 + n].decode("utf-8")
            if len(body) != 6 + n:
                raise ProtocolError("REGISTER length mismatch")
            return Message(tag, ident=ident, detail=text)
        if tag in (TASK_ASSIGN, REDUCE_ASSIGN):
            if len(body) != 4:
                raise ProtocolError(f"tag {tag} body must be 4 bytes")
            return Message(tag, ident=_U32.unpack_from(body, 0)[0])
        if tag in (TASK_DONE, REDUCE_DONE):
            ident = _U32.unpack_from(body, 0)[0]
            status = body[4]
            n = _U16.unpack_from(body, 5)[0]
            text = body[7:7 + n].decode("utf-8")
            if len(body) != 7 + n:
                raise ProtocolError(f"tag {tag} length mismatch")
            return Message(tag, ident=ident, status=status, detail=text)
    except struct.error as exc:
        raise ProtocolError(f"short body for tag {tag}: {exc}") from None
    raise ProtocolError(f"unknown message tag {tag}")


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
