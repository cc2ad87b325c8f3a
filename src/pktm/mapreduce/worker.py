"""Worker process side of the multiprocess runtime.

A worker connects to the coordinator, registers with its pid, and loads the
job's task object (the coordinator's pickled ``_Tasks``) from the manifest
path in the registration reply.  It then runs each assignment through that
object and answers it with the one reply tag :data:`~.protocol.REPLY` names,
until told to shut down.  A worker must come from the same pktm version as
its coordinator: the manifest is a pickle of the coordinator's classes, and
the wire layout carries no version.

:func:`worker_main` is the body of every worker: the coordinator calls it in
the workers it forks, and ``pktm worker --connect`` calls it in fresh
interpreters (the coordinator's fallback when it cannot fork, and external
workers of a ``--listen`` job).
"""

from __future__ import annotations

import os
import pickle
import socket

from . import protocol
from .engine import MapOutputError
from .heap import keep_task_memory

_DETAIL_LIMIT = 1000


def worker_main(connect: str) -> int:
    """Serve one coordinator; returns a process exit code."""
    keep_task_memory()
    sock = socket.create_connection(protocol.parse_hostport(connect),
                                    timeout=30.0)
    sock.settimeout(None)
    try:
        protocol.send_message(
            sock, protocol.Message(protocol.REGISTER, ident=os.getpid()))
        ack = protocol.recv_message(sock)
        if ack is None or ack.tag != protocol.REGISTER:
            return 1
        with open(ack.detail, "rb") as f:
            tasks = pickle.load(f)
        run = {protocol.TASK_ASSIGN: tasks.run_map,
               protocol.REDUCE_ASSIGN: tasks.run_reduce}

        while True:
            try:
                msg = protocol.recv_message(sock)
            except (protocol.ProtocolError, OSError):
                return 1
            if msg is None or msg.tag == protocol.SHUTDOWN:
                return 0
            if msg.tag not in run:
                continue    # other tags are ignored
            reply = protocol.Message(protocol.REPLY[msg.tag], ident=msg.ident)
            try:
                run[msg.tag](msg.ident)
            except Exception as exc:
                # a retry cannot mend output that breaks the map contract
                reply.status = (protocol.STATUS_REJECTED
                                if isinstance(exc, MapOutputError)
                                else protocol.STATUS_FAILED)
                reply.detail = repr(exc)[:_DETAIL_LIMIT]
            protocol.send_message(sock, reply)
    finally:
        sock.close()
