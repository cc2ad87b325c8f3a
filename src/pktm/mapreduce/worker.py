"""Worker process side of the multiprocess runtime.

A worker connects to the coordinator, registers with its pid, and loads the
job's task object (the coordinator's pickled ``_Tasks``) from the manifest
path in the registration reply; a manifest it cannot open or unpickle
fails the registration.  It then runs each assignment through that object
and answers it with ``DONE`` and the assignment's ident, until told to shut
down.  A worker that registers after the job has ended is answered
``SHUTDOWN`` instead, and exits 0 without opening anything.
A worker must come from the same pktm version as its coordinator: the
manifest is a pickle of the coordinator's classes, and the wire layout
carries no version.

:func:`worker_main` is the body of every worker: the coordinator calls it in
the workers it forks, and ``pktm worker --connect`` calls it in fresh
interpreters (the coordinator's fallback when it cannot fork, and the
workers of a ``--listen`` job, which forks none).
"""

from __future__ import annotations

import os
import pickle
import socket
import sys
import time

from . import protocol
from .heap import keep_task_memory

_DETAIL_LIMIT = 1000
_RETRY = 0.05    # seconds between connect attempts


def worker_main(connect: str) -> int:
    """Serve one coordinator, retrying a refused connect for up to
    :data:`~.protocol.CONNECT_TIMEOUT` seconds; returns an exit code."""
    keep_task_memory()
    address = protocol.parse_hostport(connect)
    deadline = time.monotonic() + protocol.CONNECT_TIMEOUT
    while True:
        try:
            sock = socket.create_connection(
                address, timeout=max(deadline - time.monotonic(), _RETRY))
            break
        except ConnectionRefusedError:
            if time.monotonic() + _RETRY > deadline:
                raise
            time.sleep(_RETRY)
    sock.settimeout(None)
    try:
        protocol.send_message(
            sock, protocol.Message(protocol.REGISTER, ident=os.getpid()))
        ack = protocol.recv_message(sock)
        if ack is not None and ack.tag == protocol.SHUTDOWN:
            return 0    # stood by until the job ended
        if ack is None or ack.tag != protocol.REGISTER:
            return 1
        try:
            with open(ack.detail, "rb") as f:
                tasks = pickle.load(f)
        except Exception as exc:    # a damaged pickle raises many kinds
            sys.stderr.write(
                f"error: cannot load the manifest {ack.detail}: {exc!r}\n")
            return 1
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
            reply = protocol.Message(protocol.DONE, ident=msg.ident)
            try:
                run[msg.tag](msg.ident)
            except Exception as exc:
                # a retry cannot mend output that breaks the map contract
                reply.status = (protocol.STATUS_REJECTED
                                if isinstance(exc, protocol.MapOutputError)
                                else protocol.STATUS_FAILED)
                reply.detail = repr(exc)[:_DETAIL_LIMIT]
            protocol.send_message(sock, reply)
    finally:
        sock.close()
