"""Worker process side of the multiprocess runtime.

A worker connects to the coordinator, registers with its pid, loads the job
manifest named in the registration reply, then executes map and reduce
assignments until told to shut down.

:func:`worker_main` is the body of every worker: the coordinator calls it in
the workers it forks, and ``pktm worker --connect`` calls it in fresh
interpreters (the coordinator's fallback when it cannot fork, and external
workers of a ``--listen`` job).
"""

from __future__ import annotations

import os
import pickle
import socket
from pathlib import Path

from . import protocol
from .engine import MapOutputError, execute_map_task, execute_reduce_task
from .heap import keep_task_memory

_DETAIL_LIMIT = 1000


def worker_main(connect: str) -> int:
    """Serve one coordinator; returns a process exit code."""
    keep_task_memory()
    sock = socket.create_connection(protocol.parse_hostport(connect),
                                    timeout=30.0)
    sock.settimeout(None)

    def send(msg: protocol.Message) -> None:
        protocol.send_message(sock, msg)

    try:
        send(protocol.Message(protocol.REGISTER, ident=os.getpid()))
        ack = protocol.recv_message(sock)
        if ack is None or ack.tag != protocol.REGISTER:
            return 1
        with open(ack.detail, "rb") as f:
            manifest = pickle.load(f)
        records = manifest["records"]
        map_fn = manifest["map_fn"]
        chunk_size = manifest["chunk_size"]
        n_partitions = manifest["n_partitions"]
        combiner_enabled = manifest["combiner_enabled"]
        n_map_tasks = manifest["n_map_tasks"]
        spill = Path(manifest["spill_dir"])

        while True:
            try:
                msg = protocol.recv_message(sock)
            except (protocol.ProtocolError, OSError):
                return 1
            if msg is None or msg.tag == protocol.SHUTDOWN:
                return 0
            if msg.tag == protocol.TASK_ASSIGN:
                t = msg.ident
                try:
                    execute_map_task(
                        t, records[t * chunk_size:(t + 1) * chunk_size],
                        map_fn, n_partitions, combiner_enabled, spill)
                    send(protocol.Message(protocol.TASK_DONE, ident=t))
                except Exception as exc:
                    # a retry cannot mend output that breaks the contract
                    rejected = isinstance(exc, MapOutputError)
                    send(protocol.Message(
                        protocol.TASK_DONE, ident=t,
                        status=(protocol.STATUS_REJECTED if rejected
                                else protocol.STATUS_FAILED),
                        detail=repr(exc)[:_DETAIL_LIMIT]))
            elif msg.tag == protocol.REDUCE_ASSIGN:
                p = msg.ident
                try:
                    execute_reduce_task(p, n_map_tasks, spill)
                    send(protocol.Message(protocol.REDUCE_DONE, ident=p))
                except Exception as exc:
                    send(protocol.Message(
                        protocol.REDUCE_DONE, ident=p,
                        status=protocol.STATUS_FAILED,
                        detail=repr(exc)[:_DETAIL_LIMIT]))
            # other tags are ignored
    finally:
        sock.close()
