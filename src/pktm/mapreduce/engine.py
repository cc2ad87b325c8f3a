"""Job orchestration: chunk records into map tasks, spill partitioned
output, reduce each partition with exact sums, merge into key order.

Output is bit-identical across serial, threaded, and multiprocess modes and
any worker count because nothing about scheduling reaches the arithmetic:

* a map task's spill file depends only on the task's records (atomic rename
  makes re-execution idempotent, so at-least-once scheduling has exactly-once
  effect);
* reduce reads map files in task-id order, never completion order;
* every per-key total is the correctly rounded exact sum of its
  contributions, which no summation order can change;
* the optional map-side combiner folds each task's duplicate keys into an
  error-free expansion whose exact sum is unchanged, and passes every key
  the reduce would hand to ``math.fsum`` (inf, nan, overflow risk) through
  as it is, so reduced totals do not depend on whether it ran (see
  :func:`~pktm.exactsum.grouped_expansions` for one overflow caveat).

A map task groups its output by partition with one stable sort of the
partition ids and writes it as one file, ``map_{t:05d}.kvp``, whose region p
holds partition p (see :mod:`~pktm.mapreduce.spill`): a job creates M map
files and R reduced files, not one file per task and partition.  The files
are columnar, so the map side writes its sorted keys and values as they
are, and reduce task p reads region p of every map file straight into one
key array and one value array.  A reduce task never sorts:
:func:`~pktm.exactsum.exact_sums` sums its unsorted partition by error-free
extraction and returns the keys ascending.  The serial reference path sums with
:func:`~pktm.exactsum.grouped_fsum` (``math.fsum`` per key) instead, so the
engine is checked against an independent oracle.  The combiner,
:func:`~pktm.exactsum.grouped_expansions`, runs the same extraction as the
reduce on each map task's unsorted output and emits the digits unrounded.

In multiprocess mode the coordinator forks its local workers, so each one
starts with numpy and pktm already imported.  Forking a process that runs
other threads can deadlock the child, so when another Python thread is
alive, or the platform has no ``os.fork``, each local worker is a fresh
``python -m pktm worker --connect`` interpreter instead.  Either way the
coordinator reaps its own children.  Workers started elsewhere against
``listen`` use that same entry point.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..exactsum import exact_sums, grouped_expansions
from ..model import GridSpec, ImageGrid
from . import protocol
from .heap import keep_task_memory
from .partition import partitions_of
from .spill import read_columns, write_columns

MODES = ("serial", "threaded", "multiprocess")

SPILL_DIR_ENV = "PKTM_SPILL_DIR"
_REGISTRATION_TIMEOUT = 30.0
_JOB_SEQ = 0


class JobError(RuntimeError):
    """A job could not complete within its fault-tolerance budget."""


class ContractViolationError(ValueError):
    """Reduced output broke an ordering or uniqueness guarantee."""


class MapOutputError(ValueError):
    """``map_fn`` returned keys or values that break the map contract.

    ``map_fn`` is deterministic, so running the task again would fail the
    same way: the job fails at once instead of retrying it.
    """


@dataclass(frozen=True)
class JobConfig:
    """Execution knobs for one MapReduce job.

    ``n_partitions`` fixes the reduce fan-out, ``chunk_size`` the number of
    records per map task.  ``spill_dir`` is the root for intermediate files;
    when None, the PKTM_SPILL_DIR environment variable and then the system
    temp dir are used.  A failing task is retried up to ``max_task_retries``
    times beyond its first attempt.
    """

    n_partitions: int = 8
    n_workers: int = 1
    mode: str = "serial"
    combiner_enabled: bool = False
    spill_dir: str | None = None
    task_timeout: float = 30.0
    max_task_retries: int = 2
    chunk_size: int = 16

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_partitions < 1:
            raise ValueError(f"n_partitions must be >= 1, got {self.n_partitions}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not self.task_timeout > 0.0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}")


@dataclass(frozen=True)
class KeyedTotals:
    """Final reduced output: strictly ascending keys with their totals."""

    keys: np.ndarray
    totals: np.ndarray

    def __post_init__(self):
        keys = np.ascontiguousarray(self.keys, dtype=np.uint64)
        totals = np.ascontiguousarray(self.totals, dtype=np.float64)
        if keys.shape != totals.shape or keys.ndim != 1:
            raise ValueError("keys and totals must be 1-D and equally long")
        keys.setflags(write=False)
        totals.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "totals", totals)

    def __len__(self) -> int:
        return int(self.keys.shape[0])


@dataclass(frozen=True)
class JobEvent:
    """Scheduling event passed to a run_job observer callback."""

    kind: str          # worker_registered | worker_lost | map_task_done |
                       # reduce_task_done | task_retried
    ident: int = -1    # task id, partition id, or worker id
    pid: int = 0
    worker_id: int = -1


Observer = Callable[[JobEvent], None]


# ---------------------------------------------------------------------------
# task bodies (shared by every mode and by remote workers)
# ---------------------------------------------------------------------------

def _map_file(spill: Path, task_id: int) -> Path:
    return spill / f"map_{task_id:05d}.kvp"


def _reduce_file(spill: Path, p: int) -> Path:
    return spill / f"reduced_p{p:04d}.kvp"


def execute_map_task(
    task_id: int,
    records: Sequence,
    map_fn: Callable,
    n_partitions: int,
    combiner_enabled: bool,
    spill: Path,
) -> None:
    """Run ``map_fn`` over one chunk of records and spill one file of R
    regions, region p holding partition p.

    Keys must be non-negative integers (an empty key array may have any
    dtype) and match the values in length; anything else raises
    :class:`MapOutputError`.

    One stable sort by partition id groups the output; each partition's
    records keep their emission order (with the combiner enabled, the order
    in which :func:`~pktm.exactsum.grouped_expansions` returns them).
    """
    key_parts = [np.empty(0, dtype=np.uint64)]
    val_parts = [np.empty(0, dtype=np.float64)]
    for record in records:
        keys, values = map_fn(record)
        keys = np.asarray(keys)
        # a cast to uint64 would wrap negative keys without a word; an
        # empty array (float64 from np.asarray([])) holds no key to check
        if keys.size and keys.dtype.kind not in "iu":
            raise MapOutputError(
                f"map task {task_id}: keys must be integers, got {keys.dtype}")
        if keys.size and keys.dtype.kind == "i" and keys.min() < 0:
            raise MapOutputError(
                f"map task {task_id}: keys must be >= 0, got {keys.min()}")
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise MapOutputError(f"map task {task_id}: map_fn must return "
                                 "equal-length 1-D key/value arrays")
        key_parts.append(keys)
        val_parts.append(values)
    keys = np.concatenate(key_parts)
    values = np.concatenate(val_parts)
    if combiner_enabled and keys.size:
        keys, values = grouped_expansions(keys, values)
    parts = partitions_of(keys, n_partitions)
    # count the int64 ids (bincount would cast narrow ones back to intp),
    # then narrow them (uint8 for R <= 256) so that numpy radix-sorts them
    bounds = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(np.bincount(parts, minlength=n_partitions), out=bounds[1:])
    order = np.argsort(parts.astype(np.min_scalar_type(n_partitions - 1)),
                       kind="stable")
    write_columns(_map_file(spill, task_id), keys[order], values[order], bounds)


def execute_reduce_task(p: int, n_map_tasks: int, spill: Path) -> None:
    """Fold partition ``p``: one correctly rounded exact sum per key."""
    keys, values = read_columns(
        [_map_file(spill, t) for t in range(n_map_tasks)], region=p)
    write_columns(_reduce_file(spill, p), *exact_sums(keys, values))


def _merge_partitions(n_partitions: int, spill: Path) -> KeyedTotals:
    """Combine reduced partitions into one strictly ascending key stream."""
    key_parts, total_parts = [], []
    for p in range(n_partitions):
        keys, totals = read_columns([_reduce_file(spill, p)])
        if keys.shape[0] and not np.all(keys[1:] > keys[:-1]):
            raise ContractViolationError(
                f"partition {p} keys are not strictly ascending")
        key_parts.append(keys)
        total_parts.append(totals)
    keys = np.concatenate(key_parts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    totals = np.concatenate(total_parts)[order]
    if keys.shape[0] and not np.all(keys[1:] > keys[:-1]):
        raise ContractViolationError("merged keys are not strictly ascending")
    return KeyedTotals(keys, totals)


# ---------------------------------------------------------------------------
# local (serial / threaded) execution
# ---------------------------------------------------------------------------

def _retry_threaded(
    task_ids: Sequence[int],
    runner: Callable[[int], None],
    n_workers: int,
    max_retries: int,
    observer: Observer | None,
    done_kind: str,
) -> None:
    """Run every task on ``n_workers`` threads (serial mode passes one),
    resubmitting a failed task until it has failed ``max_retries + 1`` times.
    A :class:`MapOutputError` fails the job at once."""
    attempts = {t: 0 for t in task_ids}
    pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        futures = {pool.submit(runner, t): t for t in task_ids}
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for fut in done:
                t = futures.pop(fut)
                exc = fut.exception()
                if exc is None:
                    if observer:
                        observer(JobEvent(done_kind, ident=t))
                    continue
                if isinstance(exc, MapOutputError):
                    raise JobError(f"task {t} rejected: {exc}") from exc
                attempts[t] += 1
                if observer:
                    observer(JobEvent("task_retried", ident=t))
                if attempts[t] > max_retries:
                    raise JobError(
                        f"task {t} failed after {attempts[t]} attempts: {exc}"
                    ) from exc
                futures[pool.submit(runner, t)] = t
    finally:
        # whatever ends the wait (a spent budget, an observer error,
        # Ctrl-C), no queued task may start after it
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# multiprocess coordinator
# ---------------------------------------------------------------------------

@dataclass
class _WorkerState:
    conn: socket.socket
    worker_id: int
    pid: int = 0
    registered: bool = False
    inflight: tuple[str, int] | None = None   # ("map"|"reduce", ident)
    deadline: float = 0.0
    buf: protocol.FrameBuffer = None

    def __post_init__(self):
        self.buf = protocol.FrameBuffer()


class _SpawnedWorker:
    """A ``pktm worker`` in a fresh interpreter, behind the subset of the
    :class:`multiprocessing.Process` interface the coordinator uses."""

    def __init__(self, connect: str):
        self._popen = subprocess.Popen(
            [sys.executable, "-m", "pktm", "worker", "--connect", connect],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.pid = self._popen.pid

    def is_alive(self) -> bool:
        return self._popen.poll() is None

    def join(self, timeout: float | None = None) -> None:
        try:
            self._popen.wait(timeout)
        except subprocess.TimeoutExpired:
            pass

    def kill(self) -> None:
        self._popen.kill()


class _Coordinator:
    """Single-threaded socket event loop driving remote workers."""

    def __init__(
        self,
        config: JobConfig,
        spill: Path,
        n_map_tasks: int,
        listen: str | None,
        spawn_workers: int | None,
        observer: Observer | None,
    ):
        self.config = config
        self.spill = spill
        self.n_map_tasks = n_map_tasks
        self.observer = observer
        host, port = _parse_listen(listen)
        self.listener = socket.create_server((host, port))
        self.listener.setblocking(False)
        self.addr = self.listener.getsockname()[:2]
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.listener, selectors.EVENT_READ, None)
        self.workers: dict[socket.socket, _WorkerState] = {}
        self.procs: list = []   # multiprocessing.Process | _SpawnedWorker
        self.next_worker_id = 0
        self.attempts: dict[tuple[str, int], int] = {}
        self.phase = "map" if n_map_tasks else "reduce"
        self.pending: deque[int] = (
            deque(range(n_map_tasks)) if n_map_tasks
            else deque(range(config.n_partitions)))
        self.done: set[int] = set()
        self.ever_registered = False
        self.started = time.monotonic()
        n_spawn = config.n_workers if spawn_workers is None else spawn_workers
        connect = f"{self.addr[0]}:{self.addr[1]}"
        if hasattr(os, "fork") and threading.active_count() == 1:
            fork = multiprocessing.get_context("fork")
            for _ in range(n_spawn):
                proc = fork.Process(target=self._forked_worker, args=(connect,))
                proc.start()
                self.procs.append(proc)
        else:
            self.procs.extend(_SpawnedWorker(connect) for _ in range(n_spawn))

    def _forked_worker(self, connect: str) -> None:
        """Body of a forked local worker: drop the coordinator's sockets,
        silence stdout/stderr like the spawned interpreter, then serve."""
        from .worker import worker_main

        self.sel.close()
        self.listener.close()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        sys.exit(worker_main(connect))

    # -- event helpers ----------------------------------------------------

    def _emit(self, kind: str, ident: int = -1, state: _WorkerState | None = None):
        if self.observer:
            self.observer(JobEvent(
                kind, ident=ident,
                pid=state.pid if state else 0,
                worker_id=state.worker_id if state else -1))

    def _charge_failure(self, kind_ident: tuple[str, int], cause: str) -> None:
        kind, ident = kind_ident
        if kind == self.phase and ident in self.done:
            return  # a duplicate attempt already delivered this task
        n = self.attempts.get(kind_ident, 0) + 1
        self.attempts[kind_ident] = n
        self._emit("task_retried", ident=ident)
        if n > self.config.max_task_retries:
            raise JobError(
                f"{kind} task {ident} failed after {n} attempts: {cause}")
        self.pending.append(ident)

    def _lose_worker(self, state: _WorkerState, cause: str) -> None:
        try:
            self.sel.unregister(state.conn)
        except (KeyError, ValueError):
            pass
        try:
            state.conn.close()
        finally:
            self.workers.pop(state.conn, None)
        self._emit("worker_lost", ident=state.worker_id, state=state)
        if state.inflight is not None:
            inflight, state.inflight = state.inflight, None
            self._charge_failure(inflight, cause)

    def _assign(self, state: _WorkerState) -> None:
        if state.inflight is not None or not state.registered:
            return
        ident = None
        while self.pending:
            candidate = self.pending.popleft()
            if candidate not in self.done:
                ident = candidate
                break
        if ident is None:
            return
        tag = protocol.TASK_ASSIGN if self.phase == "map" else protocol.REDUCE_ASSIGN
        try:
            protocol.send_message(state.conn, protocol.Message(tag, ident=ident))
        except OSError as exc:
            self.pending.appendleft(ident)
            self._lose_worker(state, f"send failed: {exc}")
            return
        state.inflight = (self.phase, ident)
        state.deadline = time.monotonic() + self.config.task_timeout

    def _assign_all(self) -> None:
        for state in list(self.workers.values()):
            if not self.pending:
                break
            self._assign(state)

    # -- message handling --------------------------------------------------

    def _handle(self, state: _WorkerState, msg: protocol.Message) -> None:
        if msg.tag == protocol.REGISTER:
            state.pid = msg.ident
            state.registered = True
            self.ever_registered = True
            try:
                protocol.send_message(state.conn, protocol.Message(
                    protocol.REGISTER, ident=state.worker_id,
                    detail=str(self.spill / "manifest.pkl")))
            except OSError as exc:
                self._lose_worker(state, f"send failed: {exc}")
                return
            self._emit("worker_registered", ident=state.worker_id, state=state)
            self._assign(state)
            return
        if msg.tag in (protocol.TASK_DONE, protocol.REDUCE_DONE):
            kind = "map" if msg.tag == protocol.TASK_DONE else "reduce"
            expected = (kind, msg.ident)
            if state.inflight == expected:
                state.inflight = None
            if msg.status == protocol.STATUS_REJECTED:
                raise JobError(f"{kind} task {msg.ident} rejected: {msg.detail}")
            if msg.status != protocol.STATUS_OK:
                self._charge_failure(expected, msg.detail or "task reported failure")
            elif kind == self.phase and msg.ident not in self.done:
                self.done.add(msg.ident)
                self._emit(
                    "map_task_done" if kind == "map" else "reduce_task_done",
                    ident=msg.ident, state=state)
            # anything else is a late duplicate report after a retry
            self._maybe_advance_phase()
            self._assign(state)
            return
        raise protocol.ProtocolError(f"unexpected tag {msg.tag} from worker")

    def _maybe_advance_phase(self) -> None:
        if self.phase == "map" and len(self.done) == self.n_map_tasks:
            self.phase = "reduce"
            self.done = set()
            self.pending = deque(range(self.config.n_partitions))
            self._assign_all()

    def _finished(self) -> bool:
        return self.phase == "reduce" and len(self.done) == self.config.n_partitions

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        try:
            while not self._finished():
                self._tick()
        finally:
            self._shutdown()

    def _tick(self) -> None:
        for key, _ in self.sel.select(timeout=0.05):
            if key.fileobj is self.listener:
                self._accept()
            else:
                self._read(self.workers[key.fileobj])
        now = time.monotonic()
        for state in list(self.workers.values()):
            if state.inflight is not None and now > state.deadline:
                self._lose_worker(
                    state,
                    f"timed out after {self.config.task_timeout:.1f}s")
        self._assign_all()
        self._check_liveness(now)

    def _accept(self) -> None:
        try:
            conn, _ = self.listener.accept()
        except BlockingIOError:
            return
        state = _WorkerState(conn=conn, worker_id=self.next_worker_id)
        self.next_worker_id += 1
        self.workers[conn] = state
        conn.setblocking(False)
        self.sel.register(conn, selectors.EVENT_READ, None)

    def _read(self, state: _WorkerState) -> None:
        try:
            data = state.conn.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose_worker(state, f"recv failed: {exc}")
            return
        if not data:
            self._lose_worker(state, "connection closed")
            return
        try:
            for msg in state.buf.feed(data):
                self._handle(state, msg)
        except protocol.ProtocolError as exc:
            self._lose_worker(state, f"protocol error: {exc}")

    def _check_liveness(self, now: float) -> None:
        if self.workers:
            return
        if any(p.is_alive() for p in self.procs):
            return
        if self.procs or self.ever_registered:
            raise JobError("all workers exited with tasks still outstanding")
        if now - self.started > _REGISTRATION_TIMEOUT:
            raise JobError(
                f"no worker registered within {_REGISTRATION_TIMEOUT:.0f}s")

    def _shutdown(self) -> None:
        for state in list(self.workers.values()):
            try:
                protocol.send_message(
                    state.conn, protocol.Message(protocol.SHUTDOWN))
            except OSError:
                pass
            try:
                self.sel.unregister(state.conn)
            except (KeyError, ValueError):
                pass
            state.conn.close()
        self.workers.clear()
        self.sel.close()
        self.listener.close()
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _parse_listen(listen: str | None) -> tuple[str, int]:
    if listen is None:
        return ("127.0.0.1", 0)
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(f"listen address must be host:port, got {listen!r}")
    return (host, int(port))


# ---------------------------------------------------------------------------
# job entry points
# ---------------------------------------------------------------------------

def _resolve_spill_root(config: JobConfig) -> Path:
    if config.spill_dir:
        return Path(config.spill_dir)
    env = os.environ.get(SPILL_DIR_ENV)
    if env:
        return Path(env)
    return Path(tempfile.gettempdir())


def run_job(
    records: Sequence,
    map_fn: Callable,
    config: JobConfig,
    *,
    listen: str | None = None,
    spawn_workers: int | None = None,
    observer: Observer | None = None,
) -> KeyedTotals:
    """Execute one MapReduce job and return globally key-ordered totals.

    ``map_fn(record)`` must return a (uint64 keys, float64 values) array
    pair and be deterministic; in multiprocess mode both it and the records
    must be picklable.  The reduced key stream is checked to be strictly
    ascending before it is returned.
    """
    global _JOB_SEQ
    records = list(records)
    n_map_tasks = -(-len(records) // config.chunk_size) if records else 0
    root = _resolve_spill_root(config)
    _JOB_SEQ += 1
    spill = root / f"job-{os.getpid()}-{_JOB_SEQ}-{int(time.monotonic_ns())}"
    spill.mkdir(parents=True, exist_ok=False)
    if config.mode == "multiprocess":
        manifest = {
            "records": records,
            "map_fn": map_fn,
            "n_partitions": config.n_partitions,
            "combiner_enabled": config.combiner_enabled,
            "chunk_size": config.chunk_size,
            "n_map_tasks": n_map_tasks,
            "spill_dir": str(spill),
        }
        with open(spill / "manifest.pkl", "wb") as f:
            pickle.dump(manifest, f)
        _Coordinator(
            config, spill, n_map_tasks, listen, spawn_workers, observer
        ).run()
    else:
        keep_task_memory()

        def run_map(t: int) -> None:
            chunk = records[t * config.chunk_size:(t + 1) * config.chunk_size]
            execute_map_task(t, chunk, map_fn, config.n_partitions,
                             config.combiner_enabled, spill)

        def run_reduce(p: int) -> None:
            execute_reduce_task(p, n_map_tasks, spill)

        n_workers = 1 if config.mode == "serial" else config.n_workers
        _retry_threaded(range(n_map_tasks), run_map, n_workers,
                        config.max_task_retries, observer, "map_task_done")
        _retry_threaded(range(config.n_partitions), run_reduce, n_workers,
                        config.max_task_retries, observer, "reduce_task_done")
    totals = _merge_partitions(config.n_partitions, spill)
    # on failure the exception has already propagated, leaving the spill
    # directory behind for post-mortem inspection
    shutil.rmtree(spill, ignore_errors=True)
    return totals


def reassemble_image(totals: KeyedTotals, grid: GridSpec) -> ImageGrid:
    """Scatter reduced totals onto a grid; keys absent from the stream are 0.

    Raises :class:`ContractViolationError` on duplicate, descending, or
    out-of-range keys.
    """
    keys = totals.keys
    if keys.shape[0] and not np.all(keys[1:] > keys[:-1]):
        raise ContractViolationError("keys are not strictly ascending")
    if keys.shape[0] and int(keys[-1]) >= grid.n_cells:
        raise ContractViolationError(
            f"key {int(keys[-1])} outside grid with {grid.n_cells} cells")
    flat = np.zeros(grid.n_cells, dtype=np.float64)
    flat[keys.astype(np.int64)] = totals.totals
    return ImageGrid(grid, flat.reshape(
        grid.n_offset_bins, grid.nx, grid.ntau))
