"""Job orchestration: chunk records into map tasks, spill partitioned
output, reduce each partition with exact sums, merge into key order.
The engine moves uint64 keys and float64 values and never decodes a key:
:func:`pktm.pipeline.reassemble_image` turns migration's keys into cells.

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
extraction, certifying most keys after one extraction and handing the rest to
``math.fsum``, and returns the keys ascending.  The serial reference path sums
every key with :func:`~pktm.exactsum.grouped_fsum` (``math.fsum`` per key),
so the engine is checked against that oracle.  The combiner,
:func:`~pktm.exactsum.grouped_expansions`, runs a full error-free extraction
on each map task's unsorted output and emits the digits unrounded.

One scheduler, :func:`_retry_threaded`, runs every mode: all map tasks,
then all reduce tasks, on runner threads with one retry budget.  Only the
runner differs.  Serial and threaded runners run the task body in this
process.  A multiprocess job has ``n_workers`` runners, one per task slot,
each of which hands its task to an idle worker and waits for the reply (see
:class:`_WorkerPool`).

A multiprocess job forks ``n_workers`` local workers before any runner
thread starts, so each one starts with numpy and pktm already imported.
Forking a process that runs other threads can deadlock the child, so when
another Python thread is alive, or the platform has no ``os.fork``, each
local worker is a fresh ``python -m pktm worker --connect`` interpreter
instead.  Either way the job reaps its children, then removes its spill
directory.  A job given ``listen`` starts none: it serves external
``pktm worker --connect`` processes, which may start before it listens.

Forking stays the default although Python 3.12+ warns on every forked
start: numpy's OpenBLAS keeps a thread alive that ``threading`` does not
see.  On a 2-vCPU Xeon (Python 3.11), a fresh interpreter that imports
numpy and :mod:`pktm.mapreduce.worker` costs 0.25-0.34 s of wall time and
0.24-0.34 s of CPU, so spawning the two workers of the ``migrate_mp``
benchmark would add about half to its ``cpu_s`` (median 1.16 s).  A
``forkserver`` worker would start without that cost, but it is a child of
the server, not of the coordinator, so the coordinator's CPU time (its
own and its reaped children's) would stop counting the workers' work.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import queue
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..exactsum import exact_sums, grouped_expansions
from . import protocol
from .heap import keep_task_memory
from .partition import partitions_of
from .protocol import MapOutputError
from .spill import read_columns, write_columns
from .worker import worker_main

MODES = ("serial", "threaded", "multiprocess")

SPILL_DIR_ENV = "PKTM_SPILL_DIR"
_ACCEPT_POLL = 0.05     # seconds a runner waits in accept between checks


class JobError(RuntimeError):
    """A job could not complete within its fault-tolerance budget."""


class ContractViolationError(ValueError):
    """Reduced output broke an ordering or uniqueness guarantee."""


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
        # socket.settimeout raises OverflowError above threading.TIMEOUT_MAX
        if not 0.0 < self.task_timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"task_timeout must be > 0 and at most "
                             f"{threading.TIMEOUT_MAX:.0f} s, "
                             f"got {self.task_timeout}")
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
        if not np.all(keys[1:] > keys[:-1]):
            raise ContractViolationError("keys are not strictly ascending")
        keys.setflags(write=False)
        totals.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "totals", totals)

    def __len__(self) -> int:
        return int(self.keys.shape[0])


@dataclass(frozen=True)
class JobEvent:
    """Scheduling event passed to a run_job observer callback; see
    :func:`run_job` for the threads and the order of the calls."""

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
    key_parts, val_parts = [], []
    for record in records:
        keys, values = map_fn(record)
        keys = np.asarray(keys)
        values = np.asarray(values)
        # a cast to uint64 would wrap negative keys without a word; an
        # empty array (float64 from np.asarray([])) holds no key to check
        if keys.size and keys.dtype.kind not in "iu":
            raise MapOutputError(
                f"map task {task_id}: keys must be integers, got {keys.dtype}")
        if keys.size and keys.dtype.kind == "i" and keys.min() < 0:
            raise MapOutputError(
                f"map task {task_id}: keys must be >= 0, got {keys.min()}")
        if keys.shape != values.shape or keys.ndim != 1:
            raise MapOutputError(f"map task {task_id}: map_fn must return "
                                 "equal-length 1-D key/value arrays")
        key_parts.append(keys)
        val_parts.append(values)
    n = sum(k.shape[0] for k in key_parts)
    keys = np.empty(n, dtype=np.uint64)
    values = np.empty(n, dtype=np.float64)
    # each record's output is cast into its run of the task's arrays, last
    # record first, and dropped once copied; each array below is dropped as
    # soon as it is used too, which lowers the task's peak memory and
    # spills the same bytes
    end = n
    while key_parts:
        start = end - key_parts[-1].shape[0]
        keys[start:end] = key_parts.pop()
        values[start:end] = val_parts.pop()
        end = start
    if combiner_enabled and keys.size:
        keys, values = grouped_expansions(keys, values)
    parts = partitions_of(keys, n_partitions)
    # count the int64 ids (bincount would cast narrow ones back to intp),
    # then narrow them (uint8 for R <= 256) so that numpy radix-sorts them
    bounds = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(np.bincount(parts, minlength=n_partitions), out=bounds[1:])
    order = np.argsort(parts.astype(np.min_scalar_type(n_partitions - 1)),
                       kind="stable")
    del parts
    keys = keys[order]
    values = values[order]
    del order
    write_columns(_map_file(spill, task_id), keys, values, bounds)


def execute_reduce_task(p: int, n_map_tasks: int, spill: Path) -> None:
    """Fold partition ``p``: one correctly rounded exact sum per key."""
    keys, values = read_columns(
        [_map_file(spill, t) for t in range(n_map_tasks)], region=p)
    write_columns(_reduce_file(spill, p), *exact_sums(keys, values))


@dataclass(frozen=True)
class _Tasks:
    """The task bodies of one job and everything they read: serial and
    threaded runners call its methods, and a multiprocess job pickles it
    whole as the manifest from which each worker calls the same methods."""

    records: list
    map_fn: Callable
    n_partitions: int
    combiner_enabled: bool
    chunk_size: int
    spill: Path

    @property
    def n_map_tasks(self) -> int:
        return -(-len(self.records) // self.chunk_size)

    def run_map(self, t: int) -> None:
        chunk = self.records[t * self.chunk_size:(t + 1) * self.chunk_size]
        execute_map_task(t, chunk, self.map_fn, self.n_partitions,
                         self.combiner_enabled, self.spill)

    def run_reduce(self, p: int) -> None:
        execute_reduce_task(p, self.n_map_tasks, self.spill)


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
    keys = keys[order]    # frees the unsorted keys before the totals' copy
    totals = np.concatenate(total_parts)[order]
    return KeyedTotals(keys, totals)


# ---------------------------------------------------------------------------
# the scheduler, shared by every mode
# ---------------------------------------------------------------------------

class _Fatal(Exception):
    """A task runner's error that no retry can mend: the scheduler fails
    the job with ``error`` at once."""

    def __init__(self, error: BaseException):
        super().__init__(error)
        self.error = error


def _retry_threaded(
    kind: str,
    task_ids: Sequence[int],
    runner: Callable[[int], tuple[int, int] | None],
    n_slots: int,
    max_retries: int,
    observer: Observer | None,
    abort: Callable[[], None] | None = None,
) -> None:
    """Run every ``kind`` ("map" or "reduce") task on ``n_slots`` runner
    threads, resubmitting a failed task until it has failed
    ``max_retries + 1`` times.

    ``runner(t)`` returns the (pid, worker_id) of the worker process that
    ran task t, or None when the task ran in this process.  A
    :class:`MapOutputError` or :class:`_Fatal` fails the job at once.
    Whatever fails the job calls ``abort`` before the runner threads are
    joined, so that no runner waits out a task timeout.
    """
    attempts = {t: 0 for t in task_ids}
    finished = queue.SimpleQueue()    # (task id, future) of each attempt
    pool = ThreadPoolExecutor(max_workers=n_slots)

    def submit(t: int) -> None:
        pool.submit(runner, t).add_done_callback(
            lambda fut: finished.put((t, fut)))

    try:
        for t in task_ids:
            submit(t)
        left = len(attempts)
        while left:
            t, fut = finished.get()
            exc = fut.exception()
            if exc is None:
                left -= 1
                if observer:
                    pid, worker_id = fut.result() or (0, -1)
                    observer(JobEvent(f"{kind}_task_done", ident=t,
                                      pid=pid, worker_id=worker_id))
                continue
            if isinstance(exc, _Fatal):
                raise exc.error
            if isinstance(exc, MapOutputError):
                raise JobError(f"{kind} task {t} rejected: {exc}") from exc
            attempts[t] += 1
            if observer:
                observer(JobEvent("task_retried", ident=t))
            if attempts[t] > max_retries:
                raise JobError(f"{kind} task {t} failed after "
                               f"{attempts[t]} attempts: {exc}") from exc
            submit(t)
    except BaseException:
        if abort:
            abort()
        raise
    finally:
        # whatever ends the wait (a spent budget, an observer error,
        # Ctrl-C), no queued task may start after it
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# multiprocess workers
# ---------------------------------------------------------------------------

class _SpawnedWorker:
    """A ``pktm worker`` in a fresh interpreter, behind the subset of the
    :class:`multiprocessing.Process` interface the pool uses."""

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


class _Worker(NamedTuple):
    conn: socket.socket
    pid: int
    worker_id: int


class _WorkerPool:
    """The worker processes of a multiprocess job and their connections.

    Making the pool writes the manifest, the pickled :class:`_Tasks`, then
    opens the listener and, unless it listens on a given address, starts
    the local workers, before any runner thread exists.  :meth:`run_task`
    is the task runner of :func:`_retry_threaded`: it runs one task on an
    idle registered worker, or registers the next worker that connects.
    It reports ``worker_registered`` before the worker's first task and
    ``worker_lost`` when a worker fails it.
    """

    def __init__(self, tasks: _Tasks, config: JobConfig, listen: str | None,
                 observer: Observer | None):
        self.task_timeout = config.task_timeout
        self.manifest = str(tasks.spill / "manifest.pkl")
        with open(self.manifest, "wb") as f:
            pickle.dump(tasks, f)
        self._observer = observer
        self._notify_lock = threading.Lock()
        self.listener = socket.create_server(
            protocol.parse_hostport(listen or "127.0.0.1:0"))
        self.listener.settimeout(_ACCEPT_POLL)
        self._lock = threading.Lock()      # guards the six fields below
        self._conns: set[socket.socket] = set()   # accepted and not lost
        self._idle: list[_Worker] = []
        self._next_id = 0
        self._ever_registered = False
        self._closed = False
        self._aborted = False
        self._started = time.monotonic()
        n_local = 0 if listen else config.n_workers
        self.procs: list = []   # multiprocessing.Process | _SpawnedWorker
        host, port = self.listener.getsockname()[:2]
        connect = f"{host}:{port}"
        if hasattr(os, "fork") and threading.active_count() == 1:
            fork = multiprocessing.get_context("fork")
            for _ in range(n_local):
                proc = fork.Process(target=self._forked_worker, args=(connect,))
                proc.start()
                self.procs.append(proc)
        else:
            self.procs.extend(_SpawnedWorker(connect) for _ in range(n_local))

    def _forked_worker(self, connect: str) -> None:
        """Body of a forked local worker: drop the job's listener, silence
        stdout/stderr like the spawned interpreter, then serve."""
        self.listener.close()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        sys.exit(worker_main(connect))

    def notify(self, event: JobEvent) -> None:
        """Pass ``event`` to the observer, one call at a time; once the job
        has ended, nothing more is reported."""
        if self._observer:
            with self._notify_lock:
                if not self._closed:
                    self._observer(event)

    def _report(self, kind: str, worker: _Worker) -> None:
        try:
            self.notify(JobEvent(kind, ident=worker.worker_id,
                                 pid=worker.pid, worker_id=worker.worker_id))
        except Exception as exc:
            raise _Fatal(exc) from exc   # an observer error fails the job

    def run_task(self, tag: int, ident: int) -> tuple[int, int]:
        """Assign one task to a worker and wait for its single reply.

        A worker that fails to answer within the task timeout, or answers
        anything but that task's result, is dropped.
        """
        worker = self._acquire()
        try:
            protocol.send_message(worker.conn, protocol.Message(tag, ident=ident))
            reply = protocol.recv_message(worker.conn)
            if reply is None:
                raise protocol.ProtocolError("connection closed")
            if reply.tag != protocol.DONE or reply.ident != ident:
                raise protocol.ProtocolError(
                    f"reply tag {reply.tag} for {reply.ident} does not "
                    f"answer tag {tag} for {ident}")
        except (OSError, protocol.ProtocolError) as exc:
            self._drop(worker)
            cause = (f"timed out after {self.task_timeout:.1f}s"
                     if isinstance(exc, TimeoutError) else exc)
            raise RuntimeError(
                f"worker {worker.worker_id} lost: {cause}") from exc
        with self._lock:
            self._idle.append(worker)
        if reply.status == protocol.STATUS_REJECTED:
            raise MapOutputError(reply.detail)
        if reply.status != protocol.STATUS_OK:
            raise RuntimeError(reply.detail or "task reported failure")
        return worker.pid, worker.worker_id

    def _acquire(self) -> _Worker:
        """An idle registered worker, else the next worker to register.

        An idle worker sends nothing, so one whose connection is readable
        has hung up: it is dropped without costing a task a retry.  Workers
        standing by in the listen backlog are registered before the job is
        declared dead, so they take over from lost ones.
        """
        while True:
            with self._lock:
                if self._closed:
                    raise JobError("the job has ended")
                worker = self._idle.pop() if self._idle else None
            if worker is not None:
                worker.conn.setblocking(False)
                try:
                    worker.conn.recv(1, socket.MSG_PEEK)
                except BlockingIOError:
                    worker.conn.settimeout(self.task_timeout)
                    return worker
                except OSError:
                    pass
                self._drop(worker)
                continue
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                with self._lock:
                    self._check_liveness()
                continue
            worker = self._register(conn)
            if worker is not None:
                return worker

    def _drop(self, worker: _Worker) -> None:
        """Close a lost worker's connection and report ``worker_lost``."""
        with self._lock:
            self._conns.discard(worker.conn)
        worker.conn.close()
        self._report("worker_lost", worker)

    def _register(self, conn: socket.socket) -> _Worker | None:
        """Read the ``REGISTER`` of the worker on ``conn`` and its pid, and
        answer with the manifest path.  None when it breaks off, or when
        the job has ended: such a worker is answered ``SHUTDOWN`` and its
        connection closed."""
        with self._lock:
            closed = self._closed
            if not closed:
                self._conns.add(conn)
                worker_id = self._next_id
                self._next_id += 1
        try:
            conn.settimeout(self.task_timeout)
            hello = protocol.recv_message(conn)
            if hello is None or hello.tag != protocol.REGISTER:
                raise protocol.ProtocolError("expected REGISTER")
            reply = (protocol.Message(protocol.SHUTDOWN) if closed else
                     protocol.Message(protocol.REGISTER, detail=self.manifest))
            protocol.send_message(conn, reply)
        except (OSError, protocol.ProtocolError):
            closed = True
        if closed:
            with self._lock:
                self._conns.discard(conn)
            conn.close()
            return None
        with self._lock:
            self._ever_registered = True
        worker = _Worker(conn, hello.ident, worker_id)
        self._report("worker_registered", worker)
        return worker

    def _check_liveness(self) -> None:
        """Fail the job when no worker is left to run its tasks.  Called
        with the lock held."""
        if self._conns or any(p.is_alive() for p in self.procs):
            return
        if self.procs or self._ever_registered:
            raise _Fatal(JobError(
                "all workers exited with tasks still outstanding"))
        if time.monotonic() - self._started > protocol.CONNECT_TIMEOUT:
            raise _Fatal(JobError("no worker registered within "
                                  f"{protocol.CONNECT_TIMEOUT:g}s"))

    def abort(self) -> None:
        """The job has failed: wake every runner waiting on a worker."""
        with self._lock:
            self._closed = self._aborted = True
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        """Send ``SHUTDOWN`` to every worker, close every socket and reap
        the local workers.  After :meth:`abort` they are killed at once: a
        worker busy in a task reads ``SHUTDOWN`` only when the task ends."""
        with self._lock:
            self._closed = True
        # the runner threads have ended; workers still waiting to register
        # stood by unused: answer each REGISTER with SHUTDOWN, so that they
        # exit cleanly without opening the manifest
        self.listener.setblocking(False)
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                break
            self._register(conn)
        self.listener.close()
        for conn in self._conns:
            try:
                protocol.send_message(conn, protocol.Message(protocol.SHUTDOWN))
            except OSError:
                pass
            conn.close()
        for proc in self.procs:
            if not self._aborted:
                proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


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
    observer: Observer | None = None,
) -> KeyedTotals:
    """Execute one MapReduce job and return globally key-ordered totals.

    ``map_fn(record)`` must return a (uint64 keys, float64 values) array
    pair and be deterministic; in multiprocess mode both it and the records
    must be picklable.  The reduced key stream is checked to be strictly
    ascending before it is returned.

    A multiprocess job given ``listen`` fails when no worker has
    registered there within :data:`~.protocol.CONNECT_TIMEOUT` seconds.

    ``observer`` receives each :class:`JobEvent`, one call at a time, on
    the scheduler thread and, in a multiprocess job, on the runner
    threads.  A worker's ``worker_registered`` comes before its first task
    is sent, so a slow observer delays that task; this order is kept on
    purpose, because perfbench's ``EngineRecorder`` reads
    ``manifest_bytes`` and ``worker_startup_s`` from it.  An exception
    raised by the observer fails the job.

    Every exit removes the job's ``job-<pid>-*`` spill directory: a return,
    a raise, Ctrl-C, or SIGTERM under :func:`pktm.cli.main`.
    """
    root = _resolve_spill_root(config)
    root.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as job:
        spill = Path(job.enter_context(tempfile.TemporaryDirectory(
            prefix=f"job-{os.getpid()}-", dir=root,
            ignore_cleanup_errors=True)))
        tasks = _Tasks(list(records), map_fn, config.n_partitions,
                       config.combiner_enabled, config.chunk_size, spill)
        n_slots = 1 if config.mode == "serial" else config.n_workers
        if config.mode == "multiprocess":
            pool = _WorkerPool(tasks, config, listen, observer)
            job.callback(pool.close)   # reaps the workers before rmtree
            run_map = functools.partial(pool.run_task, protocol.TASK_ASSIGN)
            run_reduce = functools.partial(pool.run_task,
                                           protocol.REDUCE_ASSIGN)
            observer, abort = pool.notify, pool.abort
        else:
            keep_task_memory()
            run_map, run_reduce = tasks.run_map, tasks.run_reduce
            abort = None
        _retry_threaded("map", range(tasks.n_map_tasks), run_map, n_slots,
                        config.max_task_retries, observer, abort)
        _retry_threaded("reduce", range(config.n_partitions), run_reduce,
                        n_slots, config.max_task_retries, observer, abort)
        return _merge_partitions(config.n_partitions, spill)
