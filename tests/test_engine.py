import contextlib
import math
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktm import MigrationMapFn, migrate_survey_serial, reassemble_image
from pktm.mapreduce import (
    JobConfig,
    JobError,
    KeyedTotals,
    protocol,
    run_job,
)
from pktm.mapreduce.engine import (
    SPILL_DIR_ENV,
    JobEvent,
    _merge_partitions,
    execute_map_task,
    execute_reduce_task,
)
from pktm.mapreduce.protocol import Message, recv_message, send_message
from pktm.mapreduce.spill import SpillFormatError, read_partition_file


# --------------------------------------------------------------------------
# toy job: module-level so multiprocess workers can unpickle it by name
# --------------------------------------------------------------------------

def toy_map(record):
    r = int(record)
    keys = np.array([r % 5, (r * r) % 11 + 5, 16], dtype=np.uint64)
    vals = np.array([math.sin(r) + 1.25,
                     1e-3 * math.cos(2.0 * r) + 2.0,
                     (-1.0) ** r * 1e8],
                    dtype=np.float64)
    return keys, vals


def paced_toy_map(record):
    """toy_map at 10 ms a record: every local worker of a multiprocess job
    registers before one of them could finish the whole job alone."""
    time.sleep(0.01)
    return toy_map(record)


def brute_totals(records):
    acc = {}
    for r in records:
        ks, vs = toy_map(r)
        for k, v in zip(ks.tolist(), vs.tolist()):
            acc.setdefault(k, []).append(v)
    keys = sorted(acc)
    return keys, [math.fsum(acc[k]) for k in keys]


def dense(totals: KeyedTotals, n=32) -> np.ndarray:
    out = np.zeros(n)
    out[totals.keys.astype(np.int64)] = totals.totals
    return out


class AlwaysFailMap:
    def __call__(self, record):
        raise RuntimeError("synthetic map failure")


class KillOnceMap:
    """SIGKILL our own process the first time record 0 is mapped."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, record):
        if int(record) == 0 and not os.path.exists(self.marker):
            Path(self.marker).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return toy_map(record)


def kill_self_map(record):
    """SIGKILL whatever process maps a record: no worker outlives a task."""
    os.kill(os.getpid(), signal.SIGKILL)


class StallOnceMap:
    """Stall well past the task timeout the first time record 0 is mapped."""

    def __init__(self, marker, seconds=3.0):
        self.marker = marker
        self.seconds = seconds

    def __call__(self, record):
        if int(record) == 0 and not os.path.exists(self.marker):
            Path(self.marker).touch()
            time.sleep(self.seconds)
        return toy_map(record)


class StallFirstMap(StallOnceMap):
    """Like StallOnceMap, but other records wait until the stall has begun,
    so no other task can finish before it."""

    def __call__(self, record):
        deadline = time.monotonic() + 10.0
        while (int(record) != 0 and not os.path.exists(self.marker)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return super().__call__(record)


@pytest.fixture
def worker_import_path(monkeypatch):
    """Let spawned workers unpickle callables defined in this test module."""
    here = str(Path(__file__).resolve().parent)
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", here if not existing else here + os.pathsep + existing)


# --------------------------------------------------------------------------
# config and output containers
# --------------------------------------------------------------------------

class TestJobConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(mode="fancy"),
        dict(n_partitions=0),
        dict(n_workers=0),
        dict(chunk_size=0),
        dict(task_timeout=0.0),
        dict(task_timeout=-1.0),
        dict(task_timeout=math.inf),
        dict(task_timeout=1e10),
        dict(max_task_retries=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            JobConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = JobConfig()
        assert cfg.mode == "serial"
        assert cfg.n_partitions == 8


class TestKeyedTotals:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            KeyedTotals(np.array([1, 2], dtype=np.uint64),
                        np.array([1.0]))

    def test_is_read_only(self):
        kt = KeyedTotals(np.array([1], dtype=np.uint64), np.array([2.0]))
        with pytest.raises(ValueError):
            kt.totals[0] = 3.0


# --------------------------------------------------------------------------
# run_job correctness and determinism
# --------------------------------------------------------------------------

RECORDS = list(range(40))
ALL_MODES = pytest.mark.parametrize(
    "mode,workers", [("serial", 1), ("threaded", 2), ("multiprocess", 2)])


def run(mode="serial", combiner=False, workers=1, spill=None, **kw):
    cfg = JobConfig(n_partitions=5, n_workers=workers, mode=mode,
                    combiner_enabled=combiner, chunk_size=7,
                    spill_dir=spill, **kw)
    return run_job(RECORDS, toy_map, cfg)


class TestRunJobSerial:
    def test_matches_brute_force(self, spill_dir):
        totals = run(spill=spill_dir)
        want_keys, want_vals = brute_totals(RECORDS)
        assert totals.keys.tolist() == want_keys
        assert totals.totals.tolist() == want_vals

    def test_keys_strictly_ascending(self, spill_dir):
        totals = run(spill=spill_dir)
        k = totals.keys.astype(np.int64)
        assert np.all(np.diff(k) > 0)

    def test_empty_records(self, spill_dir):
        cfg = JobConfig(n_partitions=3, spill_dir=spill_dir)
        totals = run_job([], toy_map, cfg)
        assert len(totals) == 0

    def test_spill_removed_on_success(self, tmp_path):
        run(spill=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_observer_sees_both_phases(self, spill_dir):
        events: list[JobEvent] = []
        cfg = JobConfig(n_partitions=5, chunk_size=7, spill_dir=spill_dir)
        run_job(RECORDS, toy_map, cfg, observer=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("map_task_done") == 6      # ceil(40 / 7)
        assert kinds.count("reduce_task_done") == 5
        assert kinds.index("reduce_task_done") > kinds.index("map_task_done")

    def test_runs_one_task_at_a_time_in_id_order(self, spill_dir):
        """Serial mode ignores n_workers: its one scheduler thread runs the
        tasks in id order, never two at once."""
        lock = threading.Lock()
        running = [0, 0]    # now, most ever

        def watched(record):
            with lock:
                running[0] += 1
                running[1] = max(running)
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return toy_map(record)

        cfg = JobConfig(n_partitions=3, n_workers=4, chunk_size=4,
                        spill_dir=spill_dir)
        events = []
        run_job(RECORDS, watched, cfg, observer=events.append)
        assert running[1] == 1
        done = [e.ident for e in events if e.kind == "map_task_done"]
        assert done == list(range(10))


class TestCrossModeBitIdentity:
    def test_threaded_matches_serial(self, spill_dir):
        base = run(spill=spill_dir)
        for workers in (1, 2, 8):
            got = run(mode="threaded", workers=workers, spill=spill_dir)
            assert got.keys.tobytes() == base.keys.tobytes()
            assert got.totals.tobytes() == base.totals.tobytes()

    def test_combiner_changes_no_cell(self, spill_dir):
        base = run(spill=spill_dir)
        for mode, workers in (("serial", 1), ("threaded", 4)):
            got = run(mode=mode, combiner=True, workers=workers,
                      spill=spill_dir)
            assert dense(got).tobytes() == dense(base).tobytes()

    def test_multiprocess_matches_serial(self, spill_dir, worker_import_path):
        base = run(spill=spill_dir)
        got = run(mode="multiprocess", workers=2, spill=spill_dir)
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()

    def test_multiprocess_with_combiner(self, spill_dir, worker_import_path):
        base = run(spill=spill_dir)
        got = run(mode="multiprocess", workers=2, combiner=True,
                  spill=spill_dir)
        assert dense(got).tobytes() == dense(base).tobytes()


def one_key_map(record):
    """Every value of a record goes to key 1."""
    values = np.asarray(record, dtype=np.float64)
    return np.ones(values.shape[0], dtype=np.uint64), values


class TestCombinerEdges:
    """Keys the reduce sums with math.fsum (inf, nan, overflow risk) must
    give the same total, or the same error, with the combiner on and off."""

    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 2)])
    def test_inf_survives_the_combiner(self, mode, workers, spill_dir):
        for combiner in (False, True):
            cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                            combiner_enabled=combiner, spill_dir=spill_dir)
            totals = run_job([[math.inf, 1.0]], one_key_map, cfg)
            assert totals.keys.tolist() == [1]
            assert totals.totals.tolist() == [math.inf]

    def test_intermediate_overflow_raises_with_the_combiner(self, spill_dir):
        for combiner in (False, True):
            cfg = JobConfig(n_partitions=2, combiner_enabled=combiner,
                            max_task_retries=0, spill_dir=spill_dir)
            with pytest.raises(JobError, match="overflow"):
                run_job([[1e308, 1e308, -1e308]], one_key_map, cfg)


# --------------------------------------------------------------------------
# fault tolerance
# --------------------------------------------------------------------------

class FlakyMap:
    """Fail the first ``n`` times record 11 is mapped, in whichever process
    maps it: each failure leaves one file in ``failures``."""

    def __init__(self, failures, n=2):
        self.failures = failures
        self.n = n

    def __call__(self, record):
        if int(record) == 11 and len(os.listdir(self.failures)) < self.n:
            fd, _ = tempfile.mkstemp(dir=self.failures)
            os.close(fd)
            raise RuntimeError("transient")
        return toy_map(record)


class SlowCountedMap:
    """toy_map at 50 ms a record; each call leaves one file in ``calls``."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, record):
        fd, _ = tempfile.mkstemp(dir=self.calls)
        os.close(fd)
        time.sleep(0.05)
        return toy_map(record)


class TestRetries:
    @pytest.mark.parametrize("mode,workers", [
        ("serial", 1), ("threaded", 3), ("multiprocess", 2)])
    def test_flaky_task_retries_to_success(self, mode, workers, tmp_path,
                                           spill_dir, worker_import_path):
        failures = tmp_path / "failures"
        failures.mkdir()
        cfg = JobConfig(n_partitions=4, n_workers=workers, mode=mode,
                        chunk_size=5, max_task_retries=2,
                        spill_dir=spill_dir)
        events = []
        totals = run_job(RECORDS, FlakyMap(str(failures)), cfg,
                         observer=events.append)
        want_keys, want_vals = brute_totals(RECORDS)
        assert totals.keys.tolist() == want_keys
        assert totals.totals.tolist() == want_vals
        assert [e.kind for e in events].count("task_retried") == 2

    @ALL_MODES
    def test_budget_exhaustion_raises(self, mode, workers, spill_dir,
                                      worker_import_path):
        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=8, max_task_retries=1,
                        spill_dir=spill_dir)
        with pytest.raises(JobError, match=r"^map task \d+ failed after 2 "
                                           r"attempts: .*synthetic map failure"):
            run_job(RECORDS, AlwaysFailMap(), cfg)

    @ALL_MODES
    def test_observer_error_stops_queued_tasks(self, mode, workers, tmp_path,
                                               spill_dir, worker_import_path):
        calls = tmp_path / "calls"
        calls.mkdir()

        def observer(event):
            if event.kind == "map_task_done":
                raise KeyError("observer failed")

        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=1, spill_dir=spill_dir)
        start = time.monotonic()
        with pytest.raises(KeyError, match="observer failed"):
            run_job(RECORDS, SlowCountedMap(str(calls)), cfg,
                    observer=observer)
        assert time.monotonic() - start < cfg.task_timeout / 3
        # each worker may have started one more task before the error
        assert len(list(calls.iterdir())) <= 2 * workers

    @ALL_MODES
    def test_failed_job_removes_its_spill(self, mode, workers, spill_dir,
                                          worker_import_path):
        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=8, max_task_retries=0,
                        spill_dir=spill_dir)
        with pytest.raises(JobError):
            run_job(RECORDS, AlwaysFailMap(), cfg)
        assert list(Path(spill_dir).iterdir()) == []

    @ALL_MODES
    def test_interrupted_job_removes_its_spill(self, mode, workers,
                                               spill_dir, worker_import_path):
        """Ctrl-C unwinds through the job: its local workers are reaped and
        its spill directory is removed."""
        pids = []

        def observer(event):
            if event.kind == "worker_registered":
                pids.append(event.pid)
            if event.kind == "map_task_done":
                raise KeyboardInterrupt

        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=4, spill_dir=spill_dir)
        with pytest.raises(KeyboardInterrupt):
            run_job(RECORDS, paced_toy_map, cfg, observer=observer)
        assert list(Path(spill_dir).iterdir()) == []
        assert multiprocessing.active_children() == []
        assert_reaped(pids)


class TestMultiprocessFaults:
    def test_killed_worker_is_reassigned(self, tmp_path, spill_dir,
                                         worker_import_path):
        marker = tmp_path / "killed"
        cfg = JobConfig(n_partitions=4, n_workers=2, mode="multiprocess",
                        chunk_size=4, max_task_retries=2,
                        spill_dir=spill_dir)
        events = []
        totals = run_job(RECORDS[:12], KillOnceMap(str(marker)), cfg,
                         observer=events.append)
        assert marker.exists()
        assert "worker_lost" in [e.kind for e in events]
        want_keys, want_vals = brute_totals(RECORDS[:12])
        assert totals.keys.tolist() == want_keys
        assert totals.totals.tolist() == want_vals

    def test_stalled_task_times_out_and_moves_on(self, tmp_path, spill_dir,
                                                 worker_import_path):
        marker = tmp_path / "stalled"
        cfg = JobConfig(n_partitions=3, n_workers=2, mode="multiprocess",
                        chunk_size=3, task_timeout=0.75, max_task_retries=2,
                        spill_dir=spill_dir)
        totals = run_job(RECORDS[:6], StallOnceMap(str(marker)), cfg)
        want_keys, want_vals = brute_totals(RECORDS[:6])
        assert totals.keys.tolist() == want_keys
        assert totals.totals.tolist() == want_vals

    def test_persistent_failure_raises(self, spill_dir, worker_import_path):
        cfg = JobConfig(n_partitions=2, n_workers=1, mode="multiprocess",
                        chunk_size=8, max_task_retries=1,
                        spill_dir=spill_dir)
        with pytest.raises(JobError):
            run_job(RECORDS[:8], AlwaysFailMap(), cfg)

    def test_failing_job_does_not_wait_for_a_busy_worker(
            self, tmp_path, spill_dir, worker_import_path):
        """The job fails while one worker is 20 s into a task: its socket
        is shut down and the worker killed at once, so neither a runner
        nor the reaping waits for it."""
        def observer(event):
            if event.kind == "map_task_done":
                raise KeyError("observer failed")

        cfg = JobConfig(n_partitions=2, n_workers=2, mode="multiprocess",
                        chunk_size=1, spill_dir=spill_dir)
        start = time.monotonic()
        with pytest.raises(KeyError, match="observer failed"):
            run_job(RECORDS[:4], StallFirstMap(str(tmp_path / "stalled"), 20.0),
                    cfg, observer=observer)
        assert time.monotonic() - start < 3.0

    @pytest.mark.parametrize("kind", ["worker_registered", "worker_lost"])
    def test_observer_error_on_a_worker_event_fails_the_job(
            self, kind, tmp_path, spill_dir, worker_import_path):
        def observer(event):
            if event.kind == kind:
                raise KeyError("observer failed")

        cfg = JobConfig(n_partitions=4, n_workers=2, mode="multiprocess",
                        chunk_size=4, spill_dir=spill_dir)
        start = time.monotonic()
        with pytest.raises(KeyError, match="observer failed"):
            run_job(RECORDS[:12], KillOnceMap(str(tmp_path / "killed")), cfg,
                    observer=observer)
        assert time.monotonic() - start < cfg.task_timeout / 3


# --------------------------------------------------------------------------
# how workers start: forked locally, spawned as a fallback, or external
# --------------------------------------------------------------------------

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
TESTS_DIR = str(Path(__file__).resolve().parent)


@contextlib.contextmanager
def second_thread(active: bool):
    """Keep a second Python thread alive while the block runs; the engine
    then starts fresh ``pktm worker`` interpreters instead of forking."""
    if not active:
        yield
        return
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def mp_config(spill_dir, n_workers=2, **kw):
    return JobConfig(n_partitions=5, n_workers=n_workers, mode="multiprocess",
                     chunk_size=7, spill_dir=spill_dir, **kw)


START_PATHS = pytest.mark.parametrize("threads", [False, True],
                                      ids=["forked", "spawned"])


class TestLocalWorkerStart:
    @START_PATHS
    def test_start_path_and_identity(self, threads, spill_dir,
                                     worker_import_path):
        if not os.path.exists("/proc/self/cmdline"):
            pytest.skip("needs /proc to read worker command lines")
        if not threads and not hasattr(os, "fork"):
            pytest.skip("platform cannot fork")
        cmdlines = {}

        def observe(event):
            if event.kind == "worker_registered":
                cmdlines[event.pid] = Path(
                    f"/proc/{event.pid}/cmdline").read_bytes()

        base = run(spill=spill_dir)
        with second_thread(threads):
            got = run_job(RECORDS, paced_toy_map, mp_config(spill_dir),
                          observer=observe)
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()
        assert len(cmdlines) == 2
        own = Path(f"/proc/{os.getpid()}/cmdline").read_bytes()
        for pid, cmdline in cmdlines.items():
            assert pid != os.getpid()
            if threads:
                assert b"\0-m\0pktm\0worker\0--connect\0" in cmdline
            else:
                assert cmdline == own
        assert_reaped(cmdlines)

    @START_PATHS
    def test_sigkill_recovery(self, threads, spill_dir, worker_import_path):
        killed, kinds, pids = [], [], set()

        def observe(event):
            kinds.append(event.kind)
            if event.kind == "worker_registered":
                pids.add(event.pid)
            if event.kind == "map_task_done" and not killed and event.pid:
                os.kill(event.pid, signal.SIGKILL)
                killed.append(event.pid)

        base = run(spill=spill_dir)
        with second_thread(threads):
            got = run_job(RECORDS, toy_map, mp_config(spill_dir),
                          observer=observe)
        assert killed and "worker_lost" in kinds
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()
        assert_reaped(pids)


def test_job_whose_map_kills_every_local_worker_fails(spill_dir,
                                                      worker_import_path):
    """Two workers, each killed by its first task: no task has used up its
    retries, but no worker is left to run them."""
    with pytest.raises(JobError, match="all workers exited"):
        run_job(RECORDS, kill_self_map, mp_config(spill_dir))


def test_runner_threads_share_the_pool(spill_dir, worker_import_path):
    """More runner threads and workers than cores, switching threads every
    10 microseconds: worker ids stay unique, each task is done once, and
    no worker runs a task before its registration is reported."""
    events = []
    cfg = JobConfig(n_partitions=7, n_workers=4, mode="multiprocess",
                    chunk_size=1, spill_dir=spill_dir)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_job(RECORDS, paced_toy_map, cfg, observer=events.append)
    finally:
        sys.setswitchinterval(interval)
    want_keys, want_vals = brute_totals(RECORDS)
    assert got.keys.tolist() == want_keys
    assert got.totals.tolist() == want_vals
    registered = []
    for e in events:
        if e.kind == "worker_registered":
            assert e.worker_id not in registered
            registered.append(e.worker_id)
        else:
            assert e.kind in ("map_task_done", "reduce_task_done")
            assert e.worker_id in registered
    assert sorted(e.ident for e in events
                  if e.kind == "map_task_done") == list(range(40))
    assert sorted(e.ident for e in events
                  if e.kind == "reduce_task_done") == list(range(7))


BUFFERED_OUTPUT_SCRIPT = """
import os, sys
from pktm.mapreduce import JobConfig, run_job
from test_engine import RECORDS, paced_toy_map

sys.stdout.write("unflushed-marker\\n")   # a pipe is block-buffered
pids = []
run_job(RECORDS, paced_toy_map,
        JobConfig(n_partitions=3, n_workers=2, mode="multiprocess",
                  chunk_size=7, spill_dir=sys.argv[1]),
        observer=lambda e: e.kind == "worker_registered" and pids.append(e.pid))
alive = []
for pid in pids:
    try:
        os.kill(pid, 0)
        alive.append(pid)
    except ProcessLookupError:
        pass
sys.stderr.write(f"registered={len(pids)} alive={len(alive)}\\n")
"""


def test_forked_workers_do_not_repeat_buffered_output(spill_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, TESTS_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", BUFFERED_OUTPUT_SCRIPT, spill_dir],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("unflushed-marker") == 1
    assert "registered=2 alive=0" in proc.stderr


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def worker_command(port):
    return [sys.executable, "-m", "pktm", "worker",
            "--connect", f"127.0.0.1:{port}"]


def launch_worker(port, codes):
    """Run ``pktm worker --connect`` against ``port`` and append its exit
    code; the worker waits for the job to listen."""
    codes.append(subprocess.run(worker_command(port), capture_output=True,
                                timeout=120).returncode)


class Standby:
    """A worker served by ``worker_main`` on a thread of this process.

    :meth:`start` returns once the worker's connection is made, so the
    worker then waits in the job's listen backlog until it is accepted.
    :attr:`opened` lists the files the worker module opens.
    """

    def __init__(self, monkeypatch):
        from pktm.mapreduce import worker

        self.connected = threading.Event()
        self.codes = []
        self.opened = []
        self.thread = None
        real = socket.create_connection

        def create_connection(*args, **kw):
            sock = real(*args, **kw)
            self.connected.set()
            return sock

        def spy_open(path, *args, **kw):
            self.opened.append(path)
            return open(path, *args, **kw)

        monkeypatch.setattr(socket, "create_connection", create_connection)
        monkeypatch.setattr(worker, "open", spy_open, raising=False)

    def start(self, port):
        from pktm.mapreduce.worker import worker_main

        self.thread = threading.Thread(target=lambda: self.codes.append(
            worker_main(f"127.0.0.1:{port}")))
        self.thread.start()
        assert self.connected.wait(30.0)

    def join(self):
        if self.thread is not None:
            self.thread.join(timeout=60.0)
            assert not self.thread.is_alive()


def lying_worker(port, assigns):
    """Register with the job on ``port``, then answer the first assignment
    with a ``TASK_DONE`` whose one detail byte, 0xff, is not UTF-8."""
    deadline = time.monotonic() + 30.0
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    with sock:
        send_message(sock, Message(protocol.REGISTER, ident=os.getpid()))
        recv_message(sock)          # the manifest path, left unread
        assign = recv_message(sock)
        assigns.append(assign)
        sock.sendall(struct.pack("<IBIBH", 9, protocol.TASK_DONE,
                                 assign.ident, protocol.STATUS_OK, 1)
                     + b"\xff")
        sock.recv(1)                # until the coordinator hangs up


class TestExternalWorker:
    def test_connect_worker_matches_serial(self, spill_dir,
                                           worker_import_path):
        port = free_port()
        codes = []
        base = run(spill=spill_dir)
        launcher = threading.Thread(target=launch_worker, args=(port, codes))
        launcher.start()
        try:
            events = []
            got = run_job(RECORDS, toy_map,
                          mp_config(spill_dir),
                          listen=f"127.0.0.1:{port}", observer=events.append)
        finally:
            launcher.join(timeout=60.0)
        assert not launcher.is_alive()
        assert codes == [0]
        assert [e.kind for e in events].count("worker_registered") == 1
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()

    def test_worker_started_before_its_coordinator(self, spill_dir,
                                                   worker_import_path):
        """A ``pktm worker`` started a second before the job listens waits
        for it, serves the whole job and exits 0."""
        port = free_port()
        base = run(spill=spill_dir)
        worker = subprocess.Popen(worker_command(port),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        try:
            time.sleep(1.0)      # the worker's connects are refused
            assert worker.poll() is None, worker.communicate()[1]
            got = run_job(RECORDS, toy_map, mp_config(spill_dir),
                          listen=f"127.0.0.1:{port}")
            err = worker.communicate(timeout=60.0)[1]
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        assert worker.returncode == 0, err
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()
        assert os.listdir(spill_dir) == []

    def test_busy_listen_address_removes_its_spill(self, spill_dir):
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            with pytest.raises(OSError):
                run_job(RECORDS, toy_map, mp_config(spill_dir),
                        listen=f"127.0.0.1:{port}")
        assert list(Path(spill_dir).iterdir()) == []

    def test_listen_job_that_no_worker_joins_fails(self, spill_dir,
                                                   monkeypatch):
        monkeypatch.setattr(protocol, "CONNECT_TIMEOUT", 0.3)
        start = time.monotonic()
        with pytest.raises(JobError,
                           match="no worker registered within 0.3s"):
            run_job(RECORDS, toy_map, mp_config(spill_dir),
                    listen=f"127.0.0.1:{free_port()}")
        assert time.monotonic() - start < 10.0

    def test_worker_with_a_non_utf8_reply_is_dropped(self, spill_dir):
        """A worker whose reply does not decode is lost, like one that
        hangs up: with no worker left, the job fails at once."""
        port, events, assigns, raised = free_port(), [], [], []

        def job():
            try:
                run_job(RECORDS, toy_map, mp_config(spill_dir,
                                                    max_task_retries=2),
                        listen=f"127.0.0.1:{port}", observer=events.append)
            except Exception as exc:
                raised.append(exc)

        runner = threading.Thread(target=job, daemon=True)
        liar = threading.Thread(target=lying_worker, args=(port, assigns),
                                daemon=True)
        start = time.monotonic()
        runner.start()
        liar.start()
        runner.join(timeout=10.0)
        elapsed = time.monotonic() - start
        hung = runner.is_alive()
        if hung:
            # an honest worker ends the job, so that no runner thread is
            # left to hang the interpreter's exit
            from pktm.mapreduce.worker import worker_main

            threading.Thread(target=worker_main, args=(f"127.0.0.1:{port}",),
                             daemon=True).start()
            runner.join(timeout=60.0)
        liar.join(timeout=10.0)
        assert not hung, "the job still waits on the lying worker"
        assert elapsed < 5.0
        assert [m.tag for m in assigns] == [protocol.TASK_ASSIGN]
        assert len(raised) == 1 and isinstance(raised[0], JobError)
        kinds = [e.kind for e in events]
        assert kinds.count("worker_registered") == 1
        assert kinds.count("worker_lost") == 1


    def test_standby_worker_exits_cleanly(self, spill_dir,
                                          worker_import_path, monkeypatch):
        """A worker beyond the job's one slot stands by unused: when the job
        ends, its ``REGISTER`` is answered ``SHUTDOWN``, and it exits with 0
        without opening the manifest."""
        port, codes, events = free_port(), [], []
        standby = Standby(monkeypatch)

        def observe(event):
            events.append(event)
            if event.kind == "worker_registered" and standby.thread is None:
                standby.start(port)

        base = run(spill=spill_dir)
        launcher = threading.Thread(target=launch_worker, args=(port, codes))
        launcher.start()
        try:
            got = run_job(RECORDS, paced_toy_map,
                          mp_config(spill_dir, n_workers=1),
                          listen=f"127.0.0.1:{port}", observer=observe)
        finally:
            launcher.join(timeout=60.0)
            standby.join()
        assert codes == [0]
        assert standby.codes == [0]
        assert standby.opened == []
        assert [e.kind for e in events].count("worker_registered") == 1
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()

    def test_standby_worker_takes_over_from_a_lost_one(
            self, tmp_path, spill_dir, worker_import_path, monkeypatch):
        """One slot, two external workers: the first is killed in its first
        task, and the one standing by in the listen backlog finishes the
        job."""
        port, codes, events = free_port(), [], []
        standby = Standby(monkeypatch)

        def observe(event):
            events.append(event)
            if event.kind == "worker_registered" and standby.thread is None:
                standby.start(port)

        cfg = JobConfig(n_partitions=5, n_workers=1, mode="multiprocess",
                        chunk_size=7, spill_dir=spill_dir)
        base = run(spill=spill_dir)
        launcher = threading.Thread(target=launch_worker, args=(port, codes))
        launcher.start()
        try:
            got = run_job(RECORDS, KillOnceMap(str(tmp_path / "killed")), cfg,
                          listen=f"127.0.0.1:{port}", observer=observe)
        finally:
            launcher.join(timeout=60.0)
            standby.join()
        assert codes == [-signal.SIGKILL]
        assert standby.codes == [0]
        assert [os.path.basename(p) for p in standby.opened] == ["manifest.pkl"]
        kinds = [e.kind for e in events]
        assert kinds.count("worker_registered") == 2
        assert kinds.count("worker_lost") == 1
        assert kinds.count("task_retried") == 1
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()

    def test_worker_lost_while_idle_costs_no_retry(
            self, spill_dir, worker_import_path, monkeypatch):
        """A worker killed between the map and the reduce phase is dropped
        when it is next taken, and no task is charged for it."""
        port, codes, events = free_port(), [], []
        standby = Standby(monkeypatch)
        launcher = threading.Thread(target=launch_worker, args=(port, codes))

        def observe(event):
            events.append(event)
            if event.kind == "worker_registered" and standby.thread is None:
                standby.start(port)
            if event.kind == "map_task_done":
                # the job's only map task: its worker is idle until the
                # reduce phase starts after this call
                os.kill(event.pid, signal.SIGKILL)
                launcher.join(timeout=60.0)

        cfg = JobConfig(n_partitions=5, n_workers=1, mode="multiprocess",
                        chunk_size=7, max_task_retries=0,
                        spill_dir=spill_dir)
        records = RECORDS[:7]
        base = run_job(records, toy_map, JobConfig(
            n_partitions=5, chunk_size=7, spill_dir=spill_dir))
        launcher.start()
        try:
            got = run_job(records, toy_map, cfg,
                          listen=f"127.0.0.1:{port}", observer=observe)
        finally:
            launcher.join(timeout=60.0)
            standby.join()
        assert codes == [-signal.SIGKILL]
        assert standby.codes == [0]
        assert [os.path.basename(p) for p in standby.opened] == ["manifest.pkl"]
        kinds = [e.kind for e in events]
        assert kinds.count("worker_lost") == 1
        assert "task_retried" not in kinds
        assert kinds.count("reduce_task_done") == 5
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()


# --------------------------------------------------------------------------
# spill directory resolution
# --------------------------------------------------------------------------

class TestSpillResolution:
    def test_env_var_is_used_when_config_is_unset(self, tmp_path, monkeypatch):
        env_root = tmp_path / "env_root"
        monkeypatch.setenv(SPILL_DIR_ENV, str(env_root))
        cfg = JobConfig(n_partitions=2, chunk_size=8)
        seen = set()
        run_job(RECORDS, toy_map, cfg,
                observer=lambda event: seen.add(job_dir(env_root)))
        assert len(seen) == 1
        assert list(env_root.iterdir()) == []

    def test_config_beats_env(self, tmp_path, monkeypatch):
        env_root = tmp_path / "env_root"
        cfg_root = tmp_path / "cfg_root"
        monkeypatch.setenv(SPILL_DIR_ENV, str(env_root))
        cfg = JobConfig(n_partitions=2, chunk_size=8, spill_dir=str(cfg_root))
        seen = set()
        run_job(RECORDS, toy_map, cfg,
                observer=lambda event: seen.add(job_dir(cfg_root)))
        assert len(seen) == 1
        assert not env_root.exists()
        assert list(cfg_root.iterdir()) == []

    def test_concurrent_jobs_share_one_root(self, spill_dir):
        """Jobs started at once on one root each spill to a directory of
        their own and remove only that one."""
        cfg = JobConfig(n_partitions=3, chunk_size=8, spill_dir=spill_dir)
        want = run_job(RECORDS, toy_map, cfg)
        start = threading.Barrier(4, timeout=30.0)

        def job(_):
            start.wait()
            return run_job(RECORDS, toy_map, cfg)

        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(job, range(4)))
        for totals in got:
            assert totals.keys.tobytes() == want.keys.tobytes()
            assert totals.totals.tobytes() == want.totals.tobytes()
        assert list(Path(spill_dir).iterdir()) == []

    def test_job_directory_is_private(self, spill_dir):
        """Only the job's own user may read or replace its spill files,
        the multiprocess manifest among them."""
        modes = []
        cfg = JobConfig(n_partitions=2, chunk_size=8, spill_dir=spill_dir)
        run_job(RECORDS, toy_map, cfg, observer=lambda event: modes.append(
            job_dir(spill_dir).stat().st_mode & 0o777))
        assert modes and set(modes) == {0o700}


# --------------------------------------------------------------------------
# pieces
# --------------------------------------------------------------------------

def negative_key_map(record):
    return np.array([-1, 3], dtype=np.int64), np.array([1.0, 2.0])


def float_key_map(record):
    return np.array([1.0, 3.0]), np.array([1.0, 2.0])


class CountedBadMap:
    """Leave one file in ``calls`` per call, then break the map contract."""

    def __init__(self, calls, bad):
        self.calls = calls
        self.bad = bad

    def __call__(self, record):
        fd, _ = tempfile.mkstemp(dir=self.calls)
        os.close(fd)
        if self.bad == "negative":
            return negative_key_map(record)
        if self.bad == "float":
            return float_key_map(record)
        return np.array([1], dtype=np.uint64), np.array([1.0, 2.0])


class TestMapKeyValidation:
    """Keys that a cast to uint64 would change fail their map task."""

    @pytest.mark.parametrize("map_fn,match", [
        (negative_key_map, "map task 0: keys must be >= 0, got -1"),
        (float_key_map, "map task 0: keys must be integers, got float64"),
    ])
    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 2)])
    def test_bad_keys_fail_the_job(self, mode, workers, map_fn, match,
                                   spill_dir):
        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        max_task_retries=0, spill_dir=spill_dir)
        with pytest.raises(JobError, match=match):
            run_job([0], map_fn, cfg)

    @ALL_MODES
    @pytest.mark.parametrize("bad", ["negative", "float", "shape"])
    def test_bad_output_is_not_retried(self, mode, workers, bad, tmp_path,
                                       spill_dir, worker_import_path):
        calls = tmp_path / "calls"
        calls.mkdir()
        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        max_task_retries=2, spill_dir=spill_dir)
        events = []
        with pytest.raises(JobError, match="rejected: .*map task 0: "):
            run_job([0], CountedBadMap(str(calls), bad), cfg,
                    observer=events.append)
        assert "task_retried" not in [e.kind for e in events]
        assert len(list(calls.iterdir())) == 1

    def test_non_negative_signed_keys_are_accepted(self, spill_dir):
        def signed(record):
            return np.array([4, 3], dtype=np.int32), np.array([1.0, 2.0])

        totals = run_job([0], signed, JobConfig(n_partitions=2,
                                                 spill_dir=spill_dir))
        assert totals.keys.tolist() == [3, 4]
        assert totals.totals.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 2)])
    def test_empty_keys_of_any_dtype_are_accepted(self, mode, workers,
                                                  spill_dir):
        """A record with no output may return ``([], [])``, whose keys
        np.asarray makes float64."""
        def sparse(record):
            if record % 2:
                return [], []
            return np.array([record], dtype=np.int64), np.array([1.0])

        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        spill_dir=spill_dir)
        totals = run_job([0, 1, 2, 3], sparse, cfg)
        assert totals.keys.tolist() == [0, 2]
        assert totals.totals.tolist() == [1.0, 1.0]


class TestExecuteMapTask:
    def test_bad_map_fn_shape_rejected(self, tmp_path):
        def bad(record):
            return (np.array([1], dtype=np.uint64),
                    np.array([1.0, 2.0]))

        with pytest.raises(ValueError):
            execute_map_task(0, [0], bad, 2, False, tmp_path)

    @pytest.mark.parametrize("r", [1, 2, 8, 13])
    def test_partition_files_hold_key_mod_r_in_emission_order(
            self, r, tmp_path, small_survey, small_job):
        map_fn = MigrationMapFn(small_job)
        traces = list(small_survey)
        tasks = [traces[i:i + 16] for i in range(0, len(traces), 16)]
        for t, records in enumerate(tasks):
            execute_map_task(t, records, map_fn, r, False, tmp_path)
            emitted = [map_fn(trace) for trace in records]
            keys = np.concatenate([k for k, _ in emitted])
            values = np.concatenate([v for _, v in emitted])
            assert sorted(f.name for f in tmp_path.iterdir()) == [
                f"map_{i:05d}.kvp" for i in range(t + 1)]
            path = tmp_path / f"map_{t:05d}.kvp"
            for p in range(r):
                got = read_partition_file(path, region=p)
                mine = keys % np.uint64(r) == p
                assert got["key"].tobytes() == keys[mine].tobytes()
                assert got["value"].tobytes() == values[mine].tobytes()
            with pytest.raises(SpillFormatError, match="out of range"):
                read_partition_file(path, region=r)
        for p in range(r):
            execute_reduce_task(p, len(tasks), tmp_path)
        image = reassemble_image(_merge_partitions(r, tmp_path), small_job.grid)
        want = migrate_survey_serial(small_survey, small_job)
        assert image.values.tobytes() == want.values.tobytes()


def job_dir(root):
    (job,) = [d for d in Path(root).iterdir() if d.name.startswith("job-")]
    return job


class TestSpillLayout:
    @ALL_MODES
    def test_one_file_per_map_task_and_partition(self, mode, workers,
                                                  spill_dir,
                                                  worker_import_path):
        """Once the last reduce task is done, the job's spill directory
        holds M map files and R reduced files (and the multiprocess
        manifest), nothing else."""
        listings = []

        def observe(event):
            if event.kind == "reduce_task_done":
                listings.append(sorted(f.name for f in job_dir(spill_dir).iterdir()))

        cfg = JobConfig(n_partitions=5, n_workers=workers, mode=mode,
                        chunk_size=7, spill_dir=spill_dir)
        run_job(RECORDS, toy_map, cfg, observer=observe)
        want = ([f"map_{t:05d}.kvp" for t in range(6)]
                + (["manifest.pkl"] if mode == "multiprocess" else [])
                + [f"reduced_p{p:04d}.kvp" for p in range(5)])
        assert len(listings) == 5
        assert listings[-1] == sorted(want)

    @ALL_MODES
    def test_truncated_map_file_fails_the_job(self, mode, workers, spill_dir,
                                              worker_import_path):
        done = []

        def truncate_after_map_phase(event):
            if event.kind == "map_task_done":
                done.append(event.ident)
                if len(done) == 6:
                    path = job_dir(spill_dir) / "map_00003.kvp"
                    path.write_bytes(path.read_bytes()[:-1])

        cfg = JobConfig(n_partitions=5, n_workers=workers, mode=mode,
                        chunk_size=7, spill_dir=spill_dir)
        with pytest.raises(JobError, match=r"map_00003\.kvp: expected \d+ bytes"):
            run_job(RECORDS, toy_map, cfg, observer=truncate_after_map_phase)


# --------------------------------------------------------------------------
# allocator tuning for repeated tasks
# --------------------------------------------------------------------------

CHURN_SCRIPT = """
import resource, sys
import numpy as np
from pktm.mapreduce import JobConfig, run_job
from pktm.mapreduce.heap import keep_task_memory
if sys.argv[1] == "direct":
    keep_task_memory()
    keep_task_memory()
elif sys.argv[1] == "threaded_job":
    run_job([1, 2, 3], lambda r: (np.array([r], np.uint64), np.array([1.0])),
            JobConfig(n_workers=2, mode="threaded", spill_dir=sys.argv[2]))
def task():
    arrays = [np.ones(2**17) for _ in range(6)]  # six 1 MiB temporaries
    del arrays
task()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    task()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

try:
    GLIBC = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (ValueError, OSError):
    GLIBC = False


@pytest.mark.skipif(not GLIBC, reason="glibc only")
def test_local_jobs_keep_freed_task_memory(spill_dir):
    # a fresh interpreter each, so no earlier test has tuned the allocator
    # or moved glibc's dynamic thresholds; untuned, every 1 MiB array is
    # mapped anew
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    faults = {}
    for mode in ("untuned", "direct", "threaded_job"):
        proc = subprocess.run(
            [sys.executable, "-c", CHURN_SCRIPT, mode, spill_dir],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        faults[mode] = int(proc.stdout)
    assert faults["untuned"] > 30 * 256
    assert faults["direct"] < 256
    assert faults["threaded_job"] < 256


REDUCE_CHURN_SCRIPT = """
import resource, sys
from pathlib import Path
import numpy as np
from pktm.mapreduce.engine import execute_map_task, execute_reduce_task
from pktm.mapreduce.heap import keep_task_memory
keep_task_memory()
def emit(seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 300_000, 160_000, dtype=np.uint64),
            rng.standard_normal(160_000))
spill = Path(sys.argv[1])
for t in range(4):  # one partition of 640k records, 5 MB per array
    execute_map_task(t, [t], emit, 1, False, spill)
execute_reduce_task(0, 4, spill)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
execute_reduce_task(0, 4, spill)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="glibc only")
def test_reduce_tasks_keep_freed_task_memory(spill_dir):
    # a reduce task's key and value arrays pass glibc's default 4 MiB cap
    # on the mmap threshold; unless they come from the heap and stay there,
    # each array is mapped anew and every one of its pages faults again
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", REDUCE_CHURN_SCRIPT, spill_dir],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one_array_pages = 640_000 * 8 // os.sysconf("SC_PAGE_SIZE")
    assert int(proc.stdout) < one_array_pages


MP_CHURN_SCRIPT = """
import resource, sys
import numpy as np
from pktm.mapreduce import JobConfig, run_job
def task():
    arrays = [np.ones(2**17) for _ in range(6)]  # six 1 MiB temporaries
    del arrays
def churn(record):
    task()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(30):
        task()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return np.array([record], np.uint64), np.array([float(faults)])
totals = run_job([0, 1, 2, 3], churn,
                 JobConfig(n_workers=2, mode="multiprocess", chunk_size=1,
                           spill_dir=sys.argv[1]))
print(int(totals.totals.max()))
print(int(churn(0)[1][0]))  # this process never tuned its allocator
"""


@pytest.mark.skipif(not GLIBC, reason="glibc only")
def test_multiprocess_workers_keep_freed_task_memory(spill_dir):
    # a fresh single-threaded interpreter, so its workers are forked from
    # a process whose allocator nothing has tuned
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", MP_CHURN_SCRIPT, spill_dir],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    worker, untuned = (int(line) for line in proc.stdout.split())
    assert untuned > 30 * 256
    assert worker < 256
