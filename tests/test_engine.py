import contextlib
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktm import GridSpec, MigrationMapFn, migrate_survey_serial
from pktm.mapreduce import (
    ContractViolationError,
    JobConfig,
    JobError,
    KeyedTotals,
    reassemble_image,
    run_job,
)
from pktm.mapreduce.engine import (
    SPILL_DIR_ENV,
    JobEvent,
    _merge_partitions,
    _parse_listen,
    execute_map_task,
    execute_reduce_task,
)
from pktm.mapreduce.spill import read_partition_file


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

class TestRetries:
    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 3)])
    def test_flaky_task_retries_to_success(self, mode, workers, spill_dir):
        failures = {}

        def flaky(record):
            r = int(record)
            if r == 11 and failures.setdefault(r, 0) < 2:
                failures[r] += 1
                raise RuntimeError("transient")
            return toy_map(record)

        cfg = JobConfig(n_partitions=4, n_workers=workers, mode=mode,
                        chunk_size=5, max_task_retries=2,
                        spill_dir=spill_dir)
        events = []
        totals = run_job(RECORDS, flaky, cfg, observer=events.append)
        want_keys, want_vals = brute_totals(RECORDS)
        assert totals.keys.tolist() == want_keys
        assert totals.totals.tolist() == want_vals
        assert [e.kind for e in events].count("task_retried") == 2

    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 2)])
    def test_budget_exhaustion_raises(self, mode, workers, spill_dir):
        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=8, max_task_retries=1,
                        spill_dir=spill_dir)
        with pytest.raises(JobError, match="failed after 2 attempts"):
            run_job(RECORDS, AlwaysFailMap(), cfg)

    @pytest.mark.parametrize("mode,workers", [("serial", 1), ("threaded", 2)])
    def test_observer_error_stops_queued_tasks(self, mode, workers, spill_dir):
        mapped = []

        def counting(record):
            mapped.append(int(record))
            time.sleep(0.05)
            return toy_map(record)

        def observer(event):
            if event.kind == "map_task_done":
                raise KeyError("observer failed")

        cfg = JobConfig(n_partitions=2, n_workers=workers, mode=mode,
                        chunk_size=1, spill_dir=spill_dir)
        with pytest.raises(KeyError, match="observer failed"):
            run_job(RECORDS, counting, cfg, observer=observer)
        # each worker may have started one more task before the error
        assert len(mapped) <= 2 * workers

    def test_failed_job_leaves_spill_for_inspection(self, tmp_path):
        cfg = JobConfig(n_partitions=2, chunk_size=8, max_task_retries=0,
                        spill_dir=str(tmp_path))
        with pytest.raises(JobError):
            run_job(RECORDS, AlwaysFailMap(), cfg)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith("job-")]
        assert len(leftovers) == 1


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


def mp_config(spill_dir, **kw):
    return JobConfig(n_partitions=5, n_workers=2, mode="multiprocess",
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


class TestExternalWorker:
    def test_connect_worker_matches_serial(self, spill_dir,
                                           worker_import_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes = []

        def launch_worker():
            # retry while the coordinator is not listening yet (exit code 4)
            deadline = time.monotonic() + 30.0
            while True:
                rc = subprocess.run(
                    [sys.executable, "-m", "pktm", "worker",
                     "--connect", f"127.0.0.1:{port}"],
                    capture_output=True, timeout=120).returncode
                if rc != 4 or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            codes.append(rc)

        base = run(spill=spill_dir)
        launcher = threading.Thread(target=launch_worker)
        launcher.start()
        try:
            events = []
            got = run_job(RECORDS, toy_map,
                          mp_config(spill_dir),
                          listen=f"127.0.0.1:{port}", spawn_workers=0,
                          observer=events.append)
        finally:
            launcher.join(timeout=60.0)
        assert not launcher.is_alive()
        assert codes == [0]
        assert [e.kind for e in events].count("worker_registered") == 1
        assert got.keys.tobytes() == base.keys.tobytes()
        assert got.totals.tobytes() == base.totals.tobytes()


# --------------------------------------------------------------------------
# spill directory resolution
# --------------------------------------------------------------------------

class TestSpillResolution:
    def test_env_var_is_used_when_config_is_unset(self, tmp_path, monkeypatch):
        env_root = tmp_path / "env_root"
        monkeypatch.setenv(SPILL_DIR_ENV, str(env_root))
        cfg = JobConfig(n_partitions=2, chunk_size=8, max_task_retries=0)
        with pytest.raises(JobError):
            run_job(RECORDS, AlwaysFailMap(), cfg)
        assert any(p.name.startswith("job-") for p in env_root.iterdir())

    def test_config_beats_env(self, tmp_path, monkeypatch):
        env_root = tmp_path / "env_root"
        cfg_root = tmp_path / "cfg_root"
        monkeypatch.setenv(SPILL_DIR_ENV, str(env_root))
        cfg = JobConfig(n_partitions=2, chunk_size=8, max_task_retries=0,
                        spill_dir=str(cfg_root))
        with pytest.raises(JobError):
            run_job(RECORDS, AlwaysFailMap(), cfg)
        assert not env_root.exists()
        assert any(p.name.startswith("job-") for p in cfg_root.iterdir())


# --------------------------------------------------------------------------
# pieces
# --------------------------------------------------------------------------

def negative_key_map(record):
    return np.array([-1, 3], dtype=np.int64), np.array([1.0, 2.0])


def float_key_map(record):
    return np.array([1.0, 3.0]), np.array([1.0, 2.0])


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
            assert len(list(tmp_path.glob(f"map_{t:05d}_p*.kvp"))) == r
            for p in range(r):
                got = read_partition_file(tmp_path / f"map_{t:05d}_p{p:04d}.kvp")
                mine = keys % np.uint64(r) == p
                assert got["key"].tobytes() == keys[mine].tobytes()
                assert got["value"].tobytes() == values[mine].tobytes()
        for p in range(r):
            execute_reduce_task(p, len(tasks), tmp_path)
        image = reassemble_image(_merge_partitions(r, tmp_path), small_job.grid)
        want = migrate_survey_serial(small_survey, small_job)
        assert image.values.tobytes() == want.values.tobytes()


class TestParseListen:
    def test_default(self):
        assert _parse_listen(None) == ("127.0.0.1", 0)

    def test_explicit(self):
        assert _parse_listen("0.0.0.0:5000") == ("0.0.0.0", 5000)

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError):
            _parse_listen("localhost")


class TestReassembleImage:
    GRID = GridSpec(0.0, 10.0, 3, 0.0, 0.01, 4, 2)   # 24 cells

    def test_empty_totals_give_zero_image(self):
        kt = KeyedTotals(np.array([], dtype=np.uint64), np.array([]))
        image = reassemble_image(kt, self.GRID)
        assert image.values.shape == (2, 3, 4)
        assert not image.values.any()

    def test_scatter_placement(self):
        kt = KeyedTotals(np.array([0, 13, 23], dtype=np.uint64),
                         np.array([1.0, -2.0, 3.0]))
        image = reassemble_image(kt, self.GRID)
        assert image.values[0, 0, 0] == 1.0
        assert image.values[1, 0, 1] == -2.0     # ordinal 13 = (1,0,1)
        assert image.values[1, 2, 3] == 3.0
        assert np.count_nonzero(image.values) == 3

    def test_duplicate_keys_rejected(self):
        kt = KeyedTotals(np.array([4, 4], dtype=np.uint64),
                         np.array([1.0, 2.0]))
        with pytest.raises(ContractViolationError):
            reassemble_image(kt, self.GRID)

    def test_descending_keys_rejected(self):
        kt = KeyedTotals(np.array([5, 3], dtype=np.uint64),
                         np.array([1.0, 2.0]))
        with pytest.raises(ContractViolationError):
            reassemble_image(kt, self.GRID)

    def test_out_of_range_key_rejected(self):
        kt = KeyedTotals(np.array([24], dtype=np.uint64), np.array([1.0]))
        with pytest.raises(ContractViolationError):
            reassemble_image(kt, self.GRID)


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
