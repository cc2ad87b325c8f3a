"""Per-layer tracing from outside the program.

Two sources, both using only public pktm functions:

* :class:`EngineRecorder` passes an observer to ``run_job`` and timestamps
  every ``JobEvent``; the timestamps give the phase boundaries.  At each
  event of a worker process it reads that worker's ``VmHWM`` from
  ``/proc/<pid>/status``.
* :func:`replay_engine_job` and :func:`replay_kernel` push one job's inputs
  through the layer functions again, recording a span around every call.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pktm import (
    KeyedTotals,
    MigrationJob,
    MigrationMapFn,
    estimate_flops,
    migrate_trace,
    run_job,
)
from pktm.exactsum import grouped_expansions, grouped_fsum
from pktm.mapreduce.engine import execute_map_task, execute_reduce_task
from pktm.mapreduce.partition import partitions_of
from pktm.mapreduce.spill import read_partition_file, write_partition_file

FLOPS_PER_PAIR = 10.0      # configs/estimate_desk_scale.cfg
DESK_JOB = (1e9, 1e7)      # image points, traces


class Tracer:
    """In-memory spans ``(name, start, end, parent)`` plus named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path: Path, **meta) -> None:
        path.write_text(json.dumps({
            **meta,
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }))


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the worker already exited
    return 0


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class EngineRecorder:
    """Wraps ``run_job`` with a timestamping observer; one record per call."""

    def __init__(self):
        self.calls: list[dict] = []

    def run_job(self, records, map_fn, config) -> KeyedTotals:
        call = {"events": [], "manifest_bytes": 0, "worker_hwm_kb": 0}
        pids: dict[int, int] = {}
        spill_root = Path(config.spill_dir)

        def observe(event) -> None:
            now = time.perf_counter()
            call["events"].append((event.kind, now))
            if event.kind == "worker_registered":
                if not pids:
                    # no task is assigned before the first registration is
                    # reported, so the job directory holds only the manifest
                    call["manifest_bytes"] = _dir_bytes(spill_root)
                pids[event.worker_id] = event.pid
            pid = pids.get(event.worker_id)
            if pid:
                call["worker_hwm_kb"] = max(call["worker_hwm_kb"], _vmhwm_kb(pid))

        call["start"] = time.perf_counter()
        try:
            return run_job(records, map_fn, config, observer=observe)
        finally:
            call["end"] = time.perf_counter()
            self.calls.append(call)

    def phases(self) -> dict[str, float]:
        """Startup, map, reduce and merge wall time summed over the calls.

        Startup ends at the first worker registration (at once without
        worker processes), map at the last map task, reduce at the last
        reduce task, merge when ``run_job`` returns.
        """
        out = dict.fromkeys(("startup", "map", "reduce", "merge"), 0.0)
        for call in self.calls:
            def times(kind):
                return [t for k, t in call["events"] if k == kind]
            first_reg = min(times("worker_registered"), default=call["start"])
            map_end = max(times("map_task_done"), default=first_reg)
            reduce_end = max(times("reduce_task_done"), default=map_end)
            out["startup"] += first_reg - call["start"]
            out["map"] += map_end - first_reg
            out["reduce"] += reduce_end - map_end
            out["merge"] += call["end"] - reduce_end
        return out

    def count(self, kind: str) -> int:
        return sum(k == kind for call in self.calls for k, _ in call["events"])


def replay_kernel(tracer: Tracer, traces, job: MigrationJob):
    """``migrate_trace`` over ``traces``; returns the concatenated output."""
    keys = [np.empty(0, dtype=np.uint64)]
    values = [np.empty(0, dtype=np.float64)]
    for trace in traces:
        with tracer.span("kirchhoff.migrate_trace"):
            c = migrate_trace(trace, job)
        keys.append(c.ordinals)
        values.append(c.values)
    tracer.add("kirchhoff.contributions", sum(k.size for k in keys))
    return np.concatenate(keys), np.concatenate(values)


def replay_engine_job(tracer: Tracer, records, job: MigrationJob, config,
                      spill: Path) -> KeyedTotals:
    """One engine job, layer by layer, with every spill file under ``spill``.

    The kernel, combiner, partitioner and exact sum are timed on their own;
    the engine's task bodies then run on the same records so their spill
    files can be counted, read back and rewritten.
    """
    R, chunk = config.n_partitions, config.chunk_size
    n_tasks = -(-len(records) // chunk)
    map_dir, rewrite_dir = spill / "map", spill / "rewrite"
    map_dir.mkdir(parents=True)
    rewrite_dir.mkdir()
    by_partition: list[list] = [[] for _ in range(R)]
    part_records = np.zeros(R, dtype=np.int64)
    map_fn = MigrationMapFn(job)
    try:
        with tracer.span("engine_job"):
            for t in range(n_tasks):
                task = records[t * chunk:(t + 1) * chunk]
                keys, values = replay_kernel(tracer, task, job)
                tracer.add("map.records_in", keys.size)
                if config.combiner_enabled and keys.size:
                    order = np.argsort(keys, kind="stable")
                    with tracer.span("exactsum.grouped_expansions"):
                        keys, values = grouped_expansions(keys[order], values[order])
                tracer.add("map.records_out", keys.size)
                with tracer.span("mapreduce.partitions_of"):
                    parts = partitions_of(keys, R)
                part_records += np.bincount(parts, minlength=R)
                for p in range(R):
                    mask = parts == p
                    by_partition[p].append((keys[mask], values[mask]))
                with tracer.span("mapreduce.execute_map_task"):
                    execute_map_task(t, task, map_fn, R,
                                     config.combiner_enabled, map_dir)
            for path in sorted(map_dir.iterdir()):
                with tracer.span("mapreduce.spill_read"):
                    rec = read_partition_file(path)
                with tracer.span("mapreduce.spill_write"):
                    write_partition_file(rewrite_dir / path.name, rec)
            unique, totals = [], []
            for p in range(R):
                keys = np.concatenate([k for k, _ in by_partition[p]])
                values = np.concatenate([v for _, v in by_partition[p]])
                by_partition[p] = []
                order = np.argsort(keys, kind="stable")
                with tracer.span("exactsum.grouped_fsum"):
                    u, s = grouped_fsum(keys[order], values[order])
                tracer.add("exactsum.groups", u.size)
                unique.append(u)
                totals.append(s)
                with tracer.span("mapreduce.execute_reduce_task"):
                    execute_reduce_task(p, n_tasks, map_dir)
        files = [p for p in map_dir.iterdir() if p.is_file()]
        tracer.add("mapreduce.spill_files", len(files))
        tracer.add("mapreduce.spill_bytes", sum(p.stat().st_size for p in files))
        tracer.samples["mapreduce.partition_skew"].append(
            _ratio(part_records.max() * R, part_records.sum()))
        keys = np.concatenate(unique)
        order = np.argsort(keys, kind="stable")
        return KeyedTotals(keys[order], np.concatenate(totals)[order])
    finally:
        shutil.rmtree(spill, ignore_errors=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _straggler(durations: list[float]) -> float:
    return _ratio(max(durations), statistics.median(durations)) if durations else 0.0


def layer_metrics(tracer: Tracer, recorders: list[EngineRecorder],
                  pairs: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``, per job.

    ``tracer`` holds the replay of one job, ``recorders`` one entry per
    traced job; phase figures are medians over the traced jobs.  A layer
    that a workload bypasses reads 0.
    """
    c = tracer.counts
    kernel_s = tracer.total("kirchhoff.migrate_trace")
    fsum_s = tracer.total("exactsum.grouped_fsum")
    gflops = _ratio(FLOPS_PER_PAIR * pairs, kernel_s) / 1e9
    _, desk_gflop_years = estimate_flops(*DESK_JOB, FLOPS_PER_PAIR)

    phases = [r.phases() for r in recorders]

    def phase(name):
        return statistics.median(p[name] for p in phases) if phases else 0.0

    def per_job_max(key):
        return max((call[key] for r in recorders for call in r.calls), default=0)

    contributions = c["kirchhoff.contributions"]
    records_in = c["map.records_in"]
    s, n = "s", "count"
    return {
        "kirchhoff.migrate_trace_s": (kernel_s, s),
        "kirchhoff.pairs": (pairs, n),
        "kirchhoff.contributions": (contributions, n),
        "kirchhoff.kept_ratio": (_ratio(contributions, pairs), "ratio"),
        "kirchhoff.contrib_per_s": (_ratio(contributions, kernel_s), "1/s"),
        "kirchhoff.model_gflops": (gflops, "Gflop/s"),
        "kirchhoff.desk_job_years": (_ratio(desk_gflop_years, gflops), "years"),
        "exactsum.fsum_s": (fsum_s, s),
        "exactsum.groups": (c["exactsum.groups"], n),
        "exactsum.sums_per_s": (_ratio(c["exactsum.groups"], fsum_s), "1/s"),
        "exactsum.expansions_s": (tracer.total("exactsum.grouped_expansions"), s),
        # records spilled per record mapped; 1 without the combiner
        "exactsum.combiner_ratio": (
            _ratio(c["map.records_out"], records_in) if records_in else 1.0,
            "ratio"),
        "mapreduce.partition_s": (tracer.total("mapreduce.partitions_of"), s),
        "mapreduce.partition_skew": (
            max(tracer.samples["mapreduce.partition_skew"], default=0.0),
            "ratio"),
        "mapreduce.spill_write_s": (tracer.total("mapreduce.spill_write"), s),
        "mapreduce.spill_read_s": (tracer.total("mapreduce.spill_read"), s),
        "mapreduce.spill_bytes": (c["mapreduce.spill_bytes"], "bytes"),
        "mapreduce.spill_files": (c["mapreduce.spill_files"], n),
        "mapreduce.map_phase_s": (phase("map"), s),
        "mapreduce.reduce_phase_s": (phase("reduce"), s),
        "mapreduce.merge_s": (phase("merge"), s),
        "mapreduce.map_straggler_ratio": (
            _straggler(tracer.durations("mapreduce.execute_map_task")), "ratio"),
        "mapreduce.reduce_straggler_ratio": (
            _straggler(tracer.durations("mapreduce.execute_reduce_task")), "ratio"),
        "mapreduce.retries": (sum(r.count("task_retried") for r in recorders), n),
        "mapreduce.workers_lost": (sum(r.count("worker_lost") for r in recorders), n),
        "mapreduce.worker_startup_s": (phase("startup"), s),
        "mapreduce.manifest_bytes": (per_job_max("manifest_bytes"), "bytes"),
        "mapreduce.worker_peak_rss_mb": (per_job_max("worker_hwm_kb") / 1024.0, "MB"),
        "pipeline.reassemble_s": (tracer.total("pipeline.reassemble_image"), s),
        "storage.read_survey_s": (tracer.total("storage.read_survey"), s),
        "storage.write_image_s": (tracer.total("storage.write_image"), s),
        "velocity.focus_s": (tracer.total("velocity.focus"), s),
    }
