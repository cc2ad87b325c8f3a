"""Closed-loop measurement: one client runs one job at a time.

``measure`` (tracing off) reports the end-to-end metrics; ``measure_traced``
alternates plain and traced jobs, replays one job layer by layer and reports
the per-layer metrics.  Every job is checked against its workload's oracle:
a job that raises, mismatches, or leaves a spill file behind counts as
attempted and failed.
"""

from __future__ import annotations

import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pktm

import layers

SETUP_REPEATS = 3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


def _cpu_s() -> float:
    """User + system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Runner:
    """Runs checked jobs of one workload inside one work directory."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.tally = Tally()
        self._ids = itertools.count()

    def fresh_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}{next(self._ids)}"
        path.mkdir(parents=True)
        return path

    def job(self, state, recorder=None) -> tuple[float, float]:
        """One checked job; returns (wall seconds, CPU seconds)."""
        spill = self.fresh_dir("spill")
        out, reason = None, None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = self.workload.job(state, spill, recorder)
        except Exception as exc:  # a failed job is counted, never dropped
            reason = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if reason is None:
            reason = self.workload.check(state, out)
        if reason is None and any(spill.iterdir()):
            reason = "left spill files behind"
        shutil.rmtree(spill, ignore_errors=True)
        self.tally.record(reason)
        return wall, cpu

    def setup(self, seed: int):
        """Build inputs and oracle, then run one warm-up job."""
        state = self.workload.setup(seed, self.fresh_dir("inputs"))
        self.job(state)
        return state


def measure(workload, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    runner = Runner(workload, work)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = runner.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = runner.job(state)
        walls.append(wall)
        cpus.append(cpu)
    job_s = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_s": (job_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "effective_gflops": (
            layers.FLOPS_PER_PAIR * workload.pairs_per_job / job_s / 1e9, "Gflop/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - runner.tally.failed / runner.tally.attempted, "ratio"),
    }
    log(f"{workload.name}: {len(walls)} timed jobs, job_s samples "
        + " ".join(f"{w:.3f}" for w in walls)
        + f"; setup_s samples " + " ".join(f"{s:.3f}" for s in setup_s)
        + f"; error_rate {runner.tally.failed}/{runner.tally.attempted}")
    return runner.tally, metrics


def measure_traced(workload, seed: int, seconds: float, work: Path,
                   trace_path: Path) -> tuple[Tally, dict]:
    runner = Runner(workload, work)
    state = runner.setup(seed)
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.job(state)[0])
        recorder = layers.EngineRecorder()
        traced.append(runner.job(state, recorder)[0])
        recorders.append(recorder)
    tracer = layers.Tracer()
    try:
        with tracer.span("replay"):
            reason = workload.replay(state, tracer, runner.fresh_dir("replay"))
    except Exception as exc:
        reason = f"raised {exc!r}"
    runner.tally.record(reason and f"replay {reason}")
    metrics = layers.layer_metrics(tracer, recorders, workload.pairs_per_job)
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    tracer.dump(trace_path, workload=workload.name, seed=seed,
                plain_job_s=plain, traced_job_s=traced,
                engine_calls=[c for r in recorders for c in r.calls])
    log(f"{workload.name}: {len(traced)} traced + {len(plain)} plain jobs, "
        f"spans written to {trace_path}; "
        f"error_rate {runner.tally.failed}/{runner.tally.attempted}")
    return runner.tally, metrics


def environment(src: Path) -> dict:
    """What was measured, and on what."""
    root = src.parent
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "pktm_file": pktm.__file__,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_model": cpu_model,
    }


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
