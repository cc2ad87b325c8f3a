"""Self-check of the benchmark at reduced size.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = workloads.Scale.small()
SEED = 3


def units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    tally, metrics = harness.measure(
        workloads.WORKLOADS[name](SMALL), SEED, 0.0, tmp_path)
    assert tally.failed == 0
    assert tally.attempted == harness.SETUP_REPEATS + 1
    assert {k: u for k, (_, u) in metrics.items()} == units(SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_overhead(name, tmp_path):
    workload = workloads.WORKLOADS[name](SMALL)
    trace = tmp_path / "trace.json"
    tally, metrics = harness.measure_traced(workload, SEED, 0.0, tmp_path, trace)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == units(SPEC["per_layer"])
    assert metrics["trace.overhead_s"][0] == pytest.approx(
        metrics["trace.job_s"][0] - json.loads(trace.read_text())["plain_job_s"][0])
    assert metrics["kirchhoff.pairs"][0] == workload.pairs_per_job
    assert metrics["kirchhoff.contributions"][0] > 0
    assert metrics["exactsum.groups"][0] > 0
    assert json.loads(trace.read_text())["spans"]


def test_multiprocess_trace_sees_workers(tmp_path):
    _, metrics = harness.measure_traced(
        workloads.MigrateMP(SMALL), SEED, 0.0, tmp_path, tmp_path / "t.json")
    for name in ("mapreduce.worker_startup_s", "mapreduce.manifest_bytes",
                 "mapreduce.worker_peak_rss_mb", "mapreduce.map_phase_s",
                 "mapreduce.reduce_phase_s", "mapreduce.spill_files"):
        assert metrics[name][0] > 0, name


def test_deterministic_counts_repeat(tmp_path):
    counts = ("kirchhoff.pairs", "kirchhoff.contributions", "exactsum.groups",
              "mapreduce.spill_bytes", "mapreduce.spill_files",
              "mapreduce.manifest_bytes")
    seen = []
    for i in range(2):
        _, metrics = harness.measure_traced(
            workloads.MigrateMP(SMALL), SEED, 0.0, tmp_path / str(i),
            tmp_path / f"t{i}.json")
        seen.append({name: metrics[name][0] for name in counts})
    assert seen[0] == seen[1]


class FlippedImageByte(workloads.MigrateMP):
    def job(self, state, spill, recorder=None):
        out = super().job(state, spill, recorder)
        data = bytearray(out.read_bytes())
        data[-1] ^= 0x01
        out.write_bytes(bytes(data))
        return out


class WrongVelocityPick(workloads.ScanThreaded):
    def job(self, state, spill, recorder=None):
        metrics, _ = super().job(state, spill, recorder)
        return metrics, workloads.CANDIDATES[0]


class StraySpillFile(workloads.ScanThreaded):
    def job(self, state, spill, recorder=None):
        (spill / "stray.kvp").write_bytes(b"")
        return super().job(state, spill, recorder)


class Raises(workloads.MigrateMP):
    def job(self, state, spill, recorder=None):
        raise RuntimeError("injected")


@pytest.mark.parametrize(
    "cls", [FlippedImageByte, WrongVelocityPick, StraySpillFile, Raises])
def test_wrong_job_counts_as_failed(cls, tmp_path):
    tally, metrics = harness.measure(cls(SMALL), SEED, 0.0, tmp_path)
    assert tally.attempted == harness.SETUP_REPEATS + 1
    assert tally.failed == tally.attempted
    assert metrics["success_rate"][0] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_threaded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
