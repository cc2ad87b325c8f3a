"""End-to-end command-line tests, run in-process through main(argv)."""
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pktm
from pktm import OffsetBinning, VelocityModel, velocity
from pktm.cli import main
from pktm.mapreduce import JobConfig, protocol
from pktm.mapreduce.protocol import Message, recv_message, send_message
from pktm.pipeline import migrate_survey
from pktm.storage import (
    read_image,
    read_survey,
    read_velocity,
    write_survey,
    write_velocity,
)

SYNTH = [
    "synth",
    "--sources", "6", "--source-x0", "100", "--source-dx", "150",
    "--receivers", "6", "--receiver-x0", "150", "--receiver-dx", "150",
    "--dt", "0.004", "--samples", "301", "--frequency", "25",
    "--scatterer", "550,0.4,1.0", "--vconst", "2000",
]

GRID = "200,25,25,0.1,0.004,151"
EDGES = "0,600,1800"


def synth(tmp_path, name="survey.trc"):
    path = tmp_path / name
    assert main(SYNTH + ["--output", str(path)]) == 0
    return path


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["estimate", "--bogus", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pktm estimate ")
        assert "error: unrecognized arguments: --bogus 1" in err
        assert main(["--bogus"]) == 2
        assert capsys.readouterr().err.startswith("usage: pktm [-h] COMMAND")

    @pytest.mark.parametrize("argv,message", [
        (["worker", "--connect", "localhost"],
         "argument --connect: expected host:port, got 'localhost'"),
        (["worker", "--connect", "localhost:http"],
         "argument --connect: bad port in 'localhost:http'"),
        (["migrate", "--listen", "5000"],
         "argument --listen: expected host:port, got '5000'"),
    ])
    def test_bad_host_port_is_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert main(["migrate"]) == 2
        err = capsys.readouterr().err
        assert "error: missing required options" in err
        assert "--input" in err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["migrate",
                   "--input", str(tmp_path / "absent.trc"),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_bytes(b"not a trace file")
        rc = main(["migrate", "--input", str(bad),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000"])
        assert rc == 3

    def test_domain_error_is_3(self, tmp_path, capsys):
        survey = synth(tmp_path)
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "-2000"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_non_finite_velocity_is_3(self, tmp_path, capsys):
        """A nan velocity would migrate to an all-zero image."""
        survey = synth(tmp_path)
        vfile = tmp_path / "v.txt"
        vfile.write_text("0.0 2000\n0.5 nan\n")
        base = ["migrate", "--input", str(survey),
                "--output", str(tmp_path / "o.img"),
                "--grid", GRID, "--offset-edges", EDGES, "--aperture", "400"]
        for velocity in (["--vconst", "nan"], ["--velocity", str(vfile)]):
            assert main(base + velocity) == 3
            assert "knots must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.img").exists()

    def test_both_velocity_sources_is_usage_error(self, tmp_path, capsys):
        survey = synth(tmp_path)
        vfile = tmp_path / "v.txt"
        write_velocity(vfile, VelocityModel.constant(2000.0))
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000",
                   "--velocity", str(vfile)])
        assert rc == 2

    def test_worker_cannot_connect(self, capsys, monkeypatch):
        # nothing listens on this port: each connect is refused at once,
        # and the worker retries it until the deadline has passed
        monkeypatch.setattr(protocol, "CONNECT_TIMEOUT", 0.3)
        start = time.monotonic()
        assert main(["worker", "--connect", "127.0.0.1:1"]) == 4
        assert 0.25 <= time.monotonic() - start < 10.0
        assert "error: worker connection failed" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"not a pickle", b"", pickle.dumps(list(range(100)))[:20],
    ], ids=["not-a-pickle", "empty", "truncated"])
    def test_worker_cannot_load_manifest(self, tmp_path, capsys, content):
        """A coordinator whose manifest does not unpickle fails the
        worker's registration: exit 4 and one error line, no traceback."""
        manifest = tmp_path / "manifest.pkl"
        manifest.write_bytes(content)
        seen = []
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(10.0)

            def coordinator():
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(10.0)
                    seen.append(recv_message(conn).tag)
                    send_message(conn, Message(protocol.REGISTER,
                                               detail=str(manifest)))
                    seen.append(recv_message(conn))

            thread = threading.Thread(target=coordinator)
            thread.start()
            port = server.getsockname()[1]
            rc = main(["worker", "--connect", f"127.0.0.1:{port}"])
            thread.join(timeout=10.0)
        assert rc == 4
        assert seen == [protocol.REGISTER, None]   # then the worker hung up
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(manifest) in err
        assert "Traceback" not in err


class TestSharedOptions:
    """migrate, scan and loop build their job before reading the survey."""

    COMMANDS = {
        "migrate": ["--output", "o.img", "--vconst", "2000"],
        "scan": ["--candidates", "2000", "--report", "r.csv"],
        "loop": ["--v0", "2000", "--candidates", "2000", "--report", "r.csv"],
    }

    @pytest.fixture
    def no_read(self, monkeypatch):
        import pktm.cli

        def read_survey(*args, **kwargs):
            raise AssertionError("the survey was read")

        monkeypatch.setattr(pktm.cli, "read_survey", read_survey)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("bad", [["--workers", "0"],
                                     ["--partitions", "0"],
                                     ["--chunk-size", "0"]])
    def test_bad_engine_option_fails_before_the_read(
            self, command, bad, tmp_path, monkeypatch, capsys, no_read):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--input", "survey.trc", "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                *self.COMMANDS[command], *bad]
        assert main(argv) == 3
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("timeout", ["inf", "1e10"])
    def test_unusable_task_timeout_fails_before_the_read(
            self, timeout, tmp_path, monkeypatch, capsys, no_read):
        """A deadline no socket takes would hang a multiprocess job while
        its workers register."""
        monkeypatch.chdir(tmp_path)
        assert main(["migrate", "--input", "survey.trc", "--grid", GRID,
                     "--offset-edges", EDGES, "--aperture", "500",
                     *self.COMMANDS["migrate"], "--mode", "multiprocess",
                     "--task-timeout", timeout]) == 3
        assert "task_timeout must be > 0 and at most" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_gain_fails_before_the_read(self, tmp_path, monkeypatch,
                                            capsys, no_read):
        monkeypatch.chdir(tmp_path)
        assert main(["migrate", "--input", "survey.trc", "--grid", GRID,
                     "--offset-edges", EDGES, "--aperture", "500",
                     *self.COMMANDS["migrate"],
                     "--gain", "0", "--export-pgm", "x.pgm"]) == 3
        assert ("error: gain must be finite and > 0, got 0.0"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_scan_takes_no_velocity(self, tmp_path, capsys):
        """The scan migrates at its candidates only."""
        argv = ["scan", "--input", "survey.trc", "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                "--candidates", "2000"]
        for flag, value in (("--velocity", "v.txt"), ("--vconst", "1234")):
            assert main(argv + [flag, value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: pktm scan ")
            assert f"unrecognized arguments: {flag}" in err
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            assert main(argv + ["--config", str(cfg)]) == 3
            assert (f"unknown config keys: {flag[2:]}"
                    in capsys.readouterr().err)


class TestOutputDirectories:
    """A write into a missing directory would fail only after the whole
    job: each output's directory is checked before any input is read."""

    @pytest.mark.parametrize("command, flag", [
        ("migrate", "--output"), ("migrate", "--export-pgm"),
        ("scan", "--report"), ("loop", "--report"), ("demig", "--output")])
    def test_missing_directory_exits_3_before_the_job(
            self, command, flag, tmp_path, monkeypatch, capsys):
        import pktm.cli
        from pktm import pipeline

        calls = []

        def never(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(pipeline, "run_job", never("run_job"))
        monkeypatch.setattr(velocity, "_migrate", never("_migrate"))
        monkeypatch.setattr(pktm.cli, "read_image", never("read_image"))
        survey = synth(tmp_path)
        missing = tmp_path / "missing" / "out"
        common = ["--offset-edges", EDGES, "--aperture", "500"]
        imaging = ["--input", str(survey), "--grid", GRID, *common]
        argv = {
            "migrate": ["migrate", *imaging, "--vconst", "2000",
                        "--output", str(tmp_path / "o.img")],
            "scan": ["scan", *imaging, "--candidates", "2000"],
            "loop": ["loop", *imaging, "--v0", "2000",
                     "--candidates", "2000"],
            "demig": ["demig", "--input", str(tmp_path / "i.img"),
                      "--geometry", str(survey), "--vconst", "2000",
                      *common],
        }[command]
        assert main(argv + [flag, str(missing)]) == 3
        err = capsys.readouterr().err
        assert f"output directory does not exist: '{missing}'" in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == [survey]

    @pytest.mark.parametrize("command, flag", [
        ("migrate", "--output"), ("migrate", "--export-pgm"),
        ("scan", "--report"), ("loop", "--report"), ("demig", "--output")])
    def test_directory_path_exits_3_before_the_read(
            self, command, flag, tmp_path, monkeypatch, capsys):
        """An output that is an existing directory would fail only at the
        write, after the whole job."""
        import pktm.cli

        def never(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(pktm.cli, "read_survey", never)
        monkeypatch.setattr(pktm.cli, "read_image", never)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        common = ["--offset-edges", EDGES, "--aperture", "500"]
        imaging = ["--input", "survey.trc", "--grid", GRID, *common]
        argv = {
            "migrate": ["migrate", *imaging, "--vconst", "2000",
                        "--output", str(tmp_path / "o.img")],
            "scan": ["scan", *imaging, "--candidates", "2000"],
            "loop": ["loop", *imaging, "--v0", "2000",
                     "--candidates", "2000"],
            "demig": ["demig", "--input", "i.img", "--geometry", "g.trc",
                      "--vconst", "2000", *common],
        }[command]
        assert main(argv + [flag, str(outdir)]) == 3
        err = capsys.readouterr().err
        assert f"output path is a directory: '{outdir}'" in err
        assert list(tmp_path.iterdir()) == [outdir]
        assert list(outdir.iterdir()) == []


class TestSynth:
    def test_writes_survey(self, tmp_path, capsys):
        path = synth(tmp_path)
        out = capsys.readouterr().out
        assert "wrote 36 traces" in out
        survey = read_survey(path)
        assert len(survey) == 36
        assert survey.traces[0].header.n_samples == 301

    def test_requires_scatterer(self, tmp_path, capsys):
        rc = main([a for a in SYNTH if a not in ("--scatterer", "550,0.4,1.0")]
                  + ["--output", str(tmp_path / "s.trc")])
        assert rc == 2
        assert "scatterer" in capsys.readouterr().err


class TestMigrateAndDemig:
    def test_migrate_writes_image(self, tmp_path, capsys):
        survey = synth(tmp_path)
        image_path = tmp_path / "out.img"
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(image_path),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--weight", "obliquity",
                   "--vconst", "2000"])
        assert rc == 0
        image = read_image(image_path)
        assert image.values.shape == (2, 25, 151)
        assert np.any(image.values)

    def test_migrate_pgm_export(self, tmp_path):
        survey = synth(tmp_path)
        pgm = tmp_path / "stack.pgm"
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--export-pgm", str(pgm), "--gain", "2.0",
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--vconst", "2000"])
        assert rc == 0
        assert pgm.read_bytes().startswith(b"P5\n25 151\n255\n")

    def test_failed_pgm_export_leaves_no_output(self, tmp_path, capsys):
        survey = synth(tmp_path)
        pgm = tmp_path / "missing" / "stack.pgm"
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--export-pgm", str(pgm),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--vconst", "2000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"'{pgm}'" in err and ".tmp-" not in err
        assert sorted(tmp_path.rglob("*")) == [survey]

    def test_pgm_export_failing_after_the_job_removes_the_image(
            self, tmp_path, capsys, monkeypatch):
        """The directory check passes, then the export's write fails."""
        import pktm.cli

        def export_pgm(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(pktm.cli, "export_pgm", export_pgm)
        survey = synth(tmp_path)
        pgm = tmp_path / "stack.pgm"
        rc = main(["migrate", "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--export-pgm", str(pgm),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--vconst", "2000"])
        assert rc == 3
        assert f"Permission denied: '{pgm}'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [survey]

    def test_sigterm_mid_job_removes_the_spill_and_ends_by_the_signal(
            self, tmp_path):
        """A multiprocess job waiting for an external worker that never
        comes is sent SIGTERM: it unwinds, removes its spill directory and
        writes no image, and the process still ends by SIGTERM."""
        survey = synth(tmp_path)
        spill = tmp_path / "spill"
        image = tmp_path / "o.img"
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = str(Path(pktm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pktm", "migrate", "--input", str(survey),
             "--output", str(image), "--grid", GRID, "--offset-edges", EDGES,
             "--aperture", "500", "--vconst", "2000",
             "--mode", "multiprocess", "--listen", f"127.0.0.1:{port}",
             "--spill-dir", str(spill)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 20.0
            while not list(spill.glob("job-*/manifest.pkl")):
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGTERM
        assert list(spill.iterdir()) == []
        assert not image.exists()

    def test_migrate_threaded_matches_serial(self, tmp_path, spill_dir):
        survey = synth(tmp_path)
        serial, threaded = tmp_path / "s.img", tmp_path / "t.img"
        base = ["migrate", "--input", str(survey),
                "--grid", GRID, "--offset-edges", EDGES,
                "--aperture", "500", "--vconst", "2000",
                "--spill-dir", spill_dir]
        assert main(base + ["--output", str(serial)]) == 0
        assert main(base + ["--output", str(threaded),
                            "--mode", "threaded", "--workers", "4",
                            "--combiner", "on"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("mode", [None, "serial", "threaded"])
    def test_listen_needs_multiprocess_mode(self, mode, tmp_path, capsys):
        """Only a multiprocess job serves external workers, so --listen in
        any other mode, from a flag or from a config file, is a usage
        error, not a flag silently ignored."""
        argv = ["migrate", "--input", str(synth(tmp_path)),
                "--output", str(tmp_path / "o.img"), "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                "--vconst", "2000"]
        if mode:
            argv += ["--mode", mode]
        cfg = tmp_path / "listen.cfg"
        cfg.write_text("listen = 127.0.0.1:47999\n")
        for extra in (["--listen", "127.0.0.1:47999"], ["--config", str(cfg)]):
            assert main(argv + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: pktm migrate ")
            assert "error: --listen needs --mode multiprocess" in err
        assert not (tmp_path / "o.img").exists()

    def test_demig_roundtrip_runs(self, tmp_path):
        survey = synth(tmp_path)
        image_path = tmp_path / "o.img"
        main(["migrate", "--input", str(survey), "--output", str(image_path),
              "--grid", GRID, "--offset-edges", EDGES,
              "--aperture", "500", "--vconst", "2000"])
        modeled = tmp_path / "modeled.trc"
        rc = main(["demig", "--input", str(image_path),
                   "--geometry", str(survey), "--output", str(modeled),
                   "--offset-edges", EDGES, "--aperture", "500",
                   "--vconst", "2000"])
        assert rc == 0
        back = read_survey(modeled)
        assert len(back) == 36
        assert any(np.any(t.samples) for t in back)


class TestScanAndLoop:
    def test_scan_picks_true_velocity(self, tmp_path, capsys):
        survey = synth(tmp_path)
        report = tmp_path / "scan.csv"
        rc = main(["scan", "--input", str(survey),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--weight", "obliquity",
                   "--candidates", "1700,2000,2300",
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best 2000.0" in out
        assert report.read_text().count("\n") == 4  # header + 3 rows

    def test_loop_converges(self, tmp_path, capsys):
        survey = synth(tmp_path)
        rc = main(["loop", "--input", str(survey),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--weight", "obliquity",
                   "--v0", "1700", "--candidates", "1700,1850,2000,2150",
                   "--tolerance", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final_velocity 2000.0" in out
        assert "converged yes" in out

    @pytest.mark.parametrize("command", ["scan", "loop"])
    def test_listen_is_migrate_only(self, command, tmp_path, capsys):
        """Each velocity is its own job, and a worker exits after one job,
        so external workers cannot serve a scan: only migrate listens."""
        argv = [command, "--input", str(synth(tmp_path)), "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                "--candidates", "2000"]
        if command == "loop":
            argv += ["--v0", "2000"]
        assert main(argv + ["--listen", "127.0.0.1:47999"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --listen" in err
        assert err.startswith(f"usage: pktm {command} ")
        cfg = tmp_path / "listen.cfg"
        cfg.write_text("listen = 127.0.0.1:47999\n")
        assert main(argv + ["--config", str(cfg)]) == 3
        assert "unknown config keys: listen" in capsys.readouterr().err

    def test_loop_takes_no_max_iterations(self, tmp_path, capsys):
        """The loop runs at most two passes and one scan, so it has no
        iteration cap to set."""
        argv = ["loop", "--input", str(synth(tmp_path)), "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                "--candidates", "2000", "--v0", "2000"]
        assert main(argv + ["--max-iterations", "6"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --max-iterations" in err
        assert err.startswith("usage: pktm loop ")
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("max-iterations = 6\n")
        assert main(argv + ["--config", str(cfg)]) == 3
        assert "unknown config keys: max-iterations" in capsys.readouterr().err

    def test_loop_rejects_negative_max_lag(self, tmp_path, capsys):
        rc = main(["loop", "--input", str(synth(tmp_path)), "--grid", GRID,
                   "--offset-edges", EDGES, "--aperture", "500",
                   "--candidates", "2000", "--v0", "2000", "--max-lag", "-1"])
        assert rc == 3
        assert "error: max_lag must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "loop"])
    def test_duplicate_candidates_exit_3_before_any_migration(
            self, command, tmp_path, capsys, monkeypatch):
        """A repeated candidate would be migrated twice and both rows
        marked selected."""
        migrations = []
        monkeypatch.setattr(velocity, "_migrate",
                            lambda *args: migrations.append(args))
        report = tmp_path / "dup.csv"
        argv = [command, "--input", str(synth(tmp_path)), "--grid", GRID,
                "--offset-edges", EDGES, "--aperture", "500",
                "--candidates", "2000,2000", "--report", str(report)]
        if command == "loop":
            argv += ["--v0", "2000"]
        assert main(argv) == 3
        assert migrations == []
        assert not report.exists()
        assert ("error: candidate velocities must be distinct, got "
                "[2000.0, 2000.0]") in capsys.readouterr().err

    def test_loop_rejects_negative_tolerance(self, tmp_path, capsys):
        rc = main(["loop", "--input", str(synth(tmp_path)), "--grid", GRID,
                   "--offset-edges", EDGES, "--aperture", "500",
                   "--candidates", "2000", "--v0", "1700",
                   "--tolerance", "-1"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "error: lag_tolerance must be >= 0, got -1" in captured.err
        assert "iteration" not in captured.out


class TestAdjointAndEstimate:
    def test_adjoint_test_passes(self, capsys):
        assert main(["adjoint-test", "--traces", "20", "--samples", "60",
                     "--nx", "24", "--ntau", "24"]) == 0
        out = capsys.readouterr().out
        assert "relative_error" in out
        assert "pass" in out

    def test_adjoint_test_impossible_tolerance_fails(self, capsys):
        rc = main(["adjoint-test", "--traces", "20", "--samples", "60",
                   "--nx", "24", "--ntau", "24", "--tolerance", "0"])
        assert rc == 4
        assert "error: adjoint mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_adjoint_test_rejects_bad_tolerance(self, capsys, tolerance):
        assert main(["adjoint-test", "--tolerance", tolerance]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: tolerance must be finite and >= 0, "
                                f"got {float(tolerance)}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["--traces", "-3"],
                                      ["--samples", "0"],
                                      ["--nx", "0"],
                                      ["--bins", "0"]])
    def test_adjoint_test_rejects_bad_sizes(self, capsys, args):
        assert main(["adjoint-test", *args]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "pass" not in captured.out

    @pytest.mark.parametrize("traces,samples", [(0, 0), (0, -1), (5, 0)])
    def test_adjoint_test_rejects_samples_below_one(self, capsys, traces,
                                                    samples):
        """With no trace no header checks the sample count; it is checked
        whatever the trace count."""
        assert main(["adjoint-test", "--traces", str(traces),
                     "--samples", str(samples)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: samples must be >= 1, got {samples}\n"
        assert "pass" not in captured.out

    @pytest.mark.parametrize("args", [["--traces", "0"],
                                      ["--samples", "1", "--traces", "5"]])
    def test_adjoint_test_with_both_sides_zero_passes(self, capsys, args):
        """No trace, or one-sample traces whose one time lies above every
        cell: both inner products are 0."""
        assert main(["adjoint-test", *args]) == 0
        out = capsys.readouterr().out
        assert "<Lm,d> 0.0" in out and "<m,L'd> 0.0" in out
        assert "relative_error 0.0" in out
        assert "pass" in out

    def test_estimate_prints_flops(self, capsys):
        assert main(["estimate", "--image-points", "1e9",
                     "--traces", "1e7"]) == 0
        out = capsys.readouterr().out
        assert "flops 1e+17" in out
        assert "gflop_years" in out

    def test_estimate_accepts_short_flag_spellings(self, capsys):
        assert main(["estimate", "--nxyz", "1e9", "--ntraces", "1e7",
                     "--fk", "10"]) == 0
        out = capsys.readouterr().out
        assert "flops 1e+17" in out
        assert "gflop_years 3.168" in out

    def test_estimate_rejects_overflow(self, capsys):
        assert main(["estimate", "--image-points", "1e300",
                     "--traces", "1e300"]) == 3


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        survey = synth(tmp_path)
        cfg = tmp_path / "migrate.cfg"
        cfg.write_text(
            "# migration settings\n"
            f"grid = {GRID}\n"
            f"offset-edges = {EDGES}\n"
            "aperture = 500\n"
            "vconst = 2000\n"
            "weight = obliquity\n")
        rc = main(["migrate", "--config", str(cfg),
                   "--input", str(survey),
                   "--output", str(tmp_path / "o.img")])
        assert rc == 0

    def test_flag_beats_config(self, tmp_path, capsys):
        survey = synth(tmp_path)
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            f"grid = {GRID}\noffset-edges = {EDGES}\naperture = 500\n"
            "candidates = 1700,2300\n")
        rc = main(["scan", "--config", str(cfg), "--input", str(survey),
                   "--candidates", "2000"])
        assert rc == 0
        assert "best 2000.0" in capsys.readouterr().out

    def test_config_beats_default(self, tmp_path, capsys):
        """``--tolerance`` defaults to 1, which takes the loop to 2000 m/s
        (test_loop_converges); a config tolerance of 50 lags accepts the
        first velocity."""
        survey = synth(tmp_path)
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("tolerance = 50\n")
        rc = main(["loop", "--config", str(cfg), "--input", str(survey),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "500", "--weight", "obliquity",
                   "--v0", "1700", "--candidates", "1700,1850,2000,2150"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final_velocity 1700.0 converged yes" in out
        assert out.count("iteration ") == 1

    def test_engine_options_from_config_flags_and_defaults(
            self, tmp_path, monkeypatch):
        import pktm.cli

        seen = []

        def spy(survey, job, config, **kw):
            seen.append(config)
            return migrate_survey(survey, job, config, **kw)

        monkeypatch.setattr(pktm.cli, "migrate_survey", spy)
        survey = synth(tmp_path)
        cfg = tmp_path / "migrate.cfg"
        cfg.write_text(f"grid = {GRID}\noffset-edges = {EDGES}\n"
                       "aperture = 500\nvconst = 2000\nmode = threaded\n"
                       "partitions = 3\ncombiner = on\nchunk-size = 9\n")
        rc = main(["migrate", "--config", str(cfg), "--input", str(survey),
                   "--output", str(tmp_path / "o.img"), "--chunk-size", "5"])
        assert rc == 0
        defaults = JobConfig()
        assert seen == [JobConfig(
            mode="threaded", n_partitions=3, combiner_enabled=True,
            chunk_size=5, n_workers=defaults.n_workers,
            task_timeout=defaults.task_timeout,
            max_task_retries=defaults.max_task_retries)]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        survey = synth(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("apertur = 500\n")
        rc = main(["migrate", "--config", str(cfg), "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000"])
        assert rc == 3
        assert "unknown config keys: apertur" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid = 1,2,3\n")
        rc = main(["migrate", "--config", str(cfg), "--input", "x",
                   "--output", "y", "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000"])
        assert rc == 3
        assert "config grid" in capsys.readouterr().err

    def test_repeated_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# two scatterers\nscatterer = 300,0.3,1.0\n\n"
                       "scatterer = 700,0.5,1.0\n")
        rc = main(SYNTH + ["--config", str(cfg),
                           "--output", str(tmp_path / "s.trc")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{cfg}:4: key 'scatterer' repeats line 2" in err
        assert not (tmp_path / "s.trc").exists()

    def test_repeatable_option_from_one_line(self, tmp_path):
        """Two scatterers on one ``;``-separated line synthesize what two
        ``--scatterer`` flags do."""
        argv = [a for a in SYNTH if a != "--scatterer" and a != "550,0.4,1.0"]
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("scatterer = 300,0.3,1.0;700,0.5,1.0\n")
        assert main(argv + ["--config", str(cfg),
                            "--output", str(tmp_path / "cfg.trc")]) == 0
        assert main(argv + ["--scatterer", "300,0.3,1.0",
                            "--scatterer", "700,0.5,1.0",
                            "--output", str(tmp_path / "flags.trc")]) == 0
        one = (tmp_path / "cfg.trc").read_bytes()
        assert one == (tmp_path / "flags.trc").read_bytes()
        single = tmp_path / "one.trc"
        assert main(argv + ["--scatterer", "300,0.3,1.0",
                            "--output", str(single)]) == 0
        assert one != single.read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["migrate", "--config", str(tmp_path / "absent.cfg"),
                   "--input", "x", "--output", "y"])
        assert rc == 3
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_choice_in_config(self, tmp_path, capsys):
        survey = synth(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("weight = heavy\n")
        rc = main(["migrate", "--config", str(cfg), "--input", str(survey),
                   "--output", str(tmp_path / "o.img"),
                   "--grid", GRID, "--offset-edges", EDGES,
                   "--aperture", "400", "--vconst", "2000"])
        assert rc == 3
        assert "invalid choice" in capsys.readouterr().err
