"""End-to-end command-line tests, run in-process through main(argv)."""
import numpy as np
import pytest

from pktm import OffsetBinning, VelocityModel
from pktm.cli import main
from pktm.mapreduce import JobConfig
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
        assert "error:" in capsys.readouterr().err

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

    def test_worker_cannot_connect(self, capsys):
        # nothing listens on this port; connection is refused immediately
        assert main(["worker", "--connect", "127.0.0.1:1"]) == 4
        assert "error:" in capsys.readouterr().err


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
