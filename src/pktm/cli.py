"""Command-line interface.

Subcommands: synth, migrate, demig, scan, loop, adjoint-test, estimate,
worker.  Exit codes: 0 success, 2 usage, 3 input validation, 4 job or
runtime failure.  Every error goes to stderr with an ``error:`` prefix.
SIGTERM unwinds a command as Ctrl-C does, so a job removes its spill
directory, and then ends the process by the signal.

Options may also come from a ``--config`` file of ``key = value`` lines
(keys are the long option names without dashes; ``#`` starts a comment).
A key may appear once: a repeatable option such as ``scatterer`` takes one
line of ``;``-separated values, and a repeated key exits 3.  Explicit
command-line flags win over config values, which win over defaults.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .kirchhoff import MigrationJob, forward_model, migrate_survey_serial, stack_offsets
from .mapreduce import ContractViolationError, JobConfig, JobError
from .mapreduce.engine import MODES
from .mapreduce.protocol import CONNECT_TIMEOUT, ProtocolError, parse_hostport
from .mapreduce.worker import worker_main
from .model import (
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    estimate_flops,
)
from .pipeline import migrate_survey
from .storage import (
    StorageError,
    check_gain,
    export_pgm,
    read_image,
    read_survey,
    read_velocity,
    write_image,
    write_survey,
)
from .synthetics import RickerWavelet, Scatterer, make_acquisition, synth_survey
from .traveltime import KernelParams, WeightMode
from .velocity import (
    constant_velocity_scan,
    imaging_loop,
    write_loop_csv,
    write_scan_csv,
)


class _UsageError(Exception):
    pass


class _Terminated(BaseException):
    """Raised in the main thread by SIGTERM while a command runs."""


def _terminate(signum, frame):
    raise _Terminated


class _Help(argparse.HelpFormatter):
    """Ends each option's help with its default, where it has one."""

    def _get_help_string(self, action):
        text = action.help or ""
        if action.option_strings and action.default not in (None,
                                                           argparse.SUPPRESS):
            text += " (default %(default)s)"
        return text.strip()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(2)


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _grid_spec(text: str) -> tuple:
    fields = text.split(",")
    if len(fields) != 6:
        raise argparse.ArgumentTypeError(
            "grid must be x_min,dx,nx,tau_min,dtau,ntau")
    try:
        return (float(fields[0]), float(fields[1]), int(fields[2]),
                float(fields[3]), float(fields[4]), int(fields[5]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid specification {text!r}") from None


def _scatterer(text: str) -> Scatterer:
    fields = text.split(",")
    if len(fields) not in (2, 3):
        raise argparse.ArgumentTypeError("scatterer must be x,tau[,amplitude]")
    try:
        return Scatterer(float(fields[0]), float(fields[1]),
                         float(fields[2]) if len(fields) == 3 else 1.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad scatterer {text!r}: {exc}") from None


def _hostport(text: str) -> str:
    try:
        parse_hostport(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# ---------------------------------------------------------------------------
# option groups
# ---------------------------------------------------------------------------

def _add_velocity(p: _Parser) -> None:
    p.add_argument("--velocity", metavar="FILE",
                   help="velocity table file of 'tau vrms' lines")
    p.add_argument("--vconst", type=float, metavar="V",
                   help="constant migration velocity in m/s")


def _add_kernel(p: _Parser, aperture: float | None = None,
                weight: str = "unit") -> None:
    p.add_argument("--aperture", type=float, default=aperture, metavar="M",
                   help="half-width of the migration aperture around the midpoint")
    p.add_argument("--weight", choices=[m.value for m in WeightMode],
                   default=weight,
                   help="amplitude weight applied along the isochron")


def _add_imaging(p: _Parser) -> None:
    """The options of migrate, scan and loop that :func:`_setup` reads."""
    p.add_argument("--input", metavar="FILE", help="trace file to read")
    _add_kernel(p)
    p.add_argument("--grid", type=_grid_spec, metavar="SPEC",
                   help="image grid as x_min,dx,nx,tau_min,dtau,ntau")
    p.add_argument("--offset-edges", type=_floats_csv, metavar="E0,E1,...",
                   help="offset bin edges in meters; defines the bin count")
    job = JobConfig()
    p.add_argument("--mode", choices=MODES, default=job.mode,
                   help="execution mode")
    p.add_argument("--workers", type=int, default=job.n_workers, metavar="N",
                   help="worker count for threaded/multiprocess modes")
    p.add_argument("--partitions", type=int, default=job.n_partitions,
                   metavar="R", help="reduce partition count")
    p.add_argument("--combiner", choices=("on", "off"),
                   default="on" if job.combiner_enabled else "off",
                   help="map-side combining of duplicate keys")
    p.add_argument("--chunk-size", type=int, default=job.chunk_size,
                   metavar="N", help="records per map task")
    p.add_argument("--task-timeout", type=float, default=job.task_timeout,
                   metavar="SECONDS",
                   help="multiprocess mode: per-task deadline before "
                        "reassignment; finite, at most about 292 years")
    p.add_argument("--max-task-retries", type=int,
                   default=job.max_task_retries, metavar="N",
                   help="retries allowed per task beyond the first attempt")
    p.add_argument("--spill-dir", metavar="DIR",
                   help="root for intermediate spill files "
                        "(default $PKTM_SPILL_DIR, then system temp)")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="pktm", allow_abbrev=False, description=__doc__,
                     formatter_class=_Help)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    registry: dict[str, _Parser] = {}

    def sub(name: str, help_text: str) -> _Parser:
        # subparsers inherit _Parser, so usage errors exit 2 uniformly
        p = subs.add_parser(name, help=help_text, allow_abbrev=False,
                            formatter_class=_Help)
        p.add_argument("--config", metavar="FILE",
                       help="key=value option file; flags override it")
        registry[name] = p
        return p

    p = sub("synth", "generate a synthetic point-scatterer survey")
    p.add_argument("--output", metavar="FILE", help="trace file to write")
    p.add_argument("--sources", type=int, metavar="K")
    p.add_argument("--source-x0", type=float, metavar="X")
    p.add_argument("--source-dx", type=float, metavar="DX")
    p.add_argument("--receivers", type=int, metavar="L")
    p.add_argument("--receiver-x0", type=float, metavar="X")
    p.add_argument("--receiver-dx", type=float, metavar="DX")
    p.add_argument("--t0", type=float, default=0.0, metavar="S",
                   help="first sample time")
    p.add_argument("--dt", type=float, metavar="S")
    p.add_argument("--samples", type=int, metavar="N")
    p.add_argument("--frequency", type=float, metavar="HZ",
                   help="Ricker wavelet peak frequency")
    p.add_argument("--scatterer", type=_scatterer, action="append",
                   metavar="X,TAU[,AMP]", help="repeatable")
    _add_velocity(p)

    p = sub("migrate", "migrate a trace file to a common-offset image")
    _add_imaging(p)
    p.add_argument("--output", metavar="FILE", help="image file to write")
    p.add_argument("--export-pgm", metavar="FILE",
                   help="also write the stacked section as a PGM picture")
    p.add_argument("--gain", type=float, default=1.0,
                   help="display gain for the PGM export")
    _add_velocity(p)
    p.add_argument("--listen", type=_hostport, metavar="HOST:PORT",
                   help="multiprocess mode: start no workers; run --workers "
                        "tasks at once on `pktm worker --connect` processes")

    p = sub("demig", "model traces from an image (exact migration transpose)")
    p.add_argument("--input", metavar="FILE", help="image file to read")
    p.add_argument("--geometry", metavar="FILE",
                   help="trace file supplying the acquisition headers")
    p.add_argument("--output", metavar="FILE", help="trace file to write")
    p.add_argument("--offset-edges", type=_floats_csv, metavar="E0,E1,...")
    _add_velocity(p)
    _add_kernel(p)

    p = sub("scan", "rank candidate constant velocities by stack focusing")
    _add_imaging(p)
    p.add_argument("--candidates", type=_floats_csv, metavar="V1,V2,...")
    p.add_argument("--report", metavar="FILE", help="CSV report to write")

    p = sub("loop", "migrate at --v0; if moveout exceeds --tolerance, "
                    "scan once and check the pick")
    _add_imaging(p)
    p.add_argument("--v0", type=float, metavar="V", help="starting velocity")
    p.add_argument("--candidates", type=_floats_csv, metavar="V1,V2,...")
    p.add_argument("--tolerance", type=int, default=1, metavar="SAMPLES",
                   help="largest acceptable residual-moveout lag")
    p.add_argument("--max-lag", type=int, default=20, metavar="SAMPLES",
                   help="largest residual-moveout lag searched")
    p.add_argument("--report", metavar="FILE", help="CSV report to write")

    p = sub("adjoint-test", "randomized migration/modeling dot-product test")
    p.add_argument("--traces", type=int, default=50, help="random traces")
    p.add_argument("--samples", type=int, default=120,
                   help="samples per trace")
    p.add_argument("--nx", type=int, default=48, help="image midpoints")
    p.add_argument("--ntau", type=int, default=48, help="image times")
    p.add_argument("--bins", type=int, default=2, help="offset bins")
    p.add_argument("--seed", type=int, default=20240811,
                   help="seed of the random traces and image")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="largest passing relative mismatch")
    _add_kernel(p, aperture=400.0, weight="obliquity")

    p = sub("estimate", "print flop count and Gflop-years for a job size")
    p.add_argument("--nxyz", "--image-points", dest="image_points",
                   type=float, metavar="N", help="image points in the volume")
    p.add_argument("--ntraces", "--traces", dest="traces",
                   type=float, metavar="N", help="contributing traces")
    p.add_argument("--fk", "--flops-per-point", dest="flops_per_point",
                   type=float, default=10.0, metavar="F",
                   help="kernel cost per (point, trace) pair")

    p = sub("worker", "run a migration worker process")
    p.add_argument("--connect", type=_hostport, metavar="HOST:PORT",
                   help=f"coordinator address; waits up to {CONNECT_TIMEOUT:g} s")

    return parser, registry


# ---------------------------------------------------------------------------
# config file merging
# ---------------------------------------------------------------------------

def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise _ConfigError(
                f"{path}:{lineno}: expected key=value, got {body!r}")
        key = key.strip()
        if key in first_line:
            raise _ConfigError(
                f"{path}:{lineno}: key {key!r} repeats line "
                f"{first_line[key]}; give one line of ';'-separated values")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


class _ConfigError(Exception):
    pass


def _merge_config(
    sub: _Parser, args: argparse.Namespace, argv: list[str], cfg: dict[str, str]
) -> None:
    """Fill unset options from the config map; flags always win."""
    remaining = dict(cfg)
    for action in sub._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        key = action.option_strings[-1].lstrip("-")
        if key not in remaining:
            continue
        raw = remaining.pop(key)
        given = any(
            tok == opt or tok.startswith(opt + "=")
            for tok in argv for opt in action.option_strings)
        if given:
            continue
        convert = action.type if callable(action.type) else str
        try:
            if isinstance(action, argparse._AppendAction):
                value = [convert(part) for part in raw.split(";") if part]
            else:
                value = convert(raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise _ConfigError(f"config {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise _ConfigError(
                f"config {key}: invalid choice {value!r} "
                f"(choose from {', '.join(map(str, action.choices))})")
        setattr(args, action.dest, value)
    if remaining:
        raise _ConfigError(
            "unknown config keys: " + ", ".join(sorted(remaining)))


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names
               if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise _UsageError(
            "missing required options: " + ", ".join(f"--{n}" for n in missing))


def _velocity_model(args: argparse.Namespace) -> VelocityModel:
    if args.velocity is not None and args.vconst is not None:
        raise _UsageError("give either --velocity or --vconst, not both")
    if args.velocity is not None:
        return read_velocity(args.velocity)
    if args.vconst is not None:
        return VelocityModel.constant(args.vconst)
    raise _UsageError("one of --velocity or --vconst is required")


def _kernel_params(args: argparse.Namespace) -> KernelParams:
    return KernelParams(aperture=args.aperture,
                        weight_mode=WeightMode(args.weight))


def _setup(args: argparse.Namespace
           ) -> tuple[Survey, GridSpec, KernelParams, OffsetBinning, JobConfig]:
    """Build a job from the options of :func:`_add_imaging`, then read the
    survey: reading it is the first large cost, so bad options fail first."""
    binning = OffsetBinning(args.offset_edges)
    x_min, dx, nx, tau_min, dtau, ntau = args.grid
    grid = GridSpec(x_min, dx, nx, tau_min, dtau, ntau, binning.n_bins)
    params = _kernel_params(args)
    config = JobConfig(
        n_partitions=args.partitions,
        n_workers=args.workers,
        mode=args.mode,
        combiner_enabled=args.combiner == "on",
        spill_dir=args.spill_dir,
        task_timeout=args.task_timeout,
        max_task_retries=args.max_task_retries,
        chunk_size=args.chunk_size,
    )
    return read_survey(args.input, binning), grid, params, binning, config


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    _require(args, "output", "sources", "source-x0", "source-dx", "receivers",
             "receiver-x0", "receiver-dx", "dt", "samples", "frequency")
    if not args.scatterer:
        raise _UsageError("at least one --scatterer is required")
    vel = _velocity_model(args)
    headers = make_acquisition(
        args.sources, args.source_x0, args.source_dx,
        args.receivers, args.receiver_x0, args.receiver_dx,
        args.t0, args.dt, args.samples)
    survey = synth_survey(headers, args.scatterer, vel,
                          RickerWavelet(args.frequency))
    write_survey(args.output, survey)
    print(f"wrote {len(survey)} traces to {args.output}")
    return 0


def _cmd_migrate(args) -> int:
    _require(args, "input", "output", "grid", "offset-edges", "aperture")
    if args.listen is not None and args.mode != "multiprocess":
        raise _UsageError("--listen needs --mode multiprocess")
    vel = _velocity_model(args)
    if args.export_pgm:
        check_gain(args.gain)
    survey, grid, params, binning, config = _setup(args)
    image = migrate_survey(survey, MigrationJob(grid, vel, params, binning),
                           config, listen=args.listen)
    write_image(args.output, image)
    print(f"wrote image ({grid.n_offset_bins} bins, {grid.nx} x {grid.ntau}) "
          f"to {args.output}")
    if args.export_pgm:
        try:
            export_pgm(args.export_pgm, stack_offsets(image), gain=args.gain)
        except OSError:
            Path(args.output).unlink(missing_ok=True)
            raise
        print(f"wrote stacked section picture to {args.export_pgm}")
    return 0


def _cmd_demig(args) -> int:
    _require(args, "input", "geometry", "output", "offset-edges", "aperture")
    vel = _velocity_model(args)
    binning = OffsetBinning(args.offset_edges)
    image = read_image(args.input)
    geometry = read_survey(args.geometry, binning)
    job = MigrationJob(image.spec, vel, _kernel_params(args), binning)
    headers = [t.header for t in geometry]
    traces = forward_model(image, headers, job)
    write_survey(args.output, Survey(traces, binning))
    print(f"wrote {len(traces)} modeled traces to {args.output}")
    return 0


def _cmd_scan(args) -> int:
    _require(args, "input", "grid", "offset-edges", "aperture", "candidates")
    survey, grid, params, binning, config = _setup(args)
    result = constant_velocity_scan(
        survey, grid, params, binning, args.candidates, config,
        progress=lambda v, m: print(f"velocity {v!r} focus {m!r}"))
    print(f"best {result.best_velocity!r}")
    if args.report:
        write_scan_csv(args.report, result)
        print(f"wrote scan report to {args.report}")
    return 0


def _cmd_loop(args) -> int:
    _require(args, "input", "grid", "offset-edges", "aperture", "v0",
             "candidates")
    survey, grid, params, binning, config = _setup(args)
    report = imaging_loop(
        survey, grid, params, binning, args.v0, args.candidates,
        lag_tolerance=args.tolerance, max_lag=args.max_lag, config=config)
    for it in report.iterations:
        print(f"iteration {it.iteration} velocity {it.velocity!r} "
              f"max_abs_lag {it.max_abs_lag} next {it.next_velocity!r}")
    print(f"final_velocity {report.final_velocity!r} "
          f"converged {'yes' if report.converged else 'no'}")
    if args.report:
        write_loop_csv(args.report, report)
        print(f"wrote loop report to {args.report}")
    return 0


def _cmd_adjoint_test(args) -> int:
    n_traces, n_samples, n_bins = args.traces, args.samples, args.bins
    nx, ntau, tol = args.nx, args.ntau, args.tolerance
    if n_traces < 0:
        raise ValueError(f"traces must be >= 0, got {n_traces}")
    if n_samples < 1:
        raise ValueError(f"samples must be >= 1, got {n_samples}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")

    rng = np.random.default_rng(args.seed)
    grid = GridSpec(0.0, 25.0, nx, 0.0, 0.004, ntau, n_bins)
    edges = tuple(np.linspace(0.0, 2400.0, n_bins + 1))
    binning = OffsetBinning(edges)
    vel = VelocityModel(((0.0, 1800.0), (1.0, 2400.0)))
    job = MigrationJob(grid, vel, _kernel_params(args), binning)
    headers = []
    for i in range(n_traces):
        sx = rng.uniform(0.0, 1200.0)
        rx = sx + rng.uniform(10.0, 2000.0)
        headers.append(TraceHeader(i, sx, rx, 0.0, 0.004, n_samples))
    image = ImageGrid(grid, rng.standard_normal((n_bins, nx, ntau)))
    data = [Trace(h, rng.standard_normal(n_samples)) for h in headers]

    modeled = forward_model(image, headers, job)
    migrated = migrate_survey_serial(Survey(data, binning), job)
    lhs = sum((float(np.dot(a.samples, b.samples))
               for a, b in zip(modeled, data)), 0.0)
    rhs = float(np.sum(migrated.values * image.values))
    # both sides are 0 when no trace reaches the image
    rel = abs(lhs - rhs) / (abs(lhs) + abs(rhs)) if lhs != rhs else 0.0
    print(f"<Lm,d> {lhs!r}")
    print(f"<m,L'd> {rhs!r}")
    print(f"relative_error {rel!r}")
    if rel > tol:
        sys.stderr.write(
            f"error: adjoint mismatch {rel!r} exceeds tolerance {tol!r}\n")
        return 4
    print(f"pass (tolerance {tol!r})")
    return 0


def _cmd_estimate(args) -> int:
    _require(args, "image-points", "traces")
    flops, gflop_years = estimate_flops(args.image_points, args.traces,
                                        args.flops_per_point)
    print(f"flops {flops!r}")
    print(f"gflop_years {gflop_years!r}")
    return 0


def _cmd_worker(args) -> int:
    _require(args, "connect")
    try:
        rc = worker_main(args.connect)
    except OSError as exc:
        sys.stderr.write(f"error: worker connection failed: {exc}\n")
        return 4
    return 0 if rc == 0 else 4


_COMMANDS = {
    "synth": _cmd_synth,
    "migrate": _cmd_migrate,
    "demig": _cmd_demig,
    "scan": _cmd_scan,
    "loop": _cmd_loop,
    "adjoint-test": _cmd_adjoint_test,
    "estimate": _cmd_estimate,
    "worker": _cmd_worker,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # a subcommand hands the flags it does not take back up to the
            # top level; report them with the subcommand's usage
            registry.get(args.command, parser).error(
                "unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: a command is required\n")
        return 2
    sub = registry[args.command]
    # a SIGTERM that the caller ignores or handles is left to the caller
    trap = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)
    if trap:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        if getattr(args, "config", None):
            _merge_config(sub, args, argv, _load_config_file(args.config))
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sub.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (JobError, ContractViolationError, ProtocolError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except _ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (StorageError, OverflowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except _Terminated:
        # the command has unwound; end by the signal, as if never caught
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if trap:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())
