"""Prestack Kirchhoff time migration with an exact adjoint, run on a
deterministic MapReduce runtime sized for a single workstation.

The package migrates binned common-offset gathers by diffraction summation,
models data back with the exact transpose operator, and reduces per-cell
contributions with correctly rounded exact sums so that serial, threaded,
and multiprocess executions agree bit for bit.
"""

from .kirchhoff import (
    Contributions,
    MigrationJob,
    forward_model,
    interp_sample,
    migrate_survey_serial,
    migrate_trace,
    stack_offsets,
)
from .mapreduce import (
    ContractViolationError,
    JobConfig,
    JobError,
    KeyedTotals,
    run_job,
)
from .model import (
    ConfigurationError,
    GridSpec,
    ImageGrid,
    OffsetBinning,
    Survey,
    Trace,
    TraceHeader,
    VelocityModel,
    estimate_flops,
)
from .pipeline import MigrationMapFn, migrate_survey, reassemble_image
from .synthetics import RickerWavelet, Scatterer, make_acquisition, ricker, synth_survey
from .traveltime import (
    KernelParams,
    WeightMode,
    dsr_total_time,
    one_way_time,
    weight,
    within_aperture,
)
from .velocity import (
    LoopIteration,
    LoopReport,
    MoveoutResult,
    ScanResult,
    constant_velocity_scan,
    focus_metric,
    imaging_loop,
    residual_moveout,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractViolationError",
    "Contributions",
    "GridSpec",
    "ImageGrid",
    "JobConfig",
    "JobError",
    "KernelParams",
    "KeyedTotals",
    "LoopIteration",
    "LoopReport",
    "MigrationJob",
    "MigrationMapFn",
    "MoveoutResult",
    "OffsetBinning",
    "RickerWavelet",
    "ScanResult",
    "Scatterer",
    "Survey",
    "Trace",
    "TraceHeader",
    "VelocityModel",
    "WeightMode",
    "constant_velocity_scan",
    "dsr_total_time",
    "estimate_flops",
    "focus_metric",
    "forward_model",
    "imaging_loop",
    "interp_sample",
    "make_acquisition",
    "migrate_survey",
    "migrate_survey_serial",
    "migrate_trace",
    "one_way_time",
    "reassemble_image",
    "ricker",
    "residual_moveout",
    "run_job",
    "stack_offsets",
    "synth_survey",
    "weight",
    "within_aperture",
]
