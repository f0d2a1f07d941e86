"""Detector-agnostic alarm pipeline for per-stack fall-classifier scores.

The package turns a stream of per-stack No-Fall probabilities into alarm
events via a trailing gate filter and a threshold, matches those alarms
against annotated fall intervals, reports stack- and alarm-level metrics,
tunes the filter width and threshold under clinical constraints, and can
generate synthetic corpora whose ground truth is known by construction.

The root exports the pipeline the CLI runs. The per-video references that
the tests check it against (``evaluate_video``, ``combine``,
``match_alarms``, ``decision_counts``, ``stack_label_masks``, ...) are
imported from :mod:`alarm_pipeline.temporal` and :mod:`alarm_pipeline.corpus`.
"""

from .corpus import (
    FoldAssignment,
    PredictionStream,
    StackConfig,
    VideoAnnotation,
    assign_folds,
    load_annotations,
    load_predictions,
    save_annotations,
    save_predictions,
)
from .errors import (
    CorpusFormatError,
    GenerationError,
    InfeasibleError,
    PipelineError,
)
from .metrics import (
    DEFAULT_BETAS,
    AlarmCounts,
    ConfusionCounts,
    LossParams,
    MetricReport,
    alarm_precision,
    alarm_sensitivity,
    f_beta,
    macro_average,
    precision,
    sensitivity,
    specificity,
    weighted_bce,
)
from .synth import PlantedEvent, SynthCorpus, SynthSpec, generate
from .temporal import (
    FilterConfig,
    FpOffsetRecord,
    OffsetSummary,
    extract_alarms,
    gate_filter,
    identity_filter,
    offset_histogram,
    segment_cumsum,
    width_to_frames,
)
from .tuning import (
    OptimumResult,
    SweepGrid,
    TuningConstraints,
    TuningResult,
    average_optima,
    baseline_sensitivities,
    default_t_values,
    default_w_values,
    false_alarm_offsets,
    filter_counts,
    per_database_argmax,
    snap_to_grid,
    sweep,
    tune,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmCounts",
    "ConfusionCounts",
    "CorpusFormatError",
    "DEFAULT_BETAS",
    "FilterConfig",
    "FoldAssignment",
    "FpOffsetRecord",
    "GenerationError",
    "InfeasibleError",
    "LossParams",
    "MetricReport",
    "OffsetSummary",
    "OptimumResult",
    "PipelineError",
    "PlantedEvent",
    "PredictionStream",
    "StackConfig",
    "SweepGrid",
    "SynthCorpus",
    "SynthSpec",
    "TuningConstraints",
    "TuningResult",
    "VideoAnnotation",
    "alarm_precision",
    "alarm_sensitivity",
    "assign_folds",
    "average_optima",
    "baseline_sensitivities",
    "default_t_values",
    "default_w_values",
    "extract_alarms",
    "f_beta",
    "false_alarm_offsets",
    "filter_counts",
    "gate_filter",
    "generate",
    "identity_filter",
    "load_annotations",
    "load_predictions",
    "macro_average",
    "offset_histogram",
    "per_database_argmax",
    "precision",
    "save_annotations",
    "save_predictions",
    "segment_cumsum",
    "sensitivity",
    "snap_to_grid",
    "specificity",
    "sweep",
    "tune",
    "weighted_bce",
    "width_to_frames",
]
