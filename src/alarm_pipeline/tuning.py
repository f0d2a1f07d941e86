"""Conjoint (W, T_pred) grid search under alarm-precision and sensitivity
constraints, with per-database optima averaged into one deployable setting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import PredictionStream, StackConfig, VideoAnnotation, stack_label_masks
from .errors import InfeasibleError
from .metrics import DEFAULT_BETAS, AlarmCounts, ConfusionCounts, MetricReport
from .temporal import (
    combine,
    decision_counts,
    evaluate_video,
    gate_filter,
    identity_filter,
    width_to_frames,
)

Corpus = Mapping[str, Sequence[tuple[PredictionStream, VideoAnnotation]]]


def default_w_values() -> list[float]:
    """Filter widths 0.05 s .. 2.00 s in 0.05 s steps."""
    return [round(0.05 * i, 2) for i in range(1, 41)]


def default_t_values() -> list[float]:
    """Thresholds 0.1 .. 0.9 in 0.1 steps."""
    return [round(0.1 * i, 1) for i in range(1, 10)]


@dataclass(frozen=True)
class TuningConstraints:
    """Feasibility rules for picking a (W, T_pred) cell.

    ``max_sensitivity_drop_points`` is measured in percentage points against
    the per-database baseline alarm sensitivity (identity filter, T = 0.5).
    ``min_alarm_precision`` of 0 disables the precision floor, which makes the
    argmax unconstrained together with an infinite drop.
    """

    min_alarm_precision: float = 0.80
    max_sensitivity_drop_points: float = 10.0
    baseline_se_a: Mapping[str, float | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_alarm_precision < 1.0):
            raise ValueError(
                f"min_alarm_precision must lie in [0, 1), got {self.min_alarm_precision}"
            )
        if self.max_sensitivity_drop_points < 0:
            raise ValueError("max_sensitivity_drop_points must be >= 0")

    def satisfied_by(self, database_id: str, report: MetricReport) -> bool:
        if self.min_alarm_precision > 0:
            if report.p_a is None or report.p_a < self.min_alarm_precision:
                return False
        if math.isfinite(self.max_sensitivity_drop_points):
            baseline = self.baseline_se_a.get(database_id)
            if baseline is None or report.se_a is None:
                return False
            if report.se_a < baseline - self.max_sensitivity_drop_points / 100.0:
                return False
        return True


@dataclass
class SweepGrid:
    """F_beta surface over (W, T_pred) per database, with raw counts per cell."""

    w_values: list[float]
    t_values: list[float]
    betas: tuple[float, ...]
    databases: list[str]
    cells: dict[tuple[str, float, float], MetricReport]

    def report(self, database_id: str, w: float, t: float) -> MetricReport:
        return self.cells[(database_id, w, t)]

    def f_beta(self, database_id: str, w: float, t: float, beta: float) -> float | None:
        return self.cells[(database_id, w, t)].f_beta[beta]

    def csv_rows(self):
        """Rows (database_id, beta, W, T, f_beta, p_a, se_a, TP_a, FP_a, FN_a)."""
        for db in self.databases:
            for beta in self.betas:
                for w in self.w_values:
                    for t in self.t_values:
                        r = self.cells[(db, w, t)]
                        ac = r.alarm_counts or AlarmCounts()
                        yield (db, beta, w, t, r.f_beta[beta], r.p_a, r.se_a,
                               ac.tp_a, ac.fp_a, ac.fn_a)


def _video_cells(
    stream: PredictionStream,
    annotation: VideoAnnotation,
    w_values: Sequence[float],
    t_values: Sequence[float],
    stack_cfg: StackConfig,
) -> np.ndarray:
    """Per-cell counts for one video, (nW, nT, 7) as in :func:`decision_counts`."""
    truth_fall, truth_transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
    eligible = ~truth_transition
    widths = [width_to_frames(w, annotation.fps) for w in w_values]
    by_width = {
        width: decision_counts(
            gate_filter(stream.scores, width), t_values, truth_fall, eligible,
            stream.anchor_frames, annotation.fall_intervals, stack_cfg.stack_length,
        )
        for width in dict.fromkeys(widths)
    }
    return np.stack([by_width[width] for width in widths])


def sweep(
    corpus: Corpus,
    w_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    betas: Sequence[float] = DEFAULT_BETAS,
    stack_cfg: StackConfig = StackConfig(),
) -> SweepGrid:
    """Populate the full (W, T_pred) grid for every database.

    Per-video counts are summed in corpus order. Empty databases are skipped
    with a warning.
    """
    w_values = list(default_w_values() if w_values is None else w_values)
    t_values = list(default_t_values() if t_values is None else t_values)
    if not w_values or not t_values:
        raise ValueError("w_values and t_values must be non-empty")
    cells: dict[tuple[str, float, float], MetricReport] = {}
    databases: list[str] = []
    for db, videos in corpus.items():
        if not videos:
            warnings.warn(f"database {db!r} has no videos; skipped")
            continue
        databases.append(db)
        total = sum(_video_cells(s, a, w_values, t_values, stack_cfg) for s, a in videos)
        for wi, w in enumerate(w_values):
            for ti, t in enumerate(t_values):
                counts = total[wi, ti].tolist()
                cells[(db, w, t)] = MetricReport.from_counts(
                    ConfusionCounts(*counts[:4]), AlarmCounts(*counts[4:]), betas
                )
    return SweepGrid(
        w_values=w_values,
        t_values=t_values,
        betas=tuple(betas),
        databases=databases,
        cells=cells,
    )


def baseline_sensitivities(
    corpus: Corpus, stack_cfg: StackConfig = StackConfig(), t_pred: float = 0.5
) -> dict[str, float | None]:
    """Per-database alarm sensitivity at the identity filter (W = 1 frame)."""
    cfg = identity_filter(t_pred)
    out: dict[str, float | None] = {}
    for db, videos in corpus.items():
        if not videos:
            out[db] = None
            continue
        report = combine(evaluate_video(s, a, cfg, stack_cfg) for s, a in videos)
        out[db] = report.se_a
    return out


@dataclass(frozen=True)
class OptimumResult:
    """Constrained argmax outcome for one database."""

    database_id: str
    feasible: bool
    w_seconds: float | None = None
    t_pred: float | None = None
    f_beta: float | None = None
    report: MetricReport | None = None
    reason: str | None = None


def per_database_argmax(
    grid: SweepGrid, beta: float, constraints: TuningConstraints
) -> dict[str, OptimumResult]:
    """Best feasible cell per database; ties go to smaller W, then smaller T."""
    results: dict[str, OptimumResult] = {}
    for db in grid.databases:
        best: OptimumResult | None = None
        for w in sorted(grid.w_values):
            for t in sorted(grid.t_values):
                report = grid.cells[(db, w, t)]
                value = report.f_beta.get(beta)
                if value is None or not constraints.satisfied_by(db, report):
                    continue
                if best is None or value > best.f_beta:
                    best = OptimumResult(db, True, w, t, value, report)
        if best is None:
            results[db] = OptimumResult(
                db, False, reason="no grid cell satisfies the constraints"
            )
        else:
            results[db] = best
    return results


def snap_to_grid(value: float, grid_values: Sequence[float]) -> float:
    """Nearest grid value; equidistant ties go to the smaller value."""
    return min(sorted(grid_values), key=lambda g: abs(g - value))


def average_optima(
    optima: Mapping[str, OptimumResult] | Sequence[OptimumResult],
    t_values: Sequence[float],
) -> tuple[float, float]:
    """Mean W and mean T over feasible databases, T snapped to the grid."""
    results = list(optima.values()) if isinstance(optima, Mapping) else list(optima)
    feasible = [r for r in results if r.feasible]
    if not feasible:
        raise InfeasibleError("no database has a feasible (W, T_pred) cell")
    w_final = sum(r.w_seconds for r in feasible) / len(feasible)
    t_mean = sum(r.t_pred for r in feasible) / len(feasible)
    return w_final, snap_to_grid(t_mean, t_values)


@dataclass
class TuningResult:
    """Sweep-and-average outcome: per-database optima plus the final pair."""

    beta: float
    constraints: TuningConstraints
    per_database: dict[str, OptimumResult]
    w_final: float
    t_final: float

    def to_json_dict(self) -> dict:
        per_db = []
        for db in sorted(self.per_database):
            r = self.per_database[db]
            entry: dict = {"database_id": db, "feasible": r.feasible}
            if r.feasible:
                entry.update(
                    w_seconds=r.w_seconds,
                    t_pred=r.t_pred,
                    f_beta=r.f_beta,
                    p_a=r.report.p_a,
                    se_a=r.report.se_a,
                )
            else:
                entry["reason"] = r.reason
            per_db.append(entry)
        return {
            "beta": self.beta,
            "constraints": {
                "min_alarm_precision": self.constraints.min_alarm_precision,
                "max_sensitivity_drop_points": self.constraints.max_sensitivity_drop_points,
                "baseline_se_a": dict(sorted(self.constraints.baseline_se_a.items())),
            },
            "per_database": per_db,
            "final": {"w_seconds": self.w_final, "t_pred": self.t_final},
        }


def tune(
    corpus: Corpus,
    w_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    beta: float = 0.5,
    min_alarm_precision: float = 0.80,
    max_sensitivity_drop_points: float = 10.0,
    stack_cfg: StackConfig = StackConfig(),
    betas: Sequence[float] = DEFAULT_BETAS,
) -> TuningResult:
    """Full tuning pass: baseline, sweep, constrained argmax, averaging.

    ``beta`` selects which F curve the argmax maximizes (0.5 by default:
    false alarms wake the staff, so precision weighs more).
    """
    betas = tuple(betas)
    if beta not in betas:
        betas = betas + (beta,)
    grid = sweep(corpus, w_values, t_values, betas, stack_cfg)
    constraints = TuningConstraints(
        min_alarm_precision=min_alarm_precision,
        max_sensitivity_drop_points=max_sensitivity_drop_points,
        baseline_se_a=baseline_sensitivities(corpus, stack_cfg),
    )
    optima = per_database_argmax(grid, beta, constraints)
    w_final, t_final = average_optima(optima, grid.t_values)
    return TuningResult(
        beta=beta,
        constraints=constraints,
        per_database=optima,
        w_final=w_final,
        t_final=t_final,
    )
