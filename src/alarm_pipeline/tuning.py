"""Conjoint (W, T_pred) grid search under alarm-precision and sensitivity
constraints, with per-database optima averaged into one deployable setting.

The sweep, the sensitivity baseline and ``evaluate``'s per-database counts
all count a database per chunk of whole videos of one fps: the chunk's
streams are laid end to end, its :class:`DecisionLayout` is built once, and
one rank pass per width counts every threshold of the chunk. Separator
slots, shifted frame numbers and per-video running sums keep each video's
counts exactly what it would give alone. A chunk holds at most
``CHUNK_STACKS`` stacks, since the kernel's memory grows with stacks and not
with thresholds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import PredictionStream, StackConfig, VideoAnnotation, stack_label_masks
from .errors import InfeasibleError
from .metrics import DEFAULT_BETAS, AlarmCounts, ConfusionCounts, MetricReport, alarm_sensitivity
from .temporal import (
    DecisionLayout,
    FilterConfig,
    gate_filter,
    identity_filter,
    segment_cumsum,
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


# Largest stack count of one chunk: the kernel holds a few arrays of that
# many elements per width, whatever the number of thresholds.
CHUNK_STACKS = 1 << 16


def _chunks(videos: Sequence[tuple[PredictionStream, VideoAnnotation]]):
    """Runs of whole videos of one fps, as (fps, videos), each of at most
    ``CHUNK_STACKS`` stacks; a longer video is a chunk by itself. A video's
    stacks include the separator slot that :func:`_chunk_counts` appends to
    it."""
    by_fps: dict[float, list[tuple[PredictionStream, VideoAnnotation]]] = {}
    for stream, annotation in videos:
        by_fps.setdefault(annotation.fps, []).append((stream, annotation))
    for fps, group in by_fps.items():
        chunk: list[tuple[PredictionStream, VideoAnnotation]] = []
        stacks = 0
        for stream, annotation in group:
            size = len(stream) + 1
            if chunk and stacks + size > CHUNK_STACKS:
                yield fps, chunk
                chunk, stacks = [], 0
            chunk.append((stream, annotation))
            stacks += size
        yield fps, chunk


def _chunk_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    widths: Sequence[int],
    t_values: Sequence[float],
    stack_cfg: StackConfig,
) -> np.ndarray:
    """Summed (nW, nT, 7) counts, as in :func:`decision_counts`, of videos
    filtered at each of ``widths`` frames: one :class:`DecisionLayout` for
    the chunk, one rank pass per width.

    The videos' streams are laid end to end, each followed by one separator
    slot that is never Fall (filtered score +inf) and neither a fall nor an
    eligible stack, so no alarm run joins two videos. Anchors and fall
    intervals are shifted by a base that grows by ``frame_count +
    stack_length`` per video, so no run's span reaches another video's falls.
    Each video keeps its own running sum, so the filtered values are those of
    :func:`gate_filter` on the video alone.
    """
    sizes = np.array([len(stream) + 1 for stream, _ in videos], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    scores = np.zeros(ends[-1])
    anchors = np.empty(ends[-1], dtype=np.int64)
    truth_fall = np.zeros(ends[-1], dtype=bool)
    eligible = np.zeros(ends[-1], dtype=bool)
    falls = []
    base = 0
    for (stream, annotation), start, end in zip(videos, starts.tolist(), ends.tolist()):
        fall, transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
        scores[start:end - 1] = stream.scores
        anchors[start:end - 1] = stream.anchor_frames + base
        anchors[end - 1] = base + annotation.frame_count
        truth_fall[start:end - 1] = fall
        eligible[start:end - 1] = ~transition
        falls.extend((s + base, e + base) for s, e in annotation.fall_intervals)
        base += annotation.frame_count + stack_cfg.stack_length
    layout = DecisionLayout(t_values, truth_fall, eligible, anchors, falls, stack_cfg.stack_length)
    cumulative = segment_cumsum(scores, starts) if max(widths) > 1 else None
    by_width = {}
    for width in dict.fromkeys(widths):
        filtered = gate_filter(scores, width, starts, cumulative)
        filtered[ends - 1] = np.inf
        by_width[width] = layout.counts(filtered)
    return np.stack([by_width[width] for width in widths])


def _database_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    widths_at: Callable[[float], list[int]],
    t_values: Sequence[float],
    stack_cfg: StackConfig,
) -> np.ndarray:
    """Summed (nW, nT, 7) counts of one database, counted per chunk of whole
    videos; ``widths_at(fps)`` gives the filter widths in frames at that fps."""
    return sum(
        _chunk_counts(chunk, widths_at(fps), t_values, stack_cfg)
        for fps, chunk in _chunks(videos)
    )


def filter_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    cfg: FilterConfig,
    stack_cfg: StackConfig = StackConfig(),
) -> tuple[ConfusionCounts, AlarmCounts]:
    """Stack and alarm counts of videos under one filter, summed over the
    videos and counted per chunk as in :func:`sweep`. They equal the counts
    of :func:`combine` over :func:`evaluate_video` of each video."""
    counts = _database_counts(
        videos, lambda fps: [cfg.resolve_width_frames(fps)], [cfg.t_pred], stack_cfg
    )[0, 0].tolist()
    return ConfusionCounts(*counts[:4]), AlarmCounts(*counts[4:])


def sweep(
    corpus: Corpus,
    w_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    betas: Sequence[float] = DEFAULT_BETAS,
    stack_cfg: StackConfig = StackConfig(),
) -> SweepGrid:
    """Populate the full (W, T_pred) grid for every database.

    A database's counts are summed over chunks of whole videos, one rank
    pass per chunk and width; they equal the sum of its videos' counts.
    Every threshold must lie in (0, 1), as :class:`FilterConfig` requires.
    Empty databases are skipped with a warning.
    """
    w_values = list(default_w_values() if w_values is None else w_values)
    t_values = list(default_t_values() if t_values is None else t_values)
    if not w_values or not t_values:
        raise ValueError("w_values and t_values must be non-empty")
    for t in t_values:
        if not (0.0 < t < 1.0):
            raise ValueError(f"t_pred must lie in (0, 1), got {t}")
    cells: dict[tuple[str, float, float], MetricReport] = {}
    databases: list[str] = []
    for db, videos in corpus.items():
        if not videos:
            warnings.warn(f"database {db!r} has no videos; skipped")
            continue
        databases.append(db)
        total = _database_counts(
            videos, lambda fps: [width_to_frames(w, fps) for w in w_values], t_values, stack_cfg
        )
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
    corpus: Corpus, stack_cfg: StackConfig = StackConfig()
) -> dict[str, float | None]:
    """Per-database alarm sensitivity at the identity filter (W = 1 frame,
    T = 0.5), counted per chunk of whole videos as in :func:`sweep`."""
    return {
        db: alarm_sensitivity(filter_counts(videos, identity_filter(), stack_cfg)[1])
        if videos else None
        for db, videos in corpus.items()
    }


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
    optima: Mapping[str, OptimumResult], t_values: Sequence[float]
) -> tuple[float, float]:
    """Mean W and mean T over feasible databases, T snapped to the grid."""
    feasible = [r for r in optima.values() if r.feasible]
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
) -> TuningResult:
    """Full tuning pass: baseline, sweep, constrained argmax, averaging.

    ``beta`` selects which F curve the argmax maximizes (0.5 by default:
    false alarms wake the staff, so precision weighs more); the sweep
    computes that curve only.
    """
    grid = sweep(corpus, w_values, t_values, (beta,), stack_cfg)
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
