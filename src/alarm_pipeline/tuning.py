"""Conjoint (W, T_pred) grid search under alarm-precision and sensitivity
constraints, with per-database optima averaged into one deployable setting.

:func:`sweep` keeps the grid as one int64 counts array of shape
(nDB, nW, nT, 7). :meth:`SweepGrid.alarm_metrics` derives ``F_beta``, ``p_a``
and ``se_a`` of every cell from it by array operations, NaN where undefined,
:meth:`TuningConstraints.mask` marks the feasible cells, and
:func:`per_database_argmax` takes one masked argmax per database and reads
the chosen cell's ``F_beta``, ``p_a`` and ``se_a`` off those arrays.

The sweep, the sensitivity baseline and ``evaluate``'s per-database counts
all count a database per chunk of whole videos of one fps: the chunk's
streams are laid end to end, its :class:`DecisionLayout` is built once, and
one rank pass per width counts every threshold of the chunk. Separator
slots, fall ranges found on each video's own anchors and per-video running
sums keep each video's counts exactly what it would give alone. A chunk
holds at most ``CHUNK_STACKS`` stacks, since the kernel's memory grows with
stacks and not with thresholds.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import (PredictionStream, StackConfig, VideoAnnotation, fall_stack_ranges,
                     stack_label_masks)
from .errors import InfeasibleError
from .metrics import DEFAULT_BETAS, AlarmCounts, ConfusionCounts, alarm_sensitivity, check_beta
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
        if not self.max_sensitivity_drop_points >= 0:  # NaN fails too
            raise ValueError("max_sensitivity_drop_points must be >= 0")

    def mask(self, databases: Sequence[str], p_a: np.ndarray, se_a: np.ndarray) -> np.ndarray:
        """Cells that meet both limits. ``p_a`` and ``se_a`` hold one row per
        database of ``databases``, NaN where undefined; an undefined value,
        or a database without a baseline, fails every limit that is on."""
        ok = np.ones(np.shape(p_a), dtype=bool)
        if self.min_alarm_precision > 0:
            ok &= p_a >= self.min_alarm_precision
        if math.isfinite(self.max_sensitivity_drop_points):
            baseline = np.array([self.baseline_se_a.get(db) for db in databases], dtype=float)
            floor = baseline - self.max_sensitivity_drop_points / 100.0
            ok &= se_a >= floor.reshape((-1,) + (1,) * (ok.ndim - 1))
        return ok


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where the denominator is > 0, else NaN."""
    return np.divide(numerator, denominator, out=np.full(np.shape(denominator), np.nan),
                     where=denominator > 0)


@dataclass
class SweepGrid:
    """Counts over (W, T_pred) per database: ``counts[db, w, t]`` holds
    (TP, TN, FP, FN, TP_a, FP_a, FN_a) of ``databases[db]`` filtered at
    ``w_values[w]`` and thresholded at ``t_values[t]``."""

    w_values: list[float]
    t_values: list[float]
    betas: tuple[float, ...]
    databases: list[str]
    counts: np.ndarray

    def alarm_metrics(self, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F_beta, p_a, se_a) of every cell, each of shape (nDB, nW, nT), NaN
        where undefined. The float operations are those of
        :func:`~alarm_pipeline.metrics.f_beta`, ``alarm_precision`` and
        ``alarm_sensitivity``, in the same order, so every value equals
        theirs bit for bit."""
        check_beta(beta)
        tp_a, fp_a, fn_a = np.moveaxis(self.counts[..., 4:], -1, 0)
        p_a = _ratio(tp_a, tp_a + fp_a)
        se_a = _ratio(tp_a, tp_a + fn_a)
        b2 = beta * beta
        return _ratio((1.0 + b2) * p_a * se_a, b2 * p_a + se_a), p_a, se_a


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
    eligible stack, so no alarm run joins two videos. Each video's fall
    ranges are found on its own anchors and offset by its first slot, so
    they hold only that video's stacks. Each video keeps its own running
    sum, so the filtered values are those of :func:`gate_filter` on the
    video alone.
    """
    sizes = np.array([len(stream) + 1 for stream, _ in videos], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    scores = np.zeros(ends[-1])
    truth_fall = np.zeros(ends[-1], dtype=bool)
    eligible = np.zeros(ends[-1], dtype=bool)
    ranges = []
    for (stream, annotation), start, end in zip(videos, starts.tolist(), ends.tolist()):
        fall, transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
        scores[start:end - 1] = stream.scores
        truth_fall[start:end - 1] = fall
        eligible[start:end - 1] = ~transition
        ranges.append(start + fall_stack_ranges(annotation.fall_intervals, stream.anchor_frames,
                                                stack_cfg.stack_length))
    layout = DecisionLayout(t_values, truth_fall, eligible, np.concatenate(ranges))
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


def check_grids(w_values: Sequence[float], t_values: Sequence[float]) -> None:
    """Raise ValueError unless both grids are non-empty, no width or threshold
    appears twice, and each value is one :class:`FilterConfig` accepts:
    thresholds in (0, 1), widths finite and > 0 seconds."""
    if not w_values or not t_values:
        raise ValueError("w_values and t_values must be non-empty")
    for t in t_values:
        if not (0.0 < t < 1.0):
            raise ValueError(f"t_pred must lie in (0, 1), got {t}")
    for name, values in (("w_values", w_values), ("t_values", t_values)):
        repeated = [value for value, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValueError(f"{name} must not repeat {repeated[0]}")
    for w in w_values:
        if not (0 < w < math.inf):
            raise ValueError(f"width_seconds must be finite and > 0, got {w}")


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
    The grids must pass :func:`check_grids`, and every beta must be finite
    and > 0. Empty databases are skipped with a warning.
    """
    w_values = list(default_w_values() if w_values is None else w_values)
    t_values = list(default_t_values() if t_values is None else t_values)
    check_grids(w_values, t_values)
    for beta in betas:
        check_beta(beta)
    for db, videos in corpus.items():
        if not videos:
            warnings.warn(f"database {db!r} has no videos; skipped")
    databases = [db for db, videos in corpus.items() if videos]
    counts = np.zeros((len(databases), len(w_values), len(t_values), 7), dtype=np.int64)
    for d, db in enumerate(databases):
        counts[d] = _database_counts(
            corpus[db], lambda fps: [width_to_frames(w, fps) for w in w_values], t_values,
            stack_cfg,
        )
    return SweepGrid(w_values, t_values, tuple(betas), databases, counts)


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
    p_a: float | None = None
    se_a: float | None = None
    reason: str | None = None


def per_database_argmax(
    grid: SweepGrid, beta: float, constraints: TuningConstraints
) -> dict[str, OptimumResult]:
    """Best feasible cell per database; ties go to smaller W, then smaller T.

    One masked argmax over the grid sorted by (W, T), whose first maximum is
    the tie-break; F_beta, p_a and se_a of the chosen cell are read from
    :meth:`SweepGrid.alarm_metrics`.
    """
    f, p_a, se_a = grid.alarm_metrics(beta)
    ok = constraints.mask(grid.databases, p_a, se_a) & ~np.isnan(f)
    w_order, t_order = np.argsort(grid.w_values), np.argsort(grid.t_values)
    ranked = np.where(ok, f, -np.inf)[:, w_order[:, None], t_order]
    results: dict[str, OptimumResult] = {}
    for d, db in enumerate(grid.databases):
        w, t = np.unravel_index(ranked[d].argmax(), ranked[d].shape)
        w, t = w_order[w], t_order[t]
        if not ok[d, w, t]:
            results[db] = OptimumResult(db, False, reason="no grid cell satisfies the constraints")
            continue
        results[db] = OptimumResult(db, True, grid.w_values[w], grid.t_values[t],
                                    *(float(m[d, w, t]) for m in (f, p_a, se_a)))
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
                    p_a=r.p_a,
                    se_a=r.se_a,
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
    # The constraints first: their baseline is one cell per database, so a
    # bad limit fails before the sweep.
    constraints = TuningConstraints(
        min_alarm_precision=min_alarm_precision,
        max_sensitivity_drop_points=max_sensitivity_drop_points,
        baseline_se_a=baseline_sensitivities(corpus, stack_cfg),
    )
    grid = sweep(corpus, w_values, t_values, (beta,), stack_cfg)
    optima = per_database_argmax(grid, beta, constraints)
    w_final, t_final = average_optima(optima, grid.t_values)
    return TuningResult(beta, constraints, optima, w_final, t_final)
