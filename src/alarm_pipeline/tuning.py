"""Conjoint (W, T_pred) grid search under alarm-precision and sensitivity
constraints, with per-database optima averaged into one deployable setting.

:func:`sweep` keeps the grid as one int64 counts array of shape
(nDB, nW, nT, 7). :meth:`SweepGrid.alarm_metrics` derives ``F_beta``, ``p_a``
and ``se_a`` of every cell from it by array operations, NaN where undefined,
:meth:`TuningConstraints.mask` marks the feasible cells, and
:func:`per_database_argmax` takes one masked argmax per database and reads
the chosen cell's ``F_beta``, ``p_a`` and ``se_a`` off those arrays.

The sweep, the sensitivity baseline and ``evaluate``'s per-database counts
all count a database per chunk of whole videos of one fps. :func:`_lay_out`
is the one place that knows a chunk's geometry: it lays the streams end to
end, a separator slot after each, and gives each video's slots and anchor
shift, the chunk's fall table and every fall's range of slots, from one
array expression over the whole chunk. The counts place each span of
touching falls by the same expression, to find its FALL slots, label the
chunk's slots from those ranges alone, build its :class:`DecisionLayout`
once, and one rank pass per width counts every threshold of the chunk.
Separator slots, ranges that hold only their own video's stacks and
per-video running sums keep each video's counts exactly what it would give
alone. A chunk holds at most ``CHUNK_STACKS`` stacks, since the kernel's
memory grows with stacks and not with thresholds.

``offsets`` reads its false alarms from the same layout, through
:func:`false_alarm_offsets`: one segmented gate filter and one
:func:`~alarm_pipeline.temporal.extract_alarms` per chunk, and one
``searchsorted`` of the runs in the fall ranges' starts that classifies
every run and finds each false one's nearest falls in the fall table. The
records are then put back in corpus order.

A database's chunk counts are mapped on the usable CPUs by
:func:`~alarm_pipeline.forks.fork_map`; they are integer sums, so they are
the same on any number of CPUs. ``offsets`` finds its false alarms in this
process: at one (W, T) cell a chunk takes a few milliseconds, less than a
fork round costs.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import PredictionStream, StackConfig, VideoAnnotation, _covered_spans
from .errors import InfeasibleError
from .forks import fork_map
from .metrics import AlarmCounts, ConfusionCounts, alarm_sensitivity, check_beta
from .temporal import (
    DecisionLayout,
    FilterConfig,
    FpOffsetRecord,
    extract_alarms,
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


def _chunk_positions(videos: Sequence[tuple[PredictionStream, VideoAnnotation]]):
    """Runs of whole videos of one fps, as (fps, positions in ``videos``),
    each of at most ``CHUNK_STACKS`` stacks; a longer video is a chunk by
    itself. A video's stacks include the separator slot that
    :func:`_lay_out` appends to it."""
    by_fps: dict[float, list[int]] = {}
    for i, (_, annotation) in enumerate(videos):
        by_fps.setdefault(annotation.fps, []).append(i)
    for fps, group in by_fps.items():
        chunk: list[int] = []
        stacks = 0
        for i in group:
            size = len(videos[i][0]) + 1
            if chunk and stacks + size > CHUNK_STACKS:
                yield fps, chunk
                chunk, stacks = [], 0
            chunk.append(i)
            stacks += size
        yield fps, chunk


def _lay_out(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]], stack_length: int
) -> tuple:
    """``(starts, ends, scores, shift, falls, ranges, slots)`` of a chunk.

    The videos' streams are laid end to end, each followed by one separator
    slot (score 0), so video ``v`` holds slots ``starts[v]`` to
    ``ends[v] - 1``, its separator last. :func:`_filter_chunk` makes a
    separator never Fall, and it is neither a fall nor an eligible stack, so
    no alarm run joins two videos. A stream's anchors advance by 1 from its
    ``first_anchor``, so slot ``i`` of video ``v`` holds anchor
    ``i + shift[v]``; no anchor array is made. ``falls`` holds the videos'
    fall intervals in chunk order and ``ranges`` each one's half-open range
    of the slots whose stacks overlap it, the range
    :func:`~alarm_pipeline.corpus.fall_stack_ranges` finds on the video's
    own anchors offset by its first slot: it holds only that video's
    stacks, and the ranges' starts never decrease along the chunk.

    ``slots(per_video, bounds)`` places frame spans, one list per video, in
    this layout: it returns them as one table in chunk order and each one's
    half-open range of slots, ``(s, e) - first anchor + bounds`` clipped to
    its video's stacks and offset by its first slot. ``falls`` and
    ``ranges`` are ``slots`` of the fall intervals at bounds ``(0, L)``. At
    ``(L - 1, 1)`` it gives the slots whose stacks lie wholly in each span
    (``lo >= hi`` when no stack does): :func:`_chunk_counts` takes these for
    its FALL slots, and ``offsets`` never builds them. Raises ValueError, as
    :func:`~alarm_pipeline.temporal.evaluate_video` does, if a stream and its
    annotation have different ids, and IndexError, as
    :func:`~alarm_pipeline.corpus.stack_label_masks` does, if a stack leaves
    its video's frames.
    """
    sizes = np.array([len(stream) for stream, _ in videos], dtype=np.int64)
    ends = np.cumsum(sizes + 1)
    starts = ends - sizes - 1
    first = np.empty(len(videos), dtype=np.int64)
    for v, (stream, annotation) in enumerate(videos):
        if stream.video_id != annotation.video_id:
            raise ValueError(f"stream {stream.video_id!r} does not match annotation {annotation.video_id!r}")
        own, n = stream.first_anchor, len(stream)
        if n and not stack_length - 1 <= own <= annotation.frame_count - n:
            # Anchors advance by 1, so the first one outside the frames is
            # the first anchor or else the frame count.
            bad = own if own < stack_length - 1 else max(own, annotation.frame_count)
            raise IndexError(
                f"stack at anchor {bad} leaves frames [0, {annotation.frame_count}) "
                f"of {annotation.video_id!r}"
            )
        first[v] = own if n else stack_length - 1  # no stack: empty ranges
    # One separator array for all videos: one made per video left small
    # temporaries on the heap that raised a fine-t `tune`'s peak RSS by 4 MB.
    separator = np.zeros(1)
    scores = np.concatenate([part for stream, _ in videos for part in (stream.scores, separator)])

    def slots(per_video, bounds):
        """The spans of ``per_video``, one list per video, as one table in
        chunk order, and the slots each span's ``bounds`` give, as below."""
        table = np.array([span for own in per_video for span in own], dtype=np.int64).reshape(-1, 2)
        video = np.repeat(np.arange(len(videos)), [len(own) for own in per_video])[:, None]
        return table, starts[video] + np.clip(table - first[video] + bounds, 0, sizes[video])

    # Stack i of video v spans anchors first[v] + i - (L - 1) to first[v] + i,
    # so it overlaps span (s, e) when s - first[v] <= i < e - first[v] + L
    # and lies in it when s - first[v] + L - 1 <= i < e - first[v] + 1.
    # As first[v] >= L - 1 and e < 2**63 - 1, no term leaves int64.
    falls, ranges = slots([annotation.fall_intervals for _, annotation in videos],
                          [0, stack_length])
    return starts, ends, scores, first - starts, falls, ranges, slots


def _filter_chunk(scores: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int,
                  cumulative: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The chunk's scores gate-filtered per video, as :func:`gate_filter`
    filters each video alone, with every separator slot +inf; written into
    ``out`` when it is given, as :func:`gate_filter` writes it."""
    filtered = gate_filter(scores, width, starts, cumulative, out)
    filtered[ends - 1] = np.inf
    return filtered


def _chunk_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    widths: Sequence[int],
    t_values: Sequence[float],
    stack_cfg: StackConfig,
) -> np.ndarray:
    """Summed (nW, nT, 7) counts, as in :func:`decision_counts`, of videos
    filtered at each of ``widths`` frames: one :class:`DecisionLayout` for
    the chunk of :func:`_lay_out`, one rank pass per width. The FALL slots
    are those whose stacks lie wholly in a span of a video's touching falls,
    as ``corpus._covered_spans`` merges them, and the hot slots those of the
    layout's fall ranges and the separators, so the labels and the ranges
    are those of the same falls, and each video's labels are those
    :func:`~alarm_pipeline.corpus.stack_label_masks` gives it. Each video
    keeps its own running sum, so its counts are those it gives alone.

    Every width is filtered into one buffer made for the chunk and ranked
    in the layout's buffers, and its counts go into one array made before
    the first width, so no width allocates filtered scores or ranks for the
    whole chunk.
    """
    length = stack_cfg.stack_length
    starts, ends, scores, _, _, ranges, slots = _lay_out(videos, length)
    _, fall_ranges = slots([_covered_spans(a.fall_intervals) for _, a in videos], [length - 1, 1])
    truth_fall = np.zeros(ends[-1], dtype=bool)
    hot = np.zeros(ends[-1], dtype=bool)
    hot[ends - 1] = True  # the separators
    for mask, mask_ranges in ((truth_fall, fall_ranges), (hot, ranges)):
        for lo, hi in mask_ranges.tolist():
            mask[lo:hi] = True
    layout = DecisionLayout(t_values, truth_fall, truth_fall | ~hot, ranges)
    cumulative = segment_cumsum(scores, starts) if max(widths) > 1 else None
    # One array for the counts of every width, made before the first: a
    # result kept per width sat on the heap between that width's freed
    # temporaries, so in some heap layouts each width's arrays took new
    # pages, and a 250-video, 990-cell `tune` peaked 4 MB higher.
    counts = np.empty((len(widths), len(t_values), 7), dtype=np.int64)
    filtered = np.empty_like(scores)
    for width in dict.fromkeys(widths):
        _filter_chunk(scores, starts, ends, width, cumulative, filtered)
        counts[[i for i, w in enumerate(widths) if w == width]] = layout.counts(filtered)
    return counts


def _database_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    widths: Sequence[Callable[[float], int]],
    t_values: Sequence[float],
    stack_cfg: StackConfig,
) -> np.ndarray:
    """Summed (nW, nT, 7) counts of one database, counted per chunk of whole
    videos; ``widths[w](fps)`` gives filter width ``w`` in frames at that fps.
    No video gives zero counts.

    The chunks are counted by :func:`~alarm_pipeline.forks.fork_map`, dealt
    round-robin to this process and forked children, so the sum and the
    error of the first failing chunk are those of one process.
    """
    def count(chunk: tuple[float, list[int]]) -> np.ndarray:
        fps, positions = chunk
        return _chunk_counts([videos[i] for i in positions], [width(fps) for width in widths],
                             t_values, stack_cfg)

    with contextlib.closing(fork_map(count, _chunk_positions(videos))) as counts:
        return sum(counts, np.zeros((len(widths), len(t_values), 7), dtype=np.int64))


def filter_counts(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    cfg: FilterConfig,
    stack_cfg: StackConfig = StackConfig(),
) -> tuple[ConfusionCounts, AlarmCounts]:
    """Stack and alarm counts of videos under one filter, summed over the
    videos and counted per chunk as in :func:`sweep`. They equal the counts
    of :func:`combine` over :func:`evaluate_video` of each video."""
    counts = _database_counts(videos, [cfg.resolve_width_frames], [cfg.t_pred],
                              stack_cfg)[0, 0].tolist()
    return ConfusionCounts(*counts[:4]), AlarmCounts(*counts[4:])


def _chunk_false_alarms(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    width: int,
    t_pred: float,
    stack_length: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(video, duration, offset)`` of each false alarm of a chunk, in slot
    order: the index into ``videos``, the run's length in stacks and its
    frame distance to the nearest fall of its video (inf if it has none), as
    :func:`~alarm_pipeline.temporal.match_alarms` gives them. The anchor
    shift, the fall table and the fall ranges are those of :func:`_lay_out`;
    the FALL slots are not built, as a run's class needs only its falls.

    The Fall stacks are the filtered slots below ``t_pred``; separators are
    +inf, so every run lies in one video. A fall's first slot, the start of
    its range, lies after a run's last slot exactly when the fall starts
    after the run's last anchor, and the first slots of the chunk's falls
    never decrease. So one ``searchsorted`` of the run's last slot finds the
    first fall of its video that starts after the run and, just before it,
    the last one that does not; fall ends increase, so the run overlaps a
    fall, and is a true alarm, exactly when it overlaps that last one.
    Otherwise those two are its nearest falls.
    """
    starts, ends, scores, shift, falls, ranges, _ = _lay_out(videos, stack_length)
    fall = _filter_chunk(scores, starts, ends, width) < t_pred
    runs = extract_alarms(fall, np.arange(fall.size))
    first, last = np.array(runs, dtype=np.int64).reshape(-1, 2).T
    video = starts.searchsorted(first, side="right") - 1
    span_lo = first + shift[video] - (stack_length - 1)
    span_hi = last + shift[video]
    # A sentinel fall after the chunk's last slot keeps every index in range.
    fall_slots = np.append(ranges[:, 0], fall.size)
    falls = np.append(falls, [(0, 0)], axis=0)
    after = fall_slots.searchsorted(last, side="right")
    before = after - 1
    gap_after = np.where(fall_slots[after] < ends[video], falls[after, 0] - span_hi, np.inf)
    gap_before = np.where((before >= 0) & (fall_slots[before] >= starts[video]),
                          span_lo - falls[before, 1], np.inf)
    false = gap_before > 0  # a gap of 0 or less: the run overlaps that fall
    return video[false], (last - first + 1)[false], np.minimum(gap_after, gap_before)[false]


def false_alarm_offsets(
    videos: Sequence[tuple[PredictionStream, VideoAnnotation]],
    cfg: FilterConfig,
    stack_cfg: StackConfig = StackConfig(),
) -> list[tuple[str, FpOffsetRecord]]:
    """The false alarms of videos under one filter, as ``(video_id, record)``
    in corpus order: videos in order, each video's alarms in time order.
    They equal the ``fp_offsets`` of
    :func:`~alarm_pipeline.temporal.evaluate_video` of each video.

    The alarms are found per chunk of whole videos, one segmented
    :func:`~alarm_pipeline.temporal.gate_filter` and one
    :func:`~alarm_pipeline.temporal.extract_alarms` per chunk, all in this
    process: a chunk's few milliseconds cost less than a fork round; as
    chunks group videos by fps, the records are then put back in corpus
    order by a stable sort.
    """
    alarms = []
    for fps, positions in _chunk_positions(videos):
        video, duration, offset = _chunk_false_alarms(
            [videos[i] for i in positions], cfg.resolve_width_frames(fps), cfg.t_pred,
            stack_cfg.stack_length)
        alarms += zip(np.array(positions)[video].tolist(), duration.tolist(), offset.tolist())
    alarms.sort(key=lambda alarm: alarm[0])
    return [(videos[p][0].video_id, FpOffsetRecord(d, o)) for p, d, o in alarms]


def check_grids(w_values: Sequence[float], t_values: Sequence[float]) -> None:
    """Raise ValueError unless both grids are non-empty, no width or threshold
    appears twice, and each value is one :class:`FilterConfig` accepts, with
    its message: thresholds in (0, 1), widths finite and > 0 seconds. The
    thresholds are checked first, then the repeats, then the widths."""
    if not w_values or not t_values:
        raise ValueError("w_values and t_values must be non-empty")
    for t in t_values:
        FilterConfig(t, width_frames=1)
    for name, values in (("w_values", w_values), ("t_values", t_values)):
        repeated = [value for value, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValueError(f"{name} must not repeat {repeated[0]}")
    for w in w_values:
        FilterConfig(0.5, width_seconds=w)


def sweep(
    corpus: Corpus,
    w_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    stack_cfg: StackConfig = StackConfig(),
) -> SweepGrid:
    """Populate the full (W, T_pred) grid for every database.

    A database's counts are summed over chunks of whole videos, one rank
    pass per chunk and width; they equal the sum of its videos' counts.
    The grids must pass :func:`check_grids`. Counts do not depend on beta:
    :meth:`SweepGrid.alarm_metrics` takes any. Empty databases are skipped
    with a warning.
    """
    w_values = list(default_w_values() if w_values is None else w_values)
    t_values = list(default_t_values() if t_values is None else t_values)
    check_grids(w_values, t_values)
    for db, videos in corpus.items():
        if not videos:
            warnings.warn(f"database {db!r} has no videos; skipped")
    databases = [db for db, videos in corpus.items() if videos]
    counts = np.zeros((len(databases), len(w_values), len(t_values), 7), dtype=np.int64)
    widths = [functools.partial(width_to_frames, w) for w in w_values]
    for d, db in enumerate(databases):
        counts[d] = _database_counts(corpus[db], widths, t_values, stack_cfg)
    return SweepGrid(w_values, t_values, databases, counts)


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
    false alarms wake the staff, so precision weighs more), read off the
    sweep's counts by :meth:`SweepGrid.alarm_metrics`.
    """
    # The beta and the constraints first: their baseline is one cell per
    # database, so a bad beta or limit fails before the sweep.
    check_beta(beta)
    constraints = TuningConstraints(
        min_alarm_precision=min_alarm_precision,
        max_sensitivity_drop_points=max_sensitivity_drop_points,
        baseline_se_a=baseline_sensitivities(corpus, stack_cfg),
    )
    grid = sweep(corpus, w_values, t_values, stack_cfg)
    optima = per_database_argmax(grid, beta, constraints)
    w_final, t_final = average_optima(optima, grid.t_values)
    return TuningResult(beta, constraints, optima, w_final, t_final)
