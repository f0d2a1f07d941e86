"""Temporal decision path: gate filter, threshold, alarm runs, truth matching.

The score stream is smoothed by a gate (box) filter of width W, thresholded
at T_pred (a filtered No-Fall score strictly below T_pred labels the stack
Fall), and maximal runs of Fall stacks become alarm events. Alarms are then
matched against ground-truth fall intervals to produce alarm-level counts and
an offset record for every false alarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .corpus import PredictionStream, StackConfig, VideoAnnotation, stack_label_masks
from .metrics import DEFAULT_BETAS, AlarmCounts, ConfusionCounts, MetricReport


@dataclass(frozen=True)
class FilterConfig:
    """Gate-filter width (seconds or frames, exactly one) plus threshold."""

    t_pred: float
    width_seconds: float | None = None
    width_frames: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.t_pred < 1.0):
            raise ValueError(f"t_pred must lie in (0, 1), got {self.t_pred}")
        if (self.width_seconds is None) == (self.width_frames is None):
            raise ValueError("set exactly one of width_seconds / width_frames")
        if self.width_seconds is not None and not (self.width_seconds > 0):
            raise ValueError(f"width_seconds must be > 0, got {self.width_seconds}")
        if self.width_frames is not None and self.width_frames < 1:
            raise ValueError(f"width_frames must be >= 1, got {self.width_frames}")

    def resolve_width_frames(self, fps: float) -> int:
        if self.width_frames is not None:
            return self.width_frames
        return width_to_frames(self.width_seconds, fps)


def identity_filter(t_pred: float = 0.5) -> FilterConfig:
    """One-frame window: thresholding without temporal smoothing."""
    return FilterConfig(t_pred=t_pred, width_frames=1)


class AlarmKind(Enum):
    TRUE_ALARM = "TP_a"
    FALSE_ALARM = "FP_a"


@dataclass(frozen=True)
class AlarmEvent:
    """A maximal run of Fall-labeled stacks, bounded by its anchor frames.

    ``offset_frames`` is set for false alarms only: the frame distance from
    the run's covered-frame span to the nearest fall interval (inf when the
    video has no falls).
    """

    video_id: str
    start_frame: int
    end_frame: int
    kind: AlarmKind
    offset_frames: float | None = None


@dataclass(frozen=True)
class FpOffsetRecord:
    """Duration and distance-to-fall of one false alarm, in frames."""

    duration_frames: int
    offset_frames: float


def width_to_frames(width_seconds: float, fps: float) -> int:
    """Convert a filter width in seconds to whole frames (round half up, min 1).

    A 1e-9 nudge keeps products like 0.15 * 30 (stored as 4.4999...) from
    rounding the wrong way.
    """
    if not (width_seconds > 0):
        raise ValueError(f"width_seconds must be > 0, got {width_seconds}")
    if not (fps > 0):
        raise ValueError(f"fps must be > 0, got {fps}")
    return max(1, int(math.floor(width_seconds * fps + 0.5 + 1e-9)))


def segment_cumsum(scores: np.ndarray, starts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Running sums that restart at every segment start, laid end to end.

    ``starts`` are the indices where the segments of ``scores`` begin, the
    first being 0. Each segment gets its own ``np.cumsum``, so its sums are
    bit-for-bit those of the segment taken alone.
    """
    x = np.asarray(scores, dtype=np.float64)
    bounds = np.append(starts, x.size)
    return np.concatenate([np.cumsum(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])


def gate_filter(
    scores: Sequence[float] | np.ndarray,
    width_frames: int,
    starts: Sequence[int] | np.ndarray | None = None,
    cumulative: np.ndarray | None = None,
) -> np.ndarray:
    """Trailing moving average over the last ``width_frames`` samples.

    Output element i is the mean of inputs over [i - width + 1, i] clipped to
    the stream start, so prefix windows average fewer elements and the output
    has the same length as the input. Width 1 is the identity.

    With ``starts`` (as in :func:`segment_cumsum`), ``scores`` is several
    streams laid end to end and windows are clipped to the start of their own
    stream instead; the output equals the streams' separate outputs, bit for
    bit. ``cumulative`` is the :func:`segment_cumsum` of the same scores and
    starts, passed in when many widths filter one stream.
    """
    if width_frames < 1:
        raise ValueError(f"width_frames must be >= 1, got {width_frames}")
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("scores must be 1-D")
    if x.size == 0 or width_frames == 1:
        return x.copy()
    w = width_frames
    # Position j < w of a stream averages its first j + 1 samples; ``at``
    # lists those positions.
    if starts is None:
        if cumulative is None:
            cumulative = np.cumsum(x)
        j = at = np.arange(min(w, x.size))
    else:
        starts = np.asarray(starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size == 0 or starts[0] != 0:
            raise ValueError("starts must be 1-D and begin with 0")
        lengths = np.diff(starts, append=x.size)
        if np.any(lengths < 0):
            raise ValueError("starts must not decrease or pass the end of scores")
        if cumulative is None:
            cumulative = segment_cumsum(x, starts)
        prefix = np.minimum(lengths, w)
        offsets = np.cumsum(prefix) - prefix
        j = np.arange(offsets[-1] + prefix[-1]) - np.repeat(offsets, prefix)
        at = np.repeat(starts, prefix) + j
    out = np.empty_like(x)
    if x.size > w:
        out[w:] = (cumulative[w:] - cumulative[:-w]) / w
    out[at] = cumulative[at] / (j + 1)
    return out


def threshold_labels(filtered: Sequence[float] | np.ndarray, t_pred: float) -> np.ndarray:
    """Boolean Fall labels: True where the filtered No-Fall score < t_pred."""
    if not (0.0 < t_pred < 1.0):
        raise ValueError(f"t_pred must lie in (0, 1), got {t_pred}")
    return np.asarray(filtered, dtype=np.float64) < t_pred


def extract_alarms(
    labels: Sequence[bool] | np.ndarray, anchors: Sequence[int] | np.ndarray
) -> list[tuple[int, int]]:
    """Maximal runs of consecutive Fall labels as (first_anchor, last_anchor)."""
    lab = np.asarray(labels, dtype=bool)
    anc = np.asarray(anchors, dtype=np.int64)
    if lab.shape != anc.shape or lab.ndim != 1:
        raise ValueError("labels and anchors must be 1-D and the same length")
    hits = np.flatnonzero(lab)
    if hits.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(hits) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [hits.size - 1]))
    return [(int(anc[hits[s]]), int(anc[hits[e]])) for s, e in zip(starts, ends)]


def match_alarms(
    alarms: Sequence[tuple[int, int]],
    fall_intervals: Sequence[tuple[int, int]],
    stack_length: int,
    video_id: str = "",
) -> tuple[AlarmCounts, list[AlarmEvent], list[FpOffsetRecord]]:
    """Classify alarms against ground-truth falls.

    An alarm's covered-frame span is its anchor run expanded left by the
    stack's L-1 extra frames. A fall counts as detected (one TP_a) when at
    least one alarm span overlaps it, no matter how many alarms do; an alarm
    overlapping no fall is one FP_a and yields an offset record. tp_a + fn_a
    therefore always equals ``len(fall_intervals)``.
    """
    if stack_length < 1:
        raise ValueError(f"stack_length must be >= 1, got {stack_length}")
    detected = [False] * len(fall_intervals)
    events: list[AlarmEvent] = []
    fp_records: list[FpOffsetRecord] = []
    fp = 0
    for first, last in alarms:
        span_lo = first - (stack_length - 1)
        span_hi = last
        hit = False
        for i, (s, e) in enumerate(fall_intervals):
            if span_lo <= e and span_hi >= s:
                detected[i] = True
                hit = True
        if hit:
            events.append(AlarmEvent(video_id, first, last, AlarmKind.TRUE_ALARM))
        else:
            offset = math.inf
            for s, e in fall_intervals:
                if span_hi < s:
                    offset = min(offset, float(s - span_hi))
                else:  # span_lo > e, or the alarm would have overlapped
                    offset = min(offset, float(span_lo - e))
            fp += 1
            events.append(AlarmEvent(video_id, first, last, AlarmKind.FALSE_ALARM, offset))
            fp_records.append(FpOffsetRecord(last - first + 1, offset))
    tp = sum(detected)
    counts = AlarmCounts(tp_a=tp, fp_a=fp, fn_a=len(fall_intervals) - tp)
    return counts, events, fp_records


def decision_counts(
    filtered: np.ndarray,
    t_values: Sequence[float] | np.ndarray,
    truth_fall: np.ndarray,
    eligible: np.ndarray,
    anchors: np.ndarray,
    fall_intervals: Sequence[tuple[int, int]],
    stack_length: int,
) -> np.ndarray:
    """Stack and alarm counts of one filtered stream at many thresholds.

    Row i holds ``(tp, tn, fp, fn, TP_a, FP_a, FN_a)`` for ``t_values[i]``,
    exactly as :func:`threshold_labels`, :func:`extract_alarms` and
    :func:`match_alarms` would give them. ``tp``/``fn`` count ``truth_fall``
    stacks, ``tn``/``fp`` count eligible non-fall stacks. ``fall_intervals``
    must be sorted and disjoint, as :class:`VideoAnnotation` guarantees.
    """
    t = np.asarray(t_values, dtype=np.float64)
    fall = filtered < t[:, None]
    negative = eligible & ~truth_fall
    out = np.empty((t.size, 7), dtype=np.int64)
    out[:, 0] = (fall & truth_fall).sum(1)
    out[:, 2] = (fall & negative).sum(1)
    out[:, 3] = np.count_nonzero(truth_fall) - out[:, 0]
    out[:, 1] = np.count_nonzero(negative) - out[:, 2]

    # Alarm runs: a run starts where a row's Fall label rises and ends where
    # it drops; both scans visit runs in the same (threshold, anchor) order.
    rises = fall.copy()
    rises[:, 1:] &= ~fall[:, :-1]
    drops = fall.copy()
    drops[:, :-1] &= ~fall[:, 1:]
    row, first = np.divmod(np.flatnonzero(rises), filtered.size)
    last = np.flatnonzero(drops) % filtered.size

    # A run's span [anchor[first] - (L-1), anchor[last]] overlaps exactly the
    # falls i0 .. i1-1: the first fall ending at or after the span start up to
    # the last fall starting at or before the span end.
    falls = np.asarray(fall_intervals, dtype=np.int64).reshape(-1, 2)
    i0 = falls[:, 1].searchsorted(anchors[first] - (stack_length - 1), side="left")
    i1 = falls[:, 0].searchsorted(anchors[last], side="right")
    hit = i0 < i1
    out[:, 5] = np.bincount(row[~hit], minlength=t.size)

    # Mark each hit run's fall range [i0, i1) per threshold as +1/-1 edges;
    # a fall is detected at a threshold where the running edge sum is positive.
    width = falls.shape[0] + 1
    edges = np.bincount(row[hit] * width + i0[hit], minlength=t.size * width)
    edges -= np.bincount(row[hit] * width + i1[hit], minlength=t.size * width)
    detected = edges.reshape(t.size, width).cumsum(1)[:, :-1] > 0
    out[:, 4] = detected.sum(1)
    out[:, 6] = falls.shape[0] - out[:, 4]
    return out


@dataclass(frozen=True)
class OffsetSummary:
    """Fractions of false alarms below the offset/duration cutoffs."""

    count: int
    offset_below_fraction: float | None
    duration_below_fraction: float | None
    offset_cutoff_frames: float
    duration_cutoff_frames: float


def offset_histogram(
    records: Sequence[FpOffsetRecord],
    offset_cutoff_frames: float = 5,
    duration_cutoff_frames: float = 10,
) -> OffsetSummary:
    """Summarize false alarms: how many sit close to a fall, how many are short.

    The raw (duration, offset) points stay available on the records themselves
    for plotting and re-analysis.
    """
    n = len(records)
    if n == 0:
        return OffsetSummary(0, None, None, offset_cutoff_frames, duration_cutoff_frames)
    near = sum(1 for r in records if r.offset_frames < offset_cutoff_frames)
    short = sum(1 for r in records if r.duration_frames < duration_cutoff_frames)
    return OffsetSummary(n, near / n, short / n, offset_cutoff_frames, duration_cutoff_frames)


@dataclass
class VideoEvaluation:
    """Everything one video contributes: counts, classified alarms, offsets."""

    video_id: str
    stack_counts: ConfusionCounts
    alarm_counts: AlarmCounts
    alarms: list[AlarmEvent]
    fp_offsets: list[FpOffsetRecord]


def evaluate_video(
    stream: PredictionStream,
    annotation: VideoAnnotation,
    cfg: FilterConfig,
    stack_cfg: StackConfig = StackConfig(),
) -> VideoEvaluation:
    """Run the full decision path on one video and score it.

    Stack-level confusion compares the post-filter, post-threshold stack
    decisions against the derived stack labels; Transition-labeled stacks are
    excluded from those counts but their scores still flow through the alarm
    path. The counts come from :func:`decision_counts`; the alarm events and
    false-alarm offsets from :func:`extract_alarms` and :func:`match_alarms`.
    """
    if stream.video_id != annotation.video_id:
        raise ValueError(
            f"stream {stream.video_id!r} does not match annotation {annotation.video_id!r}"
        )
    width = cfg.resolve_width_frames(annotation.fps)
    filtered = gate_filter(stream.scores, width)
    truth_fall, truth_transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
    counts = decision_counts(
        filtered, [cfg.t_pred], truth_fall, ~truth_transition, stream.anchor_frames,
        annotation.fall_intervals, stack_cfg.stack_length,
    )[0].tolist()
    runs = extract_alarms(threshold_labels(filtered, cfg.t_pred), stream.anchor_frames)
    _, events, fp_records = match_alarms(
        runs, annotation.fall_intervals, stack_cfg.stack_length, stream.video_id
    )
    return VideoEvaluation(
        video_id=stream.video_id,
        stack_counts=ConfusionCounts(*counts[:4]),
        alarm_counts=AlarmCounts(*counts[4:]),
        alarms=events,
        fp_offsets=fp_records,
    )


def combine(
    evaluations: Iterable[VideoEvaluation], betas: Sequence[float] = DEFAULT_BETAS
) -> MetricReport:
    """Fold per-video counts into one report; order of videos is irrelevant."""
    stack = ConfusionCounts()
    alarm = AlarmCounts()
    for ev in evaluations:
        stack = stack + ev.stack_counts
        alarm = alarm + ev.alarm_counts
    return MetricReport.from_counts(stack, alarm, betas)
