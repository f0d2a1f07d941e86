"""Temporal decision path: gate filter, threshold, alarm runs, truth matching.

The score stream is smoothed by a gate (box) filter of width W, thresholded
at T_pred (a filtered No-Fall score strictly below T_pred labels the stack
Fall), and maximal runs of Fall stacks become alarm events. Alarms are then
matched against ground-truth fall intervals to produce alarm-level counts and
an offset record for every false alarm.

:func:`decision_counts` gives the same counts for a whole batch of thresholds
at once. It ranks each filtered score against the sorted thresholds (how
many it is strictly below) and reads every count at every threshold from
bincounts of those ranks, as a ROC curve is read from sorted scores. Each
fall is a half-open range of stack indices, the stacks whose span overlaps
it. The "hot" stacks are those that are not eligible negatives: the FALL and
TRANSITION stacks, which are exactly the stacks in any fall's range, and the
separator slots of a chunk, which are never Fall. Stack counts come by class;
detected falls from the largest rank over each fall's range; false alarms
from the identity

    FP_a = #Fall stacks - #Fall edges - #Fall hot stacks + #joined hot gaps,

all runs less the runs that hold a hot stack, where a hot gap (the closed
range between consecutive hot stacks) is joined when all of it is Fall. A
stack at or above the largest threshold has rank 0 and is Fall at no
threshold, so ranking and binning touch only the stacks below the largest
threshold; as falls are rare, those are few. Its memory grows with the
stream, not with the thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .corpus import (PredictionStream, StackConfig, VideoAnnotation, _is_integer, fall_stack_ranges,
                     stack_label_masks)
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
        if self.width_seconds is not None and not (0 < self.width_seconds < math.inf):
            raise ValueError(f"width_seconds must be finite and > 0, got {self.width_seconds}")
        if self.width_frames is not None and not _is_integer(self.width_frames):
            raise ValueError(f"width_frames must be an integer, got {self.width_frames!r}")
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

    A 1e-9 nudge keeps products like 0.58 * 25 (14.499999999999998, where
    the decimals make 14.5) from rounding the wrong way. Raises ValueError if
    the frames overflow a float.
    """
    if not (0 < width_seconds < math.inf):
        raise ValueError(f"width_seconds must be finite and > 0, got {width_seconds}")
    if not (fps > 0):
        raise ValueError(f"fps must be > 0, got {fps}")
    frames = width_seconds * fps + 0.5 + 1e-9
    if frames == math.inf:
        raise ValueError(f"width_seconds {width_seconds} at fps {fps} is more frames than a float holds")
    return max(1, math.floor(frames))


def segment_cumsum(scores: np.ndarray, starts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Running sums that restart at every segment start, laid end to end.

    ``starts`` are the indices where the segments of ``scores`` begin, the
    first being 0. Each segment gets its own ``np.cumsum``, written into its
    slice of one output array, so its sums are bit-for-bit those of the
    segment taken alone.
    """
    x = np.asarray(scores, dtype=np.float64)
    bounds = np.append(starts, x.size).tolist()
    out = np.empty_like(x)
    for a, b in zip(bounds, bounds[1:]):
        np.cumsum(x[a:b], out=out[a:b])
    return out


def gate_filter(
    scores: Sequence[float] | np.ndarray,
    width_frames: int,
    starts: Sequence[int] | np.ndarray | None = None,
    cumulative: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Trailing moving average over the last ``width_frames`` samples.

    Output element i is the mean of inputs over [i - width + 1, i] clipped to
    the stream start, so prefix windows average fewer elements and the output
    has the same length as the input. Width 1 is the identity, and any width
    of at least the stream's length gives the same output as that length.

    With ``starts`` (as in :func:`segment_cumsum`), ``scores`` is several
    streams laid end to end and windows are clipped to the start of their own
    stream instead; the output equals the streams' separate outputs, bit for
    bit. ``cumulative`` is the :func:`segment_cumsum` of the same scores and
    starts, passed in when many widths filter one stream. ``out``, a float64
    array of the scores' shape that shares no memory with ``scores`` or
    ``cumulative`` (ValueError otherwise), receives the output, bit for bit
    the array returned without it, and is returned; many widths can then
    filter into one buffer.
    """
    if width_frames < 1:
        raise ValueError(f"width_frames must be >= 1, got {width_frames}")
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("scores must be 1-D")
    if out is None:
        out = np.empty_like(x)
    elif not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != x.shape:
        raise ValueError("out must be a float64 array of the scores' shape")
    elif any(np.may_share_memory(out, a) for a in (x, cumulative) if a is not None):
        raise ValueError("out must not share memory with scores or cumulative")
    if x.size == 0 or width_frames == 1:
        out[...] = x
        return out
    # A window longer than the stream is a prefix mean all the same; the
    # clamp keeps widths past 64 bits out of the array arithmetic.
    w = min(width_frames, x.size)
    starts = np.asarray([0] if starts is None else starts, dtype=np.int64)  # one stream: one segment
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0:
        raise ValueError("starts must be 1-D and begin with 0")
    bounds = np.append(starts, x.size)
    lengths = bounds[1:] - bounds[:-1]
    if (lengths < 0).any():
        raise ValueError("starts must not decrease or pass the end of scores")
    if cumulative is None:
        cumulative = segment_cumsum(x, starts)
    # Position j < w of a stream averages its first j + 1 samples; ``at``
    # lists those positions.
    prefix = np.minimum(lengths, w)
    offsets = np.cumsum(prefix) - prefix
    j = np.arange(offsets[-1] + prefix[-1]) - np.repeat(offsets, prefix)
    at = np.repeat(starts, prefix) + j
    if x.size > w:  # in place: no temporary as long as the stream
        np.subtract(cumulative[w:], cumulative[:-w], out=out[w:])
        out[w:] /= w
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


class DecisionLayout:
    """The width-independent half of :func:`decision_counts`.

    It holds what the counts of one stream need besides its filtered scores:
    the thresholds in ascending order, the stacks of each class, each fall's
    half-open range of stack indices (``fall_ranges``, an integer array of
    ``(lo, hi)`` rows as :func:`fall_stack_ranges` gives) and the "hot"
    stacks, those that are not eligible negatives. ``truth_fall`` and
    ``eligible`` must be the labels of the same falls, as
    :func:`stack_label_masks` gives them (``eligible`` is not TRANSITION):
    then the FALL and TRANSITION stacks are exactly the stacks in some fall's
    range, and any other ineligible stack (a chunk's separator slot) is never
    Fall, so its rank of 0 changes no count. Index sets are kept as the few
    stacks outside each class, as most stacks are eligible negatives. A
    caller that filters one stream at many widths builds the layout once and
    calls :meth:`counts` per width. The layout keeps the buffers that
    :meth:`counts` fills, the ranks of all stacks and the candidates' marks
    and comparisons, from one call to the next, so a call allocates arrays
    of its candidates and of the fall and hot stacks, never one as long as
    the stream; one layout serves one caller at a time.
    """

    def __init__(
        self,
        t_values: Sequence[float] | np.ndarray,
        truth_fall: np.ndarray,
        eligible: np.ndarray,
        fall_ranges: np.ndarray,
    ) -> None:
        t = np.asarray(t_values, dtype=np.float64)
        self.order = np.argsort(t, kind="stable")
        self.sorted_t = t[self.order]
        self.rank_dtype = np.min_scalar_type(t.size)
        self.size = truth_fall.size
        self.truth = np.flatnonzero(truth_fall)
        self.hot = np.flatnonzero(truth_fall | ~eligible)
        self.negative_count = self.size - self.hot.size

        lo, hi = fall_ranges.T
        self.fall_count = lo.size
        self.fall_ranges = fall_ranges[lo < hi].ravel()
        # A hot gap is the closed range between consecutive hot stacks. Most
        # are the edge between neighbours inside one fall's range; those are
        # read as edges, since reduceat pays a fixed cost per range.
        apart = np.diff(self.hot) > 1
        self.hot_edges = self.hot[:-1][~apart]
        self.hot_gaps = np.column_stack((self.hot[:-1][apart], self.hot[1:][apart] + 1)).ravel()
        # Slot n of the ranks holds rank 0 for reduceat, which may start at
        # index n, and for the edge of a last stack that is a candidate.
        self._padded = np.empty(self.size + 1, dtype=self.rank_dtype)
        self._is_candidate = np.empty(self.size, dtype=bool)
        self._below = np.empty(0, dtype=bool)  # grown to the most candidates yet

    def counts(self, filtered: np.ndarray) -> np.ndarray:
        """Rows ``(tp, tn, fp, fn, TP_a, FP_a, FN_a)`` of ``filtered``, one per
        threshold in the order given.

        Rank ``r[i]`` counts the thresholds that ``filtered[i]`` is strictly
        below, so stack i is Fall at sorted threshold j exactly when
        ``r[i] >= nT - j``. Every count at j is then a count of keys at least
        ``nT - j``: a stack's rank, the smaller rank of an edge's two stacks
        (both Fall), or a range's smallest or largest rank. Keys of 0 count
        at no threshold, so only the stacks below the largest threshold are
        ranked, the rest keep rank 0, and the keys over all stacks and all
        edges are binned from those stacks and the edges they begin alone.
        """
        nt = self.sorted_t.size
        # Candidates are the stacks below the largest threshold, so their
        # rank starts at 1; every other stack keeps rank 0.
        cand = np.flatnonzero(np.less(filtered, self.sorted_t[-1], out=self._is_candidate))
        scores = filtered[cand]
        rc = np.ones(cand.size, dtype=self.rank_dtype)
        if self._below.size < cand.size:
            self._below = np.empty(cand.size, dtype=bool)
        below = self._below[:cand.size]
        for t in self.sorted_t[:-1]:
            rc += np.less(scores, t, out=below)
        # Zeroing the whole buffer costs less than zeroing the last call's
        # candidates where nearly every stack is one (a 0.99 threshold).
        padded = self._padded
        padded.fill(0)
        padded[cand] = rc

        # Stack false positives are the Fall stacks less the Fall hot ones.
        # A fall is detected when any stack of its range is Fall. Runs are
        # Fall stacks less Fall edges; a run is a true alarm when it holds a
        # hot stack, and the runs that do are the Fall hot stacks less the
        # hot gaps that are all Fall (joined). So false alarms are Fall
        # stacks - Fall edges - Fall hot stacks + joined hot gaps. Bin 0 is
        # never read, so the two keys over all stacks and all edges need only
        # the candidates and the edges that a candidate begins.
        keys = [
            padded[self.truth],
            rc,
            np.maximum.reduceat(padded, self.fall_ranges)[::2],
            np.minimum(rc, padded[1:][cand]),  # each candidate's right neighbour
            np.concatenate((np.minimum(padded[self.hot_edges], padded[self.hot_edges + 1]),
                            np.minimum.reduceat(padded, self.hot_gaps)[::2])),
            padded[self.hot],
        ]
        hist = np.stack([np.bincount(k, minlength=nt + 1) for k in keys])
        tp, fall, tp_a, edges, joined, hot = hist[:, ::-1].cumsum(1)[:, :nt]
        fp = fall - hot
        out = np.empty((nt, 7), dtype=np.int64)
        out[self.order] = np.column_stack((
            tp, self.negative_count - fp, fp, self.truth.size - tp,
            tp_a, fall - edges - hot + joined, self.fall_count - tp_a,
        ))
        return out


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
    stacks, ``tn``/``fp`` count eligible non-fall stacks. ``truth_fall`` and
    ``eligible`` must be the labels of ``fall_intervals`` on ``anchors``, as
    :func:`stack_label_masks` gives them: the kernel reads the stacks that
    overlap a fall off those labels. ``anchors`` must
    advance by 1, as in a :class:`PredictionStream` (ValueError otherwise);
    ``fall_intervals`` must be sorted and disjoint, as
    :class:`VideoAnnotation` guarantees. Each filtered score is ranked
    against the sorted thresholds once, by the strict ``<`` comparison, and
    every count is read from bincounts of those ranks (see
    :class:`DecisionLayout`), so memory is O(stacks) for any number of
    thresholds.
    """
    if np.any(np.diff(anchors) != 1):
        raise ValueError("anchors must advance by 1")
    ranges = fall_stack_ranges(fall_intervals, anchors, stack_length)
    return DecisionLayout(t_values, truth_fall, eligible, ranges).counts(filtered)


@dataclass(frozen=True)
class OffsetSummary:
    """Fractions of false alarms below the offset/duration cutoffs."""

    count: int
    offset_below_fraction: float | None
    duration_below_fraction: float | None
    offset_cutoff_frames: float
    duration_cutoff_frames: float


def check_cutoffs(offset_cutoff_frames: float, duration_cutoff_frames: float) -> None:
    """Raise ValueError unless both histogram cutoffs are >= 0."""
    for name, cutoff in (("offset", offset_cutoff_frames), ("duration", duration_cutoff_frames)):
        if not cutoff >= 0:  # NaN fails too
            raise ValueError(f"{name} cutoff must be >= 0, got {cutoff}")


def offset_histogram(
    records: Sequence[FpOffsetRecord],
    offset_cutoff_frames: float = 5,
    duration_cutoff_frames: float = 10,
) -> OffsetSummary:
    """Summarize false alarms: how many sit close to a fall, how many are short.

    The raw (duration, offset) points stay available on the records themselves
    for plotting and re-analysis. Both cutoffs must be >= 0.
    """
    check_cutoffs(offset_cutoff_frames, duration_cutoff_frames)
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
    path. The alarm counts, events and false-alarm offsets come from
    :func:`extract_alarms` and :func:`match_alarms`. Corpus-wide counts are
    cheaper through ``tuning.filter_counts``, and ``offsets`` takes its
    false alarms from ``tuning.false_alarm_offsets``; both run through the
    chunks of whole videos and give what this gives per video.
    """
    if stream.video_id != annotation.video_id:
        raise ValueError(
            f"stream {stream.video_id!r} does not match annotation {annotation.video_id!r}"
        )
    width = cfg.resolve_width_frames(annotation.fps)
    fall = threshold_labels(gate_filter(stream.scores, width), cfg.t_pred)
    truth_fall, truth_transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
    negative = ~truth_fall & ~truth_transition
    tp = int(np.count_nonzero(fall & truth_fall))
    fp = int(np.count_nonzero(fall & negative))
    runs = extract_alarms(fall, stream.anchor_frames)
    alarm_counts, events, fp_records = match_alarms(
        runs, annotation.fall_intervals, stack_cfg.stack_length, stream.video_id
    )
    return VideoEvaluation(
        video_id=stream.video_id,
        stack_counts=ConfusionCounts(
            tp=tp, tn=int(np.count_nonzero(negative)) - fp, fp=fp,
            fn=int(np.count_nonzero(truth_fall)) - tp,
        ),
        alarm_counts=alarm_counts,
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
