"""Differential property tests for the threshold-batched decision kernel.

Scores are quantized to a 0.05 step and thresholds sit on the same step, so
filtered values land exactly on T and the strict ``<`` is exercised. Streams
may be empty and videos may have no falls. The kernel sees anchors with gaps,
as the chunk layout of the sweep jumps anchors at every separator slot; a
PredictionStream's anchors advance by 1.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from alarm_pipeline.corpus import PredictionStream, StackConfig, VideoAnnotation, stack_label_masks
from alarm_pipeline.metrics import ConfusionCounts
from alarm_pipeline.temporal import (
    FilterConfig,
    decision_counts,
    evaluate_video,
    extract_alarms,
    gate_filter,
    match_alarms,
)

from _oracles import naive_label, naive_pipeline, naive_trailing_mean

STEPS = 20  # scores and thresholds are multiples of 1/STEPS


@st.composite
def videos(draw, gaps=True):
    """(scores, anchors, fall_intervals, stack_length, frame_count) of one video."""
    stack_length = draw(st.integers(1, 6))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5] if gaps else [1]), max_size=60))
    first = stack_length - 1 + draw(st.integers(0, 5))
    anchors = [first + sum(steps[:i]) for i in range(len(steps))]
    frame_count = (anchors[-1] if anchors else first) + 1 + draw(st.integers(0, 10))
    scores = [k / STEPS for k in draw(st.lists(st.integers(0, STEPS), min_size=len(anchors),
                                               max_size=len(anchors)))]
    falls = []
    pos = 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                     max_size=6)):
        start = pos + gap
        end = start + length
        if end >= frame_count:
            break
        falls.append((start, end))
        pos = end + 1
    return scores, anchors, falls, stack_length, frame_count


@settings(max_examples=300, deadline=None)
@given(video=videos(), width=st.integers(1, 6),
       ks=st.lists(st.integers(1, STEPS - 1), min_size=1, max_size=6))
def test_decision_counts_matches_naive_pipeline(video, width, ks):
    scores, anchors, falls, stack_length, frame_count = video
    t_values = [k / STEPS for k in ks]
    # The oracle's own filter output and stack labels, so only thresholding,
    # runs, matching and counting are compared.
    filtered = np.asarray(naive_trailing_mean(scores, width), dtype=np.float64)
    truth = np.array([naive_label(falls, a, stack_length) for a in anchors], dtype=object)
    got = decision_counts(filtered, t_values, truth == "fall", truth != "transition",
                          np.asarray(anchors, dtype=np.int64), falls, stack_length)
    assert got.shape == (len(t_values), 7)
    for row, t in zip(got.tolist(), t_values):
        confusion, _, alarm_counts, _ = naive_pipeline(
            scores, anchors, falls, stack_length, width, t
        )
        assert tuple(row) == confusion + alarm_counts


@settings(max_examples=200, deadline=None)
@given(video=videos(gaps=False), width=st.integers(1, 6), k=st.integers(1, STEPS - 1))
def test_evaluate_video_agrees_with_match_alarms(video, width, k):
    scores, anchors, falls, stack_length, frame_count = video
    t = k / STEPS
    stream = PredictionStream("v", anchors, scores)
    annotation = VideoAnnotation("v", "db", 30.0, frame_count, falls)
    ev = evaluate_video(stream, annotation, FilterConfig(t_pred=t, width_frames=width),
                        StackConfig(stack_length))
    labels = gate_filter(scores, width) < t
    counts, events, records = match_alarms(
        extract_alarms(labels, stream.anchor_frames), falls, stack_length, "v"
    )
    assert ev.alarm_counts == counts
    assert ev.alarms == events
    assert ev.fp_offsets == records
    truth_fall, transition = stack_label_masks(annotation, stream.anchor_frames,
                                               StackConfig(stack_length))
    negative = ~truth_fall & ~transition
    assert ev.stack_counts == ConfusionCounts(
        tp=int(np.sum(labels & truth_fall)),
        tn=int(np.sum(~labels & negative)),
        fp=int(np.sum(labels & negative)),
        fn=int(np.sum(~labels & truth_fall)),
    )
