"""Differential property tests for the threshold-batched decision kernel.

Scores are quantized to a 0.05 step and thresholds sit on the same step, so
filtered values land exactly on T and the strict ``<`` is exercised. Streams
may be empty and videos may have no falls; anchors advance by 1, as in a
PredictionStream. The rank tests add what only the rank construction can get
wrong: unsorted and repeated thresholds, more thresholds than a uint8 rank
holds, +inf scores, falls outside every stack's span, falls whose stack
ranges overlap, and one run across the cold stacks between two falls. As the
kernel ranks only the stacks below the largest threshold, they also cover
streams with none or only such stacks, and a last stack whose edge reads past
the stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarm_pipeline.corpus import (PredictionStream, StackConfig, VideoAnnotation,
                                   fall_stack_ranges, stack_label_masks)
from alarm_pipeline.metrics import ConfusionCounts
from alarm_pipeline.temporal import (
    DecisionLayout,
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
def videos(draw):
    """(scores, anchors, fall_intervals, stack_length, frame_count) of one video."""
    stack_length = draw(st.integers(1, 6))
    first = stack_length - 1 + draw(st.integers(0, 5))
    anchors = list(range(first, first + draw(st.integers(0, 60))))
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
@given(video=videos(), width=st.integers(1, 6), k=st.integers(1, STEPS - 1))
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


@settings(max_examples=500, deadline=None)
@given(video=videos())
def test_hot_labels_are_the_fall_ranges(video):
    """DecisionLayout reads the stacks that overlap a fall off the labels:
    FALL | TRANSITION is exactly the union of the falls' stack ranges, also
    when fall intervals touch."""
    _, anchors, falls, stack_length, frame_count = video
    annotation = VideoAnnotation("v", "db", 30.0, frame_count, falls)
    fall, transition = stack_label_masks(annotation, np.asarray(anchors, dtype=np.int64),
                                         StackConfig(stack_length))
    in_range = np.zeros(len(anchors), dtype=bool)
    for lo, hi in fall_stack_ranges(falls, anchors, stack_length).tolist():
        in_range[lo:hi] = True
    assert np.array_equal(fall | transition, in_range)


@st.composite
def ranked_streams(draw):
    """(filtered, anchors, falls, stack_length) with filtered scores drawn
    directly, +inf among them, and falls anywhere in the video: before the
    first stack's span, after the last anchor, or one fall over the whole
    video."""
    stack_length = draw(st.integers(1, 4))
    first = stack_length - 1 + draw(st.integers(0, 12))
    anchors = list(range(first, first + draw(st.integers(0, 41))))
    frame_count = (anchors[-1] if anchors else first) + 1 + draw(st.integers(0, 12))
    filtered = draw(st.lists(st.one_of(st.integers(0, STEPS).map(lambda k: k / STEPS),
                                       st.just(np.inf)),
                             min_size=len(anchors), max_size=len(anchors)))
    if draw(st.booleans()):
        falls = [(0, frame_count - 1)]
    else:
        cuts = sorted(draw(st.sets(st.integers(0, frame_count - 1), max_size=10)))
        falls = [(s, e) for s, e in zip(cuts[::2], cuts[1::2])]
    return filtered, anchors, falls, stack_length


def assert_matches_naive(filtered, anchors, falls, stack_length, t_values):
    """decision_counts equals the naive pipeline, run at width 1 on the
    filtered scores, row by row in the order of ``t_values``."""
    truth = np.array([naive_label(falls, a, stack_length) for a in anchors], dtype=object)
    got = decision_counts(np.asarray(filtered, dtype=np.float64), t_values, truth == "fall",
                          truth != "transition", np.asarray(anchors, dtype=np.int64), falls,
                          stack_length)
    assert got.shape == (len(t_values), 7)
    want = {}
    for t in set(t_values):
        confusion, _, alarm_counts, _ = naive_pipeline(filtered, anchors, falls, stack_length,
                                                       1, t)
        want[t] = confusion + alarm_counts
    assert [tuple(row) for row in got.tolist()] == [want[t] for t in t_values]


@settings(max_examples=300, deadline=None)
@given(stream=ranked_streams(), ks=st.lists(st.integers(1, STEPS - 1), min_size=1, max_size=8),
       repeats=st.sampled_from([1, 2, 60]), data=st.data())
def test_rank_kernel_matches_naive_pipeline(stream, ks, repeats, data):
    # Unsorted, repeated, and (at 60 repeats of 5 or more) over 255 thresholds.
    t_values = data.draw(st.permutations([k / STEPS for k in ks] * repeats))
    # Lift most scores to at least the largest threshold, as most stacks of a
    # real stream score, so few stacks are ranked.
    filtered, anchors, falls, stack_length = stream
    lift = data.draw(st.lists(st.sampled_from([False, True, True, True]),
                              min_size=len(filtered), max_size=len(filtered)))
    top = max(t_values)
    filtered = [max(f, top) if up else f for f, up in zip(filtered, lift)]
    assert_matches_naive(filtered, anchors, falls, stack_length, t_values)


SHUFFLED_T = [0.5, 0.1, 0.9, 0.5, 0.3, 0.7, 0.1]
RANK_CASES = {  # name -> (filtered, anchors, falls, stack_length, t_values)
    "empty stream": ([], [], [(3, 5)], 2, SHUFFLED_T),
    "every stack overlaps a fall": ([0.0, 0.6, 0.2, 0.2, 0.9, 0.0], list(range(4, 10)),
                                    [(2, 12)], 3, SHUFFLED_T),
    "falls before the first anchor and after the last": (
        [0.2, 0.0, 0.6, 0.0], [10, 11, 12, 13], [(0, 4), (15, 17)], 3, SHUFFLED_T),
    "single-stack fall range": ([0.2, 0.0, 0.4, 0.0, 0.2], list(range(5)), [(2, 2)], 1,
                                SHUFFLED_T),
    "+inf filtered values": ([0.0, np.inf, 0.0, 0.2, np.inf, np.inf], list(range(3, 9)),
                             [(4, 5)], 2, SHUFFLED_T),
    "300 thresholds": ([0.1, 0.35, 0.6, 0.0, 0.95], list(range(5)), [(1, 2)], 1,
                       [k / 20 for k in range(1, 20)] * 15 + [0.5] * 15),
    "no stack below the largest threshold": ([0.9, 1.0, np.inf, 0.95], list(range(4)),
                                             [(1, 2)], 1, SHUFFLED_T),
    "all +inf stream": ([np.inf] * 4, list(range(2, 6)), [(3, 3)], 2, SHUFFLED_T),
    "every stack below the smallest threshold": ([0.0, 0.05, 0.0, 0.05, 0.0], list(range(4, 9)),
                                                 [(5, 6)], 2, SHUFFLED_T),
    "only the last stack a candidate": ([0.9, 1.0, 0.95, 0.2], list(range(4)), [(2, 3)], 1,
                                        SHUFFLED_T),
    "one run across the cold stacks between two falls": (
        [0.6, 0.0, 0.2, 0.0, 0.2, 0.0, 0.6, 0.0], list(range(8)), [(1, 1), (5, 5)], 1,
        SHUFFLED_T),
    "two falls fewer than L frames apart": (
        [0.6, 0.0, 0.4, 0.2, 0.0, 0.6, 0.0, 0.2, 0.9, 0.0], list(range(2, 12)),
        [(4, 4), (6, 6)], 3, SHUFFLED_T),
    "a fall whose range is empty": ([0.9, 0.0, 0.2, 0.6, 0.0, 0.0], list(range(2, 8)),
                                    [(3, 4), (10, 11)], 2, SHUFFLED_T),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_kernel_cases(case):
    filtered, anchors, falls, stack_length, t_values = RANK_CASES[case]
    assert_matches_naive(filtered, anchors, falls, stack_length, t_values)
    # Each case reaches the part of the layout it is named after.
    n = len(anchors)
    truth = np.array([naive_label(falls, a, stack_length) for a in anchors], dtype=object)
    layout = DecisionLayout(t_values, truth == "fall", truth != "transition",
                            fall_stack_ranges(falls, anchors, stack_length))
    ranges = layout.fall_ranges.reshape(-1, 2)
    candidates = np.flatnonzero(np.asarray(filtered) < max(t_values)).tolist()
    reached = {
        "empty stream": n == 0,
        "every stack overlaps a fall": n > 0 and layout.hot.size == n,
        "falls before the first anchor and after the last":
            ranges.size == 0 and layout.fall_count == 2,
        "single-stack fall range": (ranges[:, 1] - ranges[:, 0]).tolist() == [1],
        "+inf filtered values": np.isinf(filtered).any(),
        "300 thresholds": len(t_values) == 300 and layout.rank_dtype == np.uint16,
        "no stack below the largest threshold": n > 0 and candidates == [],
        "all +inf stream": n > 0 and np.isinf(filtered).all(),
        "every stack below the smallest threshold":
            n > 0 and max(filtered) < min(t_values) and layout.fall_count == 1,
        "only the last stack a candidate": candidates == [n - 1],
        # The hot gap between the falls' stacks is one run at some threshold.
        "one run across the cold stacks between two falls":
            layout.hot_gaps.tolist() == [1, 6] and max(filtered[1:6]) < max(t_values),
        "two falls fewer than L frames apart": ranges.tolist() == [[2, 5], [4, 7]],
        "a fall whose range is empty":
            ranges.tolist() == [[1, 4]] and layout.fall_count == 2,
    }[case]
    assert reached


@pytest.mark.parametrize("anchors", [[2, 3, 5], [2, 3, 3], [4, 3, 2]])
def test_decision_counts_rejects_anchor_gaps(anchors):
    with pytest.raises(ValueError, match="anchors must advance by 1"):
        decision_counts(np.zeros(3), [0.5], np.zeros(3, dtype=bool), np.ones(3, dtype=bool),
                        np.array(anchors), [(2, 3)], 1)
