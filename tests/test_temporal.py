import math

import numpy as np
import pytest

from alarm_pipeline.corpus import PredictionStream, StackConfig, VideoAnnotation
from alarm_pipeline.metrics import AlarmCounts
from alarm_pipeline.temporal import (
    AlarmKind,
    FilterConfig,
    combine,
    evaluate_video,
    extract_alarms,
    gate_filter,
    identity_filter,
    match_alarms,
    offset_histogram,
    threshold_labels,
    width_to_frames,
    FpOffsetRecord,
)

from _oracles import naive_match, naive_pipeline, naive_runs, naive_trailing_mean


# -- configuration -------------------------------------------------------------


def test_filter_config_requires_exactly_one_width():
    with pytest.raises(ValueError):
        FilterConfig(t_pred=0.5)
    with pytest.raises(ValueError):
        FilterConfig(t_pred=0.5, width_seconds=1.0, width_frames=3)
    with pytest.raises(ValueError):
        FilterConfig(t_pred=0.0, width_frames=1)
    with pytest.raises(ValueError):
        FilterConfig(t_pred=1.0, width_frames=1)
    with pytest.raises(ValueError):
        FilterConfig(t_pred=0.5, width_frames=0)
    with pytest.raises(ValueError):
        FilterConfig(t_pred=0.5, width_seconds=0.0)
    for width in (math.inf, math.nan):
        with pytest.raises(ValueError, match="width_seconds must be finite"):
            FilterConfig(t_pred=0.5, width_seconds=width)


def test_filter_config_resolves_width():
    assert FilterConfig(0.4, width_seconds=0.87).resolve_width_frames(30.0) == 26
    assert FilterConfig(0.4, width_seconds=0.87).resolve_width_frames(25.0) == 22
    assert FilterConfig(0.4, width_frames=7).resolve_width_frames(30.0) == 7
    ident = identity_filter()
    assert ident.width_frames == 1 and ident.t_pred == 0.5


def test_width_to_frames_rounds_half_up():
    assert width_to_frames(0.87, 30.0) == 26   # 26.1
    assert width_to_frames(0.87, 25.0) == 22   # 21.75
    assert width_to_frames(0.15, 30.0) == 5    # 4.5 stored as 4.4999..., still up
    assert width_to_frames(0.05, 30.0) == 2    # 1.5
    assert width_to_frames(0.001, 30.0) == 1   # floor of 1
    assert width_to_frames(1.0, 1.0) == 1
    with pytest.raises(ValueError):
        width_to_frames(0.0, 30.0)
    with pytest.raises(ValueError):
        width_to_frames(0.5, 0.0)
    with pytest.raises(ValueError, match="width_seconds must be finite"):
        width_to_frames(math.inf, 30.0)
    assert width_to_frames(1e300, 30.0) == int(3e301)


def test_width_to_frames_monotone_in_width():
    widths = [0.01 * i for i in range(1, 301)]
    frames = [width_to_frames(w, 30.0) for w in widths]
    assert frames == sorted(frames)
    assert frames[0] >= 1


# -- gate filter ----------------------------------------------------------------


def test_gate_filter_example():
    out = gate_filter([1.0, 1.0, 0.0, 0.0], 2)
    assert out.tolist() == [1.0, 1.0, 0.5, 0.0]


def test_gate_filter_step_response_exact():
    out = gate_filter([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 3)
    assert out.tolist() == [1.0, 1.0, 1.0, 2 / 3, 1 / 3, 0.0]


def test_gate_filter_width_one_is_identity():
    x = np.random.default_rng(0).random(50)
    out = gate_filter(x, 1)
    assert np.array_equal(out, x)
    assert out is not x  # caller may mutate the result safely


def test_gate_filter_edge_shapes():
    assert gate_filter([], 3).shape == (0,)
    assert gate_filter([0.4], 10).tolist() == [0.4]
    big = gate_filter([1.0, 0.0, 1.0], 10)  # width > length: prefix means only
    assert big.tolist() == pytest.approx([1.0, 0.5, 2 / 3])
    with pytest.raises(ValueError):
        gate_filter([0.5], 0)


def test_gate_filter_clamps_huge_widths():
    # Every window at least as long as the stream is a prefix mean, so any
    # such width gives the prefix means, even one past 64 bits.
    x = np.random.default_rng(5).random(30)
    starts = [0, 7, 7, 19]
    want = np.cumsum(x) / np.arange(1, 31)
    want_segments = np.concatenate([np.cumsum(x[a:b]) / np.arange(1, b - a + 1)
                                    for a, b in zip(starts, starts[1:] + [30])])
    for width in (30, 31, 10**20):
        assert np.array_equal(gate_filter(x, width), want)
        assert np.array_equal(gate_filter(x, width, starts), want_segments)


def test_gate_filter_matches_naive_mean():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        w = int(rng.integers(1, 25))
        x = rng.random(n)
        got = gate_filter(x, w)
        want = naive_trailing_mean(x.tolist(), w)
        assert np.max(np.abs(got - np.array(want))) < 1e-9


def test_gate_filter_preserves_bounds_and_linearity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        w = int(rng.integers(1, 15))
        x = rng.random(n)
        y = rng.random(n)
        fx = gate_filter(x, w)
        assert fx.min() >= x.min() - 1e-9 and fx.max() <= x.max() + 1e-9
        a, b = rng.uniform(-2, 2, 2)
        lhs = gate_filter(a * x + b * y, w)
        rhs = a * fx + b * gate_filter(y, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# -- thresholding and alarm extraction -------------------------------------------


def test_threshold_is_strict():
    labels = threshold_labels([0.39, 0.40, 0.41], 0.4)
    assert labels.tolist() == [True, False, False]
    with pytest.raises(ValueError):
        threshold_labels([0.5], 0.0)


def test_extract_alarms_example():
    labels = [True, True, False, True]
    assert extract_alarms(labels, [10, 11, 12, 13]) == [(10, 11), (13, 13)]


def test_extract_alarms_edges():
    assert extract_alarms([], []) == []
    assert extract_alarms([False, False], [9, 10]) == []
    assert extract_alarms([True, True], [9, 10]) == [(9, 10)]
    with pytest.raises(ValueError):
        extract_alarms([True], [1, 2])


def test_extract_alarms_matches_naive_scan():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(0, 50))
        labels = rng.random(n) < 0.4
        anchors = np.arange(9, 9 + n)
        assert extract_alarms(labels, anchors) == naive_runs(labels.tolist(), anchors.tolist())


# -- matching --------------------------------------------------------------------


def test_match_alarms_expanded_span_hits_late_alarm():
    # run [131, 133] covers frames [122, 133] with L=10, touching fall [100, 130]
    counts, events, fps = match_alarms([(131, 133)], [(100, 130)], 10, "v")
    assert (counts.tp_a, counts.fp_a, counts.fn_a) == (1, 0, 0)
    assert events[0].kind is AlarmKind.TRUE_ALARM
    assert fps == []
    # with L=1 the same run covers [131, 133] only: a false alarm 1 frame away
    counts, events, fps = match_alarms([(131, 133)], [(100, 130)], 1, "v")
    assert (counts.tp_a, counts.fp_a, counts.fn_a) == (0, 1, 1)
    assert fps[0].offset_frames == 1
    assert fps[0].duration_frames == 3


def test_match_alarms_counts_falls_not_alarms():
    # two alarms over one fall: one detected fall, no false alarms
    counts, events, _ = match_alarms([(100, 105), (120, 125)], [(95, 130)], 10, "v")
    assert (counts.tp_a, counts.fp_a, counts.fn_a) == (1, 0, 0)
    assert all(e.kind is AlarmKind.TRUE_ALARM for e in events)
    # one alarm spanning two falls detects both
    counts, _, _ = match_alarms([(10, 60)], [(5, 20), (40, 50)], 10, "v")
    assert (counts.tp_a, counts.fp_a, counts.fn_a) == (2, 0, 0)


def test_match_alarms_offsets():
    # alarm before the fall: offset measured from span end to fall start
    counts, events, fps = match_alarms([(20, 25)], [(40, 60)], 10, "v")
    assert counts.fp_a == 1 and counts.fn_a == 1
    assert fps[0].offset_frames == 15  # 40 - 25
    # alarm after the fall: offset from expanded span start to fall end
    _, _, fps = match_alarms([(80, 85)], [(40, 60)], 10, "v")
    assert fps[0].offset_frames == 11  # (80 - 9) - 60
    # no falls at all: offset is infinite
    _, events, fps = match_alarms([(20, 25)], [], 10, "v")
    assert math.isinf(fps[0].offset_frames)
    assert events[0].offset_frames == math.inf


def test_match_alarms_duration_is_run_length():
    _, _, fps = match_alarms([(20, 25)], [(400, 410)], 10, "v")
    assert fps[0].duration_frames == 6  # anchors 20..25, not the expanded span


def test_match_alarms_conserves_fall_count():
    rng = np.random.default_rng(41)
    for _ in range(300):
        fall_count = int(rng.integers(0, 4))
        falls = []
        cursor = 0
        for _ in range(fall_count):
            start = cursor + int(rng.integers(1, 30))
            end = start + int(rng.integers(0, 20))
            falls.append((start, end))
            cursor = end + 1
        runs = []
        cursor = 9
        for _ in range(int(rng.integers(0, 5))):
            first = cursor + int(rng.integers(1, 40))
            last = first + int(rng.integers(0, 10))
            runs.append((first, last))
            cursor = last + 2
        counts, _, fps = match_alarms(runs, falls, 10, "v")
        assert counts.tp_a + counts.fn_a == len(falls)
        want = naive_match(runs, falls, 10)
        assert (counts.tp_a, counts.fp_a, counts.fn_a) == want[:3]
        assert [r.offset_frames for r in fps] == want[3]


# -- offset histogram --------------------------------------------------------------


def test_offset_histogram_example():
    records = [FpOffsetRecord(duration_frames=3, offset_frames=2),
               FpOffsetRecord(duration_frames=12, offset_frames=40)]
    summary = offset_histogram(records, offset_cutoff_frames=5, duration_cutoff_frames=10)
    assert summary.count == 2
    assert summary.offset_below_fraction == 0.5
    assert summary.duration_below_fraction == 0.5


def test_offset_histogram_empty():
    summary = offset_histogram([])
    assert summary.count == 0
    assert summary.offset_below_fraction is None
    assert summary.duration_below_fraction is None


def test_offset_histogram_rejects_negative_and_nan_cutoffs():
    for kwargs, message in (({"offset_cutoff_frames": math.nan}, "offset cutoff"),
                            ({"duration_cutoff_frames": -1}, "duration cutoff")):
        with pytest.raises(ValueError, match=f"{message} must be >= 0"):
            offset_histogram([], **kwargs)


# -- full per-video evaluation -------------------------------------------------------


def _video(scores, intervals, fps=30.0, video_id="v"):
    anchors = np.arange(9, 9 + len(scores))
    frame_count = int(anchors[-1]) + 1 if len(scores) else 10
    ann = VideoAnnotation(video_id, "db", fps, frame_count, tuple(intervals))
    stream = PredictionStream(video_id, anchors, np.asarray(scores, dtype=float))
    return stream, ann


def test_evaluate_video_requires_matching_ids():
    stream, ann = _video([1.0] * 20, [])
    other = VideoAnnotation("w", "db", 30.0, 40, ())
    with pytest.raises(ValueError):
        evaluate_video(stream, other, identity_filter())


def test_evaluate_video_counts_by_hand():
    # scores low on anchors [20, 35] against fall [20, 35] with L=10;
    # anchors run 9..48
    scores = [1.0] * 40
    for i, anchor in enumerate(range(9, 49)):
        if 20 <= anchor <= 35:
            scores[i] = 0.0
    stream, ann = _video(scores, [(20, 35)])
    ev = evaluate_video(stream, ann, identity_filter())
    # truth: anchors 20..28 transition (span straddles the start), 29..35 fall,
    # 36..44 transition (span straddles the end), the rest no-fall; the 18
    # transition stacks are excluded from the confusion even though nine of
    # them are predicted Fall
    assert (ev.stack_counts.tp, ev.stack_counts.fn) == (7, 0)
    assert (ev.stack_counts.fp, ev.stack_counts.tn) == (0, 15)
    assert ev.alarm_counts == AlarmCounts(1, 0, 0)
    assert [(a.start_frame, a.end_frame) for a in ev.alarms] == [(20, 35)]


def test_combine_pools_counts():
    s1, a1 = _video([0.0] * 20, [(9, 28)], video_id="a")
    s2, a2 = _video([1.0] * 20, [(9, 28)], video_id="b")
    e1 = evaluate_video(s1, a1, identity_filter())
    e2 = evaluate_video(s2, a2, identity_filter())
    merged = combine([e1, e2])
    assert merged.alarm_counts.tp_a == 1
    assert merged.alarm_counts.fn_a == 1
    assert merged.stack_counts.tp == e1.stack_counts.tp + e2.stack_counts.tp
    single = combine([evaluate_video(s1, a1, identity_filter())])
    assert single.alarm_counts == e1.alarm_counts


def test_full_path_matches_naive_pipeline():
    rng = np.random.default_rng(77)
    cfg_stack = StackConfig(stack_length=10)
    for _ in range(300):
        frame_count = int(rng.integers(15, 60))
        intervals = []
        cursor = 0
        for _ in range(int(rng.integers(0, 3))):
            start = cursor + int(rng.integers(0, 10))
            end = start + int(rng.integers(0, 12))
            if end >= frame_count:
                break
            intervals.append((start, end))
            cursor = end + 2
        ann = VideoAnnotation("v", "db", 30.0, frame_count, tuple(intervals))
        anchors = np.arange(9, frame_count)
        scores = rng.random(anchors.size)
        stream = PredictionStream("v", anchors, scores)
        width = int(rng.integers(1, 8))
        t = float(rng.choice([0.3, 0.5, 0.7]))
        cfg = FilterConfig(t_pred=t, width_frames=width)
        ev = evaluate_video(stream, ann, cfg, cfg_stack)
        confusion, runs, alarm, offsets = naive_pipeline(
            scores.tolist(), anchors.tolist(), intervals, 10, width, t
        )
        assert (ev.stack_counts.tp, ev.stack_counts.tn,
                ev.stack_counts.fp, ev.stack_counts.fn) == (
            confusion[0], confusion[1], confusion[2], confusion[3])
        assert [(a.start_frame, a.end_frame) for a in ev.alarms] == runs
        assert (ev.alarm_counts.tp_a, ev.alarm_counts.fp_a, ev.alarm_counts.fn_a) == alarm
        assert [r.offset_frames for r in ev.fp_offsets] == offsets
