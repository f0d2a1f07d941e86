"""Differential tests for counting a database per chunk of whole videos.

The reference is the per-video path the chunked one replaces: one
``decision_counts(gate_filter(...))`` per video and width, summed. Scores are
quantized to a 0.05 step and thresholds sit on the same step, so filtered
values land exactly on T and the strict ``<`` is exercised.

The chunks of a database are counted on the usable CPUs, so the property
tests pin one CPU where they are not about CPUs, and the tests at the end
count on 1 to 4 CPUs, with a child that fails and forks that fail; the tests
of ``forks.fork_map`` cover every other way a child can fail.
"""

import functools
import math
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alarm_pipeline import corpus, tuning
from alarm_pipeline.corpus import (PredictionStream, StackConfig, VideoAnnotation,
                                   fall_stack_ranges, stack_label_masks)
from alarm_pipeline.metrics import AlarmCounts, ConfusionCounts
from alarm_pipeline.synth import SynthSpec, generate
from alarm_pipeline.temporal import (
    DecisionLayout,
    FilterConfig,
    FpOffsetRecord,
    combine,
    decision_counts,
    evaluate_video,
    gate_filter,
    identity_filter,
    offset_histogram,
    segment_cumsum,
    width_to_frames,
)

from conftest import assert_no_children, count_forks, use_cpus, wrap_in_package

STEPS = 20  # scores and thresholds are multiples of 1/STEPS
# 1 frame at both rates, then widths up to longer than any drawn video.
W_SECONDS = [0.02, 0.1, 0.2, 0.5, 1.0, 2.0]


@st.composite
def video(draw, index, stack_length):
    """One (stream, annotation): 0 to 30 stacks, falls possibly on the first
    and last frames, scores biased towards the extremes so Fall runs reach a
    video's last stack."""
    count = draw(st.sampled_from([0, 1, 1, 2, 5, 12, 30]))
    first = stack_length - 1 + draw(st.integers(0, 3))
    frame_count = first + max(count, 1) + draw(st.integers(0, 3))
    ks = draw(st.lists(st.one_of(st.sampled_from([0, STEPS]), st.integers(0, STEPS)),
                       min_size=count, max_size=count))
    edges = set()
    if draw(st.booleans()):
        edges.add(0)
    for _ in range(draw(st.integers(0, 4))):
        edges.add(draw(st.integers(0, frame_count - 1)))
    if draw(st.booleans()):
        edges.add(frame_count - 1)
    cuts = sorted(edges)  # fall intervals pair up consecutive cut frames
    falls = [(s, e) for s, e in zip(cuts[::2], cuts[1::2])]
    if len(cuts) % 2:
        falls.append((cuts[-1], cuts[-1]))
    falls = [(s, e) for i, (s, e) in enumerate(falls) if i == 0 or s > falls[i - 1][1]]
    fps = draw(st.sampled_from([25.0, 30.0]))
    vid = f"v{index}"
    stream = PredictionStream(vid, first, np.array(ks) / STEPS)
    return stream, VideoAnnotation(vid, "db", fps, frame_count, tuple(falls))


@st.composite
def databases(draw):
    stack_length = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    return [draw(video(i, stack_length)) for i in range(n)], StackConfig(stack_length)


WIDTHS = [functools.partial(width_to_frames, w) for w in W_SECONDS]


def widths_at(fps):
    return [width(fps) for width in WIDTHS]


def per_video_counts(videos, t_values, stack_cfg):
    """The reference: per-video kernel calls, summed."""
    total = 0
    for stream, annotation in videos:
        fall, transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
        total = total + np.stack([
            decision_counts(gate_filter(stream.scores, width), t_values, fall, ~transition,
                            stream.anchor_frames, annotation.fall_intervals,
                            stack_cfg.stack_length)
            for width in widths_at(annotation.fps)
        ])
    return total


def label_cases():
    """One chunk, stack length 3, with the labels the hypothesis draws only
    by chance: touching falls, whose one span holds a stack that straddles
    both (FALL), and a fall shorter than a stack (no FALL stack); falls
    before the first stack's span, reaching it, reaching the last stack and
    after it; and a video with no stacks."""
    specs = [  # frame_count, first anchor, anchors, falls
        (40, 2, 36, ((10, 14), (15, 20), (30, 31))),
        (50, 10, 20, ((0, 3), (7, 8), (29, 33), (40, 45))),
        (20, 2, 0, ((5, 9),)),
    ]
    videos = []
    for i, (frame_count, first, count, falls) in enumerate(specs):
        scores = (np.arange(count) * 8 % (STEPS + 1)) / STEPS
        videos.append((PredictionStream(f"v{i}", first, scores),
                       VideoAnnotation(f"v{i}", "db", 25.0, frame_count, falls)))
    return videos, StackConfig(3)


@settings(max_examples=200, deadline=None)
@given(db=databases(), ks=st.lists(st.integers(1, STEPS - 1), min_size=1, max_size=5),
       cap=st.sampled_from([1, 10, 40, 150, 1 << 20]))
@example(db=label_cases(), ks=[4, 10, 16], cap=1 << 20)
def test_chunked_counts_match_per_video_counts(db, ks, cap):
    videos, stack_cfg = db
    t_values = [k / STEPS for k in ks]
    layouts = []

    class Recording(DecisionLayout):
        def __init__(self, *args):
            super().__init__(*args)
            self.truth_fall, self.eligible = args[1:3]
            self.calls = []
            layouts.append(self)

        def counts(self, filtered):
            self.calls.append(filtered.copy())
            return super().counts(filtered)

    want = per_video_counts(videos, t_values, stack_cfg)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tuning, "CHUNK_STACKS", cap)
        for cpus in (2, 3):  # the children's chunks are not recorded
            use_cpus(monkeypatch, cpus)
            assert np.array_equal(
                tuning._database_counts(videos, WIDTHS, t_values, stack_cfg), want)
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(tuning, "DecisionLayout", Recording)
        got = tuning._database_counts(videos, WIDTHS, t_values, stack_cfg)
        chunks = [(fps, [videos[i] for i in positions])
                  for fps, positions in tuning._chunk_positions(videos)]
    assert np.array_equal(got, want)

    # Every video sits in exactly one chunk of its own fps, in corpus order
    # within that fps; a chunk exceeds the cap only when it is one video.
    assert sorted(s.video_id for _, chunk in chunks for s, _ in chunk) == \
        sorted(s.video_id for s, _ in videos)
    for fps, chunk in chunks:
        assert all(a.fps == fps for _, a in chunk)
        stacks = sum(len(s) + 1 for s, _ in chunk)
        assert stacks <= cap or len(chunk) == 1

    # One layout per chunk, and one rank pass per distinct width on the
    # videos' own gate_filter outputs laid end to end, each followed by +inf.
    assert len(layouts) == len(chunks)
    for layout, (fps, chunk) in zip(layouts, chunks):
        expected = [
            np.concatenate([np.append(gate_filter(s.scores, width), np.inf) for s, _ in chunk])
            for width in dict.fromkeys(widths_at(fps))
        ]
        assert len(layout.calls) == len(expected)
        for filtered, want in zip(layout.calls, expected):
            assert np.array_equal(filtered, want)

    # Each chunk's layout: the streams and separators end to end, each
    # video's anchors one shift from its slots, the falls in chunk order,
    # each fall's slots those fall_stack_ranges finds on its video's anchors,
    # and each video's FALL and hot slots the FALL and FALL or TRANSITION
    # stacks stack_label_masks finds on them, its separator hot but not FALL.
    # The FALL ranges are those the counts place with the layout's slots.
    length = stack_cfg.stack_length
    for layout, (fps, chunk) in zip(layouts, chunks):
        starts, ends, scores, shift, falls, ranges, slots = tuning._lay_out(chunk, length)
        _, fall_ranges = slots([corpus._covered_spans(a.fall_intervals) for _, a in chunk],
                               [length - 1, 1])
        assert np.array_equal(scores, np.concatenate([np.append(s.scores, 0.0) for s, _ in chunk]))
        assert np.array_equal(ends - starts, [len(s) + 1 for s, _ in chunk])
        assert starts[0] == 0 and np.array_equal(starts[1:], ends[:-1])
        for (s, _), start, own_shift in zip(chunk, starts, shift):
            if len(s):
                assert own_shift == s.first_anchor - start
        assert falls.tolist() == [list(fall) for _, a in chunk for fall in a.fall_intervals]
        want_ranges = [start + fall_stack_ranges(a.fall_intervals, s.anchor_frames, length)
                       for (s, a), start in zip(chunk, starts)]
        assert ranges.dtype == fall_ranges.dtype == np.int64
        assert np.array_equal(ranges, np.concatenate(want_ranges))
        hot = layout.truth_fall | ~layout.eligible
        for (s, a), start, end in zip(chunk, starts, ends):
            fall, transition = stack_label_masks(a, s.anchor_frames, stack_cfg)
            assert np.array_equal(layout.truth_fall[start:end], np.append(fall, False))
            assert np.array_equal(hot[start:end], np.append(fall | transition, True))


@settings(max_examples=200, deadline=None)
@given(db=databases(), w=st.sampled_from(W_SECONDS), k=st.integers(1, STEPS - 1),
       cap=st.sampled_from([1, 40, 1 << 20]))
def test_filter_counts_match_evaluate_video(db, w, k, cap):
    """``evaluate``'s per-database counts: the chunked path at one (W, T)
    equals combining the per-video evaluations, on videos of mixed fps."""
    videos, stack_cfg = db
    cfg = FilterConfig(t_pred=k / STEPS, width_seconds=w)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tuning, "CHUNK_STACKS", cap)
        use_cpus(monkeypatch, 1)
        stack, alarm = tuning.filter_counts(videos, cfg, stack_cfg)
    want = combine(evaluate_video(s, a, cfg, stack_cfg) for s, a in videos)
    assert (stack, alarm) == (want.stack_counts, want.alarm_counts)


def per_video_false_alarms(videos, cfg, stack_cfg):
    """The reference for ``offsets``: each video's ``evaluate_video`` records."""
    return [(s.video_id, record) for s, a in videos
            for record in evaluate_video(s, a, cfg, stack_cfg).fp_offsets]


@settings(max_examples=100, deadline=None)
@given(db=databases(), w=st.sampled_from(W_SECONDS), k=st.integers(1, STEPS - 1),
       cap=st.sampled_from([1, 40, 1 << 20]))
def test_false_alarm_offsets_match_evaluate_video(db, w, k, cap):
    """``offsets``' records: the chunked path equals the per-video one, in
    corpus order, on videos of mixed fps and on 1 to 4 CPUs."""
    videos, stack_cfg = db
    cfg = FilterConfig(t_pred=k / STEPS, width_seconds=w)
    want = per_video_false_alarms(videos, cfg, stack_cfg)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tuning, "CHUNK_STACKS", cap)
        for cpus in (1, 2, 3, 4):
            use_cpus(monkeypatch, cpus)
            got = tuning.false_alarm_offsets(videos, cfg, stack_cfg)
            assert got == want, cpus
            assert offset_histogram([r for _, r in got]) == offset_histogram([r for _, r in want])


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=6),
       width=st.integers(1, 50), data=st.data())
def test_segmented_gate_filter_is_per_segment_gate_filter(lengths, width, data):
    segments = [np.array(data.draw(st.lists(st.integers(0, STEPS), min_size=n, max_size=n)))
                / STEPS for n in lengths]
    scores = np.concatenate(segments)
    starts = np.cumsum(lengths) - lengths
    want = np.concatenate([gate_filter(s, width) for s in segments])
    assert np.array_equal(gate_filter(scores, width, starts), want)
    assert np.array_equal(gate_filter(scores, width, starts, segment_cumsum(scores, starts)),
                          want)


def two_temporary_gate_filter(scores, width, starts):
    """The gate filter written with ``(cumulative[w:] - cumulative[:-w]) / w``,
    as it was before it filtered in place."""
    if scores.size == 0 or width == 1:
        return scores.copy()
    w = min(width, scores.size)
    cumulative = segment_cumsum(scores, starts)
    out = np.empty_like(scores)
    out[w:] = (cumulative[w:] - cumulative[:-w]) / w
    bounds = [*starts, scores.size]
    for lo, hi in zip(bounds, bounds[1:]):
        j = np.arange(min(hi - lo, w))
        out[lo + j] = cumulative[lo + j] / (j + 1)
    return out


def test_in_place_gate_filter_is_the_two_temporary_expression():
    rng = np.random.default_rng(21)
    for trial in range(200):
        lengths = rng.integers(0, 300, size=rng.integers(1, 8))
        scores = rng.random(lengths.sum())
        if trial % 2:  # ties, as the sweep's grid of scores gives them
            scores = np.round(scores * STEPS) / STEPS
        starts = np.cumsum(lengths) - lengths
        for width in (1, 2, 3, 9, 30, 299, 10**6):
            want = two_temporary_gate_filter(scores, width, starts)
            assert gate_filter(scores, width, starts).tobytes() == want.tobytes(), (trial, width)


def test_segmented_gate_filter_rejects_bad_starts():
    for starts in ([], [1], [0, 3, 2], [0, 5], [[0]]):
        with pytest.raises(ValueError):
            gate_filter(np.zeros(4), 2, starts)


def test_gate_filter_into_out_is_the_fresh_result():
    # One buffer filters every width in turn, as the chunk counts use it; it
    # starts as NaN, so a slot the filter did not write would show.
    rng = np.random.default_rng(22)
    for trial in range(100):
        lengths = rng.integers(0, 60, size=rng.integers(1, 8))
        scores = rng.integers(0, STEPS + 1, lengths.sum()) / STEPS  # ties
        starts = np.cumsum(lengths) - lengths
        cumulative = segment_cumsum(scores, starts)
        out = np.full(scores.size, np.nan)
        for width in (1, 2, 9, max(scores.size, 1), scores.size + 5):
            want = gate_filter(scores, width, starts).tobytes()
            for given_cumulative in (None, cumulative):
                assert gate_filter(scores, width, starts, given_cumulative, out) is out
                assert out.tobytes() == want, (trial, width)


def test_gate_filter_rejects_an_out_that_aliases_its_inputs():
    base = np.linspace(0.0, 1.0, 10)
    scores = base[:8]
    cumulative = segment_cumsum(scores, [0])
    for out in (scores, scores[::-1], base[2:], cumulative, cumulative[:]):
        with pytest.raises(ValueError, match="out must not share memory"):
            gate_filter(scores, 3, [0], cumulative, out)
    for out in (np.zeros(7), np.zeros(8, dtype=np.float32), np.zeros((8, 1)), [0.0] * 8):
        with pytest.raises(ValueError, match="out must be a float64 array"):
            gate_filter(scores, 3, [0], cumulative, out)
    assert np.array_equal(base, np.linspace(0.0, 1.0, 10))


def test_a_layout_counts_stream_after_stream_as_a_fresh_one():
    # counts() reuses its rank buffer, so every call must start from rank 0.
    rng = np.random.default_rng(23)
    anchors = np.arange(9, 209)
    annotation = VideoAnnotation("v", "db", 30.0, 209, ((0, 20), (60, 75), (76, 90), (200, 208)))
    fall, transition = stack_label_masks(annotation, anchors, StackConfig(10))
    t_values = [0.5, 0.1, 0.9, 0.3]
    layout = DecisionLayout(t_values, fall, ~transition,
                            fall_stack_ranges(annotation.fall_intervals, anchors, 10))
    for trial in range(30):
        filtered = rng.integers(0, STEPS + 1, anchors.size) / STEPS  # ties with every threshold
        if trial % 3 == 0:
            filtered[rng.random(anchors.size) < 0.9] = 1.0  # few candidates after many
        want = decision_counts(filtered, t_values, fall, ~transition, anchors,
                               annotation.fall_intervals, 10)
        assert np.array_equal(layout.counts(filtered), want), trial


def test_chunk_counts_peak_memory_does_not_grow_with_widths():
    # Every width filters into one buffer and ranks into the layout's, so 40
    # widths peak about where one does; a fresh filtered array per width,
    # freed after the next one is made, put the peak 18-23 % higher.
    corpus = generate(SynthSpec(video_count=20, frames_per_video=900, score_noise=0.2, seed=6))
    videos = list(zip(corpus.streams, corpus.annotations))
    widths = [width_to_frames(w, videos[0][1].fps) for w in tuning.default_w_values()]
    peaks = []
    for some_widths in (widths[:1], widths):
        tracemalloc.start()
        try:
            tuning._chunk_counts(videos, some_widths, tuning.default_t_values(), StackConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def noisy_corpus():
    """Two databases of synth videos at 25 and 30 fps, with noise, and a
    model that sees no fall in every third video: 4 and 5 chunks at a cap of
    1,000 stacks."""
    rng = np.random.default_rng(5)
    corpus = {}
    for db, fps, frames, seed in (("a", 25.0, 300, 1), ("a", 30.0, 900, 2),
                                  ("b", 30.0, 450, 3), ("b", 25.0, 1200, 4)):
        spec = SynthSpec(video_count=3, fps=fps, frames_per_video=frames, seed=seed,
                         near_fall_fp_rate=1.0, far_fp_rate=1.0, database_id=db)
        for i, (stream, annotation) in enumerate(generate(spec).pairs()):
            # Noise, and a model that sees no fall in every third video.
            noisy = np.clip(stream.scores + rng.normal(0.0, 0.3, len(stream)), 0.0, 1.0)
            if i % 3 == 0:
                noisy = np.maximum(noisy, 0.6)
            corpus.setdefault(db, []).append(
                (PredictionStream(stream.video_id, stream.first_anchor, noisy), annotation))
    return corpus


@pytest.mark.parametrize("cap", [1 << 20, 2_000])
def test_tune_baseline_is_identity_filter_sensitivity(cap):
    corpus = noisy_corpus()
    with mock.patch.object(tuning, "CHUNK_STACKS", cap):
        result = tuning.tune(corpus, w_values=[0.2], t_values=[0.5], min_alarm_precision=0.0,
                             max_sensitivity_drop_points=math.inf)
    for db, videos in corpus.items():
        direct = combine(evaluate_video(s, a, identity_filter(0.5)) for s, a in videos).se_a
        assert 0.0 < direct < 1.0
        assert result.constraints.baseline_se_a[db] == direct


def test_counts_make_no_stack_label_masks_call(monkeypatch):
    # The traced benchmark run wraps corpus.stack_label_masks as this test
    # does. The counts read each chunk's labels off its layout, so on one CPU
    # they make no call; evaluate_video, the per-video reference, makes one
    # per video.
    original, calls = corpus.stack_label_masks, []

    def traced(*args):
        calls.append(args)
        return original(*args)

    wrap_in_package(monkeypatch, original, traced)
    use_cpus(monkeypatch, 1)
    noisy = noisy_corpus()
    for videos in noisy.values():
        tuning.filter_counts(videos, FilterConfig(0.4, width_seconds=0.3))
    tuning.sweep(noisy, W_SECONDS, [0.2, 0.5])
    tuning.tune(noisy, W_SECONDS, [0.2, 0.5], min_alarm_precision=0.0,
                max_sensitivity_drop_points=math.inf)
    assert calls == []
    for stream, annotation in noisy["a"]:
        evaluate_video(stream, annotation, identity_filter())
    assert len(calls) == len(noisy["a"])


# -- counting on the usable CPUs --------------------------------------------------

T_VALUES = [0.2, 0.4, 0.5, 0.7]


def test_no_video_gives_zero_counts():
    assert tuning.filter_counts([], identity_filter()) == (ConfusionCounts(), AlarmCounts())
    got = tuning._database_counts([], WIDTHS, T_VALUES, StackConfig())
    assert got.dtype == np.int64 and got.shape == (len(WIDTHS), len(T_VALUES), 7) and not got.any()


def test_counts_are_the_same_on_any_number_of_cpus(monkeypatch):
    corpus = noisy_corpus()
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1000)
    forks = count_forks(monkeypatch)
    outcomes = []
    for cpus in (1, 2, 3, 4):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        grid = tuning.sweep(corpus, W_SECONDS, T_VALUES)
        assert len(forks) == 2 * (cpus - 1), cpus  # a child per CPU but one in each database
        result = tuning.tune(corpus, W_SECONDS, T_VALUES, min_alarm_precision=0.0,
                             max_sensitivity_drop_points=math.inf)
        counts = [tuning.filter_counts(videos, FilterConfig(0.4, width_seconds=0.3))
                  for videos in corpus.values()]
        assert_no_children()
        outcomes.append((grid.counts.tolist(), result, counts))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    # One chunk is counted in this process.
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1 << 20)
    use_cpus(monkeypatch, 3)
    forks.clear()
    tuning.filter_counts(corpus["a"][:3], identity_filter())
    assert not forks


def test_failed_children_are_counted_in_process(monkeypatch):
    videos = noisy_corpus()["b"]
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1000)
    use_cpus(monkeypatch, 1)
    want = tuning._database_counts(videos, WIDTHS, T_VALUES, StackConfig())
    count, parent = tuning._chunk_counts, os.getpid()

    def fail_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("the child fails before it sends a count")
        return count(*args)

    monkeypatch.setattr(tuning, "_chunk_counts", fail_in_child)
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        got = tuning._database_counts(videos, WIDTHS, T_VALUES, StackConfig())
        assert_no_children()
        assert np.array_equal(got, want), cpus
    monkeypatch.setattr(tuning, "_chunk_counts", count)
    # With no process to fork, or none after the first child, this one counts the rest.
    fork = os.fork
    for spare in (0, 1):
        forks = [spare]

        def fork_while_spare():
            if not forks[0]:
                raise BlockingIOError("no process to spare")
            forks[0] -= 1
            return fork()

        monkeypatch.setattr(os, "fork", fork_while_spare)
        use_cpus(monkeypatch, 3)
        got = tuning._database_counts(videos, WIDTHS, T_VALUES, StackConfig())
        assert_no_children()
        assert np.array_equal(got, want), spare


def test_children_are_stopped_when_this_process_raises(monkeypatch):
    videos = noisy_corpus()["b"]
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1000)
    count = tuning._chunk_counts
    parent = os.getpid()

    def count_or_raise(*args):  # raises in this process; the children wait to be stopped
        if os.getpid() == parent:
            raise MemoryError("this process fails")
        time.sleep(60)
        return count(*args)

    monkeypatch.setattr(tuning, "_chunk_counts", count_or_raise)
    use_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(MemoryError, match="this process fails"):
        tuning._database_counts(videos, WIDTHS, T_VALUES, StackConfig())
    assert_no_children()
    assert time.monotonic() - start < 30


def test_the_first_failing_chunk_raises_on_any_number_of_cpus(monkeypatch):
    # Five videos of one chunk each; the second and third have a stack that
    # leaves their frames. One process meets the second first, and so must
    # every split: at 2 CPUs the second is a child's and the third this
    # process's own, at 3 and 4 each is another child's.
    videos = []
    for i in range(5):
        frame_count = 20 if i in (1, 2) else 40
        stream = PredictionStream(f"v{i}", 9, np.full(30, 0.5))
        videos.append((stream, VideoAnnotation(f"v{i}", "db", 30.0, frame_count, ((12, 15),))))
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1)
    for cpus in (1, 2, 3, 4):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(IndexError, match="of 'v1'"):
            tuning._database_counts(videos, WIDTHS, T_VALUES, StackConfig())
        assert_no_children()


def edge_case_videos():
    """Videos at 25 and 30 fps in turn, stack length 3, scores 0 (Fall) on
    the runs listed, and the false alarms they give (video, duration,
    offset): a video without falls (inf); falls that no stack reaches, one
    before the first stack and one after the last (empty ranges); a run
    that touches only TRANSITION stacks (a true alarm, no record); runs
    whose span ends where a fall begins and begins where it ends (true
    alarms); and a run at the last stack, next to the separator."""
    specs = [  # id, frame_count, first anchor, anchors, falls, Fall runs (anchors)
        ("none", 60, 2, 40, (), [(5, 7), (30, 30)]),
        ("unreached", 100, 12, 20, ((0, 3), (80, 85)), [(14, 15), (20, 31)]),
        ("transition", 60, 2, 38, ((20, 25),), [(8, 9), (26, 30), (35, 36)]),
        ("touching", 60, 2, 38, ((20, 25),), [(3, 4), (15, 20), (27, 28), (39, 39)]),
    ]
    videos = []
    for i, (vid, frame_count, first, count, falls, runs) in enumerate(specs * 2):
        vid = f"{vid}{i // len(specs)}"
        anchors = np.arange(first, first + count)
        scores = np.ones(count)
        for lo, hi in runs:
            scores[(anchors >= lo) & (anchors <= hi)] = 0.0
        fps = (25.0, 30.0)[i % 2]
        videos.append((PredictionStream(vid, first, scores),
                       VideoAnnotation(vid, "db", fps, frame_count, falls)))
    want = [
        ("none", 3, math.inf), ("none", 1, math.inf),
        ("unreached", 2, 9.0), ("unreached", 12, 20 - 2 - 3.0),
        ("transition", 2, 20 - 9.0), ("transition", 2, 35 - 2 - 25.0),
        ("touching", 2, 20 - 4.0), ("touching", 1, 39 - 2 - 25.0),
    ]
    want = [(f"{vid}{copy}", FpOffsetRecord(duration, offset))
            for copy in (0, 1) for vid, duration, offset in want]
    return videos, want


def test_false_alarm_offsets_edge_cases_on_any_number_of_cpus(monkeypatch):
    videos, want = edge_case_videos()
    stack_cfg = StackConfig(3)
    stream, annotation = videos[2]
    fall, transition = stack_label_masks(annotation, stream.anchor_frames, stack_cfg)
    run = (stream.anchor_frames >= 26) & (stream.anchor_frames <= 30)
    assert not fall[run].any() and transition[run].any()
    cfg = identity_filter()
    assert per_video_false_alarms(videos, cfg, stack_cfg) == want
    forks = count_forks(monkeypatch)
    for cap in (1, 80, 1 << 20):
        monkeypatch.setattr(tuning, "CHUNK_STACKS", cap)
        for cpus in (1, 2, 3, 4):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            assert tuning.false_alarm_offsets(videos, cfg, stack_cfg) == want, (cap, cpus)
            assert forks == []
            assert_no_children()
    assert tuning.false_alarm_offsets([], cfg, stack_cfg) == []


@pytest.mark.parametrize("first, frame_count", [(1, 40), (9, 30), (45, 40)])
def test_a_stack_outside_the_frames_raises_as_stack_label_masks_does(first, frame_count):
    stream = PredictionStream("v", first, np.full(25, 0.2))
    annotation = VideoAnnotation("v", "db", 30.0, frame_count, ((10, 12),))
    with pytest.raises(IndexError) as want:
        stack_label_masks(annotation, stream.anchor_frames, StackConfig())
    for run in (lambda: tuning.false_alarm_offsets([(stream, annotation)], identity_filter()),
                lambda: tuning.filter_counts([(stream, annotation)], identity_filter())):
        with pytest.raises(IndexError) as got:
            run()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["filter_counts", "false_alarm_offsets", "sweep", "tune"])
def test_a_pair_whose_ids_differ_raises_as_evaluate_video_does(monkeypatch, name):
    # A stream paired with another video's annotation is refused by every
    # fast path with evaluate_video's message, on one CPU and on two, where
    # the pair is this process's chunk and where it is a child's.
    stream = PredictionStream("a", 9, np.zeros(20))
    annotation = VideoAnnotation("b", "db", 30.0, 29, ((10, 12),))
    cfg = FilterConfig(0.5, width_frames=1)
    with pytest.raises(ValueError) as want:
        evaluate_video(stream, annotation, cfg)
    assert str(want.value) == "stream 'a' does not match annotation 'b'"
    good = [(PredictionStream(v, 9, np.zeros(20)), VideoAnnotation(v, "db", 30.0, 29, ((10, 12),)))
            for v in ("v0", "v1")]
    grids = ([0.1, 0.3], [0.4, 0.5])
    runs = {"filter_counts": lambda pairs: tuning.filter_counts(pairs, cfg),
            "false_alarm_offsets": lambda pairs: tuning.false_alarm_offsets(pairs, cfg),
            "sweep": lambda pairs: tuning.sweep({"db": pairs}, *grids),
            "tune": lambda pairs: tuning.tune({"db": pairs}, *grids)}
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1)  # a chunk per video
    for pairs in ([(stream, annotation)], [good[0], (stream, annotation), good[1]]):
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as got:
                runs[name](pairs)
            assert str(got.value) == str(want.value), (cpus, len(pairs))
            assert_no_children()
