import json
import math

import numpy as np
import pytest

from alarm_pipeline.cli import main
from alarm_pipeline.errors import GenerationError
from alarm_pipeline.synth import FALL, FAR_FP, NEAR_FP, SynthSpec, generate
from alarm_pipeline.temporal import AlarmKind, evaluate_video, identity_filter


def spec_with(**kwargs):
    defaults = dict(video_count=6, near_fall_fp_rate=1.0, far_fp_rate=1.0, seed=9)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


# -- validation -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(video_count=0)
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, fall_rate=-1)
    for name in ("fall_rate", "near_fall_fp_rate", "far_fp_rate"):
        for bad in (math.inf, math.nan, -0.5):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {bad}"):
                SynthSpec(video_count=1, **{name: bad})
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, fall_duration_mean=5, fall_duration_spread=5)
    for name in ("fall_duration_spread", "fp_duration_spread"):
        for bad in (-1, -2):
            with pytest.raises(ValueError, match=f"{name} must be >= 0, got {bad}"):
                SynthSpec(video_count=1, **{name: bad})
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, score_noise=0.5)
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, min_separation_frames=1)
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, seed=-1)
    with pytest.raises(ValueError):
        SynthSpec(video_count=1, frames_per_video=10)


# -- determinism ------------------------------------------------------------------


def test_generation_is_deterministic():
    a = generate(spec_with())
    b = generate(spec_with())
    assert a.annotations == b.annotations
    assert a.ledger == b.ledger
    for s1, s2 in zip(a.streams, b.streams):
        assert np.array_equal(s1.scores, s2.scores)
        assert np.array_equal(s1.anchor_frames, s2.anchor_frames)


def test_seed_changes_placement():
    a = generate(spec_with(seed=1))
    b = generate(spec_with(seed=2))
    assert any(x.fall_intervals != y.fall_intervals
               for x, y in zip(a.annotations, b.annotations))


def test_videos_are_seeded_independently():
    # same video index, same seed -> identical video even with different counts
    a = generate(spec_with(video_count=3))
    b = generate(spec_with(video_count=6))
    assert a.annotations == b.annotations[:3]


# -- geometry of planted events -----------------------------------------------------


def test_ledger_geometry():
    corpus = generate(spec_with(video_count=20, seed=4))
    near = far = 0
    for annotation in corpus.annotations:
        events = corpus.ledger[annotation.video_id]
        falls = [e for e in events if e.kind == FALL]
        assert tuple((e.start_frame, e.end_frame) for e in sorted(
            falls, key=lambda e: e.start_frame)) == annotation.fall_intervals
        for event in events:
            assert event.start_frame >= 9
            assert event.end_frame <= annotation.frame_count - 1
            if event.kind == FALL:
                assert 24 <= event.end_frame - event.start_frame + 1 <= 40
                assert event.offset_frames is None
            else:
                assert 2 <= event.end_frame - event.start_frame + 1 <= 8
            if event.kind == NEAR_FP:
                near += 1
                assert 2 <= event.offset_frames <= 4
            if event.kind == FAR_FP:
                far += 1
                assert event.offset_frames >= 20
    assert near > 0 and far > 0


def test_group_assignment():
    corpus = generate(spec_with(video_count=6, videos_per_group=2))
    groups = [a.group_id for a in corpus.annotations]
    assert groups[0] == groups[1] and groups[2] == groups[3]
    assert len(set(groups)) == 3


def test_fractional_rates_resolve_by_coin_flip():
    corpus = generate(SynthSpec(video_count=400, fall_rate=0.5, seed=12))
    counts = [len(a.fall_intervals) for a in corpus.annotations]
    assert set(counts) <= {0, 1}
    assert 0.35 < sum(counts) / len(counts) < 0.65


# -- pipeline recovery ---------------------------------------------------------------


def assert_identity_recovery(corpus):
    for stream, annotation in corpus.pairs():
        planted = corpus.ledger[annotation.video_id]
        ev = evaluate_video(stream, annotation, identity_filter(0.5))
        got_runs = [(a.start_frame, a.end_frame) for a in ev.alarms]
        assert got_runs == [(e.start_frame, e.end_frame) for e in planted]
        for alarm, event in zip(ev.alarms, planted):
            if event.kind == FALL:
                assert alarm.kind is AlarmKind.TRUE_ALARM
            else:
                assert alarm.kind is AlarmKind.FALSE_ALARM
                assert alarm.offset_frames == event.offset_frames
        assert ev.alarm_counts.tp_a + ev.alarm_counts.fn_a == len(annotation.fall_intervals)
        assert ev.alarm_counts.fn_a == 0
        assert ev.alarm_counts.fp_a == sum(1 for e in planted if e.kind != FALL)


def test_identity_filter_recovers_ledger_exactly():
    assert_identity_recovery(generate(spec_with(video_count=25, seed=2)))


def test_recovery_survives_score_noise():
    assert_identity_recovery(
        generate(spec_with(video_count=15, seed=8, score_noise=0.3))
    )


def test_counts_helpers():
    corpus = generate(spec_with(video_count=10, seed=3))
    assert corpus.fall_count() == sum(len(a.fall_intervals) for a in corpus.annotations)
    assert corpus.fp_count() == sum(
        1 for evs in corpus.ledger.values() for e in evs if e.kind != FALL
    )


# -- degenerate corpora ----------------------------------------------------------------


def test_no_fall_videos_have_infinite_offsets(tmp_path):
    corpus = generate(SynthSpec(video_count=4, fall_rate=0.0, far_fp_rate=1.0, seed=5))
    for events in corpus.ledger.values():
        for event in events:
            assert event.kind == FAR_FP
            assert math.isinf(event.offset_frames)
    # ledger.json writes each infinite offset as null, in strict JSON
    assert main(["synth", "--videos", "4", "--fall-rate", "0", "--far-fp-rate", "1",
                 "--seed", "5", "--out", str(tmp_path)]) == 0

    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    blob = json.loads((tmp_path / "ledger.json").read_text(), parse_constant=not_json)
    events = [event for events in blob["videos"].values() for event in events]
    assert len(events) == 4
    assert all(event["kind"] == FAR_FP and event["offset_frames"] is None for event in events)


def test_near_dips_require_falls():
    # rate stays requested but no fall exists to anchor them: coerced to zero
    corpus = generate(SynthSpec(video_count=4, fall_rate=0.0,
                                near_fall_fp_rate=2.0, seed=5))
    assert corpus.fp_count() == 0


def test_generation_error_when_packing_impossible():
    with pytest.raises(GenerationError):
        generate(SynthSpec(video_count=1, frames_per_video=30,
                           fall_duration_mean=60, fall_duration_spread=0, seed=0))
    with pytest.raises(GenerationError):
        # far dips can never reach 20 frames of clearance in a packed video
        generate(SynthSpec(video_count=1, frames_per_video=50,
                           fall_duration_mean=30, fall_duration_spread=0,
                           far_fp_rate=1.0, seed=0))
