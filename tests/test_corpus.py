import json

import numpy as np
import pytest

from alarm_pipeline.corpus import (
    PredictionStream,
    StackConfig,
    StackLabel,
    VideoAnnotation,
    assign_folds,
    label_stack,
    load_annotations,
    load_predictions,
    save_annotations,
    save_predictions,
    stack_label_masks,
    stack_labels,
)
from alarm_pipeline.errors import CorpusFormatError, InfeasibleError

from _oracles import naive_label


def make_annotation(intervals=((100, 130),), frame_count=300, **kwargs):
    defaults = dict(video_id="v", database_id="db", fps=30.0, frame_count=frame_count)
    defaults.update(kwargs)
    return VideoAnnotation(fall_intervals=tuple(intervals), **defaults)


# -- stack geometry and labeling ----------------------------------------------


def test_stack_span_is_trailing_window():
    cfg = StackConfig(stack_length=10)
    assert cfg.span(120) == (111, 120)
    assert cfg.span(9) == (0, 9)


def test_stack_config_validation():
    with pytest.raises(ValueError):
        StackConfig(stack_length=0)
    with pytest.raises(ValueError):
        StackConfig(stride=0)


def test_label_stack_examples():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    # span [111, 120] fully inside [100, 130]
    assert label_stack(ann, 120, cfg) is StackLabel.FALL
    # span [41, 50] disjoint from the fall
    assert label_stack(ann, 50, cfg) is StackLabel.NO_FALL
    # span [96, 105] straddles the start boundary
    assert label_stack(ann, 105, cfg) is StackLabel.TRANSITION


def test_label_stack_boundaries():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    assert label_stack(ann, 109, cfg) is StackLabel.FALL       # span [100, 109]
    assert label_stack(ann, 108, cfg) is StackLabel.TRANSITION  # span [99, 108]
    assert label_stack(ann, 130, cfg) is StackLabel.FALL       # span [121, 130]
    assert label_stack(ann, 131, cfg) is StackLabel.TRANSITION  # span [122, 131]
    assert label_stack(ann, 99, cfg) is StackLabel.NO_FALL     # span [90, 99]
    assert label_stack(ann, 139, cfg) is StackLabel.TRANSITION  # span [130, 139]
    assert label_stack(ann, 140, cfg) is StackLabel.NO_FALL    # span [131, 140]


def test_label_stack_out_of_range():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    with pytest.raises(IndexError):
        label_stack(ann, 8, cfg)  # span would start at -1
    with pytest.raises(IndexError):
        label_stack(ann, 300, cfg)


def test_label_stack_matches_naive_oracle():
    rng = np.random.default_rng(11)
    cfg = StackConfig(stack_length=10)
    for _ in range(500):
        frame_count = int(rng.integers(20, 120))
        intervals = []
        cursor = 0
        for _ in range(int(rng.integers(0, 3))):
            start = cursor + int(rng.integers(0, 15))
            end = start + int(rng.integers(0, 20))
            if end >= frame_count:
                break
            intervals.append((start, end))
            cursor = end + 2
        ann = make_annotation(intervals, frame_count=frame_count)
        for anchor in range(9, frame_count):
            got = label_stack(ann, anchor, cfg)
            want = naive_label(ann.fall_intervals, anchor, 10)
            assert got.value == want, (ann.fall_intervals, anchor)


def test_stack_label_masks_agree_with_label_stack():
    rng = np.random.default_rng(5)
    cfg = StackConfig(stack_length=10)
    for _ in range(100):
        frame_count = int(rng.integers(30, 100))
        start = int(rng.integers(0, frame_count - 5))
        end = min(frame_count - 1, start + int(rng.integers(0, 25)))
        ann = make_annotation([(start, end)], frame_count=frame_count)
        anchors = np.arange(9, frame_count)
        fall, transition = stack_label_masks(ann, anchors, cfg)
        listed = stack_labels(ann, anchors, cfg)
        for anchor, f, t, lab in zip(anchors, fall, transition, listed):
            single = label_stack(ann, int(anchor), cfg)
            assert lab is single
            assert f == (single is StackLabel.FALL)
            assert t == (single is StackLabel.TRANSITION)


def test_stack_label_masks_out_of_range():
    ann = make_annotation()
    with pytest.raises(IndexError):
        stack_label_masks(ann, np.array([5]), StackConfig(stack_length=10))


# -- annotation validation ----------------------------------------------------


def test_annotation_rejects_bad_intervals():
    with pytest.raises(ValueError):
        make_annotation([(10, 5)])
    with pytest.raises(ValueError):
        make_annotation([(-1, 5)])
    with pytest.raises(ValueError):
        make_annotation([(0, 300)], frame_count=300)
    with pytest.raises(ValueError):
        make_annotation([(10, 50), (40, 60)])  # overlapping
    with pytest.raises(ValueError):
        make_annotation([(40, 60), (10, 20)])  # unsorted


def test_annotation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        make_annotation(fps=0.0)
    with pytest.raises(ValueError):
        make_annotation(frame_count=0)
    with pytest.raises(ValueError):
        make_annotation(video_id="")


def test_annotation_group_defaults_to_video_id():
    assert make_annotation().group_id == "v"
    assert make_annotation(group_id="cam-3").group_id == "cam-3"


def test_prediction_stream_validation():
    with pytest.raises(ValueError):
        PredictionStream("v", np.array([1, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PredictionStream("v", np.array([1, 2]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PredictionStream("v", (9, 10, 11), (0.5, float("nan"), 0.5))
    with pytest.raises(ValueError):
        PredictionStream("v", np.array([1, 2, 3]), np.array([0.5, 0.5]))
    stream = PredictionStream("v", [9, 10, 11], [0.0, 0.5, 1.0])
    assert len(stream) == 3
    assert stream.scores.dtype == np.float64


# -- file round trips ----------------------------------------------------------


def test_annotation_round_trip_is_fixed_point(tmp_path):
    anns = [
        make_annotation([(100, 130)], video_id="a"),
        make_annotation([], video_id="b", group_id="a"),
        make_annotation([(5, 10), (50, 80)], video_id="c", fps=25.0),
    ]
    path = tmp_path / "ann.jsonl"
    save_annotations(anns, path)
    loaded = load_annotations(path)
    assert loaded == anns
    first = path.read_bytes()
    save_annotations(loaded, path)
    assert path.read_bytes() == first


def test_annotation_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "ann.jsonl"
    good = json.dumps({"video_id": "a", "database_id": "d", "fps": 30.0,
                       "frame_count": 100, "fall_intervals": []})
    path.write_text(good + "\n{broken\n")
    with pytest.raises(CorpusFormatError) as err:
        load_annotations(path)
    assert err.value.line == 2

    path.write_text(good + "\n" + good + "\n")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_annotations(path)

    path.write_text('{"video_id": "a"}\n')
    with pytest.raises(CorpusFormatError, match="missing keys"):
        load_annotations(path)


def test_prediction_round_trip_is_fixed_point(tmp_path):
    rng = np.random.default_rng(3)
    streams = [
        PredictionStream("a", np.arange(9, 40), rng.random(31)),
        PredictionStream("b", np.arange(9, 25), rng.random(16)),
    ]
    path = tmp_path / "pred.csv"
    save_predictions(streams, path)
    loaded = load_predictions(path)
    assert [s.video_id for s in loaded] == ["a", "b"]
    for got, want in zip(loaded, streams):
        assert np.array_equal(got.anchor_frames, want.anchor_frames)
        assert np.array_equal(got.scores, want.scores)  # repr() round-trips exactly
    first = path.read_bytes()
    save_predictions(loaded, path)
    assert path.read_bytes() == first


def test_prediction_loader_errors(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("video,anchor,score\n")
    with pytest.raises(CorpusFormatError, match="header"):
        load_predictions(path)

    path.write_text("video_id,anchor_frame,score\nv,9,0.5\nv,9,0.6\n")
    with pytest.raises(CorpusFormatError) as err:
        load_predictions(path)
    assert err.value.line == 3

    path.write_text("video_id,anchor_frame,score\nv,9,1.5\n")
    with pytest.raises(CorpusFormatError, match="outside"):
        load_predictions(path)

    path.write_text("video_id,anchor_frame,score\nv,x,0.5\n")
    with pytest.raises(CorpusFormatError, match="bad anchor"):
        load_predictions(path)

    path.write_text("")
    with pytest.raises(CorpusFormatError, match="empty"):
        load_predictions(path)


def test_prediction_loader_allows_interleaved_videos(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text(
        "video_id,anchor_frame,score\n"
        "a,9,0.1\nb,9,0.2\na,10,0.3\nb,10,0.4\n"
    )
    loaded = load_predictions(path)
    assert [s.video_id for s in loaded] == ["a", "b"]
    assert loaded[0].anchor_frames.tolist() == [9, 10]
    assert loaded[1].scores.tolist() == [0.2, 0.4]


# -- fold assignment ----------------------------------------------------------


def test_folds_never_split_groups():
    groups = {f"v{i}": f"g{i % 7}" for i in range(35)}
    assignment = assign_folds(groups, k=3, seed=42)
    by_group = {}
    for video, fold in assignment.folds.items():
        by_group.setdefault(groups[video], set()).add(fold)
    assert all(len(folds) == 1 for folds in by_group.values())


def test_folds_balanced_by_group_count():
    groups = {f"v{i}": f"g{i}" for i in range(17)}
    assignment = assign_folds(groups, k=5, seed=0)
    sizes = [len(assignment.videos_in(f)) for f in range(5)]
    assert sum(sizes) == 17
    assert max(sizes) - min(sizes) <= 1


def test_folds_deterministic_and_seed_sensitive():
    groups = {f"v{i}": f"g{i}" for i in range(30)}
    a = assign_folds(groups, k=5, seed=1)
    b = assign_folds(groups, k=5, seed=1)
    c = assign_folds(groups, k=5, seed=2)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_folds_infeasible_when_too_few_groups():
    groups = {"v1": "g1", "v2": "g1", "v3": "g2"}
    with pytest.raises(InfeasibleError):
        assign_folds(groups, k=3, seed=0)
    with pytest.raises(ValueError):
        assign_folds(groups, k=1, seed=0)
