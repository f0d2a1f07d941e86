import csv
import io
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from alarm_pipeline import corpus, tuning
from alarm_pipeline.cli import main
from alarm_pipeline.corpus import (
    _ROWS_PER_WRITE,
    _load_parts,
    _load_prediction_rows,
    _read_starts,
    PredictionStream,
    StackConfig,
    VideoAnnotation,
    assign_folds,
    load_annotations,
    load_predictions,
    save_annotations,
    save_predictions,
    stack_label_masks,
)
from alarm_pipeline.errors import CorpusFormatError, InfeasibleError
from alarm_pipeline.forks import fork_map
from alarm_pipeline.synth import SynthSpec, generate
from alarm_pipeline.temporal import combine, evaluate_video, identity_filter

from _oracles import naive_label
from conftest import assert_no_children, count_forks, use_cpus


def make_annotation(intervals=((100, 130),), frame_count=300, **kwargs):
    defaults = dict(video_id="v", database_id="db", fps=30.0, frame_count=frame_count)
    defaults.update(kwargs)
    return VideoAnnotation(fall_intervals=tuple(intervals), **defaults)


# -- stack geometry and labeling ----------------------------------------------


def label(ann, anchor, cfg):
    """'fall' / 'no_fall' / 'transition' of one stack, from stack_label_masks."""
    fall, transition = stack_label_masks(ann, np.array([anchor]), cfg)
    return "fall" if fall[0] else "transition" if transition[0] else "no_fall"


def test_stack_span_is_trailing_window():
    # the stack at anchor 120 covers exactly frames [111, 120]
    cfg = StackConfig(stack_length=10)
    ann = make_annotation([(111, 120)])
    assert [label(ann, a, cfg) for a in (119, 120, 121)] == ["transition", "fall", "transition"]
    ann = make_annotation([(0, 9)])
    assert label(ann, 9, cfg) == "fall"


def test_stack_config_validation():
    with pytest.raises(ValueError):
        StackConfig(stack_length=0)
    # Not an integer: rejected here, not later by numpy as a TypeError.
    for length in (2.5, 10.0, "10", np.float64(10.0)):
        with pytest.raises(ValueError, match="stack_length must be an integer"):
            StackConfig(stack_length=length)
    # A bool is an int: True was taken as a stack length of 1 frame.
    for length in (True, False):
        with pytest.raises(ValueError, match=f"^stack_length must be an integer, got {length}$"):
            StackConfig(stack_length=length)
    assert StackConfig(stack_length=np.int32(3)).stack_length == 3


def test_label_stack_examples():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    # span [111, 120] fully inside [100, 130]
    assert label(ann, 120, cfg) == "fall"
    # span [41, 50] disjoint from the fall
    assert label(ann, 50, cfg) == "no_fall"
    # span [96, 105] straddles the start boundary
    assert label(ann, 105, cfg) == "transition"


def test_label_stack_boundaries():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    assert label(ann, 109, cfg) == "fall"        # span [100, 109]
    assert label(ann, 108, cfg) == "transition"  # span [99, 108]
    assert label(ann, 130, cfg) == "fall"        # span [121, 130]
    assert label(ann, 131, cfg) == "transition"  # span [122, 131]
    assert label(ann, 99, cfg) == "no_fall"      # span [90, 99]
    assert label(ann, 139, cfg) == "transition"  # span [130, 139]
    assert label(ann, 140, cfg) == "no_fall"     # span [131, 140]


def test_label_stack_out_of_range():
    ann = make_annotation()
    cfg = StackConfig(stack_length=10)
    with pytest.raises(IndexError, match="anchor 8 leaves frames"):
        label(ann, 8, cfg)  # span would start at -1
    with pytest.raises(IndexError, match="anchor 300 leaves frames"):
        label(ann, 300, cfg)
    with pytest.raises(IndexError, match="anchor 300 leaves frames"):
        stack_label_masks(ann, np.array([9, 299, 300]), cfg)  # the whole call fails


def test_label_stack_matches_naive_oracle():
    rng = np.random.default_rng(11)
    cfg = StackConfig(stack_length=10)
    corpora = []
    for _ in range(500):  # up to two falls, which may touch
        frame_count = int(rng.integers(20, 120))
        intervals = []
        cursor = 0
        for _ in range(int(rng.integers(0, 3))):
            start = cursor + int(rng.integers(0, 15))
            end = start + int(rng.integers(0, 20))
            if end >= frame_count:
                break
            intervals.append((start, end))
            cursor = end + 1
        corpora.append((frame_count, intervals))
    for _ in range(100):  # one fall, clipped to the last frame
        frame_count = int(rng.integers(30, 100))
        start = int(rng.integers(0, frame_count - 5))
        corpora.append((frame_count, [(start, min(frame_count - 1, start + int(rng.integers(0, 25))))]))
    for frame_count, intervals in corpora:
        ann = make_annotation(intervals, frame_count=frame_count)
        anchors = np.arange(9, frame_count)
        fall, transition = stack_label_masks(ann, anchors, cfg)
        for anchor, f, t in zip(anchors, fall, transition):
            want = naive_label(ann.fall_intervals, int(anchor), 10)
            assert (f, t) == (want == "fall", want == "transition"), (ann.fall_intervals, anchor)


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
    # each of these was once read as an interval: (2, 5), (1, 5) and "outside frames"
    with pytest.raises(ValueError, match=r"^fall interval bounds must be integers, got \(2.7, 5.2\)$"):
        make_annotation([(2.7, 5.2)])
    with pytest.raises(ValueError, match=r"^fall interval bounds must be integers, got \(True, 5\)$"):
        make_annotation([(True, 5)])
    with pytest.raises(ValueError, match=r"^fall interval \[5, 3\] starts after it ends$"):
        make_annotation([(5, 3)], frame_count=100)
    # each of these raised a bare TypeError that named no field
    cases = [
        ([(None, 5)], r"^fall interval bounds must be integers, got \(None, 5\)$"),
        ([(5, [7])], r"^fall interval bounds must be integers, got \(5, \[7\]\)$"),
        ([(1, 2), 5], r"^fall_intervals must hold \(start, end\) pairs, got \(\(1, 2\), 5\)$"),
    ]
    for intervals, message in cases:
        with pytest.raises(ValueError, match=message):
            make_annotation(intervals)
    with pytest.raises(ValueError, match=r"^fall_intervals must hold \(start, end\) pairs, got None$"):
        VideoAnnotation("v", "db", 30.0, 300, None)
    # and these keep the ValueError they raised: what int() refuses, a pair of
    # three, and an earlier interval's error before a later one's kind
    for intervals, message in (([("x", 5)], r"^invalid literal for int\(\) with base 10: 'x'$"),
                               ([(1, 2, 3)], r"^too many values to unpack \(expected 2"),
                               ([(5, 3), (None, 9)], r"^fall interval \[5, 3\] starts after it ends$")):
        with pytest.raises(ValueError, match=message):
            make_annotation(intervals)


def test_annotation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        make_annotation(fps=0.0)
    with pytest.raises(ValueError):
        make_annotation(frame_count=0)
    with pytest.raises(ValueError):
        make_annotation(video_id="")
    # each of these was once accepted
    with pytest.raises(ValueError, match=r"^frame_count must be an integer, got 900.5$"):
        make_annotation(frame_count=900.5)
    with pytest.raises(ValueError, match=r"^frame_count must be an integer, got True$"):
        make_annotation([], frame_count=True)
    with pytest.raises(ValueError, match=r"^fps must be a number, got True$"):
        make_annotation(fps=True)
    with pytest.raises(ValueError, match=r"^frame_count must be >= 1 and below 2\*\*63, got 0.5$"):
        make_annotation(frame_count=0.5)
    # each of these raised a bare TypeError that named no field
    cases = [({"fps": "30"}, r"^fps must be a number, got '30'$"),
             ({"fps": None}, r"^fps must be a number, got None$"),
             ({"fps": 30j}, r"^fps must be a number, got 30j$"),
             ({"frame_count": "9"}, r"^frame_count must be an integer, got '9'$"),
             ({"frame_count": None}, r"^frame_count must be an integer, got None$"),
             ({"frame_count": [300]}, r"^frame_count must be an integer, got \[300\]$")]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            make_annotation([], **kwargs)
    # and a value that compares keeps its range error
    with pytest.raises(ValueError, match=r"^fps must be finite and > 0, got False$"):
        make_annotation(fps=False)
    with pytest.raises(ValueError, match=r"^fps must be finite and > 0, got nan$"):
        make_annotation(fps=float("nan"))
    ann = make_annotation([(np.int64(5), np.int32(7))], fps=np.float32(25), frame_count=np.int64(9))
    assert ann.fall_intervals == ((5, 7),) and type(ann.fall_intervals[0][0]) is int


def test_annotation_group_defaults_to_video_id():
    assert make_annotation().group_id == "v"
    assert make_annotation(group_id="cam-3").group_id == "cam-3"


def test_prediction_stream_validation():
    with pytest.raises(ValueError, match="first_anchor must be an integer"):
        PredictionStream("v", np.array([1, 2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PredictionStream("v", 1, np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PredictionStream("v", 9, (0.5, float("nan"), 0.5))
    with pytest.raises(ValueError, match="scores must be 1-D"):
        PredictionStream("v", 1, np.full((2, 2), 0.5))
    stream = PredictionStream("v", 9, [0.0, 0.5, 1.0])
    assert len(stream) == 3
    assert stream.scores.dtype == np.float64
    assert stream.anchor_frames.tolist() == [9, 10, 11]


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

    path.write_text("[1]\n")
    with pytest.raises(CorpusFormatError) as err:
        load_annotations(path)
    assert str(err.value) == f"{path}:1: annotation record must be an object"

    record = {"video_id": "a", "database_id": "d", "fps": 30, "frame_count": 900,
              "fall_intervals": [[100, 130]]}
    cases = [  # (changed keys, message) of a value of the wrong JSON type
        # every value was coerced once: id '7', fps 1.0, 900 frames, fall (100, 130)
        ({"video_id": 7, "database_id": "db", "fps": True, "frame_count": 900.7,
          "fall_intervals": [[100.9, "130"]]}, "key 'video_id' must be a string, got 7"),
        ({"database_id": None}, "key 'database_id' must be a string, got null"),
        ({"group_id": 3}, "key 'group_id' must be a string, got 3"),
        ({"fps": True}, "key 'fps' must be a number, got true"),
        ({"fps": "30"}, 'key \'fps\' must be a number, got "30"'),
        ({"frame_count": 900.7}, "key 'frame_count' must be an integer, got 900.7"),
        ({"frame_count": 900.0}, "key 'frame_count' must be an integer, got 900.0"),
        ({"frame_count": False}, "key 'frame_count' must be an integer, got false"),
        ({"fall_intervals": [[100.9, "130"]]}, r'got \[100.9, "130"\]'),
        ({"fall_intervals": [[100, 130], [140, True]]}, r"got \[140, true\]"),
        ({"fall_intervals": [[100, 120, 130]]}, r"got \[100, 120, 130\]"),
        ({"fall_intervals": {"100": 130}}, "key 'fall_intervals' must be a list of "
                                           r'\[start, end\] integer pairs, got {"100": 130}'),
    ]
    for change, message in cases:
        bad = {**record, "video_id": "b", **change}
        path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(CorpusFormatError, match=message) as err:
            load_annotations(path)
        assert (err.value.path, err.value.line) == (str(path), 2), change
    for fps in ("Infinity", "1e400"):  # json reads both as inf
        bad = json.dumps({**record, "video_id": "b"}).replace('"fps": 30', f'"fps": {fps}')
        path.write_text(json.dumps(record) + "\n" + bad + "\n")
        with pytest.raises(CorpusFormatError, match="fps must be finite and > 0, got inf") as err:
            load_annotations(path)
        assert (err.value.path, err.value.line) == (str(path), 2), fps
    path.write_text(json.dumps(record) + "\n")
    (ann,) = load_annotations(path)
    assert (ann.fps, ann.frame_count, ann.fall_intervals, ann.group_id) == (30.0, 900, ((100, 130),), "a")
    assert isinstance(ann.fps, float)


def test_prediction_round_trip_is_fixed_point(tmp_path):
    rng = np.random.default_rng(3)
    streams = [
        PredictionStream("a", 9, rng.random(31)),
        PredictionStream("b", 9, rng.random(16)),
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


HEADER = "video_id,anchor_frame,score\n"
TRICKY_SCORES = [0.0, 1.0, 5e-324, 0.1, 1 - 2**-53, 1e-05, 0.30000000000000004]


def stream_bits(streams):
    """Ids, dtypes and raw bytes of each stream, for bit-for-bit comparison."""
    return [
        (s.video_id, s.anchor_frames.dtype, s.anchor_frames.tobytes(),
         s.scores.dtype, s.scores.tobytes())
        for s in streams
    ]


def load_parts(path, starts, parts=1):
    """The bulk parse of ``path`` in the reads that begin at ``starts``,
    dealt to ``parts`` parts (one a read where there are fewer reads), or
    None where it leaves the file to the row loop."""
    with pytest.MonkeyPatch.context() as patched:
        use_cpus(patched, parts)
        patched.setattr(corpus, "_READ_BYTES", 1)  # the file's size caps no part
        try:
            return _load_parts(path, starts)
        except ValueError:
            return None


def bulk_parse(path, read_bytes=1 << 20, parts=1):
    """The bulk parse of ``path`` in the reads ``_READ_BYTES = read_bytes``
    cuts, dealt to ``parts`` parts, or None where it leaves the file to the
    row loop."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(corpus, "_READ_BYTES", read_bytes)
        starts = _read_starts(path)
    return load_parts(path, starts, parts)


def longest_line(data):
    """The bytes of the longest line of ``data``, its ``\\n`` included."""
    return max(len(line) + 1 for line in data.split(b"\n"))


def read_sizes(data):
    """Read sizes for ``data``: one byte, so each line is a read, sizes
    around its longest line, so a longer line is one read, and one read of
    the whole file."""
    longest = longest_line(data)
    return sorted({1, max(longest - 1, 1), *(longest + extra for extra in (0, 1, 7, longest, len(data)))})


def reference_csv(streams):
    """Bytes of the row-by-row ``csv.writer`` layout that save_predictions keeps.

    Fields are quoted as a writer ending lines in ``\\r\\n`` quotes them (so
    an id with a ``\\r`` is quoted); rows end in ``\\n``.
    """
    rows = [["video_id", "anchor_frame", "score"]]
    rows += [[stream.video_id, int(anchor), repr(float(score))]
             for stream in streams for anchor, score in zip(stream.anchor_frames, stream.scores)]
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def test_prediction_loader_errors(tmp_path):
    path = tmp_path / "pred.csv"
    cases = [  # (file text, message, line) of the row loop's error
        ("video,anchor,score\n", "header", 1),
        ("", "empty", 1),
        (HEADER + "v,9,0.5\nv,9,0.6\n", "anchor 9 not increasing", 3),
        (HEADER + "a,9,0.5\nb,9,0.5\na,9,0.5\n", "anchor 9 not increasing", 4),
        (HEADER + "v,9,1.5\n", r"score 1.5 outside \[0, 1\]", 2),
        (HEADER + "v,9,nan\n", r"score nan outside \[0, 1\]", 2),
        (HEADER + "v,9,0.5\nv,10,1e5\n", "outside", 3),
        (HEADER + "v,x,0.5\n", "bad anchor", 2),
        (HEADER + "v,9.0,0.5\n", "bad anchor/score '9.0','0.5'", 2),
        (HEADER + "v,9,0.5\nv,10,1-2\n", "bad anchor/score '10','1-2'", 3),
        (HEADER + "v,9,0.5,1\n", "expected 3 columns, got 4", 2),
        (HEADER + "v,9,0.5\nv,99999999999999999999,0.5\n", "does not fit in 64 bits", 3),
        # a quoted id that holds a line break: the error names the line the row ends on
        (HEADER + '"a\nb",9,0.5\n"a\nb",10,0.5\nc,9,2.0\n', r"score 2.0 outside \[0, 1\]", 6),
        (HEADER + '"a\nb",9,0.5\nc,9,0.5,1\n', "expected 3 columns, got 4", 4),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        (HEADER + "v,9,0.5\n\udcff,9,0.5\n", r"invalid UTF-8 \(invalid start byte\)", 3),
    ]
    for text, message, line in cases:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for read_bytes in read_sizes(path.read_bytes()):
            assert bulk_parse(path, read_bytes) is None, (text, read_bytes)
        with pytest.raises(CorpusFormatError, match=message) as err:
            load_predictions(path)
        assert err.value.line == line, text

    # an id with a \r is quoted, so the package reads back its own file
    save_predictions([PredictionStream("a\rb", 9, [0.5])], path)
    assert path.read_bytes() == HEADER.encode() + b'"a\rb",9,0.5\n'
    assert stream_bits(load_predictions(path)) == stream_bits(
        [PredictionStream("a\rb", 9, [0.5])])


def test_prediction_stream_rejects_anchor_gaps(tmp_path):
    # a gap would let one alarm run span frames that have no stack, so a
    # stream holds its first anchor alone and the loaders reject a gap
    assert PredictionStream("v", 20, [0.0, 0.0]).anchor_frames.tolist() == [20, 21]
    assert PredictionStream("v", np.int64(10), [0.5] * 4).first_anchor == 10
    with pytest.raises(ValueError, match="first_anchor must be an integer, got \\[20, 150\\]"):
        PredictionStream("v", [20, 150], [0.0, 0.0])
    path = tmp_path / "pred.csv"
    for text in (HEADER + "v,20,0\nv,21,0\nv,150,0\n",  # canonical, read in bulk
                 HEADER + "v,20,0\nw,9,0\nv,21,0\nv,150,0\n",  # interleaved
                 HEADER + "v,20,0\nw,9,0\nv,21,0\nw,10,0\nv,150,0\nw,12,0\n"):  # both gap
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match="anchor 21 is followed by 150") as err:
            load_predictions(path)
        assert (err.value.path, err.value.line) == (str(path), None)


def test_anchor_errors_keep_their_order(tmp_path):
    # The row loop checks each row as it reads it and each video's anchor
    # gaps after the last row: a row's error wins over any gap, and of
    # several gaps the first video's first one is named, without a line.
    path = tmp_path / "pred.csv"
    gap_a = "anchors of video 'a' must advance by 1, but anchor 9 is followed by 11"
    cases = [  # (file text, message, line)
        (HEADER + "v,20,0\nv,150,0\nw,9,0\nw,9,0\n", "anchor 9 not increasing for video 'w'", 5),
        (HEADER + "v,20,0\nv,150,0\nv,140,0\n", "anchor 140 not increasing for video 'v'", 4),
        (HEADER + "v,20,0\nv,150,0\nw,9,2\n", r"score 2.0 outside \[0, 1\]", 4),
        # b's gap comes first in the file, but a is the first video
        (HEADER + "a,9,0\nb,9,0\nb,20,0\na,11,0\na,30,0\n", gap_a, None),
        (HEADER + "a,9,0\na,11,0\na,30,0\nb,9,0\nb,20,0\n", gap_a, None),  # canonical
        (HEADER + "b,9,0\nb,10,0\na,9,0\na,11,0\nb,20,0\n",
         "anchors of video 'b' must advance by 1, but anchor 10 is followed by 20", None),
    ]
    for text, message, line in cases:
        path.write_text(text)
        for read_bytes in read_sizes(path.read_bytes()):
            assert bulk_parse(path, read_bytes) is None, (text, read_bytes)
        with pytest.raises(CorpusFormatError, match=message) as err:
            load_predictions(path)
        assert (err.value.path, err.value.line) == (str(path), line), text

    # A gap between two reads of 1 MiB, or between two parts, is found as well:
    # fixed-width rows put the gap at the first line of the second read.
    row_bytes = len("v,1000000,0.5\n")
    rows = -(-((1 << 20) - len(HEADER)) // row_bytes)  # the rows of the first read
    cut = len(HEADER) + rows * row_bytes
    anchors = 1_000_000 + np.arange(rows + 100)
    anchors[rows:] += 1
    path.write_text(HEADER + "".join(f"v,{a},0.5\n" for a in anchors))
    assert path.read_bytes()[cut:].startswith(b"v,%d," % anchors[rows])
    message = (f"anchors of video 'v' must advance by 1, but anchor {anchors[rows - 1]} "
               f"is followed by {anchors[rows]}")
    assert _read_starts(path) == [0, cut]
    assert bulk_parse(path) is None
    assert load_parts(path, [0, cut], 2) is None
    with pytest.raises(CorpusFormatError, match=message) as err:
        load_predictions(path)
    assert (err.value.path, err.value.line) == (str(path), None)
    # and so is one at a cut of any smaller read or part
    text = HEADER + "".join(f"v,{a},0.5\n" for a in [9, 10, 11, 12, 14, 15, 16])
    path.write_text(text)
    at = text.index("v,14,")
    for read_bytes in {at - 1, at, at + 1, *read_sizes(text.encode())}:
        assert bulk_parse(path, read_bytes) is None, read_bytes
    for start in (at - len("v,12,0.5\n"), at, at + len("v,14,0.5\n")):
        for parts in (1, 2):
            assert load_parts(path, [0, start], parts) is None, (start, parts)
    with pytest.raises(CorpusFormatError, match="anchor 12 is followed by 14") as err:
        load_predictions(path)
    assert (err.value.path, err.value.line) == (str(path), None)


def test_streams_hold_one_array_a_row(tmp_path):
    # A stream is its first anchor and its scores: the bulk parse, the row
    # loop and synth keep no anchor per row, and anchor_frames gives back
    # the file's anchors.
    made = [*generate(SynthSpec(video_count=3, frames_per_video=60, seed=2)).streams,
            PredictionStream("late", 40, np.linspace(0.0, 1.0, 7))]
    path = tmp_path / "pred.csv"
    save_predictions(made, path)
    want: dict[str, list[int]] = {}  # video id -> the file's anchors
    with path.open(newline="") as handle:
        for video_id, anchor, _ in itertools.islice(csv.reader(handle), 1, None):
            want.setdefault(video_id, []).append(int(anchor))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert bulk_parse(crlf) is None
    for streams in (made, bulk_parse(path), load_predictions(crlf)):
        assert [s.video_id for s in streams] == list(want)
        for s in streams:
            assert [name for name, value in vars(s).items()
                    if isinstance(value, np.ndarray)] == ["scores"]
            assert type(s.first_anchor) is int
            assert s.anchor_frames.tolist() == want[s.video_id]

    for bad in (True, False, 9.0, np.float64(9.0), "9", None):
        with pytest.raises(ValueError, match="first_anchor must be an integer"):
            PredictionStream("v", bad, [0.5])
    top = 2**63 - 1
    assert PredictionStream("v", top - 1, [0.5, 0.5]).anchor_frames.tolist() == [top - 1, top]
    assert PredictionStream("v", -(2**63), [0.5]).anchor_frames.tolist() == [-(2**63)]
    assert PredictionStream("v", top, []).anchor_frames.tolist() == []
    for first, scores in ((top, [0.5, 0.5]), (top + 1, [0.5]), (top + 1, []), (-(2**63) - 1, [0.5])):
        with pytest.raises(ValueError, match="must fit in 64 bits"):
            PredictionStream("v", first, scores)


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

    canonical = HEADER + "a,9,0.1\na,10,0.3\nb,9,0.2\nb,10,0.4\n"
    path.write_text(canonical)
    bulk = bulk_parse(path)
    assert stream_bits(bulk) == stream_bits(loaded)
    for read_bytes in read_sizes(canonical.encode()):
        assert stream_bits(bulk_parse(path, read_bytes)) == stream_bits(bulk), read_bytes
    variants = [  # each read row by row into the same streams
        HEADER + "a,9,0.1\nb,9,0.2\na,10,0.3\nb,10,0.4\n",  # interleaved
        canonical[:-1],  # no final newline
        canonical.replace("a,10,0.3\n", "a,10,0.3\n\n"),  # blank line
        canonical.replace("\n", "\r\n"),
        canonical.replace("b,", '"b",'),
        canonical.replace("a,10,", "a, 10,"),
        canonical.replace("a,10,", "a,+10,"),
    ]
    for text in variants:
        path.write_bytes(text.encode())
        for read_bytes in read_sizes(path.read_bytes()):
            assert bulk_parse(path, read_bytes) is None, (text, read_bytes)
        assert stream_bits(load_predictions(path)) == stream_bits(bulk), text


@st.composite
def prediction_streams(draw):
    """Streams with ids that may need CSV quoting and boundary scores."""
    ids = draw(st.lists(st.text(alphabet="ab Z9#é中,\"\r\x00\x0b\u2028", max_size=5), max_size=4, unique=True))
    streams = []
    for video_id in ids:
        scores = draw(st.lists(st.sampled_from(TRICKY_SCORES) | st.floats(0.0, 1.0),
                               min_size=1, max_size=30))
        streams.append(PredictionStream(video_id, draw(st.integers(1, 21)), scores))
    return streams


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(streams=prediction_streams(), data=st.data())
def test_prediction_bulk_loader_matches_row_loop(tmp_path, streams, data):
    path = tmp_path / "pred.csv"
    save_predictions(streams, path)
    text = path.read_bytes()
    assert text == reference_csv(streams)
    rows = stream_bits(_load_prediction_rows(path))
    assert rows == stream_bits(streams)
    quoted = any(set(s.video_id) & set(',"\r') for s in streams)
    # The bulk loader's result must not depend on the read size, down to reads of one byte.
    sizes = [*read_sizes(text), data.draw(st.integers(1, len(text) + 1))]
    for read_bytes in sizes:
        bulk = bulk_parse(path, read_bytes)
        assert (bulk is None) == quoted, read_bytes
        if bulk is not None:
            assert stream_bits(bulk) == rows, read_bytes
            assert all(s.scores.flags.c_contiguous for s in bulk)
    assert stream_bits(load_predictions(path)) == rows


def test_bulk_loader_empty_and_header_only_files(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_bytes(b"")
    assert bulk_parse(path) is None
    with pytest.raises(CorpusFormatError, match="empty prediction file"):
        load_predictions(path)
    path.write_bytes(HEADER.encode())
    for read_bytes in read_sizes(HEADER.encode()):
        assert bulk_parse(path, read_bytes) == [], read_bytes
    assert load_predictions(path) == []


def test_load_predictions_peak_memory(tmp_path, monkeypatch):
    # tracemalloc sees numpy's buffers too. Beyond the returned scores the
    # loader holds a few 64 KiB pieces, one piece's table and the Python
    # objects, well under 1 MiB; a file read whole, its table kept, or an
    # anchor array kept per stream would hold more than the margin.
    monkeypatch.setattr("alarm_pipeline.corpus._READ_BYTES", 1 << 16)
    # Short rows (``v12,1009,0.25``) put about 4,700 rows of one video in a
    # piece, where a regex that kept state for every row of a block would
    # cross the margin too.
    rng = np.random.default_rng(5)
    streams = [PredictionStream(f"v{i}", 9, rng.integers(0, 5, 10_000) / 4)
               for i in range(20)]
    path = tmp_path / "pred.csv"
    save_predictions(streams, path)
    tracemalloc.start()
    try:
        loaded = load_predictions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream_bits(loaded) == stream_bits(streams)
    arrays = sum(s.scores.nbytes for s in loaded)
    assert peak < arrays + (1 << 20), (peak, arrays)


def test_row_loop_peak_memory(tmp_path, monkeypatch):
    # A CRLF file takes the row loop. It streams the file and keeps each
    # video's scores in a typed buffer, 8 bytes a row plus its slack; a file
    # read whole, rows kept as Python objects, or anchors kept per row would
    # hold twice the scores or more.
    monkeypatch.setattr("alarm_pipeline.corpus._READ_BYTES", 1 << 16)
    rng = np.random.default_rng(5)
    streams = [PredictionStream(f"v{i}", 9, rng.integers(0, 5, 10_000) / 4)
               for i in range(20)]
    path = tmp_path / "pred.csv"
    save_predictions(streams, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        loaded = load_predictions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream_bits(loaded) == stream_bits(streams)
    assert all(s.scores.flags.writeable for s in loaded)
    arrays = sum(s.scores.nbytes for s in loaded)
    assert peak < 2 * arrays + (1 << 20), (peak, arrays)


def test_invalid_utf8_is_found_across_pieces(tmp_path, monkeypatch):
    # The UTF-8 check decodes the file a piece at a time. A character cut
    # between two pieces is decoded whole, and an invalid byte is reported
    # with the reason and line of a whole-file decode, at any piece size.
    # Lines end as in universal newlines mode, at "\n", "\r\n" or a lone
    # "\r", and a "\r\n" cut between two pieces ends one line.
    valid = (HEADER + "v\u20ac,9,0.5\nv\u20ac,10,0.5\n").encode()  # the euro sign is 3 bytes
    predictions = [
        (valid + b"\xe2\x82,11,0.5\n", "invalid continuation byte", 4),
        (valid + b"w,11,0.5\n\xe2\x82", "unexpected end of data", 5),
        (valid.replace(b"\xe2\x82\xac,10", b"\xe2\x82\xff,10"), "invalid continuation byte", 3),
        (valid + b"w,11,0.5\r\n\xff,12,0.5\r\n", "invalid start byte", 5),
        (valid.replace(b"\n", b"\r") + b"\xff,11,0.5\r", "invalid start byte", 4),
    ]
    record = json.dumps({"video_id": "\u20ac", "database_id": "d", "fps": 30.0,
                         "frame_count": 100, "fall_intervals": []}, ensure_ascii=False).encode()
    bad_record = record[:20] + b"\xe2\x82" + record[22:]
    annotations = [
        (b"\n" + record + b"\n" + bad_record, "invalid continuation byte", 3),
        (b"\r".join([record, record, b"", bad_record, b""]), "invalid continuation byte", 4),
        (b"\r\n".join([record, b"", record, bad_record, b""]), "invalid continuation byte", 4),
        (record + b"\r\r\n\n" + bad_record, "invalid continuation byte", 4),
    ]
    path = tmp_path / "data"
    for size in [*range(1, 12), 1 << 20]:
        monkeypatch.setattr("alarm_pipeline.corpus._READ_BYTES", size)
        path.write_bytes(valid)
        assert [s.video_id for s in load_predictions(path)] == ["v\u20ac"]
        for load, cases in ((load_predictions, predictions), (load_annotations, annotations)):
            for data, reason, line in cases:
                path.write_bytes(data)
                with pytest.raises(CorpusFormatError, match=rf"invalid UTF-8 \({reason}\)") as err:
                    load(path)
                assert err.value.line == line, (size, data)
        # a JSON error is numbered alike
        path.write_bytes(b"\r".join([record, b"", b" ", b"{", b""]))
        with pytest.raises(CorpusFormatError, match="invalid JSON") as err:
            load_annotations(path)
        assert err.value.line == 4, size


# -- the bulk parse in parts ----------------------------------------------------


def use_parts(monkeypatch, count, read_bytes=1):
    """Let load_predictions cut reads of ``read_bytes`` or more, by default
    one a line, and deal them to ``count`` parts."""
    use_cpus(monkeypatch, count)
    monkeypatch.setattr("alarm_pipeline.corpus._READ_BYTES", read_bytes)


def dealt_parts(monkeypatch):
    """A list that grows by the parts of each bulk parse, each the offsets
    where its reads begin and then where its last one ends."""
    calls = []

    def deal(fn, parts):
        calls.append(list(parts))
        return fork_map(fn, calls[-1])

    monkeypatch.setattr(corpus, "fork_map", deal)
    return calls


def count_row_loops(monkeypatch):
    """A list that grows by the path at each call of the row loop."""
    calls = []

    def rows(path):
        calls.append(path)
        return _load_prediction_rows(path)

    monkeypatch.setattr(corpus, "_load_prediction_rows", rows)
    return calls


def line_starts(data):
    """The offsets of every line of ``data`` but the first."""
    return [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]


PART_ROWS = ("a,9,0.5\na,10,0.25\na,11,1e-05\na,12,0.0\n"
             "b,9,1.0\nc,3,0.3\nc,4,0.30000000000000004\nc,5,5e-324\n")
PART_FILES = [  # (file text, whether the one-part parse gives streams)
    (HEADER + PART_ROWS, True),
    (HEADER + "a,9,0.5\na,10,0.25\nb,9,1.0\na,11,0.5\nc,3,0.3\n", False),  # a in two blocks
    (HEADER + PART_ROWS.replace("c,5", '"c",5'), False),  # a quoted id
    (HEADER + PART_ROWS.replace("a,11,1e-05\na,12", "a,12,1e-05\na,13"), False),  # an anchor gap
    (HEADER + PART_ROWS.replace("c,4,", "c,3,"), False),  # anchors not increasing
    (HEADER + PART_ROWS.replace("b,9,1.0", "b,9,1.5"), False),  # a score out of range
    (HEADER + PART_ROWS[:-1], False),  # no final newline
    ("video,anchor,score\n" + PART_ROWS, False),  # a wrong header
]


def test_parts_give_the_one_part_parse(tmp_path):
    # Reads begin at every set of one to three line starts (a file the
    # one-part parse refuses: one or two) and are dealt to one part, two
    # parts and one part a read, so blocks are cut in two to four, reads
    # and parts hold one line or several, the first read may be the header,
    # and one file is cut between reads and between parts at once.
    path = tmp_path / "pred.csv"
    for text, canonical in PART_FILES:
        path.write_text(text)
        one_read = load_parts(path, [0])
        assert (one_read is not None) == canonical, text
        if canonical:
            assert stream_bits(one_read) == stream_bits(_load_prediction_rows(path))
        starts = line_starts(path.read_bytes())
        cut_counts = (1, 2, 3) if canonical else (1, 2)
        for cuts in itertools.chain.from_iterable(itertools.combinations(starts, n)
                                                  for n in cut_counts):
            for parts in sorted({1, 2, len(cuts) + 1}):
                result = load_parts(path, [0, *cuts], parts)
                assert_no_children()
                if canonical:
                    assert stream_bits(result) == stream_bits(one_read), (cuts, parts)
                    assert all(s.scores.flags.c_contiguous for s in result)
                else:
                    assert result is None, (text, cuts, parts)


def test_read_starts(tmp_path, monkeypatch):
    # Each read begins at the first line start at least _READ_BYTES after
    # the one before, so a line longer than that is one read.
    path = tmp_path / "pred.csv"
    path.write_text(HEADER + PART_ROWS.replace("c,4,", "c" * 40 + ",4,"))
    data = path.read_bytes()
    lines = [0, *line_starts(data)]
    for read_bytes in range(1, len(data) + 2):
        monkeypatch.setattr("alarm_pipeline.corpus._READ_BYTES", read_bytes)
        want = [0]
        for line in lines:
            if line >= want[-1] + read_bytes:
                want.append(line)
        assert _read_starts(path) == want, read_bytes
    for text in (b"", HEADER.encode(), HEADER.encode()[:-1]):
        path.write_bytes(text)
        assert _read_starts(path) == [0], text

    # The reads are dealt, as runs of whole reads, to one part per usable
    # CPU, but no more than the file has whole reads or reads.
    parts = dealt_parts(monkeypatch)
    path.write_text(HEADER + PART_ROWS)
    data = path.read_bytes()
    lines = [0, *line_starts(data), len(data)]
    want = stream_bits(_load_prediction_rows(path))
    for cpus in (2, 3, 4, 64):
        cases = [(1, min(cpus, len(lines) - 1)), (len(data) // 2, 2), (len(data) + 1, 1)]
        for read_bytes, count in cases:
            use_parts(monkeypatch, cpus, read_bytes)
            parts.clear()
            assert stream_bits(load_predictions(path)) == want, (cpus, read_bytes)
            assert len(parts[0]) == count, (cpus, read_bytes)
            # each part ends where the next begins, and together they hold every read
            assert [part[-1] for part in parts[0]] == [part[0] for part in parts[0][1:]] + [len(data)]
            assert [read for part in parts[0] for read in part[:-1]] == _read_starts(path)
        assert_no_children()
    use_parts(monkeypatch, 4)
    parts.clear()
    load_predictions(path)
    assert [len(part) - 1 for part in parts[0]] == [2, 2, 2, 3]  # 9 one-line reads
    use_parts(monkeypatch, 1)
    parts.clear()
    load_predictions(path)
    assert parts == [[lines]]
    monkeypatch.delattr(os, "sched_getaffinity")  # the usable CPUs are unknown
    parts.clear()
    assert stream_bits(load_predictions(path)) == want
    assert parts == [[lines]]


def test_parts_fall_back_to_the_row_loop(tmp_path, monkeypatch):
    rows_calls = count_row_loops(monkeypatch)
    parts = dealt_parts(monkeypatch)
    path = tmp_path / "pred.csv"
    repeats = "a,9,0.5\nb,9,1.0\n" + "".join(f"{v},3,0.3\n" for v in "cdefghi") + "b,10,0.5\na,10,0.5\n"
    for text in (HEADER + repeats,  # ids repeat
                 HEADER + PART_ROWS.replace("c,", '"c",')):  # quoted ids in a child's part
        path.write_text(text)
        want = stream_bits(_load_prediction_rows(path))
        for cpus in (2, 3, 4):
            use_parts(monkeypatch, cpus)
            rows_calls.clear()
            parts.clear()
            assert stream_bits(load_predictions(path)) == want, (text, cpus)
            assert len(parts[0]) == cpus
            assert rows_calls == [path]
            assert_no_children()
    # A child that fails before it sends its part costs this process a parse
    # of that part, and one that exits non-zero after sending it costs
    # nothing; neither, nor a fork that fails, calls the row loop.
    path.write_text(HEADER + PART_ROWS)
    want = stream_bits(_load_prediction_rows(path))
    part_blocks, parent, exit_ = corpus._part_blocks, os.getpid(), os._exit

    def fail_in_child(*part):
        if os.getpid() != parent:
            raise RuntimeError("the child fails before it sends its part")
        return part_blocks(*part)

    def no_fork():
        raise BlockingIOError("no process to spare")

    failures = [(corpus, "_part_blocks", fail_in_child),
                (os, "_exit", lambda status: exit_(1)),  # only children call it
                (os, "fork", no_fork)]
    for module, name, failing in failures:
        with monkeypatch.context() as patched:
            patched.setattr(module, name, failing)
            for cpus in (2, 3, 4):
                use_parts(patched, cpus)
                rows_calls.clear()
                assert stream_bits(load_predictions(path)) == want, (name, cpus)
                assert rows_calls == []
                assert_no_children()


def test_a_child_part_that_is_not_canonical_is_not_parsed_again(tmp_path, monkeypatch):
    # A child whose part is not canonical sends None, so this process parses
    # its own part only and then runs the row loop once.
    rows_calls = count_row_loops(monkeypatch)
    parts = dealt_parts(monkeypatch)
    parsed, parse, parent = [], corpus._canonical_blocks, os.getpid()

    def parse_and_note(run, *args):
        if os.getpid() == parent:
            parsed.append(bytes(run))  # a copy: the reader reads into one buffer
        return parse(run, *args)

    monkeypatch.setattr(corpus, "_canonical_blocks", parse_and_note)
    path = tmp_path / "pred.csv"
    path.write_text(HEADER + PART_ROWS.replace("c,5,", '"c",5,'))  # the last row quotes its id
    want = stream_bits(_load_prediction_rows(path))
    for cpus in (2, 3, 4):
        use_parts(monkeypatch, cpus)
        parsed.clear()
        rows_calls.clear()
        parts.clear()
        assert stream_bits(load_predictions(path)) == want, cpus
        assert len(parts[0]) == cpus
        assert b"".join(parsed) == path.read_bytes()[:parts[0][0][-1]], cpus
        assert rows_calls == [path]
        assert_no_children()


def test_bulk_result_does_not_depend_on_the_read_size(tmp_path):
    # Reads from one byte, so each is one line, up to the whole file, in one
    # part and in parts.
    path = tmp_path / "pred.csv"
    spec = SynthSpec(video_count=6, frames_per_video=200, score_noise=0.2, seed=4)
    save_predictions(generate(spec).streams, path)
    data = path.read_bytes()
    want = stream_bits(_load_prediction_rows(path))
    for read_bytes in [*read_sizes(data), 1 << 10, 4099]:
        for parts in (1, 2, 4):
            assert stream_bits(bulk_parse(path, read_bytes, parts)) == want, (read_bytes, parts)
            assert_no_children()


def test_a_line_longer_than_a_read_is_parsed_in_bulk(tmp_path, monkeypatch):
    # A line longer than _READ_BYTES is one read, parsed in bulk like any
    # other, so it gives the row loop's streams without the row loop.
    rows_calls = count_row_loops(monkeypatch)
    long_id = "v" * 100
    path = tmp_path / "pred.csv"
    later = "".join(f"x{row}" for row in PART_ROWS.splitlines(keepends=True))  # ids xa, xb, xc
    path.write_text(HEADER + PART_ROWS + f"{long_id},9,0.5\n{long_id},10,0.25\n" + later)
    want = stream_bits(_load_prediction_rows(path))
    line = len(f"{long_id},10,0.25\n")
    for cpus in (1, 2, 4):
        for read_bytes in (1, line - 1, line):  # the long lines longer than a read, and not
            use_parts(monkeypatch, cpus, read_bytes)
            rows_calls.clear()
            assert stream_bits(load_predictions(path)) == want, (cpus, read_bytes)
            assert rows_calls == [], (cpus, read_bytes)
            assert_no_children()


def test_parts_stop_inside_a_child_part(tmp_path, monkeypatch):
    # The join stops late in the second part's blocks, while the children
    # after it still wait to send more than a pipe holds; they are stopped
    # and reaped, and the row loop reads the file.
    use_parts(monkeypatch, 4, read_bytes=1 << 12)
    parts = dealt_parts(monkeypatch)
    videos = [(f"v{i}", range(3000)) for i in range(8)]  # 6,000 rows, 96 KB of arrays a part
    path = tmp_path / "pred.csv"
    cases = [  # (the last 100 rows of v3, the row loop's result)
        (("v0", range(3000, 3100)), "v0 comes back"),
        (("v3", range(2901, 3001)), "anchor 2899 is followed by 2901"),
    ]
    for late, result in cases:
        rows = [*videos[:3], ("v3", range(2900)), late, *videos[4:]]
        path.write_text(HEADER + "".join(f"{v},{a},0.5\n" for v, anchors in rows for a in anchors))
        data = path.read_bytes()
        parts.clear()
        if result == "v0 comes back":
            want = stream_bits(_load_prediction_rows(path))
            assert [v for v, *_ in want] == [f"v{i}" for i in range(8)]
            assert stream_bits(load_predictions(path)) == want
        else:
            with pytest.raises(CorpusFormatError, match=result):
                load_predictions(path)
        starts = [part[0] for part in parts[0]]
        assert len(starts) == 4 and starts[1] < data.index(f"{late[0]},{late[1][0]},".encode()) < starts[2]
        assert_no_children()


def test_parts_reap_children_when_the_parse_raises(tmp_path, monkeypatch):
    path = tmp_path / "pred.csv"
    path.write_text(HEADER + PART_ROWS)
    parse = corpus._canonical_blocks
    parent = os.getpid()

    def parse_or_raise(*args, **kwargs):  # raises in this process, not in the children
        if os.getpid() == parent:
            raise MemoryError("the first part fails")
        return parse(*args, **kwargs)

    monkeypatch.setattr(corpus, "_canonical_blocks", parse_or_raise)
    use_parts(monkeypatch, 4)
    with pytest.raises(MemoryError, match="the first part fails"):
        load_predictions(path)
    assert_no_children()


def test_cli_evaluate_on_parts(tmp_path, monkeypatch, capsys):
    data = tmp_path / "corpus"
    assert main(["synth", "--videos", "5", "--frames", "300", "--near-fp-rate", "1",
                 "--seed", "3", "--out", str(data)]) == 0
    args = ["evaluate", "--annotations", str(data / "annotations.jsonl"),
            "--predictions", str(data / "predictions.csv"), "--w-seconds", "0.3",
            "--t-pred", "0.4", "--out", str(tmp_path / "out")]
    parts = dealt_parts(monkeypatch)
    outputs = []
    for cpus in (1, 2, 4):
        use_parts(monkeypatch, cpus, read_bytes=1 << 10)
        capsys.readouterr()
        parts.clear()
        assert main(args) == 0
        assert len(parts) == 1 and len(parts[0]) == cpus
        assert_no_children()
        outputs.append((capsys.readouterr(), {p.name: p.read_bytes()
                                              for p in (tmp_path / "out").iterdir()}))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_save_predictions_peak_memory(tmp_path):
    # Formatting _ROWS_PER_WRITE rows holds about 160 bytes a row; listing a
    # whole 100k-row video first would hold 9 MB.
    stream = PredictionStream("v", 0, np.random.default_rng(5).random(100_000))
    tracemalloc.start()
    try:
        save_predictions([stream], tmp_path / "pred.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_save_predictions_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(8)
    long_scores = rng.random(2 * _ROWS_PER_WRITE + 5)
    long_scores[::7] = np.resize(TRICKY_SCORES, long_scores[::7].size)
    streams = [
        PredictionStream("a,b", 9, TRICKY_SCORES),
        PredictionStream('say "hi"', 3, [0.5, 0.25]),
        PredictionStream("two\nlines", 0, [1.0]),
        PredictionStream("cr\rid", 0, [0.0]),
        PredictionStream("", 4, [0.1]),
        PredictionStream(" é 中 ", 4, [0.1]),
        PredictionStream("long", 0, long_scores),
    ]
    path = tmp_path / "pred.csv"
    save_predictions(streams, path)
    assert path.read_bytes() == reference_csv(streams)
    assert b'\n"cr\rid",0,0.0\n' in path.read_bytes()


# -- the write in pieces --------------------------------------------------------

WRITE_STREAMS = [  # pieces of 3 rows or more join videos and cut them
    PredictionStream("a,b", 9, TRICKY_SCORES),
    PredictionStream("", 4, [0.1]),
    PredictionStream("100%", 0, []),
    PredictionStream('say "hi"', 3, [0.5, 0.25]),
    PredictionStream("%d %r %%", 7, [0.75]),
    PredictionStream(" é 中 ", 4, [0.1]),
    PredictionStream("two\nlines", 0, [1.0, 0.0, 0.5, 1e-05]),
    PredictionStream("cr\rid", 0, []),
    PredictionStream("plain", 0, np.linspace(0.0, 1.0, 20)),
]
WRITE_ROWS = sum(len(stream) for stream in WRITE_STREAMS)


def use_pieces(monkeypatch, cpus, rows=3):
    """Let save_predictions cut its rows into pieces of ``rows`` and format
    them on ``cpus`` processes."""
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(corpus, "_ROWS_PER_WRITE", rows)


def test_pieces_cut_the_rows_in_file_order():
    for rows in (1, 3, 7, 36, 1000):
        pieces = list(corpus._pieces(WRITE_STREAMS, rows))
        sizes = [sum(hi - lo for _, lo, hi in piece) for piece in pieces]
        assert sizes[:-1] == [rows] * (len(pieces) - 1) and 0 < sizes[-1] <= rows
        ranges = [(stream.video_id, lo, hi) for piece in pieces for stream, lo, hi in piece]
        assert all(lo < hi for _, lo, hi in ranges)
        joined = [(video_id, row) for video_id, lo, hi in ranges for row in range(lo, hi)]
        assert joined == [(s.video_id, row) for s in WRITE_STREAMS for row in range(len(s))]
    pieces = list(corpus._pieces(WRITE_STREAMS, 3))
    assert any(len(piece) > 2 for piece in pieces)  # one piece holds three videos
    assert sum(stream.video_id == "plain" for piece in pieces for stream, _, _ in piece) > 2
    assert list(corpus._pieces([PredictionStream("e", 0, [])], 3)) == []


def test_write_in_pieces_gives_the_same_bytes(tmp_path, monkeypatch):
    path = tmp_path / "pred.csv"
    want = reference_csv(WRITE_STREAMS)
    forks = count_forks(monkeypatch)
    for cpus, rows in itertools.product((1, 2, 3, 4), (1, 3, 7, 1000)):
        use_pieces(monkeypatch, cpus, rows)
        for streams in (WRITE_STREAMS, iter(WRITE_STREAMS)):
            forks.clear()
            save_predictions(streams, path)
            assert_no_children()
            assert path.read_bytes() == want, (cpus, rows)
            assert len(forks) == min(cpus, -(-WRITE_ROWS // rows)) - 1, (cpus, rows)
        for empty in ([], [PredictionStream("e", 0, [])]):
            save_predictions(empty, path)
            assert path.read_bytes() == HEADER.encode()
    assert not forks  # no fork for a file with no piece


def test_write_in_pieces_survives_failing_children(tmp_path, monkeypatch):
    path = tmp_path / "pred.csv"
    want = reference_csv(WRITE_STREAMS)
    format_piece, parent = corpus._format_piece, os.getpid()
    sent = [0]  # the pieces a child has formatted: each counts in its own copy

    def fail_after(k):
        def format_or_fail(piece):
            if os.getpid() != parent:
                if sent[0] == k:
                    raise RuntimeError(f"the child fails after {k} pieces")
                sent[0] += 1
            return format_piece(piece)
        return format_or_fail

    for k in (0, 1, 2):
        monkeypatch.setattr(corpus, "_format_piece", fail_after(k))
        for cpus in (2, 3, 4):
            use_pieces(monkeypatch, cpus)
            save_predictions(WRITE_STREAMS, path)
            assert_no_children()
            assert path.read_bytes() == want, (k, cpus)
    monkeypatch.setattr(corpus, "_format_piece", format_piece)
    # With no process to fork, or none after the first child, this one formats the rest.
    fork = os.fork
    for spare in (0, 1):
        forks = [spare]

        def fork_while_spare():
            if not forks[0]:
                raise BlockingIOError("no process to spare")
            forks[0] -= 1
            return fork()

        monkeypatch.setattr(os, "fork", fork_while_spare)
        use_pieces(monkeypatch, 4)
        save_predictions(WRITE_STREAMS, path)
        assert_no_children()
        assert path.read_bytes() == want, spare


def test_write_in_pieces_reaps_children_when_this_process_raises(tmp_path, monkeypatch):
    use_pieces(monkeypatch, 4)
    if os.path.exists("/dev/full"):  # every write fails there
        with pytest.raises(OSError, match="No space left"):
            save_predictions(WRITE_STREAMS, "/dev/full")
        assert_no_children()
    format_piece = corpus._format_piece
    parent = os.getpid()

    def format_or_raise(piece):  # raises in this process, not in the children
        if os.getpid() == parent:
            raise MemoryError("this process fails")
        return format_piece(piece)

    monkeypatch.setattr(corpus, "_format_piece", format_or_raise)
    with pytest.raises(MemoryError, match="this process fails"):
        save_predictions(WRITE_STREAMS, tmp_path / "pred.csv")
    assert_no_children()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="threads are counted in /proc")
def test_forks_leave_one_thread(tmp_path, monkeypatch):
    # Python 3.12+ warns that a fork may deadlock when the process has more
    # than one thread right after os.fork runs its at-fork handlers (numpy's
    # OpenBLAS joins its threads in one of them), so count them there.
    fork, threads = os.fork, []

    def fork_and_count():
        pid = fork()
        if pid:
            with open("/proc/self/status", encoding="ascii") as status:
                threads.extend(int(line.split()[1]) for line in status if line.startswith("Threads:"))
        return pid

    monkeypatch.setattr(os, "fork", fork_and_count)
    use_pieces(monkeypatch, 2)
    path = tmp_path / "pred.csv"
    save_predictions(WRITE_STREAMS, path)
    assert threads == [1]
    path.write_text(HEADER + PART_ROWS)
    use_parts(monkeypatch, 2)
    assert stream_bits(load_predictions(path)) == stream_bits(_load_prediction_rows(path))
    assert threads == [1, 1]
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 1)  # a chunk per video
    videos = list(generate(SynthSpec(video_count=2, frames_per_video=60)).pairs())
    want = combine(evaluate_video(s, a, identity_filter()) for s, a in videos)
    assert tuning.filter_counts(videos, identity_filter()) == (want.stack_counts, want.alarm_counts)
    assert threads == [1, 1, 1]
    records = [(s.video_id, r) for s, a in videos
               for r in evaluate_video(s, a, identity_filter()).fp_offsets]
    assert tuning.false_alarm_offsets(videos, identity_filter()) == records
    assert threads == [1, 1, 1]
    assert_no_children()


def test_cli_synth_in_pieces(tmp_path, monkeypatch, capsys):
    out = tmp_path / "corpus"
    args = ["synth", "--videos", "5", "--frames", "300", "--near-fp-rate", "1", "--seed", "3",
            "--out", str(out)]
    outputs = []
    for cpus in (1, 2, 4):
        use_pieces(monkeypatch, cpus, rows=100)  # 5 videos of 291 rows: 15 pieces
        capsys.readouterr()
        assert main(args) == 0
        assert_no_children()
        outputs.append((capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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
    sizes = [list(assignment.folds.values()).count(f) for f in range(5)]
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
