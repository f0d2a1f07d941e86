"""Ground-truth data model, corpus file IO, stack labeling, and fold assignment.

A "stack" is the classifier's prediction unit: a window of consecutive frames
anchored at its last frame, so the stack at anchor ``f`` covers frames
``[f - (L - 1), f]``. Scores are the model's No-Fall probability; frame
intervals are inclusive on both ends and 0-based throughout.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CorpusFormatError, InfeasibleError


@dataclass(frozen=True)
class StackConfig:
    """Stack geometry: window length in frames (anchors advance with stride 1)."""

    stack_length: int = 10

    def __post_init__(self) -> None:
        if self.stack_length < 1:
            raise ValueError(f"stack_length must be >= 1, got {self.stack_length}")


@dataclass(frozen=True)
class VideoAnnotation:
    """Per-video ground truth: fall intervals over a known frame range.

    ``fall_intervals`` are inclusive ``(start, end)`` frame pairs, sorted and
    pairwise disjoint. An empty list marks a daily-life video with no fall.
    ``group_id`` ties derived sequences (pre-fall/fall/post-fall cuts, camera
    views) back to their parent recording for fold assignment; it defaults to
    the video's own id.
    """

    video_id: str
    database_id: str
    fps: float
    frame_count: int
    fall_intervals: tuple[tuple[int, int], ...] = ()
    group_id: str = ""

    def __post_init__(self) -> None:
        if not self.video_id:
            raise ValueError("video_id must be non-empty")
        if not (0 < self.fps < math.inf):
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        intervals = tuple((int(s), int(e)) for s, e in self.fall_intervals)
        object.__setattr__(self, "fall_intervals", intervals)
        prev_end = -1
        for start, end in intervals:
            if not (0 <= start <= end < self.frame_count):
                raise ValueError(
                    f"fall interval [{start}, {end}] outside frames [0, {self.frame_count})"
                )
            if start <= prev_end:
                raise ValueError(
                    f"fall intervals must be sorted and disjoint; [{start}, {end}] "
                    f"follows an interval ending at {prev_end}"
                )
            prev_end = end
        if not self.group_id:
            object.__setattr__(self, "group_id", self.video_id)


@dataclass
class PredictionStream:
    """Per-stack No-Fall scores for one video, keyed by anchor frames advancing by 1."""

    video_id: str
    anchor_frames: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.anchor_frames = np.asarray(self.anchor_frames, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.anchor_frames.shape != self.scores.shape or self.anchor_frames.ndim != 1:
            raise ValueError("anchor_frames and scores must be 1-D and the same length")
        skips = np.diff(self.anchor_frames) != 1
        if skips.any():
            gap = int(skips.argmax())
            raise ValueError(
                f"anchors of video {self.video_id!r} must advance by 1, but anchor "
                f"{self.anchor_frames[gap]} is followed by {self.anchor_frames[gap + 1]}"
            )
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):  # NaN fails both
            raise ValueError(f"scores must lie in [0, 1] in {self.video_id!r}")

    def __len__(self) -> int:
        return int(self.anchor_frames.size)


@dataclass(frozen=True)
class FoldAssignment:
    """Video -> fold mapping produced by :func:`assign_folds`."""

    k: int
    seed: int
    folds: Mapping[str, int]


def _covered_spans(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted disjoint fall intervals with each run of touching ones merged."""
    spans: list[tuple[int, int]] = []
    for start, end in intervals:
        if spans and start == spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], end)
        else:
            spans.append((start, end))
    return spans


def stack_label_masks(
    annotation: VideoAnnotation,
    anchor_frames: np.ndarray,
    config: StackConfig = StackConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """``(fall, transition)`` masks of the stacks at ``anchor_frames``.

    A stack, span ``[anchor - (L - 1), anchor]``, is FALL if all its frames
    are fall frames (touching intervals cover one unbroken span), NO_FALL if
    none is, TRANSITION otherwise. Raises IndexError if a span leaves the frames.
    """
    anchors = np.asarray(anchor_frames, dtype=np.int64)
    lo = anchors - (config.stack_length - 1)
    if anchors.size:
        if lo.min() < 0 or anchors.max() >= annotation.frame_count:
            bad = int(anchors[(lo < 0) | (anchors >= annotation.frame_count)][0])
            raise IndexError(
                f"stack at anchor {bad} leaves frames [0, {annotation.frame_count}) "
                f"of {annotation.video_id!r}"
            )
    fall = np.zeros(anchors.shape, dtype=bool)
    touches = np.zeros(anchors.shape, dtype=bool)
    for start, end in _covered_spans(annotation.fall_intervals):
        fall |= (lo >= start) & (anchors <= end)
        touches |= (lo <= end) & (anchors >= start)
    return fall, touches & ~fall


def fall_stack_ranges(
    fall_intervals: Sequence[tuple[int, int]],
    anchor_frames: np.ndarray,
    stack_length: int,
) -> np.ndarray:
    """``(falls, 2)`` half-open ranges ``[lo, hi)`` of the stacks whose span
    overlaps each fall, as indices into ``anchor_frames``.

    A span ``[anchor - (L - 1), anchor]`` overlaps fall ``(s, e)`` when
    ``s <= anchor < e + L``; with anchors advancing by 1 those stacks are one
    index range, empty (``lo == hi``) when no span reaches the fall.
    """
    falls = np.asarray(fall_intervals, dtype=np.int64).reshape(-1, 2)
    return np.asarray(anchor_frames, dtype=np.int64).searchsorted(falls + (0, stack_length))


def assign_folds(groups: Mapping[str, str], k: int = 5, seed: int = 0) -> FoldAssignment:
    """Assign videos to ``k`` folds without ever splitting a parent group.

    ``groups`` maps video_id -> group_id. Groups are shuffled with
    ``random.Random(seed)`` (Mersenne Twister, so the mapping is reproducible
    across platforms) and dealt round-robin, which balances folds by group
    count to within one group.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    group_ids = sorted(set(groups.values()))
    if len(group_ids) < k:
        raise InfeasibleError(
            f"cannot split {len(group_ids)} parent groups into {k} folds"
        )
    rng = random.Random(seed)
    rng.shuffle(group_ids)
    group_fold = {g: i % k for i, g in enumerate(group_ids)}
    folds = {video: group_fold[group] for video, group in groups.items()}
    return FoldAssignment(k=k, seed=seed, folds=folds)


# -- file formats -------------------------------------------------------------
#
# Annotations: JSON Lines, one object per video.
# Predictions: CSV with header video_id,anchor_frame,score.
# Both writers emit a canonical byte layout so save -> load -> save is a
# fixed point (useful for golden files and reproducibility checks).

# JSON type of each annotation value besides fall_intervals; group_id may be absent.
_ANNOTATION_TYPES = {"video_id": str, "database_id": str, "fps": float, "frame_count": int,
                     "group_id": str}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}
_PREDICTION_HEADER = ["video_id", "anchor_frame", "score"]


def _read_text(path: Path, newline: str | None) -> io.StringIO:
    """The file decoded as UTF-8, read like ``path.open(newline=newline)``."""
    data = path.read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"invalid UTF-8 ({exc.reason})", path=str(path), line=line)


def _annotation_type_error(record: dict) -> str | None:
    """What is wrong with the JSON types of ``record``, if anything; a boolean is no number."""
    def valid(value, kind) -> bool:
        return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
    for key, kind in _ANNOTATION_TYPES.items():
        if key in record and not valid(record[key], kind):
            return f"key {key!r} must be {_TYPE_NAMES[kind]}, got {json.dumps(record[key])}"
    intervals = record["fall_intervals"]
    for pair in intervals if isinstance(intervals, list) else [intervals]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(valid(b, int) for b in pair)):
            return ("key 'fall_intervals' must be a list of [start, end] integer pairs, "
                    f"got {json.dumps(pair)}")
    return None


def load_annotations(path: str | Path) -> list[VideoAnnotation]:
    """Read an annotation JSONL file, validating every record."""
    path = Path(path)
    annotations: list[VideoAnnotation] = []
    seen: set[str] = set()
    with _read_text(path, newline=None) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON ({exc.msg})", path=str(path), line=line_no)
            if not isinstance(record, dict):
                raise CorpusFormatError("annotation record must be an object", path=str(path), line=line_no)
            missing = [k for k in ("video_id", "database_id", "fps", "frame_count", "fall_intervals") if k not in record]
            if missing:
                raise CorpusFormatError(f"missing keys {missing}", path=str(path), line=line_no)
            problem = _annotation_type_error(record)
            if problem:
                raise CorpusFormatError(problem, path=str(path), line=line_no)
            try:
                annotation = VideoAnnotation(
                    video_id=record["video_id"],
                    database_id=record["database_id"],
                    fps=float(record["fps"]),
                    frame_count=record["frame_count"],
                    fall_intervals=record["fall_intervals"],
                    group_id=record.get("group_id", ""),
                )
            except (TypeError, ValueError) as exc:
                raise CorpusFormatError(
                    f"record {record.get('video_id', '?')!r}: {exc}", path=str(path), line=line_no
                )
            if annotation.video_id in seen:
                raise CorpusFormatError(
                    f"duplicate video_id {annotation.video_id!r}", path=str(path), line=line_no
                )
            seen.add(annotation.video_id)
            annotations.append(annotation)
    return annotations


def save_annotations(annotations: Iterable[VideoAnnotation], path: str | Path) -> None:
    """Write annotations as canonical JSONL (fixed key order, one video per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for ann in annotations:
            record = {
                "video_id": ann.video_id,
                "database_id": ann.database_id,
                "fps": ann.fps,
                "frame_count": ann.frame_count,
                "fall_intervals": [[s, e] for s, e in ann.fall_intervals],
                "group_id": ann.group_id,
            }
            handle.write(json.dumps(record, separators=(", ", ": ")) + "\n")


def load_predictions(path: str | Path) -> list[PredictionStream]:
    """Read a prediction CSV, grouping rows into per-video streams.

    Rows of one video may be interleaved with other videos but must keep
    strictly increasing anchor frames; violations are reported with the
    offending line number. A file in the layout :func:`save_predictions`
    writes is parsed in bulk, ``_READ_BYTES`` at a time, so its peak memory
    is about the returned arrays plus a few pieces of the file; any other
    file, and any file the bulk parse finds fault with, is read row by row,
    so both paths return the same streams and every error comes from the
    row loop.
    """
    path = Path(path)
    with path.open("rb") as handle:
        streams = _load_canonical_predictions(iter(lambda: handle.read(_READ_BYTES), b""))
    return streams if streams is not None else _load_prediction_rows(path)


# Bytes the bulk loader reads and parses at a time.
_READ_BYTES = 1 << 20
_CANONICAL_HEADER = (",".join(_PREDICTION_HEADER) + "\n").encode()
# Up to 1024 rows of one video's block in the canonical layout: rows
# ``id,<digits>,<number>\n`` that all repeat the first row's id. Anything
# else ends the match. The bound keeps the regex engine's backtracking
# state, about 270 bytes a row, small; the next match goes on with the block.
_CANONICAL_BLOCK = re.compile(
    rb"([^,\n]*),[0-9]+,[0-9.eE+-]+\n(?:\1,[0-9]+,[0-9.eE+-]+\n){0,1023}"
)


def _canonical_runs(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """The rows after the header, in runs of whole lines, from ``pieces`` cut
    anywhere. Raises ValueError on a quote, a ``\\r``, a wrong or missing
    header, or a last line without ``\\n``, all of which the row loop reads."""
    header = True
    rest: list[bytes] = []  # the pieces of a line not yet ended
    for piece in pieces:
        if b'"' in piece or b"\r" in piece:
            raise ValueError("not canonical: quote or carriage return")
        cut = piece.rfind(b"\n") + 1
        if not cut:
            rest.append(piece)
            continue
        run = b"".join([*rest, memoryview(piece)[:cut]])
        rest = [piece[cut:]]
        del piece  # the run holds its lines
        if header:
            if not run.startswith(_CANONICAL_HEADER):
                raise ValueError("not canonical: header")
            run, header = run[len(_CANONICAL_HEADER):], False
        if run:
            yield run
    if header or any(rest):
        raise ValueError("not canonical: no header or no final newline")


def _load_canonical_predictions(pieces: Iterable[bytes]) -> list[PredictionStream] | None:
    """Bulk parse of a canonical prediction file given as byte pieces cut
    anywhere, or None to use the row loop.

    Canonical means the header line, ``\\n`` line endings, no quote and no
    ``\\r`` anywhere, and each video's rows in one block. Every row is
    checked to have three fields and ASCII numerals before ``np.loadtxt``
    parses the anchor and score columns of a run of whole lines (scores with
    CPython's own float parser, so they match ``float()`` bit for bit). Each
    video's rows are copied out of the run's table, and a video whose block
    goes on into the next run is joined when it ends. Score range and anchor
    order are left to :class:`PredictionStream`. Returns None, never raises,
    on anything the row loop might treat differently or reject.
    """
    streams: list[PredictionStream] = []
    seen: set[bytes] = set()
    video_id: bytes | None = None  # the open video, whose block may go on
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    try:
        for run in _canonical_runs(pieces):
            ids: list[bytes] = []  # the id of each block in the run
            ends: list[int] = []  # the rows of the run up to each block's end
            pos = rows = 0
            while pos < len(run):
                block = _CANONICAL_BLOCK.match(run, pos)
                if block is None:
                    return None
                rows += run.count(b"\n", pos, block.end())
                if ids and ids[-1] == block.group(1):  # the block goes on
                    ends[-1] = rows
                else:
                    ids.append(block.group(1))
                    ends.append(rows)
                pos = block.end()
            table = np.loadtxt(
                io.BytesIO(run), delimiter=",", usecols=(1, 2), comments=None,
                dtype=[("anchor", np.int64), ("score", np.float64)], ndmin=1,
            )
            if len(table) != rows:
                return None
            for block_id, lo, hi in zip(ids, [0, *ends], ends):
                if block_id != video_id:
                    if parts:
                        streams.append(_joined_stream(video_id, parts))
                    if block_id in seen:
                        return None
                    seen.add(block_id)
                    video_id, parts = block_id, []
                parts.append((table["anchor"][lo:hi].copy(), table["score"][lo:hi].copy()))
            del table  # freed before the next piece is read
        if parts:
            streams.append(_joined_stream(video_id, parts))
        return streams
    except ValueError:  # not canonical, unparsable number, id not UTF-8, score range, anchor order
        return None


def _joined_stream(video_id: bytes, parts: list[tuple[np.ndarray, np.ndarray]]) -> PredictionStream:
    """The stream of one video's ``(anchors, scores)`` parts; one part is not copied."""
    anchors, scores = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return PredictionStream(video_id.decode("utf-8"), anchors, scores)


def _load_prediction_rows(path: Path) -> list[PredictionStream]:
    """Row-by-row reader for any prediction CSV; the only one that reports errors."""
    order: list[str] = []
    anchors: dict[str, list[int]] = {}
    scores: dict[str, list[float]] = {}
    with _read_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError("empty prediction file", path=str(path), line=1)
        if header != _PREDICTION_HEADER:
            raise CorpusFormatError(
                f"expected header {','.join(_PREDICTION_HEADER)!r}, got {','.join(header)!r}",
                path=str(path),
                line=1,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CorpusFormatError(f"expected 3 columns, got {len(row)}", path=str(path), line=line_no)
            video_id, anchor_text, score_text = row
            try:
                anchor = int(anchor_text)
                score = float(score_text)
            except ValueError:
                raise CorpusFormatError(
                    f"bad anchor/score {anchor_text!r},{score_text!r} for video {video_id!r}",
                    path=str(path),
                    line=line_no,
                )
            if not -(2**63) <= anchor < 2**63:  # the int64 range of PredictionStream
                raise CorpusFormatError(
                    f"anchor {anchor} does not fit in 64 bits for video {video_id!r}",
                    path=str(path),
                    line=line_no,
                )
            if not (0.0 <= score <= 1.0):
                raise CorpusFormatError(
                    f"score {score} outside [0, 1] for video {video_id!r}", path=str(path), line=line_no
                )
            if video_id not in anchors:
                order.append(video_id)
                anchors[video_id] = []
                scores[video_id] = []
            elif anchors[video_id] and anchor <= anchors[video_id][-1]:
                raise CorpusFormatError(
                    f"anchor {anchor} not increasing for video {video_id!r}", path=str(path), line=line_no
                )
            anchors[video_id].append(anchor)
            scores[video_id].append(score)
    try:
        return [PredictionStream(v, np.array(anchors[v]), np.array(scores[v])) for v in order]
    except ValueError as exc:  # an anchor gap: rows are in range and increasing
        raise CorpusFormatError(str(exc), path=str(path))


# Rows formatted into one string by save_predictions; bounds its memory.
_ROWS_PER_WRITE = 1 << 14


def save_predictions(streams: Iterable[PredictionStream], path: str | Path) -> None:
    """Write prediction streams as canonical CSV (shortest round-trip floats).

    Each video's rows are listed and formatted as one string per chunk of
    ``_ROWS_PER_WRITE`` rows, so peak memory is a few chunks whatever the
    video's length; the id field is quoted once per video by the same
    ``csv.writer`` dialect, so the bytes equal a row-by-row write.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(_CANONICAL_HEADER.decode())
        for stream in streams:
            video_id = _csv_field(stream.video_id)
            anchors, scores = stream.anchor_frames, stream.scores
            for lo in range(0, len(anchors), _ROWS_PER_WRITE):
                hi = lo + _ROWS_PER_WRITE
                rows = zip(anchors[lo:hi].tolist(), scores[lo:hi].tolist())
                handle.write("".join([f"{video_id},{a},{s!r}\n" for a, s in rows]))


def _csv_field(value: str) -> str:
    """``value`` as one field of a CSV row of several, quoted where csv needs it."""
    buffer = io.StringIO()
    # csv.writer quotes the characters of its line terminator; "\n" alone would leave "\r" bare
    csv.writer(buffer, lineterminator="\r\n").writerow([value, ""])
    return buffer.getvalue()[:-3]
