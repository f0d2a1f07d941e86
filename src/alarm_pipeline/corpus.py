"""Ground-truth data model, corpus file IO, stack labeling, and fold assignment.

A "stack" is the classifier's prediction unit: a window of consecutive frames
anchored at its last frame, so the stack at anchor ``f`` covers frames
``[f - (L - 1), f]``. Scores are the model's No-Fall probability; frame
intervals are inclusive on both ends and 0-based throughout.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import json
import math
import random
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CorpusFormatError, InfeasibleError
from .forks import fork_map, usable_cpus


def _is_integer(value: object) -> bool:
    """An ``int`` or numpy integer; a bool is an int, but never a count or a frame."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """An ``int``, a ``float`` or a numpy integer or float; never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# The kind of JSON value each reader expects, by the name its messages give it.
_JSON_KINDS = {"a string": lambda value: isinstance(value, str), "a number": _is_number,
               "an integer": _is_integer}


def _kind_message(key: str, kind: str, value: object) -> str:
    """The message for a JSON ``value`` of ``key`` that is not ``kind``."""
    return f"key {key!r} must be {kind}, got {json.dumps(value)}"


def _record_error(record: Mapping, kinds: Mapping[str, str | None],
                  optional: Sequence[str] = ()) -> str | None:
    """What is wrong with JSON object ``record``, if anything: the keys of
    ``kinds`` it lacks, bar ``optional`` ones, else the first value, in the
    order of ``kinds``, that is not its kind (a kind of None takes any value)."""
    missing = [key for key in kinds if key not in record and key not in optional]
    wrong = (_kind_message(key, kind, record[key]) for key, kind in kinds.items()
             if kind and key in record and not _JSON_KINDS[kind](record[key]))
    return f"missing keys {missing}" if missing else next(wrong, None)


@dataclass(frozen=True)
class StackConfig:
    """Stack geometry: window length in frames (anchors advance with stride 1)."""

    stack_length: int = 10

    def __post_init__(self) -> None:
        if not _is_integer(self.stack_length):
            raise ValueError(f"stack_length must be an integer, got {self.stack_length!r}")
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
        # A value no number compares with, or int() cannot take, is left to
        # the kind check after each range check, which names it.
        with contextlib.suppress(TypeError):
            if not (0 < self.fps < math.inf):
                raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        if not _is_number(self.fps):
            raise ValueError(f"fps must be a number, got {self.fps!r}")
        with contextlib.suppress(TypeError):
            if not 1 <= self.frame_count < 2**63:  # every frame number then fits in int64
                raise ValueError(f"frame_count must be >= 1 and below 2**63, got {self.frame_count}")
        if not _is_integer(self.frame_count):
            raise ValueError(f"frame_count must be an integer, got {self.frame_count!r}")
        intervals = []
        prev_end = -1
        for s, e in _pairs(self.fall_intervals):
            with contextlib.suppress(TypeError):
                int(s), int(e)  # a value int() refuses, such as "x", fails as it always has
            if not (_is_integer(s) and _is_integer(e)):
                raise ValueError(f"fall interval bounds must be integers, got {(s, e)!r}")
            start, end = int(s), int(e)
            if start > end:
                raise ValueError(f"fall interval [{start}, {end}] starts after it ends")
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
            intervals.append((start, end))
        object.__setattr__(self, "fall_intervals", tuple(intervals))
        if not self.group_id:
            object.__setattr__(self, "group_id", self.video_id)


def _pairs(intervals: object) -> Iterator[tuple[object, object]]:
    """The ``(start, end)`` pairs of ``intervals`` as a ``for s, e in``
    loop takes them, but ValueError where it or a pair is not iterable."""
    try:
        for start, end in intervals:
            yield start, end
    except TypeError:
        raise ValueError(f"fall_intervals must hold (start, end) pairs, got {intervals!r}") from None


@dataclass
class PredictionStream:
    """Per-stack No-Fall scores for one video, one a frame from ``first_anchor``.

    Stacks advance with stride 1, so score ``i`` belongs to the stack
    anchored at frame ``first_anchor + i`` and a stream cannot skip a frame;
    the loaders reject a file whose anchors do. Every anchor fits in int64.
    """

    video_id: str
    first_anchor: int
    scores: np.ndarray

    def __post_init__(self) -> None:
        if not _is_integer(self.first_anchor):
            raise ValueError(f"first_anchor must be an integer, got {self.first_anchor!r}")
        self.first_anchor = int(self.first_anchor)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise ValueError("scores must be 1-D")
        if not -(2**63) <= self.first_anchor <= 2**63 - max(len(self), 1):
            raise ValueError(
                f"anchors of video {self.video_id!r} must fit in 64 bits, but "
                f"{len(self)} from {self.first_anchor} do not"
            )
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):  # NaN fails both
            raise ValueError(f"scores must lie in [0, 1] in {self.video_id!r}")

    @property
    def anchor_frames(self) -> np.ndarray:
        """The anchor of each score, ``first_anchor`` onwards by 1 (made on each read)."""
        return np.arange(len(self), dtype=np.int64) + self.first_anchor

    def __len__(self) -> int:
        return int(self.scores.size)


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
    ``s <= anchor`` and ``anchor - (L - 1) <= e``; with anchors advancing by
    1 those stacks are one index range, empty (``lo == hi``) when no span
    reaches the fall. Nothing is added to a fall's bounds, so a fall at the
    end of the int64 range does not wrap.
    """
    falls = np.asarray(fall_intervals, dtype=np.int64).reshape(-1, 2)
    anchors = np.asarray(anchor_frames, dtype=np.int64)
    lo = anchors.searchsorted(falls[:, 0])
    hi = (anchors - (stack_length - 1)).searchsorted(falls[:, 1], side="right")
    return np.stack([lo, hi], axis=1)


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

# JSON kind of each annotation value, in the order checked; fall_intervals has
# its own check and group_id may be absent.
_ANNOTATION_KINDS = {"video_id": "a string", "database_id": "a string", "fps": "a number",
                     "frame_count": "an integer", "fall_intervals": None, "group_id": "a string"}
_PREDICTION_HEADER = ["video_id", "anchor_frame", "score"]


# Bytes the loaders read, check and parse at a time.
_READ_BYTES = 1 << 20


def _check_utf8(path: Path) -> None:
    """Raise CorpusFormatError, with its line, at the first byte sequence of
    ``path`` that is not UTF-8; the file is decoded ``_READ_BYTES`` at a time.
    Lines end as in universal newlines mode: at ``\\n``, ``\\r\\n`` or ``\\r``."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, cr = 1, False  # cr: the last piece ended in "\r", so a "\n" first in this one ends no line
    with path.open("rb") as handle:
        while True:
            piece = handle.read(_READ_BYTES)
            try:
                decoder.decode(piece, final=not piece)
            except UnicodeDecodeError as exc:
                # exc.object: the bytes held back from the last piece, never a line end, and this one
                line += _line_ends(exc.object[:exc.start], cr)
                raise CorpusFormatError(f"invalid UTF-8 ({exc.reason})", path=str(path), line=line)
            if not piece:
                return
            line += _line_ends(piece, cr)
            cr = piece.endswith(b"\r")


def _line_ends(data: bytes, cr: bool) -> int:
    """The ``\\n``, ``\\r\\n`` and lone ``\\r`` line ends in ``data``, less a
    first ``\\n`` that ends the ``\\r`` before ``data`` if ``cr``."""
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends - (cr and data.startswith(b"\n"))


def _intervals_error(intervals: object) -> str | None:
    """What is wrong with the JSON kinds of an annotation's ``fall_intervals``, if anything."""
    for pair in intervals if isinstance(intervals, list) else [intervals]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_integer, pair))):
            return ("key 'fall_intervals' must be a list of [start, end] integer pairs, "
                    f"got {json.dumps(pair)}")
    return None


def load_annotations(path: str | Path) -> list[VideoAnnotation]:
    """Read an annotation JSONL file, validating every record."""
    path = Path(path)
    annotations: list[VideoAnnotation] = []
    seen: set[str] = set()
    _check_utf8(path)
    with path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON ({exc.msg})", path=str(path), line=line_no)
            if not isinstance(record, dict):
                raise CorpusFormatError("annotation record must be an object", path=str(path), line=line_no)
            problem = (_record_error(record, _ANNOTATION_KINDS, optional=("group_id",))
                       or _intervals_error(record["fall_intervals"]))
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
    strictly increasing anchor frames that advance by 1, as a
    :class:`PredictionStream` holds only its first anchor; a row out of
    order is reported with its line number, a gap with the video and the
    anchors around it. A file in the layout :func:`save_predictions`
    writes is parsed in bulk, in reads that each begin at a line start and
    end where the next begins, so its peak memory is about the returned
    scores plus a few reads of the file; any other file, and any file the
    bulk parse finds fault with, is read row by row, so both paths return
    the same streams and every error comes from the row loop. The row loop
    streams the file too, into scores of 8 bytes a row.

    The reads are cut once, before any parse: the first begins at 0 and each
    next one at the first line start at least ``_READ_BYTES`` after it, so a
    read is whole lines and a line longer than ``_READ_BYTES`` is one read.
    The bulk parse runs on the usable CPUs: the reads are dealt, as runs of
    consecutive whole reads, into ``min(usable CPUs, size // _READ_BYTES,
    reads)`` parts, and :func:`~alarm_pipeline.forks.fork_map` parses each
    part into raw blocks, one per video per read, each its first anchor and
    its scores. One join takes the blocks in file order and makes the
    consecutive blocks of one id a stream, so a video cut between reads and
    one cut between parts are the same case. An anchor gap, an id that
    comes back or a part that is not canonical sends the file to the row
    loop, so the result and the errors are those of a one-part parse.
    """
    path = Path(path)
    try:
        return _load_parts(path, _read_starts(path))
    except ValueError:  # the bulk parse leaves the file to the row loop
        return _load_prediction_rows(path)


def _read_starts(path: Path) -> list[int]:
    """The line starts of ``path`` where its reads begin: 0, then each first
    line start at least ``_READ_BYTES`` after the one before."""
    size, starts = path.stat().st_size, [0]
    with path.open("rb") as handle:
        while True:
            handle.seek(starts[-1] + _READ_BYTES - 1)
            handle.readline()
            if handle.tell() >= size:
                return starts
            starts.append(handle.tell())


def _load_parts(path: Path, starts: list[int]) -> list[PredictionStream]:
    """The bulk parse of ``path`` in the reads that begin at ``starts``,
    dealt in runs of whole reads to the parts :func:`load_predictions`
    names and joined in file order; raises ValueError to use the row loop."""
    bounds = [*starts, path.stat().st_size]
    count = max(1, min(usable_cpus(), bounds[-1] // _READ_BYTES, len(starts)))
    parts = [bounds[len(starts) * i // count:len(starts) * (i + 1) // count + 1]
             for i in range(count)]
    with contextlib.closing(fork_map(lambda reads: _part_blocks(path, reads), parts)) as lists:
        return _streams(_drained(lists))


def _drained(lists: Iterable[list[_Block] | None]) -> Iterator[_Block]:
    """The blocks of ``lists`` in order, each taken out of its list, so a
    block is freed once :func:`_streams` has joined it; ValueError at a
    part that is not canonical (None)."""
    for blocks in lists:
        if blocks is None:
            raise ValueError("not canonical: a part")
        blocks.reverse()
        while blocks:
            yield blocks.pop()


def _part_blocks(path: Path, reads: Sequence[int]) -> list[_Block] | None:
    """:func:`_canonical_blocks` of each read of ``path`` from ``reads[i]``
    to ``reads[i + 1]``, or None where they are not canonical. Each read
    goes by ``readinto`` into one ``bytearray`` kept for the part and is
    parsed through one ``io.BytesIO`` kept for the part too, so a read
    allocates no buffer of its own but where it is the longest yet; its
    lines are copied once, into the parser's."""
    blocks: list[_Block] = []
    run = bytearray(reads[1] - reads[0])
    text = io.BytesIO()
    with path.open("rb") as handle:
        handle.seek(reads[0])
        for start, end in zip(reads, reads[1:]):
            run += bytes(max(end - start - len(run), 0))
            del run[end - start:]
            del run[handle.readinto(run):]
            try:
                blocks += _canonical_blocks(run, start == 0, text)
            except ValueError:
                return None
    return blocks


_CANONICAL_HEADER = (",".join(_PREDICTION_HEADER) + "\n").encode()
# Up to 1024 rows of one video's block in the canonical layout: rows
# ``id,<digits>,<number>\n`` that all repeat the first row's id. Anything
# else ends the match. The bound keeps the regex engine's backtracking
# state, about 270 bytes a row, small; the next match goes on with the block.
_CANONICAL_BLOCK = re.compile(
    rb"([^,\n]*),[0-9]+,[0-9.eE+-]+\n(?:\1,[0-9]+,[0-9.eE+-]+\n){0,1023}"
)
# A block: the UTF-8 id, first anchor and scores of rows of one video.
_Block = tuple[bytes, int, np.ndarray]


def _canonical_blocks(run: bytes | bytearray, header: bool, text: io.BytesIO) -> list[_Block]:
    """Bulk parse of ``run``, whole lines of a canonical prediction file
    that start with the header line if ``header``: one block per video.
    ``np.loadtxt`` reads the lines from ``text``, which they overwrite.

    Canonical means the header line, ``\\n`` line endings, no quote and no
    ``\\r`` anywhere, and each video's rows in one block. Every row is
    checked to have three fields and ASCII numerals before ``np.loadtxt``
    parses the anchor and score columns of the run (scores with CPython's
    own float parser, so they match ``float()`` bit for bit); the check
    stays, as ``np.loadtxt`` alone takes the score ``0.5\\x1c``, which
    ``float()`` rejects. A block's
    anchors must advance by 1; it keeps its first anchor and a copy of its
    scores, and the run's table is dropped. Raises ValueError on no line, a
    quote, a ``\\r``, a wrong header, an anchor that does not follow the
    one before it in its block, or anything else the row loop might treat
    differently or reject; the id's encoding, score range and the join of a
    video's blocks are left to :func:`_streams`.
    """
    if not run or b'"' in run or b"\r" in run:
        raise ValueError("not canonical: no line, a quote or a carriage return")
    if header and not run.startswith(_CANONICAL_HEADER):
        raise ValueError("not canonical: header")
    ids: list[bytes] = []  # the id of each block in the run
    ends: list[int] = []  # the rows of the run up to each block's end
    pos = len(_CANONICAL_HEADER) if header else 0
    rows = 0
    while pos < len(run):
        block = _CANONICAL_BLOCK.match(run, pos)
        if block is None:
            raise ValueError("not canonical: a row")
        rows += run.count(b"\n", pos, block.end())
        if ids and ids[-1] == block.group(1):  # the block goes on
            ends[-1] = rows
        else:
            ids.append(block.group(1))
            ends.append(rows)
        pos = block.end()
    if not rows:
        return []
    text.seek(0)
    text.write(run)
    text.truncate()
    text.seek(0)
    table = np.loadtxt(
        text, delimiter=",", usecols=(1, 2), comments=None, skiprows=int(header),
        dtype=[("anchor", np.int64), ("score", np.float64)], ndmin=1,
    )
    if len(table) != rows:
        raise ValueError("not canonical: a row loadtxt reads differently")
    anchors = table["anchor"]
    steps = np.diff(anchors) == 1
    steps[np.array(ends[:-1], dtype=np.int64) - 1] = True  # one block's last row to the next's first
    if not steps.all():
        raise ValueError("not canonical: anchors that do not advance by 1")
    return [(block_id, int(anchors[lo]), table["score"][lo:hi].copy())
            for block_id, lo, hi in zip(ids, [0, *ends], ends)]


def _streams(blocks: Iterable[_Block]) -> list[PredictionStream]:
    """The streams of ``blocks`` in file order, the consecutive blocks of one
    id joined into one stream (one block is not copied); ValueError if an id
    comes back after another or is not UTF-8, a block's first anchor does
    not follow the last of the block before it, or a stream is not valid."""
    streams: dict[bytes, PredictionStream] = {}
    for video_id, run in itertools.groupby(blocks, key=lambda block: block[0]):
        if video_id in streams:
            raise ValueError("not canonical: an id comes back")
        _, first, scores = next(run)
        parts, end = [scores], first + len(scores)
        for _, anchor, scores in run:
            if anchor != end:
                raise ValueError("not canonical: blocks of a video that do not continue")
            parts.append(scores)
            end += len(scores)
        scores = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts  # the joined blocks are freed before the stream's checks
        streams[video_id] = PredictionStream(video_id.decode("utf-8"), first, scores)
    return list(streams.values())


def _load_prediction_rows(path: Path) -> list[PredictionStream]:
    """Row-by-row reader for any prediction CSV; the only one that reports
    errors. The file is read as a stream and each video's scores are kept in
    a typed buffer, 8 bytes a row. A row's error is raised at its line; an
    anchor gap, once every row is read, at the first gap of the first video
    that has one, without a line."""
    _check_utf8(path)
    scores: dict[str, array] = {}  # video id -> its scores; in file order
    first: dict[str, int] = {}  # video id -> its first anchor
    last: dict[str, int] = {}  # video id -> its last anchor so far
    gaps: dict[str, tuple[int, int]] = {}  # video id -> the anchors around its first gap
    with path.open(encoding="utf-8", newline="") as handle:
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
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num  # the line the row ends on: an id may hold a line break
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
            if video_id not in last:
                first[video_id] = anchor
                scores[video_id] = array("d")
            elif anchor <= last[video_id]:
                raise CorpusFormatError(
                    f"anchor {anchor} not increasing for video {video_id!r}", path=str(path), line=line_no
                )
            elif anchor != last[video_id] + 1 and video_id not in gaps:
                gaps[video_id] = last[video_id], anchor
            last[video_id] = anchor
            scores[video_id].append(score)
    for video_id in first:
        if video_id in gaps:
            raise CorpusFormatError(
                f"anchors of video {video_id!r} must advance by 1, but anchor "
                f"{gaps[video_id][0]} is followed by {gaps[video_id][1]}",
                path=str(path),
            )
    return [PredictionStream(v, first[v], np.frombuffer(scores[v], dtype=np.float64))
            for v in first]


# Rows in one piece of the file save_predictions writes: a process formats
# a piece into one string, so this bounds each one's memory.
_ROWS_PER_WRITE = 1 << 12
# A piece: the rows [lo, hi) of each of its streams, in file order.
_Piece = list[tuple[PredictionStream, int, int]]


def save_predictions(streams: Iterable[PredictionStream], path: str | Path) -> None:
    """Write prediction streams as canonical CSV (shortest round-trip floats).

    The rows are cut in file order into pieces of ``_ROWS_PER_WRITE`` rows;
    a piece may end one video and start the next, and a long video spans
    several. Each piece is formatted as one string, with each id quoted once
    by the same ``csv.writer`` dialect, so the bytes equal a row-by-row write
    and peak memory is about one piece per process. The pieces are formatted
    on the usable CPUs by :func:`~alarm_pipeline.forks.fork_map` and written
    in order, so the bytes are the same on any number of CPUs.
    """
    pieces = list(_pieces(streams, _ROWS_PER_WRITE))  # a failing iterable leaves the file alone
    with Path(path).open("wb") as handle, \
            contextlib.closing(fork_map(_format_piece, pieces)) as formatted:
        handle.write(_CANONICAL_HEADER)
        handle.writelines(formatted)


def _pieces(streams: Iterable[PredictionStream], rows: int) -> Iterator[_Piece]:
    """The rows of ``streams`` in file order, cut into pieces of ``rows``
    rows (the last may have fewer); a piece holds no empty range."""
    piece: _Piece = []
    room = rows
    for stream in streams:
        lo = 0
        while lo < len(stream):
            hi = min(lo + room, len(stream))
            piece.append((stream, lo, hi))
            room -= hi - lo
            lo = hi
            if not room:
                yield piece
                piece, room = [], rows
    if piece:
        yield piece


def _format_piece(piece: _Piece) -> bytes:
    """The UTF-8 CSV rows of a piece (see :func:`_pieces`)."""
    lines: list[str] = []
    for stream, lo, hi in piece:
        video_id = _csv_field(stream.video_id)
        rows = zip(range(stream.first_anchor + lo, stream.first_anchor + hi),
                   stream.scores[lo:hi].tolist())
        lines += [f"{video_id},{a},{s!r}\n" for a, s in rows]
    return "".join(lines).encode()


def _csv_field(value: str) -> str:
    """``value`` as one field of a CSV row of several, quoted where csv needs it."""
    buffer = io.StringIO()
    # csv.writer quotes the characters of its line terminator; "\n" alone would leave "\r" bare
    csv.writer(buffer, lineterminator="\r\n").writerow([value, ""])
    return buffer.getvalue()[:-3]
