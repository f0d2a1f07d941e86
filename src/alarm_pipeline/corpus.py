"""Ground-truth data model, corpus file IO, stack labeling, and fold assignment.

A "stack" is the classifier's prediction unit: a window of consecutive frames
anchored at its last frame, so the stack at anchor ``f`` covers frames
``[f - (L - 1), f]``. Scores are the model's No-Fall probability; frame
intervals are inclusive on both ends and 0-based throughout.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
import os
import random
import re
import signal
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

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
    row loop. The row loop streams the file too, into arrays of 16 bytes a
    row.

    The bulk parse runs on the usable CPUs: the file is cut at line starts
    into ``min(usable CPUs, size // _PART_BYTES)`` parts (one where the
    usable CPUs are unknown). A part is parsed into raw blocks, one per
    video per run of lines: this process parses the first part, and a forked
    child parses each other part whole before it sends its blocks down a
    pipe. One join takes the blocks in file order and makes the consecutive
    blocks of one id a stream, so a video cut between runs and one cut
    between parts are the same case. An id that comes back, a part that is
    not canonical or a child that fails sends the file to the row loop, so
    the result and the errors are those of a one-part parse. Every child is
    reaped before this returns or raises.
    """
    path = Path(path)
    try:
        return _load_parts(path, _part_starts(path))
    except (ValueError, EOFError):  # the bulk parse leaves the file to the row loop
        return _load_prediction_rows(path)


# The least bytes of the file per part; a child's fork and pipe transfer pay
# off only on parts this large.
_PART_BYTES = 1 << 20


def _part_starts(path: Path) -> list[int]:
    """Offsets of the line starts where the parts of ``path`` begin, the
    first 0; see :func:`load_predictions` for how many there are."""
    size = path.stat().st_size
    parts = min(_usable_cpus(), size // _PART_BYTES)
    starts = [0]
    if parts < 2:
        return starts
    with path.open("rb") as handle:
        for i in range(1, parts):
            pos = max(size * i // parts, starts[-1])
            handle.seek(pos)
            while chunk := handle.read(1 << 12):  # on to the start of the next line
                newline = chunk.find(b"\n")
                if newline >= 0:
                    pos += newline + 1
                    break
                pos += len(chunk)
            if pos >= size:
                break
            starts.append(pos)
    return starts


def _load_parts(path: Path, starts: list[int]) -> list[PredictionStream]:
    """The bulk parse of ``path`` in the parts that begin at ``starts``,
    joined in file order; raises ValueError or EOFError to use the row loop."""
    ends = [*starts[1:], None]
    children: dict[int, tuple[int, BinaryIO]] = {}  # part -> pid, pipe
    try:
        for i in range(1, len(starts)):
            try:
                children[i] = _fork(_send_blocks, path, starts[i], ends[i])
            except OSError:  # no process to spare: this one parses the rest
                break
        streams = _streams(itertools.chain.from_iterable(
            _receive_blocks(children[i][1]) if i in children else _part_blocks(path, start, ends[i])
            for i, start in enumerate(starts)))
        while children:  # each child must have sent its whole part
            if _reap(*children.popitem()[1], stop=False):
                raise ValueError("a child failed")
        return streams
    finally:
        for pid, pipe in children.values():  # stop and reap the children left
            _reap(pid, pipe)


def _part_blocks(path: Path, start: int, end: int | None) -> Iterator[_Block]:
    """:func:`_canonical_blocks` of the lines in bytes ``[start, end)`` of
    ``path`` (to its end if ``end`` is None), the header put before a part
    that does not start the file."""
    with path.open("rb") as handle:
        handle.seek(start)
        pieces = iter(lambda: handle.read(
            _READ_BYTES if end is None else min(_READ_BYTES, end - handle.tell())), b"")
        yield from _canonical_blocks(
            pieces if start == 0 else itertools.chain([_CANONICAL_HEADER], pieces))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where Python cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork(send: Callable[..., None], *args) -> tuple[int, BinaryIO]:
    """Fork a child that calls ``send(pipe, *args)`` with the write end of a
    pipe; returns the child's pid and the pipe's read end. The child leaves
    through ``os._exit``, with 0 only once ``send`` has returned."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child leaves through os._exit, never through the caller
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                send(pipe, *args)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid: int, pipe: BinaryIO, stop: bool = True) -> int:
    """Close ``pipe``, so a child still writing to it stops, kill the child
    ``pid`` first if ``stop``, and reap it; returns its exit code."""
    pipe.close()
    if stop:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _send_blocks(pipe: BinaryIO, path: Path, start: int, end: int | None) -> None:
    """Parse a part of ``path`` (see :func:`_part_blocks`) whole, so the
    children parse at once rather than wait on a full pipe, then send each of
    its blocks down ``pipe``: its id length and rows as native int64 words,
    its id, its anchors and its scores."""
    for video_id, anchors, scores in list(_part_blocks(path, start, end)):
        pipe.write(np.array([len(video_id), len(anchors)], dtype=np.int64).tobytes())
        pipe.write(video_id)
        pipe.write(anchors)
        pipe.write(scores)


def _receive_blocks(pipe: BinaryIO) -> Iterator[_Block]:
    """The blocks sent down ``pipe`` (see :func:`_send_blocks`) until it
    ends, each read straight into its own arrays; EOFError if it ends inside
    a block."""
    while pipe.peek(1):
        id_size, rows = _read_array(pipe, np.int64, 2).tolist()
        yield (_read_array(pipe, np.uint8, id_size).tobytes(),
               _read_array(pipe, np.int64, rows), _read_array(pipe, np.float64, rows))


def _read_array(pipe: BinaryIO, dtype: type, size: int) -> np.ndarray:
    """A new array of ``size`` items of ``dtype`` read from ``pipe`` into
    its own memory; EOFError if the pipe ends first."""
    out = np.empty(size, dtype=dtype)
    view = memoryview(out).cast("B")
    while view:
        got = pipe.readinto(view)
        if not got:
            raise EOFError("pipe ended early")
        view = view[got:]
    return out


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


# A block: the UTF-8 id and the anchors and scores of rows of one video.
_Block = tuple[bytes, np.ndarray, np.ndarray]


def _canonical_blocks(pieces: Iterable[bytes]) -> Iterator[_Block]:
    """Bulk parse of a canonical prediction file given as byte pieces cut
    anywhere: one block per video per run of whole lines.

    Canonical means the header line, ``\\n`` line endings, no quote and no
    ``\\r`` anywhere, and each video's rows in one block. Every row is
    checked to have three fields and ASCII numerals before ``np.loadtxt``
    parses the anchor and score columns of a run (scores with CPython's own
    float parser, so they match ``float()`` bit for bit), and each block's
    rows are copied out of the run's table. Raises ValueError on anything
    the row loop might treat differently or reject; the id's encoding, score
    range, anchor order and the join of a video's blocks are left to
    :func:`_streams`.
    """
    for run in _canonical_runs(pieces):
        ids: list[bytes] = []  # the id of each block in the run
        ends: list[int] = []  # the rows of the run up to each block's end
        pos = rows = 0
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
        table = np.loadtxt(
            io.BytesIO(run), delimiter=",", usecols=(1, 2), comments=None,
            dtype=[("anchor", np.int64), ("score", np.float64)], ndmin=1,
        )
        if len(table) != rows:
            raise ValueError("not canonical: a row loadtxt reads differently")
        for block_id, lo, hi in zip(ids, [0, *ends], ends):
            yield block_id, table["anchor"][lo:hi].copy(), table["score"][lo:hi].copy()
        del table  # freed before the next piece is read


def _streams(blocks: Iterable[_Block]) -> list[PredictionStream]:
    """The streams of ``blocks`` in file order, the consecutive blocks of one
    id joined into one stream (one block is not copied); ValueError if an id
    comes back after another or is not UTF-8, or a stream is not valid."""
    streams: dict[bytes, PredictionStream] = {}
    for video_id, run in itertools.groupby(blocks, key=lambda block: block[0]):
        if video_id in streams:
            raise ValueError("not canonical: an id comes back")
        parts = [block[1:] for block in run]
        anchors, scores = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        streams[video_id] = PredictionStream(video_id.decode("utf-8"), anchors, scores)
    return list(streams.values())


def _load_prediction_rows(path: Path) -> list[PredictionStream]:
    """Row-by-row reader for any prediction CSV; the only one that reports
    errors. The file is read as a stream and each video's rows are kept in
    typed buffers, 16 bytes a row."""
    _check_utf8(path)
    columns: dict[str, tuple[array, array]] = {}  # video id -> anchors, scores; in file order
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
            anchors_scores = columns.get(video_id)
            if anchors_scores is None:
                anchors_scores = columns[video_id] = array("q"), array("d")
            elif anchor <= anchors_scores[0][-1]:
                raise CorpusFormatError(
                    f"anchor {anchor} not increasing for video {video_id!r}", path=str(path), line=line_no
                )
            anchors_scores[0].append(anchor)
            anchors_scores[1].append(score)
    try:
        return [PredictionStream(v, np.frombuffer(anchors, dtype=np.int64),
                                 np.frombuffer(scores, dtype=np.float64))
                for v, (anchors, scores) in columns.items()]
    except ValueError as exc:  # an anchor gap: rows are in range and increasing
        raise CorpusFormatError(str(exc), path=str(path))


# Rows in one piece of the file save_predictions writes: a process formats
# a piece into one string, so this bounds each one's memory.
_ROWS_PER_WRITE = 1 << 12
# A piece: the rows [lo, hi) of each of its streams, in file order.
_Piece = list[tuple[PredictionStream, int, int]]


def save_predictions(streams: Iterable[PredictionStream], path: str | Path) -> None:
    """Write prediction streams as canonical CSV (shortest round-trip floats).

    The streams are listed first, as pieces of ``_ROWS_PER_WRITE`` rows in
    file order, because forked children must see them all at the fork; a
    piece may end one video and start the next, and a long video spans
    several. Each piece is formatted as one string, with each id quoted once
    by the same ``csv.writer`` dialect, so the bytes equal a row-by-row write
    and peak memory is about one piece per process.

    The pieces are formatted on the usable CPUs: with ``P = min(usable CPUs,
    pieces)``, this process formats the pieces ``i`` with ``i % P == 0`` and
    a forked child ``c`` those with ``i % P == c``, sending each down a pipe;
    this process writes them all in order. A piece a child did not send, as
    its fork, its pipe or the child itself failed, is formatted here, so the
    bytes are always the same. Every child is reaped before this returns or
    raises.
    """
    pieces = list(_pieces(streams, _ROWS_PER_WRITE))
    workers = min(_usable_cpus(), len(pieces))
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker -> pid, pipe
    try:
        for c in range(1, workers):
            try:
                children[c] = _fork(_send_pieces, pieces[c::workers])
            except OSError:  # no process to spare: this one formats the rest
                break
        with Path(path).open("wb") as handle:
            handle.write(_CANONICAL_HEADER)
            for i, piece in enumerate(pieces):
                child = children.get(i % workers)
                data = _receive_piece(child[1]) if child else None
                if data is None:
                    if child:  # the child failed: this one formats its pieces from here on
                        _reap(*children.pop(i % workers))
                    data = _format_piece(piece)
                handle.write(data)
    finally:
        for pid, pipe in children.values():
            _reap(pid, pipe)


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
        rows = zip(stream.anchor_frames[lo:hi].tolist(), stream.scores[lo:hi].tolist())
        lines += [f"{video_id},{a},{s!r}\n" for a, s in rows]
    return "".join(lines).encode()


def _send_pieces(pipe: BinaryIO, pieces: list[_Piece]) -> None:
    """Format each of ``pieces`` and send it down ``pipe``."""
    for piece in pieces:
        _send_piece(pipe, _format_piece(piece))


def _send_piece(pipe: BinaryIO, data: bytes) -> None:
    """Write ``data`` down ``pipe`` after its length as a native int64."""
    pipe.write(np.int64(len(data)).tobytes())
    pipe.write(data)


def _receive_piece(pipe: BinaryIO) -> np.ndarray | None:
    """The bytes of the next piece sent down ``pipe`` (see
    :func:`_send_piece`), or None if the pipe ends first."""
    try:
        (size,) = _read_array(pipe, np.int64, 1)
        return _read_array(pipe, np.uint8, size)
    except EOFError:
        return None


def _csv_field(value: str) -> str:
    """``value`` as one field of a CSV row of several, quoted where csv needs it."""
    buffer = io.StringIO()
    # csv.writer quotes the characters of its line terminator; "\n" alone would leave "\r" bare
    csv.writer(buffer, lineterminator="\r\n").writerow([value, ""])
    return buffer.getvalue()[:-3]
