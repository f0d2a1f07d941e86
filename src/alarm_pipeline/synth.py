"""Synthetic corpus generator with a built-in ground-truth ledger.

Scores follow an instant-at-anchor model: the No-Fall score is 1 everywhere
except at anchors inside a planted fall or dip, where it is 0 (plus optional
jitter). Under the identity filter at T = 0.5 each planted region therefore
becomes exactly one alarm run, so the ledger doubles as an oracle for the
whole decision path: runs, kinds, offsets and counts are all knowable in
advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .corpus import PredictionStream, StackConfig, VideoAnnotation
from .errors import GenerationError

FALL = "fall"
NEAR_FP = "near_fp"
FAR_FP = "far_fp"

_MAX_ATTEMPTS = 500
NEAR_FP_OFFSETS = (2, 4)  # least and most frames from a near dip's span to its fall
FAR_FP_MIN_OFFSET = 20  # least frames from a far dip's span to any fall


@dataclass(frozen=True)
class PlantedEvent:
    """One planted region, in anchor coordinates (start/end inclusive).

    For falls the anchor run equals the annotated fall interval. For dips
    ``offset_frames`` is the frame distance from the alarm's covered span
    (run expanded left by L-1) to the nearest fall, inf when the video has
    no falls.
    """

    kind: str
    start_frame: int
    end_frame: int
    offset_frames: float | None = None

    def to_json_dict(self) -> dict:
        offset = self.offset_frames
        if offset is not None and not math.isfinite(offset):
            offset = None
        return {
            "kind": self.kind,
            "start_frame": self.start_frame,
            "end_frame": self.end_frame,
            "offset_frames": offset,
        }


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generator.

    Rates are per video; the fractional part is resolved by a coin flip, so
    rate 1.5 means one or two events. Durations are uniform integers in
    [mean - spread, mean + spread]. Dip offsets are fixed: 2 to 4 frames from
    a fall for near dips, 20 or more for far ones (``NEAR_FP_OFFSETS``,
    ``FAR_FP_MIN_OFFSET``). ``min_separation_frames`` keeps planted regions
    apart (near dips are exempt from it against their paired fall, that
    distance is the point). ``score_noise`` below 0.5 keeps thresholding at
    T = 0.5 exact, so the ledger stays authoritative.
    """

    video_count: int
    fps: float = 30.0
    frames_per_video: int = 900
    fall_rate: float = 1.0
    fall_duration_mean: int = 32
    fall_duration_spread: int = 8
    near_fall_fp_rate: float = 0.0
    far_fp_rate: float = 0.0
    fp_duration_mean: int = 5
    fp_duration_spread: int = 3
    min_separation_frames: int = 12
    score_noise: float = 0.0
    videos_per_group: int = 1
    seed: int = 0
    database_id: str = "synth"
    stack: StackConfig = field(default_factory=StackConfig)

    def __post_init__(self) -> None:
        if self.video_count < 1:
            raise ValueError("video_count must be >= 1")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        for name in ("fall_rate", "near_fall_fp_rate", "far_fp_rate"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name, mean, spread in (
            ("fall_duration_spread", self.fall_duration_mean, self.fall_duration_spread),
            ("fp_duration_spread", self.fp_duration_mean, self.fp_duration_spread),
        ):
            if spread < 0:
                raise ValueError(f"{name} must be >= 0, got {spread}")
            if mean - spread < 1:
                raise ValueError("duration mean - spread must be >= 1")
        if self.min_separation_frames < 2:
            raise ValueError("min_separation_frames must be >= 2 to keep runs distinct")
        if not (0.0 <= self.score_noise < 0.5):
            raise ValueError("score_noise must lie in [0, 0.5)")
        if self.videos_per_group < 1:
            raise ValueError("videos_per_group must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.frames_per_video <= self.stack.stack_length:
            raise ValueError("frames_per_video must exceed the stack length")


@dataclass
class SynthCorpus:
    """Generated annotations and scores plus the ledger of planted events."""

    spec: SynthSpec
    annotations: list[VideoAnnotation]
    streams: list[PredictionStream]
    ledger: dict[str, list[PlantedEvent]]

    def fall_count(self) -> int:
        return sum(1 for evs in self.ledger.values() for e in evs if e.kind == FALL)

    def fp_count(self) -> int:
        return sum(1 for evs in self.ledger.values() for e in evs if e.kind != FALL)

    def pairs(self) -> Iterator[tuple[PredictionStream, VideoAnnotation]]:
        for stream, annotation in zip(self.streams, self.annotations):
            yield stream, annotation

    def ledger_json(self) -> dict:
        return {
            video_id: [e.to_json_dict() for e in events]
            for video_id, events in self.ledger.items()
        }


def _event_count(rng: np.random.Generator, rate: float) -> int:
    whole = int(rate)
    frac = rate - whole
    return whole + (1 if frac > 0 and rng.random() < frac else 0)


def _duration(rng: np.random.Generator, mean: int, spread: int) -> int:
    return int(rng.integers(mean - spread, mean + spread, endpoint=True))


def _separated(u: int, v: int, regions: list[tuple[int, int]], gap: int) -> bool:
    return all(u - pv >= gap or pu - v >= gap for pu, pv in regions)


def _span_offset(
    u: int, v: int, falls: list[tuple[int, int]], stack_length: int
) -> float | None:
    """Distance from the expanded span [u - (L-1), v] to the nearest fall.

    None when the span overlaps a fall (the region would not be a false
    alarm), inf when there are no falls at all.
    """
    span_lo = u - (stack_length - 1)
    offset = math.inf
    for s, e in falls:
        if span_lo <= e and v >= s:
            return None
        offset = min(offset, float(s - v) if v < s else float(span_lo - e))
    return offset


def _generate_video(spec: SynthSpec, index: int) -> tuple[VideoAnnotation, PredictionStream, list[PlantedEvent]]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, index])))
    video_id = f"{spec.database_id}-{index:04d}"
    length = spec.stack.stack_length
    first_anchor = length - 1
    last_anchor = spec.frames_per_video - 1
    gap = spec.min_separation_frames

    falls: list[tuple[int, int]] = []
    regions: list[tuple[int, int]] = []

    def place_fall() -> tuple[int, int]:
        duration = _duration(rng, spec.fall_duration_mean, spec.fall_duration_spread)
        hi = last_anchor - duration + 1
        if hi < first_anchor:
            raise GenerationError(f"{video_id}: fall of {duration} frames does not fit")
        for _ in range(_MAX_ATTEMPTS):
            s = int(rng.integers(first_anchor, hi, endpoint=True))
            if _separated(s, s + duration - 1, regions, gap):
                return s, s + duration - 1
        raise GenerationError(f"{video_id}: could not place a fall after {_MAX_ATTEMPTS} tries")

    def place_near() -> tuple[int, int, float]:
        for _ in range(_MAX_ATTEMPTS):
            s, e = falls[int(rng.integers(0, len(falls)))]
            g = int(rng.integers(*NEAR_FP_OFFSETS, endpoint=True))
            duration = _duration(rng, spec.fp_duration_mean, spec.fp_duration_spread)
            if rng.random() < 0.5:
                v = s - g
                u = v - duration + 1
            else:
                u = e + (length - 1) + g
                v = u + duration - 1
            if u < first_anchor or v > last_anchor:
                continue
            others = [r for r in regions if r != (s, e)]
            if not _separated(u, v, others, gap):
                continue
            offset = _span_offset(u, v, falls, length)
            if offset != g:
                continue
            return u, v, float(g)
        raise GenerationError(f"{video_id}: could not place a near dip after {_MAX_ATTEMPTS} tries")

    def place_far() -> tuple[int, int, float]:
        for _ in range(_MAX_ATTEMPTS):
            duration = _duration(rng, spec.fp_duration_mean, spec.fp_duration_spread)
            hi = last_anchor - duration + 1
            if hi < first_anchor:
                raise GenerationError(f"{video_id}: dip of {duration} frames does not fit")
            u = int(rng.integers(first_anchor, hi, endpoint=True))
            v = u + duration - 1
            if not _separated(u, v, regions, gap):
                continue
            offset = _span_offset(u, v, falls, length)
            if offset is None or offset < FAR_FP_MIN_OFFSET:
                continue
            return u, v, offset
        raise GenerationError(f"{video_id}: could not place a far dip after {_MAX_ATTEMPTS} tries")

    events: list[PlantedEvent] = []
    for _ in range(_event_count(rng, spec.fall_rate)):
        s, e = place_fall()
        falls.append((s, e))
        regions.append((s, e))
        events.append(PlantedEvent(FALL, s, e))
    near_count = _event_count(rng, spec.near_fall_fp_rate) if falls else 0
    for _ in range(near_count):
        u, v, offset = place_near()
        regions.append((u, v))
        events.append(PlantedEvent(NEAR_FP, u, v, offset))
    for _ in range(_event_count(rng, spec.far_fp_rate)):
        u, v, offset = place_far()
        regions.append((u, v))
        events.append(PlantedEvent(FAR_FP, u, v, offset))
    events.sort(key=lambda ev: ev.start_frame)

    annotation = VideoAnnotation(
        video_id=video_id,
        database_id=spec.database_id,
        fps=spec.fps,
        frame_count=spec.frames_per_video,
        fall_intervals=tuple(sorted(falls)),
        group_id=f"{spec.database_id}-grp{index // spec.videos_per_group:04d}",
    )

    anchors = np.arange(first_anchor, spec.frames_per_video, dtype=np.int64)
    scores = np.ones(anchors.shape, dtype=np.float64)
    for u, v in regions:
        scores[(anchors >= u) & (anchors <= v)] = 0.0
    if spec.score_noise > 0:
        scores += rng.uniform(-spec.score_noise, spec.score_noise, size=scores.shape)
        np.clip(scores, 0.0, 1.0, out=scores)
    stream = PredictionStream(video_id=video_id, anchor_frames=anchors, scores=scores)
    return annotation, stream, events


def generate(spec: SynthSpec) -> SynthCorpus:
    """Build the corpus video by video; fully determined by the spec."""
    annotations: list[VideoAnnotation] = []
    streams: list[PredictionStream] = []
    ledger: dict[str, list[PlantedEvent]] = {}
    for index in range(spec.video_count):
        annotation, stream, events = _generate_video(spec, index)
        annotations.append(annotation)
        streams.append(stream)
        ledger[annotation.video_id] = events
    return SynthCorpus(spec=spec, annotations=annotations, streams=streams, ledger=ledger)
