"""Benchmark workloads: synthetic corpus shape and (W, T_pred) grid per workload.

The corpus seed is not part of a workload. It comes from ``--seed`` so that a
claim can be re-checked on a seed that was not used while the change was
written. Why each workload was chosen is recorded in BENCHMARK.json and
README.md. Every command line the benchmark runs is built here, so the timed
subprocess run and the traced in-process run execute the same commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

STACK_LENGTH = 10  # CLI default; a video of F frames has F - (L - 1) anchors
DEFAULT_W_GRID = "0.05:2.0:0.05"  # CLI defaults, used when a workload sets no grid
DEFAULT_T_GRID = "0.1:0.9:0.1"

# README operating point; both grids below contain it, which the
# evaluate-against-sweep output check relies on.
W_SECONDS = "0.3"
T_PRED = "0.4"

# Commands whose wall time is an end-to-end metric, in the order one round
# runs them. "setup" writes the corpus that every later command reads.
TIMED_COMMANDS = ("setup", "evaluate", "offsets", "sweep", "tune")


def grid_size(spec: str) -> int:
    """Number of values in a start:stop:step grid, counted as the CLI does."""
    start, stop, step = (float(part) for part in spec.split(":"))
    return math.floor((stop - start) / step + 1e-9) + 1


def out_dir(argv: list[str]) -> Path:
    """The ``--out`` directory of a CLI argument list."""
    return Path(argv[argv.index("--out") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    videos: int
    frames: int
    fall_rate: float = 1.0
    near_fp_rate: float = 1.0
    far_fp_rate: float = 1.0
    score_noise: float = 0.2
    w_grid: str | None = None  # None: the CLI default grid
    t_grid: str | None = None

    @property
    def rows(self) -> int:
        return self.videos * (self.frames - (STACK_LENGTH - 1))

    def grid_args(self) -> list[str]:
        args = []
        if self.w_grid is not None:
            args += ["--w-grid", self.w_grid]
        if self.t_grid is not None:
            args += ["--t-grid", self.t_grid]
        return args

    def commands(self, seed: int, work: Path, rep: int = 0) -> dict[str, list[str]]:
        """CLI argument lists (without the program) keyed by command name.

        Every command reads the corpus in ``work/corpus`` that repetition 0 of
        ``setup`` writes. Repetition 0 writes its outputs to ``work/corpus``
        and ``work/out/<name>``, where the output checks read them. Later
        repetitions write to fresh directories under ``work/rep``, which the
        caller deletes as soon as it has hashed them: overwriting or deleting
        a file that has reached the disk can cost more than writing it
        (60-400 ms per file on ext4 mounted with ``discard``), and the delay
        depends on whether writeback has happened yet.
        ``identity`` is not timed: it evaluates the unfiltered stream at
        T = 0.5, whose counts the synth ledger predicts exactly.
        """
        corpus = work / "corpus"

        def out(name: str) -> str:
            if rep:
                return str(work / "rep" / f"{name}-{rep}")
            return str(corpus if name == "setup" else work / "out" / name)

        data = ["--annotations", str(corpus / "annotations.jsonl"),
                "--predictions", str(corpus / "predictions.csv")]
        point = ["--w-seconds", W_SECONDS, "--t-pred", T_PRED]
        synth = [
            "synth", "--videos", str(self.videos), "--frames", str(self.frames),
            "--fall-rate", repr(self.fall_rate), "--near-fp-rate", repr(self.near_fp_rate),
            "--far-fp-rate", repr(self.far_fp_rate), "--score-noise", repr(self.score_noise),
            "--seed", str(seed),
        ]
        return {
            "setup": [*synth, "--out", out("setup")],
            "evaluate": ["evaluate", *data, *point, "--out", out("evaluate")],
            "offsets": ["offsets", *data, *point, "--out", out("offsets")],
            "sweep": ["sweep", *data, *self.grid_args(), "--out", out("sweep")],
            "tune": ["tune", *data, *self.grid_args(), "--out", out("tune")],
            "identity": ["evaluate", *data, "--w-frames", "1", "--t-pred", "0.5",
                         "--out", out("identity")],
        }

    def describe(self) -> dict:
        w_grid, t_grid = self.w_grid or DEFAULT_W_GRID, self.t_grid or DEFAULT_T_GRID
        return {
            "synth": {"videos": self.videos, "frames": self.frames, "fall_rate": self.fall_rate,
                      "near_fp_rate": self.near_fp_rate, "far_fp_rate": self.far_fp_rate,
                      "score_noise": self.score_noise},
            "rows": self.rows,
            "w_grid": w_grid,
            "t_grid": t_grid,
            "cells": grid_size(w_grid) * grid_size(t_grid),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-1000", videos=1000, frames=900),
        Workload("long-8", videos=8, frames=108_000,
                 fall_rate=20.0, near_fp_rate=10.0, far_fp_rate=20.0),
        Workload("fine-t", videos=250, frames=900,
                 w_grid="0.1:1.0:0.1", t_grid="0.01:0.99:0.01"),
        # Tiny corpus for the benchmark's own tests; not listed in BENCHMARK.json.
        Workload("smoke", videos=6, frames=300),
    )
}
