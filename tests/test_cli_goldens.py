"""Golden outputs of the command-line interface.

Runs every subcommand on a tiny synthetic corpus (6 videos with false pulses,
score noise 0.2, seed 3) in a fresh working directory with relative paths, so
the ``path`` fields of the manifests are stable, and compares each run's exit
code, stdout, stderr, warnings and output files, and every ``--help`` text at
80 columns, with ``tests/goldens/cli.json``. Files longer than ``TEXT_LIMIT``
bytes are compared by their sha256 digest.

After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

from alarm_pipeline.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "cli.json"
TEXT_LIMIT = 4096

DATA = ["--annotations", "corpus/annotations.jsonl", "--predictions", "corpus/predictions.csv"]
INPUTS = {
    "cfg.json": {"annotations": "corpus/annotations.jsonl", "predictions": "corpus/predictions.csv",
                 "w_frames": 5, "t_pred": 0.4, "beta": [0.5, 2.0], "stack_length": 10},
    "bad_cfg.json": {"w_second": 0.3},
    "counts.json": [{"database_id": "URFD", "tp_a": 29, "fp_a": 5, "fn_a": 1},
                    {"database_id": "FDD", "tp_a": 90, "fp_a": 7, "fn_a": 9}],
}
HELP = [["--help"]] + [[command, "--help"] for command in
                       ("evaluate", "sweep", "tune", "offsets", "synth", "folds")]
RUNS = [
    ["synth", "--videos", "6", "--score-noise", "0.2", "--near-fp-rate", "1", "--far-fp-rate", "1",
     "--seed", "3", "--out", "corpus"],
    ["synth", "--videos", "3", "--fps", "25", "--frames", "400", "--fall-rate", "1.5",
     "--fall-duration-mean", "20", "--fall-duration-spread", "4", "--near-fp-rate", "1",
     "--far-fp-rate", "0.5", "--fp-duration-mean", "4", "--fp-duration-spread", "2",
     "--score-noise", "0.1", "--videos-per-group", "3", "--seed", "9",
     "--database-id", "lab", "--stack-length", "8", "--out", "synth-all"],
    ["synth", "--videos", "2", "--out", "small"],
    ["evaluate", *DATA, "--w-seconds", "0.3", "--t-pred", "0.4", "--beta", "0.5", "--beta", "1",
     "--stack-length", "10", "--out", "evaluate"],
    ["evaluate", *DATA, "--w-frames", "1", "--t-pred", "0.5", "--out", "identity"],
    ["evaluate", "--config", "cfg.json", "--t-pred", "0.6", "--out", "config"],
    ["evaluate", "--annotations", "corpus/annotations.jsonl",
     "--predictions", "small/predictions.csv"],
    ["evaluate", "--counts-only", "counts.json", "--beta", "1", "--out", "counts"],
    ["offsets", *DATA, "--w-seconds", "0.2", "--offset-cutoff", "4", "--duration-cutoff", "8",
     "--out", "offsets"],
    ["sweep", *DATA, "--w-grid", "0.1:0.5:0.1", "--t-grid", "0.3,0.5,0.7", "--beta", "1",
     "--out", "sweep"],
    ["sweep", *DATA, "--w-grid", "0.1,0.2", "--t-grid", "0.5"],
    ["tune", *DATA, "--w-grid", "0.1:1.0:0.1", "--t-grid", "0.1:0.9:0.1", "--beta", "1",
     "--min-precision", "0.5", "--max-drop", "20", "--out", "tune"],
    ["tune", *DATA, "--out", "tune-default"],
    ["folds", "--annotations", "corpus/annotations.jsonl", "--k", "3", "--seed", "4",
     "--out", "folds"],
    ["folds", "--annotations", "corpus/annotations.jsonl", "--k", "2"],
    # errors: usage (1), bad data (1), infeasible (2)
    [],
    ["evaluate", "--no-such-flag"],
    ["evaluate", "--stack-length", "x"],
    ["synth", "--videos", "2"],
    ["evaluate"],
    ["evaluate", "--config", "bad_cfg.json"],
    ["sweep", *DATA, "--w-grid", "0.5:0.1:0.1"],
    ["tune", *DATA, "--w-grid", "0.05", "--t-grid", "0.9", "--min-precision", "0.999"],
    ["folds", "--annotations", "corpus/annotations.jsonl", "--k", "99"],
]


def _file_entry(path: Path):
    data = path.read_bytes()
    if len(data) > TEXT_LIMIT:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8")


def _run(argv: list[str]) -> dict:
    before = {p for p in Path(".").rglob("*") if p.is_file()}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    created = sorted(p for p in Path(".").rglob("*") if p.is_file() and p not in before)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [str(w.message) for w in caught],
        "files": {p.as_posix(): _file_entry(p) for p in created},
    }


def cli_outputs(workdir: Path) -> list[dict]:
    """Every golden case, run in ``workdir`` (which must be empty)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, payload in INPUTS.items():
            Path(name).write_text(json.dumps(payload), encoding="utf-8")
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            return [_run(argv) for argv in HELP + RUNS]
    finally:
        os.chdir(cwd)


def test_cli_matches_goldens(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = cli_outputs(tmp_path)
    assert [case["argv"] for case in actual] == [case["argv"] for case in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        cases = cli_outputs(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(cases)} cases to {GOLDEN}\n")
