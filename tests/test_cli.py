import argparse
import csv
import dataclasses
import itertools
import json
import math
import tracemalloc

import pytest

from alarm_pipeline import cli, temporal, tuning
from alarm_pipeline.cli import SWEEP_HEADER, _json_pieces, _write_outputs, main, parse_grid
from alarm_pipeline.corpus import (PredictionStream, load_annotations, load_predictions,
                                   save_annotations, save_predictions)
from alarm_pipeline.synth import SynthSpec, generate
from alarm_pipeline.temporal import FilterConfig, evaluate_video, combine, offset_histogram
from alarm_pipeline.tuning import tune

from conftest import assert_no_children, use_cpus, wrap_in_package


@pytest.fixture()
def corpus_files(tmp_path):
    out = tmp_path / "corpus"
    code = main(["synth", "--videos", "5", "--near-fp-rate", "1", "--far-fp-rate", "1",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out / "annotations.jsonl", out / "predictions.csv"


def _pairs(ann_path, pred_path):
    annotations = {a.video_id: a for a in load_annotations(ann_path)}
    streams = load_predictions(pred_path)
    return [(s, annotations[s.video_id]) for s in streams]


# -- grid parsing -----------------------------------------------------------------


def test_parse_grid_forms():
    assert parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_grid("0.05:2.0:0.05")[-1] == 2.0
    assert len(parse_grid("0.05:2.0:0.05")) == 40
    assert parse_grid("0.3,0.5,0.9") == [0.3, 0.5, 0.9]
    assert parse_grid([0.1, 0.2]) == [0.1, 0.2]
    with pytest.raises(ValueError):
        parse_grid("0.5:0.1:0.1")
    with pytest.raises(ValueError):
        parse_grid("")
    with pytest.raises(ValueError):
        parse_grid("1:2")
    for spec in ("0.1:inf:0.1", "nan:1:0.1", "0.1:1:inf", "-inf:1:0.1", "0.1,1e400"):
        with pytest.raises(ValueError, match="non-finite"):
            parse_grid(spec)


# -- synth ----------------------------------------------------------------------


def test_synth_outputs(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--videos", "3", "--seed", "1", "--out", str(out)]) == 0
    annotations = load_annotations(out / "annotations.jsonl")
    streams = load_predictions(out / "predictions.csv")
    assert len(annotations) == len(streams) == 3
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["fall_count"] == sum(len(a.fall_intervals) for a in annotations)
    assert set(ledger["videos"]) == {a.video_id for a in annotations}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["parameters"]["seed"] == 1


def test_synth_requires_out():
    assert main(["synth", "--videos", "2"]) == 1


def test_synth_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--videos", "3", "--seed", "5", "--out", str(a)]) == 0
    assert main(["synth", "--videos", "3", "--seed", "5", "--out", str(b)]) == 0
    for name in ("annotations.jsonl", "predictions.csv", "ledger.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_writes_report(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    out = tmp_path / "eval"
    code = main(["evaluate", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-seconds", "0.3", "--t-pred", "0.4", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert (out / "report.txt").read_text() == stdout
    report = json.loads((out / "report.json").read_text())
    assert report["filter"] == {"t_pred": 0.4, "width_seconds": 0.3, "width_frames": None}
    direct = combine(
        evaluate_video(s, a, FilterConfig(t_pred=0.4, width_seconds=0.3))
        for s, a in _pairs(ann, pred)
    )
    db = report["databases"]["synth"]
    assert db["p_a"] == direct.p_a
    assert db["se_a"] == direct.se_a
    assert db["alarm_counts"] == {"tp_a": direct.alarm_counts.tp_a,
                                  "fp_a": direct.alarm_counts.fp_a,
                                  "fn_a": direct.alarm_counts.fn_a}
    assert "Avg." in stdout


def test_evaluate_counts_only(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps([
        {"database_id": "URFD", "tp_a": 29, "fp_a": 5, "fn_a": 1},
        {"database_id": "FDD", "tp_a": 90, "fp_a": 7, "fn_a": 9},
    ]))
    out = tmp_path / "rep"
    assert main(["evaluate", "--counts-only", str(counts), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[:3] == ["Database", "F_0.5", "F_2"]
    urfd = lines[1].split()
    assert urfd[0] == "URFD"
    assert urfd[1:] == ["87.4", "94.2", "85.3", "96.7", "29", "5", "1"]
    report = json.loads((out / "report.json").read_text())
    assert report["filter"] is None
    assert report["databases"]["URFD"]["sp"] is None


def test_evaluate_counts_only_rejects_bad_schema(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps([{"database_id": "x", "tp_a": 1}]))
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    counts.write_text("[]")
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    good = {"database_id": "x", "tp_a": 2, "fp_a": 1, "fn_a": 3}
    for key, value in (("tp_a", 2.7), ("fp_a", True), ("fn_a", "3")):
        counts.write_text(json.dumps([good, {**good, key: value}]))
        capsys.readouterr()
        assert main(["evaluate", "--counts-only", str(counts)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {counts}: counts entry 1 key {key!r} must be "
                                f"an integer, got {json.dumps(value)}\n")
    # a negative count exited with "error: tp_a must be >= 0", naming no file or entry
    counts.write_text(json.dumps([good, {**good, "database_id": "y", "tp_a": -1}]))
    capsys.readouterr()
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {counts}: counts entry 1 key 'tp_a' must be >= 0, got -1\n")
    # a key's sign is checked before a later key's kind
    counts.write_text(json.dumps([good, {**good, "database_id": "y", "tp_a": -1, "fp_a": 2.5}]))
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {counts}: counts entry 1 key 'tp_a' must be >= 0, got -1\n")
    # an entry that is not an object
    counts.write_text("[1]")
    capsys.readouterr()
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == ("", f"error: {counts}: counts entry 0 must be an object\n")
    # a null id once printed a row named None
    counts.write_text(json.dumps([{**good, "database_id": None}]))
    capsys.readouterr()
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {counts}: counts entry 0 key 'database_id' must be a string, got null\n")
    # a repeated id printed two rows, both in Avg., while report.json kept the second
    counts.write_text(json.dumps([good, {**good, "database_id": "y"}, {**good, "tp_a": 1}]))
    out = tmp_path / "rep"
    assert main(["evaluate", "--counts-only", str(counts), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {counts}: counts entry 2 repeats database_id \"x\"\n")
    assert not out.exists()
    # an invalid byte was reported without the file or its line
    counts.write_bytes(json.dumps([good]).encode() + b"\n\n\xff\n")
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == ("", f"error: {counts}:3: invalid UTF-8 (invalid start byte)\n")


def test_evaluate_pairing_policy(tmp_path, corpus_files):
    ann, pred = corpus_files
    # prediction rows for a video missing from the annotations: hard error
    extra = tmp_path / "extra.csv"
    extra.write_text(pred.read_text() + "ghost,9,0.5\n")
    assert main(["evaluate", "--annotations", str(ann),
                 "--predictions", str(extra)]) == 1
    # annotated video with no predictions: warn and continue
    text = pred.read_text().splitlines()
    keep_id = text[1].split(",")[0]
    pruned = tmp_path / "pruned.csv"
    pruned.write_text("\n".join([text[0]] + [l for l in text[1:]
                                             if l.startswith(keep_id)]) + "\n")
    with pytest.warns(UserWarning, match="without predictions") as record:
        assert main(["evaluate", "--annotations", str(ann),
                     "--predictions", str(pruned)]) == 0
    message = str(record[0].message)
    assert message.startswith("skipping 4 annotated videos without predictions: ")
    assert message.count("synth-") == 3 and message.endswith("(1 more)")
    # nothing paired at all: error
    empty = tmp_path / "empty.csv"
    empty.write_text("video_id,anchor_frame,score\n")
    assert main(["evaluate", "--annotations", str(ann),
                 "--predictions", str(empty)]) == 1


def test_evaluate_missing_inputs():
    assert main(["evaluate"]) == 1
    assert main(["evaluate", "--annotations", "nope.jsonl",
                 "--predictions", "nope.csv"]) == 1


def test_bad_prediction_data_exits_one(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    video = pred.read_text().splitlines()[1].split(",")[0]  # 900 frames, stacks of 10
    header = b"video_id,anchor_frame,score\n"
    cases = [  # (annotations, prediction rows, message on stderr)
        (ann.read_bytes(), f"{video},99999999999999999999,0.5\n".encode(),
         "pred.csv:2: anchor 99999999999999999999 does not fit in 64 bits"),
        (ann.read_bytes(), f"{video},9,0.5\n\xff,10,0.5\n".encode("latin-1"),
         "pred.csv:3: invalid UTF-8"),
        (b"\n\xff\n", f"{video},9,0.5\n".encode(), "ann.jsonl:2: invalid UTF-8"),
        (ann.read_bytes(), f"{video},0,0.5\n{video},1,0.5\n".encode(),
         f"pred.csv: anchors of video {video!r} must lie in [9, 900)"),
        (ann.read_bytes(), f"{video},899,0.5\n{video},900,0.5\n".encode(),
         f"pred.csv: anchors of video {video!r} must lie in [9, 900)"),
        (json.dumps({"video_id": 7, "database_id": "db", "fps": True, "frame_count": 900.7,
                     "fall_intervals": [[100.9, "130"]]}).encode(), b"7,9,0.5\n",
         "ann.jsonl:1: key 'video_id' must be a string, got 7"),
        (json.dumps({"video_id": video, "database_id": "db", "fps": 30, "frame_count": 900,
                     "fall_intervals": []}).replace('"fps": 30', '"fps": 1e400').encode(),
         f"{video},9,0.5\n".encode(), f"ann.jsonl:1: record {video!r}: fps must be finite"),
        (ann.read_bytes(), f"{video},20,0\n{video},21,0\n{video},150,0\n".encode(),
         f"pred.csv: anchors of video {video!r} must advance by 1, "
         "but anchor 21 is followed by 150"),
    ]
    for annotations, rows, message in cases:
        (tmp_path / "ann.jsonl").write_bytes(annotations)
        (tmp_path / "pred.csv").write_bytes(header + rows)
        capsys.readouterr()
        assert main(["evaluate", "--annotations", str(tmp_path / "ann.jsonl"),
                     "--predictions", str(tmp_path / "pred.csv")]) == 1, message
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


def test_unusable_widths_and_thresholds_exit_one(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    data = ["--annotations", str(ann), "--predictions", str(pred)]
    repeats = tmp_path / "repeats.json"
    repeats.write_text(json.dumps({"beta": [0.5, 1, 2, 1.0]}))
    cases = [  # (arguments, message on stderr)
        (["evaluate", "--w-seconds", "inf", "--t-pred", "0.4"],
         "width_seconds must be finite and > 0, got inf"),
        (["offsets", "--w-seconds", "1e400", "--t-pred", "0.4"],
         "width_seconds must be finite and > 0, got inf"),
        (["sweep", "--w-grid", "0.1:inf:0.1"], "grid '0.1:inf:0.1' has non-finite values"),
        (["tune", "--t-grid", "0.5,1.5"], "t_pred must lie in (0, 1), got 1.5"),
        (["sweep", "--t-grid", "0,1,5,-1"], "t_pred must lie in (0, 1), got 0.0"),
        (["sweep", "--t-grid", "0.5,0.5", "--w-grid", "0.1"], "t_values must not repeat 0.5"),
        # parse_grid rounds these eleven values to 10 decimals: all 0.5.
        (["sweep", "--t-grid", "0.5:0.5000000001:1e-11", "--w-grid", "0.1"],
         "t_values must not repeat 0.5"),
        (["tune", "--w-grid", "0.1,0.2,0.1"], "w_values must not repeat 0.1"),
        (["tune", "--max-drop", "nan"], "max_sensitivity_drop_points must be >= 0"),
        (["tune", "--beta", "inf"], "beta must be finite and > 0, got inf"),
        (["evaluate", "--w-seconds", "0.2", "--beta", "nan"],
         "beta must be finite and > 0, got nan"),
        (["offsets", "--w-seconds", "0.2", "--offset-cutoff", "nan"],
         "offset cutoff must be >= 0, got nan"),
        (["sweep", "--beta", "nan"], "beta must be finite and > 0, got nan"),
        (["sweep", "--beta", "0.5", "--beta", "0"], "beta must be finite and > 0, got 0.0"),
        (["evaluate", "--w-seconds", "0.2", "--beta", "1e200"],
         "beta * beta must be finite and > 0, got inf for beta 1e+200"),
        (["evaluate", "--w-seconds", "0.2", "--beta", "1e-200"],
         "beta * beta must be finite and > 0, got 0.0 for beta 1e-200"),
        (["sweep", "--beta", "1e200"],
         "beta * beta must be finite and > 0, got inf for beta 1e+200"),
        (["sweep", "--beta", "0.5", "--beta", "1e-200"],
         "beta * beta must be finite and > 0, got 0.0 for beta 1e-200"),
        (["tune", "--beta", "1e200"],
         "beta * beta must be finite and > 0, got inf for beta 1e+200"),
        (["tune", "--beta", "1e-200"],
         "beta * beta must be finite and > 0, got 0.0 for beta 1e-200"),
        (["sweep", "--w-grid", "0.2,-0.1"], "width_seconds must be finite and > 0, got -0.1"),
        (["sweep", "--beta", "1", "--beta", "1"], "beta must not repeat 1.0"),
        (["evaluate", "--w-seconds", "0.2", "--beta", "1", "--beta", "1.0"],
         "beta must not repeat 1.0"),
        (["sweep", "--config", str(repeats)], "beta must not repeat 1.0"),
        (["evaluate", "--config", str(repeats)], "beta must not repeat 1.0"),
        (["tune", "--min-precision", "1"], "min_alarm_precision must lie in [0, 1), got 1.0"),
        (["evaluate", "--t-pred", "1.5"], "t_pred must lie in (0, 1), got 1.5"),
        (["evaluate", "--w-seconds", "0.2", "--w-frames", "3"],
         "give at most one of --w-seconds / --w-frames"),
        (["offsets", "--w-frames", "0"], "width_frames must be >= 1, got 0"),
        (["offsets", "--duration-cutoff", "-1"], "duration cutoff must be >= 0, got -1.0"),
        (["sweep", "--stack-length", "0"], "stack_length must be >= 1, got 0"),
        (["synth", "--videos", "1", "--fall-rate", "inf"],
         "fall_rate must be finite and >= 0, got inf"),
        (["synth", "--videos", "1", "--fall-rate", "nan"],
         "fall_rate must be finite and >= 0, got nan"),
        (["synth", "--videos", "1", "--near-fp-rate", "inf"],
         "near_fall_fp_rate must be finite and >= 0, got inf"),
        (["synth", "--videos", "1", "--far-fp-rate", "1e400"],
         "far_fp_rate must be finite and >= 0, got inf"),
        (["synth", "--videos", "2", "--fall-duration-spread", "-1"],
         "fall_duration_spread must be >= 0, got -1"),
        (["synth", "--videos", "2", "--fp-duration-spread", "-2"],
         "fp_duration_spread must be >= 0, got -2"),
    ]
    # Parameters are checked before any input is read, so a missing
    # predictions file gives the same error.
    unread = ["--annotations", str(ann), "--predictions", str(tmp_path / "missing.csv")]
    for (args, message), inputs in itertools.product(cases, (data, unread)):
        capsys.readouterr()
        inputs = [] if args[0] == "synth" else inputs
        assert main([*args, *inputs, "--out", str(tmp_path / "out")]) == 1, args
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), (args, inputs, out, err)
    assert not (tmp_path / "out").exists()


def test_huge_widths_give_whole_video_width(tmp_path, corpus_files, capsys):
    # Videos of 900 frames hold 891 stacks of 10, so any wider filter gives
    # the output of 891 frames.
    ann, pred = corpus_files
    data = ["--annotations", str(ann), "--predictions", str(pred)]
    assert main(["evaluate", *data, "--w-frames", "891", "--t-pred", "0.4"]) == 0
    want = capsys.readouterr().out
    for width in (["--w-seconds", "1e300"], ["--w-frames", "99999999999999999999"]):
        assert main(["evaluate", *data, *width, "--t-pred", "0.4"]) == 0
        assert capsys.readouterr().out == want
    rows = {}
    for grid in ("29.7", "1e300:1e300:1"):
        assert main(["sweep", *data, "--w-grid", grid, "--t-grid", "0.4,0.6"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        rows[grid] = [line.split(",")[:2] + line.split(",")[3:] for line in lines]
    assert rows["29.7"] == rows["1e300:1e300:1"] and len(rows["29.7"]) == 4


def test_width_beyond_a_float_of_frames_exits_one(tmp_path, corpus_files, capsys):
    # 1e307 s at 30 fps is more frames than a float holds; the width is
    # turned into frames once the corpus gives the fps.
    ann, pred = corpus_files
    data = ["--annotations", str(ann), "--predictions", str(pred), "--out", str(tmp_path / "out")]
    for args in (["evaluate", "--w-seconds", "1e307"],
                 ["sweep", "--w-grid", "1e307", "--t-grid", "0.5"]):
        capsys.readouterr()
        assert main([*args, *data]) == 1, args
        assert capsys.readouterr() == (
            "", "error: width_seconds 1e+307 at fps 30.0 is more frames than a float holds\n")


def test_frame_count_beyond_int64_exits_one(tmp_path, capsys):
    # A fall at frame 1e20 once made evaluate, sweep and tune die with an
    # OverflowError in fall_stack_ranges, while offsets ran.
    ann, pred = tmp_path / "ann.jsonl", tmp_path / "pred.csv"
    record = {"video_id": "v", "database_id": "db", "fps": 30.0, "frame_count": 10**23,
              "fall_intervals": [[10**20, 10**20 + 5]]}
    ann.write_text(json.dumps(record) + "\n")
    pred.write_text("video_id,anchor_frame,score\nv,9,0.5\n")
    data = ["--annotations", str(ann), "--predictions", str(pred), "--out", str(tmp_path / "out")]
    for args in (["evaluate"], ["offsets"], ["sweep"], ["tune"]):
        capsys.readouterr()
        assert main([*args, *data]) == 1, args
        assert capsys.readouterr() == ("", f"error: {ann}:1: record 'v': frame_count must be >= 1 "
                                           f"and below 2**63, got {10**23}\n"), args
    record.update(frame_count=2**63 - 1, fall_intervals=[[2**63 - 7, 2**63 - 5]])
    ann.write_text(json.dumps(record) + "\n")
    assert load_annotations(ann)[0].frame_count == 2**63 - 1


# -- config files ------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "annotations": str(ann), "predictions": str(pred),
        "w_seconds": 0.3, "t_pred": 0.4,
    }))
    out1 = tmp_path / "o1"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out1)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    assert r1["filter"]["width_seconds"] == 0.3

    # explicit flags win over the file
    out2 = tmp_path / "o2"
    assert main(["evaluate", "--config", str(cfg), "--t-pred", "0.7",
                 "--out", str(out2)]) == 0
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["filter"]["t_pred"] == 0.7
    assert r2["filter"]["width_seconds"] == 0.3

    # null leaves a key unset where its default is unset: the width is the
    # file's w_frames, as if the flag had set it
    cfg.write_text(json.dumps({"annotations": str(ann), "predictions": str(pred),
                               "w_seconds": None, "w_frames": 3}))
    outs = tmp_path / "null", tmp_path / "flag"
    assert main(["evaluate", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["evaluate", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-frames", "3", "--out", str(outs[1])]) == 0
    for name in ("report.json", "manifest.json"):
        assert (outs[0] / name).read_text() == (outs[1] / name).read_text()
    assert json.loads((outs[0] / "report.json").read_text())["filter"]["width_frames"] == 3


def test_config_rejects_unknown_keys(tmp_path, corpus_files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"w_second": 0.3}))
    assert main(["evaluate", "--config", str(cfg)]) == 1
    cfg.write_text("not json")
    assert main(["evaluate", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps([{"w_seconds": 0.3}]))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: config must be a JSON object\n")
    # an invalid byte was reported without the file or its line
    cfg.write_bytes(b'{"w_seconds": 0.3,\n "t_pred": \xff}')
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:2: invalid UTF-8 (invalid start byte)\n")

    # file values must have the type of their flag
    ann, pred = corpus_files
    data = {"annotations": str(ann), "predictions": str(pred)}
    cases = [
        ("evaluate", {**data, "stack_length": 10.0}, "'stack_length' must be an integer, got 10.0"),
        ("evaluate", {**data, "stack_length": "10"}, "'stack_length' must be an integer"),
        ("evaluate", {**data, "stack_length": True}, "'stack_length' must be an integer"),
        ("evaluate", {**data, "beta": 0.5}, "'beta' must be a non-empty list of numbers"),
        ("sweep", {**data, "beta": []}, "'beta' must be a non-empty list of numbers"),
        ("evaluate", {**data, "w_frames": 2.5}, "'w_frames' must be an integer"),
        ("evaluate", {**data, "t_pred": None}, "'t_pred' must be a number, got null"),
        ("synth", {"videos": 2.5, "out": str(tmp_path / "s")}, "'videos' must be an integer"),
        ("tune", {**data, "w_grid": {"start": 0.1}}, "'w_grid' must be a string or a list"),
        ("folds", {"annotations": 3}, "'annotations' must be a string"),
    ]
    for command, values, message in cases:
        cfg.write_text(json.dumps(values))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1, values
        assert f"{cfg}: config key {message}" in capsys.readouterr().err, values

    # a file integer for a float key is recorded as the flag would record it
    hashes = []
    for name, args in (("flag", ["--w-seconds", "1"]), ("file", ["--config", str(cfg)])):
        cfg.write_text(json.dumps({"w_seconds": 1}))
        out = tmp_path / name
        assert main(["evaluate", "--annotations", str(ann), "--predictions", str(pred),
                     *args, "--out", str(out)]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


# -- sweep -------------------------------------------------------------------------


def test_sweep_csv(tmp_path, corpus_files):
    ann, pred = corpus_files
    out = tmp_path / "sweep"
    code = main(["sweep", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-grid", "0.1:0.3:0.1", "--t-grid", "0.3,0.5",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 1 * 2 * 3 * 2  # header + dbs*betas*W*T
    first = lines[1].split(",")
    assert first[0] == "synth" and first[1] == "0.5"
    # every row's counts reproduce its ratios
    for line in lines[1:]:
        db, beta, w, t, fb, p_a, se_a, tp, fp, fn = line.split(",")
        if p_a:
            assert float(p_a) == int(tp) / (int(tp) + int(fp))
        if se_a:
            assert float(se_a) == int(tp) / (int(tp) + int(fn))


def test_sweep_and_offsets_quote_ids(tmp_path, capsys):
    # an id that holds the delimiter or a quote is written as the predictions
    # writer writes it, so csv reads each row back whole
    video_id, database_id = "clip,7", 'ward "a",b'
    corpus = generate(SynthSpec(video_count=1, near_fall_fp_rate=1, far_fp_rate=1, seed=3))
    ann, pred = tmp_path / "annotations.jsonl", tmp_path / "predictions.csv"
    save_annotations([dataclasses.replace(a, video_id=video_id, database_id=database_id)
                      for a in corpus.annotations], ann)
    save_predictions([dataclasses.replace(s, video_id=video_id) for s in corpus.streams], pred)
    rows = {}
    for command, name in ((["sweep", "--w-grid", "0.1,0.3", "--t-grid", "0.4,0.6"], "sweep.csv"),
                          (["offsets", "--w-seconds", "0.3", "--t-pred", "0.4"], "offsets.csv")):
        out = tmp_path / name
        assert main([*command, "--annotations", str(ann), "--predictions", str(pred),
                     "--out", str(out)]) == 0
        with (out / name).open(encoding="utf-8", newline="") as handle:
            rows[name] = list(csv.reader(handle))
    capsys.readouterr()
    assert rows["sweep.csv"][0] == SWEEP_HEADER.split(",") and len(rows["sweep.csv"]) > 1
    assert {(len(row), row[0]) for row in rows["sweep.csv"][1:]} == {(10, database_id)}
    assert rows["offsets.csv"][0] == ["video_id", "duration_frames", "offset_frames"]
    assert len(rows["offsets.csv"]) > 1
    assert {(len(row), row[0]) for row in rows["offsets.csv"][1:]} == {(3, video_id)}


def test_sweep_bad_grid(tmp_path, corpus_files):
    ann, pred = corpus_files
    assert main(["sweep", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-grid", "0.5:0.1:0.1"]) == 1


# -- tune --------------------------------------------------------------------------


def test_tune_matches_module(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    out = tmp_path / "tuned"
    code = main(["tune", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-grid", "0.1:1.0:0.1", "--t-grid", "0.1,0.3,0.5",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "tuning.json").read_text())
    corpus = {"synth": _pairs(ann, pred)}
    direct = tune(corpus, w_values=parse_grid("0.1:1.0:0.1"),
                  t_values=[0.1, 0.3, 0.5])
    assert blob["final"]["w_seconds"] == direct.w_final
    assert blob["final"]["t_pred"] == direct.t_final
    assert f"W={direct.w_final:g}" in capsys.readouterr().out


def test_tune_reports_partly_infeasible_corpus(tmp_path, capsys):
    # Database b's dips are as long as its falls, so none of its cells reaches
    # an alarm precision of 0.9; the tuned pair is database a's optimum.
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--videos", "4", "--seed", "3", "--out", str(a)]) == 0
    assert main(["synth", "--videos", "4", "--far-fp-rate", "2", "--fp-duration-mean", "32",
                 "--fp-duration-spread", "8", "--database-id", "b", "--seed", "5",
                 "--out", str(b)]) == 0
    ann, pred = tmp_path / "annotations.jsonl", tmp_path / "predictions.csv"
    ann.write_text((a / "annotations.jsonl").read_text() + (b / "annotations.jsonl").read_text())
    rows_b = (b / "predictions.csv").read_text().split("\n", 1)[1]
    pred.write_text((a / "predictions.csv").read_text() + rows_b)
    out = tmp_path / "tuned"
    capsys.readouterr()
    assert main(["tune", "--annotations", str(ann), "--predictions", str(pred),
                 "--min-precision", "0.9", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "b: infeasible (no grid cell satisfies the constraints)" in lines
    blob = json.loads((out / "tuning.json").read_text())
    entries = {entry["database_id"]: entry for entry in blob["per_database"]}
    assert entries["b"] == {"database_id": "b", "feasible": False,
                            "reason": "no grid cell satisfies the constraints"}
    optimum = entries["synth"]
    assert optimum["feasible"]
    assert blob["final"] == {"w_seconds": optimum["w_seconds"], "t_pred": optimum["t_pred"]}


def test_tune_infeasible_exit_code(tmp_path, corpus_files):
    ann, pred = corpus_files
    assert main(["tune", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-grid", "0.05", "--t-grid", "0.9",
                 "--min-precision", "0.999"]) == 2


# -- offsets -----------------------------------------------------------------------


def test_offsets_outputs(tmp_path, corpus_files, capsys):
    ann, pred = corpus_files
    out = tmp_path / "off"
    code = main(["offsets", "--annotations", str(ann), "--predictions", str(pred),
                 "--out", str(out)])
    assert code == 0
    records = []
    for s, a in _pairs(ann, pred):
        records.extend(evaluate_video(s, a, FilterConfig(0.5, width_frames=1)).fp_offsets)
    summary = offset_histogram(records)
    blob = json.loads((out / "offsets_summary.json").read_text())
    assert blob["count"] == summary.count == len(records)
    assert blob["offset_below_fraction"] == summary.offset_below_fraction
    lines = (out / "offsets.csv").read_text().strip().splitlines()
    assert lines[0] == "video_id,duration_frames,offset_frames"
    assert len(lines) == 1 + len(records)


def test_offsets_are_exact_frame_counts(tmp_path, capsys):
    # Nine hours into a 30 fps recording a false alarm is a million frames
    # from a fall; six significant digits printed 1.49999e+06 and 1e+06.
    ann, pred = tmp_path / "ann.jsonl", tmp_path / "pred.csv"
    videos = [("v", 2_000_000, [[1_500_000, 1_500_040]], (12, 14)),
              ("w", 2_000_000, [[1_000_020, 1_000_021]], (20, 20)),
              ("x", 40, [], (25, 26))]
    rows = ["video_id,anchor_frame,score"]
    with ann.open("w") as handle:
        for vid, frame_count, falls, (lo, hi) in videos:
            handle.write(json.dumps({"video_id": vid, "database_id": "db", "fps": 30.0,
                                     "frame_count": frame_count, "fall_intervals": falls}) + "\n")
            rows += [f"{vid},{a},{0.1 if lo <= a <= hi else 0.9}" for a in range(9, 30)]
    pred.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["offsets", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-frames", "1", "--out", str(out)]) == 0
    assert (out / "offsets.csv").read_text() == (
        "video_id,duration_frames,offset_frames\nv,3,1499986\nw,1,1000000\nx,2,inf\n")
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 3 and summary["offset_below_fraction"] == 0.0


def mixed_fps_corpus(path):
    """Two databases whose videos alternate between 25 and 30 fps."""
    pairs = []
    for db, seed in (("b", 1), ("a", 2)):
        made = [list(generate(SynthSpec(video_count=4, fps=fps, frames_per_video=300, seed=seed,
                                        near_fall_fp_rate=1.0, far_fp_rate=2.0, score_noise=0.3,
                                        database_id=db)).pairs())
                for fps in (25.0, 30.0)]
        for i, (stream, annotation) in enumerate(itertools.chain(*zip(*made))):
            vid = f"{db}{i}"
            pairs.append((PredictionStream(vid, stream.first_anchor, stream.scores),
                          dataclasses.replace(annotation, video_id=vid, group_id=vid)))
    path.mkdir()
    save_annotations([a for _, a in pairs], path / "annotations.jsonl")
    save_predictions([s for s, _ in pairs], path / "predictions.csv")
    return pairs


def test_offsets_rows_follow_corpus_order(tmp_path, monkeypatch, capsys):
    pairs = mixed_fps_corpus(tmp_path / "corpus")
    cfg = FilterConfig(0.45, width_seconds=0.2)
    records = [(s.video_id, r) for s, a in pairs for r in evaluate_video(s, a, cfg).fp_offsets]
    assert len({s.video_id for s, _ in pairs}) == 16 and len(records) > 16
    offsets = ["inf" if r.offset_frames == math.inf else int(r.offset_frames) for _, r in records]
    want = "video_id,duration_frames,offset_frames\n" + "".join(
        f"{vid},{r.duration_frames},{offset}\n" for (vid, r), offset in zip(records, offsets))
    summary = offset_histogram([r for _, r in records])
    args = ["offsets", "--annotations", str(tmp_path / "corpus" / "annotations.jsonl"),
            "--predictions", str(tmp_path / "corpus" / "predictions.csv"),
            "--w-seconds", "0.2", "--t-pred", "0.45"]
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 600)  # two videos a chunk
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        assert main([*args, "--out", str(out)]) == 0
        assert_no_children()
        assert (out / "offsets.csv").read_text() == want, cpus
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(summary)


def test_offsets_calls_extract_alarms_in_this_process(corpus_files, monkeypatch, capsys):
    # The traced benchmark run wraps temporal.extract_alarms as this test
    # does, and reads the run count of its calls in this process; on any
    # number of CPUs those are all the runs of the corpus, one call a chunk.
    ann, pred = corpus_files
    cfg = FilterConfig(0.4, width_seconds=0.3)
    pairs = _pairs(ann, pred)  # one database of five videos of 891 stacks
    want = sum(len(evaluate_video(s, a, cfg).alarms) for s, a in pairs)
    monkeypatch.setattr(tuning, "CHUNK_STACKS", 2 * 892)  # two videos and a separator each
    chunks = len(list(tuning._chunk_positions(pairs)))
    assert chunks == 3
    original, runs = temporal.extract_alarms, []

    def traced(*args):
        result = original(*args)
        runs.append(len(result))
        return result

    wrap_in_package(monkeypatch, original, traced)
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        runs.clear()
        assert main(["offsets", "--annotations", str(ann), "--predictions", str(pred),
                     "--w-seconds", "0.3", "--t-pred", "0.4"]) == 0
        capsys.readouterr()
        assert len(runs) == chunks, cpus
        assert sum(runs) == want > 0, cpus


# -- folds -------------------------------------------------------------------------


def test_folds_output(tmp_path, corpus_files):
    ann, _ = corpus_files
    out = tmp_path / "folds"
    assert main(["folds", "--annotations", str(ann), "--k", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    blob = json.loads((out / "folds.json").read_text())
    assert blob["k"] == 2 and blob["seed"] == 4
    assert set(blob["folds"].values()) == {0, 1}


def test_folds_infeasible_exit_code(tmp_path, corpus_files):
    ann, _ = corpus_files
    assert main(["folds", "--annotations", str(ann), "--k", "99"]) == 2


def test_folds_without_annotations_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for args, message in (([], "--annotations is required"),
                          (["--annotations", str(empty)], f"{empty}: annotation file is empty")):
        capsys.readouterr()
        assert main(["folds", *args]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


# -- manifests -----------------------------------------------------------------------


def test_manifest_hash_tracks_inputs(tmp_path, corpus_files):
    ann, pred = corpus_files
    out1, out2, out3 = tmp_path / "m1", tmp_path / "m2", tmp_path / "m3"
    args = ["evaluate", "--annotations", str(ann), "--predictions", str(pred),
            "--w-frames", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    h1 = json.loads((out1 / "manifest.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "manifest.json").read_text())["config_hash"]
    assert h1 == h2  # output location does not enter the hash
    assert main(["evaluate", "--annotations", str(ann), "--predictions", str(pred),
                 "--w-frames", "4", "--out", str(out3)]) == 0
    h3 = json.loads((out3 / "manifest.json").read_text())["config_hash"]
    assert h3 != h1


# -- JSON artifacts --------------------------------------------------------------------

JSON_PAYLOADS = [  # the shapes the artifacts take, and the edges of each
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [{}], [[]]], "d": {"e": {"f": []}}},
    {"videos": {" é 中 ": [{"kind": "fall", "start_frame": 3, "offset_frames": None}],
                'v"\n\\': [], "": [1, -2, 0.1, 1e-300, 5e-324, 1.7976931348623157e308]},
     "fall_count": 0},
    {"limit": math.inf, "no": [1.5, math.inf, {"x": math.inf, "y": (math.inf, 2)}],
     "on": True, "off": False, "none": None},
    ("a", 2.5, [math.inf]),
    "text",
    7,
    math.inf,
]


def no_limit(payload):
    """``payload`` copied with each +inf as None, as the artifacts write it."""
    if isinstance(payload, dict):
        return {key: no_limit(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [no_limit(value) for value in payload]
    return None if payload == math.inf else payload


def test_json_pieces_are_the_dumps_text(monkeypatch):
    for piece in (1, 2, 3, cli._JSON_PIECE):
        monkeypatch.setattr(cli, "_JSON_PIECE", piece)
        for payload in JSON_PAYLOADS:
            want = json.dumps(no_limit(payload), sort_keys=True, allow_nan=False, indent=2) + "\n"
            assert "".join(_json_pieces(payload)) == want, (piece, payload)
    assert JSON_PAYLOADS[4]["no"][1] == math.inf  # the payload is not changed
    assert cli._json_ready(JSON_PAYLOADS[3]) is JSON_PAYLOADS[3]  # nor copied without an inf


def test_json_artifacts_do_not_depend_on_the_piece_size(tmp_path, corpus_files, monkeypatch,
                                                        capsys):
    ann, pred = corpus_files
    data = ["--annotations", str(ann), "--predictions", str(pred)]
    commands = [
        ["synth", "--videos", "3", "--seed", "2"],
        ["evaluate", *data, "--w-seconds", "0.3", "--t-pred", "0.4"],
        ["offsets", *data, "--w-seconds", "0.3", "--offset-cutoff", "inf"],
        ["tune", *data, "--w-grid", "0.1,0.3", "--t-grid", "0.4,0.6", "--min-precision", "0",
         "--max-drop", "inf"],
        ["folds", "--annotations", str(ann), "--k", "2"],
    ]
    outputs = {}
    for piece in (1, 2, 3, cli._JSON_PIECE):
        monkeypatch.setattr(cli, "_JSON_PIECE", piece)
        for i, args in enumerate(commands):
            assert main([*args, "--out", str(tmp_path / f"{piece}-{i}")]) == 0
        capsys.readouterr()
        assert main(commands[-1]) == 0  # folds on stdout
        files = sorted(tmp_path.glob(f"{piece}-*/*.json"))
        outputs[piece] = [(path.name, path.read_text()) for path in files]
        outputs[piece].append(("stdout", capsys.readouterr().out))
    texts = outputs[1]
    assert len(texts) == 11  # an artifact and a manifest a command, and folds' stdout
    assert all(outputs[piece] == texts for piece in outputs)
    for _, text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert "null" in dict(texts)["tuning.json"] and "null" in dict(texts)["offsets_summary.json"]


def test_a_json_payload_json_cannot_hold_writes_no_file(tmp_path):
    cfg = argparse.Namespace(out=str(tmp_path / "out"), command="evaluate")
    good = {"a": [1, 2.5, math.inf]}
    bad = [({"a": [1, {"b": [float("nan")]}]}, ValueError), ({"a": -math.inf}, ValueError),
           ({"a": [object()]}, TypeError), ({"a": {2, 3}}, TypeError)]
    for payload, error in bad:
        with pytest.raises(error):
            _write_outputs(cfg, {"report.json": good, "tuning.json": payload})
        assert list((tmp_path / "out").iterdir()) == []  # not even the good artifact


def test_ledger_write_peak_memory(tmp_path, monkeypatch):
    # The 1,000-video ledger is about 0.4 MB of JSON; one json.dumps of it
    # holds every encoder chunk and then the joined text, about 1.5 MB. The
    # pieces hold a few thousand chunks at a time.
    peaks = []
    write = cli._write_outputs

    def measured(cfg, artifacts):
        tracemalloc.start()
        try:
            write(cfg, artifacts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_outputs", measured)
    assert main(["synth", "--videos", "1000", "--frames", "300", "--near-fp-rate", "1",
                 "--far-fp-rate", "1", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "ledger.json").stat().st_size > 300_000
    assert peaks[0] < 500_000, peaks


# -- exit codes ------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["evaluate", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out
