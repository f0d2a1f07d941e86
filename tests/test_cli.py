import itertools
import json

import pytest

from alarm_pipeline.cli import SWEEP_HEADER, main, parse_grid
from alarm_pipeline.corpus import load_annotations, load_predictions
from alarm_pipeline.temporal import FilterConfig, evaluate_video, combine, offset_histogram
from alarm_pipeline.tuning import tune


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
    # a null id once printed a row named None
    counts.write_text(json.dumps([{**good, "database_id": None}]))
    capsys.readouterr()
    assert main(["evaluate", "--counts-only", str(counts)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {counts}: counts entry 0 key 'database_id' must be a string, got null\n")


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


def test_config_rejects_unknown_keys(tmp_path, corpus_files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"w_second": 0.3}))
    assert main(["evaluate", "--config", str(cfg)]) == 1
    cfg.write_text("not json")
    assert main(["evaluate", "--config", str(cfg)]) == 1

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


# -- exit codes ------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["evaluate", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out
