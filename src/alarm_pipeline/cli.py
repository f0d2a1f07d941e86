"""Command-line front end.

Subcommands: evaluate, sweep, tune, offsets, synth, folds. Every command
accepts ``--config FILE`` (JSON object of parameter defaults, same names as
the flags with underscores); explicit flags win over the file. Commands that
write into ``--out`` also drop a manifest.json there with a content hash of
the semantic inputs, so two runs with identical inputs produce identical
manifests.

Exit codes: 0 success, 1 bad usage or bad data, 2 constraints infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .corpus import (
    PredictionStream,
    StackConfig,
    VideoAnnotation,
    assign_folds,
    load_annotations,
    load_predictions,
    save_annotations,
    save_predictions,
)
from .errors import CorpusFormatError, GenerationError, InfeasibleError, PipelineError
from .metrics import DEFAULT_BETAS, AlarmCounts, MetricReport, macro_average
from .synth import SynthSpec, generate
from .temporal import FilterConfig, VideoEvaluation, combine, evaluate_video, offset_histogram
from .tuning import default_t_values, default_w_values, sweep, tune

Corpus = dict[str, list[tuple[PredictionStream, VideoAnnotation]]]

SWEEP_HEADER = "database_id,beta,W_seconds,T_pred,f_beta,p_a,se_a,TP_a,FP_a,FN_a"
COUNTS_FBETA_DECIMALS = 3
SKIPPED_IDS_SHOWN = 3  # the skipped-videos warning names only the first few


# -- config plumbing ----------------------------------------------------------


@dataclass(frozen=True)
class EvaluateConfig:
    annotations: str | None = None
    predictions: str | None = None
    counts_only: str | None = None
    w_seconds: float | None = None
    w_frames: int | None = None
    t_pred: float = 0.5
    beta: tuple[float, ...] = DEFAULT_BETAS
    stack_length: int = 10
    out: str | None = None


@dataclass(frozen=True)
class SweepConfig:
    annotations: str | None = None
    predictions: str | None = None
    w_grid: Any = None
    t_grid: Any = None
    beta: tuple[float, ...] = DEFAULT_BETAS
    stack_length: int = 10
    out: str | None = None


@dataclass(frozen=True)
class TuneConfig:
    annotations: str | None = None
    predictions: str | None = None
    w_grid: Any = None
    t_grid: Any = None
    beta: float = 0.5
    min_precision: float = 0.80
    max_drop: float = 10.0
    stack_length: int = 10
    out: str | None = None


@dataclass(frozen=True)
class OffsetsConfig:
    annotations: str | None = None
    predictions: str | None = None
    w_seconds: float | None = None
    w_frames: int | None = None
    t_pred: float = 0.5
    offset_cutoff: float = 5.0
    duration_cutoff: float = 10.0
    stack_length: int = 10
    out: str | None = None


@dataclass(frozen=True)
class SynthConfig:
    videos: int = 10
    fps: float = 30.0
    frames: int = 900
    fall_rate: float = 1.0
    fall_duration_mean: int = 32
    fall_duration_spread: int = 8
    near_fp_rate: float = 0.0
    far_fp_rate: float = 0.0
    fp_duration_mean: int = 5
    fp_duration_spread: int = 3
    score_noise: float = 0.0
    videos_per_group: int = 1
    seed: int = 0
    database_id: str = "synth"
    stack_length: int = 10
    out: str | None = None


@dataclass(frozen=True)
class FoldsConfig:
    annotations: str | None = None
    k: int = 5
    seed: int = 0
    out: str | None = None


def _resolve_config(cls, args: argparse.Namespace):
    """Merge defaults <- config file <- explicit CLI flags into ``cls``."""
    file_cfg: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"invalid JSON ({exc.msg})", path=config_path, line=exc.lineno)
        if not isinstance(file_cfg, dict):
            raise CorpusFormatError("config must be a JSON object", path=config_path)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise CorpusFormatError(f"unknown config keys {unknown}", path=config_path)
    values: dict[str, Any] = {}
    for f in fields(cls):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
        elif f.name in file_cfg:
            values[f.name] = file_cfg[f.name]
    return cls(**values)


def _parameters(cfg) -> dict[str, Any]:
    """Manifest view of a config: semantic knobs only, no output paths."""
    out = dataclasses.asdict(cfg)
    out.pop("out", None)
    for key in ("annotations", "predictions", "counts_only"):
        out.pop(key, None)
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def parse_grid(spec: Any) -> list[float]:
    """Grid from 'start:stop:step', a comma list, or a JSON array of numbers."""
    if isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
    elif ":" in str(spec):
        parts = str(spec).split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {spec!r} must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"grid {spec!r} must have step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [round(start + i * step, 10) for i in range(count)]
    else:
        values = [float(p) for p in str(spec).split(",") if p.strip()]
    if not values:
        raise ValueError(f"grid {spec!r} is empty")
    if any(not math.isfinite(v) for v in values):
        raise ValueError(f"grid {spec!r} has non-finite values")
    return values


# -- shared helpers -----------------------------------------------------------


def _load_corpus(annotations_path: str | None, predictions_path: str | None) -> Corpus:
    """Pair predictions with annotations, grouped by database.

    A prediction for an unannotated video is an error; an annotated video
    without predictions is skipped with a warning; an empty pairing is an
    error.
    """
    if not annotations_path or not predictions_path:
        raise CorpusFormatError("both --annotations and --predictions are required")
    annotations = load_annotations(annotations_path)
    streams = load_predictions(predictions_path)
    by_video = {a.video_id: a for a in annotations}
    stream_map: dict[str, PredictionStream] = {}
    for stream in streams:
        if stream.video_id not in by_video:
            raise CorpusFormatError(
                f"predictions reference unknown video {stream.video_id!r}",
                path=predictions_path,
            )
        stream_map[stream.video_id] = stream
    corpus: Corpus = {}
    skipped = [a.video_id for a in annotations if a.video_id not in stream_map]
    if skipped:
        shown = ", ".join(skipped[:SKIPPED_IDS_SHOWN])
        if len(skipped) > SKIPPED_IDS_SHOWN:
            shown += f", ... ({len(skipped) - SKIPPED_IDS_SHOWN} more)"
        warnings.warn(f"skipping {len(skipped)} annotated videos without predictions: {shown}")
    for annotation in annotations:
        stream = stream_map.get(annotation.video_id)
        if stream is None:
            continue
        corpus.setdefault(annotation.database_id, []).append((stream, annotation))
    if not corpus:
        raise CorpusFormatError("no videos have both annotations and predictions")
    return corpus


def _filter_config(w_seconds: float | None, w_frames: int | None, t_pred: float) -> FilterConfig:
    if w_seconds is not None and w_frames is not None:
        raise ValueError("give at most one of --w-seconds / --w-frames")
    if w_seconds is None and w_frames is None:
        w_frames = 1
    return FilterConfig(t_pred=t_pred, width_seconds=w_seconds, width_frames=w_frames)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, parameters: Mapping[str, Any],
                   inputs: Mapping[str, str | Path | None]) -> None:
    """Drop manifest.json: command, parameters, input digests, content hash.

    The hash covers only semantic content (command, parameters, file digests),
    never paths, output locations or times, so reruns on identical inputs
    hash identically.
    """
    digests = {}
    for role, path in inputs.items():
        if path is None:
            continue
        p = Path(path)
        digests[role] = {"path": str(p), "sha256": _sha256(p)}
    hashed = {
        "command": command,
        "parameters": dict(sorted(parameters.items())),
        "inputs": {role: entry["sha256"] for role, entry in sorted(digests.items())},
    }
    config_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    manifest = {
        "command": command,
        "parameters": dict(sorted(parameters.items())),
        "inputs": digests,
        "config_hash": config_hash,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(path_text: str | None) -> Path | None:
    if not path_text:
        return None
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def format_report_table(rows: Sequence[tuple[str, MetricReport]], betas: Sequence[float]) -> str:
    """Fixed-width text table of alarm metrics, one database per row.

    Ratios print as percentages with one decimal; undefined values and the
    missing counts of a macro-average row print as '-'.
    """
    def pct(value: float | None) -> str:
        return "-" if value is None else f"{100.0 * value:.1f}"

    headers = ["Database"] + [f"F_{beta:g}" for beta in betas] + ["p_a", "se_a", "TP_a", "FP_a", "FN_a"]
    body: list[list[str]] = []
    for name, report in rows:
        cells = [name]
        cells += [pct(report.f_beta.get(beta)) for beta in betas]
        cells += [pct(report.p_a), pct(report.se_a)]
        ac = report.alarm_counts
        cells += ["-", "-", "-"] if ac is None else [str(ac.tp_a), str(ac.fp_a), str(ac.fn_a)]
        body.append(cells)
    widths = [max(len(headers[i]), *(len(row[i]) for row in body)) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _report_rows_json(rows: Sequence[tuple[str, MetricReport]]) -> dict:
    return {name: report.to_json_dict() for name, report in rows}


# -- commands -----------------------------------------------------------------


def cmd_evaluate(cfg: EvaluateConfig) -> int:
    betas = tuple(cfg.beta)
    if cfg.counts_only:
        rows = _counts_only_rows(cfg.counts_only, betas)
        filter_json = None
        inputs: dict[str, str | None] = {"counts": cfg.counts_only}
    else:
        corpus = _load_corpus(cfg.annotations, cfg.predictions)
        filter_cfg = _filter_config(cfg.w_seconds, cfg.w_frames, cfg.t_pred)
        stack_cfg = StackConfig(stack_length=cfg.stack_length)
        rows = []
        for database_id, videos in corpus.items():
            report = combine(
                (evaluate_video(s, a, filter_cfg, stack_cfg) for s, a in videos), betas
            )
            rows.append((database_id, report))
        filter_json = {
            "t_pred": filter_cfg.t_pred,
            "width_seconds": filter_cfg.width_seconds,
            "width_frames": filter_cfg.width_frames,
        }
        inputs = {"annotations": cfg.annotations, "predictions": cfg.predictions}
    macro = macro_average([report for _, report in rows])
    table = format_report_table(list(rows) + [("Avg.", macro)], betas)
    sys.stdout.write(table)
    out = _out_dir(cfg.out)
    if out is not None:
        report_json = {
            "filter": filter_json,
            "betas": list(betas),
            "databases": _report_rows_json(rows),
            "macro": macro.to_json_dict(),
        }
        (out / "report.json").write_text(
            json.dumps(report_json, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (out / "report.txt").write_text(table, encoding="utf-8")
        write_manifest(out, "evaluate", _parameters(cfg), inputs)
    return 0


def _counts_only_rows(path_text: str, betas: Sequence[float]) -> list[tuple[str, MetricReport]]:
    """Rows from a JSON list of per-database alarm counts.

    Schema: [{"database_id": ..., "tp_a": ..., "fp_a": ..., "fn_a": ...}, ...].
    F_beta is computed from p_a/se_a rounded to 3 decimals, matching numbers
    quoted from a table printed at 0.1 percentage-point precision.
    """
    path = Path(path_text)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"invalid JSON ({exc.msg})", path=path_text, line=exc.lineno)
    if not isinstance(records, list) or not records:
        raise CorpusFormatError("counts file must be a non-empty JSON list", path=path_text)
    rows: list[tuple[str, MetricReport]] = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise CorpusFormatError(f"counts entry {i} must be an object", path=path_text)
        missing = [k for k in ("database_id", "tp_a", "fp_a", "fn_a") if k not in record]
        if missing:
            raise CorpusFormatError(f"counts entry {i} missing keys {missing}", path=path_text)
        counts = AlarmCounts(
            tp_a=int(record["tp_a"]), fp_a=int(record["fp_a"]), fn_a=int(record["fn_a"])
        )
        report = MetricReport.from_counts(
            None, counts, betas, fbeta_input_decimals=COUNTS_FBETA_DECIMALS
        )
        rows.append((str(record["database_id"]), report))
    return rows


def _fmt_float(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_sweep(cfg: SweepConfig) -> int:
    corpus = _load_corpus(cfg.annotations, cfg.predictions)
    w_values = parse_grid(cfg.w_grid) if cfg.w_grid is not None else default_w_values()
    t_values = parse_grid(cfg.t_grid) if cfg.t_grid is not None else default_t_values()
    stack_cfg = StackConfig(stack_length=cfg.stack_length)
    grid = sweep(corpus, w_values, t_values, tuple(cfg.beta), stack_cfg)
    out = _out_dir(cfg.out)
    lines = [SWEEP_HEADER]
    for db, beta, w, t, fb, p_a, se_a, tp_a, fp_a, fn_a in grid.csv_rows():
        lines.append(
            f"{db},{beta:g},{w:g},{t:g},{_fmt_float(fb)},{_fmt_float(p_a)},"
            f"{_fmt_float(se_a)},{tp_a},{fp_a},{fn_a}"
        )
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / "sweep.csv").write_text(text, encoding="utf-8")
        write_manifest(
            out,
            "sweep",
            {**_parameters(cfg), "w_grid": w_values, "t_grid": t_values},
            {"annotations": cfg.annotations, "predictions": cfg.predictions},
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_tune(cfg: TuneConfig) -> int:
    corpus = _load_corpus(cfg.annotations, cfg.predictions)
    w_values = parse_grid(cfg.w_grid) if cfg.w_grid is not None else None
    t_values = parse_grid(cfg.t_grid) if cfg.t_grid is not None else None
    result = tune(
        corpus,
        w_values=w_values,
        t_values=t_values,
        beta=cfg.beta,
        min_alarm_precision=cfg.min_precision,
        max_sensitivity_drop_points=cfg.max_drop,
        stack_cfg=StackConfig(stack_length=cfg.stack_length),
    )
    for database_id in sorted(result.per_database):
        opt = result.per_database[database_id]
        if opt.feasible:
            sys.stdout.write(
                f"{database_id}: W={opt.w_seconds:g} s, T_pred={opt.t_pred:g}, "
                f"F_{cfg.beta:g}={opt.f_beta:.4f}\n"
            )
        else:
            sys.stdout.write(f"{database_id}: infeasible ({opt.reason})\n")
    sys.stdout.write(f"final: W={result.w_final:g} s, T_pred={result.t_final:g}\n")
    out = _out_dir(cfg.out)
    if out is not None:
        (out / "tuning.json").write_text(
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        write_manifest(
            out,
            "tune",
            _parameters(cfg),
            {"annotations": cfg.annotations, "predictions": cfg.predictions},
        )
    return 0


def cmd_offsets(cfg: OffsetsConfig) -> int:
    corpus = _load_corpus(cfg.annotations, cfg.predictions)
    filter_cfg = _filter_config(cfg.w_seconds, cfg.w_frames, cfg.t_pred)
    stack_cfg = StackConfig(stack_length=cfg.stack_length)
    evaluations: list[VideoEvaluation] = []
    for videos in corpus.values():
        for stream, annotation in videos:
            evaluations.append(evaluate_video(stream, annotation, filter_cfg, stack_cfg))
    records = [record for ev in evaluations for record in ev.fp_offsets]
    summary = offset_histogram(records, cfg.offset_cutoff, cfg.duration_cutoff)
    lines = ["video_id,duration_frames,offset_frames"]
    for ev in evaluations:
        for record in ev.fp_offsets:
            lines.append(f"{ev.video_id},{record.duration_frames},{record.offset_frames:g}")
    csv_text = "\n".join(lines) + "\n"
    summary_json = {
        "count": summary.count,
        "offset_below_fraction": summary.offset_below_fraction,
        "duration_below_fraction": summary.duration_below_fraction,
        "offset_cutoff_frames": summary.offset_cutoff_frames,
        "duration_cutoff_frames": summary.duration_cutoff_frames,
    }
    sys.stdout.write(json.dumps(summary_json, sort_keys=True) + "\n")
    out = _out_dir(cfg.out)
    if out is not None:
        (out / "offsets.csv").write_text(csv_text, encoding="utf-8")
        (out / "offsets_summary.json").write_text(
            json.dumps(summary_json, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        write_manifest(
            out,
            "offsets",
            _parameters(cfg),
            {"annotations": cfg.annotations, "predictions": cfg.predictions},
        )
    return 0


def cmd_synth(cfg: SynthConfig) -> int:
    out = _out_dir(cfg.out)
    if out is None:
        raise ValueError("synth requires --out")
    spec = SynthSpec(
        video_count=cfg.videos,
        fps=cfg.fps,
        frames_per_video=cfg.frames,
        fall_rate=cfg.fall_rate,
        fall_duration_mean=cfg.fall_duration_mean,
        fall_duration_spread=cfg.fall_duration_spread,
        near_fall_fp_rate=cfg.near_fp_rate,
        far_fp_rate=cfg.far_fp_rate,
        fp_duration_mean=cfg.fp_duration_mean,
        fp_duration_spread=cfg.fp_duration_spread,
        score_noise=cfg.score_noise,
        videos_per_group=cfg.videos_per_group,
        seed=cfg.seed,
        database_id=cfg.database_id,
        stack=StackConfig(stack_length=cfg.stack_length),
    )
    corpus = generate(spec)
    save_annotations(corpus.annotations, out / "annotations.jsonl")
    save_predictions(corpus.streams, out / "predictions.csv")
    ledger = {
        "fall_count": corpus.fall_count(),
        "false_pulse_count": corpus.fp_count(),
        "videos": corpus.ledger_json(),
    }
    (out / "ledger.json").write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_manifest(out, "synth", _parameters(cfg), {})
    sys.stdout.write(
        f"generated {len(corpus.annotations)} videos, {ledger['fall_count']} falls, "
        f"{ledger['false_pulse_count']} false pulses\n"
    )
    return 0


def cmd_folds(cfg: FoldsConfig) -> int:
    if not cfg.annotations:
        raise CorpusFormatError("--annotations is required")
    annotations = load_annotations(cfg.annotations)
    if not annotations:
        raise CorpusFormatError("annotation file is empty", path=cfg.annotations)
    groups = {a.video_id: a.group_id for a in annotations}
    assignment = assign_folds(groups, k=cfg.k, seed=cfg.seed)
    payload = {
        "k": assignment.k,
        "seed": assignment.seed,
        "folds": {video: fold for video, fold in sorted(assignment.folds.items())},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = _out_dir(cfg.out)
    if out is not None:
        (out / "folds.json").write_text(text, encoding="utf-8")
        write_manifest(out, "folds", _parameters(cfg), {"annotations": cfg.annotations})
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for infeasibility)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(parser: argparse.ArgumentParser, *, corpus: bool = True) -> None:
    parser.add_argument("--config", help="JSON file of parameter defaults")
    parser.add_argument("--out", help="output directory")
    if corpus:
        parser.add_argument("--annotations", help="annotation JSONL file")
        parser.add_argument("--predictions", help="prediction CSV file")


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w-seconds", type=float, dest="w_seconds", help="filter width in seconds")
    parser.add_argument("--w-frames", type=int, dest="w_frames", help="filter width in frames")
    parser.add_argument("--t-pred", type=float, dest="t_pred", help="decision threshold (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alarm-pipeline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    _add_common(p)
    _add_filter_flags(p)
    p.add_argument("--counts-only", dest="counts_only", metavar="COUNTS_JSON",
                   help="render metrics from a JSON list of per-database alarm counts")
    p.add_argument("--beta", type=float, action="append",
                   help="F-score beta; repeatable (default 0.5 and 2)")
    p.add_argument("--stack-length", type=int, dest="stack_length", help="frames per stack (default 10)")
    p.set_defaults(cls=EvaluateConfig, func=cmd_evaluate)

    p = sub.add_parser("sweep", help="metric surface over the (W, T_pred) grid")
    _add_common(p)
    p.add_argument("--w-grid", dest="w_grid", help="widths: start:stop:step or comma list (seconds)")
    p.add_argument("--t-grid", dest="t_grid", help="thresholds: start:stop:step or comma list")
    p.add_argument("--beta", type=float, action="append",
                   help="F-score beta; repeatable (default 0.5 and 2)")
    p.add_argument("--stack-length", type=int, dest="stack_length", help="frames per stack (default 10)")
    p.set_defaults(cls=SweepConfig, func=cmd_sweep)

    p = sub.add_parser("tune", help="pick (W, T_pred) under precision/sensitivity constraints")
    _add_common(p)
    p.add_argument("--w-grid", dest="w_grid", help="widths: start:stop:step or comma list (seconds)")
    p.add_argument("--t-grid", dest="t_grid", help="thresholds: start:stop:step or comma list")
    p.add_argument("--beta", type=float, help="objective F-score beta (default 0.5)")
    p.add_argument("--min-precision", type=float, dest="min_precision",
                   help="alarm precision floor (default 0.80)")
    p.add_argument("--max-drop", type=float, dest="max_drop",
                   help="max alarm sensitivity drop vs identity baseline, percentage points (default 10)")
    p.add_argument("--stack-length", type=int, dest="stack_length", help="frames per stack (default 10)")
    p.set_defaults(cls=TuneConfig, func=cmd_tune)

    p = sub.add_parser("offsets", help="duration/offset records of false alarms")
    _add_common(p)
    _add_filter_flags(p)
    p.add_argument("--offset-cutoff", type=float, dest="offset_cutoff",
                   help="offset histogram cutoff in frames (default 5)")
    p.add_argument("--duration-cutoff", type=float, dest="duration_cutoff",
                   help="duration histogram cutoff in frames (default 10)")
    p.add_argument("--stack-length", type=int, dest="stack_length", help="frames per stack (default 10)")
    p.set_defaults(cls=OffsetsConfig, func=cmd_offsets)

    p = sub.add_parser("synth", help="generate a synthetic corpus with a ground-truth ledger")
    _add_common(p, corpus=False)
    p.add_argument("--videos", type=int, help="number of videos (default 10)")
    p.add_argument("--fps", type=float, help="frame rate (default 30)")
    p.add_argument("--frames", type=int, help="frames per video (default 900)")
    p.add_argument("--fall-rate", type=float, dest="fall_rate", help="falls per video (default 1)")
    p.add_argument("--fall-duration-mean", type=int, dest="fall_duration_mean")
    p.add_argument("--fall-duration-spread", type=int, dest="fall_duration_spread")
    p.add_argument("--near-fp-rate", type=float, dest="near_fp_rate",
                   help="near-fall false pulses per video (default 0)")
    p.add_argument("--far-fp-rate", type=float, dest="far_fp_rate",
                   help="isolated false pulses per video (default 0)")
    p.add_argument("--fp-duration-mean", type=int, dest="fp_duration_mean")
    p.add_argument("--fp-duration-spread", type=int, dest="fp_duration_spread")
    p.add_argument("--score-noise", type=float, dest="score_noise",
                   help="uniform score jitter amplitude, < 0.5 (default 0)")
    p.add_argument("--videos-per-group", type=int, dest="videos_per_group",
                   help="videos sharing one parent group (default 1)")
    p.add_argument("--seed", type=int, help="corpus seed (default 0)")
    p.add_argument("--database-id", dest="database_id", help="database id (default 'synth')")
    p.add_argument("--stack-length", type=int, dest="stack_length", help="frames per stack (default 10)")
    p.set_defaults(cls=SynthConfig, func=cmd_synth)

    p = sub.add_parser("folds", help="group-safe cross-validation folds")
    _add_common(p, corpus=False)
    p.add_argument("--annotations", help="annotation JSONL file")
    p.add_argument("--k", type=int, help="fold count (default 5)")
    p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
    p.set_defaults(cls=FoldsConfig, func=cmd_folds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _resolve_config(args.cls, args)
        return args.func(cfg)
    except (InfeasibleError, GenerationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PipelineError, OSError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
