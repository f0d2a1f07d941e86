"""Command-line front end.

Subcommands: evaluate, sweep, tune, offsets, synth, folds. Each parameter is
declared once, in ``PARAMS``: its name is the config key, the manifest key and,
with dashes, the flag. ``COMMANDS`` lists each subcommand's parameters, and the
parser and the config resolution are generated from the two tables. Every
command accepts ``--config FILE`` (a JSON object of parameter defaults, each
value of its flag's type); explicit flags win over the file. Commands that
write into ``--out`` also drop a manifest.json there with a content hash of the
semantic inputs, so two runs with identical inputs produce identical manifests.

Each command checks all its parameters before it reads any input. Exit
codes: 0 success, 1 bad usage or bad data, 2 constraints infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import (
    PredictionStream,
    StackConfig,
    VideoAnnotation,
    _check_utf8,
    _csv_field,
    _is_integer,
    _is_number,
    _kind_message,
    _record_error,
    assign_folds,
    load_annotations,
    load_predictions,
    save_annotations,
    save_predictions,
)
from .errors import CorpusFormatError, GenerationError, InfeasibleError, PipelineError
from .metrics import DEFAULT_BETAS, AlarmCounts, MetricReport, check_beta, check_betas, macro_average
from .synth import SynthSpec, generate
from .temporal import FilterConfig, check_cutoffs, offset_histogram
from .tuning import (Corpus, TuningConstraints, TuningResult, check_grids, default_t_values,
                     default_w_values, false_alarm_offsets, filter_counts, sweep, tune)

SWEEP_HEADER = "database_id,beta,W_seconds,T_pred,f_beta,p_a,se_a,TP_a,FP_a,FN_a"
COUNTS_FBETA_DECIMALS = 3
SKIPPED_IDS_SHOWN = 3  # the skipped-videos warning names only the first few
# Keys of a --counts-only entry, in the order checked, and their JSON kinds.
_COUNTS_KINDS = {"database_id": "a string", **dict.fromkeys(("tp_a", "fp_a", "fn_a"), "an integer")}


# -- parameters ---------------------------------------------------------------


def _grid(text: str) -> str:
    """Type of --w-grid/--t-grid: the text as given, read by :func:`parse_grid`."""
    return text


class Param(NamedTuple):
    """One parameter: config and manifest key ``name``, flag ``--name-with-dashes``.

    ``type``, ``help``, ``action`` and ``metavar`` go to argparse. ``key`` names
    the table entry when two commands declare the same flag differently.
    """

    name: str
    default: Any = None
    type: Callable[[str], Any] = str
    help: str | None = None
    action: str | None = None
    metavar: str | None = None
    key: str | None = None


PARAMS = {p.key or p.name: p for p in (
    Param("config", help="JSON file of parameter defaults"),
    Param("out", help="output directory"),
    Param("annotations", help="annotation JSONL file"),
    Param("predictions", help="prediction CSV file"),
    Param("w_seconds", None, float, "filter width in seconds"),
    Param("w_frames", None, int, "filter width in frames"),
    Param("t_pred", 0.5, float, "decision threshold (default 0.5)"),
    Param("counts_only", metavar="COUNTS_JSON",
          help="render metrics from a JSON list of per-database alarm counts"),
    Param("beta", DEFAULT_BETAS, float, "F-score beta; repeatable (default 0.5 and 2)",
          action="append"),
    Param("beta", 0.5, float, "objective F-score beta (default 0.5)", key="tune_beta"),
    Param("stack_length", 10, int, "frames per stack (default 10)"),
    Param("w_grid", None, _grid, "widths: start:stop:step or comma list (seconds)"),
    Param("t_grid", None, _grid, "thresholds: start:stop:step or comma list"),
    Param("min_precision", 0.80, float, "alarm precision floor (default 0.80)"),
    Param("max_drop", 10.0, float,
          "max alarm sensitivity drop vs identity baseline, percentage points (default 10)"),
    Param("offset_cutoff", 5.0, float, "offset histogram cutoff in frames (default 5)"),
    Param("duration_cutoff", 10.0, float, "duration histogram cutoff in frames (default 10)"),
    Param("videos", 10, int, "number of videos (default 10)"),
    Param("fps", 30.0, float, "frame rate (default 30)"),
    Param("frames", 900, int, "frames per video (default 900)"),
    Param("fall_rate", 1.0, float, "falls per video (default 1)"),
    Param("fall_duration_mean", 32, int),
    Param("fall_duration_spread", 8, int),
    Param("near_fp_rate", 0.0, float, "near-fall false pulses per video (default 0)"),
    Param("far_fp_rate", 0.0, float, "isolated false pulses per video (default 0)"),
    Param("fp_duration_mean", 5, int),
    Param("fp_duration_spread", 3, int),
    Param("score_noise", 0.0, float, "uniform score jitter amplitude, < 0.5 (default 0)"),
    Param("videos_per_group", 1, int, "videos sharing one parent group (default 1)"),
    Param("seed", 0, int, "corpus seed (default 0)"),
    Param("database_id", "synth", help="database id (default 'synth')"),
    Param("k", 5, int, "fold count (default 5)"),
    Param("seed", 0, int, "shuffle seed (default 0)", key="fold_seed"),
)}

_CORPUS = "config out annotations predictions"
_FILTER = "w_seconds w_frames t_pred"
COMMANDS = {  # subcommand -> (help, PARAMS keys in --help order)
    "evaluate": ("score predictions against annotations",
                 f"{_CORPUS} {_FILTER} counts_only beta stack_length"),
    "sweep": ("metric surface over the (W, T_pred) grid",
              f"{_CORPUS} w_grid t_grid beta stack_length"),
    "tune": ("pick (W, T_pred) under precision/sensitivity constraints",
             f"{_CORPUS} w_grid t_grid tune_beta min_precision max_drop stack_length"),
    "offsets": ("duration/offset records of false alarms",
                f"{_CORPUS} {_FILTER} offset_cutoff duration_cutoff stack_length"),
    "synth": ("generate a synthetic corpus with a ground-truth ledger",
              "config out videos fps frames fall_rate fall_duration_mean fall_duration_spread "
              "near_fp_rate far_fp_rate fp_duration_mean fp_duration_spread score_noise "
              "videos_per_group seed database_id stack_length"),
    "folds": ("group-safe cross-validation folds", "config out annotations k fold_seed"),
}

# Resolved parameters kept out of manifest.json: the command and file paths.
_NOT_HASHED = ("command", "out", "annotations", "predictions", "counts_only")
# SynthSpec fields whose parameter has another name.
_SYNTH_FIELDS = {"videos": "video_count", "frames": "frames_per_video",
                 "near_fp_rate": "near_fall_fp_rate"}


def _file_value(param: Param, value: Any, path: str) -> Any:
    """A config-file value checked against ``param``'s type, converted as its flag would be."""
    if value is None and param.default is None:
        return None
    numbers = isinstance(value, list) and all(map(_is_number, value))
    kind, valid, convert = {  # declared type -> (JSON kind, check, conversion)
        int: ("an integer", _is_integer(value), int),
        float: ("a number", _is_number(value), float),
        list: ("a non-empty list of numbers", numbers and bool(value),
               lambda v: [float(x) for x in v]),
        _grid: ("a string or a list of numbers", isinstance(value, str) or numbers, None),
        str: ("a string", isinstance(value, str), None),
    }[list if param.action == "append" else param.type]
    if not valid:
        raise CorpusFormatError("config " + _kind_message(param.name, kind, value), path=path)
    return convert(value) if convert else value


def _read_json(path: str) -> Any:
    _check_utf8(Path(path))
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"invalid JSON ({exc.msg})", path=path, line=exc.lineno)


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults <- config file <- explicit CLI flags for ``args.command``."""
    params = [PARAMS[key] for key in COMMANDS[args.command][1].split() if key != "config"]
    file_cfg: dict[str, Any] = {}
    if args.config:
        file_cfg = _read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise CorpusFormatError("config must be a JSON object", path=args.config)
        unknown = sorted(set(file_cfg) - {p.name for p in params})
        if unknown:
            raise CorpusFormatError(f"unknown config keys {unknown}", path=args.config)
        file_cfg = {p.name: _file_value(p, file_cfg[p.name], args.config)
                    for p in params if p.name in file_cfg}
    values = {p.name: p.default for p in params} | file_cfg
    values |= {k: v for k, v in vars(args).items() if k in values and v is not None}
    return argparse.Namespace(command=args.command, **values)


def _parameters(cfg: argparse.Namespace) -> dict[str, Any]:
    """Manifest view of a config: semantic knobs only, no command or paths."""
    return {k: v for k, v in vars(cfg).items() if k not in _NOT_HASHED}


def parse_grid(spec: Any) -> list[float]:
    """Grid from 'start:stop:step', a comma list, or a JSON array of numbers."""
    if isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
    elif ":" in str(spec):
        parts = str(spec).split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {spec!r} must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"grid {spec!r} has non-finite values")
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


def _load_corpus(cfg: argparse.Namespace) -> Corpus:
    """Pair predictions with annotations, grouped by database.

    A prediction for an unannotated video, or one whose stacks leave the
    video's frames, is an error (the loader rejects anchors that skip a
    frame); an annotated video without predictions is skipped with a warning;
    an empty pairing is an error.
    """
    if not cfg.annotations or not cfg.predictions:
        raise CorpusFormatError("both --annotations and --predictions are required")
    annotations = load_annotations(cfg.annotations)
    streams = load_predictions(cfg.predictions)
    by_video = {a.video_id: a for a in annotations}
    stream_map: dict[str, PredictionStream] = {}
    for stream in streams:
        annotation = by_video.get(stream.video_id)
        if annotation is None:
            raise CorpusFormatError(
                f"predictions reference unknown video {stream.video_id!r}",
                path=cfg.predictions,
            )
        lo, hi = cfg.stack_length - 1, annotation.frame_count
        if not lo <= stream.first_anchor <= hi - len(stream):  # every anchor in [lo, hi)
            raise CorpusFormatError(
                f"anchors of video {stream.video_id!r} must lie in [{lo}, {hi}) "
                f"for stacks of {cfg.stack_length} frames",
                path=cfg.predictions,
            )
        stream_map[stream.video_id] = stream
    if not stream_map:
        raise CorpusFormatError("no videos have both annotations and predictions")
    corpus: dict[str, list[tuple[PredictionStream, VideoAnnotation]]] = {}
    skipped = [a.video_id for a in annotations if a.video_id not in stream_map]
    if skipped:
        shown = ", ".join(skipped[:SKIPPED_IDS_SHOWN])
        if len(skipped) > SKIPPED_IDS_SHOWN:
            shown += f", ... ({len(skipped) - SKIPPED_IDS_SHOWN} more)"
        warnings.warn(f"skipping {len(skipped)} annotated videos without predictions: {shown}")
    for annotation in annotations:
        stream = stream_map.get(annotation.video_id)
        if stream is not None:
            corpus.setdefault(annotation.database_id, []).append((stream, annotation))
    return corpus


def _grids(cfg: argparse.Namespace) -> tuple[list[float], list[float]]:
    """The checked --w-grid and --t-grid values, each defaulting to the standard grid."""
    w_values = parse_grid(cfg.w_grid) if cfg.w_grid is not None else default_w_values()
    t_values = parse_grid(cfg.t_grid) if cfg.t_grid is not None else default_t_values()
    check_grids(w_values, t_values)
    return w_values, t_values


def _betas(cfg: argparse.Namespace) -> tuple[float, ...]:
    """The --beta values, checked by :func:`check_betas`."""
    check_betas(cfg.beta)
    return tuple(cfg.beta)


def _filter_config(cfg: argparse.Namespace) -> FilterConfig:
    if cfg.w_seconds is not None and cfg.w_frames is not None:
        raise ValueError("give at most one of --w-seconds / --w-frames")
    w_frames = 1 if cfg.w_seconds is None and cfg.w_frames is None else cfg.w_frames
    return FilterConfig(t_pred=cfg.t_pred, width_seconds=cfg.w_seconds, width_frames=w_frames)


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
    digests = {role: {"path": str(Path(path)), "sha256": _sha256(Path(path))}
               for role, path in inputs.items() if path is not None}
    hashed = {
        "command": command,
        "parameters": dict(parameters),
        "inputs": {role: entry["sha256"] for role, entry in digests.items()},
    }
    config_hash = hashlib.sha256(_dumps(hashed, separators=(",", ":")).encode("utf-8")).hexdigest()
    pieces = _json_pieces({**hashed, "inputs": digests, "config_hash": config_hash})
    with (out_dir / "manifest.json").open("w", encoding="utf-8") as handle:
        handle.writelines(pieces)


# Encoder chunks joined into one write: a JSON artifact is written in pieces
# of this many chunks, never held whole.
_JSON_PIECE = 4096


def _json_ready(payload: Any) -> Any:
    """``payload`` with each +inf, an unbounded limit, replaced by None.

    Raises ValueError at NaN or -inf and TypeError at a value JSON cannot
    hold, so a payload fails before any of its text is written. A container
    with no +inf in it is returned as it is, not copied.
    """
    if isinstance(payload, (str, int)) or payload is None:  # a bool is an int
        return payload
    if isinstance(payload, float):
        if payload == math.inf:
            return None
        if not math.isfinite(payload):
            raise ValueError(f"Out of range float values are not JSON compliant: {payload!r}")
        return payload
    if isinstance(payload, dict):
        values = list(map(_json_ready, payload.values()))
        if all(map(operator.is_, values, payload.values())):
            return payload
        return dict(zip(payload, values))
    if isinstance(payload, (list, tuple)):
        values = list(map(_json_ready, payload))
        return payload if all(map(operator.is_, values, payload)) else values
    raise TypeError(f"Object of type {type(payload).__name__} is not JSON serializable")


def _dumps(payload: Any, **kwargs: Any) -> str:
    """Strict JSON (RFC 8259) of ``payload``, keys sorted; an infinite limit is null."""
    return json.dumps(_json_ready(payload), sort_keys=True, allow_nan=False, **kwargs)


def _json_pieces(payload: Any) -> Iterator[str]:
    """The text of ``_dumps(payload, indent=2) + "\\n"`` in pieces of
    ``_JSON_PIECE`` encoder chunks, for a JSON artifact. The payload is
    checked by :func:`_json_ready` in this call, before the first piece."""
    chunks = json.JSONEncoder(sort_keys=True, allow_nan=False, indent=2).iterencode(
        _json_ready(payload))
    # The encoder yields no empty chunk, so the first empty piece is the end.
    pieces = iter(lambda: "".join(itertools.islice(chunks, _JSON_PIECE)), "")
    return itertools.chain(pieces, ["\n"])


# Each JSON artifact is its record's fields, shaped here and written by _json_pieces.
def _report_json(report: MetricReport) -> dict[str, Any]:
    """A report's fields, its F_beta values keyed by ``f"{beta:g}"``."""
    return dataclasses.asdict(report) | {
        "f_beta": {f"{beta:g}": value for beta, value in report.f_beta.items()}
    }


def _tuning_json(result: TuningResult) -> dict[str, Any]:
    """A tuning result's fields: the optima listed by database id, each
    without the fields it leaves unset (a feasible optimum has no reason, an
    infeasible one no cell), and the final pair as ``final``."""
    payload = dataclasses.asdict(result)
    optima = payload.pop("per_database")
    payload["per_database"] = [{key: value for key, value in optima[db].items()
                                if value is not None} for db in sorted(optima)]
    payload["final"] = {"w_seconds": payload.pop("w_final"), "t_pred": payload.pop("t_final")}
    return payload


def _write_outputs(cfg: argparse.Namespace, artifacts: Mapping[str, Any]) -> None:
    """Write ``artifacts`` and manifest.json into ``cfg.out``.

    A name ending in ``.json`` maps to its payload, written by
    :func:`_json_pieces` in bounded pieces; any other name maps to its text.
    Every payload is checked before the first file is opened. The manifest
    records the command's input files: the counts file when
    there is one, else whichever of annotations and predictions it takes.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    texts = {name: _json_pieces(content) if name.endswith(".json") else [content]
             for name, content in artifacts.items()}
    for name, pieces in texts.items():
        with (out / name).open("w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    inputs = ({"counts": cfg.counts_only} if getattr(cfg, "counts_only", None) else
              {role: getattr(cfg, role, None) for role in ("annotations", "predictions")})
    write_manifest(out, cfg.command, _parameters(cfg), inputs)


def format_report_table(rows: Sequence[tuple[str, MetricReport]], betas: Sequence[float]) -> str:
    """Fixed-width text table of alarm metrics, one database per row.

    Ratios print as percentages with one decimal; undefined values and the
    missing counts of a macro-average row print as '-'. ``betas`` must pass
    :func:`check_betas`, so no F column repeats.
    """
    check_betas(betas)
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


# -- commands -----------------------------------------------------------------


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    betas = _betas(cfg)
    if cfg.counts_only:
        rows = _counts_only_rows(cfg.counts_only, betas)
        filter_json = None
    else:
        filter_cfg = _filter_config(cfg)
        stack_cfg = StackConfig(stack_length=cfg.stack_length)
        corpus = _load_corpus(cfg)
        rows = [
            (database_id,
             MetricReport.from_counts(*filter_counts(videos, filter_cfg, stack_cfg), betas))
            for database_id, videos in corpus.items()
        ]
        filter_json = dataclasses.asdict(filter_cfg)
    macro = macro_average([report for _, report in rows])
    table = format_report_table(list(rows) + [("Avg.", macro)], betas)
    sys.stdout.write(table)
    if cfg.out:
        report_json = {
            "filter": filter_json,
            "betas": betas,
            "databases": {name: _report_json(report) for name, report in rows},
            "macro": _report_json(macro),
        }
        _write_outputs(cfg, {"report.json": report_json, "report.txt": table})
    return 0


def _counts_only_rows(path_text: str, betas: Sequence[float]) -> list[tuple[str, MetricReport]]:
    """Rows from a JSON list of per-database alarm counts.

    Schema: [{"database_id": ..., "tp_a": ..., "fp_a": ..., "fn_a": ...}, ...].
    F_beta is computed from p_a/se_a rounded to 3 decimals, matching numbers
    quoted from a table printed at 0.1 percentage-point precision.
    """
    records = _read_json(path_text)
    if not isinstance(records, list) or not records:
        raise CorpusFormatError("counts file must be a non-empty JSON list", path=path_text)
    rows: list[tuple[str, MetricReport]] = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise CorpusFormatError(f"counts entry {i} must be an object", path=path_text)
        problem = _record_error(record, dict.fromkeys(_COUNTS_KINDS))  # missing keys first
        for key, kind in _COUNTS_KINDS.items():  # then each key's kind, then its sign
            problem = problem or _record_error(record, {key: kind})
            if not problem and kind == "an integer" and record[key] < 0:
                problem = f"key {key!r} must be >= 0, got {record[key]}"
        if problem:
            raise CorpusFormatError(f"counts entry {i} {problem}", path=path_text)
        if any(name == record["database_id"] for name, _ in rows):  # report.json would keep one
            raise CorpusFormatError(
                f"counts entry {i} repeats database_id {json.dumps(record['database_id'])}",
                path=path_text,
            )
        counts = AlarmCounts(tp_a=record["tp_a"], fp_a=record["fp_a"], fn_a=record["fn_a"])
        report = MetricReport.from_counts(
            None, counts, betas, fbeta_input_decimals=COUNTS_FBETA_DECIMALS
        )
        rows.append((record["database_id"], report))
    return rows


def _fmt_float(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    cfg.w_grid, cfg.t_grid = _grids(cfg)  # the manifest records the grids the sweep ran
    betas = _betas(cfg)
    stack_cfg = StackConfig(stack_length=cfg.stack_length)
    corpus = _load_corpus(cfg)
    grid = sweep(corpus, cfg.w_grid, cfg.t_grid, stack_cfg)
    metrics = {beta: [m.tolist() for m in grid.alarm_metrics(beta)] for beta in betas}
    alarm = grid.counts[..., 4:].tolist()
    lines = [SWEEP_HEADER]
    for (d, db), beta, (w, w_value), (t, t_value) in itertools.product(
        enumerate(map(_csv_field, grid.databases)), betas, enumerate(grid.w_values),
        enumerate(grid.t_values)
    ):
        fb, p_a, se_a = (_fmt_float(m[d][w][t]) for m in metrics[beta])
        tp_a, fp_a, fn_a = alarm[d][w][t]
        lines.append(
            f"{db},{beta:g},{w_value:g},{t_value:g},{fb},{p_a},{se_a},{tp_a},{fp_a},{fn_a}"
        )
    text = "\n".join(lines) + "\n"
    if cfg.out:
        _write_outputs(cfg, {"sweep.csv": text})
    else:
        sys.stdout.write(text)
    return 0


def cmd_tune(cfg: argparse.Namespace) -> int:
    w_values, t_values = _grids(cfg)
    check_beta(cfg.beta)
    TuningConstraints(cfg.min_precision, cfg.max_drop)  # checks both limits
    stack_cfg = StackConfig(stack_length=cfg.stack_length)
    corpus = _load_corpus(cfg)
    result = tune(
        corpus,
        w_values=w_values,
        t_values=t_values,
        beta=cfg.beta,
        min_alarm_precision=cfg.min_precision,
        max_sensitivity_drop_points=cfg.max_drop,
        stack_cfg=stack_cfg,
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
    if cfg.out:
        _write_outputs(cfg, {"tuning.json": _tuning_json(result)})
    return 0


def _offset_text(offset_frames: float) -> str:
    """An offset as its exact whole number of frames, or ``inf``."""
    return "inf" if offset_frames == math.inf else str(int(offset_frames))


def cmd_offsets(cfg: argparse.Namespace) -> int:
    filter_cfg = _filter_config(cfg)
    check_cutoffs(cfg.offset_cutoff, cfg.duration_cutoff)
    stack_cfg = StackConfig(stack_length=cfg.stack_length)
    corpus = _load_corpus(cfg)
    alarms = [alarm for videos in corpus.values()
              for alarm in false_alarm_offsets(videos, filter_cfg, stack_cfg)]
    summary = offset_histogram([record for _, record in alarms], cfg.offset_cutoff,
                               cfg.duration_cutoff)
    lines = ["video_id,duration_frames,offset_frames"]
    lines += [f"{_csv_field(video_id)},{record.duration_frames},{_offset_text(record.offset_frames)}"
              for video_id, record in alarms]
    summary_json = dataclasses.asdict(summary)
    sys.stdout.write(_dumps(summary_json) + "\n")
    if cfg.out:
        _write_outputs(cfg, {"offsets.csv": "\n".join(lines) + "\n",
                             "offsets_summary.json": summary_json})
    return 0


def cmd_synth(cfg: argparse.Namespace) -> int:
    if not cfg.out:
        raise ValueError("synth requires --out")
    knobs = _parameters(cfg)
    stack = StackConfig(stack_length=knobs.pop("stack_length"))
    corpus = generate(SynthSpec(**{_SYNTH_FIELDS.get(k, k): v for k, v in knobs.items()},
                                stack=stack))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_annotations(corpus.annotations, out / "annotations.jsonl")
    save_predictions(corpus.streams, out / "predictions.csv")
    ledger = {
        "fall_count": corpus.fall_count(),
        "false_pulse_count": corpus.fp_count(),
        "videos": {video: [vars(event) for event in events]  # flat records: no deep copy
                   for video, events in corpus.ledger.items()},
    }
    _write_outputs(cfg, {"ledger.json": ledger})
    sys.stdout.write(
        f"generated {len(corpus.annotations)} videos, {ledger['fall_count']} falls, "
        f"{ledger['false_pulse_count']} false pulses\n"
    )
    return 0


def cmd_folds(cfg: argparse.Namespace) -> int:
    if not cfg.annotations:
        raise CorpusFormatError("--annotations is required")
    annotations = load_annotations(cfg.annotations)
    if not annotations:
        raise CorpusFormatError("annotation file is empty", path=cfg.annotations)
    groups = {a.video_id: a.group_id for a in annotations}
    assignment = assign_folds(groups, k=cfg.k, seed=cfg.seed)
    payload = dataclasses.asdict(assignment)
    if cfg.out:
        _write_outputs(cfg, {"folds.json": payload})
    else:
        sys.stdout.writelines(_json_pieces(payload))
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for infeasibility)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """The parser generated from ``COMMANDS`` and ``PARAMS``; every flag defaults to None."""
    parser = _Parser(prog="alarm-pipeline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for param in (PARAMS[key] for key in keys.split()):
            p.add_argument("--" + param.name.replace("_", "-"), type=param.type, help=param.help,
                           action=param.action, metavar=param.metavar)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # looked up at call time, so a wrapper bound to the module name is the one run
        command = globals()[f"cmd_{args.command}"]
        return command(_resolve_config(args))
    except (InfeasibleError, GenerationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PipelineError, OSError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
