"""Output checks behind the benchmark's failure count.

No digest pins today's output bytes, because a later correctness fix may
change them legitimately. Instead each check relates two outputs that must
agree whatever the implementation:

- ``ledger``: the identity filter at T = 0.5 reproduces the synth ledger
  (TP_a = falls, FP_a = false pulses, FN_a = 0);
- ``evaluate_vs_sweep``: the ``evaluate`` alarm counts equal the sweep row at
  the same (W, T_pred), for every beta;
- ``offsets_count``: ``offsets.csv`` has one record per false alarm that
  ``evaluate`` counted;
- ``tuning_argmax``: every optimum in ``tuning.json``, and the final operating
  point, equal the constrained argmax recomputed from ``sweep.csv``.

A fifth check, that repeated runs write byte-identical artifacts, compares
the digests from :func:`digest_dir`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import T_PRED, W_SECONDS


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file under ``path``, keyed by relative path."""
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def _alarm_totals(report_path: Path) -> tuple[dict[str, tuple[int, int, int]], tuple[int, int, int]]:
    databases = json.loads(report_path.read_text(encoding="utf-8"))["databases"]
    per_db = {}
    for db, entry in databases.items():
        ac = entry["alarm_counts"]
        per_db[db] = (ac["tp_a"], ac["fp_a"], ac["fn_a"])
    total = tuple(sum(c[i] for c in per_db.values()) for i in range(3))
    return per_db, total


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _sweep_rows(sweep_csv: Path) -> list[dict]:
    with sweep_csv.open(newline="", encoding="utf-8") as handle:
        return [
            {
                "db": row["database_id"],
                "beta": float(row["beta"]),
                "w": float(row["W_seconds"]),
                "t": float(row["T_pred"]),
                "f_beta": _optional_float(row["f_beta"]),
                "p_a": _optional_float(row["p_a"]),
                "se_a": _optional_float(row["se_a"]),
                "counts": (int(row["TP_a"]), int(row["FP_a"]), int(row["FN_a"])),
            }
            for row in csv.DictReader(handle)
        ]


def check_ledger(identity_dir: Path, corpus_dir: Path) -> str | None:
    ledger = json.loads((corpus_dir / "ledger.json").read_text(encoding="utf-8"))
    _, got = _alarm_totals(identity_dir / "report.json")
    want = (ledger["fall_count"], ledger["false_pulse_count"], 0)
    if got != want:
        return f"identity (TP_a, FP_a, FN_a) {got} != ledger {want}"
    return None


def check_evaluate_vs_sweep(evaluate_dir: Path, rows: list[dict]) -> str | None:
    per_db, _ = _alarm_totals(evaluate_dir / "report.json")
    w, t = float(W_SECONDS), float(T_PRED)
    for db, counts in per_db.items():
        cell = [r for r in rows if r["db"] == db and r["w"] == w and r["t"] == t]
        if not cell:
            return f"sweep has no ({W_SECONDS}, {T_PRED}) row for {db!r}"
        for r in cell:
            if r["counts"] != counts:
                return (f"{db!r} beta {r['beta']:g}: sweep counts {r['counts']} "
                        f"!= evaluate {counts}")
    return None


def check_offsets_count(offsets_dir: Path, evaluate_dir: Path) -> str | None:
    _, (_, fp_a, _) = _alarm_totals(evaluate_dir / "report.json")
    with (offsets_dir / "offsets.csv").open(encoding="utf-8") as handle:
        records = sum(1 for line in handle if line.strip()) - 1
    if records != fp_a:
        return f"offsets.csv has {records} records, evaluate counted FP_a = {fp_a}"
    return None


def constrained_argmax(rows: list[dict], beta: float, min_precision: float,
                       max_drop_points: float, baseline: float | None) -> dict | None:
    """Best feasible sweep row; ties go to the smaller W, then the smaller T."""
    best = None
    for r in sorted((r for r in rows if r["beta"] == beta), key=lambda r: (r["w"], r["t"])):
        if r["f_beta"] is None:
            continue
        if min_precision > 0 and (r["p_a"] is None or r["p_a"] < min_precision):
            continue
        if math.isfinite(max_drop_points):
            if baseline is None or r["se_a"] is None:
                continue
            if r["se_a"] < baseline - max_drop_points / 100.0:
                continue
        if best is None or r["f_beta"] > best["f_beta"]:
            best = r
    return best


def check_tuning_argmax(tune_dir: Path, rows: list[dict]) -> str | None:
    tuning = json.loads((tune_dir / "tuning.json").read_text(encoding="utf-8"))
    beta = float(tuning["beta"])
    constraints = tuning["constraints"]
    feasible = []
    for entry in tuning["per_database"]:
        db = entry["database_id"]
        best = constrained_argmax(
            [r for r in rows if r["db"] == db], beta,
            constraints["min_alarm_precision"], constraints["max_sensitivity_drop_points"],
            constraints["baseline_se_a"].get(db),
        )
        if best is None:
            if entry["feasible"]:
                return f"{db!r}: tuning.json reports an optimum, sweep.csv has no feasible cell"
            continue
        want = {k: best[k] for k in ("f_beta", "p_a", "se_a")}
        want.update(feasible=True, w_seconds=best["w"], t_pred=best["t"])
        got = {k: entry.get(k) for k in want}
        if got != want:
            return f"{db!r}: tuning.json optimum {got} != recomputed {want}"
        feasible.append(best)
    if feasible:
        t_grid = sorted({r["t"] for r in rows})
        t_mean = sum(r["t"] for r in feasible) / len(feasible)
        want_final = {
            "w_seconds": sum(r["w"] for r in feasible) / len(feasible),
            "t_pred": min(t_grid, key=lambda g: abs(g - t_mean)),
        }
        if tuning["final"] != want_final:
            return f"tuning.json final {tuning['final']} != recomputed {want_final}"
    return None


def check_outputs(out: Path, corpus: Path) -> dict[str, str | None]:
    """Run every cross-output check; maps check name to failure text or None."""
    try:
        rows = _sweep_rows(out / "sweep" / "sweep.csv")
    except (OSError, ValueError, KeyError):
        rows = []  # the checks that read the sweep then fail on their own
    checks = {
        "ledger": lambda: check_ledger(out / "identity", corpus),
        "evaluate_vs_sweep": lambda: check_evaluate_vs_sweep(out / "evaluate", rows),
        "offsets_count": lambda: check_offsets_count(out / "offsets", out / "evaluate"),
        "tuning_argmax": lambda: check_tuning_argmax(out / "tune", rows),
    }
    results: dict[str, str | None] = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            results[name] = f"unreadable output: {type(exc).__name__}: {exc}"
    return results
