"""In-process traced run: per-layer busy time, self time and call counts.

``run.py --trace 1`` starts this file as a child process:

    python3 perfbench/trace_run.py --workload NAME --seed N --work DIR

It imports the CLI (timing the import), runs the workload's commands once
through ``cli.main`` untraced, then wraps the public functions of every
layer and runs the same commands again, writing to fresh directories. The package binds names at import
(``from .temporal import extract_alarms``), so each wrapper is installed in
every module namespace that holds the original function, and classmethods
are wrapped on their class. Spans (name, parent, start, end) are kept in
memory and written to ``DIR/spans.npz`` when the run ends; the per-layer
metrics go to ``DIR/trace.json`` for ``run.py`` to report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import shutil
import sys
import time
from array import array
from pathlib import Path

from checks import digest_dir
from workloads import TIMED_COMMANDS, WORKLOADS, out_dir

# Public functions wrapped, by layer (module of alarm_pipeline). Private
# helpers such as tuning._video_cells stay unwrapped: their work shows up as
# the self time of the public function that calls them.
TRACED = {
    "corpus": ("load_annotations", "load_predictions", "save_annotations",
               "save_predictions", "stack_label_masks"),
    "synth": ("generate",),
    "temporal": ("gate_filter", "threshold_labels", "extract_alarms", "match_alarms",
                 "evaluate_video", "combine", "offset_histogram"),
    "tuning": ("sweep", "baseline_sensitivities", "per_database_argmax",
               "average_optima", "tune"),
    "metrics": ("MetricReport.from_counts", "macro_average"),
    "cli": ("write_manifest", "cmd_synth", "cmd_evaluate", "cmd_offsets",
            "cmd_sweep", "cmd_tune"),
}


def _count_rows(args, result):
    return {"rows": sum(len(stream) for stream in result)}


def _count_runs(args, result):
    return {"runs": len(result)}


def _count_cells(args, result):
    videos = sum(len(args[0][db]) for db in result.databases)
    return {"cells": videos * len(result.w_values) * len(result.t_values),
            "widths": videos * len(result.w_values)}


# Work counts taken at the boundary, from each call's arguments and result.
COUNTERS = {
    "corpus.load_predictions": _count_rows,
    "temporal.extract_alarms": _count_runs,
    "tuning.sweep": _count_cells,
}


class Tracer:
    """Span recorder; one wrapper per traced function, spans in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counts: dict[str, dict[str, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        idx = len(self.names)
        self.names.append(span)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter_ns
        count = COUNTERS.get(span)
        totals = self.counts.setdefault(span, {}) if count else None

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return functools.wraps(fn)(traced)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "alarm_pipeline" or name.startswith("alarm_pipeline.")]
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"alarm_pipeline.{layer}")
            for qualname in functions:
                span = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._rebind(cls, attr, classmethod(self.wrap(span, original.__func__)))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, time per child name.

        Self time is span time minus the time covered by its child spans;
        children of one span never overlap, the run being single-threaded.
        """
        import numpy as np

        k = len(self.names)
        ids = np.frombuffer(self.name_ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)) / 1e9
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=ids.size)
        pairs = ids[parents[nested]] * k + ids[nested]
        child_s = np.bincount(pairs, weights=dur[nested], minlength=k * k).reshape(k, k)
        child_calls = np.bincount(pairs, minlength=k * k).reshape(k, k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "children": {
                    self.names[j]: {"calls": int(child_calls[i, j]), "total_s": float(child_s[i, j])}
                    for j in np.flatnonzero(child_calls[i])
                },
                **self.counts.get(name, {}),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name_ids=np.frombuffer(self.name_ids, np.int64),
                 parents=np.frombuffer(self.parents, np.int64),
                 start_ns=np.frombuffer(self.starts, np.int64),
                 end_ns=np.frombuffer(self.ends, np.int64))


def layer_metrics(spans: dict, import_s: float, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from the span summary."""
    def total(name):
        return spans[name]["total_s"]

    def calls(name):
        return spans[name]["calls"]

    sweep = spans["tuning.sweep"]
    values = {
        "corpus.load_predictions_s": (total("corpus.load_predictions"), "s"),
        "corpus.load_predictions_rows_per_s": (
            spans["corpus.load_predictions"]["rows"] / total("corpus.load_predictions"), "1/s"),
        "corpus.load_annotations_s": (total("corpus.load_annotations"), "s"),
        "corpus.save_predictions_s": (total("corpus.save_predictions"), "s"),
        "corpus.stack_label_masks_s": (total("corpus.stack_label_masks"), "s"),
        "corpus.stack_label_masks_calls": (calls("corpus.stack_label_masks"), "count"),
        "synth.generate_s": (total("synth.generate"), "s"),
        "temporal.gate_filter_s": (total("temporal.gate_filter"), "s"),
        "temporal.gate_filter_calls": (calls("temporal.gate_filter"), "count"),
        "temporal.extract_alarms_s": (total("temporal.extract_alarms"), "s"),
        "temporal.extract_alarms_calls": (calls("temporal.extract_alarms"), "count"),
        "temporal.alarm_runs": (spans["temporal.extract_alarms"]["runs"], "count"),
        "temporal.match_alarms_s": (total("temporal.match_alarms"), "s"),
        "temporal.match_alarms_calls": (calls("temporal.match_alarms"), "count"),
        "temporal.evaluate_video_s": (total("temporal.evaluate_video"), "s"),
        "tuning.sweep_s": (sweep["total_s"], "s"),
        "tuning.sweep_self_s": (sweep["self_s"], "s"),
        "tuning.cells": (sweep["cells"], "count"),
        "tuning.us_per_cell": (1e6 * sweep["total_s"] / sweep["cells"], "us"),
        "tuning.filter_reuse_ratio": (
            sweep["children"].get("temporal.gate_filter", {"calls": 0})["calls"] / sweep["widths"],
            "ratio"),
        "tuning.baseline_s": (total("tuning.baseline_sensitivities"), "s"),
        "tuning.argmax_s": (total("tuning.per_database_argmax"), "s"),
        "metrics.from_counts_s": (total("metrics.from_counts"), "s"),
        "metrics.from_counts_calls": (calls("metrics.from_counts"), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.write_manifest_s": (total("cli.write_manifest"), "s"),
        "cli.trace_overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from alarm_pipeline import cli
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]

    def run_pass(rep: int) -> dict:
        commands = workload.commands(args.seed, args.work, rep)
        record: dict = {"codes": {}, "seconds": {}, "digests": {}}
        for name in TIMED_COMMANDS:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(commands[name])
            record["seconds"][name] = time.perf_counter() - t0
            record["codes"][name] = code
            record["digests"][name] = digest_dir(out_dir(commands[name]))
            if rep:
                shutil.rmtree(out_dir(commands[name]), ignore_errors=True)
        return record

    untraced = run_pass(0)
    with contextlib.redirect_stdout(io.StringIO()):
        identity_code = cli.main(workload.commands(args.seed, args.work)["identity"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(1)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    tracer.save(args.work / "spans.npz")
    untraced_s = sum(untraced["seconds"].values())
    traced_s = sum(traced["seconds"].values())
    result = {
        "untraced": untraced,
        "traced": traced,
        "identity_code": identity_code,
        "metrics": layer_metrics(spans, import_s, untraced_s, traced_s),
        "spans": spans,
    }
    (args.work / "trace.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
