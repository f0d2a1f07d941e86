"""Benchmark of the alarm-pipeline CLI on synthetic corpora.

    python3 perfbench/run.py --workload short-1000 --seed 7 --seconds 20 --trace 0

Run from anywhere; it benchmarks the package under ``src/`` of the checkout
it sits in. With ``--trace 0`` it generates the workload corpus with
``synth`` and runs ``evaluate``, ``offsets``, ``sweep`` and ``tune`` on it as
separate processes, one at a time, and reports the median wall time of each
and the largest max-RSS of any of them. With ``--trace 1`` it runs the same
commands in one process with timing wrappers around each layer's public
functions (see ``trace_run.py``) and reports per-layer metrics instead.

Both modes check the outputs (see ``checks.py``) and count as failed every
command that exits non-zero and every check that fails. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The loop is closed with one client: commands run
in sequence and ``ALARM_PIPELINE_THREADS`` is unset for them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_outputs, digest_dir
from workloads import TIMED_COMMANDS, WORKLOADS, out_dir

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Setup runs a fixed number of times: each run writes a whole corpus, and
# its median only has to expose work moved into set-up. The other commands
# share --seconds equally and repeat, one round-robin round at a time, until
# each has used its share and has at least its minimum number of samples.
# The sub-second commands vary by a few per cent from sample to sample, so
# their medians need several; sweep and tune vary by about 1 %.
MIN_RUNS = {"setup": 5, "evaluate": 3, "offsets": 3, "sweep": 1, "tune": 1}
TIME_SHARED = ("evaluate", "offsets", "sweep", "tune")
# A run must finish within 180 s: start no optional round after LATE_S, and
# kill whatever still runs at DEADLINE_S.
LATE_S = 90.0
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed run)."""


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


class Tally:
    """Operations attempted and failed; a failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


def run_command(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, max RSS in KiB).

    The child is reaped with ``os.wait4`` so its own peak RSS is known; one
    still running at ``deadline`` (a ``time.monotonic`` value) is killed.
    """
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ALARM_PIPELINE_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "ALARM_PIPELINE_THREADS": "unset",
        "workload": workload.describe(),
    }


def preflight(env: dict, work: Path, deadline: float) -> None:
    """Fail unless the checkout's own package imports (this also compiles it)."""
    if not (SRC / "alarm_pipeline" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'alarm_pipeline'} is missing")
    probe = (SRC / "alarm_pipeline").resolve()
    argv = [sys.executable, "-c",
            "import pathlib, sys, alarm_pipeline.cli as c; "
            f"sys.exit(pathlib.Path(c.__file__).resolve().parent != pathlib.Path({str(probe)!r}))"]
    code, _, _ = run_command(argv, env, work / "preflight.log", deadline)
    if code != 0:
        raise BenchError(f"alarm_pipeline does not import from {SRC}; see {work / 'preflight.log'}")


def record_checks(tally: Tally, work: Path) -> None:
    for check, failure in check_outputs(work / "out", work / "corpus").items():
        tally.record(failure is None, f"check {check}: {failure}")


def measure(workload, seed: int, seconds: int, work: Path, env: dict, deadline: float,
            tally: Tally) -> tuple[dict, dict]:
    """Timed subprocess runs; returns (metrics, raw samples)."""
    share = seconds / len(TIME_SHARED)
    samples: dict[str, list[float]] = {name: [] for name in TIMED_COMMANDS}
    first_digests: dict[str, dict] = {}
    identical = dict.fromkeys(TIMED_COMMANDS, True)
    peak_kib = 0
    started = time.monotonic()

    def run(name: str, argv: list[str]) -> float:
        nonlocal peak_kib
        code, wall, rss = run_command([sys.executable, "-m", "alarm_pipeline.cli", *argv],
                                      env, work / f"{name}.log", deadline)
        tally.record(code == 0, f"{name} exited with code {code}; see {work / f'{name}.log'}")
        peak_kib = max(peak_kib, rss)
        return wall

    while True:
        late = time.monotonic() - started > LATE_S
        pending = [n for n in TIMED_COMMANDS if len(samples[n]) < MIN_RUNS[n]
                   or (n in TIME_SHARED and not late and sum(samples[n]) < share)]
        if not pending:
            break
        for name in pending:
            rep = len(samples[name])
            argv = workload.commands(seed, work, rep)[name]
            samples[name].append(run(name, argv))
            digests = digest_dir(out_dir(argv))
            identical[name] &= first_digests.setdefault(name, digests) == digests
            if rep:
                shutil.rmtree(out_dir(argv), ignore_errors=True)
    run("identity", workload.commands(seed, work)["identity"])
    for name in TIMED_COMMANDS:
        tally.record(identical[name], f"{name} artifacts differ between repetitions")
    record_checks(tally, work)
    metrics = {f"{name}_s": {"value": statistics.median(samples[name]), "unit": "s"}
               for name in TIMED_COMMANDS}
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    return metrics, samples


def trace(workload, seed: int, work: Path, env: dict, deadline: float, tally: Tally) -> dict:
    """Traced in-process run in a child; returns the per-layer metrics."""
    argv = [sys.executable, str(PERFBENCH / "trace_run.py"), "--workload", workload.name,
            "--seed", str(seed), "--work", str(work)]
    code, _, _ = run_command(argv, env, work / "trace.log", deadline)
    if code != 0:
        raise BenchError(f"traced run exited with code {code}; see {work / 'trace.log'}")
    data = json.loads((work / "trace.json").read_text(encoding="utf-8"))
    for phase in ("untraced", "traced"):
        for name, code in data[phase]["codes"].items():
            tally.record(code == 0, f"{phase} {name} returned {code}")
    tally.record(data["identity_code"] == 0, f"identity returned {data['identity_code']}")
    for name in TIMED_COMMANDS:
        tally.record(data["untraced"]["digests"][name] == data["traced"]["digests"][name],
                     f"tracing changed the {name} artifacts")
    record_checks(tally, work)
    return data["metrics"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="synth corpus seed (default 7)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measurement budget shared by the timed commands (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced in-process run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGALRM, _raise_timeout)
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    tally = Tally()
    try:
        preflight(env, work, deadline)
        if args.trace:
            metrics, samples = trace(workload, args.seed, work, env, deadline, tally), {}
        else:
            metrics, samples = measure(workload, args.seed, args.seconds, work, env, deadline, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Deleting a file that has reached the disk can take a while; do it
        # after measuring rather than at the start of the next run.
        (work / "corpus" / "predictions.csv").unlink(missing_ok=True)
    env_record = environment(workload)
    (work / "run.json").write_text(json.dumps(
        {"args": vars(args), "environment": env_record, "samples": samples,
         "failures": tally.failures, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(env_record, sort_keys=True)}")
    sample_counts = {f"{name}_s": len(values) for name, values in samples.items()}
    for name, metric in metrics.items():
        runs = f"  (median of {sample_counts[name]})" if name in sample_counts else ""
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{runs}")
    print(f"  {'error_rate':<36} {tally.error_rate:>14.6g} "
          f"({len(tally.failures)} of {tally.attempted} operations failed)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
