import itertools
import math

import numpy as np
import pytest

from alarm_pipeline import tuning
from alarm_pipeline.cli import main
from alarm_pipeline.corpus import save_annotations, save_predictions
from alarm_pipeline.errors import InfeasibleError
from alarm_pipeline.metrics import AlarmCounts, ConfusionCounts, MetricReport
from alarm_pipeline.synth import SynthSpec, generate
from alarm_pipeline.temporal import FilterConfig, evaluate_video, combine, identity_filter
from alarm_pipeline.tuning import (
    OptimumResult,
    SweepGrid,
    TuningConstraints,
    average_optima,
    baseline_sensitivities,
    default_t_values,
    default_w_values,
    per_database_argmax,
    snap_to_grid,
    sweep,
    tune,
)


def small_corpus(seed=3, videos=4, **kwargs):
    spec = SynthSpec(
        video_count=videos,
        frames_per_video=600,
        near_fall_fp_rate=kwargs.pop("near", 1.0),
        far_fp_rate=kwargs.pop("far", 1.0),
        min_separation_frames=kwargs.pop("sep", 75),
        seed=seed,
        **kwargs,
    )
    corpus = generate(spec)
    return {spec.database_id: list(corpus.pairs())}


def _defined(value):
    """``value`` as the scalar metrics give it: None for NaN."""
    return None if math.isnan(value) else float(value)


# -- grids ---------------------------------------------------------------------


def test_default_grids():
    w = default_w_values()
    t = default_t_values()
    assert len(w) == 40
    assert w[0] == 0.05 and w[-1] == 2.0
    assert t == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_snap_to_grid():
    t = default_t_values()
    assert snap_to_grid(0.43, t) == 0.4
    assert snap_to_grid(0.45, t) == 0.4  # equidistant ties go low
    assert snap_to_grid(0.46, t) == 0.5
    assert snap_to_grid(0.05, t) == 0.1
    assert snap_to_grid(2.0, t) == 0.9


# -- constraints ----------------------------------------------------------------


def _mask(constraints, database, p_a, se_a):
    """The mask of one database's row of cells, as a list of bools."""
    return constraints.mask([database], np.array([p_a]), np.array([se_a]))[0].tolist()


def test_constraints_precision_floor():
    c = TuningConstraints(baseline_se_a={"db": 0.9})
    assert _mask(c, "db", [0.80, 0.79, math.nan], [0.9, 0.9, 0.9]) == [True, False, False]


def test_constraints_sensitivity_drop():
    c = TuningConstraints(baseline_se_a={"db": 0.90})
    assert _mask(c, "db", [0.9, 0.9, 0.9], [0.80, 0.799, math.nan]) == [True, False, False]
    # unknown database: no baseline to compare against
    assert _mask(c, "other", [0.9], [1.0]) == [False]
    # a database whose baseline is undefined
    assert _mask(TuningConstraints(baseline_se_a={"db": None}), "db", [0.9], [1.0]) == [False]
    # one row per database, each against its own baseline
    c = TuningConstraints(baseline_se_a={"a": 0.9, "b": 1.0})
    mask = c.mask(["a", "b"], np.full((2, 1, 2), 0.9), np.array([[[0.8, 0.85]], [[0.8, 0.9]]]))
    assert mask.tolist() == [[[True, True]], [[False, True]]]


def test_constraints_can_be_disabled():
    c = TuningConstraints(min_alarm_precision=0.0,
                          max_sensitivity_drop_points=math.inf)
    assert _mask(c, "db", [0.0, math.nan], [math.nan, math.nan]) == [True, True]
    with pytest.raises(ValueError):
        TuningConstraints(min_alarm_precision=1.0)
    for bad in (-1, math.nan):
        with pytest.raises(ValueError, match="max_sensitivity_drop_points must be >= 0"):
            TuningConstraints(max_sensitivity_drop_points=bad)


# -- sweep -----------------------------------------------------------------------


def test_sweep_covers_full_grid(tmp_path):
    corpus = small_corpus()
    w_values = [0.1, 0.3, 0.5]
    t_values = [0.3, 0.5]
    grid = sweep(corpus, w_values, t_values)
    assert grid.databases == ["synth"]
    assert grid.counts.dtype == np.int64
    assert grid.counts.shape == (1, 3, 2, 7)  # dbs * W * T * counts
    pairs = corpus["synth"]
    save_annotations([a for _, a in pairs], tmp_path / "annotations.jsonl")
    save_predictions([s for s, _ in pairs], tmp_path / "predictions.csv")
    assert main(["sweep", "--annotations", str(tmp_path / "annotations.jsonl"),
                 "--predictions", str(tmp_path / "predictions.csv"),
                 "--w-grid", "0.1,0.3,0.5", "--t-grid", "0.3,0.5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 * 2 * 3 * 2  # header + dbs * betas * W * T


def test_sweep_cells_match_direct_evaluation():
    corpus = small_corpus(seed=11)
    grid = sweep(corpus, [0.1, 0.4, 1.0], [0.3, 0.7])
    metrics = {beta: grid.alarm_metrics(beta) for beta in grid.betas}
    for (d, db), (w, w_value), (t, t_value) in itertools.product(
        enumerate(grid.databases), enumerate(grid.w_values), enumerate(grid.t_values)
    ):
        cfg = FilterConfig(t_pred=t_value, width_seconds=w_value)
        direct = combine(evaluate_video(s, a, cfg) for s, a in corpus[db])
        counts = grid.counts[d, w, t].tolist()
        assert ConfusionCounts(*counts[:4]) == direct.stack_counts
        assert AlarmCounts(*counts[4:]) == direct.alarm_counts
        for beta, (f, p_a, se_a) in metrics.items():
            assert _defined(f[d, w, t]) == direct.f_beta[beta]
            assert (_defined(p_a[d, w, t]), _defined(se_a[d, w, t])) == (direct.p_a, direct.se_a)


def test_sweep_warns_on_empty_database():
    corpus = small_corpus()
    corpus["empty"] = []
    with pytest.warns(UserWarning, match="empty"):
        grid = sweep(corpus, [0.1], [0.5])
    assert grid.databases == ["synth"]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(small_corpus(), [], [0.5])


def test_sweep_and_tune_reject_thresholds_outside_unit_interval():
    corpus = small_corpus()
    for t_values in ([0.0, 0.5], [0.5, 1.0], [1.5], [-1.0], [math.nan]):
        with pytest.raises(ValueError, match=r"t_pred must lie in \(0, 1\)"):
            sweep(corpus, [0.1], t_values)
    with pytest.raises(ValueError, match=r"t_pred must lie in \(0, 1\), got 1.5"):
        tune(corpus, [0.1], [0.5, 1.5])


def test_sweep_and_tune_reject_repeated_grid_values():
    corpus = small_corpus()
    with pytest.raises(ValueError, match="w_values must not repeat 0.1"):
        sweep(corpus, [0.1, 0.2, 0.1], [0.5])
    with pytest.raises(ValueError, match="t_values must not repeat 0.5"):
        tune(corpus, [0.1], [0.5, 0.3, 0.5])
    # Distinct widths that round to one frame count (3 frames at 30 fps) stay legal.
    grid = sweep(corpus, [0.1, 0.11], [0.5])
    assert grid.counts[0, 0].tolist() == grid.counts[0, 1].tolist()


def test_sweep_rejects_bad_betas_before_counting(monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("counted before checking betas")

    monkeypatch.setattr(tuning, "_database_counts", no_counting)
    for betas in ((0.5, math.nan), (0.0,), (-1.0,), (math.inf,)):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            sweep(small_corpus(), [0.1], [0.5], betas)


# -- baselines and argmax ----------------------------------------------------------


def test_baseline_is_identity_filter_sensitivity():
    corpus = small_corpus(seed=7)
    baselines = baseline_sensitivities(corpus)
    direct = combine(
        evaluate_video(s, a, identity_filter(0.5)) for s, a in corpus["synth"]
    )
    assert baselines["synth"] == direct.se_a


def _grid_from_cells(cells, w_values, t_values):
    """A one-database grid whose cell (w, t) has alarm counts ``cells[(w, t)]``."""
    counts = np.zeros((1, len(w_values), len(t_values), 7), dtype=np.int64)
    for (w, t), alarm in cells.items():
        counts[0, w_values.index(w), t_values.index(t), 4:] = alarm
    return SweepGrid(w_values=w_values, t_values=t_values, betas=(0.5,), databases=["db"],
                     counts=counts)


def test_argmax_picks_best_feasible_cell():
    w_values, t_values = [0.1, 0.2], [0.4, 0.5]
    cells = {  # (TP_a, FP_a, FN_a): p_a, se_a, F_0.5
        (0.1, 0.4): (8, 2, 1),  # 0.8, 0.889, 0.816
        (0.1, 0.5): (39, 10, 0),  # 0.796, 1.0, 0.830: fails precision floor
        (0.2, 0.4): (5, 0, 1),  # 1.0, 0.833, 0.962: fails sensitivity drop
        (0.2, 0.5): (12, 3, 2),  # 0.8, 0.857, 0.811
    }
    grid = _grid_from_cells(cells, w_values, t_values)
    constraints = TuningConstraints(baseline_se_a={"db": 0.95})
    best = per_database_argmax(grid, 0.5, constraints)["db"]
    assert best.feasible
    assert (best.w_seconds, best.t_pred, best.f_beta) == (0.1, 0.4, 0.8163265306122449)
    assert best.p_a == 0.8
    assert best.se_a == 8 / 9
    assert grid.counts[0, 0, 0, 4:].tolist() == [8, 2, 1]


def test_argmax_breaks_ties_toward_smaller_w_then_t():
    for w_values, t_values in (([0.1, 0.2], [0.4, 0.5]), ([0.2, 0.1], [0.5, 0.4])):
        cells = {(w, t): (19, 1, 1) for w in w_values for t in t_values}  # 0.95, 0.95
        grid = _grid_from_cells(cells, w_values, t_values)
        constraints = TuningConstraints(baseline_se_a={"db": 0.95})
        best = per_database_argmax(grid, 0.5, constraints)["db"]
        assert (best.w_seconds, best.t_pred) == (0.1, 0.4)


def test_argmax_reports_infeasible_database():
    cells = {(0.1, 0.4): (1, 1, 1)}  # 0.5, 0.5
    grid = _grid_from_cells(cells, [0.1], [0.4])
    constraints = TuningConstraints(baseline_se_a={"db": 1.0})
    result = per_database_argmax(grid, 0.5, constraints)["db"]
    assert not result.feasible
    assert result.reason


def test_argmax_skips_undefined_f():
    cells = {
        (0.1, 0.4): (0, 0, 0),  # p_a, se_a and F undefined
        (0.1, 0.5): (0, 3, 2),  # p_a = se_a = 0: F undefined
        (0.2, 0.4): (19, 1, 1),  # 0.95, 0.95
    }
    grid = _grid_from_cells(cells, [0.1, 0.2], [0.4, 0.5])
    constraints = TuningConstraints(min_alarm_precision=0.0,
                                    max_sensitivity_drop_points=math.inf)
    best = per_database_argmax(grid, 0.5, constraints)["db"]
    assert (best.w_seconds, best.t_pred) == (0.2, 0.4)


def test_argmax_matches_cell_by_cell_search():
    """The masked argmax picks what a scan of per-cell reports in (W, T)
    order picks, keeping the first cell of the largest feasible F."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        shape = (3, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        counts = np.zeros(shape + (7,), dtype=np.int64)
        counts[..., 4:] = rng.integers(0, 4, shape + (3,))
        grid = SweepGrid(w_values=rng.permutation(shape[1]).tolist(),
                         t_values=rng.permutation(shape[2]).tolist(),
                         betas=(1.0,), databases=["a", "b", "c"], counts=counts)
        constraints = TuningConstraints(
            min_alarm_precision=float(rng.choice([0.0, 0.5])),
            max_sensitivity_drop_points=float(rng.choice([math.inf, 30.0])),
            baseline_se_a={"a": 0.75, "b": None},
        )
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        got = per_database_argmax(grid, beta, constraints)
        for d, db in enumerate(grid.databases):
            want = None
            for w in sorted(grid.w_values):
                for t in sorted(grid.t_values):
                    r = MetricReport.from_counts(
                        None, AlarmCounts(*counts[d, grid.w_values.index(w),
                                                  grid.t_values.index(t), 4:].tolist()), (beta,))
                    if r.f_beta[beta] is None or (want is not None and r.f_beta[beta] <= want[2]):
                        continue
                    if constraints.min_alarm_precision > 0 and (
                            r.p_a is None or r.p_a < constraints.min_alarm_precision):
                        continue
                    baseline = constraints.baseline_se_a.get(db)
                    if constraints.max_sensitivity_drop_points < math.inf and (
                            baseline is None or r.se_a is None or r.se_a < baseline - 0.3):
                        continue
                    want = (w, t, r.f_beta[beta])
            result = got[db]
            if want is None:
                assert not result.feasible
            else:
                assert (result.w_seconds, result.t_pred, result.f_beta) == want


# -- array metrics -------------------------------------------------------------------


def test_alarm_metrics_match_scalar_reports_bit_for_bit():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 50, (2, 6, 5, 7))
    counts[0, 0, :, 4:] = [[0, 0, 0], [0, 0, 7], [0, 7, 0], [0, 3, 4], [5, 0, 0]]
    counts[0, 1, :, 4:] = [[4, 0, 3], [4, 3, 0], [1, 0, 0], [0, 1, 1], [2**40, 1, 3]]
    grid = SweepGrid(w_values=list(range(6)), t_values=list(range(5)), betas=(0.5,),
                     databases=["a", "b"], counts=counts)
    for beta in (0.5, 1.0, 2.0, 3.7):
        f, p_a, se_a = grid.alarm_metrics(beta)
        assert f.shape == p_a.shape == se_a.shape == counts.shape[:3]
        for index in np.ndindex(counts.shape[:3]):
            c = counts[index].tolist()
            report = MetricReport.from_counts(ConfusionCounts(*c[:4]), AlarmCounts(*c[4:]),
                                              (beta,))
            for array, scalar in ((f, report.f_beta[beta]), (p_a, report.p_a),
                                  (se_a, report.se_a)):
                if scalar is None:
                    assert math.isnan(array[index]), index
                else:
                    assert array[index].tobytes() == np.float64(scalar).tobytes(), index
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            grid.alarm_metrics(beta)


# -- averaging ----------------------------------------------------------------------


def test_average_optima_example():
    optima = {
        "a": OptimumResult("a", True, w_seconds=0.8, t_pred=0.4),
        "b": OptimumResult("b", True, w_seconds=0.9, t_pred=0.3),
        "c": OptimumResult("c", True, w_seconds=0.91, t_pred=0.5),
    }
    w, t = average_optima(optima, default_t_values())
    assert w == pytest.approx(0.87)
    assert t == 0.4  # mean 0.4 exactly on the grid


def test_average_optima_snaps_t_and_skips_infeasible():
    optima = {
        "a": OptimumResult("a", True, w_seconds=0.5, t_pred=0.4),
        "b": OptimumResult("b", True, w_seconds=0.7, t_pred=0.5),
        "c": OptimumResult("c", False, reason="nope"),
    }
    w, t = average_optima(optima, default_t_values())
    assert w == pytest.approx(0.6)
    assert t == 0.4  # mean 0.45 snapped down
    with pytest.raises(InfeasibleError):
        average_optima({"a": OptimumResult("a", False)}, default_t_values())


# -- end to end -----------------------------------------------------------------------


def test_tune_recovers_pulse_removing_cell():
    corpus = small_corpus(seed=1, videos=6)
    result = tune(corpus, t_values=[0.1, 0.3, 0.5])
    assert result.per_database["synth"].feasible
    cfg = FilterConfig(t_pred=result.t_final, width_seconds=result.w_final)
    final = combine(evaluate_video(s, a, cfg) for s, a in corpus["synth"])
    assert final.alarm_counts.fp_a == 0
    assert final.p_a is not None and final.p_a >= 0.80
    baseline = baseline_sensitivities(corpus)["synth"]
    assert final.se_a >= baseline - 0.10


def test_tune_handles_objective_beta_outside_report_set():
    corpus = small_corpus(seed=2)
    result = tune(corpus, w_values=[0.2, 0.4], t_values=[0.3, 0.5], beta=1.0)
    assert result.beta == 1.0
    best = result.per_database["synth"]
    assert best.feasible and best.f_beta is not None


def test_tune_result_serializes():
    import json

    corpus = small_corpus(seed=4)
    result = tune(corpus, w_values=[0.2, 0.4], t_values=[0.3, 0.5])
    blob = result.to_json_dict()
    json.dumps(blob)  # must be serializable as-is
    assert blob["final"]["w_seconds"] == result.w_final
    assert blob["final"]["t_pred"] == result.t_final
    assert blob["per_database"][0]["database_id"] == "synth"
    assert blob["constraints"]["min_alarm_precision"] == 0.80


def test_tune_infeasible_raises():
    corpus = small_corpus(seed=6)
    with pytest.raises(InfeasibleError):
        tune(corpus, w_values=[0.05], t_values=[0.9], min_alarm_precision=0.999)
