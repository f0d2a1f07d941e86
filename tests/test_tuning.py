import math

import numpy as np
import pytest

from alarm_pipeline.corpus import StackConfig
from alarm_pipeline.errors import InfeasibleError
from alarm_pipeline.metrics import AlarmCounts, MetricReport
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


def _report(p_a, se_a, f05=0.5):
    return MetricReport(p_a=p_a, se_a=se_a, f_beta={0.5: f05})


def test_constraints_precision_floor():
    c = TuningConstraints(baseline_se_a={"db": 0.9})
    assert c.satisfied_by("db", _report(0.80, 0.9))
    assert not c.satisfied_by("db", _report(0.79, 0.9))
    assert not c.satisfied_by("db", _report(None, 0.9))


def test_constraints_sensitivity_drop():
    c = TuningConstraints(baseline_se_a={"db": 0.90})
    assert c.satisfied_by("db", _report(0.9, 0.80))
    assert not c.satisfied_by("db", _report(0.9, 0.799))
    assert not c.satisfied_by("db", _report(0.9, None))
    # unknown database: no baseline to compare against
    assert not c.satisfied_by("other", _report(0.9, 1.0))


def test_constraints_can_be_disabled():
    c = TuningConstraints(min_alarm_precision=0.0,
                          max_sensitivity_drop_points=math.inf)
    assert c.satisfied_by("db", _report(0.0, None))
    with pytest.raises(ValueError):
        TuningConstraints(min_alarm_precision=1.0)
    with pytest.raises(ValueError):
        TuningConstraints(max_sensitivity_drop_points=-1)


# -- sweep -----------------------------------------------------------------------


def test_sweep_covers_full_grid():
    corpus = small_corpus()
    w_values = [0.1, 0.3, 0.5]
    t_values = [0.3, 0.5]
    grid = sweep(corpus, w_values, t_values)
    assert grid.databases == ["synth"]
    assert set(grid.cells) == {("synth", w, t) for w in w_values for t in t_values}
    rows = list(grid.csv_rows())
    assert len(rows) == 1 * 2 * 3 * 2  # dbs * betas * W * T


def test_sweep_cells_match_direct_evaluation():
    corpus = small_corpus(seed=11)
    grid = sweep(corpus, [0.1, 0.4, 1.0], [0.3, 0.7])
    for (db, w, t), report in grid.cells.items():
        cfg = FilterConfig(t_pred=t, width_seconds=w)
        direct = combine(evaluate_video(s, a, cfg) for s, a in corpus[db])
        assert report.alarm_counts == direct.alarm_counts
        assert report.stack_counts == direct.stack_counts
        assert report.f_beta == direct.f_beta


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


# -- baselines and argmax ----------------------------------------------------------


def test_baseline_is_identity_filter_sensitivity():
    corpus = small_corpus(seed=7)
    baselines = baseline_sensitivities(corpus)
    direct = combine(
        evaluate_video(s, a, identity_filter(0.5)) for s, a in corpus["synth"]
    )
    assert baselines["synth"] == direct.se_a


def _grid_from_cells(cells, w_values, t_values):
    return SweepGrid(
        w_values=w_values,
        t_values=t_values,
        betas=(0.5,),
        databases=["db"],
        cells=cells,
    )


def test_argmax_picks_best_feasible_cell():
    w_values, t_values = [0.1, 0.2], [0.4, 0.5]
    cells = {
        ("db", 0.1, 0.4): _report(0.95, 0.90, f05=0.90),
        ("db", 0.1, 0.5): _report(0.60, 0.99, f05=0.99),  # fails precision floor
        ("db", 0.2, 0.4): _report(0.95, 0.70, f05=0.95),  # fails sensitivity drop
        ("db", 0.2, 0.5): _report(0.95, 0.90, f05=0.85),
    }
    grid = _grid_from_cells(cells, w_values, t_values)
    constraints = TuningConstraints(baseline_se_a={"db": 0.95})
    best = per_database_argmax(grid, 0.5, constraints)["db"]
    assert best.feasible
    assert (best.w_seconds, best.t_pred, best.f_beta) == (0.1, 0.4, 0.90)


def test_argmax_breaks_ties_toward_smaller_w_then_t():
    w_values, t_values = [0.1, 0.2], [0.4, 0.5]
    cells = {
        ("db", w, t): _report(0.95, 0.95, f05=0.9)
        for w in w_values for t in t_values
    }
    grid = _grid_from_cells(cells, w_values, t_values)
    constraints = TuningConstraints(baseline_se_a={"db": 0.95})
    best = per_database_argmax(grid, 0.5, constraints)["db"]
    assert (best.w_seconds, best.t_pred) == (0.1, 0.4)


def test_argmax_reports_infeasible_database():
    cells = {("db", 0.1, 0.4): _report(0.5, 0.5, f05=0.5)}
    grid = _grid_from_cells(cells, [0.1], [0.4])
    constraints = TuningConstraints(baseline_se_a={"db": 1.0})
    result = per_database_argmax(grid, 0.5, constraints)["db"]
    assert not result.feasible
    assert result.reason


def test_argmax_skips_undefined_f():
    cells = {
        ("db", 0.1, 0.4): MetricReport(p_a=None, se_a=None, f_beta={0.5: None}),
        ("db", 0.2, 0.4): _report(0.95, 0.95, f05=0.7),
    }
    grid = _grid_from_cells(cells, [0.1, 0.2], [0.4])
    constraints = TuningConstraints(min_alarm_precision=0.0,
                                    max_sensitivity_drop_points=math.inf)
    best = per_database_argmax(grid, 0.5, constraints)["db"]
    assert best.w_seconds == 0.2


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
