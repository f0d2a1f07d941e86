import json
import math

import numpy as np
import pytest

from alarm_pipeline.cli import _json_pieces, _report_json, format_report_table
from alarm_pipeline.metrics import (
    AlarmCounts,
    ConfusionCounts,
    LossParams,
    MetricReport,
    alarm_precision,
    alarm_sensitivity,
    f_beta,
    macro_average,
    precision,
    sensitivity,
    specificity,
    weighted_bce,
)


# -- ratios ---------------------------------------------------------------


def test_stack_ratios():
    c = ConfusionCounts(tp=8, tn=90, fp=10, fn=2)
    assert sensitivity(c) == 0.8
    assert specificity(c) == 0.9
    assert precision(c) == pytest.approx(8 / 18)


def test_ratios_are_none_when_undefined():
    empty = ConfusionCounts()
    assert sensitivity(empty) is None
    assert specificity(empty) is None
    assert precision(empty) is None
    assert alarm_precision(AlarmCounts(0, 0, 3)) is None
    assert alarm_sensitivity(AlarmCounts(0, 4, 0)) is None


def test_alarm_ratio_examples():
    counts = AlarmCounts(tp_a=29, fp_a=5, fn_a=1)
    assert alarm_precision(counts) == pytest.approx(0.853, abs=0.0005)
    assert alarm_sensitivity(counts) == pytest.approx(29 / 30)


def test_counts_validate_and_add():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1)
    with pytest.raises(ValueError):
        AlarmCounts(fp_a=-2)
    total = AlarmCounts(1, 2, 3) + AlarmCounts(4, 5, 6)
    assert (total.tp_a, total.fp_a, total.fn_a) == (5, 7, 9)
    stacked = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
    assert (stacked.tp, stacked.tn, stacked.fp, stacked.fn) == (11, 22, 33, 44)


# -- F_beta ---------------------------------------------------------------


def test_f_beta_example():
    assert f_beta(0.853, 0.967, 0.5) == pytest.approx(0.874, abs=0.0005)


def test_f_beta_is_harmonic_mean_at_beta_one():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        p, s = rng.random(2)
        if p + s == 0:
            continue
        assert abs(f_beta(p, s, 1.0) - 2 * p * s / (p + s)) < 1e-12


def test_f_beta_fixed_point_and_weighting():
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        for x in (0.1, 0.5, 0.853, 1.0):
            assert f_beta(x, x, beta) == pytest.approx(x, abs=1e-12)
    # beta < 1 pulls toward precision, beta > 1 toward sensitivity
    assert f_beta(0.9, 0.5, 0.5) > f_beta(0.9, 0.5, 2.0)
    assert f_beta(0.5, 0.9, 2.0) > f_beta(0.5, 0.9, 0.5)


def test_f_beta_monotone_in_both_arguments():
    rng = np.random.default_rng(21)
    for _ in range(500):
        p, s = rng.uniform(0.01, 0.99, 2)
        d = rng.uniform(0.001, 0.01)
        for beta in (0.5, 2.0):
            assert f_beta(min(p + d, 1.0), s, beta) >= f_beta(p, s, beta)
            assert f_beta(p, min(s + d, 1.0), beta) >= f_beta(p, s, beta)


def test_f_beta_edge_cases():
    assert f_beta(0.0, 0.0, 0.5) is None
    assert f_beta(0.0, 0.5, 0.5) == 0.0
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            f_beta(0.5, 0.5, beta)
        # Checked whatever the counts, even when no F_beta is defined.
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            MetricReport.from_counts(None, None, (0.5, beta))
    # The square overflows to inf or underflows to 0.
    for beta in (1e200, 1e-200):
        with pytest.raises(ValueError, match=r"beta \* beta must be finite and > 0"):
            f_beta(0.5, 0.5, beta)
        with pytest.raises(ValueError, match=r"beta \* beta must be finite and > 0"):
            MetricReport.from_counts(None, None, (0.5, beta))
    with pytest.raises(ValueError):
        f_beta(1.2, 0.5, 1.0)


def test_repeated_beta_is_rejected_everywhere():
    # One F value per beta: 1 and 1.0 name the same F_1, so a repeat would
    # keep one value in a report and print two F_1 columns in a table.
    counts = AlarmCounts(1, 1, 1)
    for betas in ((1, 1.0), (0.5, 2.0, 0.5)):
        with pytest.raises(ValueError, match=f"beta must not repeat {betas[-1]}"):
            MetricReport.from_counts(None, counts, betas)
        with pytest.raises(ValueError, match=f"beta must not repeat {betas[-1]}"):
            MetricReport.from_counts(None, None, betas)
        report = MetricReport.from_counts(None, counts, betas[:-1])
        with pytest.raises(ValueError, match=f"beta must not repeat {betas[-1]}"):
            format_report_table([("db", report)], betas)
    # A bad beta is found before a later repeat, as the CLI reports it.
    with pytest.raises(ValueError, match="beta must be finite and > 0, got 0"):
        MetricReport.from_counts(None, counts, (1, 0, 1))
    assert format_report_table([("db", MetricReport.from_counts(None, counts, (1, 2)))],
                               (1, 2)).splitlines()[0].split() == [
        "Database", "F_1", "F_2", "p_a", "se_a", "TP_a", "FP_a", "FN_a"]


# -- weighted BCE ----------------------------------------------------------


def test_bce_at_even_odds_is_ln2():
    assert weighted_bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert weighted_bce(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_weights_scale_each_branch_linearly():
    p = 0.8
    base_no_fall = weighted_bce(p, 1)
    base_fall = weighted_bce(p, 0)
    assert base_no_fall == pytest.approx(-math.log(0.8), abs=1e-12)
    assert base_fall == pytest.approx(-math.log(0.2), abs=1e-12)
    for w in (0.5, 2.0, 7.0):
        up = LossParams(no_fall_weight=w)
        assert weighted_bce(p, 1, up) == pytest.approx(w * base_no_fall, abs=1e-12)
        down = LossParams(fall_weight=w)
        assert weighted_bce(p, 0, down) == pytest.approx(w * base_fall, abs=1e-12)


def test_bce_is_finite_at_probability_extremes():
    assert math.isfinite(weighted_bce(0.0, 1))
    assert math.isfinite(weighted_bce(1.0, 0))
    with pytest.raises(ValueError):
        weighted_bce(0.5, 2)
    with pytest.raises(ValueError):
        LossParams(fall_weight=0.0)


# -- reports ----------------------------------------------------------------


def test_report_from_counts():
    report = MetricReport.from_counts(
        ConfusionCounts(tp=8, tn=90, fp=10, fn=2), AlarmCounts(29, 5, 1)
    )
    assert report.se == 0.8
    assert report.sp == 0.9
    assert report.p_a == pytest.approx(29 / 34)
    assert report.se_a == pytest.approx(29 / 30)
    assert report.f_beta[0.5] == pytest.approx(
        f_beta(29 / 34, 29 / 30, 0.5), abs=1e-15
    )
    assert set(report.f_beta) == {0.5, 2.0}


def test_report_table_precision_mode():
    # F computed from ratios rounded to 3 decimals, the precision of a table
    # printed as percentages with one decimal
    report = MetricReport.from_counts(None, AlarmCounts(29, 5, 1), fbeta_input_decimals=3)
    assert report.f_beta[0.5] == pytest.approx(f_beta(0.853, 0.967, 0.5), abs=1e-15)
    assert report.p_a == pytest.approx(29 / 34)  # reported ratios stay exact
    exact = MetricReport.from_counts(None, AlarmCounts(29, 5, 1))
    assert report.f_beta[0.5] != exact.f_beta[0.5]


def test_report_json_dict():
    report = MetricReport.from_counts(ConfusionCounts(1, 2, 3, 4), AlarmCounts(5, 6, 7))
    # a report as report.json holds it
    blob = json.loads("".join(_json_pieces(_report_json(report))))
    assert set(blob) == {"sp", "se", "p", "p_a", "se_a", "f_beta", "stack_counts", "alarm_counts"}
    assert blob["f_beta"] == {"0.5": report.f_beta[0.5], "2": report.f_beta[2.0]}
    assert blob["stack_counts"] == {"tp": 1, "tn": 2, "fp": 3, "fn": 4}
    assert blob["alarm_counts"] == {"tp_a": 5, "fp_a": 6, "fn_a": 7}
    assert (blob["p_a"], blob["se_a"], blob["sp"]) == (report.p_a, report.se_a, report.sp)
    macro = json.loads("".join(_json_pieces(_report_json(macro_average([report])))))
    assert macro["stack_counts"] is None and macro["alarm_counts"] is None


def test_macro_average_skips_undefined_and_drops_counts():
    a = MetricReport.from_counts(None, AlarmCounts(29, 5, 1))
    b = MetricReport.from_counts(None, AlarmCounts(0, 0, 0))  # all alarm ratios None
    c = MetricReport.from_counts(None, AlarmCounts(90, 7, 9))
    avg = macro_average([a, b, c])
    assert avg.p_a == pytest.approx((29 / 34 + 90 / 97) / 2)
    assert avg.se_a == pytest.approx((29 / 30 + 90 / 99) / 2)
    assert avg.stack_counts is None and avg.alarm_counts is None
    assert avg.sp is None and avg.se is None
    with pytest.raises(ValueError):
        macro_average([])


def test_macro_average_of_f_values_is_mean_of_per_database_f():
    a = MetricReport.from_counts(None, AlarmCounts(29, 5, 1))
    c = MetricReport.from_counts(None, AlarmCounts(90, 7, 9))
    avg = macro_average([a, c])
    assert avg.f_beta[0.5] == pytest.approx((a.f_beta[0.5] + c.f_beta[0.5]) / 2)
