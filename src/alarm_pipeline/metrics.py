"""Stack-level and alarm-level metrics, the F_beta family, and a weighted loss.

Zero-denominator ratios are *undefined*, represented as ``None`` (JSON null),
never silently coerced to 0: a spurious zero would corrupt macro averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

DEFAULT_BETAS: tuple[float, ...] = (0.5, 2.0)

_LOG_EPS = 1e-12


@dataclass(frozen=True)
class ConfusionCounts:
    """Stack-level confusion counts with Fall as the positive class."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )


@dataclass(frozen=True)
class AlarmCounts:
    """Alarm-level counts: detected falls, false alarms, missed falls.

    ``tp_a + fn_a`` always equals the number of ground-truth falls evaluated;
    tp_a counts *falls detected*, not alarms raised.
    """

    tp_a: int = 0
    fp_a: int = 0
    fn_a: int = 0

    def __post_init__(self) -> None:
        for name in ("tp_a", "fp_a", "fn_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def __add__(self, other: "AlarmCounts") -> "AlarmCounts":
        return AlarmCounts(self.tp_a + other.tp_a, self.fp_a + other.fp_a, self.fn_a + other.fn_a)


@dataclass(frozen=True)
class LossParams:
    """Class weights for the weighted binary cross-entropy."""

    fall_weight: float = 1.0
    no_fall_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.fall_weight <= 0 or self.no_fall_weight <= 0:
            raise ValueError("class weights must be > 0")


def _ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator > 0 else None


def specificity(c: ConfusionCounts) -> float | None:
    """TN / (TN + FP); None when no negatives were evaluated."""
    return _ratio(c.tn, c.tn + c.fp)


def sensitivity(c: ConfusionCounts) -> float | None:
    """TP / (TP + FN); None when no positives were evaluated."""
    return _ratio(c.tp, c.tp + c.fn)


def precision(c: ConfusionCounts) -> float | None:
    """TP / (TP + FP); None when nothing was predicted positive."""
    return _ratio(c.tp, c.tp + c.fp)


def alarm_precision(a: AlarmCounts) -> float | None:
    """Fraction of raised alarms that hit a real fall."""
    return _ratio(a.tp_a, a.tp_a + a.fp_a)


def alarm_sensitivity(a: AlarmCounts) -> float | None:
    """Fraction of ground-truth falls that raised an alarm."""
    return _ratio(a.tp_a, a.tp_a + a.fn_a)


def check_beta(beta: float) -> None:
    """Raise ValueError unless ``beta`` and its square are finite and > 0, so
    that F_beta's ``beta * beta`` neither overflows nor underflows."""
    if not (0 < beta < math.inf):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not (0 < beta * beta < math.inf):
        raise ValueError(f"beta * beta must be finite and > 0, got {beta * beta} for beta {beta}")


def check_betas(betas: Sequence[float]) -> None:
    """Raise ValueError at the first of ``betas`` that :func:`check_beta`
    rejects or that repeats an earlier one (``1`` repeats ``1.0``), so that
    each beta names one F value."""
    for i, beta in enumerate(betas):
        check_beta(beta)
        if beta in betas[:i]:
            raise ValueError(f"beta must not repeat {beta}")


def f_beta(p_a: float, se_a: float, beta: float) -> float | None:
    """Weighted harmonic combination (1+b^2) * p*s / (b^2*p + s).

    beta < 1 weighs precision more than sensitivity, beta > 1 the reverse.
    Returns None when both arguments are zero.
    """
    check_beta(beta)
    if not (0.0 <= p_a <= 1.0 and 0.0 <= se_a <= 1.0):
        raise ValueError(f"p_a and se_a must lie in [0, 1], got ({p_a}, {se_a})")
    b2 = beta * beta
    denominator = b2 * p_a + se_a
    if denominator == 0.0:
        return None
    return (1.0 + b2) * p_a * se_a / denominator


def weighted_bce(prediction: float, target: int, params: LossParams = LossParams()) -> float:
    """Class-weighted binary cross-entropy for one stack.

    ``prediction`` is the No-Fall probability and ``target`` is 1 for a
    No-Fall stack, 0 for a Fall stack, so the fall weight multiplies the
    log(1 - p) branch. The probability is clamped away from {0, 1} by 1e-12
    before taking logs.
    """
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    p = min(max(prediction, _LOG_EPS), 1.0 - _LOG_EPS)
    return -(
        params.no_fall_weight * target * math.log(p)
        + params.fall_weight * (1 - target) * math.log(1.0 - p)
    )


@dataclass(frozen=True)
class MetricReport:
    """Bundle of stack- and alarm-level metrics plus the raw counts behind them.

    Raw counts are kept so every ratio can be recomputed independently; a
    macro-averaged report carries no counts because its ratios are means of
    per-database ratios, not pooled-count ratios.
    """

    sp: float | None = None
    se: float | None = None
    p: float | None = None
    p_a: float | None = None
    se_a: float | None = None
    f_beta: Mapping[float, float | None] = field(default_factory=dict)
    stack_counts: ConfusionCounts | None = None
    alarm_counts: AlarmCounts | None = None

    @classmethod
    def from_counts(
        cls,
        stack_counts: ConfusionCounts | None,
        alarm_counts: AlarmCounts | None,
        betas: Sequence[float] = DEFAULT_BETAS,
        fbeta_input_decimals: int | None = None,
    ) -> "MetricReport":
        """Derive every metric from raw counts.

        ``fbeta_input_decimals`` rounds p_a/se_a to that many decimal places
        before combining them into F_beta, mirroring arithmetic done by hand
        from a table printed at that precision (3 decimals of the fraction =
        0.1 percentage point). The reported p_a/se_a stay exact. Every beta
        must be finite and > 0 and none may repeat, whether or not p_a and
        se_a are defined.
        """
        sp = se = p = None
        if stack_counts is not None:
            sp = specificity(stack_counts)
            se = sensitivity(stack_counts)
            p = precision(stack_counts)
        p_a = se_a = None
        if alarm_counts is not None:
            p_a = alarm_precision(alarm_counts)
            se_a = alarm_sensitivity(alarm_counts)
        check_betas(betas)
        fb: dict[float, float | None] = dict.fromkeys(betas)
        if p_a is not None and se_a is not None:
            inputs = (p_a, se_a)
            if fbeta_input_decimals is not None:
                inputs = (round(p_a, fbeta_input_decimals), round(se_a, fbeta_input_decimals))
            fb = {beta: f_beta(*inputs, beta) for beta in betas}
        return cls(
            sp=sp,
            se=se,
            p=p,
            p_a=p_a,
            se_a=se_a,
            f_beta=fb,
            stack_counts=stack_counts,
            alarm_counts=alarm_counts,
        )


def _mean_defined(values: Iterable[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def macro_average(reports: Sequence[MetricReport]) -> MetricReport:
    """Unweighted per-field mean over reports, skipping undefined entries.

    This reproduces a per-database "Avg." row: each database counts once no
    matter how many videos or falls it holds.
    """
    if not reports:
        raise ValueError("macro_average needs at least one report")
    betas: list[float] = []
    for report in reports:
        for beta in report.f_beta:
            if beta not in betas:
                betas.append(beta)
    return MetricReport(
        sp=_mean_defined(r.sp for r in reports),
        se=_mean_defined(r.se for r in reports),
        p=_mean_defined(r.p for r in reports),
        p_a=_mean_defined(r.p_a for r in reports),
        se_a=_mean_defined(r.se_a for r in reports),
        f_beta={beta: _mean_defined(r.f_beta.get(beta) for r in reports) for beta in betas},
        stack_counts=None,
        alarm_counts=None,
    )
