"""Model-quality and cost metrics, plus cross-round confidence intervals.

The headline quantity is cost efficiency

    eta(q) = lambda(q) / (zeta(q) * C),

performance per unit labeling cost: ``lambda`` is the performance score
(here, mean AUC over the test pools), ``zeta`` the fraction of positive
labels accumulated in the labeled pool, and ``C >= 1`` the cost of one
positive label relative to one negative label.

AUC is the Mann-Whitney U over n+ * n- pairs (Hanley & McNeil 1982),
counted exactly in int64 as two rank sums of integer keys that order like
the scores and hold the label in the low bit, one sort listing each tie
group's negatives first and one its positives first.  A score's code is its
float64 bit pattern when every score lies in [0, 2), which covers every
probability ``predict_proba`` returns, and its dense rank among the scores
otherwise (negative or large scores, or infinities).  Both codes order
exactly like the floats, so the AUC is that of the pair-counting definition.

Confidence intervals are Student-t based at the one level ``CONFIDENCE``;
the t quantile is computed numerically in-repo (the finite series of the t
CDF at an integer df, inverted by bisection) rather than from shipped
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, reject_non_finite

# the level of every interval the package reports
CONFIDENCE = 0.99


@dataclass(frozen=True)
class CostModel:
    """Relative cost of labeling a positive instance; C = 1 means symmetric."""

    C: float = 1.0

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if not self.C >= 1.0:
            raise ConfigError(f"cost C must be >= 1, got {self.C!r}")


@dataclass(frozen=True)
class CiSummary:
    """Symmetric Student-t interval at level ``CONFIDENCE`` around a sample
    mean, or arrays of them, one per row of a ``mean_ci`` call; the sample
    count follows from the config and, for eta, ``eta_missing``."""

    mean: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray


def _rows(values, labels) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as float64 and ``labels`` as int64 arrays; raises
    ``ValueError`` unless the two hold rows, along the last axis, of one
    length, every label is 0 or 1 (bools count), and no value is NaN."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim == 0 or labels.ndim == 0 or values.shape[-1] != labels.shape[-1]:
        raise ValueError(f"scores and labels must hold rows of equal length, "
                         f"got shapes {values.shape} and {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if np.isnan(values).any():
        raise ValueError("scores must not be NaN")
    return values, labels.astype(np.int64)


def auc(scores, labels) -> np.float64 | np.ndarray:
    """Area under the ROC curve via the Mann-Whitney U statistic.

    Equals P(score+ > score-) + 0.5 P(score+ = score-), with -0.0 tying 0.0
    and equal infinities tying.  The last axis of ``scores`` holds one row's
    scores, and ``labels`` broadcasts against ``scores``; one AUC per row is
    returned, a float64 scalar for a 1-D call.  Raises ``ValueError`` unless
    every row holds both classes, every label is 0 or 1, and no score is NaN.

    Each score gets an int64 code that orders like the score: its bit
    pattern (after ``+ 0.0``, so -0.0 becomes 0.0) when every score lies in
    [0, 2), where a non-negative float64's bits order like the float and
    stay below 2**62, and otherwise its dense rank among all the scores.
    Sorted as ``code << 1 | label``, each tie group lists its negatives
    first, so a positive's 0-based position is the negatives at or below it
    plus the positives before it; sorted as ``code << 1 | (1 - label)``, it
    is the negatives strictly below it plus the same positives.  2U, both
    positions summed over the positives less n+ * (n+ - 1), is thus an exact
    integer, and the AUC is (2U / 2) / (n+ * n-).
    """
    scores, labels = _rows(scores, labels)
    n_pos = labels.sum(axis=-1)
    n_neg = labels.shape[-1] - n_pos
    if not ((n_pos > 0) & (n_neg > 0)).all():
        raise ValueError("AUC is undefined when only one class is present")
    if scores.size and scores.min() >= 0.0 and scores.max() < 2.0:
        codes = (scores + 0.0).view(np.int64)
    else:
        codes = np.unique(scores.ravel(), return_inverse=True)[1].reshape(scores.shape)
    negatives_first = np.sort(codes << 1 | labels, axis=-1)
    positives_first = np.sort(codes << 1 | (1 - labels), axis=-1)
    positive_slots = (negatives_first & 1) + (positives_first & 1 ^ 1)
    two_u = positive_slots @ np.arange(labels.shape[-1]) - n_pos * (n_pos - 1)
    return two_u / 2 / (n_pos * n_neg)


def f1(probs, labels) -> np.float64 | np.ndarray:
    """F1 score of probabilities thresholded at 0.5; degenerate cases return 0.

    Rows and labels are laid out as for :func:`auc`.  Precision and recall
    divide ``tp`` by the predicted positives and by the positive labels.
    """
    probs, labels = _rows(probs, labels)
    predicted = probs >= 0.5
    tp = (predicted & (labels == 1)).sum(axis=-1)
    n_predicted = predicted.sum(axis=-1)
    n_positive = labels.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_predicted > 0, tp / n_predicted, 0.0)
        recall = np.where(n_positive > 0, tp / n_positive, 0.0)
        score = 2.0 * precision * recall / (precision + recall)
    return np.where(precision + recall == 0.0, 0.0, score)[()]


def cost_efficiency(lam, zeta, cost: CostModel) -> float | np.ndarray:
    """Cost efficiency lam / (zeta * C), elementwise; higher is better.

    A scalar call returns a ``float``.  Raises ``ValueError`` when any value
    lies outside [0, 1] or any zeta is 0 (undefined); callers record such
    samples as missing rather than substituting a sentinel.
    """
    lam, zeta = np.asarray(lam, dtype=np.float64), np.asarray(zeta, dtype=np.float64)
    for name, values in (("performance", lam), ("zeta", zeta)):
        outside = values[~((values >= 0.0) & (values <= 1.0))]
        if outside.size:
            raise ValueError(f"{name} must lie in [0, 1], got {outside[0].item()!r}")
    if (zeta == 0.0).any():
        raise ValueError("cost efficiency is undefined at zeta = 0")
    # sequential division keeps eta(C) == eta(1) / C an exact float identity
    eta = lam / zeta / cost.C
    return float(eta) if eta.ndim == 0 else eta


def mean_ci(samples) -> CiSummary:
    """Student-t interval at level ``CONFIDENCE`` for the mean of each row
    of ``samples``.

    A row is the last axis: at least two samples, all finite.  A 1-D call
    returns floats, any other arrays over the leading axes, each row's bit
    for bit those of a 1-D call on it.  Each interval is exactly symmetric
    about its mean, and degenerate at the first sample for equal samples.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim == 0:
        raise ValueError("samples must hold rows along the last axis, got a scalar")
    n = data.shape[-1]
    if n < 2:
        raise ValueError(f"need at least 2 samples for an interval, got {n}")
    if not np.isfinite(data).all():
        raise ValueError("samples must be finite")
    # mathematically zero variance: keep the interval exactly degenerate;
    # such a row enters the sums as zeros, so it cannot overflow them
    degenerate = data.min(axis=-1) == data.max(axis=-1)
    spread = np.where(degenerate[..., None], 0.0, data)
    mean = spread.mean(axis=-1)
    half_width = (student_t_quantile(0.5 + CONFIDENCE / 2.0, n - 1)
                  * spread.std(axis=-1, ddof=1) / math.sqrt(n))
    bounds = [np.where(degenerate, data[..., 0], bound)
              for bound in (mean, mean - half_width, mean + half_width)]
    return CiSummary(*(map(float, bounds) if data.ndim == 1 else bounds))


# --- Student-t distribution, computed numerically -------------------------

def _integer_df(df: float) -> int:
    """``df`` as an int; ``ValueError`` unless a positive integer (29.0 is)."""
    if not (df > 0 and float(df).is_integer()):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with a positive integer ``df``.

    At an integer df the CDF is a finite series (Abramowitz & Stegun
    26.7.3-4).  With c = df / (df + t^2) and s = |t| / sqrt(df + t^2),
    P(|T| <= |t|) is s * (1 + c/2 + (1*3)/(2*4) c^2 + ... + c^((df-2)/2)) at
    even df and (2/pi) * (atan2(|t|, sqrt(df)) + s * sqrt(c) * (1 + (2/3) c
    + ... + c^((df-3)/2))) at odd df, without the s * sqrt(c) term at
    df = 1.  The CDF is 1/2 +/- P/2 by the sign of ``t``.
    """
    df = _integer_df(df)
    if math.isinf(t * t):  # |t| > 1e154, where the CDF is 0 or 1 in floats
        return float(t > 0)
    c = df / (df + t * t)
    s = abs(t) / math.sqrt(df + t * t)
    term = series = 1.0
    for k in range(1 + df % 2, df - 1, 2):
        term *= c * k / (k + 1)
        series += term
    if df % 2 == 0:
        central = s * series
    else:
        odd = s * math.sqrt(c) * series if df > 1 else 0.0
        central = 2.0 / math.pi * (math.atan2(abs(t), math.sqrt(df)) + odd)
    return 0.5 + 0.5 * central if t > 0 else 0.5 - 0.5 * central


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t at any ``p`` in (0, 1) and a positive
    integer ``df`` (29 and 29.0 give the same float), accurate to well
    under 1e-6.

    Computed by bisection against :func:`student_t_cdf` on an expanding
    bracket; bad arguments raise ``ValueError``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    _integer_df(df)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    hi = 1.0
    while student_t_cdf(hi, df) < p and hi < 1e12:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
