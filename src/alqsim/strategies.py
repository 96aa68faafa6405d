"""Query-selection policies over an unlabeled pool.

Three policies are provided:

* ``random`` -- uniform sampling without replacement, ignoring the model.
* ``uncertainty`` -- least-confidence sampling: pick the candidates whose
  predicted probability is closest to 0.5.  For binary problems this ranking
  coincides with margin and entropy ranking, so the simplest form is used.
* ``shifted-normal`` -- draw target probabilities from a Beta distribution
  whose peak sits left of 0.5 (default 0.45) and pick, for each target, the
  not-yet-chosen candidate whose predicted probability is nearest to it.
  Selections therefore cluster below the decision boundary, trimming the
  share of expensive positive labels, while the full-support targets keep a
  nonzero reach across the whole probability range.

The Beta is parameterized by its interior mode and a concentration
(``alpha + beta``) instead of raw shape parameters: the mode is the quantity
with a meaningful default, the concentration is the single width knob.
Selectors receive only an ``ids`` array and the matching array of predicted
probabilities; true labels never enter a policy.

Beta variates are generated from the ratio of two Marsaglia-Tsang gamma
variates (squeeze-accepted; exact, not approximate), which keeps every draw a
pure function of the supplied generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, reject_non_finite, require_positive_int

STRATEGY_KINDS = ("random", "uncertainty", "shifted-normal")

DEFAULT_MODE = 0.45
DEFAULT_CONCENTRATION = 150.0


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution with an interior mode."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1 and self.beta > 1):
            raise ConfigError(
                "alpha and beta must both exceed 1 for an interior mode, got "
                f"({self.alpha!r}, {self.beta!r})")

    @property
    def mode(self) -> float:
        return (self.alpha - 1) / (self.alpha + self.beta - 2)


@dataclass(frozen=True)
class QueryStrategy:
    """Tagged choice of query policy.

    ``mode`` and ``concentration`` only apply to the shifted-normal kind, but
    they are checked for every kind, because ``summary.json`` records them.
    """

    kind: str
    mode: float = DEFAULT_MODE
    concentration: float = DEFAULT_CONCENTRATION

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"unknown strategy {self.kind!r}; valid kinds: {', '.join(STRATEGY_KINDS)}")
        # build the Beta now, so a mode that rounds alpha or beta to 1
        # fails here rather than inside a round
        beta_from_mode(self.mode, self.concentration)


def beta_from_mode(mode: float, concentration: float) -> BetaParams:
    """Beta parameters with the given interior mode and concentration.

    Solves mode = (alpha - 1) / (concentration - 2) under
    alpha + beta = concentration, so the density peak lands exactly on
    ``mode``.  Concentration just above 2 approaches the uniform density;
    larger values tighten the peak.
    """
    if not 0.0 < mode < 1.0:
        raise ConfigError(f"mode must be in (0, 1), got {mode!r}")
    if not concentration > 2.0:
        raise ConfigError(f"concentration must be > 2, got {concentration!r}")
    alpha = 1.0 + mode * (concentration - 2.0)
    beta = 1.0 + (1.0 - mode) * (concentration - 2.0)
    if not (alpha > 1 and beta > 1):
        raise ConfigError(
            f"mode {mode!r} with concentration {concentration!r} rounds a Beta "
            f"shape parameter to 1 (alpha={alpha!r}, beta={beta!r})")
    return BetaParams(alpha, beta)


def beta_pdf(params: BetaParams, x):
    """Beta density at ``x`` (scalar or array), for x strictly inside (0, 1).

    Normalization uses log-gamma to stay stable for large shape parameters.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr <= 0.0) or np.any(x_arr >= 1.0):
        raise ValueError("beta_pdf is defined on the open interval (0, 1)")
    log_norm = (math.lgamma(params.alpha + params.beta)
                - math.lgamma(params.alpha) - math.lgamma(params.beta))
    log_pdf = (log_norm + (params.alpha - 1.0) * np.log(x_arr)
               + (params.beta - 1.0) * np.log1p(-x_arr))
    out = np.exp(log_pdf)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def _gamma_variate(shape: float, rng: np.random.Generator) -> float:
    # Marsaglia-Tsang squeeze method; requires shape >= 1, which BetaParams
    # guarantees (alpha, beta > 1).
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x ** 4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def beta_sample(params: BetaParams, rng: np.random.Generator) -> float:
    """One Beta(alpha, beta) draw, strictly inside (0, 1).

    Uses the gamma-ratio construction g1 / (g1 + g2) with Marsaglia-Tsang
    gamma variates.
    """
    g1 = _gamma_variate(params.alpha, rng)
    g2 = _gamma_variate(params.beta, rng)
    value = g1 / (g1 + g2)
    # gamma variates can underflow to 0.0 only in pathological float corners;
    # nudge back into the open interval to preserve the support contract
    return min(max(value, 1e-15), 1.0 - 1e-15)


def _check_k(k: int, available: int) -> None:
    require_positive_int("k", k)
    if k > available:
        raise ValueError(f"cannot select {k} from {available} candidates")


def _check_scored(ids: np.ndarray, probs: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` and ``probs`` as arrays, after checking a selector's input.

    Both must be 1-D and of equal length, and every prob strictly inside
    (0, 1), which NaN is not.
    """
    ids = np.asarray(ids, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if ids.ndim != 1 or probs.shape != ids.shape:
        raise ValueError(f"ids and probs must be 1-D arrays of equal length, got "
                         f"shapes {ids.shape} and {probs.shape}")
    if not ((probs > 0.0) & (probs < 1.0)).all():
        raise ValueError("every prob must lie strictly inside (0, 1)")
    _check_k(k, len(ids))
    return ids, probs


def select_random(pool_ids: Sequence[int], k: int,
                  rng: np.random.Generator) -> list[int]:
    """Uniform sample of ``k`` distinct ids, ignoring any model output."""
    ids = np.asarray(pool_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"ids must be a 1-D array, got shape {ids.shape}")
    _check_k(k, len(ids))
    chosen = rng.choice(ids, size=k, replace=False)
    return [int(i) for i in chosen]


def select_uncertainty(ids: np.ndarray, probs: np.ndarray, k: int) -> list[int]:
    """The ``k`` ids whose probability is closest to 0.5.

    Ties are broken by lower id, making the result a pure function of the
    set of ``(id, prob)`` pairs (order-independent).
    """
    ids, probs = _check_scored(ids, probs, k)
    order = np.lexsort((ids, np.abs(probs - 0.5)))
    return [int(i) for i in ids[order[:k]]]


def select_shifted_normal(ids: np.ndarray, probs: np.ndarray, k: int,
                          params: BetaParams,
                          rng: np.random.Generator) -> list[int]:
    """Select ``k`` ids by matching Beta-distributed target probs.

    For each of ``k`` independent Beta draws, the remaining id whose
    probability is nearest the drawn target is taken (ties to the lower id).
    Matching targets rather than weighting by the density keeps the selection
    faithful to the target distribution even when the pool's probabilities
    are sparse or heavily skewed.
    """
    ids, probs = _check_scored(ids, probs, k)
    available = np.ones(len(ids), dtype=bool)
    chosen: list[int] = []
    for _ in range(k):
        target = beta_sample(params, rng)
        # the nearest not-yet-chosen candidate wins, ties to the lower id
        distance = np.where(available, np.abs(probs - target), np.inf)
        nearest = np.flatnonzero(distance == distance.min())
        pick = nearest[np.argmin(ids[nearest])]
        available[pick] = False
        chosen.append(int(ids[pick]))
    return chosen
