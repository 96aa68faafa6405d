"""Query-selection policies over an unlabeled pool.

Three policies are provided:

* ``random`` -- uniform sampling without replacement, ignoring the model.
* ``uncertainty`` -- least-confidence sampling: pick the candidates whose
  predicted probability is closest to 0.5.  For binary problems this ranking
  coincides with margin and entropy ranking, so the simplest form is used.
* ``shifted-normal`` -- draw target probabilities from a Beta distribution
  whose peak sits left of 0.5 (default 0.45) and pick the nearest to each.
  Selections therefore cluster below the decision boundary, trimming the
  share of expensive positive labels, while the full-support targets keep a
  nonzero reach across the whole probability range.

A :class:`QueryStrategy` is the one description of its Beta: it holds the
Beta's interior mode and concentration (``alpha + beta``) and derives the
shape parameters from them.  The mode is the quantity with a meaningful
default, the concentration is the single width knob.
Selectors receive only an ``ids`` array and the matching array of predicted
probabilities; true labels never enter a policy.

A model-driven kind is its target rule, ``TARGET_RULES[kind](strategy, k,
rng)``: one query's k targets in (0, 1), all drawn from the lane's generator
before any pick, since a pick uses no randomness; random has no rule.  One
matcher, :func:`match_targets`, picks for every lane of a stack.

Beta draws come from numpy's ``Generator.beta``, the ratio g1 / (g1 + g2) of
two Marsaglia-Tsang gamma variates, so every draw is a pure function of the
supplied generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, reject_non_finite, require_positive_int

TARGET_RULES = {
    "uncertainty": lambda strategy, k, rng: [0.5] * k,
    "shifted-normal": lambda strategy, k, rng: [beta_sample(strategy, rng)
                                                for _ in range(k)],
}
STRATEGY_KINDS = ("random", *TARGET_RULES)


@dataclass(frozen=True)
class QueryStrategy:
    """Tagged choice of query policy, and the shifted-normal kind's Beta:
    its interior ``mode`` and ``concentration``, ``alpha + beta``.

    ``mode`` and ``concentration`` only apply to the shifted-normal kind, but
    they are checked for every kind, because ``summary.json`` records them.
    """

    kind: str
    mode: float = 0.45
    concentration: float = 150.0

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"unknown strategy {self.kind!r}; valid kinds: {', '.join(STRATEGY_KINDS)}")
        if not 0.0 < self.mode < 1.0:
            raise ConfigError(f"mode must be in (0, 1), got {self.mode!r}")
        if not self.concentration > 2.0:
            raise ConfigError(f"concentration must be > 2, got {self.concentration!r}")
        if not (self.alpha > 1 and self.beta > 1):
            raise ConfigError(
                f"mode {self.mode!r} with concentration {self.concentration!r} "
                f"rounds a Beta shape parameter to 1 (alpha={self.alpha!r}, "
                f"beta={self.beta!r})")

    # mode = (alpha - 1) / (concentration - 2) under alpha + beta =
    # concentration, so the density peak lands exactly on ``mode``;
    # concentration just above 2 approaches the uniform density
    @property
    def alpha(self) -> float:
        return 1.0 + self.mode * (self.concentration - 2.0)

    @property
    def beta(self) -> float:
        return 1.0 + (1.0 - self.mode) * (self.concentration - 2.0)


def beta_pdf(strategy: QueryStrategy, x):
    """``strategy``'s Beta density at ``x`` (scalar or array) in (0, 1).

    Normalization uses log-gamma to stay stable for large shape parameters.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if not ((x_arr > 0.0) & (x_arr < 1.0)).all():
        raise ValueError("beta_pdf is defined on the open interval (0, 1)")
    alpha, beta = strategy.alpha, strategy.beta
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)
    log_pdf = (log_norm + (alpha - 1.0) * np.log(x_arr)
               + (beta - 1.0) * np.log1p(-x_arr))
    out = np.exp(log_pdf)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def beta_sample(strategy: QueryStrategy, rng: np.random.Generator) -> float:
    """One draw from ``strategy``'s Beta, strictly inside (0, 1)."""
    value = rng.beta(strategy.alpha, strategy.beta)
    # gamma variates can underflow to 0.0 only in pathological float corners;
    # nudge back into the open interval to preserve the support contract
    return min(max(value, 1e-15), 1.0 - 1e-15)


def _check_ids(ids, k: int) -> np.ndarray:
    """``ids`` as an array of its own integer dtype, after checking that it
    is 1-D and unique and that ``k`` of them exist; a cast to int64 would
    wrap unsigned ids >= 2**63 to ids outside the pool."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"ids must be a 1-D array, got shape {ids.shape}")
    require_positive_int("k", k)
    if k > len(ids):
        raise ValueError(f"cannot select {k} from {len(ids)} candidates")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
    if (np.diff(np.sort(ids)) == 0).any():
        raise ValueError("ids must be unique")
    return ids


def _check_scored(ids: np.ndarray, probs: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` and ``probs`` as arrays, after checking a selector's input.

    Both must be 1-D and of equal length, ids unique integers, and every
    prob strictly inside (0, 1), which NaN is not.
    """
    ids, probs = np.asarray(ids), np.asarray(probs, dtype=np.float64)
    if ids.ndim != 1 or probs.shape != ids.shape:
        raise ValueError(f"ids and probs must be 1-D arrays of equal length, got "
                         f"shapes {ids.shape} and {probs.shape}")
    if not ((probs > 0.0) & (probs < 1.0)).all():
        raise ValueError("every prob must lie strictly inside (0, 1)")
    return _check_ids(ids, k), probs


def match_targets(ids: np.ndarray, probs: np.ndarray, targets) -> np.ndarray:
    """``(L, k)`` picks from ``(L, n)`` unique integer ids and probs and
    ``(L, k)`` targets: lane l's j-th pick is the id whose prob is nearest
    ``targets[l, j]`` among those not yet picked, ties to the lower id.
    Checks nothing."""
    targets = np.asarray(targets, dtype=np.float64)
    available = np.ones(ids.shape, dtype=bool)
    lanes, top = np.arange(len(ids)), np.iinfo(ids.dtype).max
    picks = np.empty(targets.shape, dtype=ids.dtype)
    for j, column in enumerate(targets.T):
        distance = np.where(available, np.abs(probs - column[:, None]), np.inf)
        tied = distance == distance.min(axis=1, keepdims=True)
        # the lowest tied id (top is the lowest only as the one tied id)
        lowest = np.where(tied, ids, top).min(axis=1, keepdims=True)
        pick = (tied & (ids == lowest)).argmax(axis=1)
        available[lanes, pick] = False
        picks[:, j] = ids[lanes, pick]
    return picks


def select_random(ids: np.ndarray, k: int,
                  rng: np.random.Generator) -> list[int]:
    """Uniform sample of ``k`` distinct ids, ignoring any model output."""
    return rng.choice(_check_ids(ids, k), size=k, replace=False).tolist()


def select_uncertainty(ids: np.ndarray, probs: np.ndarray, k: int) -> list[int]:
    """The ``k`` ids whose probability is closest to 0.5: the matcher with
    every target at 0.5, ties to the lower id, so a pure function of the set
    of ``(id, prob)`` pairs (order-independent)."""
    ids, probs = _check_scored(ids, probs, k)
    return match_targets(ids[None], probs[None], [[0.5] * k])[0].tolist()


def select_shifted_normal(ids: np.ndarray, probs: np.ndarray, k: int,
                          strategy: QueryStrategy,
                          rng: np.random.Generator) -> list[int]:
    """Select ``k`` ids by matching targets drawn from ``strategy``'s Beta.

    For each of ``k`` independent draws, the remaining id whose
    probability is nearest the drawn target is taken (ties to the lower id).
    Matching targets rather than weighting by the density keeps the selection
    faithful to the target distribution even when the pool's probabilities
    are sparse or heavily skewed.
    """
    ids, probs = _check_scored(ids, probs, k)
    targets = TARGET_RULES["shifted-normal"](strategy, k, rng)
    return match_targets(ids[None], probs[None], [targets])[0].tolist()
