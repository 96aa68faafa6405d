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
checked matcher, :func:`match_targets`, picks for every lane of a stack
whose ids each ascend.

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


def match_targets(ids: np.ndarray, probs: np.ndarray, targets) -> np.ndarray:
    """``(L, k)`` picks from ``(L, n)`` ids and probs and ``(L, k)`` targets:
    lane l's j-th pick is the id whose prob is nearest ``targets[l, j]``
    among those not yet picked, ties to the lower id.  Raises ``ValueError``
    unless the shapes match, k <= n, each lane's ids are integers in strictly
    ascending order (so the first nearest row holds the lowest tied id),
    every prob lies strictly inside (0, 1) and every target is finite."""
    ids, probs = np.asarray(ids), np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if (ids.ndim != 2 or probs.shape != ids.shape or targets.ndim != 2
            or len(targets) != len(ids)):
        raise ValueError(f"ids and probs must be (L, n) and targets (L, k), got "
                         f"shapes {ids.shape}, {probs.shape} and {targets.shape}")
    if targets.shape[1] > ids.shape[1]:
        raise ValueError(f"cannot select {targets.shape[1]} from {ids.shape[1]} candidates")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
    # a comparison, not np.diff, which wraps a descending uint64 pair
    if not (ids[:, 1:] > ids[:, :-1]).all():
        raise ValueError("each lane's ids must be strictly ascending")
    if not ((probs > 0.0) & (probs < 1.0)).all():
        raise ValueError("every prob must lie strictly inside (0, 1)")
    if not np.isfinite(targets).all():
        raise ValueError("every target must be finite")
    available = np.ones(ids.shape, dtype=bool)
    lanes = np.arange(len(ids))
    picks = np.empty(targets.shape, dtype=ids.dtype)
    for j, column in enumerate(targets.T):
        distance = np.where(available, np.abs(probs - column[:, None]), np.inf)
        pick = distance.argmin(axis=1)
        available[lanes, pick] = False
        picks[:, j] = ids[lanes, pick]
    return picks


def select_random(ids: np.ndarray, k: int,
                  rng: np.random.Generator) -> list[int]:
    """Uniform sample of ``k`` distinct ids, ignoring any model output.
    Raises ``ValueError`` unless ``ids`` is 1-D and holds at least ``k``
    unique integers, kept in their own dtype: a cast to int64 would wrap
    unsigned ids >= 2**63 to ids outside the pool."""
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
    return rng.choice(ids, size=k, replace=False).tolist()
