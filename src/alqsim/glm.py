"""Binary logistic regression fitted by damped Newton iterations.

The model minimizes the L2-regularized negative log-likelihood

    sum_i [log(1 + exp(z_i)) - y_i * z_i] + 0.5 * l2 * ||w||^2,
    z_i = w . x_i + b,

where the penalty covers the weights but not the intercept.  Labeled pools
here are tiny (tens of instances), so the default penalty is deliberately
strong: it damps the wild, overconfident fits a near-separable small sample
would otherwise produce, while leaving the ranking direction (and therefore
AUC) essentially untouched.

A pool containing a single class cannot support a slope estimate at all; in
that case ``fit`` returns a constant-probability fallback model with a
Laplace-smoothed prior instead of failing, which keeps cold-start query loops
alive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import DataPool
from .errors import ConfigError, reject_non_finite, require_positive_int

_PROB_EPS = 1e-12


@dataclass(frozen=True)
class GlmHyperparams:
    """Fitting knobs for the logistic GLM."""

    l2_penalty: float = 50.0
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.l2_penalty < 0:
            raise ConfigError(f"l2_penalty must be >= 0, got {self.l2_penalty!r}")
        require_positive_int("max_iterations", self.max_iterations)
        if not self.gradient_tolerance > 0:
            raise ConfigError(
                f"gradient_tolerance must be > 0, got {self.gradient_tolerance!r}")


@dataclass(frozen=True)
class GlmModel:
    """Immutable fitted model: weights, intercept, and convergence info.

    ``fallback_prior`` is set (and weights/intercept are zero) when the
    training pool contained a single class; every prediction then equals the
    prior.
    """

    weights: np.ndarray
    intercept: float
    converged: bool
    n_iterations: int
    fallback_prior: float | None = None


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def nll_loss(weights, intercept, features, labels, l2_penalty) -> float:
    """Regularized negative log-likelihood (penalty excludes the intercept)."""
    z = features @ weights + intercept
    # log(1 + exp(z)) - y*z, computed stably for large |z|
    nll = np.logaddexp(0.0, z) - labels * z
    return float(nll.sum() + 0.5 * l2_penalty * np.dot(weights, weights))


def nll_gradient(weights, intercept, features, labels, l2_penalty) -> np.ndarray:
    """Analytic gradient of :func:`nll_loss` w.r.t. (weights..., intercept)."""
    p = sigmoid(features @ weights + intercept)
    residual = p - labels
    grad_w = features.T @ residual + l2_penalty * weights
    grad_b = residual.sum()
    return np.concatenate([grad_w, [grad_b]])


def fit(pool: DataPool, hp: GlmHyperparams = GlmHyperparams()) -> GlmModel:
    """Fit the GLM on a labeled pool.

    Runs damped Newton steps.  Each pass first computes the gradient at the
    current parameters; the loop ends there when its max-norm is below
    ``hp.gradient_tolerance`` (``converged``) or ``hp.max_iterations`` steps
    have been taken, and ``n_iterations`` counts the steps taken.  A step
    that leaves both the parameters (byte for byte) and the loss unchanged
    is an exact fixed point, so the fit stops there and reports what the
    remaining iterations would: ``n_iterations == hp.max_iterations``, not
    converged.  The default tolerance 1e-8 lies below what loss-based step
    halving can resolve, so about 0.5-0.7% of fits on the paper's workloads
    stall near |gradient| 1e-8 to 2e-7 and end unconverged.  Raises
    ``ValueError`` on an empty pool.
    """
    if len(pool) == 0:
        raise ValueError("cannot fit a model on an empty pool")
    X = pool.features
    y = pool.labels.astype(np.float64)
    n, d = X.shape

    if pool.n_positive in (0, n):
        prior = (pool.n_positive + 1) / (n + 2)
        return GlmModel(weights=np.zeros(d), intercept=0.0, converged=True,
                        n_iterations=0, fallback_prior=prior)

    Xb = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1)  # weights then intercept
    loss = nll_loss(theta[:d], theta[d], X, y, hp.l2_penalty)
    for iterations in range(hp.max_iterations + 1):
        grad = nll_gradient(theta[:d], theta[d], X, y, hp.l2_penalty)
        converged = bool(np.max(np.abs(grad)) < hp.gradient_tolerance)
        if converged or iterations == hp.max_iterations:
            break
        p = sigmoid(X @ theta[:d] + theta[d])
        s = p * (1.0 - p)
        hessian = (Xb.T * s) @ Xb
        hessian[np.arange(d), np.arange(d)] += hp.l2_penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hessian, grad, rcond=None)
        # halve the step until the loss stops increasing
        scale = 1.0
        for _ in range(50):
            candidate = theta - scale * step
            new_loss = nll_loss(candidate[:d], candidate[d], X, y, hp.l2_penalty)
            if new_loss <= loss:
                break
            scale *= 0.5
        new_theta = theta - scale * step
        if new_theta.tobytes() == theta.tobytes() and new_loss == loss:
            # (theta, loss) is the loop's whole state: every remaining
            # iteration would repeat this one, so end as the full loop would.
            # converged is the gradient test at this theta, which failed.
            iterations = hp.max_iterations
            break
        theta = new_theta
        loss = new_loss

    return GlmModel(weights=theta[:d].copy(), intercept=float(theta[d]),
                    converged=converged, n_iterations=iterations)


def predict_proba(model: GlmModel, features):
    """Predicted positive-class probability, strictly inside (0, 1).

    Accepts a single feature vector or an (n, d) matrix; returns a float or
    an array accordingly.  Raises ``ValueError`` on a dimension mismatch.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != len(model.weights):
        raise ValueError(
            f"feature dimension {x.shape[-1] if x.ndim else '?'} does not match "
            f"model dimension {len(model.weights)}")
    if model.fallback_prior is not None:
        p = np.full(len(x), model.fallback_prior)
    else:
        p = sigmoid(x @ model.weights + model.intercept)
        p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    return float(p[0]) if single else p
