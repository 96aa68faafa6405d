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
    """Logistic function, stable for large |z|: 1 / (1 + exp(-z)) where
    z >= 0 and exp(z) / (1 + exp(z)) elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _lane_scores(features, theta):
    """Linear scores ``(L, n)`` of ``(L, n, d)`` features under ``(L, d+1)``
    parameters (weights then intercept)."""
    d = features.shape[-1]
    return (features @ theta[:, :d, None])[..., 0] + theta[:, d, None]


def _lane_losses(features, labels, theta, l2_penalty):
    """:func:`nll_loss` of every lane, as an ``(L,)`` array."""
    z = _lane_scores(features, theta)
    # log(1 + exp(z)) - y*z, computed stably for large |z|
    nll = np.logaddexp(0.0, z) - labels * z
    w = theta[:, None, :features.shape[-1]]
    return nll.sum(axis=1) + 0.5 * l2_penalty * (w @ w.transpose(0, 2, 1))[:, 0, 0]


def _lane_gradients(features, labels, theta, probs, l2_penalty):
    """:func:`nll_gradient` of every lane at ``theta``, as ``(L, d+1)``;
    ``probs`` are the lanes' predicted probabilities at ``theta``."""
    d = features.shape[-1]
    residual = probs - labels
    grad_w = (features.transpose(0, 2, 1) @ residual[..., None])[..., 0]
    grad_w += l2_penalty * theta[:, :d]
    return np.concatenate([grad_w, residual.sum(axis=1)[:, None]], axis=1)


def _one_lane(weights, intercept, features, labels):
    """One lane's ``(1, n, d)`` features, ``(1, n)`` labels and ``(1, d+1)`` theta."""
    theta = np.append(np.asarray(weights, dtype=np.float64), intercept)[None]
    return np.asarray(features)[None], np.asarray(labels)[None], theta


def nll_loss(weights, intercept, features, labels, l2_penalty) -> float:
    """Regularized negative log-likelihood (penalty excludes the intercept)."""
    features, labels, theta = _one_lane(weights, intercept, features, labels)
    return float(_lane_losses(features, labels, theta, l2_penalty)[0])


def nll_gradient(weights, intercept, features, labels, l2_penalty) -> np.ndarray:
    """Analytic gradient of :func:`nll_loss` w.r.t. (weights..., intercept)."""
    features, labels, theta = _one_lane(weights, intercept, features, labels)
    probs = sigmoid(_lane_scores(features, theta))
    return _lane_gradients(features, labels, theta, probs, l2_penalty)[0]


def _newton_steps(hessians, grads):
    """Solve every lane's Newton system; if the stacked solve finds a
    singular lane, solve lane by lane, falling back to least squares."""
    try:
        return np.linalg.solve(hessians, grads[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grads)
        for k, (hessian, grad) in enumerate(zip(hessians, grads)):
            try:
                steps[k] = np.linalg.solve(hessian, grad)
            except np.linalg.LinAlgError:
                steps[k] = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        return steps


def fit(features, labels, hp: GlmHyperparams = GlmHyperparams()) -> GlmModel:
    """Fit the GLM on one labeled pool: the one-lane call of :func:`fit_lanes`.

    ``features`` is ``(n, d)`` and ``labels`` the ``(n,)`` matching labels.
    Raises ``ValueError`` unless the shapes match, every label is 0 or 1,
    and the pool is non-empty.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.ndim != 1 or len(labels) != len(features):
        raise ValueError(f"features must be 2-D and labels 1-D with one label "
                         f"per feature row, got shapes {features.shape} and "
                         f"{labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return fit_lanes(features[None], labels[None], hp)[0]


def fit_lanes(features, labels,
              hp: GlmHyperparams = GlmHyperparams()) -> list[GlmModel]:
    """Fit one GLM per lane of equal-sized labeled sets, stepping them together.

    ``features`` is ``(L, n, d)`` and ``labels`` ``(L, n)``; lane k's model
    is fitted on row block k alone, and equals bit for bit what a fit of
    that block by itself returns.

    A lane holding a single class gets the Laplace-smoothed prior fallback.
    The others run damped Newton steps.  Each pass first computes a lane's
    gradient at its current parameters; the lane leaves when the gradient's
    max-norm is below ``hp.gradient_tolerance`` (``converged``) or
    ``hp.max_iterations`` steps have been taken, and ``n_iterations`` counts
    the steps taken.  A step that leaves both a lane's parameters (byte for
    byte) and its loss unchanged is an exact fixed point, so the lane leaves
    there and reports what its remaining iterations would:
    ``n_iterations == hp.max_iterations``, not converged.  The default
    tolerance 1e-8 lies below what loss-based step halving can resolve, so
    about 0.5-0.7% of fits on the paper's workloads stall near |gradient|
    1e-8 to 2e-7 and end unconverged.  Raises ``ValueError`` when ``n`` is 0.
    """
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n_lanes, n, d = X.shape
    if n == 0:
        raise ValueError("cannot fit a model on an empty pool")
    models: list[GlmModel | None] = [None] * n_lanes
    n_positive = labels.sum(axis=1)
    single_class = (n_positive == 0) | (n_positive == n)
    for k in np.flatnonzero(single_class):
        models[k] = GlmModel(weights=np.zeros(d), intercept=0.0, converged=True,
                             n_iterations=0,
                             fallback_prior=(int(n_positive[k]) + 1) / (n + 2))

    # the lanes still stepping, and their data; subset only when one leaves
    lanes = np.flatnonzero(~single_class)
    X = X[lanes]
    y = labels[lanes].astype(np.float64)
    Xb = np.concatenate([X, np.ones((len(lanes), n, 1))], axis=2)
    theta = np.zeros((len(lanes), d + 1))  # weights then intercept
    loss = _lane_losses(X, y, theta, hp.l2_penalty)
    diagonal = np.arange(d)

    def leave(mask, converged, n_iterations):
        nonlocal lanes, X, y, Xb, theta, loss
        for j in np.flatnonzero(mask):
            models[lanes[j]] = GlmModel(
                weights=theta[j, :d].copy(), intercept=float(theta[j, d]),
                converged=bool(converged[j]), n_iterations=n_iterations)
        keep = ~mask
        lanes, X, y, Xb, theta, loss = (
            a[keep] for a in (lanes, X, y, Xb, theta, loss))
        return keep

    for iterations in range(hp.max_iterations + 1):
        if not len(lanes):
            break
        p = sigmoid(_lane_scores(X, theta))
        grad = _lane_gradients(X, y, theta, p, hp.l2_penalty)
        converged = np.abs(grad).max(axis=1) < hp.gradient_tolerance
        done = converged | (iterations == hp.max_iterations)
        if done.any():
            keep = leave(done, converged, iterations)
            p, grad = p[keep], grad[keep]
            if not len(lanes):
                break
        s = p * (1.0 - p)
        hessians = (Xb.transpose(0, 2, 1) * s[:, None, :]) @ Xb
        hessians[:, diagonal, diagonal] += hp.l2_penalty
        step = _newton_steps(hessians, grad)
        # halve each lane's step until its loss stops increasing; a lane that
        # stopped keeps its scale, so recomputing its loss repeats it exactly
        scale = np.ones(len(lanes))
        pending = np.ones(len(lanes), dtype=bool)
        for _ in range(50):
            new_loss = _lane_losses(X, y, theta - scale[:, None] * step,
                                    hp.l2_penalty)
            pending &= ~(new_loss <= loss)
            if not pending.any():
                break
            scale[pending] *= 0.5
        new_theta = theta - scale[:, None] * step
        # (theta, loss) is a lane's whole state: at an exact fixed point every
        # remaining iteration would repeat this one, so the lane ends as the
        # full loop would; converged is the gradient test here, which failed.
        fixed = ((new_theta.view(np.int64) == theta.view(np.int64)).all(axis=1)
                 & (new_loss == loss))
        theta, loss = new_theta, new_loss
        if fixed.any():
            leave(fixed, np.zeros(len(lanes), dtype=bool), hp.max_iterations)
    return models


def predict_lanes(models, features) -> np.ndarray:
    """Each lane's predicted positive-class probabilities, strictly inside (0, 1).

    ``features`` is ``(L, ..., m, d)`` and its row block k is scored by
    ``models[k]``; a leading axis of length 1 scores one block under every
    model without copying it.  Returns ``(L, ..., m)``.
    """
    x = np.asarray(features, dtype=np.float64)
    lead = (len(models),) + (1,) * (x.ndim - 3)
    weights = np.stack([model.weights for model in models]).reshape(*lead, -1, 1)
    intercepts = np.array([model.intercept for model in models]).reshape(*lead, 1)
    p = np.clip(sigmoid((x @ weights)[..., 0] + intercepts),
                _PROB_EPS, 1.0 - _PROB_EPS)
    for k, model in enumerate(models):
        if model.fallback_prior is not None:
            p[k] = model.fallback_prior
    return p


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
    p = predict_lanes([model], x[None])[0]
    return float(p[0]) if single else p
