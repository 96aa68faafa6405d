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

``fit`` and ``predict_proba`` take lanes, a stack of equal-sized pools
stepped together into one model whose fields carry the lane axis; one pool
is a stack of one lane, and each lane's fit equals its one-lane fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, reject_non_finite, require_positive_int

_PROB_EPS = 1e-12


@dataclass(frozen=True)
class GlmHyperparams:
    """Fitting knobs for the logistic GLM; ``gradient_tolerance``, the
    gradient max-norm at which a fit stops, is fixed."""

    l2_penalty: float = 50.0
    max_iterations: int = 200
    gradient_tolerance: float = field(default=1e-8, init=False)

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.l2_penalty < 0:
            raise ConfigError(f"l2_penalty must be >= 0, got {self.l2_penalty!r}")
        require_positive_int("max_iterations", self.max_iterations)


@dataclass(frozen=True, eq=False)
class GlmModel:
    """Immutable fitted model: weights, intercept, and convergence info.

    A model of L lanes has ``(L, d)`` weights and ``(L,)`` fields, entry k
    belonging to lane k.  ``fallback_prior`` is a number (and weights and
    intercept are zero) where the lane's pool held a single class, and NaN
    elsewhere; every prediction of such a lane equals the prior.  Array
    fields would make a generated ``==`` ambiguous, so models compare and
    hash by identity.
    """

    weights: np.ndarray
    intercept: np.ndarray
    converged: np.ndarray
    n_iterations: np.ndarray
    fallback_prior: np.ndarray


def sigmoid(z):
    """Logistic function, stable for large |z|: 1 / (1 + exp(-z)) where
    z >= 0 and exp(z) / (1 + exp(z)) elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _lane_scores(features, theta):
    """Linear scores ``(..., n)`` of ``(..., n, d)`` features under
    ``(..., d+1)`` parameters (weights then intercept); the leading axes
    broadcast, so ``(P, 1, n, d)`` features score a ``(P, T, d+1)`` stack."""
    d = features.shape[-1]
    return (features @ theta[..., :d, None])[..., 0] + theta[..., d, None]


def _lane_losses(scores, labels, theta, l2_penalty):
    """The regularized negative log-likelihood of every lane from its
    linear ``scores`` ``(..., n)`` at parameters ``(..., d+1)``, as a
    ``(...)`` array; the penalty excludes the intercept."""
    # log(1 + exp(z)) - y*z, computed stably for large |z|
    nll = np.logaddexp(0.0, scores) - labels * scores
    w = theta[..., None, :theta.shape[-1] - 1]
    return nll.sum(axis=-1) + 0.5 * l2_penalty * (w @ w.swapaxes(-1, -2))[..., 0, 0]


def _lane_gradients(features, labels, theta, probs, l2_penalty):
    """The analytic gradient of every lane's :func:`_lane_losses` with
    respect to ``theta`` (weights then intercept), as ``(L, d+1)``;
    ``probs`` are the lanes' predicted probabilities at ``theta``."""
    d = features.shape[-1]
    residual = probs - labels
    grad_w = (features.transpose(0, 2, 1) @ residual[..., None])[..., 0]
    grad_w += l2_penalty * theta[:, :d]
    return np.concatenate([grad_w, residual.sum(axis=1)[:, None]], axis=1)


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
    """Fit the GLM on each lane of equal-sized pools, stepping them together.

    ``features`` is ``(L, n, d)`` with ``(L, n)`` labels, and the model has
    ``(L, d)`` weights and ``(L,)`` fields; one pool is fitted as the stack
    ``fit(X[None], y[None])``.  Lane k's fit uses row block k alone, and
    equals bit for bit the one-lane fit of that block.

    A lane holding a single class gets the Laplace-smoothed prior fallback.
    The others run damped Newton steps.  Each pass first computes a lane's
    gradient at its current parameters; the lane stops when the gradient's
    max-norm is below ``hp.gradient_tolerance`` (``converged``) or
    ``hp.max_iterations`` steps have been taken, and ``n_iterations`` counts
    the steps taken.  A step that leaves both a lane's parameters (byte for
    byte) and its loss unchanged is an exact fixed point, so the lane stops
    there and reports what its remaining iterations would:
    ``n_iterations == hp.max_iterations``, not converged.  A stopped lane
    stays in the stack with a zero step, which leaves its parameters and
    loss exactly as they are; its Newton system is not solved.  A step
    that raises a lane's loss is halved until it does not, up to 50 times:
    a stalled lane scores its table of halvings 2**-1 to 2**-50 in one
    stacked loss call and takes the first of the first 49 whose loss does
    not rise, or else the 50th unchecked, with the 49th's loss, as halving
    one trial at a time would.  The accepted step's scores are reused for
    the next gradient.  The default tolerance 1e-8 lies below what
    loss-based step halving can resolve, so about 0.5-0.7% of fits on the
    paper's workloads stall near |gradient| 1e-8 to 2e-7 and end
    unconverged.  The fixed-point exit keeps those
    stalls cheap: at seed 5, with class_sep 0.5 and 1.0 at 20 x 2 queries
    and 1.0 at 40 x 4, a fit holding such a lane leaves after about 8-20
    gradient passes instead of ``hp.max_iterations + 1``; without the exit,
    those shapes would make 35-82% more passes in all.  Raises
    ``ValueError`` unless the shapes match, every label is 0 or 1, every
    feature is finite, and there is at least one lane and the pools are
    non-empty.
    """
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 3 or labels.shape != X.shape[:-1]:
        raise ValueError(f"features must be 3-D (L, n, d) lanes and labels "
                         f"2-D (L, n), one label per feature row, got shapes "
                         f"{X.shape} and {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    n_lanes, n, d = X.shape
    if n_lanes == 0 or n == 0:
        raise ValueError("cannot fit a model on an empty pool")
    n_positive = labels.sum(axis=1)
    single_class = (n_positive == 0) | (n_positive == n)
    y = labels.astype(np.float64)
    Xb = np.concatenate([X, np.ones((n_lanes, n, 1))], axis=2)
    theta = np.zeros((n_lanes, d + 1))  # weights then intercept
    z = _lane_scores(X, theta)
    loss = _lane_losses(z, y, theta, hp.l2_penalty)
    diagonal = np.arange(d)
    halvings = np.ldexp(1.0, -np.arange(1, 51))[:, None]  # 2**-1 ... 2**-50
    converged = single_class.copy()
    n_iterations = np.zeros(n_lanes, dtype=np.int64)
    stepping = ~single_class
    fixed = np.zeros(n_lanes, dtype=bool)

    for iterations in range(hp.max_iterations + 1):
        p = sigmoid(z)
        grad = _lane_gradients(X, y, theta, p, hp.l2_penalty)
        small = np.abs(grad).max(axis=1) < hp.gradient_tolerance
        # a fixed lane fails the gradient test again at the same parameters;
        # it ends as the full loop would, unconverged at the cap
        stop = stepping & (small | fixed | (iterations == hp.max_iterations))
        if stop.any():
            converged[stop] = small[stop]
            n_iterations[stop] = np.where(fixed[stop], hp.max_iterations, iterations)
            stepping &= ~stop
            if not stepping.any():
                break
        s = p * (1.0 - p)
        hessians = (Xb.transpose(0, 2, 1) * s[:, None, :]) @ Xb
        hessians[:, diagonal, diagonal] += hp.l2_penalty
        step = np.zeros_like(grad)
        step[stepping] = _newton_steps(hessians[stepping], grad[stepping])
        # the full step, then, for each lane whose loss it raises, the 50
        # halvings at once: the lane takes the first of the first 49 that
        # does not raise its loss, or the 50th with the 49th's loss if none
        # does, as halving one trial at a time would; a stopped lane's zero
        # step keeps its parameters and repeats its loss exactly
        new_theta = theta - step
        new_z = _lane_scores(X, new_theta)
        new_loss = _lane_losses(new_z, y, new_theta, hp.l2_penalty)
        pending = ~(new_loss <= loss)
        if pending.any():
            pending = np.flatnonzero(pending)
            trials = theta[pending, None] - halvings * step[pending, None]
            trial_z = _lane_scores(X[pending, None], trials)
            trial_loss = _lane_losses(trial_z, y[pending, None], trials,
                                      hp.l2_penalty)
            ok = trial_loss[:, :-1] <= loss[pending, None]
            pick = np.where(ok.any(axis=1), ok.argmax(axis=1), len(halvings) - 1)
            rows = np.arange(len(pending))
            new_theta[pending] = trials[rows, pick]
            new_z[pending] = trial_z[rows, pick]
            new_loss[pending] = trial_loss[rows, np.minimum(pick, len(halvings) - 2)]
        # (theta, loss) is a lane's whole state: at an exact fixed point every
        # remaining iteration would repeat this one
        fixed = ((new_theta.view(np.int64) == theta.view(np.int64)).all(axis=1)
                 & (new_loss == loss))
        theta, z, loss = new_theta, new_z, new_loss
    prior = np.where(single_class, (n_positive + 1) / (n + 2), np.nan)
    return GlmModel(weights=theta[:, :d].copy(), intercept=theta[:, d],
                    converged=converged, n_iterations=n_iterations,
                    fallback_prior=prior)


def predict_proba(model: GlmModel, features):
    """Predicted positive-class probabilities, strictly inside (0, 1).

    A model of L lanes scores ``(L, ..., m, d)`` features, row block k
    under lane k, and returns ``(L, ..., m)``; a leading axis of length 1
    scores one block under every lane without copying it.  Raises
    ``ValueError`` on any other leading length, on fewer than 3 axes, a last
    axis other than the model dimension d, or a non-finite feature, and
    on a model whose weights are not 2-D ``(L, d)``.
    """
    x = np.asarray(features, dtype=np.float64)
    if model.weights.ndim != 2:
        raise ValueError(f"model weights must be 2-D (L, d), one row per "
                         f"lane, got shape {model.weights.shape}")
    n_lanes, d = model.weights.shape
    if x.ndim < 3 or x.shape[0] not in (1, n_lanes) or x.shape[-1] != d:
        raise ValueError(f"features of shape {x.shape} do not match a model "
                         f"of {n_lanes} lanes and dimension {d}, which scores "
                         f"({n_lanes}, ..., m, {d}) or (1, ..., m, {d}) features")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    lead = (-1,) + (1,) * (x.ndim - 3)
    weights = model.weights.reshape(*lead, d, 1)
    intercept = model.intercept.reshape(*lead, 1)
    prior = model.fallback_prior.reshape(*lead, 1)
    p = np.clip(sigmoid((x @ weights)[..., 0] + intercept),
                _PROB_EPS, 1.0 - _PROB_EPS)
    return np.where(np.isnan(prior), p, prior)
