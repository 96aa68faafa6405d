"""Active-learning loop orchestration and multi-round aggregation.

One round: generate and split a dataset, fit an initial model on the labeled
seed pool, then repeatedly (score the unlabeled pool, select a batch with the
configured strategy, reveal the selected instances' true labels, move them to
the labeled pool, refit, evaluate on the held-out test pools).  True labels
cross into the loop only at the reveal step; selectors see ids and predicted
probabilities, nothing else.

An experiment runs many independent rounds (seeds ``base_seed + i``) and
aggregates every logged metric per query index into Student-t confidence
intervals.  Rounds share no state, so they can execute in parallel with
results identical to sequential execution.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datagen import (DataPool, DatasetConfig, dataset_rng, generate_dataset,
                      query_rng, split_pools)
from .errors import (AlqsimError, ConfigError, reject_non_finite,
                     require_positive_int)
from .glm import GlmHyperparams, GlmModel, fit, predict_proba
from .metrics import (CiSummary, CostModel, auc, cost_efficiency, compute_phi,
                      f1, mean_ci, positive_ratio)
from .strategies import (QueryStrategy, beta_from_mode, select_random,
                         select_shifted_normal, select_uncertainty)

METRIC_NAMES = ("lam", "zeta", "eta", "auc", "f1")


class SimulationError(AlqsimError, RuntimeError):
    """A round failed; the message carries the failing round's seed."""


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one experiment."""

    dataset: DatasetConfig
    strategy: QueryStrategy
    n_queries: int = 20
    batch_size: int = 2
    cost: CostModel = CostModel()
    glm: GlmHyperparams = GlmHyperparams()
    rounds: int = 30
    base_seed: int = 0
    confidence: float = 0.99
    shared_dataset: bool = False
    record_phi: bool = False
    phi_delta: float = 0.05

    def __post_init__(self) -> None:
        reject_non_finite(self)
        for name in ("n_queries", "batch_size", "rounds"):
            require_positive_int(name, getattr(self, name))
        if self.rounds < 2:
            raise ConfigError(f"an experiment needs rounds >= 2 to form confidence "
                              f"intervals, got {self.rounds!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if not 0.0 < self.phi_delta < 0.5:
            raise ConfigError(f"phi_delta must be in (0, 0.5), got {self.phi_delta!r}")
        budget = self.n_queries * self.batch_size
        if budget > self.dataset.unlabeled_size:
            raise ConfigError(
                f"query budget {self.n_queries} x {self.batch_size} = {budget} "
                f"exceeds the unlabeled pool size {self.dataset.unlabeled_size}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class RoundResult:
    """Everything one round produced, one row per query.

    Row ``q - 1`` of each array belongs to query q and, for the metrics, to
    the model refitted after it.  ``selected_ids`` is ``(n_queries, batch)``
    in selection order.  ``lam``, ``zeta`` and ``eta`` are ``(n_queries,)``;
    ``eta`` is NaN where zeta is 0 (efficiency undefined).  ``auc`` and
    ``f1`` are ``(n_queries, n_test_pools)``.  Array fields would make a
    generated ``==`` ambiguous, so results compare by identity; compare the
    arrays instead.

    The phi fields are populated only when the round ran with phi recording
    enabled: ``interim_probs[q-1]`` maps every id that was unlabeled at query
    q to its interim predicted probability, and ``final_probs`` maps every id
    that was ever scored to the final model's probability.
    """

    seed: int
    selected_ids: np.ndarray
    lam: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    auc: np.ndarray
    f1: np.ndarray
    phi_trace: tuple[tuple[float, ...], ...] | None = None
    interim_probs: tuple[dict[int, float], ...] | None = None
    final_probs: dict[int, float] | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-query cross-round aggregates for every logged metric.

    ``eta`` entries are None where fewer than two rounds produced a defined
    efficiency value; ``eta_missing`` counts the undefined samples per query.
    """

    config: SimulationConfig
    queries: tuple[int, ...]
    labeled_sizes: tuple[int, ...]
    lam: tuple[CiSummary, ...]
    zeta: tuple[CiSummary, ...]
    eta: tuple[CiSummary | None, ...]
    auc: tuple[CiSummary, ...]
    f1: tuple[CiSummary, ...]
    eta_missing: tuple[int, ...]

    def to_dict(self) -> dict:
        def series(entries):
            return {
                "mean": [None if s is None else s.mean for s in entries],
                "lower": [None if s is None else s.lower for s in entries],
                "upper": [None if s is None else s.upper for s in entries],
            }

        payload = {
            "config": self.config.to_dict(),
            "confidence": self.config.confidence,
            "rounds": self.config.rounds,
            "queries": list(self.queries),
            "labeled_sizes": list(self.labeled_sizes),
            "lambda": series(self.lam),
            "zeta": series(self.zeta),
            "eta": series(self.eta),
            "auc": series(self.auc),
            "f1": series(self.f1),
        }
        payload["eta"]["n_missing"] = list(self.eta_missing)
        return payload


def _evaluate(model: GlmModel, test_pools: list[DataPool], labeled: DataPool,
              cost: CostModel) -> tuple[float, float, float, list, list]:
    """``(lam, zeta, eta, aucs, f1s)`` of one model; eta is NaN at zeta = 0."""
    aucs, f1s = [], []
    for pool in test_pools:
        probs = predict_proba(model, pool.features)
        aucs.append(auc(probs, pool.labels))
        f1s.append(f1(probs, pool.labels))
    lam = float(np.mean(aucs))
    zeta = positive_ratio(labeled)
    eta = cost_efficiency(lam, zeta, cost) if zeta > 0 else np.nan
    return lam, zeta, eta, aucs, f1s


def run_round(config: SimulationConfig, round_seed: int) -> RoundResult:
    """Execute one active-learning round; pure function of (config, seed)."""
    data_seed = config.base_seed if config.shared_dataset else round_seed
    data_rng = dataset_rng(data_seed)
    rng = query_rng(round_seed)

    features, labels = generate_dataset(config.dataset, data_rng)
    seed_pool, unlabeled, test_pools = split_pools(
        (features, labels), config.dataset, data_rng)

    u_ids, u_features = unlabeled.ids, unlabeled.features
    alive = np.ones(len(u_ids), dtype=bool)
    selections: list[list[int]] = []  # queried ids, which are dataset rows

    strategy = config.strategy
    beta_params = beta_from_mode(strategy.mode, strategy.concentration)
    needs_scores = strategy.kind != "random"

    model = fit(seed_pool, config.glm)

    evaluations = []
    interim_maps: list[dict[int, float]] = []
    for _ in range(config.n_queries):
        live_ids = u_ids[alive]
        if needs_scores or config.record_phi:
            live_probs = predict_proba(model, u_features[alive])
        if config.record_phi:
            interim_maps.append(
                {int(i): float(p) for i, p in zip(live_ids, live_probs)})

        if strategy.kind == "random":
            selected = select_random(live_ids, config.batch_size, rng)
        elif strategy.kind == "uncertainty":
            selected = select_uncertainty(live_ids, live_probs, config.batch_size)
        else:
            selected = select_shifted_normal(
                live_ids, live_probs, config.batch_size, beta_params, rng)

        alive[np.isin(u_ids, selected)] = False
        selections.append(selected)
        # oracle reveal: the hidden true labels enter the loop here.  Seed rows
        # come first, then queried rows in selection order: fit's float sums
        # run in this order, so it must not change.
        rows = np.concatenate([seed_pool.ids, *selections])
        labeled = DataPool(rows, features[rows], labels[rows], "labeled")

        model = fit(labeled, config.glm)
        evaluations.append(_evaluate(model, test_pools, labeled, config.cost))

    phi_trace = None
    final_probs = None
    if config.record_phi:
        all_scored = sorted(interim_maps[0]) if interim_maps else []
        final_all = predict_proba(model, features[all_scored])
        final_probs = {i: float(p) for i, p in zip(all_scored, final_all)}
        phi_trace = tuple(
            tuple(compute_phi({i: final_probs[i] for i in interim},
                              interim, config.phi_delta))
            for interim in interim_maps)

    lam, zeta, eta, aucs, f1s = (np.array(column) for column in zip(*evaluations))
    return RoundResult(seed=round_seed,
                       selected_ids=np.array(selections, dtype=np.int64),
                       lam=lam, zeta=zeta, eta=eta, auc=aucs, f1=f1s,
                       phi_trace=phi_trace,
                       interim_probs=tuple(interim_maps) if config.record_phi else None,
                       final_probs=final_probs)


def worker_count(jobs: int, rounds: int) -> int:
    """Worker processes for ``rounds`` rounds at ``jobs``; 1 means sequential.

    More workers than rounds or cores would only idle, and the pool starts
    every worker at once, so ``jobs`` is an upper bound, not a request.
    Raises :class:`ConfigError` unless ``jobs`` is a positive integer.
    """
    require_positive_int("jobs", jobs)
    return min(jobs, rounds, os.cpu_count() or 1)


def run_rounds(config: SimulationConfig, jobs: int = 1) -> list[RoundResult]:
    """All rounds of an experiment, in round order; optionally in parallel.

    A failing round aborts the experiment with a :class:`SimulationError`
    naming the failing round's seed.
    """
    workers = worker_count(jobs, config.rounds)
    seeds = [config.base_seed + i for i in range(config.rounds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(seed, pool.submit(run_round, config, seed))
                       for seed in seeds]
            return [_settle(seed, future.result) for seed, future in futures]
    return [_settle(seed, lambda s=seed: run_round(config, s)) for seed in seeds]


def _settle(seed: int, produce) -> RoundResult:
    try:
        return produce()
    except Exception as exc:
        raise SimulationError(f"round with seed {seed} failed: {exc}") from exc


def aggregate(config: SimulationConfig,
              results: list[RoundResult]) -> ExperimentSummary:
    """Merge completed rounds into per-query confidence intervals.

    Order-insensitive: any permutation of ``results`` yields the same
    summary.
    """
    if len(results) < 2:
        raise ConfigError("aggregation needs at least 2 rounds")
    ordered = sorted(results, key=lambda r: r.seed)
    queries = tuple(range(1, config.n_queries + 1))
    labeled_sizes = tuple(config.dataset.labeled_size + q * config.batch_size
                          for q in queries)

    def per_query(name: str) -> np.ndarray:
        # row qi holds every round's samples for query qi, round-major
        stacked = np.stack([getattr(r, name) for r in ordered], axis=1)
        return stacked.reshape(config.n_queries, -1)

    def ci(samples: np.ndarray) -> CiSummary:
        return mean_ci(samples, config.confidence)

    lam, zeta, eta, aucs, f1s = (per_query(name) for name in METRIC_NAMES)
    defined_eta = [row[~np.isnan(row)] for row in eta]
    return ExperimentSummary(
        config=config, queries=queries, labeled_sizes=labeled_sizes,
        lam=tuple(map(ci, lam)), zeta=tuple(map(ci, zeta)),
        eta=tuple(ci(row) if len(row) >= 2 else None for row in defined_eta),
        auc=tuple(map(ci, aucs)), f1=tuple(map(ci, f1s)),
        eta_missing=tuple(len(ordered) - len(row) for row in defined_eta))
