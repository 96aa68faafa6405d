"""Active-learning loop orchestration and multi-round aggregation.

One round: generate and split a dataset, fit an initial model on the labeled
seed pool, then repeatedly (score the unlabeled pool, select a batch with a
query strategy, reveal the selected instances' true labels, move them to
the labeled pool, refit, evaluate on the held-out test pools).  A lane's
unlabeled pool is the array of its live row ids, in pool order; every query
scores all of it, and the lane's picks are then dropped.  True labels
cross into the loop only at the reveal step; selectors see ids and predicted
probabilities, nothing else.  A round records what it observed after each
query: the ids it selected, the positive labels it held, each test pool's
AUC and F1 and, optionally, its phi trace; it knows no labeling cost.

An experiment is one :class:`SimulationConfig`; its ``strategies`` are
compared paired, as lanes.  It runs many independent rounds (seeds
``base_seed + i``), and at each seed every strategy's round runs as one
lane on one dataset generated and split once.  The lanes step through the
queries in lock-step, since each holds the same number of labels at each
query, so each query makes one stacked prediction, one stacked Newton fit
and one stacked evaluation over all lanes (lane calls of ``predict_proba``,
``fit``, ``auc`` and ``f1``), while each lane selects with its own query
generator.  A process holds one seed's dataset and lanes at a time.  Seeds
share no state, so they can execute in parallel with results identical to
sequential execution.  The process pool's modules load on first use, when
:func:`run_rounds` starts a pool: ``concurrent.futures.process``,
``multiprocessing`` and their imports are 32 modules, about 2 MB and 25 ms
of start-up, which a one-worker run would load for nothing.
:func:`aggregate` derives lambda, zeta and eta from one lane's rounds under
the configured cost and summarises every metric per query index in
Student-t confidence intervals.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .datagen import (DatasetConfig, dataset_rng, generate_dataset,
                      query_rng, split_pools)
from .errors import (AlqsimError, ConfigError, reject_non_finite,
                     require_positive_int, require_seed)
from .glm import GlmHyperparams, fit, predict_proba
from .metrics import CiSummary, CostModel, auc, cost_efficiency, f1, mean_ci
from .strategies import (QueryStrategy, select_random, select_shifted_normal,
                         select_uncertainty)


class SimulationError(AlqsimError, RuntimeError):
    """A round failed; the message carries the failing round's seed."""


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one experiment; each of ``strategies`` is a
    lane of every round.  ``confidence``, every interval's level, and
    ``phi_delta``, the phi band's half-width around 0.5, are fixed: no
    constructor or ``dataclasses.replace`` sets them."""

    dataset: DatasetConfig
    strategies: tuple[QueryStrategy, ...]
    n_queries: int = 20
    batch_size: int = 2
    cost: CostModel = CostModel()
    glm: GlmHyperparams = GlmHyperparams()
    rounds: int = 30
    base_seed: int = 0
    confidence: float = field(default=0.99, init=False)
    shared_dataset: bool = False
    record_phi: bool = False
    phi_delta: float = field(default=0.05, init=False)

    def __post_init__(self) -> None:
        for name, kind in (("dataset", DatasetConfig), ("cost", CostModel),
                           ("glm", GlmHyperparams)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"SimulationConfig.{name} must be a "
                                  f"{kind.__name__}, got {value!r}")
        if not (isinstance(self.strategies, tuple) and self.strategies
                and all(isinstance(s, QueryStrategy) for s in self.strategies)):
            raise ConfigError(f"strategies must be a non-empty tuple of "
                              f"QueryStrategy, got {self.strategies!r}")
        reject_non_finite(self)
        for name in ("n_queries", "batch_size", "rounds"):
            require_positive_int(name, getattr(self, name))
        if self.rounds < 2:
            raise ConfigError(f"an experiment needs rounds >= 2 to form confidence "
                              f"intervals, got {self.rounds!r}")
        require_seed("base_seed", self.base_seed, self.rounds)
        budget = self.n_queries * self.batch_size
        if budget > self.dataset.unlabeled_size:
            raise ConfigError(
                f"query budget {self.n_queries} x {self.batch_size} = {budget} "
                f"exceeds the unlabeled pool size {self.dataset.unlabeled_size}")


@dataclass(frozen=True, eq=False)
class RoundResult:
    """Everything one round observed, one row per query.

    Row ``q - 1`` of each array belongs to query q and, for the metrics, to
    the model refitted after it.  ``selected_ids`` is ``(n_queries, batch)``
    in selection order.  The int64 ``n_positive``, the positive labels held
    after query q (seed rows included), is ``(n_queries,)``; ``auc`` and
    ``f1`` are ``(n_queries, n_test_pools)``.  Array fields would make a
    generated ``==`` ambiguous, so results compare by identity; compare the
    arrays instead.

    ``phi_trace`` is set only when the round ran with phi recording
    enabled: ``phi_trace[q-1]`` lists, in ascending id order, the final
    model's probabilities of the ids still unlabeled at query q whose
    interim probability at query q lay within the config's
    ``phi_delta`` of 0.5.
    """

    seed: int
    selected_ids: np.ndarray
    n_positive: np.ndarray
    auc: np.ndarray
    f1: np.ndarray
    phi_trace: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-query cross-round aggregates for every metric.

    ``eta`` entries are None where fewer than two rounds held a positive
    label (eta is undefined at zeta = 0); ``eta_missing`` counts the
    undefined samples per query.
    """

    queries: tuple[int, ...]
    labeled_sizes: tuple[int, ...]
    lam: tuple[CiSummary, ...]
    zeta: tuple[CiSummary, ...]
    eta: tuple[CiSummary | None, ...]
    auc: tuple[CiSummary, ...]
    f1: tuple[CiSummary, ...]
    eta_missing: tuple[int, ...]


def run_round(config: SimulationConfig, round_seed: int) -> list[RoundResult]:
    """One round of every strategy of ``config`` at ``round_seed``, in
    lock-step.

    Returns one :class:`RoundResult` per strategy.  Each is a pure function
    of (config, its strategy, seed), as if that lane had run alone: the
    lanes share the seed's dataset and split, and each draws its query
    randomness from its own ``query_rng(round_seed)``.  With phi
    recording, each query marks, per lane and keyed by dataset row, which
    live rows' interim probabilities lay in the phi band; the trace reads
    the final model's probabilities of the marked rows.  Raises
    :class:`ConfigError` unless ``round_seed`` is an ``int`` in [-2**63, 2**63).
    """
    require_seed("round_seed", round_seed)
    data_seed = config.base_seed if config.shared_dataset else round_seed
    data_rng = dataset_rng(data_seed)
    features, labels = generate_dataset(config.dataset, data_rng)
    seed_ids, u_ids, test_ids = split_pools(
        (features, labels), config.dataset, data_rng)
    test_features, test_labels = features[test_ids], labels[test_ids]

    strategies = config.strategies
    rngs = [query_rng(round_seed) for _ in strategies]
    n_lanes, n_queries, batch = len(strategies), config.n_queries, config.batch_size

    # each lane's unlabeled rows, in pool order; all lanes hold as many
    live_ids = np.tile(u_ids, (n_lanes, 1))
    # each lane's labeled rows: seed rows first, then queried rows in
    # selection order; fit's float sums run in this order, so it must not change
    held = np.tile(seed_ids, (n_lanes, 1))
    selected = np.empty((n_lanes, n_queries, batch), dtype=np.int64)
    n_positive = np.empty((n_lanes, n_queries), dtype=np.int64)
    aucs, f1s = (np.empty((n_lanes, n_queries, len(test_ids)))
                 for _ in range(2))
    # in_band[k, q, row]: the row was unlabeled at query q and lane k's
    # interim probability of it lay in the phi band
    in_band = (np.zeros((n_lanes, n_queries, len(labels)), dtype=bool)
               if config.record_phi else None)
    lo, hi = 0.5 - config.phi_delta, 0.5 + config.phi_delta

    model = fit(features[held], labels[held], config.glm)
    for q in range(n_queries):
        live_probs = predict_proba(model, features[live_ids])
        if config.record_phi:
            np.put_along_axis(in_band[:, q], live_ids,
                              (live_probs >= lo) & (live_probs <= hi), axis=1)
        for k, strategy in enumerate(strategies):
            if strategy.kind == "random":
                selected[k, q] = select_random(live_ids[k], batch, rngs[k])
            elif strategy.kind == "uncertainty":
                selected[k, q] = select_uncertainty(live_ids[k], live_probs[k], batch)
            else:
                selected[k, q] = select_shifted_normal(
                    live_ids[k], live_probs[k], batch, strategy, rngs[k])
        # batch before pool axis: .all over a short trailing axis is ~8x slower
        kept = (live_ids[:, None, :] != selected[:, q, :, None]).all(axis=1)
        live_ids = live_ids[kept].reshape(n_lanes, -1)
        # oracle reveal: the hidden true labels enter the loop here
        held = np.concatenate([held, selected[:, q]], axis=1)
        held_labels = labels[held]
        n_positive[:, q] = held_labels.sum(axis=1)
        model = fit(features[held], held_labels, config.glm)
        probs = predict_proba(model, test_features[None])
        aucs[:, q] = auc(probs, test_labels)
        f1s[:, q] = f1(probs, test_labels)

    traces = [None] * n_lanes
    if config.record_phi:
        # the trace lists the unlabeled pool's ids in ascending order
        pool_rows = np.sort(u_ids)
        finals = predict_proba(model, features[pool_rows][None])
        traces = [tuple(tuple(final[band].tolist())
                        for band in lane_band[:, pool_rows])
                  for final, lane_band in zip(finals, in_band)]
    return [RoundResult(seed=round_seed, selected_ids=selected[k],
                        n_positive=n_positive[k], auc=aucs[k], f1=f1s[k],
                        phi_trace=traces[k])
            for k in range(n_lanes)]


def worker_count(jobs: int, rounds: int) -> int:
    """Worker processes for ``rounds`` rounds at ``jobs``; 1 means sequential.

    More workers than rounds or cores would only idle, and the pool starts
    every worker at once, so ``jobs`` is an upper bound, not a request.
    Raises :class:`ConfigError` unless ``jobs`` is a positive integer.
    """
    require_positive_int("jobs", jobs)
    return min(jobs, rounds, os.cpu_count() or 1)


def run_rounds(config: SimulationConfig,
               jobs: int = 1) -> list[list[RoundResult]]:
    """All rounds of an experiment, one list per strategy, each in round
    order; the strategies run paired, one seed at a time, and the seeds
    optionally in parallel.

    Raises :class:`ConfigError` before any round runs unless ``jobs`` is a
    positive integer.  A failing round aborts the experiment with a
    :class:`SimulationError` naming the failing round's seed.

    The executor is this module's ``ProcessPoolExecutor`` attribute, looked
    up when the pool starts: it is imported on that first use, so a
    sequential run never loads the pool's modules, and a replacement set on
    the module is the executor that runs.
    """
    workers = worker_count(jobs, config.rounds)
    seeds = [config.base_seed + i for i in range(config.rounds)]
    named_round = functools.partial(_named_round, config)
    if workers > 1:
        # a failed round ends the map, whose iterator cancels queued rounds
        executor = getattr(sys.modules[__name__], "ProcessPoolExecutor")
        with executor(max_workers=workers) as pool:
            per_seed = list(pool.map(named_round, seeds))
    else:
        per_seed = list(map(named_round, seeds))
    return [list(lane) for lane in zip(*per_seed)]


def _named_round(config: SimulationConfig, seed: int) -> list[RoundResult]:
    try:
        return run_round(config, seed)
    except Exception as exc:
        raise SimulationError(f"round with seed {seed} failed: {exc}") from exc


def __getattr__(name: str):
    # PEP 562: the pool's modules load when run_rounds starts a pool
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def aggregate(config: SimulationConfig,
              results: list[RoundResult]) -> ExperimentSummary:
    """Merge one lane's completed rounds into per-query confidence
    intervals; ``results`` is one of :func:`run_rounds`' per-strategy lists.

    The one place that derives metrics from what rounds observed: a round's
    lambda is its mean AUC over the test pools, its zeta its held positives
    over the labeled-set size, and its eta the ``cost_efficiency`` of its
    lambda and zeta under ``config.cost``, undefined (counted in
    ``eta_missing``) at zeta = 0.  Order-insensitive: any permutation of
    ``results`` yields the same summary.  Raises :class:`ConfigError` unless
    there is one result per configured round, each with ``config.n_queries``
    rows.
    """
    if len(results) != config.rounds:
        raise ConfigError(f"aggregation needs one result per configured round: "
                          f"{config.rounds} configured, got {len(results)}")
    ordered = sorted(results, key=lambda r: r.seed)
    queries = tuple(range(1, config.n_queries + 1))
    labeled_sizes = tuple(config.dataset.labeled_size + q * config.batch_size
                          for q in queries)

    def per_query(name: str) -> np.ndarray:
        rows = [getattr(r, name) for r in ordered]
        if any(len(row) != config.n_queries for row in rows):
            raise ConfigError(f"a round's {name} does not have "
                              f"{config.n_queries} query rows")
        # row qi holds every round's samples for query qi, round-major
        return np.stack(rows, axis=1).reshape(config.n_queries, -1)

    def ci(samples: np.ndarray) -> CiSummary:
        return mean_ci(samples, config.confidence)

    n_positive, aucs, f1s = map(per_query, ("n_positive", "auc", "f1"))
    lam = aucs.reshape(config.n_queries, len(ordered), -1).mean(axis=2)
    zeta = n_positive / np.array(labeled_sizes)[:, None]
    defined_eta = [cost_efficiency(lam_row[defined], zeta_row[defined],
                                   config.cost)
                   for lam_row, zeta_row, defined in zip(lam, zeta, zeta > 0)]
    return ExperimentSummary(
        queries=queries, labeled_sizes=labeled_sizes,
        lam=tuple(map(ci, lam)), zeta=tuple(map(ci, zeta)),
        eta=tuple(ci(row) if len(row) >= 2 else None for row in defined_eta),
        auc=tuple(map(ci, aucs)), f1=tuple(map(ci, f1s)),
        eta_missing=tuple(len(ordered) - len(row) for row in defined_eta))
