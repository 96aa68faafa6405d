"""Active-learning loop orchestration and multi-round aggregation.

One round: generate and split a dataset, fit an initial model on the labeled
seed pool, then repeatedly (select a batch with a query strategy, reveal the
selected instances' true labels, move them to the labeled pool, refit, evaluate
on the held-out test pools).  Each fitted model scores every dataset row once,
for selection, evaluation and the phi trace.  A lane's unlabeled pool is the
array of its live row ids, in pool order.  True labels cross into the loop only
at the reveal step; selectors see ids and predicted probabilities, nothing
else.  A round records what it observed after each query: the ids it selected,
the positive labels it held, each test pool's AUC and F1 and, optionally, its
phi trace; it knows no labeling cost.

An experiment is one :class:`SimulationConfig`; its ``strategies`` are
compared paired, as lanes.  It runs many independent rounds (seeds
``base_seed + i``), and at each seed every strategy runs as one lane on
one dataset generated and split once.  The lanes step through the queries
in lock-step, since each holds the same number of labels at each query, so
each query makes one stacked prediction, one stacked Newton fit and one
stacked evaluation over all lanes (lane calls of ``predict_proba``,
``fit``, ``auc`` and ``f1``), while each lane selects with its own query
generator.  A process holds one seed's dataset and lanes at a time.  Seeds
share no state, so they can execute in parallel with results identical to
sequential execution; :func:`run_rounds` loads the process pool's 32
modules (about 2 MB and 25 ms of start-up) only when it starts a pool.  The
lane axis stays from the round to :func:`aggregate`, which derives lambda,
zeta and eta under the configured cost and summarises every metric of every
lane and query in Student-t confidence intervals.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from .datagen import (DatasetConfig, dataset_rng, generate_dataset,
                      query_rng, split_pools)
from .errors import (AlqsimError, ConfigError, reject_non_finite,
                     require_positive_int, require_seed)
from .glm import GlmHyperparams, fit, predict_proba
from .metrics import CiSummary, CostModel, auc, cost_efficiency, f1, mean_ci
from .strategies import (TARGET_RULES, QueryStrategy, match_targets,
                         select_random)


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
    """Everything one round observed, one row per lane and query.

    Row ``[k, q - 1]`` of each array belongs to lane k (``strategies[k]``)
    at query q and, for the metrics, to the model refitted after it.
    ``selected_ids`` is ``(L, n_queries, batch)`` in selection order.  The
    int64 ``n_positive``, the positive labels held after query q (seed rows
    included), is ``(L, n_queries)``; ``auc`` and ``f1`` are
    ``(L, n_queries, n_test_pools)``.  Array fields would make a
    generated ``==`` ambiguous, so results compare by identity; compare the
    arrays instead.

    ``phi_trace`` is set only when the round ran with phi recording
    enabled, one trace per lane: ``phi_trace[k][q-1]`` is a 1-D float64
    array of, in ascending id order, lane k's final model's probabilities
    of the ids still unlabeled at query q whose interim probability at
    query q lay within the config's ``phi_delta`` of 0.5.
    """

    seed: int
    selected_ids: np.ndarray
    n_positive: np.ndarray
    auc: np.ndarray
    f1: np.ndarray
    phi_trace: tuple[tuple[np.ndarray, ...], ...] | None = None


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Cross-round aggregates of every metric, lane and query.

    Each interval's bounds are ``(L, n_queries)`` arrays whose ``[k, q - 1]``
    is lane k at query q.  ``eta`` is NaN where fewer than two rounds held a
    positive label (eta is undefined at zeta = 0); the int64 ``eta_missing``
    counts the undefined samples.  Like results, summaries compare by identity.
    """

    queries: tuple[int, ...]
    labeled_sizes: tuple[int, ...]
    lam: CiSummary
    zeta: CiSummary
    eta: CiSummary
    auc: CiSummary
    f1: CiSummary
    eta_missing: np.ndarray


def run_round(config: SimulationConfig, round_seed: int) -> RoundResult:
    """One round of every strategy of ``config`` at ``round_seed``, in
    lock-step.

    Returns one :class:`RoundResult` whose lane k is a pure function of
    (config, ``strategies[k]``, seed), as if that lane had run alone: the
    lanes share the seed's dataset and split, and each draws its query
    randomness from its own ``query_rng(round_seed)``.  A kind is its target
    rule: per query, one :func:`match_targets` call picks for every lane
    whose kind has one, and each random lane samples its own picks.  With
    phi recording, each query marks, per lane and keyed by dataset row, which
    live rows' interim probabilities lay in the phi band; the trace reads the
    final prediction's entries of the marked rows.  Raises :class:`ConfigError`
    unless ``round_seed`` is an ``int`` in [-2**63, 2**63).
    """
    require_seed("round_seed", round_seed)
    data_seed = config.base_seed if config.shared_dataset else round_seed
    data_rng = dataset_rng(data_seed)
    features, labels = generate_dataset(config.dataset, data_rng)
    seed_ids, u_ids, test_ids = split_pools(
        (features, labels), config.dataset, data_rng)
    test_labels = labels[test_ids]

    strategies = config.strategies
    rngs = [query_rng(round_seed) for _ in strategies]
    n_lanes, n_queries, batch = len(strategies), config.n_queries, config.batch_size
    matched = [k for k, s in enumerate(strategies) if s.kind in TARGET_RULES]

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
    probs = predict_proba(model, features)
    for q in range(n_queries):
        live_probs = np.take_along_axis(probs, live_ids, axis=1)
        if config.record_phi:
            np.put_along_axis(in_band[:, q], live_ids,
                              (live_probs >= lo) & (live_probs <= hi), axis=1)
        for k in sorted(set(range(n_lanes)) - set(matched)):
            selected[k, q] = select_random(live_ids[k], batch, rngs[k])
        if matched:
            targets = [TARGET_RULES[strategies[k].kind](strategies[k], batch, rngs[k])
                       for k in matched]
            selected[matched, q] = match_targets(
                live_ids[matched], live_probs[matched], targets)
        # batch before pool axis: .all over a short trailing axis is ~8x slower
        kept = (live_ids[:, None, :] != selected[:, q, :, None]).all(axis=1)
        live_ids = live_ids[kept].reshape(n_lanes, -1)
        # oracle reveal: the hidden true labels enter the loop here
        held = np.concatenate([held, selected[:, q]], axis=1)
        held_labels = labels[held]
        n_positive[:, q] = held_labels.sum(axis=1)
        model = fit(features[held], held_labels, config.glm)
        probs = predict_proba(model, features)
        # C-contiguous (L, P, m); probs[:, test_ids] is strided, f1 ~3.7x slower
        test_probs = np.take(probs, test_ids, axis=1)
        aucs[:, q] = auc(test_probs, test_labels)
        f1s[:, q] = f1(test_probs, test_labels)

    # a band marks only live rows, so final[band] lists them by id
    traces = (tuple(tuple(final[band] for band in lane_band)
                    for final, lane_band in zip(probs, in_band))
              if config.record_phi else None)
    return RoundResult(seed=round_seed, selected_ids=selected,
                       n_positive=n_positive, auc=aucs, f1=f1s,
                       phi_trace=traces)


def worker_count(jobs: int, rounds: int) -> int:
    """Worker processes for ``rounds`` rounds at ``jobs``; 1 means sequential.

    More workers than rounds or cores would only idle, and the pool starts
    every worker at once, so ``jobs`` is an upper bound, not a request.
    Raises :class:`ConfigError` unless ``jobs`` is a positive integer.
    """
    require_positive_int("jobs", jobs)
    return min(jobs, rounds, os.cpu_count() or 1)


def run_rounds(config: SimulationConfig, jobs: int = 1) -> list[RoundResult]:
    """All rounds of an experiment, one :class:`RoundResult` per seed, in
    seed order; the strategies run paired as each round's lanes, and the
    seeds optionally in parallel.

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
            return list(pool.map(named_round, seeds))
    return list(map(named_round, seeds))


def _named_round(config: SimulationConfig, seed: int) -> RoundResult:
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
    """Summarise :func:`run_rounds`' results in confidence intervals per
    lane and query.

    The one place that derives metrics from what rounds observed: a round's
    lambda is its mean AUC over the test pools, its zeta its held positives
    over the labeled-set size, and its eta the ``cost_efficiency`` of its
    lambda and zeta under ``config.cost``, undefined (counted in
    ``eta_missing``) at zeta = 0.  Order-insensitive: any permutation of
    ``results`` yields the same summary.  Raises :class:`ConfigError` unless
    there is one result per configured round, seeded ``config.base_seed + i``
    as :func:`run_rounds` seeds round i, each with the array shapes
    :class:`RoundResult` lists for the config's lanes, queries, batch size
    and test pools.
    """
    if len(results) != config.rounds:
        raise ConfigError(f"aggregation needs one result per configured round: "
                          f"{config.rounds} configured, got {len(results)}")
    ordered = sorted(results, key=lambda r: r.seed)
    seeds = [r.seed for r in ordered]
    if seeds != list(range(config.base_seed, config.base_seed + config.rounds)):
        raise ConfigError(f"aggregation needs one round at each seed from "
                          f"{config.base_seed} to {config.base_seed + config.rounds - 1}, "
                          f"got seeds {seeds}")
    shape = (len(config.strategies), config.n_queries)
    pools = (*shape, config.dataset.n_test_pools)
    expected = {"selected_ids": (*shape, config.batch_size), "n_positive": shape,
                "auc": pools, "f1": pools}
    for r in ordered:
        shapes = {name: getattr(r, name).shape for name in expected}
        if shapes != expected:
            raise ConfigError(f"round {r.seed}'s shapes are {shapes}, not {expected} "
                              f"for the (L, Q) = {shape} query rows")
    queries = tuple(range(1, config.n_queries + 1))
    labeled_sizes = tuple(config.dataset.labeled_size + q * config.batch_size
                          for q in queries)
    ci = functools.partial(mean_ci, confidence=config.confidence)
    # [k, q, i]: lane k's samples at query q in round i of seed order
    n_positive, aucs, f1s = (np.stack([getattr(r, name) for r in ordered], axis=2)
                             for name in ("n_positive", "auc", "f1"))
    lam = aucs.mean(axis=3)
    zeta = n_positive / np.array(labeled_sizes)[:, None]
    # eta's (lane, query) rows, grouped by their count n of defined samples:
    # one (rows, n) call per group, each row bit for bit its own 1-D call
    defined = zeta > 0
    counts = defined.sum(axis=2)
    eta = np.full((3, *shape), np.nan)
    for n in set(counts.ravel().tolist()) - {0, 1}:
        rows = counts == n
        kept = defined & rows[..., None]
        samples = cost_efficiency(lam[kept], zeta[kept], config.cost)
        eta[:, rows] = astuple(ci(samples.reshape(-1, n)))
    # AUC and F1 pool every round's per-test-pool samples, round-major
    return ExperimentSummary(
        queries=queries, labeled_sizes=labeled_sizes,
        lam=ci(lam), zeta=ci(zeta), eta=CiSummary(*eta),
        auc=ci(aucs.reshape(*shape, -1)), f1=ci(f1s.reshape(*shape, -1)),
        eta_missing=(zeta == 0).sum(axis=2))
