import concurrent.futures
import dataclasses
import json
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alqsim.simulation as simulation_module
from alqsim import (CiSummary, ConfigError, CostModel, DatasetConfig,
                    GlmHyperparams, QueryStrategy, RoundResult, SimulationConfig,
                    SimulationError, aggregate, cost_efficiency, dataset_rng,
                    fit, mean_ci, predict_proba, run_round, run_rounds,
                    select_uncertainty, split_pools)
from alqsim.datagen import generate_dataset
from alqsim.simulation import worker_count
from alqsim.strategies import match_targets

PROPERTY = settings(deadline=None, derandomize=True, database=None)
BOUNDS = ("mean", "lower", "upper")


def config_for(*kinds, cs=0.5, rounds=3, seed=0, **overrides):
    """A small experiment whose lanes are the strategy ``kinds``; one random
    lane if none is given."""
    smaller = dict(labeled_size=10, unlabeled_size=200, n_test_pools=3,
                   test_pool_size=150)
    return SimulationConfig(
        dataset=DatasetConfig(class_sep=cs, **smaller),
        strategies=tuple(QueryStrategy(kind) for kind in kinds or ("random",)),
        n_queries=overrides.pop("n_queries", 10),
        rounds=rounds, base_seed=seed, **overrides)


def one_lane(config, strategy):
    """``config`` with ``strategy`` as its only lane."""
    return dataclasses.replace(config, strategies=(strategy,))


def split_for(config, seed):
    """The ``(features, labels)`` dataset a round with this data seed sees,
    and its (labeled, unlabeled, tests) row-id split."""
    data_rng = dataset_rng(seed)
    dataset = generate_dataset(config.dataset, data_rng)
    return dataset, split_pools(dataset, config.dataset, data_rng)


def lane(result, k):
    """Lane ``k`` of ``result`` as a one-lane result."""
    return RoundResult(
        seed=result.seed, selected_ids=result.selected_ids[k:k + 1],
        n_positive=result.n_positive[k:k + 1], auc=result.auc[k:k + 1],
        f1=result.f1[k:k + 1],
        phi_trace=None if result.phi_trace is None else result.phi_trace[k:k + 1])


def summary_bytes(summary, lanes=slice(None)):
    """Every field of ``summary``, its arrays cut to ``lanes`` and read as
    raw bytes: NaN matches NaN, and -0.0 does not match 0.0."""
    fields = {"queries": summary.queries, "labeled_sizes": summary.labeled_sizes,
              "eta_missing": summary.eta_missing[lanes].tobytes()}
    for name in ("lam", "zeta", "eta", "auc", "f1"):
        for bound in BOUNDS:
            fields[name, bound] = getattr(getattr(summary, name), bound)[lanes].tobytes()
    return fields


def interval(ci, k, q):
    """Lane ``k``'s entry at query index ``q`` of an interval of arrays."""
    return CiSummary(*(float(getattr(ci, bound)[k, q]) for bound in BOUNDS))


def phi_rows(trace):
    """One lane's phi ``trace`` as lists of floats, after checking that each
    row is a 1-D float64 array."""
    for row in trace:
        assert isinstance(row, np.ndarray)
        assert row.dtype == np.float64 and row.ndim == 1
    return [row.tolist() for row in trace]


def assert_same_round(first, second):
    """Field-by-field equality; array fields compare with NaN equal to NaN,
    and phi traces compare row by row as exact lists of floats."""
    for field in dataclasses.fields(RoundResult):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        elif field.name == "phi_trace" and a is not None:
            assert len(a) == len(b)
            assert list(map(phi_rows, a)) == list(map(phi_rows, b))
        else:
            assert a == b, field.name


def assert_matches_seed_round(result, seed_result, k=0):
    """Lane ``k`` of ``result`` observed what the seed package's round did:
    the same ids selected, positives held, per-pool AUC and F1, lambda and
    phi trace."""
    snapshots = seed_result.snapshots
    assert result.selected_ids[k].tolist() == [list(s.selected_ids)
                                               for s in snapshots]
    assert result.n_positive[k].tolist() == [
        round(s.metrics.zeta * s.labeled_size) for s in snapshots]
    assert result.auc[k].tolist() == [list(s.metrics.auc_per_test)
                                      for s in snapshots]
    assert result.f1[k].tolist() == [list(s.metrics.f1_per_test)
                                     for s in snapshots]
    assert result.auc[k].mean(axis=1).tolist() == [s.metrics.lam
                                                   for s in snapshots]
    assert phi_rows(result.phi_trace[k]) == list(map(list, seed_result.phi_trace))


def hand_built_round(seed, n_positive, lam=None, lanes=1, batch=2, pools=3):
    """A RoundResult of ``lanes`` equal lanes of ``batch`` ids per query and
    ``pools`` test pools, with the given per-query held positives, AUC rows
    whose mean is lambda (arbitrary if not given; exact for dyadic values),
    and arbitrary other metrics."""
    n_positive = np.tile(np.asarray(n_positive, dtype=np.int64), (lanes, 1))
    rng = np.random.default_rng(seed)
    n = n_positive.shape[1]
    auc = (rng.random((n, pools)) if lam is None
           else np.repeat(np.asarray(lam, dtype=np.float64)[:, None], pools, axis=1))
    return RoundResult(seed=seed,
                       selected_ids=np.zeros((lanes, n, batch), dtype=np.int64),
                       n_positive=n_positive, auc=np.tile(auc, (lanes, 1, 1)),
                       f1=np.tile(rng.random((n, pools)), (lanes, 1, 1)))


class TestConfigValidation:
    def test_budget_must_fit_unlabeled_pool(self):
        with pytest.raises(ConfigError, match="exceeds"):
            SimulationConfig(dataset=DatasetConfig(),
                             strategies=(QueryStrategy(kind="random"),),
                             n_queries=600, batch_size=2)

    def test_default_budget_is_valid(self):
        config = SimulationConfig(dataset=DatasetConfig(),
                                  strategies=(QueryStrategy(kind="random"),))
        assert config.n_queries * config.batch_size <= config.dataset.unlabeled_size

    # fixed ids: a case keeps its name when another case is removed
    @pytest.mark.parametrize("bad", [dict(n_queries=0), dict(batch_size=0),
                                     dict(rounds=0), dict(rounds=1),
                                     dict(rounds=2.0),
                                     dict(n_queries=True, batch_size=True)],
                             ids=[f"bad{i}" for i in (0, 1, 2, 7, 8, 9)])
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimulationConfig(dataset=DatasetConfig(),
                             strategies=(QueryStrategy(kind="random"),), **bad)


    @pytest.mark.parametrize("seed, rounds", [
        (5.5, 2), ("5", 2), (True, 2), (2**64 + 5, 2), (2**63, 2),
        (-2**63 - 1, 2), (2**63 - 2, 3)])
    def test_bad_base_seed_rejected(self, seed, rounds):
        """Only an int with every round seed in [-2**63, 2**63) passes:
        a float or str failed only in round 0, True ran as seed 1, and
        seeds beyond 64 bits folded onto another seed's data."""
        with pytest.raises(ConfigError, match="base_seed"):
            config_for(seed=seed, rounds=rounds)

    @pytest.mark.parametrize("config_type, fields, name", [
        (QueryStrategy, dict(kind="random", concentration=10**400),
         "concentration"),
        (CostModel, dict(C=10**400), "C"),
        (DatasetConfig, dict(class_sep=True), "class_sep"),
        (DatasetConfig, dict(flip_y=False), "flip_y"),
        (CostModel, dict(C=True), "C"),
        (GlmHyperparams, dict(l2_penalty=True), "l2_penalty"),
        (SimulationConfig, dict(dataset=DatasetConfig(),
                                strategies=(QueryStrategy("random"),),
                                shared_dataset="no"), "shared_dataset"),
        (SimulationConfig, dict(dataset=DatasetConfig(),
                                strategies=(QueryStrategy("random"),),
                                cost="x"), "cost"),
        (SimulationConfig, dict(dataset=DatasetConfig(),
                                strategies=(QueryStrategy("random"),),
                                glm=None), "glm"),
        (SimulationConfig, dict(dataset=None,
                                strategies=(QueryStrategy("random"),)),
         "dataset"),
    ], ids=["concentration-10**400", "C-10**400", "class_sep-True",
            "flip_y-False", "C-True", "l2_penalty-True", "shared_dataset-no",
            "cost-x", "glm-None", "dataset-None"])
    def test_fields_must_fit_their_annotation(self, config_type, fields, name):
        """A float field takes a real number, not a bool, that converts to
        a finite float, a bool field takes a bool, and a nested config field
        takes its config class: an int too large for a float raised
        OverflowError or failed only in ``aggregate``, True and False passed
        the range checks and were echoed into summary.json as booleans, "no"
        ran the shared dataset, ``cost="x"`` ran every round and failed only
        in ``aggregate``, ``glm=None`` failed in round 0, and
        ``dataset=None`` raised AttributeError from the budget check."""
        with pytest.raises(ConfigError, match=f"{config_type.__name__}.{name} "):
            config_type(**fields)

    @pytest.mark.parametrize("config_type, name", [
        (SimulationConfig, "confidence"), (SimulationConfig, "phi_delta"),
        (GlmHyperparams, "gradient_tolerance")])
    def test_fixed_fields_cannot_be_set(self, config_type, name):
        required = (dict(dataset=DatasetConfig(),
                         strategies=(QueryStrategy("random"),))
                    if config_type is SimulationConfig else {})
        with pytest.raises(TypeError, match=name):
            config_type(**required, **{name: 0.1})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(config_type(**required), **{name: 0.1})

    def test_asdict_keeps_each_key_in_its_echo_position(self):
        """summary.json's config echo is ``dataclasses.asdict`` in
        declaration order, fixed fields included."""
        config = config_for()
        assert list(dataclasses.asdict(config)) == [
            "dataset", "strategies", "n_queries", "batch_size", "cost", "glm",
            "rounds", "base_seed", "confidence", "shared_dataset",
            "record_phi", "phi_delta"]
        assert list(dataclasses.asdict(config.glm)) == [
            "l2_penalty", "max_iterations", "gradient_tolerance"]
        assert (config.confidence, config.phi_delta,
                config.glm.gradient_tolerance) == (0.99, 0.05, 1e-8)

    def test_ints_and_numpy_floats_fit_float_fields(self):
        assert DatasetConfig(class_sep=np.float32(0.5)).class_sep == 0.5
        assert CostModel(C=3).C == 3
        assert GlmHyperparams(l2_penalty=np.int64(2)).l2_penalty == 2

    def test_base_seed_range_is_inclusive(self):
        for seed in (-2**63, 2**63 - 3):
            assert config_for(seed=seed, rounds=3).base_seed == seed


class TestRunRound:
    @pytest.mark.parametrize("seed", [5.5, "5", True, 2**64 + 5, 2**63, -2**63 - 1])
    def test_bad_round_seed_rejected(self, seed):
        """``run_round`` checks its seed by the rule ``base_seed`` follows:
        True ran as seed 1, and 2**64 + 5 ran seed 5's data under its own
        label."""
        with pytest.raises(ConfigError, match="round_seed"):
            run_round(config_for(), seed)

    def test_pool_sizes_with_paper_defaults(self):
        config = SimulationConfig(dataset=DatasetConfig(class_sep=0.5),
                                  strategies=(QueryStrategy(kind="random"),))
        result = run_round(config, 0)
        assert result.selected_ids.shape == (1, 20, 2)
        assert len(set(result.selected_ids.ravel().tolist())) == 40
        assert result.n_positive.shape == (1, 20)
        assert result.n_positive.dtype == np.int64
        assert result.auc.shape == result.f1.shape == (1, 20, 3)
        # the final labeled pool is the 10 seed rows plus the 40 queried rows
        (_, labels), (seed_ids, _, _) = split_for(config, 0)
        held = np.concatenate([seed_ids, result.selected_ids.ravel()])
        assert result.n_positive[0, -1] == labels[held].sum()

    def test_labeled_size_grows_by_batch(self, monkeypatch):
        sizes = []

        def recording_fit(features, labels, hyper):
            sizes.extend(len(lane) for lane in labels)
            return fit(features, labels, hyper)

        monkeypatch.setattr(simulation_module, "fit", recording_fit)
        config = config_for("uncertainty", rounds=2)
        summary = aggregate(config, run_rounds(config))
        per_round = [10 + 2 * q for q in range(0, 11)]
        assert sizes == per_round * 2
        assert summary.labeled_sizes == tuple(per_round[1:])

    @pytest.mark.parametrize("record_phi", [False, True], ids=["no-phi", "phi"])
    def test_one_prediction_per_fitted_model(self, monkeypatch, record_phi):
        """Each fit is followed by one prediction of every dataset row, and
        nothing else predicts: n_queries + 1 calls on the round's full
        ``(N, d)`` features, with phi recording or without."""
        scored = []

        def recording_predict(model, features):
            scored.append(features)
            return predict_proba(model, features)

        monkeypatch.setattr(simulation_module, "predict_proba", recording_predict)
        config = config_for("random", "uncertainty", "shifted-normal",
                            n_queries=4, record_phi=record_phi)
        run_round(config, 3)
        (features, _), _ = split_for(config, 3)
        assert len(scored) == config.n_queries + 1
        for rows in scored:
            assert rows.shape == features.shape
            assert rows.tobytes() == features.tobytes()

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_pool_conservation(self, kind):
        """Selected ids come from the unlabeled pool, never repeat, and never
        touch the seed pool or the test pools."""
        config = config_for(kind)
        result = run_round(config, 5)
        _, (labeled, unlabeled, tests) = split_for(config, 5)

        selected = result.selected_ids.ravel().tolist()
        assert len(selected) == len(set(selected))
        assert set(selected) <= set(unlabeled.tolist())
        assert not set(selected) & set(labeled.tolist())
        for t in tests:
            assert not set(selected) & set(t.tolist())

    def test_budget_equal_to_pool_queries_every_unlabeled_row(self):
        """100 queries x batch 2 empty the 200-row unlabeled pool: each
        lane queries every unlabeled row exactly once."""
        config = config_for("random", "uncertainty", "shifted-normal",
                            n_queries=100)
        _, (_, unlabeled, _) = split_for(config, 2)
        assert config.n_queries * config.batch_size == len(unlabeled)
        for selected in run_round(config, 2).selected_ids:
            assert sorted(selected.ravel().tolist()) == sorted(
                unlabeled.tolist())

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_bit_identical_reruns(self, kind):
        config = config_for(kind)
        assert_same_round(run_round(config, 3), run_round(config, 3))

    def test_selection_driven_by_interim_probabilities_only(self):
        """The q=1 uncertainty batch is reproducible from the initial model
        and the unlabeled features alone (no access to hidden labels)."""
        config = config_for("uncertainty")
        result = run_round(config, 9)
        (features, labels), (labeled, unlabeled, _) = split_for(config, 9)
        model = fit(features[labeled][None], labels[labeled][None], config.glm)
        probs = predict_proba(model, features[unlabeled])[0]
        assert result.selected_ids[0, 0].tolist() == select_uncertainty(
            unlabeled, probs, config.batch_size)

    def test_easy_separation_reaches_high_auc(self):
        config = config_for("random", cs=10.0)
        result = run_round(config, 0)
        assert result.auc[0].mean(axis=1)[-1] > 0.95

    def test_strategies_paired_on_one_dataset(self, seed_round):
        """Same round seed: all strategies select from the unlabeled pool of
        the split that dataset_rng draws for that seed, and each lane
        observes what the seed package's round at that seed did."""
        config = config_for("random", "uncertainty", "shifted-normal",
                            rounds=2, record_phi=True)
        _, (_, unlabeled, _) = split_for(config, 7)
        result = run_round(config, 7)
        assert set(result.selected_ids.ravel().tolist()) <= set(unlabeled.tolist())
        for k, strategy in enumerate(config.strategies):
            assert_matches_seed_round(
                result, seed_round(one_lane(config, strategy), 7), k)

    def test_eta_is_nan_when_zeta_is_zero(self, monkeypatch):
        """With no positive label held, efficiency is undefined: every eta
        sample is counted missing while lambda is still measured."""
        def negatives_only_split(dataset, dataset_config, rng):
            labeled, unlabeled, tests = split_pools(dataset, dataset_config, rng)
            labels = dataset[1]
            return (labeled[labels[labeled] == 0],
                    unlabeled[labels[unlabeled] == 0], tests)

        monkeypatch.setattr(simulation_module, "split_pools",
                            negatives_only_split)
        config = config_for(rounds=2)
        results = [run_round(config, seed) for seed in range(2)]
        for result in results:
            assert result.n_positive.tolist() == [[0] * config.n_queries]
            assert (result.auc.mean(axis=2) > 0.0).all()
        summary = aggregate(config, results)
        for bound in BOUNDS:
            assert np.isnan(getattr(summary.eta, bound)).all()
        assert summary.eta_missing.tolist() == [[2] * config.n_queries]
        assert (summary.lam.mean > 0.0).all()


class TestLockStepLanes:
    def test_each_lane_equals_its_round_run_alone(self):
        """Pairing strategies on a seed changes no lane's result, phi
        included."""
        config = config_for("shifted-normal", "random", "uncertainty",
                            record_phi=True)
        config = dataclasses.replace(config, strategies=(
            *config.strategies, QueryStrategy("shifted-normal", mode=0.3)))
        for seed in (4, 5):
            paired = run_round(config, seed)
            assert len(paired.selected_ids) == len(paired.phi_trace) == 4
            for k, strategy in enumerate(config.strategies):
                assert_same_round(lane(paired, k),
                                  run_round(one_lane(config, strategy), seed))

    @pytest.mark.parametrize("config", [
        dataclasses.replace(
            config_for("shifted-normal", "random", "uncertainty", record_phi=True),
            strategies=(QueryStrategy("shifted-normal"), QueryStrategy("random"),
                        QueryStrategy("uncertainty"),
                        QueryStrategy("shifted-normal", mode=0.3))),
        # round seed 580 holds no positive after query 1 in its uncertainty
        # and shifted-normal lanes, so their first eta is NaN
        SimulationConfig(dataset=DatasetConfig(),
                         strategies=tuple(map(QueryStrategy, ("random", "uncertainty",
                                                              "shifted-normal"))),
                         n_queries=3, rounds=2, base_seed=580, cost=CostModel(C=3.0)),
    ], ids=["four-lanes", "undefined-eta"])
    def test_each_lane_summarises_as_if_run_alone(self, config):
        """Lane k of the paired summary equals, bit for bit, the summary of
        a one-lane experiment of ``strategies[k]``: every bound, eta's NaN
        pattern and ``eta_missing``."""
        paired = aggregate(config, run_rounds(config))
        assert paired.eta_missing.shape == (len(config.strategies),
                                            config.n_queries)
        for k, strategy in enumerate(config.strategies):
            alone = one_lane(config, strategy)
            assert (summary_bytes(paired, k)
                    == summary_bytes(aggregate(alone, run_rounds(alone)), 0))

    @pytest.mark.parametrize("kinds, matched", [
        (("random", "uncertainty", "shifted-normal", "shifted-normal"), 3),
        (("random", "random"), 0),
    ], ids=["four-lanes", "random-only"])
    def test_one_matcher_call_per_query_for_the_model_driven_lanes(
            self, monkeypatch, kinds, matched):
        """Every lane whose kind is a target rule is picked by one stacked
        ``match_targets`` call per query; a round of random lanes makes no
        call."""
        calls = []

        def counting(ids, probs, targets):
            calls.append((ids.shape, np.shape(targets)))
            return match_targets(ids, probs, targets)

        monkeypatch.setattr(simulation_module, "match_targets", counting)
        strategies = tuple(QueryStrategy(kind) for kind in kinds[:-1])
        strategies += (QueryStrategy(kinds[-1], mode=0.3),)
        config = dataclasses.replace(config_for(n_queries=4), strategies=strategies)
        run_round(config, 6)
        assert len(calls) == (config.n_queries if matched else 0)
        live = config.dataset.unlabeled_size - np.arange(4) * config.batch_size
        assert calls == [((matched, n), (matched, config.batch_size))
                         for n in live[:len(calls)]]

    @pytest.mark.parametrize("strategies", [
        (), [QueryStrategy("random")], (QueryStrategy("random"), "random"),
    ], ids=["empty", "list", "non-strategy-member"])
    def test_bad_strategies_rejected(self, monkeypatch, strategies):
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(simulation_module, "run_round", explode)
        with pytest.raises(ConfigError, match="strategies"):
            run_rounds(SimulationConfig(dataset=DatasetConfig(),
                                        strategies=strategies))


class TestPhiDiagnostics:
    def test_trace_matches_brute_force(self, seed_round):
        """Each query's trace is the brute-force filter of the seed
        package's interim and final probability maps for that round."""
        config = config_for("shifted-normal", record_phi=True, rounds=3)
        lo, hi = 0.5 - config.phi_delta, 0.5 + config.phi_delta
        for result in run_rounds(config):
            reference = seed_round(config, result.seed)
            (phi_trace,) = result.phi_trace
            assert len(phi_trace) == config.n_queries
            for interim, trace in zip(reference.interim_probs, phi_trace):
                expected = [reference.final_probs[i] for i in sorted(interim)
                            if lo <= interim[i] <= hi]
                assert list(trace) == expected

    def test_disabled_by_default(self):
        result = run_round(config_for(), 0)
        assert result.phi_trace is None


class TestRunExperiment:
    def test_two_round_mean_is_exact_average(self):
        """lambda is each round's mean AUC over the test pools."""
        config = config_for("random", rounds=2)
        summary = aggregate(config, run_rounds(config))
        rounds = run_rounds(config)
        for qi in range(config.n_queries):
            values = [r.auc[0].mean(axis=1)[qi] for r in rounds]
            assert summary.lam.mean[0, qi] == pytest.approx(np.mean(values), abs=1e-15)
            assert interval(summary.lam, 0, qi) == mean_ci(np.array(values),
                                                           config.confidence)

    def test_aggregate_is_order_insensitive(self):
        config = config_for("shifted-normal", rounds=4)
        results = run_rounds(config)
        forward = aggregate(config, results)
        backward = aggregate(config, list(reversed(results)))
        assert summary_bytes(forward) == summary_bytes(backward)

    @PROPERTY
    @given(st.data())
    def test_aggregate_is_invariant_to_any_round_permutation(self, data):
        n_rounds = data.draw(st.integers(2, 6), label="rounds")
        # at most the 12 labels held after query 1; 0 leaves eta undefined
        n_positive = st.lists(st.integers(0, 12), min_size=3, max_size=3)
        results = [hand_built_round(seed, data.draw(n_positive))
                   for seed in range(n_rounds)]
        shuffled = data.draw(st.permutations(results), label="order")
        config = config_for(n_queries=3, rounds=n_rounds)
        assert (summary_bytes(aggregate(config, shuffled))
                == summary_bytes(aggregate(config, results)))

    def test_undefined_eta_counted_missing(self):
        """Samples with no positive label held (zeta 0) have no eta: they
        are left out of the interval and counted, while lambda is still
        summarised; a query with fewer than two defined samples has no eta
        interval."""
        # labeled sizes 12, 14, 16, 18; each defined eta is exact:
        # 1.0 / (7 / 14) = 2, 0.75 / (4 / 16) = 3, 0.625 / (2 / 16) = 5,
        # 0.5 / (9 / 18) = 1, 1.0 / (9 / 18) = 2, 1.0 / (3 / 18) = 6
        results = [hand_built_round(0, [0, 0, 0, 9], [0.9, 0.9, 0.9, 0.5]),
                   hand_built_round(1, [0, 7, 4, 9], [0.9, 1.0, 0.75, 1.0]),
                   hand_built_round(2, [0, 0, 2, 3], [0.9, 0.9, 0.625, 1.0])]
        summary = aggregate(config_for(n_queries=4, rounds=3), results)
        assert summary.eta_missing.tolist() == [[3, 2, 1, 0]]
        for bound in BOUNDS:
            assert np.isnan(getattr(summary.eta, bound)[0, :2]).all()
        # the defined samples, in aggregate's order: by seed, round-major
        assert interval(summary.eta, 0, 2) == mean_ci([3.0, 5.0])
        assert interval(summary.eta, 0, 3) == mean_ci([1.0, 2.0, 6.0])
        assert interval(summary.lam, 0, 0) == mean_ci([0.9, 0.9, 0.9])

    def test_eta_rows_group_by_defined_sample_count(self, monkeypatch):
        """eta's rows hold 0, 1, 2, all 4, 2 and 3 defined samples in one
        experiment: each row of two or more is, bit for bit, its own 1-D
        interval of its defined samples, the others stay NaN, and one
        ``mean_ci`` call summarises each sample count."""
        # labeled sizes 12, 14, ..., 22; rows are rounds, columns queries
        held = [[0, 0, 3, 5, 0, 4],
                [0, 5, 0, 2, 6, 0],
                [0, 0, 7, 6, 0, 9],
                [0, 0, 0, 1, 8, 2]]
        results = [hand_built_round(seed, row) for seed, row in enumerate(held)]
        config = config_for(n_queries=6, rounds=4, cost=CostModel(C=3.0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mean_ci(*args, **kwargs)

        monkeypatch.setattr(simulation_module, "mean_ci", counted)
        summary = aggregate(config, results)
        # lambda, zeta, AUC and F1, then eta's sample counts 2, 3 and 4
        assert len(calls) == 4 + 3
        assert summary.eta_missing.tolist() == [[4, 3, 2, 0, 2, 1]]
        for qi, size in enumerate(summary.labeled_sizes):
            rows = [r for r in results if r.n_positive[0, qi] > 0]
            if len(rows) < 2:
                for bound in BOUNDS:
                    assert np.isnan(getattr(summary.eta, bound)[0, qi])
                continue
            lam = np.array([r.auc[0].mean(axis=1)[qi] for r in rows])
            zeta = np.array([r.n_positive[0, qi] for r in rows]) / size
            expected = mean_ci(cost_efficiency(lam, zeta, config.cost),
                               config.confidence)
            got = dataclasses.astuple(interval(summary.eta, 0, qi))
            assert (np.array(got).tobytes()
                    == np.array(dataclasses.astuple(expected)).tobytes())

    @pytest.mark.parametrize("jobs,rounds,cores,expected", [
        (1, 40, 2, 1), (2, 40, 2, 2), (3, 40, 2, 2), (10**9, 40, 2, 2),
        (8, 3, 16, 3), (8, 40, 16, 8), (4, 40, None, 1),
    ])
    def test_worker_count_is_capped_by_rounds_and_cores(
            self, monkeypatch, jobs, rounds, cores, expected):
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: cores)
        assert worker_count(jobs, rounds) == expected

    @pytest.mark.parametrize("jobs", [0, -3, 2.0, "2", None, True])
    def test_worker_count_rejects_non_positive_or_non_integer(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            worker_count(jobs, 40)

    def test_bad_jobs_rejected_before_any_round(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(simulation_module, "run_round", explode)
        with pytest.raises(ConfigError, match="jobs"):
            run_rounds(config_for(rounds=2), jobs=0)

    def test_parallel_equals_sequential(self):
        config = config_for("uncertainty", rounds=4)
        assert (summary_bytes(aggregate(config, run_rounds(config, jobs=2)))
                == summary_bytes(aggregate(config, run_rounds(config, jobs=1))))
        # every round, phi trace included, crosses the pool unchanged
        config = config_for("random", "uncertainty", "shifted-normal",
                            rounds=4, record_phi=True)
        parallel, sequential = (run_rounds(config, jobs=jobs) for jobs in (2, 1))
        assert len(parallel) == len(sequential) == 4
        for first, second in zip(parallel, sequential):
            assert len(first.phi_trace) == 3
            assert_same_round(first, second)

    def test_shared_dataset_mode_reuses_split(self, seed_round):
        config = config_for("random", rounds=3, shared_dataset=True,
                            record_phi=True)
        results = run_rounds(config)
        _, (_, unlabeled, _) = split_for(config, config.base_seed)
        for result in results:
            assert set(result.selected_ids.ravel().tolist()) <= set(
                unlabeled.tolist())
            assert_matches_seed_round(result, seed_round(config, result.seed))
        # query randomness still differs round to round
        assert not np.array_equal(results[0].selected_ids[0, 0],
                                  results[1].selected_ids[0, 0])

    def test_fresh_dataset_mode_differs_per_round(self, seed_round):
        config = config_for("random", rounds=2, record_phi=True)
        results = run_rounds(config)
        pools = [set(split_for(config, result.seed)[1][1].tolist())
                 for result in results]
        for result, unlabeled in zip(results, pools):
            assert set(result.selected_ids.ravel().tolist()) <= unlabeled
            assert_matches_seed_round(result, seed_round(config, result.seed))
        # round 1 did not select from round 0's pool
        assert not set(results[1].selected_ids.ravel().tolist()) <= pools[0]

    def test_results_must_match_the_configured_rounds(self):
        """Rounds short of or beyond the configuration are rejected, not
        summarised under its round count."""
        results = [hand_built_round(seed, [1, 2, 3]) for seed in range(2)]
        with pytest.raises(ConfigError, match="5 configured, got 2"):
            aggregate(config_for(n_queries=3, rounds=5), results)
        with pytest.raises(ConfigError, match="2 configured, got 3"):
            aggregate(config_for(n_queries=3, rounds=2),
                      [*results, hand_built_round(2, [1, 2, 3])])

    @pytest.mark.parametrize("seeds", [[0, 0], [100, 101]],
                             ids=["duplicated", "foreign"])
    def test_results_must_carry_the_configured_seeds(self, seeds):
        """A repeated round, or rounds run under another base seed, are
        rejected, not summarised as the configured rounds."""
        results = [hand_built_round(seed, [1, 2, 3]) for seed in seeds]
        with pytest.raises(ConfigError, match="each seed from 0 to 1"):
            aggregate(config_for(n_queries=3, rounds=2), results)

    @pytest.mark.parametrize("round_shape,config", [
        (dict(batch=2), config_for(n_queries=3, rounds=2, batch_size=3)),
        (dict(pools=2), config_for(n_queries=3, rounds=2)),
    ], ids=["batch-2-under-batch-3", "2-pools-under-3"])
    def test_results_must_match_the_configured_batch_and_pools(self, round_shape,
                                                               config):
        """Rounds of another batch size or test-pool count are rejected, not
        summarised under the configured labeled sizes or pools."""
        results = [hand_built_round(seed, [1, 2, 3], **round_shape)
                   for seed in (0, 1)]
        with pytest.raises(ConfigError, match=r"\(L, Q\) = \(1, 3\) query rows"):
            aggregate(config, results)

    # each case's (lanes, queries) of round 0, then of round 1
    @pytest.mark.parametrize("shapes", [[(1, 8), (1, 4)], [(1, 8), (1, 8)],
                                        [(1, 4), (2, 4)], [(2, 4), (2, 4)]],
                             ids=["4", "8", "lanes-2", "all-lanes-2"])
    def test_results_must_match_the_configured_queries(self, shapes):
        """A round with more or fewer lanes or query rows than the
        configuration is rejected, not reshaped into other lanes' or
        queries' samples."""
        results = [hand_built_round(seed, [1] * n_queries, lanes=lanes)
                   for seed, (lanes, n_queries) in enumerate(shapes)]
        with pytest.raises(ConfigError, match=r"\(L, Q\) = \(1, 4\) query rows"):
            aggregate(config_for(n_queries=4, rounds=2), results)

    def test_rounds_do_not_depend_on_cost(self):
        """One run serves any C: everything but eta is unchanged, and each eta
        sample is exactly its C = 1 value / C.  The interval's mean and
        bounds are sums over those samples, so they scale by 1 / C only to
        within rounding."""
        config = config_for("shifted-normal", rounds=4)
        results = run_rounds(config)
        unit = aggregate(config, results)
        triple = aggregate(dataclasses.replace(config, cost=CostModel(C=3.0)),
                           results)
        triple_bytes = summary_bytes(triple)
        for key, value in summary_bytes(unit).items():
            if key not in {("eta", bound) for bound in BOUNDS}:
                assert value == triple_bytes[key], key
        for qi, size in enumerate(triple.labeled_sizes):
            held = [r for r in results if r.n_positive[0, qi] > 0]
            lam = np.array([r.auc[0].mean(axis=1)[qi] for r in held])
            zeta = np.array([r.n_positive[0, qi] for r in held]) / size
            samples = cost_efficiency(lam, zeta, CostModel(C=3.0))
            np.testing.assert_array_equal(
                samples, cost_efficiency(lam, zeta, CostModel()) / 3.0)
            assert interval(triple.eta, 0, qi) == mean_ci(samples, config.confidence)
        for bound in BOUNDS:
            np.testing.assert_allclose(getattr(triple.eta, bound),
                                       getattr(unit.eta, bound) / 3.0,
                                       rtol=1e-12, atol=0.0)

    def test_single_round_cannot_form_intervals(self):
        with pytest.raises(ConfigError, match="rounds >= 2"):
            config_for(rounds=1)
        with pytest.raises(ConfigError, match="2 configured, got 1"):
            aggregate(config_for(n_queries=3, rounds=2),
                      [hand_built_round(0, [1.0, 1.0, 1.0])])

    def test_failing_round_reports_seed(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(simulation_module, "fit", explode)
        with pytest.raises(SimulationError, match="seed 11"):
            run_rounds(config_for(seed=11, rounds=2))

    def test_failing_round_cancels_queued_rounds(self, monkeypatch):
        """With a pool, the first failing round ends the experiment: the
        rounds still queued behind it never run."""
        ran = []

        def counting_round(config, seed):
            ran.append(seed)
            if seed == 11:
                raise ValueError("synthetic failure")
            time.sleep(0.2)
            return None

        # threads stand in for worker processes: same executor API, and the
        # patched round stays visible to them
        monkeypatch.setattr(simulation_module, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulation_module, "run_round", counting_round)
        with pytest.raises(SimulationError, match="seed 11"):
            run_rounds(config_for(seed=11, rounds=40), jobs=2)
        assert len(ran) < 10

    def test_pool_executor_is_the_standard_one(self):
        assert (getattr(simulation_module, "ProcessPoolExecutor")
                is concurrent.futures.ProcessPoolExecutor)
        with pytest.raises(AttributeError):
            simulation_module.NoSuchExecutor

    def test_summary_shapes(self):
        config = config_for("shifted-normal", "random", rounds=3)
        results = run_rounds(config)
        summary = aggregate(config, results)
        n = config.n_queries
        assert summary.queries == tuple(range(1, n + 1))
        for name in ("lam", "zeta", "eta", "auc", "f1"):
            for bound in BOUNDS:
                assert getattr(getattr(summary, name), bound).shape == (2, n)
        assert summary.eta_missing.shape == (2, n)
        assert summary.eta_missing.dtype == np.int64
        assert summary.labeled_sizes[-1] == 10 + 2 * n
        # auc series pools per-test-pool samples, 3 per round, by seed and
        # round-major; lam takes one sample per round, its mean AUC
        ordered = sorted(results, key=lambda r: r.seed)
        for k in range(2):
            pooled = np.concatenate([r.auc[k, 0] for r in ordered])
            assert len(pooled) == 3 * config.rounds
            assert interval(summary.auc, k, 0) == mean_ci(pooled, config.confidence)
            assert interval(summary.lam, k, 0) == mean_ci(
                [r.auc[k, 0].mean() for r in ordered], config.confidence)


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def loaded_after(script: str) -> dict:
    """Which of ``POOL_MODULES`` a fresh interpreter holds at each point
    where ``script`` calls ``mark(label)``."""
    prelude = textwrap.dedent(f"""
        import json, sys
        marks = {{}}
        def mark(label):
            marks[label] = [m in sys.modules for m in {POOL_MODULES!r}]
    """)
    epilogue = "\nprint(json.dumps(marks))\n"
    proc = subprocess.run([sys.executable, "-c",
                           prelude + textwrap.dedent(script) + epilogue],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPoolLoadsOnFirstUse:
    def test_sequential_run_never_loads_the_pool(self, tmp_path):
        marks = loaded_after(f"""
            import contextlib, io
            import alqsim
            mark("alqsim")
            import alqsim.cli as cli
            mark("alqsim.cli")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["compare", "--rounds", "2", "--queries", "2",
                                 "--jobs", "1", "--out", {str(tmp_path)!r}])
            assert code == 0
            mark("compare")
        """)
        assert marks == {label: [False, False]
                         for label in ("alqsim", "alqsim.cli", "compare")}

    def test_parallel_run_loads_the_pool(self):
        marks = loaded_after("""
            import os
            import alqsim.simulation as simulation
            from alqsim import DatasetConfig, QueryStrategy, SimulationConfig
            os.cpu_count = lambda: 2
            config = SimulationConfig(dataset=DatasetConfig(),
                                      strategies=(QueryStrategy("random"),),
                                      n_queries=2, rounds=2)
            mark("before")
            simulation.run_rounds(config, jobs=2)
            mark("after")
        """)
        assert marks == {"before": [False, False], "after": [True, True]}
