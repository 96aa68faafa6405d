import concurrent.futures
import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alqsim.simulation as simulation_module
from alqsim import (ConfigError, CostModel, DatasetConfig,
                    QueryStrategy, RoundResult, SimulationConfig,
                    SimulationError, aggregate, compute_phi, dataset_rng, fit,
                    predict_proba, run_round, run_rounds,
                    select_uncertainty, split_pools)
from alqsim.datagen import generate_dataset
from alqsim.glm import fit_lanes
from alqsim.simulation import worker_count

PROPERTY = settings(deadline=None, derandomize=True, database=None)


def config_for(kind="random", cs=0.5, rounds=3, seed=0, **overrides):
    smaller = dict(labeled_size=10, unlabeled_size=200, n_test_pools=3,
                   test_pool_size=150)
    return SimulationConfig(
        dataset=DatasetConfig(class_sep=cs, seed=seed, **smaller),
        strategy=QueryStrategy(kind=kind),
        n_queries=overrides.pop("n_queries", 10),
        rounds=rounds, base_seed=seed, **overrides)


def split_for(config, seed):
    """The ``(features, labels)`` dataset a round with this data seed sees,
    and its (labeled, unlabeled, tests) row-id split."""
    data_rng = dataset_rng(seed)
    dataset = generate_dataset(config.dataset, data_rng)
    return dataset, split_pools(dataset, config.dataset, data_rng)


def assert_same_round(first, second):
    """Field-by-field equality; array fields compare with NaN equal to NaN."""
    for field in dataclasses.fields(RoundResult):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name


def hand_built_round(seed, eta):
    """A RoundResult with the given per-query eta and arbitrary other metrics."""
    eta = np.asarray(eta, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(eta)
    return RoundResult(seed=seed, selected_ids=np.zeros((n, 2), dtype=np.int64),
                       lam=rng.random(n), zeta=rng.random(n), eta=eta,
                       auc=rng.random((n, 3)), f1=rng.random((n, 3)))


class TestConfigValidation:
    def test_budget_must_fit_unlabeled_pool(self):
        with pytest.raises(ConfigError, match="exceeds"):
            SimulationConfig(dataset=DatasetConfig(),
                             strategy=QueryStrategy(kind="random"),
                             n_queries=600, batch_size=2)

    def test_default_budget_is_valid(self):
        config = SimulationConfig(dataset=DatasetConfig(),
                                  strategy=QueryStrategy(kind="random"))
        assert config.n_queries * config.batch_size <= config.dataset.unlabeled_size

    @pytest.mark.parametrize("bad", [dict(n_queries=0), dict(batch_size=0),
                                     dict(rounds=0), dict(confidence=1.0),
                                     dict(phi_delta=0.5),
                                     dict(confidence=float("nan")),
                                     dict(phi_delta=float("inf")),
                                     dict(rounds=1), dict(rounds=2.0),
                                     dict(n_queries=True, batch_size=True)])
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimulationConfig(dataset=DatasetConfig(),
                             strategy=QueryStrategy(kind="random"), **bad)


class TestRunRound:
    def test_pool_sizes_with_paper_defaults(self):
        config = SimulationConfig(dataset=DatasetConfig(class_sep=0.5),
                                  strategy=QueryStrategy(kind="random"))
        result = run_round([config], 0)[0]
        assert result.selected_ids.shape == (20, 2)
        assert len(set(result.selected_ids.ravel().tolist())) == 40
        assert result.lam.shape == result.zeta.shape == result.eta.shape == (20,)
        assert result.auc.shape == result.f1.shape == (20, 3)
        # the final labeled pool is the 10 seed rows plus the 40 queried rows
        (_, labels), (seed_ids, _, _) = split_for(config, 0)
        held = np.concatenate([seed_ids, result.selected_ids.ravel()])
        assert result.zeta[-1] == labels[held].sum() / 50

    def test_labeled_size_grows_by_batch(self, monkeypatch):
        sizes = []

        def recording_fit(features, labels, hyper):
            sizes.extend(len(lane) for lane in labels)
            return fit_lanes(features, labels, hyper)

        monkeypatch.setattr(simulation_module, "fit_lanes", recording_fit)
        config = config_for(kind="uncertainty", rounds=2)
        summary = aggregate(config, run_rounds([config])[0])
        per_round = [10 + 2 * q for q in range(0, 11)]
        assert sizes == per_round * 2
        assert summary.labeled_sizes == tuple(per_round[1:])

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_pool_conservation(self, kind):
        """Selected ids come from the unlabeled pool, never repeat, and never
        touch the seed pool or the test pools."""
        config = config_for(kind=kind)
        result = run_round([config], 5)[0]
        _, (labeled, unlabeled, tests) = split_for(config, 5)

        selected = result.selected_ids.ravel().tolist()
        assert len(selected) == len(set(selected))
        assert set(selected) <= set(unlabeled.tolist())
        assert not set(selected) & set(labeled.tolist())
        for t in tests:
            assert not set(selected) & set(t.tolist())

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_bit_identical_reruns(self, kind):
        config = config_for(kind=kind)
        assert_same_round(run_round([config], 3)[0], run_round([config], 3)[0])

    def test_selection_driven_by_interim_probabilities_only(self):
        """The q=1 uncertainty batch is reproducible from the initial model
        and the unlabeled features alone (no access to hidden labels)."""
        config = config_for(kind="uncertainty")
        result = run_round([config], 9)[0]
        (features, labels), (labeled, unlabeled, _) = split_for(config, 9)
        model = fit(features[labeled], labels[labeled], config.glm)
        probs = predict_proba(model, features[unlabeled])
        assert result.selected_ids[0].tolist() == select_uncertainty(
            unlabeled, probs, config.batch_size)

    def test_easy_separation_reaches_high_auc(self):
        config = config_for(kind="random", cs=10.0)
        result = run_round([config], 0)[0]
        assert result.lam[-1] > 0.95

    def test_strategies_paired_on_one_dataset(self):
        """Same round seed: all strategies score the unlabeled pool of the
        split that dataset_rng draws for that seed."""
        config = config_for(rounds=2)
        _, (_, unlabeled, _) = split_for(config, 7)
        for kind in ("random", "uncertainty", "shifted-normal"):
            lane_config = config_for(kind=kind, rounds=2, record_phi=True)
            result = run_round([lane_config], 7)[0]
            assert list(result.final_probs) == sorted(unlabeled.tolist())

    def test_eta_is_nan_when_zeta_is_zero(self):
        """With no positive label held, efficiency is undefined: eta is NaN
        while lambda is still measured."""
        config = config_for()
        (features, labels), (labeled, _, tests) = split_for(config, 0)
        negatives = labeled[labels[labeled] == 0]
        lam, zeta, eta, aucs, _ = simulation_module._evaluate(
            [fit(features[negatives], labels[negatives], config.glm)],
            features[tests], labels[tests], labels[negatives][None], CostModel())
        assert zeta.tolist() == [0.0] and np.isnan(eta).all()
        assert lam[0] == np.mean(aucs[0]) > 0.0


class TestLockStepLanes:
    def test_each_lane_equals_its_round_run_alone(self):
        """Pairing strategies on a seed changes no lane's result, phi
        included."""
        configs = [config_for(kind=kind, record_phi=True)
                   for kind in ("shifted-normal", "random", "uncertainty",
                                "shifted-normal")]
        configs[3] = dataclasses.replace(
            configs[3], strategy=QueryStrategy("shifted-normal", mode=0.3))
        for seed in (4, 5):
            lanes = run_round(configs, seed)
            assert len(lanes) == len(configs)
            for config, lane in zip(configs, lanes):
                assert_same_round(lane, run_round([config], seed)[0])

    @pytest.mark.parametrize("field,value", [
        ("n_queries", 9), ("batch_size", 3), ("rounds", 4), ("base_seed", 1),
        ("record_phi", True), ("shared_dataset", True), ("cost", CostModel(C=2.0)),
        ("dataset", DatasetConfig(class_sep=1.0, labeled_size=10,
                                  unlabeled_size=200, test_pool_size=150)),
    ])
    def test_configs_differing_beyond_strategy_rejected(self, monkeypatch,
                                                        field, value):
        def explode(*args, **kwargs):
            raise AssertionError("a round started")

        first = config_for(kind="random")
        second = dataclasses.replace(config_for(kind="uncertainty"),
                                     **{field: value})
        with pytest.raises(ConfigError, match="differ only in strategy"):
            run_round([first, second], 0)
        monkeypatch.setattr(simulation_module, "run_round", explode)
        with pytest.raises(ConfigError, match="differ only in strategy"):
            run_rounds([first, second])

    def test_no_configs_rejected(self):
        with pytest.raises(ConfigError, match="no configurations"):
            run_rounds([])


class TestPhiDiagnostics:
    def test_trace_matches_brute_force(self):
        config = config_for(kind="shifted-normal", record_phi=True, rounds=3)
        for result in run_rounds([config])[0]:
            assert result.phi_trace is not None
            assert len(result.phi_trace) == config.n_queries
            for interim, trace in zip(result.interim_probs, result.phi_trace):
                lo, hi = 0.5 - config.phi_delta, 0.5 + config.phi_delta
                expected = [result.final_probs[i] for i in sorted(interim)
                            if lo <= interim[i] <= hi]
                assert list(trace) == expected
                finals = {i: result.final_probs[i] for i in interim}
                assert list(trace) == compute_phi(finals, interim,
                                                  config.phi_delta)

    def test_interim_maps_shrink_with_queries(self):
        config = config_for(kind="random", record_phi=True)
        result = run_round([config], 2)[0]
        sizes = [len(m) for m in result.interim_probs]
        assert sizes == [200 - 2 * q for q in range(config.n_queries)]

    def test_disabled_by_default(self):
        result = run_round([config_for()], 0)[0]
        assert result.phi_trace is None
        assert result.interim_probs is None
        assert result.final_probs is None


class TestRunExperiment:
    def test_two_round_mean_is_exact_average(self):
        config = config_for(kind="random", rounds=2)
        summary = aggregate(config, run_rounds([config])[0])
        rounds = run_rounds([config])[0]
        for qi in range(config.n_queries):
            values = [r.lam[qi] for r in rounds]
            assert summary.lam[qi].mean == pytest.approx(np.mean(values), abs=1e-15)

    def test_aggregate_is_order_insensitive(self):
        config = config_for(kind="shifted-normal", rounds=4)
        results = run_rounds([config])[0]
        forward = aggregate(config, results)
        backward = aggregate(config, list(reversed(results)))
        assert forward == backward

    @PROPERTY
    @given(st.data())
    def test_aggregate_is_invariant_to_any_round_permutation(self, data):
        n_rounds = data.draw(st.integers(2, 6), label="rounds")
        eta = st.one_of(st.just(np.nan), st.floats(0.1, 5.0))
        results = [hand_built_round(seed, data.draw(st.lists(eta, min_size=3,
                                                             max_size=3)))
                   for seed in range(n_rounds)]
        shuffled = data.draw(st.permutations(results), label="order")
        config = config_for(n_queries=3, rounds=n_rounds)
        assert aggregate(config, shuffled) == aggregate(config, results)

    def test_undefined_eta_counted_missing(self):
        """NaN eta samples are left out of the interval and counted; a query
        with fewer than two defined samples has no eta interval."""
        nan = np.nan
        results = [hand_built_round(0, [nan, nan, nan, 1.0]),
                   hand_built_round(1, [nan, 2.0, 3.0, 2.0]),
                   hand_built_round(2, [nan, nan, 5.0, 6.0])]
        summary = aggregate(config_for(n_queries=4, rounds=3), results)
        assert summary.eta_missing == (3, 2, 1, 0)
        assert summary.eta[0] is None and summary.eta[1] is None
        assert (summary.eta[2].n, summary.eta[2].mean) == (2, 4.0)
        assert (summary.eta[3].n, summary.eta[3].mean) == (3, 3.0)
        assert summary.lam[0].n == 3

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
            run_rounds([config_for(rounds=2)], jobs=0)

    def test_parallel_equals_sequential(self):
        config = config_for(kind="uncertainty", rounds=4)
        assert (aggregate(config, run_rounds([config], jobs=2)[0])
                == aggregate(config, run_rounds([config], jobs=1)[0]))

    def test_shared_dataset_mode_reuses_split(self):
        config = config_for(kind="random", rounds=3, shared_dataset=True,
                            record_phi=True)
        results = run_rounds([config])[0]
        _, (_, unlabeled, _) = split_for(config, config.base_seed)
        for result in results:
            assert list(result.final_probs) == sorted(unlabeled.tolist())
        # query randomness still differs round to round
        assert not np.array_equal(results[0].selected_ids[0],
                                  results[1].selected_ids[0])

    def test_fresh_dataset_mode_differs_per_round(self):
        config = config_for(kind="random", rounds=2, record_phi=True)
        results = run_rounds([config])[0]
        for result in results:
            _, (_, unlabeled, _) = split_for(config, result.seed)
            assert list(result.final_probs) == sorted(unlabeled.tolist())
        assert list(results[0].final_probs) != list(results[1].final_probs)

    def test_single_round_cannot_form_intervals(self):
        with pytest.raises(ConfigError, match="rounds >= 2"):
            config_for(rounds=1)
        with pytest.raises(ConfigError, match="at least 2 rounds"):
            aggregate(config_for(n_queries=3, rounds=2),
                      [hand_built_round(0, [1.0, 1.0, 1.0])])

    def test_failing_round_reports_seed(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(simulation_module, "fit_lanes", explode)
        with pytest.raises(SimulationError, match="seed 11"):
            run_rounds([config_for(seed=11, rounds=2)])

    def test_failing_round_cancels_queued_rounds(self, monkeypatch):
        """With a pool, the first failing round ends the experiment: the
        rounds still queued behind it never run."""
        ran = []

        def counting_round(configs, seed):
            ran.append(seed)
            if seed == 11:
                raise ValueError("synthetic failure")
            time.sleep(0.2)
            return [None]

        # threads stand in for worker processes: same executor API, and the
        # patched round stays visible to them
        monkeypatch.setattr(simulation_module, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulation_module, "run_round", counting_round)
        with pytest.raises(SimulationError, match="seed 11"):
            run_rounds([config_for(seed=11, rounds=40)], jobs=2)
        assert len(ran) < 10

    def test_summary_shapes(self):
        config = config_for(kind="shifted-normal", rounds=3)
        summary = aggregate(config, run_rounds([config])[0])
        n = config.n_queries
        assert summary.queries == tuple(range(1, n + 1))
        assert len(summary.lam) == len(summary.zeta) == len(summary.eta) == n
        assert len(summary.auc) == len(summary.f1) == len(summary.eta_missing) == n
        assert summary.labeled_sizes[-1] == 10 + 2 * n
        # auc series pools per-test-pool samples: 3 per round
        assert summary.auc[0].n == 3 * config.rounds
        assert summary.lam[0].n == config.rounds

    def test_to_dict_roundtrips_through_json(self):
        import json

        config = config_for(kind="random", rounds=2)
        summary = aggregate(config, run_rounds([config])[0])
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["rounds"] == 2
        assert payload["confidence"] == 0.99
        assert len(payload["lambda"]["mean"]) == summary.config.n_queries
        assert payload["config"]["strategy"]["kind"] == "random"
        assert payload["eta"]["n_missing"] == list(summary.eta_missing)
