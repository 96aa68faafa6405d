import numpy as np
import pytest

import alqsim.simulation as simulation_module
from alqsim import (ConfigError, DatasetConfig, QueryStrategy,
                    SimulationConfig, SimulationError, aggregate,
                    compute_phi, dataset_rng, fit, predict_proba,
                    run_experiment, run_round, run_rounds, select_uncertainty,
                    split_pools)
from alqsim.datagen import generate_dataset
from alqsim.simulation import worker_count


def config_for(kind="random", cs=0.5, rounds=3, seed=0, **overrides):
    smaller = dict(labeled_size=10, unlabeled_size=200, n_test_pools=3,
                   test_pool_size=150)
    return SimulationConfig(
        dataset=DatasetConfig(class_sep=cs, seed=seed, **smaller),
        strategy=QueryStrategy(kind=kind),
        n_queries=overrides.pop("n_queries", 10),
        rounds=rounds, base_seed=seed, **overrides)


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
                                     dict(phi_delta=float("inf"))])
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            SimulationConfig(dataset=DatasetConfig(),
                             strategy=QueryStrategy(kind="random"), **bad)


class TestRunRound:
    def test_pool_sizes_with_paper_defaults(self):
        config = SimulationConfig(dataset=DatasetConfig(class_sep=0.5),
                                  strategy=QueryStrategy(kind="random"))
        result = run_round(config, 0)
        assert len(result.snapshots) == 20
        assert result.snapshots[-1].labeled_size == 10 + 20 * 2
        selected = [i for s in result.snapshots for i in s.selected_ids]
        assert len(selected) == 40

    def test_labeled_size_grows_by_batch(self):
        result = run_round(config_for(kind="uncertainty"), 1)
        sizes = [s.labeled_size for s in result.snapshots]
        assert sizes == [10 + 2 * q for q in range(1, 11)]

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_pool_conservation(self, kind):
        """Selected ids come from the unlabeled pool, never repeat, and never
        touch the seed pool or the test pools."""
        config = config_for(kind=kind)
        result = run_round(config, 5)
        data_rng = dataset_rng(5)
        dataset = generate_dataset(config.dataset, data_rng)
        labeled, unlabeled, tests = split_pools(dataset, config.dataset, data_rng)

        selected = [i for s in result.snapshots for i in s.selected_ids]
        assert len(selected) == len(set(selected))
        assert set(selected) <= set(unlabeled.ids.tolist())
        assert not set(selected) & set(labeled.ids.tolist())
        for t in tests:
            assert not set(selected) & set(t.ids.tolist())

    @pytest.mark.parametrize("kind", ["random", "uncertainty", "shifted-normal"])
    def test_bit_identical_reruns(self, kind):
        config = config_for(kind=kind)
        assert run_round(config, 3) == run_round(config, 3)

    def test_selection_driven_by_interim_probabilities_only(self):
        """The q=1 uncertainty batch is reproducible from the initial model
        and the unlabeled features alone (no access to hidden labels)."""
        config = config_for(kind="uncertainty")
        result = run_round(config, 9)
        data_rng = dataset_rng(9)
        dataset = generate_dataset(config.dataset, data_rng)
        labeled, unlabeled, _ = split_pools(dataset, config.dataset, data_rng)
        model = fit(labeled, config.glm)
        probs = predict_proba(model, unlabeled.features)
        assert list(result.snapshots[0].selected_ids) == select_uncertainty(
            unlabeled.ids, probs, config.batch_size)

    def test_easy_separation_reaches_high_auc(self):
        config = config_for(kind="random", cs=10.0)
        result = run_round(config, 0)
        assert result.snapshots[-1].metrics.lam > 0.95

    def test_initial_metrics_paired_across_strategies(self):
        """Same round seed: all strategies see the same dataset, so the q=0
        evaluation of the seed-pool model is identical."""
        initial = [run_round(config_for(kind=k, rounds=2), 7).initial_metrics
                   for k in ("random", "uncertainty", "shifted-normal")]
        assert initial[0] == initial[1] == initial[2]

    def test_eta_missing_when_seed_pool_all_negative(self):
        """A single-class seed pool starts with zeta = 0: eta is undefined
        until the first positive is revealed."""
        config = SimulationConfig(
            dataset=DatasetConfig(class_sep=0.5, labeled_size=4,
                                  unlabeled_size=100, n_test_pools=1,
                                  test_pool_size=100),
            strategy=QueryStrategy(kind="random"), n_queries=5, rounds=2)
        for seed in range(200):
            data_rng = dataset_rng(seed)
            dataset = generate_dataset(config.dataset, data_rng)
            labeled, _, _ = split_pools(dataset, config.dataset, data_rng)
            if labeled.n_positive == 0:
                result = run_round(config, seed)
                assert result.initial_metrics.eta is None
                assert result.initial_metrics.zeta == 0.0
                assert result.initial_metrics.lam > 0.0
                return
        pytest.fail("no all-negative seed pool found in scan range")


class TestPhiDiagnostics:
    def test_trace_matches_brute_force(self):
        config = config_for(kind="shifted-normal", record_phi=True, rounds=3)
        for result in run_rounds(config):
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
        result = run_round(config, 2)
        sizes = [len(m) for m in result.interim_probs]
        assert sizes == [200 - 2 * q for q in range(config.n_queries)]

    def test_disabled_by_default(self):
        result = run_round(config_for(), 0)
        assert result.phi_trace is None
        assert result.interim_probs is None
        assert result.final_probs is None


class TestRunExperiment:
    def test_two_round_mean_is_exact_average(self):
        config = config_for(kind="random", rounds=2)
        summary = run_experiment(config)
        rounds = run_rounds(config)
        for qi in range(config.n_queries):
            values = [r.snapshots[qi].metrics.lam for r in rounds]
            assert summary.lam[qi].mean == pytest.approx(np.mean(values), abs=1e-15)

    def test_aggregate_is_order_insensitive(self):
        config = config_for(kind="shifted-normal", rounds=4)
        results = run_rounds(config)
        forward = aggregate(config, results)
        backward = aggregate(config, list(reversed(results)))
        assert forward == backward

    @pytest.mark.parametrize("jobs,rounds,cores,expected", [
        (1, 40, 2, 1), (2, 40, 2, 2), (3, 40, 2, 2), (10**9, 40, 2, 2),
        (8, 3, 16, 3), (8, 40, 16, 8), (4, 40, None, 1),
    ])
    def test_worker_count_is_capped_by_rounds_and_cores(
            self, monkeypatch, jobs, rounds, cores, expected):
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: cores)
        assert worker_count(jobs, rounds) == expected

    @pytest.mark.parametrize("jobs", [0, -3, 2.0, "2", None])
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
        config = config_for(kind="uncertainty", rounds=4)
        assert run_experiment(config, jobs=2) == run_experiment(config, jobs=1)

    def test_shared_dataset_mode_reuses_split(self):
        config = config_for(kind="random", rounds=3, shared_dataset=True)
        results = run_rounds(config)
        assert (results[0].initial_metrics == results[1].initial_metrics
                == results[2].initial_metrics)
        # query randomness still differs round to round
        assert (results[0].snapshots[0].selected_ids
                != results[1].snapshots[0].selected_ids)

    def test_fresh_dataset_mode_differs_per_round(self):
        results = run_rounds(config_for(kind="random", rounds=2))
        assert results[0].initial_metrics != results[1].initial_metrics

    def test_single_round_cannot_form_intervals(self):
        with pytest.raises(ConfigError, match="rounds >= 2"):
            run_experiment(config_for(rounds=1))

    def test_failing_round_reports_seed(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(simulation_module, "fit", explode)
        with pytest.raises(SimulationError, match="seed 11"):
            run_rounds(config_for(seed=11, rounds=2))

    def test_summary_shapes(self):
        config = config_for(kind="shifted-normal", rounds=3)
        summary = run_experiment(config)
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

        summary = run_experiment(config_for(kind="random", rounds=2))
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["rounds"] == 2
        assert payload["confidence"] == 0.99
        assert len(payload["lambda"]["mean"]) == summary.config.n_queries
        assert payload["config"]["strategy"]["kind"] == "random"
        assert payload["eta"]["n_missing"] == list(summary.eta_missing)
