"""Acceptance suite: each test prints one pass/fail line (run with -s).

The comparison runs start ``python -m alqsim`` exactly as a user would, with
the shipped defaults, and parse the emitted files.  The package is imported
from the checkout's ``src``, which ``tests/conftest.py`` puts on
``PYTHONPATH``, so no install is needed.  Tolerances are stated
inline next to each assertion.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

from alqsim import (DatasetConfig, GlmHyperparams, QueryStrategy,
                    SimulationConfig, aggregate, auc, beta_pdf, beta_sample,
                    fit, run_rounds)

STRATEGIES = ("random", "uncertainty", "shifted-normal")


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def run_cli(args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "ALQ_SEED"}
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "alqsim", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    return elapsed


def load_compare(out_dir):
    payload = json.loads((out_dir / "summary.json").read_text())
    return payload["strategies"]


def final(series_map, metric, field="mean"):
    return {kind: series_map[kind][metric][field][-1] for kind in STRATEGIES}


@pytest.fixture(scope="session")
def compare_cs05(tmp_path_factory):
    out = tmp_path_factory.mktemp("cs05")
    elapsed = run_cli(["compare", "--class-sep", "0.5", "--rounds", "30",
                       "--queries", "20", "--batch", "2", "--out", "results"],
                      cwd=out)
    return load_compare(out / "results"), elapsed


@pytest.fixture(scope="session")
def compare_cs10(tmp_path_factory):
    out = tmp_path_factory.mktemp("cs10")
    run_cli(["compare", "--class-sep", "1.0", "--rounds", "30",
             "--queries", "20", "--batch", "2", "--out", "results"], cwd=out)
    return load_compare(out / "results")


@pytest.fixture(scope="session")
def compare_cs05_cost3(tmp_path_factory):
    out = tmp_path_factory.mktemp("cs05c3")
    run_cli(["compare", "--class-sep", "0.5", "--rounds", "30",
             "--queries", "20", "--batch", "2", "--cost-c", "3",
             "--out", "results"], cwd=out)
    return load_compare(out / "results")


class TestCriterion1OverlapRegime:
    def test_orderings_and_margin(self, compare_cs05):
        summaries, elapsed = compare_cs05
        zeta = final(summaries, "zeta")
        eta = final(summaries, "eta")
        zeta_ok = zeta["shifted-normal"] < min(zeta["random"], zeta["uncertainty"])
        best_other = max(eta["random"], eta["uncertainty"])
        improvement = eta["shifted-normal"] / best_other - 1.0
        ok = zeta_ok and improvement >= 0.10 and elapsed < 300
        report(1, f"class_sep=0.5: zeta {zeta['shifted-normal']:.3f} < "
                  f"min({zeta['random']:.3f}, {zeta['uncertainty']:.3f}), "
                  f"eta improvement {improvement:.1%} >= 10%, "
                  f"runtime {elapsed:.0f}s < 300s", ok)


class TestCriterion2MildOverlapRegime:
    def test_orderings_margin_and_auc_equivalence(self, compare_cs10):
        zeta = final(compare_cs10, "zeta")
        eta = final(compare_cs10, "eta")
        zeta_ok = zeta["shifted-normal"] < min(zeta["random"], zeta["uncertainty"])
        best_other = max(eta["random"], eta["uncertainty"])
        improvement = eta["shifted-normal"] / best_other - 1.0
        means = final(compare_cs10, "lambda")
        lowers = final(compare_cs10, "lambda", "lower")
        uppers = final(compare_cs10, "lambda", "upper")
        ci_ok = all(lowers[a] <= means[b] <= uppers[a]
                    for a in STRATEGIES for b in STRATEGIES)
        ok = zeta_ok and improvement >= 0.10 and ci_ok
        report(2, f"class_sep=1.0: eta improvement {improvement:.1%} >= 10%, "
                  f"mean AUCs mutually inside 99% CIs: {ci_ok}", ok)


class TestCriterion3LearningTrend:
    def test_auc_rises_with_queries(self, compare_cs05, compare_cs10):
        summaries_05, _ = compare_cs05
        results = {}
        for label, summaries in (("0.5", summaries_05), ("1.0", compare_cs10)):
            for kind in STRATEGIES:
                series = summaries[kind]["lambda"]["mean"]
                results[f"cs={label}/{kind}"] = series[-1] > series[0]
        ok = all(results.values())
        failing = [k for k, v in results.items() if not v]
        report(3, "mean AUC at q=20 exceeds q=1 for every strategy and both "
                  f"class separations{' (failing: ' + ', '.join(failing) + ')' if failing else ''}",
               ok)


class TestCriterion4AucOracle:
    def test_rank_auc_equals_pair_counting(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(4, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.random(n)
            if rng.random() < 0.5:  # tie-heavy half: quantize to one decimal
                scores = np.round(scores, 1)
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            brute = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / pos.size / neg.size
            worst = max(worst, abs(auc(scores, labels) - brute))
        report(4, f"rank AUC vs O(n^2) pair counting on 1000 cases: "
                  f"max abs diff {worst:.2e} <= 1e-12", worst <= 1e-12)


class TestCriterion5BetaCorrectness:
    def test_parameterization_density_and_sampling(self):
        strategy = QueryStrategy("shifted-normal", mode=0.45, concentration=12.0)
        exact = (strategy.alpha, strategy.beta) == (5.5, 6.5)

        integral, _ = integrate.quad(lambda x: beta_pdf(strategy, x), 0.0, 1.0)
        integral_ok = abs(integral - 1.0) <= 1e-6

        rng = np.random.default_rng(314159)
        draws = np.array([beta_sample(strategy, rng) for _ in range(100_000)])
        mean_ok = abs(draws.mean() - 5.5 / 12.0) <= 0.003
        ks = stats.kstest(draws, stats.beta(5.5, 6.5).cdf)
        ks_ok = ks.pvalue > 0.01

        ok = exact and integral_ok and mean_ok and ks_ok
        report(5, f"mode 0.45, concentration 12 gives Beta(5.5, 6.5): {exact}; "
                  f"pdf integral 1{integral - 1.0:+.1e} within 1e-6; "
                  f"100k-draw mean {draws.mean():.4f} within 0.003 of {5.5 / 12:.4f}; "
                  f"KS p={ks.pvalue:.3f} > 0.01", ok)


class TestCriterion6GlmGradient:
    def test_gradient_and_fallback(self, glm_objective):
        rng = np.random.default_rng(424242)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            features = rng.standard_normal((n, 4)) + 0.8 * (2 * labels[:, None] - 1)
            l2 = float(rng.uniform(0.0, 60.0))
            theta = rng.standard_normal(5)
            _, grad = glm_objective(theta, features, labels, l2)
            numeric = np.empty(5)
            for j in range(5):
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                numeric[j] = (glm_objective(up, features, labels, l2)[0]
                              - glm_objective(down, features, labels, l2)[0]
                              ) / (2 * step)
            rel = np.abs(grad - numeric) / np.maximum(np.abs(grad), 1.0)
            worst = max(worst, rel.max())
        gradient_ok = worst < 1e-5

        model = fit(rng.standard_normal((1, 10, 4)), np.zeros((1, 10), dtype=int),
                    GlmHyperparams())
        fallback_ok = model.fallback_prior[0] == (0 + 1) / (10 + 2)

        ok = gradient_ok and fallback_ok
        report(6, f"analytic vs central-difference gradient on 100 pools: "
                  f"worst rel err {worst:.2e} < 1e-5; single-class fallback "
                  f"prior equals 1/12 exactly: {fallback_ok}", ok)


class TestCriterion7Determinism:
    def test_byte_identical_outputs_and_order_invariance(self, tmp_path):
        args = ["run", "--strategy", "shifted-normal", "--class-sep", "0.5",
                "--rounds", "5", "--queries", "10", "--seed", "7"]
        for sub in ("first", "second"):
            d = tmp_path / sub
            d.mkdir()
            run_cli([*args, "--out", "results"], cwd=d)
        csv_same = ((tmp_path / "first/results/per_query.csv").read_bytes()
                    == (tmp_path / "second/results/per_query.csv").read_bytes())
        json_same = ((tmp_path / "first/results/summary.json").read_bytes()
                     == (tmp_path / "second/results/summary.json").read_bytes())

        config = SimulationConfig(
            dataset=DatasetConfig(class_sep=0.5),
            strategies=(QueryStrategy(kind="shifted-normal"),),
            n_queries=10, rounds=5, base_seed=7)
        results = run_rounds(config)
        shuffled = [results[i] for i in (3, 0, 4, 1, 2)]
        forward, backward = (aggregate(config, r) for r in (results, shuffled))
        permutation_ok = np.array_equal(forward.eta_missing,
                                        backward.eta_missing) and all(
            getattr(getattr(forward, name), bound).tobytes()
            == getattr(getattr(backward, name), bound).tobytes()
            for name in ("lam", "zeta", "eta", "auc", "f1")
            for bound in ("mean", "lower", "upper"))

        ok = csv_same and json_same and permutation_ok
        report(7, f"repeated command byte-identical (csv={csv_same}, "
                  f"json={json_same}); round-order permutation leaves "
                  f"aggregates unchanged: {permutation_ok}", ok)


class TestCriterion8CostScaling:
    def test_eta_scales_exactly_by_inverse_cost(self, compare_cs05,
                                                compare_cs05_cost3):
        summaries_c1, _ = compare_cs05
        summaries_c3 = compare_cs05_cost3
        worst = 0.0
        for kind in STRATEGIES:
            base = np.array(summaries_c1[kind]["eta"]["mean"], dtype=float)
            scaled = np.array(summaries_c3[kind]["eta"]["mean"], dtype=float)
            worst = max(worst, np.abs(scaled * 3.0 / base - 1.0).max())
        eta3 = final(summaries_c3, "eta")
        ordering_ok = eta3["shifted-normal"] > max(eta3["random"],
                                                   eta3["uncertainty"])
        ok = worst < 1e-12 and ordering_ok
        report(8, f"every per-query eta with C=3 equals the C=1 value / 3 "
                  f"(worst rel dev {worst:.2e} < 1e-12); ordering intact: "
                  f"{ordering_ok}", ok)


class TestCriterion9PhiDiagnostic:
    def test_phi_equals_brute_force_filter(self, tmp_path, seed_round):
        """The brute-force filter reads the interim and final probability
        maps of the seed package's round, not arrays of the code under
        test."""
        config = SimulationConfig(
            dataset=DatasetConfig(class_sep=0.5),
            strategies=(QueryStrategy(kind="shifted-normal"),),
            n_queries=5, rounds=3, base_seed=21, record_phi=True)
        results = run_rounds(config)
        checked = 0
        all_ok = True
        for result in results:
            reference = seed_round(config, result.seed)
            for interim, trace in zip(reference.interim_probs, result.phi_trace[0]):
                lo = 0.5 - config.phi_delta
                hi = 0.5 + config.phi_delta
                brute = [reference.final_probs[i] for i in sorted(interim)
                         if lo <= interim[i] <= hi]
                all_ok &= list(trace) == brute
                checked += 1

        run_cli(["run", "--strategy", "shifted-normal", "--class-sep", "0.5",
                 "--rounds", "3", "--queries", "5", "--seed", "21", "--phi",
                 "--out", "results"], cwd=tmp_path)
        payload = json.loads((tmp_path / "results/phi.json").read_text())
        cli_traces = [entry["phi"]
                      for entry in payload["strategies"]["shifted-normal"]]
        cli_ok = cli_traces == [[list(t) for t in r.phi_trace[0]] for r in results]

        ok = all_ok and checked == 15 and cli_ok
        report(9, f"phi trace equals brute-force filter for all {checked} "
                  f"queries of a 3-round smoke run; CLI --phi output matches: "
                  f"{cli_ok}", ok)
