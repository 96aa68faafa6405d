import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from alqsim import (ConfigError, QueryStrategy, beta_pdf, beta_sample,
                    select_random, select_shifted_normal, select_uncertainty)
from alqsim import strategies as strategies_module
from alqsim.strategies import STRATEGY_KINDS

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def scored(probs, ids=None):
    """The ``(ids, probs)`` arrays a selector takes; ids default to 0..n-1."""
    probs = np.asarray(probs, dtype=np.float64)
    ids = np.arange(len(probs)) if ids is None else np.asarray(ids)
    return ids, probs


@st.composite
def scored_pools(draw):
    """Distinct ids, probs in (0, 1) with frequent ties, 1 <= k <= n, and a
    permutation of the rows."""
    ids = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=40,
                        unique=True))
    prob = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([0.25, 0.45, 0.5]))
    probs = draw(st.lists(prob, min_size=len(ids), max_size=len(ids)))
    k = draw(st.integers(1, len(ids)))
    perm = draw(st.permutations(range(len(ids))))
    return np.array(ids, dtype=np.int64), np.array(probs), k, np.array(perm)


def assert_k_distinct_from(picked, ids, k):
    assert len(picked) == k
    assert len(set(picked)) == k
    assert set(picked) <= set(ids.tolist())


# Beta(5.5, 6.5) and Beta(2, 2), as a strategy's mode and concentration
REFERENCE = QueryStrategy("shifted-normal", mode=0.45, concentration=12.0)
SYMMETRIC = QueryStrategy("shifted-normal", mode=0.5, concentration=4.0)


class TestBetaFromMode:
    """The Beta a strategy derives from its mode and concentration."""

    def test_reference_parameterization(self):
        assert (REFERENCE.alpha, REFERENCE.beta) == (5.5, 6.5)

    def test_symmetric_case(self):
        assert (SYMMETRIC.alpha, SYMMETRIC.beta) == (2.0, 2.0)

    def test_concentration_limit_is_nearly_uniform(self):
        strategy = QueryStrategy("shifted-normal", mode=0.45, concentration=2.0001)
        assert strategy.alpha == pytest.approx(1.000045, abs=1e-9)
        assert strategy.beta == pytest.approx(1.000055, abs=1e-9)
        xs = np.linspace(0.01, 0.99, 50)
        assert np.abs(beta_pdf(strategy, xs) - 1.0).max() < 1e-3

    def test_mode_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mode = float(rng.uniform(0.05, 0.95))
            concentration = float(rng.uniform(2.1, 300.0))
            strategy = QueryStrategy("shifted-normal", mode=mode,
                                     concentration=concentration)
            alpha, beta = strategy.alpha, strategy.beta
            assert (alpha - 1) / (alpha + beta - 2) == pytest.approx(mode, abs=1e-12)
            assert alpha + beta == pytest.approx(concentration, rel=1e-12)

    @pytest.mark.parametrize("mode,conc", [(0.0, 12), (1.0, 12), (-0.1, 12),
                                           (0.45, 2.0), (0.45, 1.0)])
    def test_out_of_range_rejected(self, mode, conc):
        with pytest.raises(ConfigError):
            QueryStrategy("shifted-normal", mode=mode, concentration=conc)


class TestBetaPdf:
    def test_beta22_at_half(self):
        assert beta_pdf(SYMMETRIC, 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_domain_errors(self):
        for x in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                beta_pdf(SYMMETRIC, x)

    @pytest.mark.parametrize("alpha,beta", [(5.5, 6.5), (2, 2), (67.6, 83.4)])
    def test_integrates_to_one(self, alpha, beta):
        strategy = QueryStrategy("shifted-normal", mode=(alpha - 1) / (alpha + beta - 2),
                                 concentration=alpha + beta)
        total, _ = integrate.quad(lambda x: beta_pdf(strategy, x), 0.0, 1.0)
        assert abs(total - 1.0) <= 1e-6

    def test_matches_scipy_density(self):
        xs = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(beta_pdf(REFERENCE, xs),
                                   stats.beta.pdf(xs, 5.5, 6.5), rtol=1e-12)


class TestBetaSample:
    def test_mean_of_100k_draws(self):
        rng = np.random.default_rng(2024)
        draws = np.array([beta_sample(REFERENCE, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 5.5 / 12.0) < 0.003

    def test_kolmogorov_smirnov_against_cdf(self):
        rng = np.random.default_rng(7)
        draws = [beta_sample(REFERENCE, rng) for _ in range(100_000)]
        result = stats.kstest(draws, stats.beta(5.5, 6.5).cdf)
        assert result.pvalue > 0.01

    def test_near_uniform_limit_against_uniform(self):
        strategy = QueryStrategy("shifted-normal", mode=0.45, concentration=2.0001)
        rng = np.random.default_rng(11)
        draws = [beta_sample(strategy, rng) for _ in range(100_000)]
        assert stats.kstest(draws, stats.uniform.cdf).statistic < 0.01

    def test_support_is_open_interval(self):
        rng = np.random.default_rng(3)
        draws = np.array([beta_sample(SYMMETRIC, rng) for _ in range(5_000)])
        assert draws.min() > 0.0 and draws.max() < 1.0

    @pytest.mark.parametrize("mode, concentration", [
        (0.45, 150), (0.3, 150), (0.45, 2.5), (0.9, 10), (0.01, 1000),
        (0.5, 3), (0.45, 2.0001)])
    def test_draws_match_seed_package(self, seed_package, mode, concentration):
        """numpy's ``Generator.beta`` gives the seed package's hand-rolled
        Marsaglia-Tsang stream bit for bit, and leaves the generator in the
        same state."""
        strategy = QueryStrategy("shifted-normal", mode=mode,
                                 concentration=concentration)
        ours, seeds = np.random.default_rng(0), np.random.default_rng(0)
        drawn = np.array([beta_sample(strategy, ours) for _ in range(10_000)])
        expected = np.array([seed_package.strategies.beta_sample(strategy, seeds)
                             for _ in range(10_000)])
        assert drawn.tobytes() == expected.tobytes()
        assert ours.random() == seeds.random()


class TestSelectRandom:
    def test_exhaustive_when_k_equals_pool(self):
        rng = np.random.default_rng(0)
        assert sorted(select_random([10, 20], 2, rng)) == [10, 20]

    def test_deterministic_given_seed(self):
        ids = list(range(1000))
        first = select_random(ids, 2, np.random.default_rng(5))
        second = select_random(ids, 2, np.random.default_rng(5))
        assert first == second

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            select_random([1, 2, 3], 4, np.random.default_rng(0))
        # an empty list is float-typed, but the shortfall is what is reported
        with pytest.raises(ValueError, match="cannot select 2 from 0"):
            select_random([], 2, np.random.default_rng(0))

    def test_bool_k_rejected(self):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            select_random([1, 2, 3], True, np.random.default_rng(0))

    def test_single_draw_frequencies_uniform(self):
        """100k single selections from 10 ids: each lands near 1/10."""
        ids = list(range(10))
        rng = np.random.default_rng(99)
        counts = np.zeros(10)
        for _ in range(100_000):
            counts[select_random(ids, 1, rng)[0]] += 1
        assert np.abs(counts / 100_000 - 0.1).max() < 0.01


class TestSelectUncertainty:
    def test_closest_to_half_wins(self):
        picked = select_uncertainty(*scored([0.9, 0.51, 0.2], ids=[7, 8, 9]), 1)
        assert picked == [8]

    def test_tie_broken_by_lower_id(self):
        picked = select_uncertainty(*scored([0.4, 0.6], ids=[3, 5]), 1)
        assert picked == [3]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            ids, probs = scored(rng.uniform(0.01, 0.99, size=50),
                                ids=rng.permutation(500)[:50])
            pairs = sorted(zip(ids.tolist(), probs.tolist()),
                           key=lambda pair: (abs(pair[1] - 0.5), pair[0]))
            expected = [i for i, _ in pairs][:5]
            assert select_uncertainty(ids, probs, 5) == expected

    @PROPERTY
    @given(scored_pools())
    def test_k_distinct_ids_from_pool(self, pool):
        ids, probs, k, _ = pool
        assert_k_distinct_from(select_uncertainty(ids, probs, k), ids, k)

    @PROPERTY
    @given(scored_pools())
    def test_candidate_order_irrelevant(self, pool):
        ids, probs, k, perm = pool
        assert (select_uncertainty(ids, probs, k)
                == select_uncertainty(ids[perm], probs[perm], k))

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            select_uncertainty(*scored([0.5]), 2)
        with pytest.raises(ValueError, match="cannot select 1 from 0"):
            select_uncertainty([], [], 1)

    @PROPERTY
    @given(st.data())
    def test_exact_ties_match_lexsort_reference(self, data):
        """Mirrored probs such as 0.375 and 0.625 tie exactly at 0.5; the
        lower id goes first, as a full sort would rank it."""
        ids = np.array(data.draw(st.lists(st.integers(0, 100), min_size=1,
                                          max_size=12, unique=True)))
        probs = np.array(data.draw(st.lists(EIGHTHS, min_size=len(ids),
                                            max_size=len(ids))))
        k = data.draw(st.integers(1, len(ids)))
        assert (select_uncertainty(ids, probs, k)
                == lexsort_picks(ids, probs, [0.5] * k))


def lexsort_picks(ids, probs, targets):
    """Shifted-normal picks by a full (distance, id) sort for each target."""
    available = np.ones(len(ids), dtype=bool)
    chosen = []
    for target in targets:
        distance = np.where(available, np.abs(probs - target), np.inf)
        pick = np.lexsort((ids, distance))[0]
        available[pick] = False
        chosen.append(int(ids[pick]))
    return chosen


# Probs in eighths and targets in sixteenths: every distance is exact, so a
# target halfway between two probs ties them exactly.
EIGHTHS = st.sampled_from([i / 8 for i in range(1, 8)])
SIXTEENTHS = st.sampled_from([i / 16 for i in range(1, 16)])


class TestSelectShiftedNormal:
    def test_single_candidate_forced(self):
        assert select_shifted_normal(*scored([0.9], ids=[42]), 1, REFERENCE,
                                     np.random.default_rng(0)) == [42]

    def test_mode_candidate_selected_most_often(self):
        """Over 10k single draws the 0.45 candidate dominates 0.1 and 0.9."""
        ids, probs = scored([0.1, 0.45, 0.9])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[select_shifted_normal(ids, probs, 1, REFERENCE, rng)[0]] += 1
        assert counts[1] == counts.max()

    def test_degenerate_targets_pick_nearest(self, monkeypatch):
        monkeypatch.setattr(strategies_module, "beta_sample",
                            lambda strategy, rng: 0.45)
        ids, probs = scored([0.2, 0.5, 0.8], ids=[1, 2, 3])
        for _ in range(5):
            picked = strategies_module.select_shifted_normal(
                ids, probs, 1, REFERENCE, np.random.default_rng(0))
            assert picked == [2]

    @PROPERTY
    @given(st.data())
    def test_matches_lexsort_reference(self, data):
        """Exact distance ties go to the lower id, and a target nearest an
        already-picked id takes the next one, as a full sort would."""
        ids = np.array(data.draw(st.lists(st.integers(0, 100), min_size=1,
                                          max_size=12, unique=True)))
        probs = np.array(data.draw(st.lists(EIGHTHS, min_size=len(ids),
                                            max_size=len(ids))))
        k = data.draw(st.integers(1, len(ids)))
        targets = data.draw(st.lists(SIXTEENTHS, min_size=k, max_size=k))
        draws = iter(targets)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategies_module, "beta_sample",
                       lambda strategy, rng: next(draws))
            picked = select_shifted_normal(ids, probs, k, REFERENCE,
                                           np.random.default_rng(0))
        assert picked == lexsort_picks(ids, probs, targets)

    def test_returns_distinct_ids_without_replacement(self):
        rng = np.random.default_rng(8)
        ids, probs = scored(rng.uniform(0.01, 0.99, size=40))
        picked = select_shifted_normal(ids, probs, 10, REFERENCE, rng)
        assert_k_distinct_from(picked, ids, 10)

    @PROPERTY
    @given(scored_pools())
    def test_k_distinct_ids_from_pool(self, pool):
        ids, probs, k, _ = pool
        picked = select_shifted_normal(ids, probs, k, REFERENCE,
                                       np.random.default_rng(0))
        assert_k_distinct_from(picked, ids, k)

    @PROPERTY
    @given(scored_pools())
    def test_candidate_order_irrelevant(self, pool):
        """With the generator at a fixed seed, the targets are the same and
        (distance, id) ranks every row the same way in any order."""
        ids, probs, k, perm = pool
        first = select_shifted_normal(ids, probs, k, REFERENCE,
                                      np.random.default_rng(5))
        permuted = select_shifted_normal(ids[perm], probs[perm], k, REFERENCE,
                                         np.random.default_rng(5))
        assert first == permuted

    def test_selection_histogram_peaks_at_mode(self):
        """10k selections over a uniform grid of probs: modal bin holds 0.45."""
        ids, grid = scored((np.arange(100) + 0.5) / 100)
        rng = np.random.default_rng(31)
        chosen_probs = [grid[select_shifted_normal(ids, grid, 1, REFERENCE, rng)[0]]
                        for _ in range(10_000)]
        counts, edges = np.histogram(chosen_probs, bins=10, range=(0.0, 1.0))
        modal_bin = counts.argmax()
        assert edges[modal_bin] <= 0.45 < edges[modal_bin + 1]

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            select_shifted_normal(*scored([0.5]), 2, REFERENCE,
                                  np.random.default_rng(0))


class TestQueryStrategy:
    def test_valid_kinds(self):
        for kind in ("random", "uncertainty", "shifted-normal"):
            assert QueryStrategy(kind=kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="random, uncertainty, shifted-normal"):
            QueryStrategy(kind="bogus")

    def test_shifted_normal_parameter_validation(self):
        """The Beta knobs are checked for every kind, since every kind's
        summary records them."""
        for (bad, field), kind in itertools.product([
            (dict(mode=1.5), "mode"), (dict(concentration=2.0), "concentration"),
            (dict(mode=float("nan")), "mode"),
            (dict(concentration=float("inf")), "concentration"),
            # alpha = 1 + 1e-300 * 148 rounds to exactly 1.0
            (dict(mode=1e-300), "mode"),
            # beta = 1 + (1 - mode) * 0.5 rounds to exactly 1.0
            (dict(mode=np.nextafter(1.0, 0.0), concentration=2.5), "mode"),
        ], STRATEGY_KINDS):
            with pytest.raises(ConfigError, match=field):
                QueryStrategy(kind=kind, **bad)

    def test_non_finite_rejected_for_every_kind(self):
        for kind in ("random", "uncertainty"):
            with pytest.raises(ConfigError, match="concentration"):
                QueryStrategy(kind=kind, concentration=float("inf"))




class TestScoredSelectorInput:
    """Both scored selectors share one check on ``(ids, probs)``; every
    selector rejects ids that are not 1-D."""

    def test_probs_must_lie_strictly_inside_open_interval(self):
        for bad_prob in (0.0, 1.0, float("nan")):
            ids, probs = scored([0.3, bad_prob, 0.7])
            with pytest.raises(ValueError, match="strictly inside"):
                select_uncertainty(ids, probs, 1)
            with pytest.raises(ValueError, match="strictly inside"):
                select_shifted_normal(ids, probs, 1, REFERENCE,
                                      np.random.default_rng(0))

    def test_ids_and_probs_must_be_matching_1d_arrays(self):
        for ids, probs in ((np.arange(3), np.full(2, 0.5)),
                           (np.arange(4).reshape(2, 2), np.full((2, 2), 0.5))):
            with pytest.raises(ValueError, match="equal length"):
                select_uncertainty(ids, probs, 1)
            with pytest.raises(ValueError, match="equal length"):
                select_shifted_normal(ids, probs, 1, REFERENCE,
                                      np.random.default_rng(0))
        for ids in (np.arange(4).reshape(2, 2), np.array(3)):
            with pytest.raises(ValueError, match="1-D"):
                select_random(ids, 1, np.random.default_rng(0))

    def test_repeated_ids_rejected(self):
        """Each selector promises k distinct ids, so a repeated id is an
        error rather than a repeated pick."""
        ids, probs = scored([0.5, 0.5, 0.9], ids=[1, 1, 2])
        with pytest.raises(ValueError, match="unique"):
            select_uncertainty(ids, probs, 2)
        with pytest.raises(ValueError, match="unique"):
            select_shifted_normal(ids, probs, 2, REFERENCE,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError, match="unique"):
            select_random([3, 3, 3], 2, np.random.default_rng(0))

    def test_non_integer_ids_rejected(self):
        """A float or bool id would otherwise be cast to an integer that is
        not in the pool."""
        rng = np.random.default_rng(0)
        for ids in ([1.5, 2.5], np.array([True, False])):
            with pytest.raises(ValueError, match="integers"):
                select_random(ids, 2, rng)
            with pytest.raises(ValueError, match="integers"):
                select_uncertainty(ids, [0.5, 0.6], 1)
            with pytest.raises(ValueError, match="integers"):
                select_shifted_normal(ids, [0.5, 0.6], 1, REFERENCE, rng)

    def test_unsigned_ids_above_int64_are_picked_as_given(self):
        """A uint64 id >= 2**63 is returned as itself, not wrapped to a
        negative int64 id that is not in the pool."""
        ids, probs = scored([0.45, 0.9], ids=np.array([2**63 + 5, 7], dtype=np.uint64))
        rng = np.random.default_rng(0)
        assert_k_distinct_from(select_random(ids, 2, rng), ids, 2)
        assert_k_distinct_from(select_uncertainty(ids, probs, 1), ids, 1)
        assert_k_distinct_from(select_shifted_normal(ids, probs, 1, REFERENCE, rng),
                               ids, 1)
