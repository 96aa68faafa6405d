import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from alqsim import (ConfigError, QueryStrategy, beta_pdf, beta_sample,
                    match_targets, select_random)
from alqsim import strategies as strategies_module
from alqsim.strategies import STRATEGY_KINDS, TARGET_RULES

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


# Beta(5.5, 6.5) and Beta(2, 2), as a strategy's mode and concentration
REFERENCE = QueryStrategy("shifted-normal", mode=0.45, concentration=12.0)
SYMMETRIC = QueryStrategy("shifted-normal", mode=0.5, concentration=4.0)


def scored(probs, ids=None):
    """The ``(ids, probs)`` rows of one lane in ascending id order, as the
    matcher takes them; ids default to 0..n-1."""
    probs = np.asarray(probs, dtype=np.float64)
    ids = np.arange(len(probs)) if ids is None else np.asarray(ids)
    order = np.argsort(ids)
    return ids[order], probs[order]


def picks(kind, ids, probs, k, rng=None, strategy=REFERENCE):
    """One lane's k picks under ``kind``'s rule: its targets, drawn from
    ``rng`` for shifted-normal, matched on a stack of that one lane."""
    targets = TARGET_RULES[kind](strategy, k, rng)
    return match_targets(np.asarray(ids)[None], np.asarray(probs)[None],
                         [targets])[0].tolist()


@st.composite
def scored_pools(draw):
    """Distinct ascending ids, probs in (0, 1) with frequent ties,
    1 <= k <= n, and a permutation of the rows."""
    ids = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=40,
                        unique=True))
    prob = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([0.25, 0.45, 0.5]))
    probs = draw(st.lists(prob, min_size=len(ids), max_size=len(ids)))
    k = draw(st.integers(1, len(ids)))
    perm = draw(st.permutations(range(len(ids))))
    return (*scored(probs, np.array(ids, dtype=np.int64)), k, np.array(perm))


def assert_k_distinct_from(picked, ids, k):
    assert len(picked) == k
    assert len(set(picked)) == k
    assert set(picked) <= set(ids.tolist())


class TestQueryStrategyBeta:
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
        for x in (0.0, 1.0, -0.5, 1.5, float("nan"), np.array([0.5, np.nan])):
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


def lexsort_picks(ids, probs, targets):
    """Picks by a full (distance, id) sort for each target in turn."""
    available = np.ones(len(ids), dtype=bool)
    chosen = []
    for target in targets:
        distance = np.where(available, np.abs(probs - target), np.inf)
        pick = np.lexsort((ids, distance))[0]
        available[pick] = False
        chosen.append(int(ids[pick]))
    return chosen


# Probs in eighths: every distance to a target in sixteenths is exact.
EIGHTHS = st.sampled_from([i / 8 for i in range(1, 8)])


def assert_order_is_canonical_or_refused(kind, pool, seed=5):
    """Rows put in id order pick what a full (distance, id) sort picks over
    the rows in any order; left out of id order, they are refused, so the
    order never changes a pick.  The generator's seed fixes the targets."""
    ids, probs, k, perm = pool
    targets = TARGET_RULES[kind](REFERENCE, k, np.random.default_rng(seed))
    assert (picks(kind, ids, probs, k, np.random.default_rng(seed))
            == lexsort_picks(ids[perm], probs[perm], targets))
    if (perm != np.arange(len(perm))).any():
        with pytest.raises(ValueError, match="ascending"):
            picks(kind, ids[perm], probs[perm], k, np.random.default_rng(seed))


def assert_matches_the_full_sort(kind, data):
    """With probs in eighths and the rule's targets rounded to sixteenths,
    a target halfway between two probs ties them exactly; the lower id goes
    first, and a target nearest an already-picked id takes the next one, as
    a full sort would."""
    ids = np.sort(data.draw(st.lists(st.integers(0, 100), min_size=1,
                                     max_size=12, unique=True)))
    probs = np.array(data.draw(st.lists(EIGHTHS, min_size=len(ids),
                                        max_size=len(ids))))
    k = data.draw(st.integers(1, len(ids)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    targets = np.round(np.multiply(TARGET_RULES[kind](REFERENCE, k, rng), 16)) / 16
    assert (match_targets(ids[None], probs[None], targets[None])[0].tolist()
            == lexsort_picks(ids, probs, targets))


@st.composite
def lane_stacks(draw, kinds=tuple(TARGET_RULES)):
    """0 to 3 lanes of n rows, with ids of one integer dtype ascending
    within each lane, probs in eighths, each lane's kind drawn from
    ``kinds`` and its k targets from that kind's rule, on a drawn seed.  A
    uint64 lane holds 2**64 - 1, tied in prob with another row."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    info = np.iinfo(dtype)
    n_lanes, n = draw(st.integers(0, 3)), draw(st.integers(2, 12))
    k = draw(st.integers(1, n))
    ids, probs, lane_kinds, targets = [], [], [], []
    for _ in range(n_lanes):
        lane_ids = draw(st.lists(st.integers(int(info.min), int(info.max) - 1),
                                 min_size=n, max_size=n, unique=True))
        lane_probs = draw(st.lists(EIGHTHS, min_size=n, max_size=n))
        if dtype is np.uint64:
            top, other = draw(st.permutations(range(n)))[:2]
            lane_ids[top], lane_probs[top] = int(info.max), lane_probs[other]
        order = sorted(range(n), key=lane_ids.__getitem__)
        kind = draw(st.sampled_from(kinds))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        targets.append(TARGET_RULES[kind](QueryStrategy(kind), k, rng))
        ids.append([lane_ids[i] for i in order])
        probs.append([lane_probs[i] for i in order])
        lane_kinds.append(kind)
    return (np.array(ids, dtype=dtype).reshape(n_lanes, n),
            np.array(probs, dtype=np.float64).reshape(n_lanes, n),
            lane_kinds, np.array(targets, dtype=np.float64).reshape(n_lanes, k))


def each_pick(stack):
    """Every pick of a stacked call: its lane's ids, its distance from each
    row, the rows still unpicked at it, and the row it took."""
    ids, probs, _, targets = stack
    for lane_ids, lane_probs, lane_targets, lane_picks in zip(
            ids, probs, targets, match_targets(ids, probs, targets)):
        available = np.ones(len(lane_ids), dtype=bool)
        for target, pick in zip(lane_targets, lane_picks):
            row = int(np.flatnonzero(lane_ids == pick)[0])
            yield lane_ids, np.abs(lane_probs - target), available.copy(), row
            available[row] = False


class TestMatchTargets:
    """The one matcher behind every model-driven kind, over a stack of lanes."""

    @PROPERTY
    @given(lane_stacks())
    def test_lane_stack_matches_one_lane_and_seed_selectors(self, seed_package,
                                                             stack):
        """Each lane of a stacked call picks what its own one-lane call
        picks and, for the seed package's two kinds, what the seed
        package's selector picks on the ids' ranks (its ids are int64),
        ties to the lower id."""
        ids, probs, kinds, targets = stack
        picked = match_targets(ids, probs, targets)
        assert picked.shape == targets.shape and picked.dtype == ids.dtype
        seed = seed_package.strategies
        k = targets.shape[1]
        for lane_ids, lane_probs, kind, lane_targets, lane_picks in zip(
                ids, probs, kinds, targets, picked):
            expected = lane_picks.tolist()
            own = match_targets(lane_ids[None], lane_probs[None], lane_targets[None])
            assert own[0].tolist() == expected
            candidates = [seed.ScoredCandidate(rank, prob)
                          for rank, prob in enumerate(lane_probs)]
            if kind == "uncertainty":
                seeds = seed.select_uncertainty(candidates, k)
            elif kind == "shifted-normal":
                with pytest.MonkeyPatch.context() as mp:
                    draws = iter(lane_targets.tolist())
                    mp.setattr(seed, "beta_sample",
                               lambda strategy, rng: next(draws))
                    seeds = seed.select_shifted_normal(candidates, k, None,
                                                       np.random.default_rng(0))
            else:
                continue
            assert lane_ids[seeds].tolist() == expected

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @PROPERTY
    @given(pool=scored_pools())
    def test_every_kind_picks_k_distinct_pool_ids(self, kind, pool):
        """Random through ``select_random``, every rule through the matcher."""
        ids, probs, k, _ = pool
        rng = np.random.default_rng(0)
        picked = (select_random(ids, k, rng) if kind == "random"
                  else picks(kind, ids, probs, k, rng))
        assert_k_distinct_from(picked, ids, k)

    @pytest.mark.parametrize("kind", sorted(TARGET_RULES))
    @PROPERTY
    @given(pool=scored_pools())
    def test_every_rule_keeps_id_order_or_refuses(self, kind, pool):
        assert_order_is_canonical_or_refused(kind, pool)

    @pytest.mark.parametrize("kind", sorted(TARGET_RULES))
    @PROPERTY
    @given(data=st.data())
    def test_every_rule_matches_the_full_sort(self, kind, data):
        assert_matches_the_full_sort(kind, data)

    @pytest.mark.parametrize("kind", sorted(TARGET_RULES))
    @PROPERTY
    @given(data=st.data())
    def test_every_rule_picks_k_distinct_ids_of_its_lane(self, kind, data):
        ids, probs, _, targets = data.draw(lane_stacks((kind,)))
        for lane_ids, lane_picks in zip(ids, match_targets(ids, probs, targets)):
            assert_k_distinct_from(lane_picks.tolist(), lane_ids, targets.shape[1])

    @pytest.mark.parametrize("kind", sorted(TARGET_RULES))
    @PROPERTY
    @given(data=st.data())
    def test_every_rule_picks_the_row_nearest_its_target(self, kind, data):
        """No row still unpicked lies nearer a target than the row it took."""
        for _, distance, available, row in each_pick(data.draw(lane_stacks((kind,)))):
            assert available[row]
            assert distance[row] == distance[available].min()

    @pytest.mark.parametrize("kind", sorted(TARGET_RULES))
    @PROPERTY
    @given(data=st.data())
    def test_every_rule_breaks_ties_to_the_lower_id(self, kind, data):
        """Of the unpicked rows nearest a target, the pick is the lowest id."""
        for ids, distance, available, row in each_pick(data.draw(lane_stacks((kind,)))):
            nearest = available & (distance == distance[available].min())
            assert ids[row] == ids[nearest].min()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_zero_lane_stack_returns_zero_rows(self, dtype):
        picked = match_targets(np.empty((0, 5), dtype=dtype), np.empty((0, 5)),
                               np.empty((0, 3)))
        assert picked.shape == (0, 3) and picked.dtype == dtype

    def test_largest_uint64_id_loses_a_tie_and_is_exact(self):
        """2**64 - 1 ties with 7 and goes second, as itself."""
        top = 2**64 - 1
        ids = np.array([[7, 2**63 + 1, top]], dtype=np.uint64)
        probs = np.array([[0.625, 0.9, 0.375]])
        picked = match_targets(ids, probs, [[0.5, 0.5, 0.5]])
        assert picked.tolist() == [[7, top, 2**63 + 1]]

    def test_each_kind_but_random_is_a_target_rule(self):
        assert set(TARGET_RULES) == set(STRATEGY_KINDS) - {"random"}
        assert TARGET_RULES["uncertainty"](None, 3, None) == [0.5] * 3
        strategy, rng = QueryStrategy("shifted-normal"), np.random.default_rng(9)
        targets = TARGET_RULES["shifted-normal"](strategy, 4, np.random.default_rng(9))
        assert targets == [beta_sample(strategy, rng) for _ in range(4)]


class TestSelectUncertainty:
    """The uncertainty kind: the matcher with every target at 0.5."""

    def test_closest_to_half_wins(self):
        picked = picks("uncertainty", *scored([0.9, 0.51, 0.2], ids=[7, 8, 9]), 1)
        assert picked == [8]

    def test_tie_broken_by_lower_id(self):
        picked = picks("uncertainty", *scored([0.4, 0.6], ids=[3, 5]), 1)
        assert picked == [3]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            ids, probs = scored(rng.uniform(0.01, 0.99, size=50),
                                ids=rng.permutation(500)[:50])
            pairs = sorted(zip(ids.tolist(), probs.tolist()),
                           key=lambda pair: (abs(pair[1] - 0.5), pair[0]))
            expected = [i for i, _ in pairs][:5]
            assert picks("uncertainty", ids, probs, 5) == expected

    @PROPERTY
    @given(scored_pools())
    def test_k_distinct_ids_from_pool(self, pool):
        ids, probs, k, _ = pool
        assert_k_distinct_from(picks("uncertainty", ids, probs, k), ids, k)

    @PROPERTY
    @given(scored_pools())
    def test_candidate_order_irrelevant(self, pool):
        assert_order_is_canonical_or_refused("uncertainty", pool)

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError, match="cannot select 2 from 1"):
            picks("uncertainty", *scored([0.5]), 2)
        with pytest.raises(ValueError, match="cannot select 1 from 0"):
            picks("uncertainty", [], [], 1)

    @PROPERTY
    @given(st.data())
    def test_exact_ties_match_lexsort_reference(self, data):
        assert_matches_the_full_sort("uncertainty", data)


class TestSelectShiftedNormal:
    """The shifted-normal kind: the matcher on targets drawn from the
    strategy's Beta, which pull picks toward its mode."""

    def test_single_candidate_forced(self):
        assert picks("shifted-normal", *scored([0.9], ids=[42]), 1,
                     np.random.default_rng(0)) == [42]

    def test_degenerate_targets_pick_nearest(self, monkeypatch):
        monkeypatch.setattr(strategies_module, "beta_sample",
                            lambda strategy, rng: 0.45)
        ids, probs = scored([0.2, 0.5, 0.8], ids=[1, 2, 3])
        for _ in range(5):
            picked = picks("shifted-normal", ids, probs, 1,
                           np.random.default_rng(0))
            assert picked == [2]

    def test_returns_distinct_ids_without_replacement(self):
        rng = np.random.default_rng(8)
        ids, probs = scored(rng.uniform(0.01, 0.99, size=40))
        picked = picks("shifted-normal", ids, probs, 10, rng)
        assert_k_distinct_from(picked, ids, 10)

    @PROPERTY
    @given(scored_pools())
    def test_k_distinct_ids_from_pool(self, pool):
        ids, probs, k, _ = pool
        picked = picks("shifted-normal", ids, probs, k, np.random.default_rng(0))
        assert_k_distinct_from(picked, ids, k)

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError, match="cannot select 2 from 1"):
            picks("shifted-normal", *scored([0.5]), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot select 1 from 0"):
            picks("shifted-normal", [], [], 1, np.random.default_rng(0))

    def test_mode_candidate_selected_most_often(self):
        """Over 10k single draws the 0.45 candidate dominates 0.1 and 0.9."""
        ids, probs = scored([0.1, 0.45, 0.9])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[picks("shifted-normal", ids, probs, 1, rng)[0]] += 1
        assert counts[1] == counts.max()

    def test_selection_histogram_peaks_at_mode(self):
        """10k selections over a uniform grid of probs: modal bin holds 0.45."""
        ids, grid = scored((np.arange(100) + 0.5) / 100)
        rng = np.random.default_rng(31)
        chosen_probs = [grid[picks("shifted-normal", ids, grid, 1, rng)[0]]
                        for _ in range(10_000)]
        counts, edges = np.histogram(chosen_probs, bins=10, range=(0.0, 1.0))
        modal_bin = counts.argmax()
        assert edges[modal_bin] <= 0.45 < edges[modal_bin + 1]


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
    """The matcher refuses any input on which a pick could repeat an id,
    name an id outside its lane or read a NaN; ``select_random`` checks its
    own ids."""

    def test_probs_must_lie_strictly_inside_open_interval(self):
        for bad_prob in (0.0, 1.0, float("nan")):
            ids, probs = scored([0.3, bad_prob, 0.7])
            with pytest.raises(ValueError, match="strictly inside"):
                match_targets(ids[None], probs[None], [[0.5]])

    def test_ids_and_probs_must_be_matching_1d_arrays(self):
        """A stack's ids and probs are (L, n) and its targets (L, k); each
        ``select_random`` lane is 1-D."""
        for ids, probs, targets in (
                (np.arange(3)[None], np.full((1, 2), 0.5), [[0.5]]),
                (np.arange(3), np.full(3, 0.5), [0.5]),
                (np.arange(3)[None], np.full((1, 3), 0.5), [[0.5], [0.5]]),
                (np.arange(3)[None], np.full((1, 3), 0.5), [0.5])):
            with pytest.raises(ValueError, match=r"\(L, n\)"):
                match_targets(ids, probs, targets)
        for ids in (np.arange(4).reshape(2, 2), np.array(3)):
            with pytest.raises(ValueError, match="1-D"):
                select_random(ids, 1, np.random.default_rng(0))

    def test_repeated_ids_rejected(self):
        """Each selector promises k distinct ids, so a repeated id is an
        error rather than a repeated pick."""
        with pytest.raises(ValueError, match="ascending"):
            match_targets([[1, 1, 2]], [[0.5, 0.5, 0.9]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="unique"):
            select_random([3, 3, 3], 2, np.random.default_rng(0))

    def test_unsorted_ids_rejected(self):
        """Out-of-order ids would break the tie to the lower id, so they
        are refused, a uint64 lane whose descending pair ``np.diff`` would
        wrap to a large positive step included."""
        for ids in (np.array([[3, 1, 2]]), np.array([[0, 2**64 - 1, 5]], dtype=np.uint64),
                    np.array([[1, 2, 3], [2, 1, 3]])):
            probs = np.full(ids.shape, 0.5)
            with pytest.raises(ValueError, match="ascending"):
                match_targets(ids, probs, np.full((len(ids), 2), 0.5))

    def test_non_finite_targets_rejected(self):
        ids, probs = scored([0.2, 0.5, 0.8], ids=[1, 2, 3])
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                match_targets(ids[None], probs[None], [[bad, 0.5]])

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError, match="cannot select 3 from 2"):
            match_targets([[1, 2]], [[0.4, 0.6]], [[0.5, 0.5, 0.5]])

    def test_non_integer_ids_rejected(self):
        """A float or bool id would otherwise be cast to an integer that is
        not in the pool."""
        rng = np.random.default_rng(0)
        for ids in ([1.5, 2.5], np.array([False, True])):
            with pytest.raises(ValueError, match="integers"):
                select_random(ids, 2, rng)
            with pytest.raises(ValueError, match="integers"):
                match_targets(np.asarray(ids)[None], [[0.5, 0.6]], [[0.5]])

    def test_unsigned_ids_above_int64_are_picked_as_given(self):
        """A uint64 id >= 2**63 is returned as itself, not wrapped to a
        negative int64 id that is not in the pool."""
        ids, probs = scored([0.45, 0.9], ids=np.array([2**63 + 5, 7], dtype=np.uint64))
        rng = np.random.default_rng(0)
        assert_k_distinct_from(select_random(ids, 2, rng), ids, 2)
        for kind in TARGET_RULES:
            assert_k_distinct_from(picks(kind, ids, probs, 1, rng), ids, 1)
