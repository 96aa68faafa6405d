import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from alqsim import (CiSummary, ConfigError, CostModel, auc, cost_efficiency,
                    f1, mean_ci, student_t_quantile)
from alqsim.metrics import student_t_cdf

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(deadline=None, derandomize=True, database=None)

# Interval samples: finite, away from overflow, with zeros of both signs.
CI_SAMPLE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))

# Few distinct values, both zeros among them, so ties are the rule.
TIED_SCORE = st.sampled_from([-0.5, -0.0, 0.0, 0.1, 0.25, 0.5, 1.0])

# Tie-heavy values for each of auc's two integer key codes: the bit pattern
# (every score in [0, 2)) and the dense rank (any score outside it).
BITS_SCORE = st.sampled_from([0.0, -0.0, 5e-324, 1e-12, 0.25, 0.5,
                              1 - 1e-12, 1.5])
DENSE_SCORE = st.sampled_from([-0.5, -0.0, 0.0, 2.0, 1e300])
INF_SCORE = st.sampled_from([-np.inf, -0.5, -0.0, 0.0, 2.0, 1e300, np.inf])

# Probabilities on both sides of f1's threshold and exactly on it.
F1_PROB = st.sampled_from([0.0, 1e-12, 0.25, float(np.nextafter(0.5, 0.0)), 0.5,
                           0.75, 1.0])

LONG_ROWS = {
    "random": np.random.default_rng(11).random(1000),
    "tied_1_decimal": np.round(np.random.default_rng(12).random(1000), 1),
    "tied_2_decimals": np.round(np.random.default_rng(13).random(1000), 2),
    "constant": np.full(40, 0.3),
    "signed_zeros": np.array([0.0, -0.0, 0.2, -0.0, 0.0, -0.1, 0.0, -0.0]),
    "wide": np.random.default_rng(14).standard_normal(1000) * 1e3,
}


def both_classes(rows):
    return len({label for _, label in rows}) == 2


def scored_rows(score):
    """One row of ``(score, label)`` pairs that holds both classes."""
    return st.lists(st.tuples(score, st.integers(0, 1)), min_size=2,
                    max_size=60).filter(both_classes)


@st.composite
def stacks(draw, score, both_classes=True):
    """``(L, P, m)`` scores with ``(P, m)`` labels, every label row holding
    both classes unless ``both_classes`` is false, as ``auc`` and ``f1``
    score lanes against shared test pools."""
    lanes, pools, m = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                       draw(st.integers(2, 30)))
    label_row = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    if both_classes:
        label_row = label_row.filter(lambda row: len(set(row)) == 2)
    labels = draw(st.lists(label_row, min_size=pools, max_size=pools))
    scores = draw(st.lists(score, min_size=lanes * pools * m,
                           max_size=lanes * pools * m))
    return np.reshape(scores, (lanes, pools, m)), np.array(labels)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def pairwise_auc(scores, labels):
    """O(n^2) pair-counting oracle: wins + half ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.9], [0, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.9, 0.1], [0, 1]) == 0.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(4, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of exact ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)

    @PROPERTY
    @given(st.lists(st.tuples(TIED_SCORE, st.integers(0, 1)), min_size=2,
                    max_size=60).filter(
                        lambda rows: len({label for _, label in rows}) == 2))
    def test_equals_pair_counting_under_heavy_ties(self, rows):
        scores, labels = (np.array(column) for column in zip(*rows))
        assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(1 / (1 + np.exp(-scores)), labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complement(self):
        rng = np.random.default_rng(10)
        scores = np.round(rng.random(40), 1)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = (0, 1)
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(
            1.0, abs=1e-12)


class TestAucKeys:
    """Both integer key codes give the seed package's AUC bit for bit, on
    single rows and on stacks with broadcast labels."""

    @pytest.mark.parametrize("name", sorted(LONG_ROWS))
    def test_long_rows_equal_seed_package(self, name, seed_package):
        scores = LONG_ROWS[name]
        labels = np.arange(len(scores)) % 3 == 0
        assert same_bits(auc(scores, labels),
                         seed_package.metrics.auc(scores, labels.astype(int)))

    @PROPERTY
    @given(st.one_of(scored_rows(BITS_SCORE), scored_rows(DENSE_SCORE)))
    def test_rows_equal_seed_package(self, seed_package, rows):
        scores, labels = (np.array(column) for column in zip(*rows))
        assert same_bits(auc(scores, labels),
                         seed_package.metrics.auc(scores, labels))

    @PROPERTY
    @given(st.one_of(stacks(BITS_SCORE), stacks(DENSE_SCORE)))
    def test_stacks_equal_seed_package(self, seed_package, stack):
        scores, labels = stack
        aucs = auc(scores, labels)
        assert aucs.shape == scores.shape[:2]
        for lane in range(len(scores)):
            for pool, pool_labels in enumerate(labels):
                assert same_bits(aucs[lane, pool], seed_package.metrics.auc(
                    scores[lane, pool], pool_labels))

    @PROPERTY
    @given(scored_rows(INF_SCORE))
    def test_rows_with_infinities_equal_pair_counting(self, rows):
        scores, labels = (np.array(column) for column in zip(*rows))
        assert auc(scores, labels) == pairwise_auc(scores, labels)

    @PROPERTY
    @given(stacks(INF_SCORE))
    def test_stacks_with_infinities_equal_pair_counting(self, stack):
        scores, labels = stack
        aucs = auc(scores, labels)
        for lane in range(len(scores)):
            for pool, pool_labels in enumerate(labels):
                assert aucs[lane, pool] == pairwise_auc(scores[lane, pool],
                                                        pool_labels)

    def test_signed_zeros_tie(self):
        assert auc([-0.0, 0.0], [0, 1]) == auc([0.0, -0.0], [0, 1]) == 0.5
        assert auc([-0.0, 0.0, -0.5], [0, 1, 0]) == 0.75

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_equal_infinities_tie(self, value):
        assert auc([value, value], [0, 1]) == auc([value, value], [1, 0]) == 0.5


class TestRowWiseScores:
    @PROPERTY
    @given(st.integers(2, 40).flatmap(lambda m: st.lists(
        st.lists(st.tuples(TIED_SCORE, st.integers(0, 1)), min_size=m,
                 max_size=m).filter(lambda r: len({y for _, y in r}) == 2),
        min_size=1, max_size=5)))
    def test_rows_equal_seed_package_one_row_calls(self, seed_package, rows):
        scores = np.array([[s for s, _ in row] for row in rows])
        labels = np.array([[y for _, y in row] for row in rows])
        aucs, f1s = auc(scores, labels), f1(scores, labels)
        for row_scores, row_labels, row_auc, row_f1 in zip(scores, labels,
                                                            aucs, f1s):
            assert row_auc == seed_package.metrics.auc(row_scores, row_labels)
            assert row_f1 == seed_package.metrics.f1(row_scores, row_labels)

    def test_labels_broadcast_across_leading_axes(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=(3, 50))
        scores = rng.random((2, 3, 50))
        aucs = auc(scores, labels)
        assert aucs.shape == (2, 3)
        for lane in range(2):
            for pool in range(3):
                assert aucs[lane, pool] == auc(scores[lane, pool], labels[pool])

    def test_any_single_class_row_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            auc(np.array([[0.1, 0.9], [0.2, 0.8]]), np.array([[0, 1], [1, 1]]))

    @pytest.mark.parametrize("score", [auc, f1])
    @pytest.mark.parametrize("scores,labels", [
        ([0.1, 0.9, 0.5], [0, 1]),
        ([[0.1, 0.9, 0.5], [0.2, 0.8, 0.4]], [[0, 1], [1, 0]]),
        ([[0.1, 0.9], [0.2, 0.8]], [0, 1, 1]),
        (0.5, [0, 1]),
    ], ids=["1d", "2d", "broadcast-labels", "scalar-scores"])
    def test_rows_of_unequal_length_rejected(self, score, scores, labels):
        with pytest.raises(ValueError, match="rows of equal length"):
            score(scores, labels)

    @pytest.mark.parametrize("score", [auc, f1])
    @pytest.mark.parametrize("labels", [
        [0, 1, 2], [0, 0.5, 1], [-1, 0, 1], [0, 1, np.nan], [[0, 1, 1], [0, 1, 3]],
    ], ids=["two", "half", "minus-one", "nan", "one-bad-row"])
    def test_labels_other_than_0_and_1_rejected(self, score, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            score([0.3, 0.2, 0.1], labels)

    @pytest.mark.parametrize("score", [auc, f1])
    def test_bool_labels_accepted(self, score):
        assert score([0.2, 0.8], [False, True]) == score([0.2, 0.8], [0, 1]) == 1.0

    @pytest.mark.parametrize("score", [auc, f1])
    @pytest.mark.parametrize("scores", [[np.nan, np.nan], [0.2, np.nan]])
    @pytest.mark.parametrize("labels", [[0, 1], [1, 0]])
    def test_nan_scores_rejected(self, score, scores, labels):
        with pytest.raises(ValueError, match="NaN"):
            score(scores, labels)

    def test_one_row_gives_a_scalar(self):
        scores, labels = np.array([0.1, 0.9, 0.6]), np.array([0, 1, 0])
        assert type(auc(scores, labels)) is np.float64
        assert type(f1(scores, labels)) is np.float64


class TestF1:
    def test_perfect(self):
        assert f1([0.9, 0.1], [1, 0]) == 1.0

    def test_zero_recall(self):
        assert f1([0.1, 0.1], [1, 1]) == 0.0

    def test_half_precision_half_recall(self):
        assert f1([0.9, 0.9, 0.1, 0.1], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_degenerate_all_negative_predictions(self):
        assert f1([0.2, 0.3], [0, 0]) == 0.0

    @PROPERTY
    @given(st.lists(st.tuples(F1_PROB, st.integers(0, 1)), min_size=1,
                    max_size=60))
    @example([(0.5, 1), (0.5, 0), (0.25, 1)])  # p exactly 0.5 is predicted
    @example([(0.5, 0), (0.75, 0)])  # no positive label
    @example([(0.25, 1), (0.0, 0)])  # no predicted positive
    def test_rows_equal_seed_package(self, seed_package, rows):
        probs, labels = (np.array(column) for column in zip(*rows))
        assert same_bits(f1(probs, labels), seed_package.metrics.f1(probs, labels))

    @PROPERTY
    @given(stacks(F1_PROB, both_classes=False))
    @example((np.array([[[0.5, 0.25], [0.0, 0.75]]]), np.array([[0, 0], [1, 0]])))
    def test_stacks_equal_seed_package(self, seed_package, stack):
        probs, labels = stack
        f1s = f1(probs, labels)
        assert f1s.shape == probs.shape[:2]
        for lane in range(len(probs)):
            for pool, pool_labels in enumerate(labels):
                assert same_bits(f1s[lane, pool], seed_package.metrics.f1(
                    probs[lane, pool], pool_labels))


class TestCostEfficiency:
    def test_unit_cost(self):
        assert cost_efficiency(0.8, 0.5, CostModel(C=1.0)) == pytest.approx(1.6)

    def test_triple_cost(self):
        value = cost_efficiency(0.9, 0.45, CostModel(C=3.0))
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_zeta_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            cost_efficiency(0.8, 0.0, CostModel())

    def test_scaling_identity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lam, zeta = rng.random(), rng.uniform(0.01, 1.0)
            C = rng.uniform(1.0, 10.0)
            assert (cost_efficiency(lam, zeta, CostModel(C=C))
                    == cost_efficiency(lam, zeta, CostModel(C=1.0)) / C)

    def test_arrays_are_taken_elementwise(self):
        lam, zeta = np.array([0.8, 0.9, 0.5]), np.array([0.5, 0.45, 0.25])
        eta = cost_efficiency(lam, zeta, CostModel())
        assert isinstance(eta, np.ndarray) and eta.shape == (3,)
        assert eta.tolist() == [cost_efficiency(l, z, CostModel())
                                for l, z in zip(lam.tolist(), zeta.tolist())]

    def test_array_scaling_identity_exact(self):
        rng = np.random.default_rng(2)
        lam, zeta = rng.random(200), rng.uniform(0.01, 1.0, 200)
        for C in rng.uniform(1.0, 10.0, 10):
            np.testing.assert_array_equal(
                cost_efficiency(lam, zeta, CostModel(C=C)),
                cost_efficiency(lam, zeta, CostModel(C=1.0)) / C)

    def test_one_zero_zeta_in_an_array_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            cost_efficiency([0.8, 0.9, 0.7], [0.5, 0.0, 0.25], CostModel())

    @pytest.mark.parametrize("lam,zeta,name", [
        ([0.8, 1.5], [0.5, 0.5], "performance"),
        ([0.8, -0.1], [0.5, 0.5], "performance"),
        ([0.8, np.nan], [0.5, 0.5], "performance"),
        ([0.8, 0.9], [0.5, 1.25], "zeta"),
        ([0.8, 0.9], [-0.5, 0.5], "zeta"),
        ([0.8, 0.9], [0.5, np.nan], "zeta"),
    ])
    def test_one_value_out_of_range_rejected(self, lam, zeta, name):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            cost_efficiency(lam, zeta, CostModel())

    def test_scalar_call_returns_float(self):
        for lam, zeta in ((0.8, 0.5), (np.float64(0.8), np.float64(0.5))):
            assert type(cost_efficiency(lam, zeta, CostModel())) is float

    def test_cost_below_one_rejected(self):
        for bad in (0.5, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="C must be"):
                CostModel(C=bad)


class TestMeanCi:
    def test_zero_variance(self):
        summary = mean_ci([0.7, 0.7, 0.7])
        assert summary.mean == summary.lower == summary.upper == 0.7
        # an equal row never enters the sums, so a huge one cannot overflow
        assert mean_ci([[1e308] * 3, [0.7] * 3]).upper.tolist() == [1e308, 0.7]

    def test_reference_t_quantile_at_29_dof(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(30)
        summary = mean_ci(samples, confidence=0.99)
        t = student_t_quantile(0.995, 29)
        assert t == pytest.approx(2.7564, abs=2e-4)
        expected_half = t * samples.std(ddof=1) / np.sqrt(30)
        assert summary.upper - summary.mean == pytest.approx(expected_half, rel=1e-12)

    def test_interval_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            samples = rng.standard_normal(int(rng.integers(2, 40))) * 10
            s = mean_ci(samples)
            assert s.lower <= s.mean <= s.upper
            assert (s.mean - s.lower) == pytest.approx(s.upper - s.mean, abs=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            mean_ci([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mean_ci([1.0, bad])

    def test_rows_are_not_pooled(self):
        """Rows are not pooled into one sample under the row count's df:
        each row along the last axis gets its own interval, and a 1-D call
        returns floats."""
        rows = mean_ci([[1.0, 2.0], [3.0, 5.0]])
        assert rows.mean.tolist() == [1.5, 4.0]
        for i, row in enumerate([[1.0, 2.0], [3.0, 5.0]]):
            assert CiSummary(rows.mean[i], rows.lower[i], rows.upper[i]) == mean_ci(row)
        assert {type(v) for v in dataclasses.astuple(mean_ci([1.0, 2.0]))} == {float}

    def test_scalar_samples_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            mean_ci(1.0)

    @PROPERTY
    @given(st.data())
    def test_each_row_equals_its_one_dimensional_call(self, data):
        """2-D and 3-D calls summarise each row bit for bit as a 1-D call
        on it alone, past numpy's 8-accumulator pairwise sums at 8 or more
        samples; a row of equal samples stays exactly degenerate at its
        first sample, sign of zero included."""
        leading = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                           max_size=2), label="leading axes"))
        n = data.draw(st.integers(2, 40), label="samples per row")
        rows = []
        for _ in range(int(np.prod(leading))):
            kind = data.draw(st.sampled_from(["spread", "equal", "zeros"]))
            if kind == "spread":
                rows.append(data.draw(st.lists(CI_SAMPLE, min_size=n, max_size=n)))
            elif kind == "equal":
                rows.append([data.draw(CI_SAMPLE)] * n)
            else:
                rows.append(data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                               min_size=n, max_size=n)))
        samples = np.array(rows).reshape(*leading, n)
        confidence = data.draw(st.sampled_from([0.9, 0.99]), label="confidence")
        summary = mean_ci(samples, confidence)
        for index in np.ndindex(*leading):
            expected = mean_ci(samples[index], confidence)
            for bound in ("mean", "lower", "upper"):
                value = getattr(summary, bound)
                assert value.shape == leading
                assert (value[index].tobytes()
                        == np.float64(getattr(expected, bound)).tobytes()), bound
            if samples[index].min() == samples[index].max():
                first = np.float64(samples[index][0]).tobytes()
                assert {np.float64(v).tobytes()
                        for v in dataclasses.astuple(expected)} == {first}

    @pytest.mark.parametrize("confidence", [0.0, 1.0, np.nan])
    def test_confidence_outside_open_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0], confidence=confidence)

    def test_half_width_shrinks_like_inverse_sqrt_n(self):
        """Fixed +/-1 samples: half-width falls by ~2x per 4x sample size
        once n is large enough for the t quantile to stabilize."""
        widths = []
        for n in (128, 512, 2048, 8192):
            samples = np.tile([1.0, -1.0], n // 2)
            s = mean_ci(samples)
            widths.append(s.upper - s.mean)
        for a, b in zip(widths, widths[1:]):
            assert a / b == pytest.approx(2.0, rel=0.05)

    def test_lower_confidence_narrows_the_interval(self):
        narrow = mean_ci([1.0, 2.0, 4.0], confidence=0.9)
        wide = mean_ci([1.0, 2.0, 4.0], confidence=0.99)
        assert narrow.mean == wide.mean
        assert wide.lower < narrow.lower < narrow.upper < wide.upper


class TestStudentT:
    def test_cdf_reference_points(self):
        assert student_t_cdf(0.0, 7) == 0.5
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)
        for df in (1, 2, 29):
            assert student_t_cdf(float("inf"), df) == student_t_cdf(1e200, df) == 1.0
            assert student_t_cdf(float("-inf"), df) == student_t_cdf(-1e200, df) == 0.0

    def test_cdf_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert student_t_cdf(-t, 9) == pytest.approx(1 - student_t_cdf(t, 9),
                                                         abs=1e-12)

    def test_cdf_matches_scipy(self):
        ts = np.linspace(-6, 6, 25)
        for df in (1, 2, 3, 5, 29, 119, 120, 599):
            ours = [student_t_cdf(t, df) for t in ts]
            np.testing.assert_allclose(ours, stats.t.cdf(ts, df), atol=1e-10)

    def test_quantile_matches_scipy_within_1e6(self):
        ps = [0.005, 0.05, 0.25, 0.6, 0.9, 0.975, 0.995, 0.9995]
        for df in (1, 2, 5, 10, 29, 100, 500):
            for p in ps:
                assert student_t_quantile(p, df) == pytest.approx(
                    stats.t.ppf(p, df), abs=1e-6)

    def test_quantile_roundtrip(self):
        for p in (0.01, 0.3, 0.5, 0.77, 0.999):
            assert student_t_cdf(student_t_quantile(p, 12), 12) == pytest.approx(
                p, abs=1e-9)

    def test_quantile_equals_seed_package_at_99_percent(self, seed_package):
        # the program's only p; every interval of a run of up to 103 rounds
        # asks for a df in this range
        p = 0.5 + 0.99 / 2
        for df in range(1, 228):
            assert (student_t_quantile(p, df)
                    == seed_package.metrics.student_t_quantile(p, df)), df

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_quantile(0.5, 0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, -1)
        for df in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                student_t_cdf(1.0, df)
            with pytest.raises(ValueError):
                student_t_quantile(0.9, df)


class TestQuantileMemo:
    def test_cached_value_equals_a_fresh_bisection(self):
        for df in (1, 2, 5, 29, 29.0, 100.0):
            for p in (0.005, 0.1, 0.5, 0.6, 0.975, 0.995):
                fresh = student_t_quantile.__wrapped__(p, df)
                assert student_t_quantile(p, df) == fresh
                assert student_t_quantile(p, df) == fresh

    def test_errors_are_never_cached(self):
        for p, df in ((0.0, 5), (1.0, 5), (float("nan"), 5), (0.9, 0),
                      (0.9, -2.0), (0.9, 2.5), (0.5, 2.5)):
            for _ in range(3):
                with pytest.raises(ValueError):
                    student_t_quantile(p, df)


class TestCiSummaryType:
    def test_fields(self):
        s = CiSummary(mean=1.0, lower=0.5, upper=1.5)
        assert [f.name for f in dataclasses.fields(CiSummary)] == [
            "mean", "lower", "upper"]
        assert s.lower <= s.mean <= s.upper
