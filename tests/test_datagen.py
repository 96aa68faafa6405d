import numpy as np
import pytest

from alqsim import (ConfigError, DatasetConfig, dataset_rng,
                    generate_dataset, split_pools)
from alqsim.datagen import query_rng, write_dataset_csv


def small_config(**overrides):
    base = dict(class_sep=0.5, labeled_size=10, unlabeled_size=50,
                n_test_pools=2, test_pool_size=20)
    base.update(overrides)
    return DatasetConfig(**base)


class TestDatasetConfig:
    def test_total_size(self):
        assert DatasetConfig().total_size == 10 + 1000 + 3 * 1000

    @pytest.mark.parametrize("bad", [
        dict(labeled_size=0), dict(unlabeled_size=-5), dict(n_test_pools=0),
        dict(test_pool_size=0), dict(n_features=0),
        dict(class_sep=0.0), dict(class_sep=-1.0),
        dict(flip_y=1.0), dict(flip_y=-0.1),
        dict(positive_fraction=0.0), dict(positive_fraction=1.0),
        dict(class_sep=float("inf")), dict(class_sep=float("nan")),
        dict(flip_y=float("nan")), dict(positive_fraction=float("inf")),
        dict(n_features=True), dict(class_sep=1e7),
        # 0 and 100 positives of 100 instances: every pool holds one class
        dict(positive_fraction=0.001), dict(positive_fraction=0.999),
    ])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            small_config(**bad)


class TestGenerateDataset:
    def test_wide_separation_is_linearly_separable(self):
        """With class_sep=10 the midpoint hyperplane classifies perfectly."""
        config = small_config(class_sep=10.0)  # 100 instances total
        rng = np.random.default_rng(0)
        features, labels = generate_dataset(config, rng)
        assert features.shape == (100, 4) and labels.shape == (100,)
        predicted = (features.sum(axis=1) > 0).astype(int)
        assert (predicted == labels).all()

    def test_vanishing_separation_gives_chance_auc(self):
        """As class_sep -> 0 the classes coincide and ranking is chance-level."""
        config = DatasetConfig(class_sep=1e-9, labeled_size=10,
                               unlabeled_size=2000, n_test_pools=1,
                               test_pool_size=10)
        features, labels = generate_dataset(config, np.random.default_rng(3))
        scores = features.sum(axis=1)
        # Mann-Whitney by brute force on the ideal direction
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).mean()
        assert abs(wins - 0.5) < 0.03

    def test_positive_count_forced_by_rounding(self):
        config = DatasetConfig(class_sep=0.5)  # 4010 instances
        _, labels = generate_dataset(config, np.random.default_rng(7))
        assert labels.sum() == 2005

    @pytest.mark.parametrize("fraction,total_positive", [
        (0.5, 50), (0.25, 25), (0.333, 33),
    ])
    def test_label_balance_exact_without_flipping(self, fraction, total_positive):
        config = small_config(positive_fraction=fraction)  # 100 instances total
        _, labels = generate_dataset(config, np.random.default_rng(1))
        assert labels.sum() == total_positive

    def test_flip_rate_moves_counts(self):
        config = small_config(flip_y=0.5, unlabeled_size=4970)  # 5000 total
        _, labels = generate_dataset(config, np.random.default_rng(5))
        flipped_fraction = labels.mean()
        # with flip probability 0.5 the expected positive share stays 0.5
        assert abs(flipped_fraction - 0.5) < 0.03

    def test_deterministic_given_seed(self):
        config = small_config()
        a_features, a_labels = generate_dataset(config, np.random.default_rng(99))
        b_features, b_labels = generate_dataset(config, np.random.default_rng(99))
        assert (a_features == b_features).all()
        assert (a_labels == b_labels).all()

    def test_dataset_rng_folds_negative_seeds(self):
        """Seeds map to the unsigned 64-bit entropy numpy accepts, so a
        negative seed draws the same data as its two's-complement value."""
        config = small_config()
        first = generate_dataset(config, dataset_rng(-3))
        second = generate_dataset(config, dataset_rng(2**64 - 3))
        assert (first[0] == second[0]).all() and (first[1] == second[1]).all()
        # the query stream folds the same way and stays apart from the data
        draws = query_rng(-3).random(4)
        assert (draws == query_rng(2**64 - 3).random(4)).all()
        assert (draws != dataset_rng(-3).random(4)).all()

    def test_ids_unique_and_dense(self):
        """Ids are row indices: the split pools' ids cover 0..N-1 exactly once."""
        config = small_config()
        rng = np.random.default_rng(2)
        features, labels = generate_dataset(config, rng)
        pools = split_pools((features, labels), config, rng)
        ids = np.concatenate([pools[0], pools[1], *pools[2]])
        assert sorted(ids.tolist()) == list(range(len(labels)))

    def test_centroid_distance_grows_with_class_sep(self):
        """Same seed, increasing separation: empirical centroids move apart."""
        distances = []
        for sep in (0.25, 0.5, 1.0, 2.0):
            config = small_config(class_sep=sep, unlabeled_size=990)
            features, labels = generate_dataset(config, np.random.default_rng(11))
            mu1 = features[labels == 1].mean(axis=0)
            mu0 = features[labels == 0].mean(axis=0)
            distances.append(np.linalg.norm(mu1 - mu0))
        assert all(a < b for a, b in zip(distances, distances[1:]))


class TestSplitPools:
    def test_default_pool_sizes(self):
        config = DatasetConfig(class_sep=0.5)
        rng = np.random.default_rng(0)
        dataset = generate_dataset(config, rng)
        labeled, unlabeled, tests = split_pools(dataset, config, rng)
        assert len(labeled) == 10
        assert len(unlabeled) == 1000
        assert [len(t) for t in tests] == [1000, 1000, 1000]
        assert labeled.shape == (10,) and labeled.dtype == np.int64
        assert unlabeled.shape == (1000,) and unlabeled.dtype == np.int64
        assert tests.shape == (3, 1000) and tests.dtype == np.int64

    def test_partition_is_disjoint_and_exhaustive(self):
        config = small_config()
        rng = np.random.default_rng(4)
        dataset = generate_dataset(config, rng)
        labeled, unlabeled, tests = split_pools(dataset, config, rng)
        pools = [labeled, unlabeled, *tests]
        all_ids = np.concatenate(pools)
        assert len(all_ids) == len(dataset[1])
        assert set(all_ids.tolist()) == set(range(len(dataset[1])))

    def test_split_deterministic(self):
        config = small_config()
        first = split_pools(generate_dataset(config, np.random.default_rng(8)),
                            config, np.random.default_rng(12))
        second = split_pools(generate_dataset(config, np.random.default_rng(8)),
                             config, np.random.default_rng(12))
        for pa, pb in zip(first, second):
            assert (pa == pb).all()

    def test_size_mismatch_rejected(self):
        config = small_config()
        features, labels = generate_dataset(config, np.random.default_rng(0))
        for truncated in ((features[:-1], labels[:-1]), (features[:-1], labels),
                          (features, labels[:-1])):
            with pytest.raises(ConfigError):
                split_pools(truncated, config, np.random.default_rng(0))

    def test_unlabeled_pool_retains_hidden_labels(self):
        """The split leaves the dataset as it was, so the unlabeled pool's
        hidden labels are the dataset's labels at its ids."""
        config = small_config()
        rng = np.random.default_rng(4)
        features, labels = generate_dataset(config, rng)
        original = features.copy(), labels.copy()
        _, unlabeled, _ = split_pools((features, labels), config, rng)
        assert (features == original[0]).all() and (labels == original[1]).all()
        assert set(labels[unlabeled].tolist()) == {0, 1}


class TestCsvDump:
    def test_header_and_shape(self, tmp_path):
        config = small_config()
        dataset = generate_dataset(config, np.random.default_rng(0))
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,f0,f1,f2,f3,label"
        assert len(lines) == len(dataset[1]) + 1

    def test_empty_dataset_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="empty"):
            write_dataset_csv((np.empty((0, 4)), np.empty(0, dtype=np.int64)), path)
        assert not path.exists()

    def test_values_roundtrip_at_9_significant_digits(self, tmp_path):
        config = small_config()
        features, labels = generate_dataset(config, np.random.default_rng(0))
        path = tmp_path / "data.csv"
        write_dataset_csv((features, labels), path)
        row = path.read_text().splitlines()[1].split(",")
        assert int(row[0]) == 0
        assert int(row[-1]) == labels[0]
        for text, value in zip(row[1:-1], features[0]):
            assert float(text) == pytest.approx(value, rel=1e-8)
            assert text == f"{value:.9g}"
