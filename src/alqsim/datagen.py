"""Synthetic binary-classification data with controllable class overlap.

Two unit-variance Gaussian clouds sit at opposite hypercube corners,
``(-class_sep, ..., -class_sep)`` for the negative class and
``(+class_sep, ..., +class_sep)`` for the positive class.  Shrinking
``class_sep`` increases the overlap between the classes and therefore the
irreducible labeling noise.  A generated dataset is a ``(features, labels)``
pair of arrays whose row ``i`` is the instance with id ``i``.  Its row ids
are partitioned into a small labeled seed pool, a large unlabeled query pool,
and several held-out test pools; a pool is the array of the rows it holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, reject_non_finite, require_positive_int


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of one synthetic dataset and its pool partition."""

    n_features: int = 4
    class_sep: float = 1.0
    flip_y: float = 0.0
    labeled_size: int = 10
    unlabeled_size: int = 1000
    n_test_pools: int = 3
    test_pool_size: int = 1000
    positive_fraction: float = 0.5

    def __post_init__(self) -> None:
        reject_non_finite(self)
        for name in ("n_features", "labeled_size", "unlabeled_size",
                     "n_test_pools", "test_pool_size"):
            require_positive_int(name, getattr(self, name))
        if self.test_pool_size < 2:
            raise ConfigError(
                f"test_pool_size must be at least 2, since a one-row test pool "
                f"never holds both classes, got {self.test_pool_size!r}")
        # beyond about 1e153 the Newton Hessian overflows mid-round, and
        # AUC is already 1.0 at class_sep 4
        if not 0 < self.class_sep <= 1e6:
            raise ConfigError(
                f"class_sep must be in (0, 1e6], got {self.class_sep!r}")
        if not 0.0 <= self.flip_y < 1.0:
            raise ConfigError(f"flip_y must be in [0, 1), got {self.flip_y!r}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError(
                f"positive_fraction must be in (0, 1), got {self.positive_fraction!r}")
        if self.flip_y == 0.0 and self.n_positive in (0, self.total_size):
            raise ConfigError(
                f"positive_fraction {self.positive_fraction!r} gives "
                f"{self.n_positive} positives of {self.total_size} instances "
                f"and flip_y is 0, so every pool holds one class")

    @property
    def total_size(self) -> int:
        return (self.labeled_size + self.unlabeled_size
                + self.n_test_pools * self.test_pool_size)

    @property
    def n_positive(self) -> int:
        """Positive instances of a generated dataset before label flipping."""
        return round(self.positive_fraction * self.total_size)


def _seed_stream(seed: int, stream: int) -> np.random.Generator:
    # numpy seed sequences want non-negative entropy; fold negatives in
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


def dataset_rng(seed: int) -> np.random.Generator:
    """The generator that draws the dataset of a round with this seed.

    Negative seeds are folded into the unsigned 64-bit range that numpy seed
    sequences accept; stream 0 keeps the data draws apart from a round's
    query draws (:func:`query_rng`, stream 1).
    """
    return _seed_stream(seed, 0)


def query_rng(seed: int) -> np.random.Generator:
    """The generator that draws a round's query randomness for this seed."""
    return _seed_stream(seed, 1)


def generate_dataset(config: DatasetConfig,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Generate one dataset as a ``(features, labels)`` pair.

    Exactly ``config.n_positive`` instances are positive before label
    flipping; each label is then flipped independently with probability
    ``flip_y``.  Features are standard-normal offsets around the class
    centroid.  The rows are shuffled by ``rng``; row ``i`` of the result is
    the instance with id ``i``.
    """
    n_total = config.total_size
    labels = np.zeros(n_total, dtype=np.int64)
    labels[:config.n_positive] = 1

    offsets = np.where(labels[:, None] == 1, config.class_sep, -config.class_sep)
    features = rng.standard_normal((n_total, config.n_features)) + offsets

    flips = rng.random(n_total) < config.flip_y
    labels = np.where(flips, 1 - labels, labels)

    perm = rng.permutation(n_total)
    return features[perm], labels[perm]


def split_pools(
    dataset: tuple[np.ndarray, np.ndarray],
    config: DatasetConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomly partition a ``(features, labels)`` dataset's row ids into
    ``(labeled_ids, unlabeled_ids, test_ids)``.

    Each pool is the ``int64`` array of the dataset rows it holds;
    ``test_ids`` is ``(n_test_pools, test_pool_size)``, one row per test
    pool.  The partition is disjoint, exhaustive, and deterministic for a
    given rng state.  Raises :class:`ConfigError` if the dataset size does
    not match the configured pool sizes.
    """
    features, labels = dataset
    if not len(features) == len(labels) == config.total_size:
        raise ConfigError(
            f"dataset has {len(features)} feature rows and {len(labels)} labels "
            f"but the configuration requires {config.total_size} instances")
    perm = rng.permutation(len(labels)).astype(np.int64, copy=False)
    n_seed, n_query = config.labeled_size, config.unlabeled_size
    return (perm[:n_seed], perm[n_seed:n_seed + n_query],
            perm[n_seed + n_query:].reshape(config.n_test_pools,
                                            config.test_pool_size))
