"""Synthetic binary-classification data with controllable class overlap.

Two unit-variance Gaussian clouds sit at opposite hypercube corners,
``(-class_sep, ..., -class_sep)`` for the negative class and
``(+class_sep, ..., +class_sep)`` for the positive class.  Shrinking
``class_sep`` increases the overlap between the classes and therefore the
irreducible labeling noise.  A generated dataset is partitioned into a small
labeled seed pool, a large unlabeled query pool, and several held-out test
pools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError

POOL_ROLES = ("labeled", "unlabeled", "test")


@dataclass(frozen=True)
class Instance:
    """A single example: integer id, feature vector, binary label."""

    id: int
    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


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
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_features", "labeled_size", "unlabeled_size",
                     "n_test_pools", "test_pool_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not self.class_sep > 0:
            raise ConfigError(f"class_sep must be > 0, got {self.class_sep!r}")
        if not 0.0 <= self.flip_y < 1.0:
            raise ConfigError(f"flip_y must be in [0, 1), got {self.flip_y!r}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError(
                f"positive_fraction must be in (0, 1), got {self.positive_fraction!r}")

    @property
    def total_size(self) -> int:
        return (self.labeled_size + self.unlabeled_size
                + self.n_test_pools * self.test_pool_size)


class DataPool:
    """An ordered, duplicate-free collection of instances with a pool role.

    Storage is array-backed (ids, feature matrix, labels) so model fitting
    and scoring work directly on contiguous numpy arrays.
    """

    def __init__(self, ids: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, role: str) -> None:
        if role not in POOL_ROLES:
            raise ValueError(f"role must be one of {POOL_ROLES}, got {role!r}")
        ids = np.asarray(ids, dtype=np.int64)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if ids.ndim != 1 or labels.ndim != 1 or features.ndim != 2:
            raise ValueError("ids and labels must be 1-D, features 2-D")
        if not (len(ids) == len(features) == len(labels)):
            raise ValueError("ids, features and labels must have equal length")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("duplicate instance ids within a pool")
        if len(labels) and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.ids = ids
        self.features = features
        self.labels = labels
        self.role = role

    @classmethod
    def from_instances(cls, instances: Iterable[Instance], role: str) -> "DataPool":
        instances = list(instances)
        if not instances:
            raise ValueError("cannot build a pool from zero instances")
        ids = np.array([inst.id for inst in instances], dtype=np.int64)
        features = np.stack([inst.features for inst in instances])
        labels = np.array([inst.label for inst in instances], dtype=np.int64)
        return cls(ids, features, labels, role)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Instance]:
        for i in range(len(self.ids)):
            yield Instance(int(self.ids[i]), self.features[i], int(self.labels[i]))

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())


def generate_dataset(config: DatasetConfig, rng: np.random.Generator) -> list[Instance]:
    """Generate the full instance collection for one dataset.

    Exactly ``round(positive_fraction * total)`` instances are positive before
    label flipping; each label is then flipped independently with probability
    ``flip_y``.  Features are standard-normal offsets around the class
    centroid.  The output order is shuffled by ``rng`` and ids are assigned
    0..N-1 in that shuffled order.
    """
    n_total = config.total_size
    n_pos = round(config.positive_fraction * n_total)
    labels = np.zeros(n_total, dtype=np.int64)
    labels[:n_pos] = 1

    offsets = np.where(labels[:, None] == 1, config.class_sep, -config.class_sep)
    features = rng.standard_normal((n_total, config.n_features)) + offsets

    flips = rng.random(n_total) < config.flip_y
    labels = np.where(flips, 1 - labels, labels)

    perm = rng.permutation(n_total)
    features = features[perm]
    labels = labels[perm]
    return [Instance(i, features[i], int(labels[i])) for i in range(n_total)]


def split_pools(
    dataset: Sequence[Instance],
    config: DatasetConfig,
    rng: np.random.Generator,
) -> tuple[DataPool, DataPool, list[DataPool]]:
    """Randomly partition a dataset into (labeled, unlabeled, [test pools]).

    The partition is disjoint, exhaustive, and deterministic for a given rng
    state.  Raises :class:`ConfigError` if the dataset size does not match the
    configured pool sizes.
    """
    if len(dataset) != config.total_size:
        raise ConfigError(
            f"dataset has {len(dataset)} instances but the configuration "
            f"requires {config.total_size}")
    perm = rng.permutation(len(dataset))
    cursor = 0

    def take(count: int, role: str) -> DataPool:
        nonlocal cursor
        chunk = [dataset[i] for i in perm[cursor:cursor + count]]
        cursor += count
        return DataPool.from_instances(chunk, role)

    labeled = take(config.labeled_size, "labeled")
    unlabeled = take(config.unlabeled_size, "unlabeled")
    tests = [take(config.test_pool_size, "test") for _ in range(config.n_test_pools)]
    return labeled, unlabeled, tests


def write_dataset_csv(instances: Iterable[Instance], path) -> None:
    """Dump instances as CSV with header ``id,f0,...,f{d-1},label``.

    Floats are serialized with 9 significant digits.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("nothing to write: empty instance collection")
    n_features = len(instances[0].features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(n_features)] + ["label"])
        for inst in instances:
            writer.writerow([inst.id]
                            + [f"{x:.9g}" for x in inst.features]
                            + [inst.label])
