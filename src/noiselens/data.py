"""Core data model: labeled feature datasets, surrogate score matrices, and
their text/binary serialization.

Every value object freezes its arrays with ``_freeze``. A C-contiguous input
of the right dtype is kept, not copied, and is marked read-only in place, so
the caller's own array becomes read-only too; any other input is copied
once. ``check_ids`` is the one check that an array keyed to samples lines
up with a dataset.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import codec
from .errors import FormatError, ValidationError

# Files ingested from disk carry limited precision; internal computations
# are held to a tighter budget.
ROW_SUM_FILE_TOL = 1e-6
ROW_SUM_INTERNAL_TOL = 1e-9


def _freeze(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only C-contiguous ``dtype`` array, copied only when
    its layout or dtype differ. Callers check shapes first: a 0-d input
    comes back as a 1-element array."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples with a shared feature dimension, each labeled with one of
    ``num_classes`` (at least 2) class indices.

    Either every sample carries a true label or none does; the flag is
    exposed as ``has_ground_truth``. Equality is identity, as arrays have no
    single truth value.
    """

    num_classes: int
    ids: np.ndarray
    features: np.ndarray
    noisy_labels: np.ndarray
    true_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        c = self.num_classes
        if c < 2:
            raise ValidationError("dataset needs at least 2 classes")
        ids = np.asarray(self.ids, dtype=np.int64)
        features = np.asarray(self.features, dtype=np.float64)
        noisy_labels = np.asarray(self.noisy_labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        n = ids.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one sample")
        if features.shape[0] != n or noisy_labels.shape[0] != n:
            raise ValidationError("ids, features and labels must have equal length")
        if len(np.unique(ids)) != n:
            raise ValidationError("duplicate id in dataset")
        if not np.all(np.isfinite(features)):
            raise ValidationError("non-finite feature value")
        if noisy_labels.min() < 0 or noisy_labels.max() >= c:
            raise ValidationError("label out of range")
        if self.true_labels is not None:
            true_labels = np.asarray(self.true_labels, dtype=np.int64)
            if true_labels.shape[0] != n:
                raise ValidationError("true_labels length mismatch")
            if true_labels.min() < 0 or true_labels.max() >= c:
                raise ValidationError("label out of range")
            object.__setattr__(self, "true_labels", _freeze(true_labels, np.int64))
        object.__setattr__(self, "ids", _freeze(ids, np.int64))
        object.__setattr__(self, "features", _freeze(features, np.float64))
        object.__setattr__(self, "noisy_labels", _freeze(noisy_labels, np.int64))

    @property
    def num_samples(self) -> int:
        return self.ids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.true_labels is not None

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset restricted to ``indices``, preserving order."""
        indices = np.asarray(indices)
        return Dataset(
            self.num_classes,
            self.ids[indices],
            self.features[indices],
            self.noisy_labels[indices],
            None if self.true_labels is None else self.true_labels[indices],
        )


@dataclass(frozen=True)
class ScoreMatrix:
    """N x C row-stochastic surrogate predictions aligned to a dataset by id:
    every entry finite and non-negative, every row within
    ``ROW_SUM_FILE_TOL`` of 1."""

    values: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        if values.ndim != 2:
            raise ValidationError("score matrix must be 2-D")
        if ids.shape[0] != values.shape[0]:
            raise ValidationError("sample_ids length must equal the row count")
        if not np.isfinite(values).all():
            raise ValidationError("non-finite score value")
        if values.size and values.min() < 0.0:
            bad = np.argwhere(values < 0.0)[0]
            raise ValidationError(f"negative entry at row {bad[0]}, column {bad[1]}")
        deviation = np.abs(values.sum(axis=1) - 1.0)
        if deviation.size and deviation.max() > ROW_SUM_FILE_TOL:
            worst = int(np.argmax(deviation))
            raise ValidationError(
                f"row {worst} sums to {codec.fmt_float(values[worst].sum())}, "
                f"deviation exceeds {ROW_SUM_FILE_TOL}"
            )
        object.__setattr__(self, "values", _freeze(values, np.float64))
        object.__setattr__(self, "sample_ids", _freeze(ids, np.int64))

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_cols(self) -> int:
        return self.values.shape[1]


def check_ids(ids, dataset: Dataset, what: str) -> None:
    """Raise unless ``ids`` lists ``dataset``'s sample ids in order: first the
    row count, then the first row whose id differs."""
    ids = np.asarray(ids)
    if ids.shape != dataset.ids.shape:
        raise ValidationError(f"{what} has {ids.size} rows, dataset has {dataset.num_samples}")
    mismatch = np.flatnonzero(ids != dataset.ids)
    if mismatch.size:
        i = int(mismatch[0])
        raise ValidationError(
            f"{what} id {int(ids[i])} at row {i} does not match dataset id {int(dataset.ids[i])}"
        )


def check_scores(scores: ScoreMatrix, dataset: Dataset) -> None:
    """Raise unless ``scores`` has one row per sample of ``dataset``, in id
    order, and one column per class."""
    check_ids(scores.sample_ids, dataset, "score matrix")
    if scores.num_cols != dataset.num_classes:
        raise ValidationError(
            f"column count {scores.num_cols} does not match {dataset.num_classes} classes"
        )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_dataset(path, dataset: Dataset, fmt: str = "text") -> None:
    """Write a dataset in the v1 text format, or the binary twin with
    ``fmt='binary'``."""
    gt = int(dataset.has_ground_truth)
    n, c, d = dataset.num_samples, dataset.num_classes, dataset.feature_dim
    header = {"N": n, "C": c, "D": d, "GT": gt}
    labels = [dataset.noisy_labels] + ([dataset.true_labels] if gt else [])
    codec.save(path, fmt, codec.DATASET, header, [[dataset.ids, *labels, dataset.features]])


def load_dataset(path) -> Dataset:
    """Load a dataset, text or binary."""
    reader = codec.read(path, codec.DATASET)
    n, c, d, gt = reader.counts
    if gt not in (0, 1):
        raise FormatError(f"{path}: GT must be 0 or 1")
    ids, *labels, feats = reader.rows(n, [int] * (2 + gt) + [(float, d)])
    reader.end()
    bad = np.any([(y < 0) | (y >= c) for y in labels], axis=0)
    if bad.any():
        raise FormatError(f"{reader.where(int(np.argmax(bad)))}: label out of range")
    return Dataset(c, ids, feats, labels[0], labels[1] if gt else None)


def save_score_matrix(path, scores: ScoreMatrix, fmt: str = "text") -> None:
    header = {"N": scores.num_rows, "C": scores.num_cols}
    codec.save(path, fmt, codec.SCORES, header, [[scores.sample_ids, scores.values]])


def load_score_matrix(path, dataset: Dataset) -> ScoreMatrix:
    """Load scores and check them against ``dataset``. A row that drifts
    from 1 by more than ``ROW_SUM_INTERNAL_TOL`` (as low-precision external
    files may) is divided by its sum; every other row stays as read, so a
    saved matrix reloads bit for bit."""
    reader = codec.read(path, codec.SCORES)
    n, c = reader.counts
    ids, values = reader.rows(n, [int, (float, c)])
    reader.end()
    scores = ScoreMatrix(values, ids)
    check_scores(scores, dataset)
    sums = scores.values.sum(axis=1)
    drift = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_INTERNAL_TOL)
    if drift.size == 0:
        return scores
    values = scores.values.copy()
    values[drift] /= sums[drift, None]
    return ScoreMatrix(values, scores.sample_ids)
