"""Core data model: labeled feature datasets, surrogate score matrices, and
their text/binary serialization.

``check_ids`` is the one check that an array keyed to samples lines up
with a dataset.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import codec
from .errors import FormatError, ValidationError, array, check_fields

# Files ingested from disk carry limited precision; internal computations
# are held to a tighter budget.
ROW_SUM_FILE_TOL = 1e-6
ROW_SUM_INTERNAL_TOL = 1e-9

# Row-wise steps over a whole matrix (scoring, the divergence criterion) run
# one block of this many rows at a time, so no temporary spans every row.
ROW_BLOCK = 2048


def row_blocks(n: int):
    """The ``(lo, hi)`` bounds of rows ``0..n`` in blocks of `ROW_BLOCK`
    rows, the remainder merged into the last block, so fewer than
    2·`ROW_BLOCK` rows are one block. A short tail is never its own block:
    OpenBLAS can round a product of a few rows differently from the same
    rows inside a larger product, and merged blocks give the one-shot
    product's bits."""
    count = max(n // ROW_BLOCK, 1)
    for i in range(count):
        yield i * ROW_BLOCK, n if i == count - 1 else (i + 1) * ROW_BLOCK


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples with a shared feature dimension, each labeled with one of
    ``num_classes`` (at least 2) class indices.

    Either every sample carries a true label or none does; the flag is
    exposed as ``has_ground_truth``. ``features`` is None in a dataset loaded
    for the stages that read ids and labels only. Equality is identity, as
    arrays have no single truth value.
    """

    num_classes: int
    ids: np.ndarray = array(int, "N")
    features: Optional[np.ndarray] = array(float, "N", "D", noun="feature value", optional=True)
    noisy_labels: np.ndarray = array(int, "N")
    true_labels: Optional[np.ndarray] = array(int, "N", default=None)

    def __post_init__(self):
        c = self.num_classes
        if c < 2:
            raise ValidationError("dataset needs at least 2 classes")
        check_fields(self)
        if self.num_samples < 1:
            raise ValidationError("dataset must contain at least one sample")
        # One sorted copy of the ids: np.unique would hold two and a mask.
        ids = np.sort(self.ids)
        if (ids[1:] == ids[:-1]).any():
            raise ValidationError("duplicate id in dataset")
        for labels in (self.noisy_labels, self.true_labels):
            if labels is not None and (labels.min() < 0 or labels.max() >= c):
                raise ValidationError("label out of range")

    @property
    def num_samples(self) -> int:
        return self.ids.shape[0]

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise ValidationError("dataset was loaded without its features")
        return self.features.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.true_labels is not None

    def subset(self, indices) -> "Dataset":
        """New dataset restricted to ``indices``, preserving order. A slice
        gives views of this dataset's arrays, not copies."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
        return Dataset(
            self.num_classes,
            self.ids[indices],
            None if self.features is None else self.features[indices],
            self.noisy_labels[indices],
            None if self.true_labels is None else self.true_labels[indices],
        )


@dataclass(frozen=True)
class ScoreMatrix:
    """N x C row-stochastic surrogate predictions aligned to a dataset by id:
    every entry finite and non-negative, every row within
    ``ROW_SUM_FILE_TOL`` of 1."""

    values: np.ndarray = array(float, "N", "C", noun="score value")
    sample_ids: np.ndarray = array(int, "N")

    def __post_init__(self):
        check_fields(self)
        values = self.values
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

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_cols(self) -> int:
        return self.values.shape[1]


def check_ids(ids, dataset: Dataset, what: str) -> None:
    """Raise unless ``ids`` lists ``dataset``'s sample ids in order: first the
    row count, then the first row whose id differs."""
    if ids.shape != dataset.ids.shape:
        raise ValidationError(f"{what} has {ids.size} rows, dataset has {dataset.num_samples}")
    mismatch = np.flatnonzero(ids != dataset.ids)
    if mismatch.size:
        i = int(mismatch[0])
        raise ValidationError(
            f"{what} id {int(ids[i])} at row {i} does not match dataset id {int(dataset.ids[i])}"
        )


def selected_rows(dataset: Dataset, mask) -> np.ndarray:
    """The ascending row indices of the samples the `selection.SelectionMask`
    ``mask`` marks clean, after checking that the mask's ids are the
    dataset's; an empty selection is an error."""
    check_ids(mask.sample_ids, dataset, "mask")
    rows = np.flatnonzero(mask.verdicts)
    if rows.size == 0:
        raise ValidationError(
            "empty selection: no sample passed the threshold, training cannot proceed"
        )
    return rows


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


def load_dataset(path, keep=True) -> Dataset:
    """Load a dataset, text or binary. The ids and labels of every record
    are parsed and checked; ``keep`` says whose features are. ``True``:
    every record's. ``False``: none, and ``features`` is None. Else a
    function, called once the header has been read, that returns a
    `selection.SelectionMask`: only the rows it marks clean are parsed, and
    the dataset is ``apply_mask(load_dataset(path), mask)``."""
    with codec.read(path, codec.DATASET) as reader:
        n, c, d, gt = reader.counts
        if gt not in (0, 1):
            raise FormatError(f"{path}: GT must be 0 or 1")
        mask = None if isinstance(keep, bool) else keep()
        if keep is True:
            rows = None
        else:  # a mask's ids are checked once the dataset's are parsed
            rows = np.flatnonzero([] if mask is None else mask.verdicts[:n])
        ids, *labels, feats = reader.rows(n, [int] * (2 + gt) + [(float, d)], keep=rows)
        reader.end()
    dataset = _labelled(reader, c, ids, labels, feats if keep is True else None)
    if mask is None:
        return dataset
    return replace(dataset.subset(selected_rows(dataset, mask)), features=feats)


def _labelled(reader, c: int, ids, labels: list, features) -> Dataset:
    """The dataset of the arrays ``reader`` read, once every label lies in
    ``[0, c)``; else the first record holding one that does not."""
    bad = np.any([(y < 0) | (y >= c) for y in labels], axis=0)
    if bad.any():
        raise FormatError(f"{reader.where(int(np.argmax(bad)))}: label out of range")
    return Dataset(c, ids, features, labels[0], labels[1] if len(labels) > 1 else None)


def block_rows(path, start) -> tuple:
    """The dataset file at ``path``, text or binary, without its features,
    and the N x W rows of a function of them that sees one `row_blocks`
    block at a time. ``start(c, d)``, called once the header has been read
    and before the file is known to hold N records, returns that function
    of a block's features and the index of its first row; W is the width
    of the first block's rows. A block's errors are those ``load_dataset``
    gives for that block alone, so the first block with a faulty record is
    the one named, and no later block is parsed; then come the checks
    ``load_dataset(path, keep=False)`` makes after its records (label
    range, duplicate ids, N >= 1)."""
    with codec.read(path, codec.DATASET) as reader:
        n, c, d, gt = reader.counts
        if gt not in (0, 1):
            raise FormatError(f"{path}: GT must be 0 or 1")
        rows_of = start(c, d)
        blocks = reader.blocks(n, [int] * (2 + gt) + [(float, d)], row_blocks(n))
        ids, labels, out = np.empty(n, np.int64), np.empty((1 + gt, n), np.int64), None
        for lo, hi in row_blocks(n):
            *head, features = next(blocks)
            ids[lo:hi], labels[:, lo:hi] = head[0], head[1:]
            rows = rows_of(features, lo)
            if out is None:
                out = np.empty((n, rows.shape[1]))
            out[lo:hi] = rows
            # A block's columns may share one mapping, so none of them is
            # held while the next block is parsed.
            head = features = rows = None
        reader.end()
    return _labelled(reader, c, ids, list(labels), None), out


def save_score_matrix(path, scores: ScoreMatrix, fmt: str = "text") -> None:
    header = {"N": scores.num_rows, "C": scores.num_cols}
    codec.save(path, fmt, codec.SCORES, header, [[scores.sample_ids, scores.values]])


def load_score_matrix(path, dataset: Dataset) -> ScoreMatrix:
    """Load scores and check them against ``dataset``. A row that drifts
    from 1 by more than ``ROW_SUM_INTERNAL_TOL`` (as low-precision external
    files may) is divided by its sum; every other row stays as read, so a
    saved matrix reloads bit for bit."""
    with codec.read(path, codec.SCORES) as reader:
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
