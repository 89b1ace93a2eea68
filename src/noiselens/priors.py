"""Class-level statistics feeding the margin-adjusted loss: a transition
matrix averaged from surrogate scores over the full dataset, and a class
frequency prior counted on the noisy labels of the selected clean rows.

Both statistics condition on noisy labels only.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codec
from .data import (
    ROW_SUM_FILE_TOL,
    ROW_SUM_INTERNAL_TOL,
    Dataset,
    ScoreMatrix,
    check_scores,
)
from .errors import ValidationError, array, check_fields

# The prior enters the loss through its logarithm, so zero counts are fatal;
# add-half smoothing keeps every entry positive and washes out as counts grow.
PRIOR_SMOOTHING = 0.5


@dataclass(frozen=True)
class TransitionMatrix:
    """C x C row-stochastic matrix; row i averages the score rows of all
    samples whose noisy label is i.

    ``source_count`` records how many samples backed each row; it is None for
    matrices loaded from file (the format does not carry counts). ``warnings``
    lists classes that had no samples and fell back to a uniform row.
    """

    values: np.ndarray = array(float, "C", "C", noun="transition matrix entry")
    source_count: Optional[np.ndarray] = array(int, "C", default=None)
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        check_fields(self)
        values = self.values
        if values.size == 0:
            raise ValidationError("transition matrix must be non-empty")
        if values.min() < 0.0 or values.max() > 1.0 + ROW_SUM_INTERNAL_TOL:
            raise ValidationError("transition matrix entries must lie in [0, 1]")
        deviation = np.abs(values.sum(axis=1) - 1.0)
        if deviation.max() > ROW_SUM_INTERNAL_TOL:
            raise ValidationError(
                f"transition matrix row {int(np.argmax(deviation))} does not sum to 1"
            )

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ClassPrior:
    """Smoothed class frequencies of a clean subset; raw ratios are
    recoverable as counts / total."""

    values: np.ndarray = array(float, "C", noun="prior entry")
    counts: np.ndarray = array(int, "C")
    total: int

    def __post_init__(self):
        check_fields(self)
        values = self.values
        if values.size == 0:
            raise ValidationError("prior must cover at least one class")
        if values.min() <= 0.0:
            raise ValidationError("smoothed prior entries must be strictly positive")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValidationError("prior must sum to 1")
        if self.counts.sum() != self.total:
            raise ValidationError("counts do not sum to the recorded total")


def estimate_transition_matrix(dataset: Dataset, scores: ScoreMatrix) -> TransitionMatrix:
    """Average the score rows within each noisy-label group over the FULL
    dataset; a class with no samples gets a uniform row and a warning."""
    check_scores(scores, dataset)
    c = dataset.num_classes
    values = np.empty((c, c), dtype=np.float64)
    counts = np.bincount(dataset.noisy_labels, minlength=c).astype(np.int64)
    warnings = []
    for i in range(c):
        if counts[i] == 0:
            values[i] = 1.0 / c
            warnings.append(f"class {i} has no samples; transition row set to uniform")
        else:
            rows = scores.values[dataset.noisy_labels == i]
            values[i] = rows.sum(axis=0) / counts[i]
    return TransitionMatrix(values, counts, tuple(warnings))


def transition_matrix_error(estimated: TransitionMatrix, reference: np.ndarray) -> float:
    """Mean absolute entry-wise difference against a reference row-stochastic
    matrix."""
    reference = np.asarray(reference, dtype=np.float64)
    c = estimated.num_classes
    if reference.shape != (c, c):
        raise ValidationError(
            f"reference shape {reference.shape} does not match ({c}, {c})"
        )
    if np.abs(reference.sum(axis=1) - 1.0).max() > ROW_SUM_FILE_TOL:
        raise ValidationError("reference rows must sum to 1")
    return float(np.abs(estimated.values - reference).mean())


def compute_class_prior(dataset: Dataset, rows=None) -> ClassPrior:
    """Count the noisy labels of the clean samples over the dataset's
    classes and smooth with add-half. The clean samples are ``dataset``
    itself, or its samples at ``rows`` (as from `selection.selected_rows`),
    so no feature is copied to count them."""
    c = dataset.num_classes
    labels = dataset.noisy_labels if rows is None else dataset.noisy_labels[rows]
    counts = np.bincount(labels, minlength=c).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        raise ValidationError("empty subset")
    values = (counts + PRIOR_SMOOTHING) / (total + c * PRIOR_SMOOTHING)
    return ClassPrior(values, counts, total)


def save_transition_matrix(path, matrix: TransitionMatrix) -> None:
    codec.write_text(path, codec.TRANSITION, {"C": matrix.num_classes}, [[matrix.values]])


def load_transition_matrix(path) -> TransitionMatrix:
    with codec.read(path, codec.TRANSITION) as reader:
        (c,) = reader.counts
        (values,) = reader.rows(c, [(float, c)])
        reader.end()
    return TransitionMatrix(values)


def save_class_prior(path, prior: ClassPrior) -> None:
    header = {"C": prior.values.size, "TOTAL": prior.total}
    codec.write_text(path, codec.PRIOR, header, [[prior.counts, prior.values]])


def load_class_prior(path) -> ClassPrior:
    with codec.read(path, codec.PRIOR) as reader:
        c, total = reader.counts
        counts, values = reader.rows(c, [int, float])
        reader.end()
    return ClassPrior(values, counts, total)
