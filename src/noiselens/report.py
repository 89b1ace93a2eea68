"""Evaluation metrics and analysis artifacts: accuracy, fixed-bin
confidence histograms, and selection-threshold sweeps."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import fmt_float
from .data import Dataset, ScoreMatrix
from .errors import NoiseLensError, ValidationError, array, check_fields, check_range
from .losses import MarginConfig
from .noise import selection_quality
from .priors import compute_class_prior, estimate_transition_matrix
from .selection import select_by_confidence, selected_rows
from .trainer import TrainConfig, predict, train_heads

NUM_BINS = 10


def accuracy(predictions, reference_labels) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    reference_labels = np.asarray(reference_labels)
    if predictions.shape != reference_labels.shape or predictions.ndim != 1:
        raise ValidationError("predictions and reference labels must be 1-D and equal length")
    if predictions.size == 0:
        raise ValidationError("empty prediction vector")
    return float(np.mean(predictions == reference_labels))


def top_k_accuracy(probabilities: np.ndarray, reference_labels, k: int) -> float:
    """Hit when the reference class is among the k highest-probability
    classes; equal probabilities rank lower class indices first."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    reference_labels = np.asarray(reference_labels)
    if probabilities.ndim != 2:
        raise ValidationError("probabilities must be a 2-D array")
    n, c = probabilities.shape
    if reference_labels.shape != (n,):
        raise ValidationError("predictions and reference labels must be equal length")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"k must be an integer, not {k!r}")
    check_range("k", k, f"[1, {c}]")
    # Stable sort on negated values keeps the lowest class index first among ties.
    ranked = np.argsort(-probabilities, axis=1, kind="stable")[:, :k]
    hits = (ranked == reference_labels[:, None]).any(axis=1)
    return float(np.mean(hits))


def evaluate(classifier, dataset: Dataset, top_k: int = 0) -> dict:
    """``accuracy`` of ``classifier`` on ``dataset``, plus ``top{k}_accuracy``
    when ``top_k`` is set. The reference is the true labels when the dataset
    has them, else its noisy labels."""
    reference = dataset.true_labels if dataset.has_ground_truth else dataset.noisy_labels
    prediction = predict(classifier, dataset)
    metrics = {"accuracy": accuracy(prediction.labels, reference)}
    if top_k:
        metrics[f"top{top_k}_accuracy"] = top_k_accuracy(prediction.probabilities, reference, top_k)
    return metrics


@dataclass(frozen=True)
class HistogramReport:
    """Counts of confidence values over the ten fixed bins
    [0,0.1), ..., [0.9,1.0]; a value of exactly 1.0 lands in the last bin."""

    bin_edges: np.ndarray = array(float, NUM_BINS + 1)
    counts: np.ndarray = array(int, NUM_BINS)
    source: str = ""

    def __post_init__(self):
        check_fields(self)
        if self.counts.min() < 0:
            raise ValidationError("histogram counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confidence_histogram(values, source: str = "") -> HistogramReport:
    """Bin confidence values into ten equal intervals over [0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("values must be a non-empty 1-D array")
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        bad = int(np.argmax(~((values >= 0.0) & (values <= 1.0))))
        raise ValidationError(f"value {fmt_float(values[bad])} at index {bad} is outside [0, 1]")
    # arange/10 gives exact decimal edges (0.3, not 0.30000000000000004).
    edges = np.arange(NUM_BINS + 1) / NUM_BINS
    bins = np.searchsorted(edges, values, side="right") - 1
    bins[values == 1.0] = NUM_BINS - 1
    counts = np.bincount(bins, minlength=NUM_BINS)
    return HistogramReport(bin_edges=edges, counts=counts, source=source)


@dataclass(frozen=True)
class TrainingBundle:
    """Everything the sweep needs downstream of selection."""

    margin: MarginConfig
    train: TrainConfig
    test_dataset: Dataset


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    selected_count: int
    precision: Optional[float]
    recall: Optional[float]
    test_accuracy: Optional[float]
    skipped: bool = False
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    points: tuple

    def __post_init__(self):
        # Skipped points may carry a placeholder count (selection itself can
        # fail); the invariant is asserted over the counts that are real.
        counts = [p.selected_count for p in self.points if not p.skipped or p.error == "empty selection"]
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise ValidationError("selected_count must be non-increasing along the sweep")


def threshold_sweep(
    dataset: Dataset,
    scores: ScoreMatrix,
    thresholds,
    bundle: TrainingBundle,
) -> SweepReport:
    """Run select -> prior -> train -> evaluate once per threshold.

    The transition matrix comes from the full dataset and is shared across
    thresholds; the class prior is recomputed per threshold from the noisy
    labels of that threshold's selected rows, so no features are copied.
    The heads of every threshold train together in one ``train_heads``
    call, each exactly as a lone ``train`` would.
    Thresholds whose selection is empty (or whose pipeline fails) are
    marked skipped instead of aborting the sweep.
    """
    try:
        thresholds = [float(t) for t in thresholds]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"thresholds must be numbers: {exc}") from None
    if not thresholds:
        raise ValidationError("no thresholds given")
    # Written as not-greater so that a NaN fails it.
    if any(not b > a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be strictly ascending")
    matrix = estimate_transition_matrix(dataset, scores)
    points = {}
    selected = []  # (threshold, mask, rows, prior) of each threshold that trains
    for rho in thresholds:
        try:
            mask = select_by_confidence(dataset, scores, rho)
        except ValidationError as exc:
            points[rho] = SweepPoint(rho, 0, None, None, None, skipped=True, error=str(exc))
            continue
        if mask.selected_count == 0:
            points[rho] = SweepPoint(rho, 0, None, None, None, skipped=True, error="empty selection")
            continue
        try:
            rows = selected_rows(dataset, mask)
            prior = compute_class_prior(dataset, rows)
        except NoiseLensError as exc:
            points[rho] = _failed(rho, mask, exc)
            continue
        selected.append((rho, mask, rows, prior))

    reports = train_heads(
        dataset,
        [rows for _, _, rows, _ in selected],
        matrix,
        [prior for _, _, _, prior in selected],
        bundle.margin,
        bundle.train,
    )
    for (rho, mask, _, _), report in zip(selected, reports):
        try:
            if isinstance(report, NoiseLensError):
                raise report
            test_acc = evaluate(report.classifier, bundle.test_dataset)["accuracy"]
        except NoiseLensError as exc:
            points[rho] = _failed(rho, mask, exc)
            continue
        if dataset.has_ground_truth:
            quality = selection_quality(mask, dataset)
            precision, recall = quality.precision, quality.recall
        else:
            precision = recall = None
        points[rho] = SweepPoint(rho, mask.selected_count, precision, recall, test_acc)
    return SweepReport(points=tuple(points[rho] for rho in thresholds))


def _failed(rho: float, mask, exc: NoiseLensError) -> SweepPoint:
    return SweepPoint(rho, mask.selected_count, None, None, None, skipped=True, error=str(exc))


def format_records(rows) -> str:
    """One record per line as space-separated key=value pairs.

    Whitespace inside a value would make the tokens ambiguous to split, so
    it is replaced with underscores; the table formatter keeps it verbatim.
    """
    lines = []
    for row in rows:
        lines.append(
            " ".join(f"{key}={'_'.join(_render(value).split())}" for key, value in row.items())
        )
    return "\n".join(lines) + "\n" if lines else ""


def format_table(rows) -> str:
    """Aligned columns with a header row, for humans."""
    rows = list(rows)
    if not rows:
        return ""
    keys = list(rows[0].keys())
    cells = [[str(key) for key in keys]]
    for row in rows:
        if list(row.keys()) != keys:
            raise ValidationError("all rows must share the same columns")
        cells.append([_render(row[key]) for key in keys])
    widths = [max(len(line[i]) for line in cells) for i in range(len(keys))]
    out = []
    for line in cells:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def _render(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def histogram_rows(report: HistogramReport):
    rows = []
    for i in range(NUM_BINS):
        rows.append(
            {
                "bin_low": report.bin_edges[i],
                "bin_high": report.bin_edges[i + 1],
                "count": int(report.counts[i]),
                "source": report.source or "-",
            }
        )
    return rows
