"""Clean-sample selection: prediction confidence and prompt consistency.

Both criteria give each sample a score, and `SelectionMask` compares it with a
strict threshold: confidence keeps high scores, consistency keeps low divergences.
Selection reads only noisy labels and scores, never ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from . import codec
from .data import ROW_SUM_INTERNAL_TOL, Dataset, ScoreMatrix, _freeze, check_ids, check_scores
from .errors import FormatError, ValidationError

CRITERION_CONFIDENCE = "confidence"
CRITERION_PROMPT_CONSISTENCY = "prompt_consistency"

LN2 = float(np.log(2.0))

# Probability entries below this are treated as exact zeros inside the
# divergence, keeping x*log(x) well-defined at the boundary.
ZERO_CUTOFF = 1e-15

DEFAULT_CONFIDENCE_THRESHOLD = 0.5
# No validated reference value exists for the consistency threshold; 0.1 keeps
# identical score pairs selected and disjoint-support pairs rejected.
DEFAULT_CONSISTENCY_THRESHOLD = 0.1


@dataclass(frozen=True)
class SelectionMask:
    """Per-sample scores, the criterion and threshold that judge them, and
    the clean/rejected verdicts derived from the three."""

    sample_ids: np.ndarray
    scores: np.ndarray
    criterion: str
    threshold: float
    verdicts: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ids.shape != scores.shape or ids.ndim != 1 or ids.size == 0:
            raise ValidationError("mask fields must be equal-length, non-empty 1-D arrays")
        check_threshold(self.criterion, self.threshold)
        confidence = self.criterion == CRITERION_CONFIDENCE
        verdicts = scores > self.threshold if confidence else scores < self.threshold
        object.__setattr__(self, "sample_ids", _freeze(ids, np.int64))
        object.__setattr__(self, "scores", _freeze(scores, np.float64))
        object.__setattr__(self, "verdicts", _freeze(verdicts, bool))

    @property
    def selected_count(self) -> int:
        return int(self.verdicts.sum())


def check_threshold(criterion: str, threshold: float) -> None:
    """The threshold range of a criterion: rho in (0, 1) for confidence, a
    positive mu for prompt consistency."""
    if criterion == CRITERION_CONFIDENCE:
        if not 0.0 < threshold < 1.0:
            raise ValidationError(f"rho {threshold!r} must lie in (0, 1)")
    elif criterion == CRITERION_PROMPT_CONSISTENCY:
        if not threshold > 0.0:
            raise ValidationError(f"mu {threshold!r} must be positive")
    else:
        raise ValidationError(f"unknown criterion {criterion!r}")


def select_by_confidence(dataset: Dataset, scores: ScoreMatrix, rho: float) -> SelectionMask:
    """Keep sample i when its score at the noisy label strictly exceeds rho."""
    check_scores(scores, dataset)
    at_label = scores.values[np.arange(dataset.num_samples), dataset.noisy_labels]
    return SelectionMask(dataset.ids, at_label, CRITERION_CONFIDENCE, rho)


def _js_rows(pq: np.ndarray) -> np.ndarray:
    """Row-wise Jensen-Shannon divergence in nats between ``pq[0]`` and
    ``pq[1]``, zeros handled by the x*log(x) -> 0 limit. Overwrites the
    near-zero entries of ``pq``, so callers pass a fresh stack."""
    pq[pq < ZERO_CUTOFF] = 0.0
    m = 0.5 * (pq[0] + pq[1])
    # Both half-KL terms at once; a zero entry keeps ratio 1 and adds 0*log(1).
    ratio = np.divide(pq, m, out=np.ones_like(pq), where=pq > 0.0)
    half_kl = (pq * np.log(ratio)).sum(axis=-1)
    return np.maximum(0.5 * half_kl[0] + 0.5 * half_kl[1], 0.0)


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence between two probability vectors, natural
    log, bounded by [0, ln 2]."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    for name, x in (("p", p), ("q", q)):
        if x.ndim != 1:
            raise ValidationError(f"{name} must be a 1-D probability vector")
    if p.shape != q.shape:
        raise ValidationError("p and q must have the same length")
    pq = np.array((p, q))
    if pq.min() < 0.0:
        name = "p" if p.min() < 0.0 else "q"
        raise ValidationError(f"{name} has a negative entry")
    for name, total in zip("pq", pq.sum(axis=-1).tolist()):
        if abs(total - 1.0) > ROW_SUM_INTERNAL_TOL:
            raise ValidationError(f"{name} sums to {total!r}, not 1")
    return float(_js_rows(pq))


def select_by_prompt_consistency(
    dataset: Dataset,
    scores_a: ScoreMatrix,
    scores_b: ScoreMatrix,
    mu: float,
) -> SelectionMask:
    """Keep sample i when the divergence between its two prompt-variant score
    rows is strictly below mu."""
    check_scores(scores_a, dataset)
    check_scores(scores_b, dataset)
    distances = _js_rows(np.array((scores_a.values, scores_b.values)))
    return SelectionMask(dataset.ids, distances, CRITERION_PROMPT_CONSISTENCY, mu)


def apply_mask(dataset: Dataset, mask: SelectionMask) -> Dataset:
    """Restrict the dataset to the samples the mask marks clean, preserving
    order and ids."""
    check_ids(mask.sample_ids, dataset, "mask")
    indices = np.nonzero(mask.verdicts)[0]
    if indices.size == 0:
        raise ValidationError(
            "empty selection: no sample passed the threshold, training cannot proceed"
        )
    return dataset.subset(indices)


def save_mask(path, mask: SelectionMask) -> None:
    header = {
        "N": mask.sample_ids.size,
        "CRITERION": mask.criterion,
        "THRESHOLD": codec.fmt_float(mask.threshold),
    }
    columns = [mask.sample_ids, mask.scores, mask.verdicts.astype(np.int64)]
    codec.write_text(path, codec.MASK, header, [columns])


def load_mask(path) -> SelectionMask:
    reader = codec.read(path, codec.MASK)
    (n,) = reader.counts
    threshold = reader.real("THRESHOLD")
    ids, scores, flags = reader.rows(n, [int, float, int])
    reader.end()
    bad = (flags != 0) & (flags != 1)
    if bad.any():
        raise FormatError(f"{reader.where(int(np.argmax(bad)))}: verdict must be 0 or 1")
    mask = SelectionMask(ids, scores, reader.header["CRITERION"], threshold)
    if not np.array_equal(mask.verdicts, flags == 1):
        raise ValidationError("verdicts are inconsistent with scores and threshold")
    return mask
