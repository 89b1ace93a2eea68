"""Clean-sample selection: prediction confidence and prompt consistency.

Both criteria give each sample a score, and `SelectionMask` compares it with a
strict threshold: confidence keeps high scores, consistency keeps low divergences.
Selection reads only noisy labels and scores, never ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from . import codec
from .data import ROW_SUM_INTERNAL_TOL, Dataset, ScoreMatrix, check_ids, check_scores, row_blocks
from .errors import FormatError, ValidationError, array, check_fields, check_range, check_reads

CRITERION_CONFIDENCE = "confidence"
CRITERION_PROMPT_CONSISTENCY = "prompt_consistency"

LN2 = float(np.log(2.0))

# Probability entries below this are treated as exact zeros inside the
# divergence, keeping x*log(x) well-defined at the boundary.
ZERO_CUTOFF = 1e-15

# criterion -> (threshold name, interval, default). No validated reference
# value exists for mu; 0.1 keeps identical score pairs selected and
# disjoint-support pairs rejected.
THRESHOLDS = {
    CRITERION_CONFIDENCE: ("rho", "(0, 1)", 0.5),
    CRITERION_PROMPT_CONSISTENCY: ("mu", "(0, inf)", 0.1),
}
# Each selection setting -> the criteria that read it: its own threshold,
# and the second score matrix that prompt consistency compares.
READERS = {name: (criterion,) for criterion, (name, _, _) in THRESHOLDS.items()}
READERS["scores_b"] = (CRITERION_PROMPT_CONSISTENCY,)


@dataclass(frozen=True)
class SelectionMask:
    """Per-sample scores, the criterion and threshold that judge them, and
    the clean/rejected verdicts derived from the three."""

    sample_ids: np.ndarray = array(int, "N")
    scores: np.ndarray = array(float, "N")
    criterion: str
    threshold: float
    verdicts: np.ndarray = field(init=False)

    def __post_init__(self):
        check_fields(self)
        if self.sample_ids.size == 0:
            raise ValidationError("mask must hold at least one sample")
        check_threshold(self.criterion, self.threshold)
        confidence = self.criterion == CRITERION_CONFIDENCE
        verdicts = self.scores > self.threshold if confidence else self.scores < self.threshold
        verdicts.flags.writeable = False
        object.__setattr__(self, "verdicts", verdicts)

    @property
    def selected_count(self) -> int:
        return int(self.verdicts.sum())


def check_threshold(criterion: str, threshold: float) -> None:
    """Hold ``threshold`` to the interval of ``criterion``'s threshold."""
    if criterion not in THRESHOLDS:
        raise ValidationError(f"unknown criterion {criterion!r}")
    name, interval, _ = THRESHOLDS[criterion]
    check_range(name, threshold, interval)


def criterion_threshold(criterion: str, settings: dict, names: dict) -> float:
    """The checked threshold of ``criterion``, from the settings a front end
    was given (`READERS` name -> value or None), spelled in errors as
    ``names`` spells each setting and criterion choice: `--mu requires
    --criterion prompt-consistency`."""
    check_reads(settings, READERS, (criterion,), names)
    name, _, default = THRESHOLDS[criterion]
    threshold = default if settings[name] is None else settings[name]
    check_threshold(criterion, threshold)
    return threshold


def select_by_confidence(dataset: Dataset, scores: ScoreMatrix, rho: float) -> SelectionMask:
    """Keep sample i when its score at the noisy label strictly exceeds rho."""
    check_scores(scores, dataset)
    at_label = scores.values[np.arange(dataset.num_samples), dataset.noisy_labels]
    return SelectionMask(dataset.ids, at_label, CRITERION_CONFIDENCE, rho)


def _js_rows(pq: np.ndarray) -> np.ndarray:
    """Row-wise Jensen-Shannon divergence in nats between ``pq[0]`` and
    ``pq[1]``, zeros handled by the x*log(x) -> 0 limit. Overwrites the
    near-zero entries of ``pq``, so callers pass a fresh stack. Its
    temporaries are a few times the size of ``pq``, so a caller with many
    rows passes one `row_blocks` block at a time; each row's divergence
    depends on that row alone."""
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
    a, b = scores_a.values, scores_b.values
    distances = np.empty(dataset.num_samples)
    for lo, hi in row_blocks(dataset.num_samples):
        distances[lo:hi] = _js_rows(np.array((a[lo:hi], b[lo:hi])))
    return SelectionMask(dataset.ids, distances, CRITERION_PROMPT_CONSISTENCY, mu)


def selected_rows(dataset: Dataset, mask: SelectionMask) -> np.ndarray:
    """The ascending row indices of the samples the mask marks clean, after
    checking that the mask's ids are the dataset's; an empty selection is
    an error."""
    check_ids(mask.sample_ids, dataset, "mask")
    rows = np.flatnonzero(mask.verdicts)
    if rows.size == 0:
        raise ValidationError(
            "empty selection: no sample passed the threshold, training cannot proceed"
        )
    return rows


def apply_mask(dataset: Dataset, mask: SelectionMask) -> Dataset:
    """Restrict the dataset to the samples the mask marks clean, preserving
    order and ids."""
    return dataset.subset(selected_rows(dataset, mask))


def save_mask(path, mask: SelectionMask) -> None:
    header = {
        "N": mask.sample_ids.size,
        "CRITERION": mask.criterion,
        "THRESHOLD": codec.fmt_float(mask.threshold),
    }
    columns = [mask.sample_ids, mask.scores, mask.verdicts.astype(np.int64)]
    codec.write_text(path, codec.MASK, header, [columns])


def load_mask(path) -> SelectionMask:
    with codec.read(path, codec.MASK) as reader:
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
