"""Margin-adjusted training objective and exact gradients.

The adjusted probability for a sample labeled y shifts every class logit by
a noise-aware term (delta times the y-th transition-matrix row) and a
balance term (t times the log class prior), rescales by 1/s, and applies a
softmax:

    p_hat_j = softmax_j( (z_j + delta * M[y, j] + t * log pi_j) / s )

The training loss is the focal loss evaluated at the labeled entry,
(1 - p_hat_y)^gamma * (-log p_hat_y), averaged over the batch. Gradients
with respect to the logits are analytic, with the modulating factor treated
as a function of p_hat (full chain rule, pinned by finite-difference tests).

All reductions run in float64; batch means use compensated summation so
repeated runs are bit-identical.

``nabm_loss_batch`` also takes a leading head axis, so that one call serves
several heads trained in lockstep. Every step after the margin terms acts
on one sample row at a time, so a head's entries come out bit for bit as
from its own 2-D call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_fields, check_kind, check_range, ranged
from .priors import ClassPrior, TransitionMatrix


@dataclass(frozen=True)
class MarginConfig:
    """Weights of the margin terms: delta (noise-aware), t (balance),
    s (temperature), gamma (focal exponent)."""

    delta: float = ranged("[0, inf)", 0.5)
    t: float = ranged("[0, inf)", 1.0)
    s: float = ranged("(0, inf)", 1.0)
    gamma: float = ranged("[0, inf)", 1.0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class LossBatch:
    """Per-sample losses, adjusted label probabilities, and logit gradients
    for one mini-batch."""

    per_sample_loss: np.ndarray
    grad_logits: np.ndarray
    nabm_prob: np.ndarray

    @property
    def mean_loss(self) -> float:
        """Mean over every sample (of every head, with a head axis)."""
        return math.fsum(self.per_sample_loss.ravel().tolist()) / self.per_sample_loss.size


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(a - m).sum(axis=1))


def _check_logits(logits: np.ndarray, name: str = "logits") -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValidationError(f"non-finite {name}")
    return logits


def check_classes(matrix: TransitionMatrix, prior: ClassPrior, c: int) -> None:
    """Raise unless the transition matrix and the prior both cover ``c``
    classes."""
    if matrix.num_classes != c or prior.values.size != c:
        raise ValidationError(
            f"transition matrix ({matrix.num_classes}) / prior ({prior.values.size}) "
            f"classes do not match {c}"
        )


def _adjusted_log_probs(
    logits: np.ndarray,
    labels: np.ndarray,
    matrix: TransitionMatrix,
    log_prior: np.ndarray,
    cfg: MarginConfig,
) -> np.ndarray:
    """Log-softmax of the margin-adjusted logits, one row per sample; a
    leading head axis is folded into the rows. ``log_prior`` broadcasts
    against the logits."""
    adjusted = (logits + cfg.delta * matrix.values[labels] + cfg.t * log_prior) / cfg.s
    adjusted = adjusted.reshape(-1, adjusted.shape[-1])
    return adjusted - _logsumexp_rows(adjusted)[:, None]


def nabm_probability(
    logits: np.ndarray,
    label: int,
    matrix: TransitionMatrix,
    prior: ClassPrior,
    cfg: MarginConfig,
) -> np.ndarray:
    """Margin-adjusted probability vector for a single sample; the entry at
    ``label`` is the quantity the focal loss acts on."""
    logits = _check_logits(logits)
    if logits.ndim != 1:
        raise ValidationError("logits must be a 1-D vector")
    c = logits.shape[0]
    check_classes(matrix, prior, c)
    if not 0 <= label < c:
        raise ValidationError("label out of range")
    log_prior = np.log(prior.values)
    log_probs = _adjusted_log_probs(logits[None, :], np.array([label]), matrix, log_prior, cfg)
    return np.exp(log_probs[0])


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Plain softmax cross-entropy, computed through log-sum-exp."""
    logits = _check_logits(logits)
    if logits.ndim != 1:
        raise ValidationError("logits must be a 1-D vector")
    if not 0 <= label < logits.shape[0]:
        raise ValidationError("label out of range")
    return float(_logsumexp_rows(logits[None, :])[0] - logits[label])


def focal_loss(prob_at_label: float, gamma: float) -> float:
    """(1 - p)^gamma * (-log p) for p in (0, 1]."""
    check_range("gamma", gamma, "[0, inf)")
    if not prob_at_label > 0.0:
        raise ValidationError(
            f"probability {prob_at_label!r} is not positive; upstream numerics failed"
        )
    if prob_at_label > 1.0:
        raise ValidationError(f"probability {prob_at_label!r} exceeds 1")
    return float((1.0 - prob_at_label) ** gamma * -np.log(prob_at_label))


def nabm_loss_batch(
    logits: np.ndarray,
    labels: np.ndarray,
    matrix: TransitionMatrix,
    prior,
    cfg: MarginConfig,
) -> LossBatch:
    """Focal loss over margin-adjusted probabilities for a batch, with
    analytic logit gradients.

    Writing p for the adjusted softmax row, y for the label and g for
    p_y * dloss/dp_y, the gradient is g * (onehot_y - p) / s with

        g = gamma * (1 - p_y)^(gamma - 1) * p_y * log(p_y) - (1 - p_y)^gamma

    Logits are (B, C) with labels (B,) and one ``ClassPrior``, or (G, B, C)
    with labels (G, B) and a sequence of G priors, one per head; the outputs
    keep the leading axes of the logits. Labels must hold integers: a float
    label is rejected, not truncated.
    """
    logits = _check_logits(logits)
    labels = np.asarray(check_kind("labels", labels, int), dtype=np.int64)
    if logits.ndim == 2:
        priors = (prior,)
    elif logits.ndim == 3:
        priors = (prior,) if isinstance(prior, ClassPrior) else tuple(prior)
        if len(priors) != logits.shape[0]:
            raise ValidationError(f"{len(priors)} priors for {logits.shape[0]} heads")
    else:
        raise ValidationError("batch logits must be a 2-D array, or 3-D with a leading head axis")
    c = logits.shape[-1]
    if logits.size == 0:
        raise ValidationError("empty batch")
    if labels.shape != logits.shape[:-1]:
        raise ValidationError("labels length must equal the batch size")
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError("label out of range")
    for p in priors:
        check_classes(matrix, p, c)
    # One row per head, broadcast over that head's batch.
    log_prior = np.log(np.concatenate([p.values for p in priors]))
    log_prior = log_prior.reshape(logits.shape[:-2] + (1, c))

    log_probs = _adjusted_log_probs(logits, labels, matrix, log_prior, cfg)
    probs = np.exp(log_probs)
    labels = labels.reshape(-1)
    rows = np.arange(labels.size)
    log_p_hat = log_probs[rows, labels]
    p_hat = probs[rows, labels]

    one_minus = 1.0 - p_hat
    focal = one_minus ** cfg.gamma
    loss = focal * -log_p_hat

    scale = -focal
    if cfg.gamma != 0.0:
        # (1-p)^(gamma-1) blows up at p=1 for gamma<1, but its product with
        # log(p) -> 0 there; evaluate only where 1-p > 0. Saturated rows are
        # rare, so a batch without one is evaluated whole.
        k = ... if one_minus.min() > 0.0 else one_minus > 0.0
        scale[k] += cfg.gamma * one_minus[k] ** (cfg.gamma - 1.0) * p_hat[k] * log_p_hat[k]

    # The softmax rows become the gradient buffer; p_hat is already a copy.
    grad = probs
    grad[rows, labels] -= 1.0
    grad *= -scale[:, None] / cfg.s

    per_row = logits.shape[:-1]
    return LossBatch(
        per_sample_loss=loss.reshape(per_row),
        grad_logits=grad.reshape(logits.shape),
        nabm_prob=p_hat.reshape(per_row),
    )
