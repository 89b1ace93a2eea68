"""Linear-head training loop on precomputed features.

Mini-batch SGD with momentum. Weight decay is applied as a decoupled
multiplicative shrink: every step first scales the parameters by
(1 - weight_decay) and then subtracts learning_rate times the momentum
buffer. With learning_rate=0 the parameters therefore still shrink, and
with weight_decay=0 the two schedules coincide bit-for-bit.

Each step updates its buffers in place, in this order:

    velocity *= momentum;  velocity += gradient
    params *= (1 - weight_decay);  params -= learning_rate * velocity

which rounds exactly as ``velocity = momentum * velocity + gradient`` and
``params = (1 - weight_decay) * params - learning_rate * velocity``.

The margin terms only shape the training objective; prediction is a plain
softmax over the linear logits.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codec
from .data import Dataset
from .errors import TrainingDivergedError, ValidationError, array, check_fields, ranged
from .losses import MarginConfig, check_classes, nabm_loss_batch
from .priors import ClassPrior, TransitionMatrix


@dataclass(frozen=True)
class LinearClassifier:
    """Per-class weights (C, d) and biases (C,)."""

    weights: np.ndarray = array(float, "C", "D")
    bias: np.ndarray = array(float, "C")

    __post_init__ = check_fields

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights.T + self.bias


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = ranged("[1, inf)", 10)
    batch_size: int = ranged("[1, inf)", 128)
    learning_rate: float = ranged("[0, inf)", 0.1)
    weight_decay: float = ranged("[0, 1)", 0.0)
    momentum: float = ranged("[0, 1)", 0.9)
    seed: int = ranged("[0, inf)", 0)
    shuffle: bool = True
    lr_step_every: int = ranged("[0, inf)", 0)
    lr_step_factor: float = ranged("(0, 1]", 0.1)

    __post_init__ = check_fields


@dataclass(frozen=True)
class TrainReport:
    """Loss / accuracy trajectory plus the final parameters."""

    epoch_losses: tuple
    epoch_train_accuracy: tuple
    classifier: LinearClassifier
    wall_seconds: float


@dataclass(frozen=True)
class PredictionResult:
    """Linear logits and their argmax labels; ``probabilities`` is the row
    softmax of the logits, computed on first access."""

    logits: np.ndarray
    labels: np.ndarray

    @cached_property
    def probabilities(self) -> np.ndarray:
        return _softmax_rows(self.logits)


def init_classifier(feature_dim: int, num_classes: int, seed: int = 0) -> LinearClassifier:
    """Fresh head: weights uniform on +-1/sqrt(d), biases zero."""
    if feature_dim < 1 or num_classes < 2:
        raise ValidationError("need at least 1 feature dimension and 2 classes")
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(feature_dim)
    weights = rng.uniform(-bound, bound, size=(num_classes, feature_dim))
    return LinearClassifier(weights=weights, bias=np.zeros(num_classes))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(classifier: LinearClassifier, dataset: Dataset) -> PredictionResult:
    """Logits and argmax labels (ties go to the lowest class index); the
    softmax probabilities follow on first access. Margins never enter
    here."""
    if dataset.feature_dim != classifier.feature_dim:
        raise ValidationError(
            f"feature dim {dataset.feature_dim} does not match classifier dim {classifier.feature_dim}"
        )
    if dataset.num_classes != classifier.num_classes:
        raise ValidationError(
            f"dataset has {dataset.num_classes} classes, classifier has {classifier.num_classes}"
        )
    logits = classifier.logits(dataset.features)
    return PredictionResult(logits=logits, labels=np.argmax(logits, axis=1))


def train(
    subset: Dataset,
    matrix: TransitionMatrix,
    prior: ClassPrior,
    margin: MarginConfig,
    cfg: TrainConfig,
) -> TrainReport:
    """Train a freshly initialized linear head on the subset's noisy labels.

    Epoch order is deterministic in cfg.seed: initialization uses seed
    directly, shuffling uses the derived stream [seed, 1]. The last
    incomplete batch is kept, and every batch gradient is divided by its
    actual size.
    """
    c = subset.num_classes
    check_classes(matrix, prior, c)
    started = time.perf_counter()

    head = init_classifier(subset.feature_dim, c, cfg.seed)
    weights = head.weights.copy()
    bias = head.bias.copy()
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    features = subset.features
    labels = subset.noisy_labels
    n = subset.num_samples
    shrink = 1.0 - cfg.weight_decay

    epoch_losses = []
    epoch_accuracy = []
    for epoch in range(cfg.epochs):
        if cfg.lr_step_every:
            lr = cfg.learning_rate * cfg.lr_step_factor ** (epoch // cfg.lr_step_every)
        else:
            lr = cfg.learning_rate
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        batch_losses = []
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            x = features[idx]
            z = x @ weights.T + bias
            try:
                batch = nabm_loss_batch(z, labels[idx], matrix, prior, margin)
            except ValidationError:
                # The entry checks leave non-finite logits as the only
                # per-step contract a batch can break.
                raise TrainingDivergedError(
                    f"non-finite logits at epoch {epoch}, step {step}"
                ) from None
            if not np.isfinite(batch.per_sample_loss).all():
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {step}"
                )
            batch_losses.append(batch.per_sample_loss)
            gz = batch.grad_logits
            gz /= idx.size
            vel_w *= cfg.momentum
            vel_w += gz.T @ x
            vel_b *= cfg.momentum
            vel_b += gz.sum(axis=0)
            weights *= shrink
            weights -= lr * vel_w
            bias *= shrink
            bias -= lr * vel_b
        epoch_losses.append(math.fsum(np.concatenate(batch_losses).tolist()) / n)
        current = LinearClassifier(weights=weights.copy(), bias=bias.copy())
        predicted = predict(current, subset).labels
        epoch_accuracy.append(float(np.mean(predicted == labels)))

    return TrainReport(
        epoch_losses=tuple(epoch_losses),
        epoch_train_accuracy=tuple(epoch_accuracy),
        classifier=LinearClassifier(weights=weights, bias=bias),
        wall_seconds=time.perf_counter() - started,
    )


def save_classifier(path, classifier: LinearClassifier, fmt: str = "text") -> None:
    """`#noiselens-clf v1 C= D=` followed by C weight rows and one bias row,
    or the binary container (kind 4)."""
    c, d = classifier.weights.shape
    blocks = [[classifier.weights], [classifier.bias[None, :]]]
    codec.save(path, fmt, codec.CLASSIFIER, {"C": c, "D": d}, blocks)


def load_classifier(path) -> LinearClassifier:
    reader = codec.read(path, codec.CLASSIFIER)
    c, d = reader.counts
    (weights,) = reader.rows(c, [(float, d)], "weight row")
    (bias,) = reader.rows(1, [(float, c)], "bias row")
    reader.end()
    return LinearClassifier(weights=weights, bias=bias[0])
