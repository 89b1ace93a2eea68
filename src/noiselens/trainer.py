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

``train_heads`` trains several heads in lockstep, each on its own rows of
one shared dataset. Their parameters are stacked as (K, C, d), and every
global step gathers one (G, B, d) batch, runs one stacked forward pass, one
``nabm_loss_batch`` call and one stacked update for the G heads whose next
batch is full. A head whose batch is short (the last of its epoch) steps on
its own. Heads keep their own shuffle stream, epoch, step and learning
rate, so they drift apart when their epochs differ in length. The stacked
matmuls run one BLAS call per head and every other operation acts entry by
entry or row by row, so each head rounds exactly as it would alone. Each
group steps once: a head whose logits or loss turn non-finite in a step
ends there with a ``TrainingDivergedError`` naming its epoch and step, and
its update in that step is discarded; a head whose weights are non-finite
when its epoch ends gets one naming that epoch's last step.
``train`` is the one-head case. Each head's per-epoch train accuracy is
read one ``data.row_blocks`` block of its rows at a time, so at most one
block of its features is copied at once.

Heads never interact, so ``train_heads`` may also split them across
processes: when two heads or more step ``FORK_ROWS`` rows or more in all
(rows times epochs), they are dealt by rows, largest first, into up to one
share per usable CPU, and each share runs the lockstep in one of the
processes of ``parallel.forked``, so every outcome is the one a single
process gives, bit for bit. A child pickles its outcomes into its file; a
share that no child finished, or whose outcomes do not load, is trained
by the caller. One head, less work, one usable CPU (``taskset -c 0``) or a
platform without ``fork`` runs one process.
"""

import math
import pickle
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import codec, parallel
from .data import Dataset, row_blocks
from .errors import (
    NoiseLensError,
    TrainingDivergedError,
    ValidationError,
    array,
    check_fields,
    check_kind,
    ranged,
)
from .losses import MarginConfig, check_classes, nabm_loss_batch
from .priors import ClassPrior, TransitionMatrix

# The stepped rows (rows times epochs, summed over the heads) from which
# ``train_heads`` splits its heads across processes, so that a fork costs a
# few percent of the work it moves. On 2 vCPUs, forking a 73 MB process,
# reading three outcomes back and reaping it took about 2.4 ms,
# and the lockstep took 1 to 3 us per stepped row: the half of 2**18 rows
# that a child takes is 0.13 s of work or more. The benchmark's sweep steps
# about 1.6M rows.
FORK_ROWS = 1 << 18


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
    check_classifier(classifier, dataset.num_classes, dataset.feature_dim)
    return prediction(classifier.logits(dataset.features))


def check_classifier(classifier: LinearClassifier, num_classes: int, feature_dim: int) -> None:
    """Raise unless ``classifier`` reads ``feature_dim`` features and has
    ``num_classes`` classes, the dimension checked first."""
    if feature_dim != classifier.feature_dim:
        raise ValidationError(
            f"feature dim {feature_dim} does not match classifier dim {classifier.feature_dim}"
        )
    if num_classes != classifier.num_classes:
        raise ValidationError(
            f"dataset has {num_classes} classes, classifier has {classifier.num_classes}"
        )


def prediction(logits: np.ndarray) -> PredictionResult:
    """The prediction of the N x C ``logits``."""
    return PredictionResult(logits=logits, labels=np.argmax(logits, axis=1))


@dataclass(eq=False)
class _Head:
    """One head's place in the lockstep: its rows, its shuffle stream, where
    its next batch starts, and what it has recorded so far."""

    rows: np.ndarray
    rng: "np.random.Generator"  # quoted, so importing the module leaves numpy.random unloaded
    epoch: int = 0
    lr: float = 0.0
    order: np.ndarray = None  # dataset rows in this epoch's order
    pos: int = 0
    step: int = 0
    batch_losses: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)
    epoch_ends: list = field(default_factory=list)  # the head as each epoch ended

    def start_epoch(self, cfg: TrainConfig) -> None:
        if cfg.lr_step_every:
            self.lr = cfg.learning_rate * cfg.lr_step_factor ** (self.epoch // cfg.lr_step_every)
        else:
            self.lr = cfg.learning_rate
        n = self.rows.size
        self.order = self.rows[self.rng.permutation(n)] if cfg.shuffle else self.rows
        self.pos = self.step = 0
        self.batch_losses = []


def _check_rows(rows, n: int) -> np.ndarray:
    rows = np.asarray(check_kind("rows", rows, int), dtype=np.int64)
    if rows.ndim != 1 or rows.size == 0:
        raise ValidationError("each head's rows must be a non-empty 1-D array")
    if rows[0] < 0 or rows[-1] >= n or not (rows[1:] > rows[:-1]).all():
        raise ValidationError(f"each head's rows must be strictly ascending indices below {n}")
    return rows


def train_heads(
    dataset: Dataset,
    rows,
    matrix: TransitionMatrix,
    priors,
    margin: MarginConfig,
    cfg: TrainConfig,
) -> list:
    """Train one fresh linear head per entry of ``rows`` in lockstep.

    Head k trains on the samples at ``rows[k]`` (strictly ascending indices
    into ``dataset``) with the class prior ``priors[k]``, exactly as
    ``train`` would on that subset. Returns one entry per head: its
    ``TrainReport``, or the ``NoiseLensError`` that stopped it. A head that
    diverges stops alone; the others are unaffected. Each report's
    ``wall_seconds`` counts from the start of the call.

    When two heads or more step ``FORK_ROWS`` rows or more in all (rows
    times epochs), they are split by rows, largest first, into up to one
    share per usable CPU, each trained by one process of
    ``parallel.forked`` in the same lockstep, so each outcome is the
    one-process outcome. A share that no child finished, or whose outcomes
    cannot be loaded, is trained here.
    """
    started = time.perf_counter()
    n, c = dataset.num_samples, dataset.num_classes
    rows = [_check_rows(r, n) for r in rows]
    priors = list(priors)
    if len(priors) != len(rows):
        raise ValidationError(f"{len(priors)} priors for {len(rows)} heads")
    outcome = [None] * len(rows)
    for i, prior in enumerate(priors):
        try:
            check_classes(matrix, prior, c)
        except ValidationError as exc:
            outcome[i] = exc
    live = [i for i, o in enumerate(outcome) if o is None]

    def lockstep(share):
        return _lockstep(dataset, [rows[i] for i in share], matrix, [priors[i] for i in share],
                         margin, cfg, started)

    shares = _shares(rows, live, cfg.epochs)
    with parallel.forked(shares, lambda share, out: pickle.dump(lockstep(share), out)) as children:
        results = [lockstep(shares[0])]
        for share, out in zip(shares[1:], children):
            results.append((out is not None and _received(out, started)) or lockstep(share))
    for share, result in zip(shares, results):
        for i, o in zip(share, result):
            outcome[i] = o
    return outcome


def _shares(rows: list, live: list, epochs: int) -> list:
    """The ``live`` heads in shares, one per training process: a head goes
    to the share with the fewest rows so far, largest head first. One share
    holds them all when fewer than two heads step ``FORK_ROWS`` rows in all,
    or when one CPU is usable."""
    stepped = epochs * sum(rows[i].size for i in live)
    processes = min(parallel.usable_cpus(), len(live)) if stepped >= FORK_ROWS else 1
    if processes < 2:
        return [live]
    shares = [[] for _ in range(processes)]
    loads = [0] * processes
    for i in sorted(live, key=lambda i: -rows[i].size):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += rows[i].size
    return [sorted(share) for share in shares]


def _received(out, started: float):
    """The outcomes a child pickled into its file ``out``: each report
    rebuilt here, so its classifier's arrays are checked and frozen and its
    ``wall_seconds`` counts from ``started``. None when they do not load."""
    try:
        outcomes = pickle.load(out)
        return [
            o if isinstance(o, NoiseLensError) else TrainReport(
                epoch_losses=o.epoch_losses,
                epoch_train_accuracy=o.epoch_train_accuracy,
                classifier=LinearClassifier(weights=o.classifier.weights, bias=o.classifier.bias),
                wall_seconds=time.perf_counter() - started,
            )
            for o in outcomes
        ]
    # Outcomes that do not load, such as an error whose class cannot be
    # rebuilt from its message (``RangeError``), fail in one of several
    # ways; the caller then trains the share itself.
    except Exception:
        return None


def _lockstep(dataset: Dataset, rows: list, matrix, priors: list, margin, cfg, started) -> list:
    """``train_heads`` on heads whose rows and priors are checked: the
    outcome of each, in order."""
    k = len(rows)
    outcome = [None] * k
    init = init_classifier(dataset.feature_dim, dataset.num_classes, cfg.seed)
    weights = np.repeat(init.weights[None], k, axis=0)
    bias = np.repeat(init.bias[None], k, axis=0)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    heads = [_Head(r, np.random.default_rng([cfg.seed, 1])) for r in rows]
    features, labels = dataset.features, dataset.noisy_labels
    shrink = 1.0 - cfg.weight_decay
    size = cfg.batch_size

    def step(group):
        """One update of every head in ``group``, each on its own next batch,
        in one pass. A head whose logits or loss are non-finite ends with its
        error; its update is made with the others' and never read again."""
        batches = [heads[i].order[heads[i].pos : heads[i].pos + size] for i in group]
        idx = np.concatenate(batches).reshape(len(group), -1)
        # Every head: update the stacked buffers in place through views.
        # Some heads: update gathered copies and write them back.
        sel = slice(None) if len(group) == k else np.array(group)
        w, b = weights[sel], bias[sel]
        x = features[idx]
        # An overflow leaves a non-finite logit, loss or weight, which is the
        # head's error. Every stacked operation acts per head, so a head's
        # zeroed logits or non-finite gradient reach no other head.
        with np.errstate(over="ignore", invalid="ignore"):
            z = x @ w.transpose(0, 2, 1) + b[:, None, :]
            bad_logits = ~np.isfinite(z).all(axis=(1, 2))
            z[bad_logits] = 0.0
            batch = nabm_loss_batch(z, labels[idx], matrix, [priors[i] for i in group], margin)
            bad_loss = ~np.isfinite(batch.per_sample_loss).all(axis=1)
            gz = batch.grad_logits
            gz /= idx.shape[1]
            vw, vb = vel_w[sel], vel_b[sel]
            vw *= cfg.momentum
            vw += gz.transpose(0, 2, 1) @ x
            vb *= cfg.momentum
            vb += gz.sum(axis=1)
            lr = np.array([heads[i].lr for i in group])
            w *= shrink
            w -= lr[:, None, None] * vw
            b *= shrink
            b -= lr[:, None] * vb
        if not isinstance(sel, slice):
            weights[sel], bias[sel], vel_w[sel], vel_b[sel] = w, b, vw, vb
        bad = zip(bad_logits.tolist(), bad_loss.tolist())
        for i, loss, (logits_bad, loss_bad) in zip(group, batch.per_sample_loss, bad):
            h = heads[i]
            if logits_bad or loss_bad:
                what = "logits" if logits_bad else "loss"
                outcome[i] = TrainingDivergedError(f"non-finite {what} at epoch {h.epoch}, step {h.step}")
            h.batch_losses.append(loss)
            h.pos += size
            h.step += 1

    live = list(range(k))
    for i in live:
        heads[i].start_epoch(cfg)
    while live:
        # Heads whose next batch is full step together; a short last batch
        # steps on its own.
        full, short = [], []
        for i in live:
            (full if heads[i].pos + size <= heads[i].rows.size else short).append(i)
        for group in ([full] if full else []) + [[i] for i in short]:
            step(group)
        for i in live:
            h = heads[i]
            if outcome[i] is not None or h.pos < h.rows.size:
                continue
            h.epoch_losses.append(math.fsum(np.concatenate(h.batch_losses).tolist()) / h.rows.size)
            try:
                h.epoch_ends.append(LinearClassifier(weights=weights[i].copy(), bias=bias[i].copy()))
            except ValidationError:  # the bias counts as a weight
                outcome[i] = TrainingDivergedError(f"non-finite weights at epoch {h.epoch}, step {h.step - 1}")
                continue
            h.epoch += 1
            if h.epoch < cfg.epochs:
                h.start_epoch(cfg)
        live = [i for i in live if outcome[i] is None and heads[i].epoch < cfg.epochs]

    for i, h in enumerate(heads):
        if outcome[i] is not None:
            continue
        outcome[i] = TrainReport(
            epoch_losses=tuple(h.epoch_losses),
            epoch_train_accuracy=_train_accuracy(dataset, h),
            classifier=h.epoch_ends[-1],
            wall_seconds=time.perf_counter() - started,
        )
    return outcome


def _train_accuracy(dataset: Dataset, head: _Head) -> tuple:
    """The head's accuracy on its own rows as each epoch ended, read one
    ``row_blocks`` block of those rows at a time. A head over every row
    reads views of the dataset's blocks; any other head copies one block,
    freed before the next is built. Blocks round as one product over the
    rows, so the accuracies are those of one ``predict`` over the subset."""
    n = head.rows.size
    every = n == dataset.num_samples
    correct = [0] * len(head.epoch_ends)
    for lo, hi in row_blocks(n):
        block = dataset.subset(slice(lo, hi) if every else head.rows[lo:hi])
        for e, classifier in enumerate(head.epoch_ends):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing logit still ranks
                predicted = predict(classifier, block).labels
            correct[e] += int(np.count_nonzero(predicted == block.noisy_labels))
        del block
    return tuple(c / n for c in correct)


def train(
    dataset: Dataset,
    matrix: TransitionMatrix,
    prior: ClassPrior,
    margin: MarginConfig,
    cfg: TrainConfig,
    rows=None,
) -> TrainReport:
    """Train a freshly initialized linear head on the noisy labels of the
    dataset's ``rows`` (strictly ascending indices; every row by default).

    Epoch order is deterministic in cfg.seed: initialization uses seed
    directly, shuffling uses the derived stream [seed, 1]. The last
    incomplete batch is kept, and every batch gradient is divided by its
    actual size. The head ends bit for bit as it would on
    ``dataset.subset(rows)``, but no copy of those rows' features is built.
    This is ``train_heads`` with one head; the error that stops the head is
    raised.
    """
    rows = np.arange(dataset.num_samples) if rows is None else rows
    (outcome,) = train_heads(dataset, (rows,), matrix, (prior,), margin, cfg)
    if isinstance(outcome, NoiseLensError):
        raise outcome
    return outcome


def save_classifier(path, classifier: LinearClassifier, fmt: str = "text") -> None:
    """`#noiselens-clf v1 C= D=` followed by C weight rows and one bias row,
    or the binary container (kind 4)."""
    c, d = classifier.weights.shape
    blocks = [[classifier.weights], [classifier.bias[None, :]]]
    codec.save(path, fmt, codec.CLASSIFIER, {"C": c, "D": d}, blocks)


def load_classifier(path) -> LinearClassifier:
    with codec.read(path, codec.CLASSIFIER) as reader:
        c, d = reader.counts
        (weights,) = reader.rows(c, [(float, d)], "weight row")
        (bias,) = reader.rows(1, [(float, c)], "bias row")
        reader.end()
    return LinearClassifier(weights=weights, bias=bias[0])
