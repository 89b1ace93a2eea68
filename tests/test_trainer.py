"""Tests for the linear-head SGD trainer.

The replication tests mirror the documented update equations step by step
and require bit-identical parameters, pinning the exact operation order
(decoupled weight-decay shrink, momentum buffer, derived shuffle stream).
"""

import errno
import gc
import math
import os
import re
import signal
import tempfile
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import noiselens.trainer
from noiselens import parallel
from noiselens.data import ROW_BLOCK, Dataset, row_blocks
from noiselens.errors import FormatError, RangeError, TrainingDivergedError, ValidationError
from noiselens.losses import MarginConfig, nabm_loss_batch
from noiselens.noise import make_blobs, oracle_scores
from noiselens.priors import ClassPrior, TransitionMatrix, compute_class_prior, estimate_transition_matrix
from noiselens.trainer import (
    LinearClassifier,
    TrainConfig,
    init_classifier,
    load_classifier,
    predict,
    save_classifier,
    train,
    train_heads,
)


def training_setup(num_classes=3, per_class=8, dim=4, seed=0):
    subset = make_blobs(num_classes, per_class, dim, 2.0, seed=seed)
    matrix = TransitionMatrix(np.eye(num_classes))
    prior = compute_class_prior(subset)
    return subset, matrix, prior


def replicate_training(subset, matrix, prior, margin, cfg):
    """Independent step-by-step evaluation of the documented update rule."""
    head = init_classifier(subset.feature_dim, subset.num_classes, cfg.seed)
    weights = head.weights.copy()
    bias = head.bias.copy()
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    n = subset.num_samples
    shrink = 1.0 - cfg.weight_decay
    first_epoch_losses = []
    for epoch in range(cfg.epochs):
        if cfg.lr_step_every:
            lr = cfg.learning_rate * cfg.lr_step_factor ** (epoch // cfg.lr_step_every)
        else:
            lr = cfg.learning_rate
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = subset.features[idx]
            z = x @ weights.T + bias
            batch = nabm_loss_batch(z, subset.noisy_labels[idx], matrix, prior, margin)
            if epoch == 0:
                first_epoch_losses.extend(batch.per_sample_loss.tolist())
            gz = batch.grad_logits / idx.size
            grad_w = gz.T @ x
            grad_b = gz.sum(axis=0)
            vel_w = cfg.momentum * vel_w + grad_w
            vel_b = cfg.momentum * vel_b + grad_b
            weights = shrink * weights - lr * vel_w
            bias = shrink * bias - lr * vel_b
    return weights, bias, math.fsum(first_epoch_losses) / n


class TestInit:
    def test_bounds_and_zero_bias(self):
        head = init_classifier(feature_dim=16, num_classes=5, seed=3)
        bound = 1.0 / math.sqrt(16)
        assert head.weights.shape == (5, 16)
        assert np.abs(head.weights).max() <= bound
        np.testing.assert_array_equal(head.bias, np.zeros(5))

    def test_deterministic(self):
        a = init_classifier(8, 3, seed=5)
        b = init_classifier(8, 3, seed=5)
        c = init_classifier(8, 3, seed=6)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_validation(self):
        with pytest.raises(ValidationError):
            init_classifier(0, 3)
        with pytest.raises(ValidationError):
            init_classifier(4, 1)
        with pytest.raises(ValidationError):
            LinearClassifier(weights=np.full((2, 3), np.inf), bias=np.zeros(2))
        with pytest.raises(ValidationError):
            LinearClassifier(weights=np.zeros((2, 3)), bias=np.zeros(3))


class TestWeightDecaySemantics:
    def test_zero_lr_still_shrinks(self):
        subset, matrix, prior = training_setup()
        cfg = TrainConfig(
            epochs=4, batch_size=8, learning_rate=0.0, weight_decay=0.1,
            momentum=0.9, seed=11,
        )
        report = train(subset, matrix, prior, MarginConfig(), cfg)
        steps = cfg.epochs * math.ceil(subset.num_samples / cfg.batch_size)
        expected = init_classifier(subset.feature_dim, 3, cfg.seed).weights.copy()
        for _ in range(steps):
            expected = 0.9 * expected
        np.testing.assert_array_equal(report.classifier.weights, expected)
        np.testing.assert_array_equal(report.classifier.bias, np.zeros(3))

    def test_zero_lr_zero_decay_keeps_init_bitwise(self):
        subset, matrix, prior = training_setup()
        cfg = TrainConfig(
            epochs=3, batch_size=8, learning_rate=0.0, weight_decay=0.0, seed=11
        )
        report = train(subset, matrix, prior, MarginConfig(), cfg)
        init = init_classifier(subset.feature_dim, 3, cfg.seed)
        np.testing.assert_array_equal(report.classifier.weights, init.weights)
        np.testing.assert_array_equal(report.classifier.bias, init.bias)


# Momentum and weight decay both on, with shuffling.
MOMENTUM_DECAY = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, momentum=0.9,
                             weight_decay=0.01, seed=2, shuffle=True)
REPLICATION_CASES = [
    (TrainConfig(epochs=1, batch_size=2, learning_rate=0.1, momentum=0.0,
                 seed=1, shuffle=False), MarginConfig()),
    (MOMENTUM_DECAY, MarginConfig()),
    (TrainConfig(epochs=4, batch_size=2, learning_rate=0.2, momentum=0.5,
                 seed=3, shuffle=True, lr_step_every=2, lr_step_factor=0.5), MarginConfig()),
] + [
    (MOMENTUM_DECAY, MarginConfig(delta=0.5, t=1.0, s=s, gamma=gamma))
    for gamma in (0.0, 0.5, 1.0, 2.0)
    for s in (1.0, 0.7)
]


class TestStepReplication:
    @pytest.mark.parametrize(
        "cfg,margin",
        [pytest.param(cfg, margin, id=f"cfg{i}") for i, (cfg, margin) in enumerate(REPLICATION_CASES)],
    )
    def test_bitwise_replication(self, cfg, margin):
        subset, matrix, prior = training_setup()
        report = train(subset, matrix, prior, margin, cfg)
        weights, bias, first_loss = replicate_training(subset, matrix, prior, margin, cfg)
        np.testing.assert_array_equal(report.classifier.weights, weights)
        np.testing.assert_array_equal(report.classifier.bias, bias)
        assert report.epoch_losses[0] == first_loss

    def test_incomplete_last_batch_is_kept(self):
        # 5 samples per class * 3 classes = 15; batch 4 -> batches of 4,4,4,3
        subset, matrix, prior = training_setup(per_class=5)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, momentum=0.0,
                          seed=4, shuffle=False)
        report = train(subset, matrix, prior, MarginConfig(), cfg)
        weights, bias, _ = replicate_training(subset, matrix, prior, MarginConfig(), cfg)
        np.testing.assert_array_equal(report.classifier.weights, weights)
        np.testing.assert_array_equal(report.classifier.bias, bias)


class TestTrainingBehavior:
    def test_loss_decreases_and_fits(self):
        subset = make_blobs(3, 50, 4, 3.5, seed=0)  # well-separated: fit should be easy
        matrix = TransitionMatrix(np.eye(3))
        prior = compute_class_prior(subset)
        cfg = TrainConfig(epochs=8, batch_size=16, learning_rate=0.1, seed=0)
        report = train(subset, matrix, prior, MarginConfig(delta=0.0, t=0.0, s=1.0, gamma=0.0), cfg)
        assert len(report.epoch_losses) == 8
        assert len(report.epoch_train_accuracy) == 8
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert report.epoch_train_accuracy[-1] > 0.9
        assert report.wall_seconds >= 0.0

    def test_deterministic_end_to_end(self):
        subset, matrix, prior = training_setup(per_class=20)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.1, seed=7)
        a = train(subset, matrix, prior, MarginConfig(), cfg)
        b = train(subset, matrix, prior, MarginConfig(), cfg)
        np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)
        assert a.epoch_losses == b.epoch_losses

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_reported(self):
        subset, matrix, prior = training_setup(per_class=10)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e308, seed=0)
        margin = MarginConfig(delta=0.1, t=0.01, s=0.1, gamma=1.0)
        with pytest.raises(TrainingDivergedError, match=r"^non-finite logits at epoch 0, step 1$"):
            train(subset, matrix, prior, margin, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_an_overflow_is_an_outcome_not_a_warning(self, epochs):
        # One 1e300 feature drives the weights to 5e301. Its logits overflow
        # in the accuracy pass, where they still rank the classes, and in the
        # next epoch's first step, which diverges.
        features = np.array([[1.0, 0.0], [1e300, 1.0], [1.0, 0.0], [0.0, 1.0]])
        subset = Dataset(2, np.arange(4), features, np.array([0, 1, 0, 1]))
        matrix, prior = TransitionMatrix(np.eye(2)), compute_class_prior(subset)
        cfg = TrainConfig(epochs=epochs, batch_size=2, learning_rate=100, seed=0)
        if epochs == 1:
            report = train(subset, matrix, prior, MarginConfig(), cfg)
            assert len(report.epoch_train_accuracy) == 1
        else:
            with pytest.raises(TrainingDivergedError, match=r"^non-finite logits at epoch 1, step 0$"):
                train(subset, matrix, prior, MarginConfig(), cfg)

    def test_one_loss_call_per_step_and_one_predict_per_epoch(self, monkeypatch):
        # The benchmark's trace times these two names as the training
        # step's loss and the per-epoch evaluation.
        calls = {"nabm_loss_batch": 0, "predict": 0}

        def counted(name):
            inner = getattr(noiselens.trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(noiselens.trainer, name, counted(name))
        subset, matrix, prior = training_setup(per_class=5)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0)
        train(subset, matrix, prior, MarginConfig(), cfg)
        steps = cfg.epochs * math.ceil(subset.num_samples / cfg.batch_size)
        assert calls == {"nabm_loss_batch": steps, "predict": cfg.epochs}

    def test_dimension_mismatch_rejected(self):
        subset, matrix, prior = training_setup()
        wrong_matrix = TransitionMatrix(np.eye(4))
        wrong_prior = ClassPrior(np.full(4, 0.25), np.ones(4, dtype=np.int64), 4)
        with pytest.raises(ValidationError):
            train(subset, wrong_matrix, wrong_prior, MarginConfig(), TrainConfig())

    def test_config_validation(self):
        for kwargs in (
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": -0.1},
            {"weight_decay": 1.0},
            {"momentum": 1.0},
            {"lr_step_every": -1},
            {"lr_step_every": 2, "lr_step_factor": 0.0},
            # every value must be finite, and is checked whether or not it is used
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"momentum": math.nan},
            {"weight_decay": math.nan},
            {"lr_step_factor": math.nan},
            {"seed": -1},
        ):
            with pytest.raises(ValidationError):
                TrainConfig(**kwargs)


# Head sizes against batch 8: short last batches of 4, 5, 1 and 5 rows, one
# head with none, and epochs of 8, 5, 3, 4 and 2 steps.
LOCKSTEP_SIZES = (60, 37, 24, 25, 13)
LOCKSTEP_BATCH = 8


def lockstep_setup(sizes=LOCKSTEP_SIZES, seed=0):
    """One shared dataset, and per head ascending rows and a prior."""
    dataset = make_blobs(3, 20, 4, 2.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    rows = [np.sort(rng.choice(dataset.num_samples, size, replace=False)) for size in sizes]
    priors = [compute_class_prior(dataset.subset(r)) for r in rows]
    matrix = TransitionMatrix(np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]))
    return dataset, rows, priors, matrix


def stepped_groups(sizes, cfg, died=None):
    """Loss calls the lockstep makes: one per global step in which some head
    has a full batch, plus one per short batch. ``died`` is the (epoch,
    step) at which the first head diverged, if it did."""
    plans = []
    for n in sizes:
        batches = [min(cfg.batch_size, n - start) for start in range(0, n, cfg.batch_size)]
        plans.append(batches * cfg.epochs)
    if died is not None:
        epoch, step = died
        plans[0] = plans[0][: epoch * len(plans[0]) // cfg.epochs + step + 1]
    calls = 0
    for t in range(max(len(plan) for plan in plans)):
        live = [plan[t] for plan in plans if t < len(plan)]
        calls += any(b == cfg.batch_size for b in live) + sum(b < cfg.batch_size for b in live)
    return calls


def random_dataset(n, num_classes=3, dim=8, seed=0):
    """``n`` rows of normal features with uniform random noisy labels."""
    rng = np.random.default_rng(seed)
    return Dataset(num_classes, np.arange(n), rng.normal(size=(n, dim)), rng.integers(0, num_classes, n))


class TestTrainOnRows:
    def test_rows_train_as_their_subset_bitwise(self):
        dataset = random_dataset(3 * ROW_BLOCK + 500, seed=2)
        rows = np.sort(np.random.default_rng(3).choice(dataset.num_samples, 4500, replace=False))
        matrix = TransitionMatrix(np.eye(3))
        prior = compute_class_prior(dataset, rows)
        margin, cfg = MarginConfig(delta=0.5, t=1.0), TrainConfig(epochs=3, batch_size=64, seed=4)
        on_rows = train(dataset, matrix, prior, margin, cfg, rows)
        on_subset = train(dataset.subset(rows), matrix, prior, margin, cfg)
        assert on_rows.classifier.weights.tobytes() == on_subset.classifier.weights.tobytes()
        assert on_rows.classifier.bias.tobytes() == on_subset.classifier.bias.tobytes()
        assert on_rows.epoch_losses == on_subset.epoch_losses
        assert on_rows.epoch_train_accuracy == on_subset.epoch_train_accuracy

    @pytest.mark.parametrize("every", [True, False], ids=["every-row", "scattered"])
    @pytest.mark.parametrize("n", [1, 2047, 2048, 4095, 4096, 6144, 10000])
    def test_epoch_accuracy_is_one_predict_over_the_head(self, n, every):
        dataset = random_dataset(n if every else n + n // 2 + 1, seed=n)
        rows = None if every else np.sort(np.random.default_rng(n).choice(dataset.num_samples, n, replace=False))
        head = dataset if every else dataset.subset(rows)
        matrix = TransitionMatrix(np.eye(3))
        prior = compute_class_prior(head)
        cfg = TrainConfig(epochs=2, batch_size=512, seed=1)
        report = train(dataset, matrix, prior, MarginConfig(), cfg, rows)
        # The head as its first epoch ended is the head of a one-epoch run.
        first = train(dataset, matrix, prior, MarginConfig(), replace(cfg, epochs=1), rows)
        expected = []
        for clf in (first.classifier, report.classifier):
            whole = predict(clf, head)
            expected.append(float(np.mean(whole.labels == head.noisy_labels)))
            blocks = [predict(clf, head.subset(slice(lo, hi))).logits for lo, hi in row_blocks(n)]
            assert np.concatenate(blocks).tobytes() == whole.logits.tobytes()
        assert report.epoch_train_accuracy == tuple(expected)


class TestLockstep:
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffle", "ordered"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_each_head_equals_a_lone_train_bitwise(self, gamma, shuffle):
        dataset, rows, priors, matrix = lockstep_setup()
        margin = MarginConfig(delta=0.5, t=1.0, s=0.7, gamma=gamma)
        cfg = TrainConfig(epochs=5, batch_size=LOCKSTEP_BATCH, learning_rate=0.2, momentum=0.9,
                          weight_decay=0.01, seed=3, shuffle=shuffle, lr_step_every=2,
                          lr_step_factor=0.5)
        reports = train_heads(dataset, rows, matrix, priors, margin, cfg)
        assert len(reports) == len(rows)
        for r, prior, report in zip(rows, priors, reports):
            alone = train(dataset.subset(r), matrix, prior, margin, cfg)
            assert report.classifier.weights.tobytes() == alone.classifier.weights.tobytes()
            assert report.classifier.bias.tobytes() == alone.classifier.bias.tobytes()
            assert report.epoch_losses == alone.epoch_losses
            assert report.epoch_train_accuracy == alone.epoch_train_accuracy

    def test_one_loss_call_per_group_and_one_predict_per_head_epoch(self, monkeypatch):
        calls = {"nabm_loss_batch": 0, "predict": 0}

        def counted(name):
            inner = getattr(noiselens.trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(noiselens.trainer, name, counted(name))
        dataset, rows, priors, matrix = lockstep_setup()
        cfg = TrainConfig(epochs=3, batch_size=LOCKSTEP_BATCH, seed=0)
        train_heads(dataset, rows, matrix, priors, MarginConfig(), cfg)
        assert calls == {
            "nabm_loss_batch": stepped_groups(LOCKSTEP_SIZES, cfg),
            "predict": cfg.epochs * len(rows),
        }

    @pytest.mark.parametrize(
        "value,s,what", [(1e300, 1.0, "logits"), (1e307, 0.1, "loss")], ids=["logits", "loss"]
    )
    def test_a_diverging_head_fails_alone(self, value, s, what):
        dataset, rows, priors, matrix = lockstep_setup()
        # One huge sample, in the first head only, overflows that head's
        # logits, or at a small temperature its adjusted logits and loss.
        features = dataset.features.copy()
        outlier = int(np.setdiff1d(rows[0], np.concatenate(rows[1:]))[0])
        features[outlier] = value
        dataset = Dataset(dataset.num_classes, dataset.ids, features, dataset.noisy_labels)
        cfg = TrainConfig(epochs=3, batch_size=LOCKSTEP_BATCH, learning_rate=0.1, seed=5)
        margin = MarginConfig(s=s)
        reports = train_heads(dataset, rows, matrix, priors, margin, cfg)
        with pytest.raises(TrainingDivergedError) as lone:
            train(dataset.subset(rows[0]), matrix, priors[0], margin, cfg)
        assert isinstance(reports[0], TrainingDivergedError)
        assert str(reports[0]) == str(lone.value)
        assert re.fullmatch(rf"non-finite {what} at epoch \d+, step \d+", str(lone.value))
        for r, prior, report in zip(rows[1:], priors[1:], reports[1:]):
            alone = train(dataset.subset(r), matrix, prior, margin, cfg)
            assert report.classifier.weights.tobytes() == alone.classifier.weights.tobytes()
            assert report.epoch_losses == alone.epoch_losses

    def test_a_diverging_head_costs_no_extra_loss_call(self, monkeypatch):
        # The first head's loss overflows in a step it shares with others;
        # that step still makes one loss call.
        calls = []
        inner = noiselens.trainer.nabm_loss_batch
        monkeypatch.setattr(noiselens.trainer, "nabm_loss_batch",
                            lambda *args: calls.append(1) or inner(*args))
        dataset, rows, priors, matrix = lockstep_setup()
        features = dataset.features.copy()
        features[int(np.setdiff1d(rows[0], np.concatenate(rows[1:]))[0])] = 1e307
        dataset = Dataset(dataset.num_classes, dataset.ids, features, dataset.noisy_labels)
        cfg = TrainConfig(epochs=3, batch_size=LOCKSTEP_BATCH, learning_rate=0.1, seed=3)
        reports = train_heads(dataset, rows, matrix, priors, MarginConfig(s=0.1), cfg)
        died = re.fullmatch(r"non-finite loss at epoch (\d+), step (\d+)", str(reports[0]))
        epoch, step = int(died[1]), int(died[2])
        assert step < LOCKSTEP_SIZES[0] // LOCKSTEP_BATCH  # a full batch, stepped in a group
        assert len(calls) == stepped_groups(LOCKSTEP_SIZES, cfg, died=(epoch, step))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weights_end_their_head_alone(self):
        # One update at learning rate 1e307 overflows the weights of a head
        # over the blobs, not those of a head over the blobs scaled by 1e-4.
        blobs = make_blobs(3, 20, 4, 100.0, seed=0)
        matrix = estimate_transition_matrix(blobs, oracle_scores(blobs))
        prior = compute_class_prior(blobs)
        cfg = TrainConfig(epochs=1, batch_size=60, learning_rate=1e307, momentum=0.0)
        message = r"^non-finite weights at epoch 0, step 0$"
        with pytest.raises(TrainingDivergedError, match=message):
            train(blobs, matrix, prior, MarginConfig(), cfg)
        dataset = Dataset(3, np.arange(120), np.concatenate([blobs.features, blobs.features * 1e-4]),
                          np.tile(blobs.noisy_labels, 2))
        rows = [np.arange(60), np.arange(60, 120)]
        bad, healthy = train_heads(dataset, rows, matrix, [prior, prior], MarginConfig(), cfg)
        assert isinstance(bad, TrainingDivergedError) and re.match(message, str(bad))
        alone = train(dataset, matrix, prior, MarginConfig(), cfg, rows[1])
        assert healthy.classifier.weights.tobytes() == alone.classifier.weights.tobytes()
        assert healthy.classifier.bias.tobytes() == alone.classifier.bias.tobytes()
        assert healthy.epoch_losses == alone.epoch_losses
        assert healthy.epoch_train_accuracy == alone.epoch_train_accuracy

    def test_accuracy_phase_holds_one_subset_at_a_time(self, monkeypatch):
        """Each head's train accuracy is read one row block at a time: every
        subset built holds fewer than 2·ROW_BLOCK rows and is freed before
        the next is built, and a head over every row reads views."""
        made, alive_at_build, sizes, views = [], [], [], []
        real_subset = Dataset.subset

        def subset(self, indices):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in made))
            built = real_subset(self, indices)
            made.append(weakref.ref(built))
            sizes.append(built.num_samples)
            views.append(np.shares_memory(built.features, self.features))
            return built

        dataset = make_blobs(3, 2 * ROW_BLOCK, 4, 2.0, seed=0)
        rng = np.random.default_rng(1)
        n = dataset.num_samples
        rows = [np.arange(n)] + [np.sort(rng.choice(n, k, replace=False)) for k in (5000, 2047)]
        priors = [compute_class_prior(dataset, r) for r in rows]
        matrix = TransitionMatrix(np.eye(3))
        monkeypatch.setattr(Dataset, "subset", subset)
        cfg = TrainConfig(epochs=2, batch_size=256, seed=0)
        reports = train_heads(dataset, rows, matrix, priors, MarginConfig(), cfg)
        assert all(len(r.epoch_train_accuracy) == 2 for r in reports)
        blocks = [len(list(row_blocks(r.size))) for r in rows]
        assert blocks == [6, 2, 1]
        assert alive_at_build == [0] * sum(blocks)
        assert max(sizes) < 2 * ROW_BLOCK
        assert views == [True] * blocks[0] + [False] * sum(blocks[1:])

    def test_prior_mismatch_stops_only_its_head(self):
        dataset, rows, priors, matrix = lockstep_setup()
        priors[1] = ClassPrior(np.full(4, 0.25), np.ones(4, dtype=np.int64), 4)
        reports = train_heads(dataset, rows, matrix, priors, MarginConfig(), TrainConfig(epochs=1))
        assert isinstance(reports[1], ValidationError)
        assert all(not isinstance(r, Exception) for i, r in enumerate(reports) if i != 1)

    @pytest.mark.parametrize(
        "rows",
        [[np.array([0.5, 1.0])], [np.array([3, 1])], [np.array([1, 1])], [np.array([0, 60])],
         [np.array([-1, 2])], [np.array([], dtype=np.int64)], [np.zeros((2, 2), dtype=np.int64)]],
        ids=["float", "descending", "repeated", "past-end", "negative", "empty", "2-D"],
    )
    def test_bad_rows_rejected(self, rows):
        dataset, _, priors, matrix = lockstep_setup()
        with pytest.raises(ValidationError):
            train_heads(dataset, rows, matrix, priors[:1], MarginConfig(), TrainConfig())

    def test_one_prior_per_head(self):
        dataset, rows, priors, matrix = lockstep_setup()
        with pytest.raises(ValidationError, match="4 priors for 5 heads"):
            train_heads(dataset, rows, matrix, priors[:4], MarginConfig(), TrainConfig())

    def test_no_heads(self):
        dataset, _, _, matrix = lockstep_setup()
        assert train_heads(dataset, [], matrix, [], MarginConfig(), TrainConfig()) == []


FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
SPLIT_CFG = TrainConfig(epochs=3, batch_size=LOCKSTEP_BATCH, learning_rate=0.2, momentum=0.9,
                        weight_decay=0.01, seed=3, lr_step_every=2, lr_step_factor=0.5)
SPLIT_MARGIN = MarginConfig(delta=0.5, t=1.0, s=0.7, gamma=1.0)


def split_setup():
    """The lockstep heads, the first holding a prior of four classes and
    the third diverging on a huge negative sample that no other trained
    head holds. The largest trained head goes to this process, so the
    diverging one trains in a forked child."""
    dataset, rows, priors, matrix = lockstep_setup()
    features = dataset.features.copy()
    others = np.concatenate([rows[1], rows[3], rows[4]])
    features[int(np.setdiff1d(rows[2], others)[0])] = -1e300
    dataset = Dataset(dataset.num_classes, dataset.ids, features, dataset.noisy_labels)
    priors[0] = ClassPrior(np.full(4, 0.25), np.ones(4, dtype=np.int64), 4)
    return dataset, rows, priors, matrix


def split_outcomes(monkeypatch, processes: int) -> list:
    """``split_setup``'s outcomes from up to ``processes`` processes, each
    as its type and message or its report's bytes and trajectories."""
    monkeypatch.setattr(noiselens.trainer, "FORK_ROWS", 0)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: processes)
    dataset, rows, priors, matrix = split_setup()
    outcomes = train_heads(dataset, rows, matrix, priors, SPLIT_MARGIN, SPLIT_CFG)
    return [
        (type(o), str(o)) if isinstance(o, Exception) else (
            o.classifier.weights.tobytes(), o.classifier.bias.tobytes(),
            o.epoch_losses, o.epoch_train_accuracy,
        )
        for o in outcomes
    ]


def forks(monkeypatch) -> list:
    """The children forked from now on, one entry each."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return forked


def before_lockstep(act):
    """A patch that calls ``act`` in every forked child before its
    lockstep; what ``act`` returns, if anything, is that child's outcomes
    instead."""

    def install(monkeypatch):
        parent, lockstep = os.getpid(), noiselens.trainer._lockstep

        def act_or_train(*args):
            return (os.getpid() != parent and act()) or lockstep(*args)

        monkeypatch.setattr(noiselens.trainer, "_lockstep", act_or_train)

    return install


def killed_after_sending(monkeypatch) -> None:
    """A patch under which every child is killed once it has written its
    outcomes whole, where it would exit 0."""
    parent, exit = os.getpid(), os._exit

    def die_at_exit(code):
        if os.getpid() != parent and code == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        exit(code)

    monkeypatch.setattr(os, "_exit", die_at_exit)


def fork_fails(monkeypatch) -> None:
    """A patch under which every fork fails, as at a process limit."""
    monkeypatch.setattr(os, "fork", lambda: _raise(BlockingIOError(errno.EAGAIN, "fork")))


def parent_locksteps(monkeypatch) -> list:
    """The lockstep runs of this process from now on, one entry each."""
    parent, lockstep, runs = os.getpid(), noiselens.trainer._lockstep, []

    def counted(*args):
        if os.getpid() == parent:
            runs.append(1)
        return lockstep(*args)

    monkeypatch.setattr(noiselens.trainer, "_lockstep", counted)
    return runs


def _raise(exc):
    raise exc


def no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplit:
    @pytest.fixture(scope="class")
    def alone(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            forked = forks(monkeypatch)
            outcomes = split_outcomes(monkeypatch, 1)
        assert not forked
        assert [type(o[0]) for o in outcomes] == [type, bytes, type, bytes, bytes]
        assert (outcomes[0][0], outcomes[2][0]) == (ValidationError, TrainingDivergedError)
        return outcomes

    @FORKS
    @pytest.mark.parametrize("processes", [2, 3])
    def test_outcomes_equal_one_process_bitwise(self, monkeypatch, alone, processes):
        runs, forked = parent_locksteps(monkeypatch), forks(monkeypatch)
        assert split_outcomes(monkeypatch, processes) == alone
        assert (len(forked), len(runs)) == (processes - 1, 1)
        no_child_left()

    @pytest.mark.parametrize("processes", [1, pytest.param(2, marks=FORKS)])
    def test_classifier_arrays_are_read_only(self, monkeypatch, processes):
        monkeypatch.setattr(noiselens.trainer, "FORK_ROWS", 0)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: processes)
        dataset, rows, priors, matrix = lockstep_setup()
        reports = train_heads(dataset, rows, matrix, priors, SPLIT_MARGIN, SPLIT_CFG)
        for report in reports:
            assert not report.classifier.weights.flags.writeable
            assert not report.classifier.bias.flags.writeable

    def test_work_under_the_bound_stays_in_one_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        forked = forks(monkeypatch)
        dataset, rows, priors, matrix = lockstep_setup()
        assert sum(r.size for r in rows) * SPLIT_CFG.epochs < noiselens.trainer.FORK_ROWS
        train_heads(dataset, rows, matrix, priors, SPLIT_MARGIN, SPLIT_CFG)
        monkeypatch.setattr(noiselens.trainer, "FORK_ROWS", 0)
        train(dataset, matrix, compute_class_prior(dataset), SPLIT_MARGIN, SPLIT_CFG)
        assert not forked

    def test_shares_split_by_rows_largest_first(self, monkeypatch):
        monkeypatch.setattr(noiselens.trainer, "FORK_ROWS", 0)
        rows = [np.arange(n) for n in LOCKSTEP_SIZES]
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        assert noiselens.trainer._shares(rows, [0, 1, 2, 3, 4], 1) == [[0, 2], [1, 3, 4]]
        assert noiselens.trainer._shares(rows, [1, 2, 3], 1) == [[1], [2, 3]]
        assert noiselens.trainer._shares(rows, [2], 1) == [[2]]
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert noiselens.trainer._shares(rows, [0, 1, 2, 3, 4], 1) == [[0, 1, 2, 3, 4]]

    @FORKS
    @pytest.mark.parametrize(
        "patch",
        [
            before_lockstep(lambda: _raise(ValueError("bad"))),
            before_lockstep(lambda: os.kill(os.getpid(), signal.SIGKILL)),
            # A RangeError pickles, but its class cannot be rebuilt from
            # the message alone.
            before_lockstep(lambda: [RangeError("k", 0, "[1, 2]")]),
            killed_after_sending,
            fork_fails,
        ],
        ids=["exception", "killed", "unloadable", "killed-after-sending", "fork-fails"],
    )
    def test_failed_worker_heads_train_here(self, monkeypatch, tmp_path, alone, patch):
        """A share that no child finished is trained here; every child's
        file is anonymous."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        patch(monkeypatch)
        runs, forked = parent_locksteps(monkeypatch), forks(monkeypatch)
        assert split_outcomes(monkeypatch, 3) == alone
        assert (len(forked), len(runs)) == (2, 3)
        no_child_left()
        assert os.listdir(tmp_path) == []

    @FORKS
    def test_interrupted_parent_leaves_no_child(self, monkeypatch):
        parent, lockstep = os.getpid(), noiselens.trainer._lockstep

        def interrupt_in_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return lockstep(*args)

        monkeypatch.setattr(noiselens.trainer, "_lockstep", interrupt_in_parent)
        forked = forks(monkeypatch)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            split_outcomes(monkeypatch, 3)
        assert time.perf_counter() - started < 30
        assert len(forked) == 2
        no_child_left()


class TestPredict:
    def test_ties_go_to_lowest_class(self):
        ds = make_blobs(3, 5, 4, 2.0, seed=9)
        zero_head = LinearClassifier(weights=np.zeros((3, 4)), bias=np.zeros(3))
        result = predict(zero_head, ds)
        np.testing.assert_array_equal(result.labels, np.zeros(15, dtype=np.int64))
        np.testing.assert_allclose(result.probabilities, np.full((15, 3), 1 / 3))

    def test_probability_rows_normalized(self):
        ds = make_blobs(3, 20, 4, 2.0, seed=10)
        head = init_classifier(4, 3, seed=1)
        result = predict(head, ds)
        np.testing.assert_allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-12)
        assert result.labels.shape == (60,)

    def test_margins_never_enter_prediction(self):
        # Prediction depends only on the classifier, so two heads trained with
        # different margins but identical parameters predict identically.
        ds = make_blobs(2, 10, 3, 2.0, seed=11)
        head = init_classifier(3, 2, seed=2)
        a = predict(head, ds)
        b = predict(head, ds)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shape_mismatches_rejected(self):
        ds = make_blobs(3, 5, 4, 2.0, seed=12)
        with pytest.raises(ValidationError):
            predict(init_classifier(5, 3, seed=0), ds)
        with pytest.raises(ValidationError):
            predict(init_classifier(4, 4, seed=0), ds)


class TestCheckpointFiles:
    def trained_head(self):
        subset, matrix, prior = training_setup(per_class=5)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=13)
        return train(subset, matrix, prior, MarginConfig(), cfg).classifier

    def test_text_round_trip_is_bit_exact(self, tmp_path):
        head = self.trained_head()
        path = tmp_path / "clf.txt"
        save_classifier(path, head)
        loaded = load_classifier(path)
        np.testing.assert_array_equal(loaded.weights, head.weights)
        np.testing.assert_array_equal(loaded.bias, head.bias)

    def test_binary_round_trip(self, tmp_path):
        head = self.trained_head()
        path = tmp_path / "clf.bin"
        save_classifier(path, head, fmt="binary")
        loaded = load_classifier(path)  # auto-detects binary
        np.testing.assert_array_equal(loaded.weights, head.weights)
        np.testing.assert_array_equal(loaded.bias, head.bias)

    def test_trailing_bytes_rejected(self, tmp_path):
        head = self.trained_head()
        path = tmp_path / "clf.bin"
        save_classifier(path, head, fmt="binary")
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_classifier(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "clf.txt"
        path.write_text("#noiselens-clf v1 C=3 D=2\n0.0,0.0\n0.0,0.0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_classifier(path)

    def test_wrong_binary_kind_rejected(self, tmp_path):
        ds = make_blobs(2, 5, 3, 2.0, seed=14)
        from noiselens.data import save_dataset

        path = tmp_path / "ds.bin"
        save_dataset(path, ds, fmt="binary")
        with pytest.raises(FormatError, match="holds kind 1, expected 4"):
            load_classifier(path)

    def test_unknown_format_rejected(self, tmp_path):
        head = self.trained_head()
        with pytest.raises(ValidationError):
            save_classifier(tmp_path / "clf.xyz", head, fmt="json")
