"""Tests for the linear-head SGD trainer.

The replication tests mirror the documented update equations step by step
and require bit-identical parameters, pinning the exact operation order
(decoupled weight-decay shrink, momentum buffer, derived shuffle stream).
"""

import math

import numpy as np
import pytest

import noiselens.trainer
from noiselens.errors import FormatError, TrainingDivergedError, ValidationError
from noiselens.losses import MarginConfig, nabm_loss_batch
from noiselens.noise import make_blobs
from noiselens.priors import ClassPrior, TransitionMatrix, compute_class_prior
from noiselens.trainer import (
    LinearClassifier,
    TrainConfig,
    init_classifier,
    load_classifier,
    predict,
    save_classifier,
    train,
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

    def test_divergence_is_reported(self):
        subset, matrix, prior = training_setup(per_class=10)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e308, seed=0)
        margin = MarginConfig(delta=0.1, t=0.01, s=0.1, gamma=1.0)
        with np.errstate(over="ignore"):  # the overflow is the point
            with pytest.raises(TrainingDivergedError, match=r"^non-finite logits at epoch 0, step 1$"):
                train(subset, matrix, prior, margin, cfg)

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
        ):
            with pytest.raises(ValidationError):
                TrainConfig(**kwargs)


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
