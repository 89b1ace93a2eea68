"""Tests for the margin-adjusted focal objective and its analytic gradients.

Frozen reference values were computed with 50-digit mpmath arithmetic on the
exact float64 inputs written below.
"""

import math

import numpy as np
import pytest

from noiselens.data import Dataset
from noiselens.errors import ValidationError
from noiselens.losses import (
    MarginConfig,
    cross_entropy,
    focal_loss,
    nabm_loss_batch,
    nabm_probability,
)
from noiselens.priors import ClassPrior, TransitionMatrix, compute_class_prior

# cross_entropy([2.0, 1.0, 0.1], 0)
CE_REFERENCE = 0.4170300162778334831549385

# nabm_probability([1.0, 0.5, -0.5], 0, M, prior, MarginConfig(0.5, 1.0, 0.7, 1.0))
# with M[0] = [0.8, 0.15, 0.05] and prior = add-half smoothing of counts [3, 1, 0].
NABM_PROBS = (0.9124238914266006826349778, 0.083689015465522443125445, 0.003887093107876874239577213)
NABM_GAMMA1_LOSS = 0.008026403216928154304490787

# focal_loss(0.3, 2.0) = 0.49 * -ln(0.3)
FOCAL_REFERENCE = 0.589946674119708673232285


def make_matrix():
    return TransitionMatrix(
        np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
    )


def make_prior():
    subset = Dataset(
        num_classes=3,
        ids=np.arange(4),
        features=np.zeros((4, 1)),
        noisy_labels=np.array([0, 0, 0, 1]),
    )
    return compute_class_prior(subset)


def uniform_setup(c):
    matrix = TransitionMatrix(np.eye(c))
    prior = ClassPrior(np.full(c, 1.0 / c), np.ones(c, dtype=np.int64), c)
    return matrix, prior


class TestReferenceValues:
    def test_cross_entropy(self):
        v = cross_entropy(np.array([2.0, 1.0, 0.1]), 0)
        assert abs(v - CE_REFERENCE) <= 1e-15

    def test_nabm_probability_vector(self):
        cfg = MarginConfig(delta=0.5, t=1.0, s=0.7, gamma=1.0)
        p = nabm_probability(np.array([1.0, 0.5, -0.5]), 0, make_matrix(), make_prior(), cfg)
        np.testing.assert_allclose(p, NABM_PROBS, rtol=1e-13)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_nabm_gamma1_loss(self):
        cfg = MarginConfig(delta=0.5, t=1.0, s=0.7, gamma=1.0)
        batch = nabm_loss_batch(
            np.array([[1.0, 0.5, -0.5]]), np.array([0]), make_matrix(), make_prior(), cfg
        )
        assert abs(batch.per_sample_loss[0] - NABM_GAMMA1_LOSS) <= 1e-15

    def test_focal_reference(self):
        assert abs(focal_loss(0.3, 2.0) - FOCAL_REFERENCE) <= 1e-15


class TestReductionIdentities:
    def test_nabm_reduces_to_cross_entropy_bitwise(self):
        rng = np.random.default_rng(1)
        b, c = 200, 6
        logits = rng.standard_normal((b, c)) * 3.0
        labels = rng.integers(0, c, b)
        matrix, prior = uniform_setup(c)
        cfg = MarginConfig(delta=0.0, t=0.0, s=1.0, gamma=0.0)
        batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
        for i in range(b):
            assert batch.per_sample_loss[i] == cross_entropy(logits[i], labels[i])

    def test_focal_gamma_zero_is_negative_log_bitwise(self):
        rng = np.random.default_rng(2)
        for p in np.concatenate([rng.uniform(1e-12, 1.0, 500), [1.0]]):
            assert focal_loss(float(p), 0.0) == -np.log(p)

    def test_gamma_zero_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(3)
        b, c = 50, 4
        logits = rng.standard_normal((b, c))
        labels = rng.integers(0, c, b)
        matrix, prior = uniform_setup(c)
        cfg = MarginConfig(delta=0.3, t=0.7, s=1.0, gamma=0.0)
        batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
        expected = np.stack(
            [nabm_probability(logits[i], labels[i], matrix, prior, cfg) for i in range(b)]
        )
        expected[np.arange(b), labels] -= 1.0
        np.testing.assert_array_equal(batch.grad_logits, expected)  # s=1: bitwise

    def test_gamma_zero_gradient_scales_by_temperature(self):
        rng = np.random.default_rng(4)
        b, c = 20, 3
        logits = rng.standard_normal((b, c))
        labels = rng.integers(0, c, b)
        matrix, prior = uniform_setup(c)
        cfg = MarginConfig(delta=0.0, t=0.0, s=0.5, gamma=0.0)
        batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
        probs = np.stack(
            [nabm_probability(logits[i], labels[i], matrix, prior, cfg) for i in range(b)]
        )
        probs[np.arange(b), labels] -= 1.0
        np.testing.assert_allclose(batch.grad_logits, probs / 0.5, rtol=1e-15)


class TestGradients:
    @staticmethod
    def fd_gradient(logits, labels, matrix, prior, cfg, h=1e-5):
        grad = np.empty_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                plus = logits.copy()
                plus[i, j] += h
                minus = logits.copy()
                minus[i, j] -= h
                lp = nabm_loss_batch(plus, labels, matrix, prior, cfg).per_sample_loss[i]
                lm = nabm_loss_batch(minus, labels, matrix, prior, cfg).per_sample_loss[i]
                grad[i, j] = (lp - lm) / (2 * h)
        return grad

    @pytest.mark.parametrize(
        "cfg",
        [
            MarginConfig(delta=0.0, t=0.0, s=1.0, gamma=0.0),
            MarginConfig(delta=0.5, t=1.0, s=1.0, gamma=1.0),
            MarginConfig(delta=0.1, t=0.01, s=0.5, gamma=2.0),
            MarginConfig(delta=1.0, t=1.0, s=0.7, gamma=0.5),
        ],
    )
    def test_analytic_matches_central_differences(self, cfg):
        rng = np.random.default_rng(17)
        b, c = 6, 3
        logits = rng.standard_normal((b, c))
        labels = rng.integers(0, c, b)
        matrix, prior = make_matrix(), make_prior()
        batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
        fd = self.fd_gradient(logits, labels, matrix, prior, cfg)
        denom = np.maximum(np.maximum(np.abs(batch.grad_logits), np.abs(fd)), 1e-3)
        assert (np.abs(batch.grad_logits - fd) / denom).max() <= 1e-5

    def test_saturated_probability_stays_finite(self):
        # p_hat rounds to exactly 1.0; the gamma < 1 branch must not emit
        # inf * 0 NaNs.
        logits = np.array([[40.0, 0.0, 0.0]])
        labels = np.array([0])
        matrix, prior = uniform_setup(3)
        for gamma in (0.5, 1.0, 2.0):
            cfg = MarginConfig(delta=0.0, t=0.0, s=1.0, gamma=gamma)
            batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
            assert batch.nabm_prob[0] == 1.0
            assert batch.per_sample_loss[0] == 0.0
            assert np.all(np.isfinite(batch.grad_logits))

    def test_mean_loss_uses_compensated_summation(self):
        rng = np.random.default_rng(23)
        b, c = 64, 5
        logits = rng.standard_normal((b, c))
        labels = rng.integers(0, c, b)
        matrix, prior = uniform_setup(c)
        batch = nabm_loss_batch(logits, labels, matrix, prior, MarginConfig())
        expected = math.fsum(batch.per_sample_loss.tolist()) / b
        assert batch.mean_loss == expected


def reference_loss_batch(logits, labels, matrix, prior, cfg):
    """Loss, logit gradient and adjusted label probability with the focal
    factor always evaluated through a mask: the bitwise reference for
    ``nabm_loss_batch``."""
    b = logits.shape[0]
    adjusted = (logits + cfg.delta * matrix.values[labels] + cfg.t * np.log(prior.values)) / cfg.s
    m = adjusted.max(axis=1, keepdims=True)
    log_probs = adjusted - (m[:, 0] + np.log(np.exp(adjusted - m).sum(axis=1)))[:, None]
    probs = np.exp(log_probs)
    rows = np.arange(b)
    log_p_hat = log_probs[rows, labels]
    p_hat = probs[rows, labels]

    one_minus = 1.0 - p_hat
    loss = one_minus ** cfg.gamma * -log_p_hat

    if cfg.gamma == 0.0:
        scale = np.full(b, -1.0)
    else:
        scale = -(one_minus ** cfg.gamma)
        positive = one_minus > 0.0
        scale[positive] += (
            cfg.gamma
            * one_minus[positive] ** (cfg.gamma - 1.0)
            * p_hat[positive]
            * log_p_hat[positive]
        )

    grad = probs.copy()
    grad[rows, labels] -= 1.0
    grad *= -scale[:, None] / cfg.s
    return loss, grad, p_hat


# Every focal exponent with its own code path or power fast path, at unit
# and non-unit temperature.
PINNED_MARGINS = [
    MarginConfig(delta=0.5, t=1.0, s=s, gamma=gamma)
    for gamma in (0.0, 0.5, 1.0, 2.0)
    for s in (1.0, 0.7)
]


class TestBitwisePin:
    @pytest.mark.parametrize("saturated", [False, True], ids=["random", "saturated"])
    @pytest.mark.parametrize("cfg", PINNED_MARGINS, ids=lambda m: f"gamma{m.gamma}-s{m.s}")
    def test_matches_reference_bitwise(self, cfg, saturated):
        rng = np.random.default_rng(31)
        b, c = 32, 3
        logits = rng.standard_normal((b, c)) * 3.0
        labels = rng.integers(0, c, b)
        if saturated:
            # p_hat rounds to exactly 1.0 on these rows.
            rows = np.arange(0, b, 4)
            logits[rows] = 0.0
            logits[rows, labels[rows]] = 60.0
        matrix, prior = make_matrix(), make_prior()
        batch = nabm_loss_batch(logits, labels, matrix, prior, cfg)
        loss, grad, p_hat = reference_loss_batch(logits, labels, matrix, prior, cfg)
        assert (p_hat == 1.0).any() == saturated
        assert batch.per_sample_loss.tobytes() == loss.tobytes()
        assert batch.grad_logits.tobytes() == grad.tobytes()
        assert batch.nabm_prob.tobytes() == p_hat.tobytes()


class TestHeadAxis:
    @pytest.mark.parametrize("cfg", PINNED_MARGINS, ids=lambda m: f"gamma{m.gamma}-s{m.s}")
    def test_each_head_matches_its_own_call_bitwise(self, cfg):
        # Head 1 has saturated rows and head 0 none, so the stacked call takes
        # the masked focal branch for every head while head 0 alone would not.
        rng = np.random.default_rng(37)
        g, b, c = 3, 16, 3
        logits = rng.standard_normal((g, b, c)) * 3.0
        labels = rng.integers(0, c, (g, b))
        saturated = np.arange(0, b, 4)
        logits[1, saturated] = 0.0
        logits[1, saturated, labels[1, saturated]] = 60.0
        matrix = make_matrix()
        priors = [make_prior(), uniform_setup(c)[1], make_prior()]
        stacked = nabm_loss_batch(logits, labels, matrix, priors, cfg)
        assert stacked.per_sample_loss.shape == (g, b)
        assert stacked.grad_logits.shape == (g, b, c)
        assert stacked.nabm_prob.shape == (g, b)
        for h in range(g):
            alone = nabm_loss_batch(logits[h], labels[h], matrix, priors[h], cfg)
            assert stacked.per_sample_loss[h].tobytes() == alone.per_sample_loss.tobytes()
            assert stacked.grad_logits[h].tobytes() == alone.grad_logits.tobytes()
            assert stacked.nabm_prob[h].tobytes() == alone.nabm_prob.tobytes()

    def test_head_axis_validation(self):
        matrix, prior = uniform_setup(3)
        cfg = MarginConfig()
        logits = np.zeros((2, 4, 3))
        labels = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValidationError, match="^1 priors for 2 heads$"):
            nabm_loss_batch(logits, labels, matrix, [prior], cfg)
        with pytest.raises(ValidationError, match="batch size"):
            nabm_loss_batch(logits, labels[:, :3], matrix, [prior, prior], cfg)
        with pytest.raises(ValidationError, match="empty batch"):
            nabm_loss_batch(np.zeros((0, 4, 3)), np.zeros((0, 4), dtype=np.int64), matrix, [], cfg)
        with pytest.raises(ValidationError, match="3-D with a leading head axis"):
            nabm_loss_batch(np.zeros((1, 2, 4, 3)), np.zeros((1, 2, 4), dtype=np.int64), matrix, [prior], cfg)


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(ValidationError):
            MarginConfig(s=0.0)
        with pytest.raises(ValidationError):
            MarginConfig(s=-1.0)
        with pytest.raises(ValidationError):
            MarginConfig(gamma=-0.5)
        with pytest.raises(ValidationError):
            MarginConfig(delta=-0.1)
        with pytest.raises(ValidationError):
            MarginConfig(t=-0.1)
        for name in ("delta", "t", "s", "gamma"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValidationError, match=f"^{name} {value} must lie in "):
                    MarginConfig(**{name: value})

    def test_focal_domain(self):
        with pytest.raises(ValidationError):
            focal_loss(0.0, 1.0)
        with pytest.raises(ValidationError):
            focal_loss(-0.2, 1.0)
        with pytest.raises(ValidationError):
            focal_loss(1.0 + 1e-9, 1.0)
        with pytest.raises(ValidationError):
            focal_loss(0.5, -1.0)
        with pytest.raises(ValidationError):
            focal_loss(0.5, math.nan)

    def test_batch_validation(self):
        matrix, prior = uniform_setup(3)
        cfg = MarginConfig()
        good = np.zeros((2, 3))
        with pytest.raises(ValidationError):
            nabm_loss_batch(np.zeros((0, 3)), np.array([], dtype=int), matrix, prior, cfg)
        with pytest.raises(ValidationError):
            nabm_loss_batch(good, np.array([0]), matrix, prior, cfg)
        with pytest.raises(ValidationError):
            nabm_loss_batch(good, np.array([0, 3]), matrix, prior, cfg)
        with pytest.raises(ValidationError):
            nabm_loss_batch(np.full((2, 3), np.nan), np.array([0, 1]), matrix, prior, cfg)
        matrix2, prior2 = uniform_setup(4)
        with pytest.raises(ValidationError):
            nabm_loss_batch(good, np.array([0, 1]), matrix2, prior2, cfg)

    @pytest.mark.parametrize(
        "labels", [[0.7, 1.2], [0.0, 1.0], np.array([0, 1], dtype=np.uint64), ["0", "1"]],
        ids=["fractional", "integral-float", "uint64", "str"],
    )
    def test_labels_must_cast_safely_to_int64(self, labels):
        # A float label used to be truncated: [0.7, 1.2] trained as [0, 1].
        matrix, prior = uniform_setup(2)
        with pytest.raises(ValidationError, match="^labels must hold int values, not "):
            nabm_loss_batch(np.zeros((2, 2)), labels, matrix, prior, MarginConfig())

    def test_narrow_and_bool_labels_accepted(self):
        matrix, prior = uniform_setup(2)
        logits = np.array([[0.3, -0.2], [1.0, 0.5]])
        reference = nabm_loss_batch(logits, np.array([0, 1]), matrix, prior, MarginConfig())
        for labels in (np.array([0, 1], dtype=np.int8), np.array([False, True]), [0, 1]):
            batch = nabm_loss_batch(logits, labels, matrix, prior, MarginConfig())
            assert batch.per_sample_loss.tobytes() == reference.per_sample_loss.tobytes()

    def test_single_sample_validation(self):
        matrix, prior = uniform_setup(3)
        cfg = MarginConfig()
        with pytest.raises(ValidationError):
            nabm_probability(np.zeros((2, 3)), 0, matrix, prior, cfg)
        with pytest.raises(ValidationError):
            nabm_probability(np.zeros(3), 5, matrix, prior, cfg)
        with pytest.raises(ValidationError):
            cross_entropy(np.array([np.inf, 0.0]), 0)
        with pytest.raises(ValidationError):
            cross_entropy(np.zeros(3), -1)
        with pytest.raises(ValidationError, match="^logits must be a 1-D vector$"):
            cross_entropy(np.zeros((1, 3)), 0)
