"""Tests for transition-matrix estimation and the smoothed class prior."""

import numpy as np
import pytest

from noiselens.data import Dataset, ScoreMatrix
from noiselens.errors import FormatError, ValidationError
from noiselens.priors import (
    ClassPrior,
    TransitionMatrix,
    compute_class_prior,
    estimate_transition_matrix,
    load_class_prior,
    load_transition_matrix,
    save_class_prior,
    save_transition_matrix,
    transition_matrix_error,
)


def dataset_with_labels(labels, num_classes):
    labels = np.asarray(labels)
    return Dataset(
        num_classes=num_classes,
        ids=np.arange(labels.size),
        features=np.zeros((labels.size, 1)),
        noisy_labels=labels,
    )


def random_scores(rng, n, c):
    raw = rng.random((n, c)) + 1e-6
    return ScoreMatrix(values=raw / raw.sum(axis=1, keepdims=True), sample_ids=np.arange(n))


class TestEstimateTransitionMatrix:
    def test_hand_computed_case(self):
        ds = dataset_with_labels([0, 0, 1, 1], 2)
        scores = ScoreMatrix(
            values=np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.4, 0.6]]),
            sample_ids=np.arange(4),
        )
        tm = estimate_transition_matrix(ds, scores)
        np.testing.assert_allclose(tm.values, [[0.8, 0.2], [0.3, 0.7]], atol=1e-15)
        np.testing.assert_array_equal(tm.source_count, [2, 2])
        assert tm.warnings == ()

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(3)
        n, c = 200, 5
        ds = dataset_with_labels(rng.integers(0, c, n), c)
        scores = random_scores(rng, n, c)
        tm = estimate_transition_matrix(ds, scores)
        expected = np.zeros((c, c))
        counts = np.zeros(c)
        for k in range(n):
            expected[ds.noisy_labels[k]] += scores.values[k]
            counts[ds.noisy_labels[k]] += 1
        expected /= counts[:, None]
        np.testing.assert_allclose(tm.values, expected, atol=1e-12)

    def test_empty_class_gets_uniform_row_and_warning(self):
        ds = dataset_with_labels([0, 0, 1, 1], 3)
        rng = np.random.default_rng(5)
        scores = random_scores(rng, 4, 3)
        tm = estimate_transition_matrix(ds, scores)
        np.testing.assert_allclose(tm.values[2], [1 / 3, 1 / 3, 1 / 3])
        assert len(tm.warnings) == 1
        assert "class 2" in tm.warnings[0]
        assert tm.source_count[2] == 0

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(9)
        n, c = 500, 7
        ds = dataset_with_labels(rng.integers(0, c, n), c)
        tm = estimate_transition_matrix(ds, random_scores(rng, n, c))
        np.testing.assert_allclose(tm.values.sum(axis=1), np.ones(c), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        ds = dataset_with_labels([0, 1], 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            estimate_transition_matrix(ds, random_scores(rng, 3, 2))
        with pytest.raises(ValidationError):
            estimate_transition_matrix(ds, random_scores(rng, 2, 3))

    def test_id_misalignment_rejected(self):
        ds = dataset_with_labels([0, 1], 2)
        scores = ScoreMatrix(
            values=np.full((2, 2), 0.5), sample_ids=np.array([5, 6])
        )
        with pytest.raises(ValidationError):
            estimate_transition_matrix(ds, scores)


class TestTransitionMatrixValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(np.full((2, 3), 0.5))

    def test_row_sum_violation_names_row(self):
        bad = np.array([[0.5, 0.5], [0.6, 0.6]])
        with pytest.raises(ValidationError, match="row 1"):
            TransitionMatrix(bad)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_error_metric(self):
        tm = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        assert transition_matrix_error(tm, tm.values) == 0.0
        assert abs(transition_matrix_error(tm, np.eye(2)) - 0.25) <= 1e-15

    def test_error_metric_rejects_bad_reference(self):
        tm = TransitionMatrix(np.eye(2))
        with pytest.raises(ValidationError):
            transition_matrix_error(tm, np.eye(3))
        with pytest.raises(ValidationError):
            transition_matrix_error(tm, np.array([[0.5, 0.6], [0.5, 0.5]]))


class TestClassPrior:
    def test_add_half_smoothing(self):
        subset = dataset_with_labels([0, 0, 0, 1], 3)
        prior = compute_class_prior(subset)
        np.testing.assert_allclose(
            prior.values, [(3 + 0.5) / 5.5, (1 + 0.5) / 5.5, 0.5 / 5.5]
        )
        np.testing.assert_array_equal(prior.counts, [3, 1, 0])
        assert prior.total == 4

    def test_missing_class_stays_positive(self):
        subset = dataset_with_labels([1, 1, 1], 4)
        prior = compute_class_prior(subset)
        assert prior.values.min() > 0.0
        assert abs(prior.values.sum() - 1.0) <= 1e-12

    def test_empty_subset_rejected(self):
        # An empty subset cannot even be constructed, so the prior is never
        # asked to divide by zero.
        ds = dataset_with_labels([0, 1], 2)
        with pytest.raises(ValidationError, match="at least one sample"):
            ds.subset(np.array([], dtype=np.int64))

    def test_constructor_invariants(self):
        with pytest.raises(ValidationError):
            ClassPrior(np.array([0.5, 0.5]), np.array([1, 2]), 4)  # counts != total
        with pytest.raises(ValidationError):
            ClassPrior(np.array([0.7, 0.4]), np.array([2, 2]), 4)  # sum != 1
        with pytest.raises(ValidationError):
            ClassPrior(np.array([1.0, 0.0]), np.array([4, 0]), 4)  # zero entry
        with pytest.raises(ValidationError):
            ClassPrior(np.array([]), np.array([]), 0)  # no classes

    @pytest.mark.parametrize(
        "values", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.5], [-np.inf, 0.5]]
    )
    def test_non_finite_entry_rejected(self, values):
        # nan passes both the positivity and the sum check, so it needs its own.
        with pytest.raises(ValidationError, match="^non-finite prior entry$"):
            ClassPrior(np.array(values), np.array([1, 1]), 2)


class TestFiles:
    def test_transition_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        ds = dataset_with_labels(rng.integers(0, 4, 100), 4)
        tm = estimate_transition_matrix(ds, random_scores(rng, 100, 4))
        path = tmp_path / "tm.txt"
        save_transition_matrix(path, tm)
        loaded = load_transition_matrix(path)
        np.testing.assert_array_equal(loaded.values, tm.values)  # bit-exact
        assert loaded.source_count is None

    def test_transition_row_count_mismatch(self, tmp_path):
        path = tmp_path / "tm.txt"
        path.write_text("#noiselens-tm v1 C=3\n0.5,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_transition_matrix(path)

    def test_transition_field_count_mismatch(self, tmp_path):
        path = tmp_path / "tm.txt"
        path.write_text("#noiselens-tm v1 C=2\n0.5,0.5\n1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_transition_matrix(path)

    def test_non_stochastic_file_rejected(self, tmp_path):
        path = tmp_path / "tm.txt"
        for text in ("#noiselens-tm v1 C=2\n0.5,0.5\n0.9,0.9\n", "#noiselens-tm v1 C=0\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValidationError):
                load_transition_matrix(path)

    def test_prior_round_trip(self, tmp_path):
        subset = dataset_with_labels([0, 0, 0, 1, 2], 3)
        prior = compute_class_prior(subset)
        path = tmp_path / "prior.txt"
        save_class_prior(path, prior)
        loaded = load_class_prior(path)
        np.testing.assert_array_equal(loaded.values, prior.values)
        np.testing.assert_array_equal(loaded.counts, prior.counts)
        assert loaded.total == prior.total

    def test_prior_bad_field(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text(
            "#noiselens-prior v1 C=2 TOTAL=4\n2,0.5\n2,oops\n", encoding="utf-8"
        )
        with pytest.raises(FormatError, match="line 3"):
            load_class_prior(path)
