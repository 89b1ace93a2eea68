"""Tests for evaluation metrics, confidence histograms, and threshold sweeps."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselens.trainer
from noiselens import parallel
from noiselens.data import Dataset, ScoreMatrix
from noiselens.errors import NoiseLensError, ValidationError
from noiselens.losses import MarginConfig
from noiselens.noise import NoiseSpec, inject_noise, make_blobs, oracle_scores, selection_quality
from noiselens.report import (
    HistogramReport,
    SweepPoint,
    SweepReport,
    accuracy,
    confidence_histogram,
    format_records,
    format_table,
    histogram_rows,
    threshold_sweep,
    top_k_accuracy,
    TrainingBundle,
)
from noiselens.selection import apply_mask, select_by_confidence
from noiselens.priors import compute_class_prior, estimate_transition_matrix
from noiselens.trainer import TrainConfig, predict, train


class TestAccuracy:
    def test_trivial_values(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2, 3], [3, 2, 1]) == pytest.approx(1 / 3)
        assert accuracy([0], [1]) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            accuracy([1, 2], [1, 2, 3])
        with pytest.raises(ValidationError):
            accuracy([], [])
        with pytest.raises(ValidationError):
            accuracy(np.zeros((2, 2)), np.zeros((2, 2)))


class TestTopKAccuracy:
    def test_k_equals_one_matches_argmax(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])
        assert top_k_accuracy(probs, [1, 0], 1) == 1.0
        assert top_k_accuracy(probs, [0, 1], 1) == 0.0

    def test_boundary_rank_is_a_hit(self):
        # Reference class has exactly the 3rd-highest probability; k=3 hits.
        probs = np.array([[0.4, 0.3, 0.2, 0.1]])
        assert top_k_accuracy(probs, [2], 3) == 1.0
        assert top_k_accuracy(probs, [2], 2) == 0.0

    def test_ties_rank_lower_class_first(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]])
        # All tied: top-2 is {0, 1}, so class 2 misses at k=2 and hits at k=3.
        assert top_k_accuracy(probs, [1], 2) == 1.0
        assert top_k_accuracy(probs, [2], 2) == 0.0
        assert top_k_accuracy(probs, [2], 3) == 1.0

    def test_k_equals_c_is_always_one(self):
        rng = np.random.default_rng(0)
        probs = rng.random((20, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        assert top_k_accuracy(probs, rng.integers(0, 5, 20), 5) == 1.0

    def test_validation(self):
        probs = np.full((2, 3), 1 / 3)
        with pytest.raises(ValidationError):
            top_k_accuracy(probs, [0, 1], 0)
        with pytest.raises(ValidationError):
            top_k_accuracy(probs, [0, 1], 4)
        with pytest.raises(ValidationError):
            top_k_accuracy(probs, [0], 1)
        with pytest.raises(ValidationError, match="^probabilities must be a 2-D array$"):
            top_k_accuracy(probs[0], [0], 1)
        for k in (1.5, 2.0, True):
            with pytest.raises(ValidationError, match="k must be an integer"):
                top_k_accuracy(probs, [0, 1], k)


class TestConfidenceHistogram:
    def test_single_bin(self):
        report = confidence_histogram(np.full(7, 0.05))
        np.testing.assert_array_equal(report.counts, [7, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        assert report.total == 7

    def test_edge_values(self):
        report = confidence_histogram(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(report.counts, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])

    def test_bin_boundaries_are_left_closed(self):
        # 0.1 belongs to [0.1, 0.2), not [0.0, 0.1).
        report = confidence_histogram(np.array([0.1, 0.09999999, 0.9, 0.89999999]))
        np.testing.assert_array_equal(report.counts, [1, 1, 0, 0, 0, 0, 0, 0, 1, 1])

    def test_grid_matches_loop_binning(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.random(1000), [0.0, 1.0, 0.5, 0.999999]])
        report = confidence_histogram(values)
        edges = report.bin_edges
        expected = np.zeros(10, dtype=np.int64)
        for v in values:
            if v == 1.0:
                expected[9] += 1
                continue
            for b in range(10):
                if edges[b] <= v < edges[b + 1]:
                    expected[b] += 1
                    break
        np.testing.assert_array_equal(report.counts, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_counts_always_sum_to_input_size(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        values = rng.random(n)
        assert confidence_histogram(values).total == n

    def test_exact_decimal_edges(self):
        edges = confidence_histogram(np.array([0.5])).bin_edges
        assert list(edges) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_out_of_range_names_index(self):
        # The value prints as a plain float under every numpy version.
        for values, message in (
            ([0.5, 0.5, 1.5], "value 1.5 at index 2 is outside [0, 1]"),
            ([-0.1], "value -0.1 at index 0 is outside [0, 1]"),
            ([np.nan], "value nan at index 0 is outside [0, 1]"),
        ):
            with pytest.raises(ValidationError) as info:
                confidence_histogram(np.array(values))
            assert str(info.value) == message
        with pytest.raises(ValidationError):
            confidence_histogram(np.array([]))

    def test_report_shape_enforced(self):
        with pytest.raises(ValidationError):
            HistogramReport(bin_edges=np.arange(5) / 4, counts=np.zeros(4, dtype=int))
        counts = np.zeros(10, dtype=int)
        counts[3] = -1
        with pytest.raises(ValidationError, match="^histogram counts must be nonnegative$"):
            HistogramReport(bin_edges=np.arange(11) / 10, counts=counts)


def sweep_setup(seed=0):
    ds = make_blobs(3, 60, 4, 2.5, seed=seed)
    noisy, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=seed + 100))
    scores = oracle_scores(noisy, correct_prob=0.9)
    test = make_blobs(3, 40, 4, 2.5, seed=seed + 1000)
    bundle = TrainingBundle(
        margin=MarginConfig(delta=0.5, t=1.0, s=1.0, gamma=1.0),
        train=TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=seed),
        test_dataset=test,
    )
    return noisy, scores, bundle


def graded_sweep_setup(seed=7):
    """Noisy blobs whose scores at the noisy label spread over [0.4, 0.95],
    so each threshold keeps its own nested selection. Sample 0 is huge and
    scores 0.32: only a threshold below that trains on it, and diverges."""
    ds = make_blobs(3, 40, 4, 2.5, seed=seed)
    noisy, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=seed + 100))
    n, c = noisy.num_samples, noisy.num_classes
    at_label = np.random.default_rng(seed).uniform(0.4, 0.95, n)
    at_label[0] = 0.32
    values = np.repeat(((1.0 - at_label) / (c - 1))[:, None], c, axis=1)
    values[np.arange(n), noisy.noisy_labels] = at_label
    features = noisy.features.copy()
    features[0] = 1e300
    noisy = Dataset(c, noisy.ids, features, noisy.noisy_labels, noisy.true_labels)
    test = make_blobs(3, 30, 4, 2.5, seed=seed + 1000)
    bundle = TrainingBundle(
        margin=MarginConfig(delta=0.5, t=1.0, s=1.0, gamma=1.0),
        train=TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=seed),
        test_dataset=test,
    )
    return noisy, ScoreMatrix(values, noisy.ids), bundle


def manual_point(noisy, scores, rho, matrix, bundle):
    """One sweep point by select -> prior -> train -> evaluate on its own."""
    mask = select_by_confidence(noisy, scores, rho)
    if mask.selected_count == 0:
        return (rho, 0, None, None, None, True, "empty selection")
    subset = apply_mask(noisy, mask)
    try:
        trained = train(subset, matrix, compute_class_prior(subset), bundle.margin, bundle.train)
    except NoiseLensError as exc:
        return (rho, mask.selected_count, None, None, None, True, str(exc))
    predicted = predict(trained.classifier, bundle.test_dataset).labels
    test_acc = float(np.mean(predicted == bundle.test_dataset.true_labels))
    quality = selection_quality(mask, noisy)
    return (rho, mask.selected_count, quality.precision, quality.recall, test_acc, False, "")


class TestThresholdSweep:
    def test_counts_non_increasing(self):
        noisy, scores, bundle = sweep_setup()
        report = threshold_sweep(noisy, scores, [0.1, 0.5, 0.85], bundle)
        counts = [p.selected_count for p in report.points]
        assert counts == sorted(counts, reverse=True)
        assert all(not p.skipped for p in report.points)
        assert all(p.test_accuracy is not None for p in report.points)
        # oracle scores at 0.9: precision should be high
        assert report.points[1].precision > 0.9

    def test_single_threshold_matches_manual_pipeline(self):
        noisy, scores, bundle = sweep_setup(seed=1)
        report = threshold_sweep(noisy, scores, [0.5], bundle)
        point = report.points[0]

        matrix = estimate_transition_matrix(noisy, scores)
        mask = select_by_confidence(noisy, scores, 0.5)
        subset = apply_mask(noisy, mask)
        prior = compute_class_prior(subset)
        trained = train(subset, matrix, prior, bundle.margin, bundle.train)
        predicted = predict(trained.classifier, bundle.test_dataset).labels
        expected = float(np.mean(predicted == bundle.test_dataset.true_labels))

        assert point.selected_count == mask.selected_count
        assert point.test_accuracy == expected
        # Without true labels the point is the same but for its precision and recall.
        unlabelled = Dataset(noisy.num_classes, noisy.ids, noisy.features, noisy.noisy_labels)
        (blind,) = threshold_sweep(unlabelled, scores, [0.5], bundle).points
        assert blind == replace(point, precision=None, recall=None)
        assert point.precision is not None and point.recall is not None

    def test_points_match_the_manual_pipeline_per_threshold(self):
        noisy, scores, bundle = graded_sweep_setup()
        thresholds = [0.3, 0.5, 0.7, 0.9, 0.96]
        report = threshold_sweep(noisy, scores, thresholds, bundle)
        matrix = estimate_transition_matrix(noisy, scores)
        expected = [manual_point(noisy, scores, rho, matrix, bundle) for rho in thresholds]
        got = [
            (p.threshold, p.selected_count, p.precision, p.recall, p.test_accuracy, p.skipped, p.error)
            for p in report.points
        ]
        assert got == expected
        # The outlier's head diverged alone; 0.96 selects nothing.
        assert got[0][5] and got[0][6].startswith("non-finite ")
        assert not any(point[5] for point in got[1:4])
        assert got[4][5] and got[4][6] == "empty selection"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_points_do_not_depend_on_the_training_processes(self, monkeypatch):
        noisy, scores, bundle = graded_sweep_setup()
        thresholds = [0.3, 0.5, 0.7, 0.9, 0.96]
        monkeypatch.setattr(noiselens.trainer, "FORK_ROWS", 0)
        points = []
        for processes in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: processes)
            points.append(threshold_sweep(noisy, scores, thresholds, bundle).points)
        assert points[0] == points[1]
        assert points[0][0].error.startswith("non-finite ")

    def test_invalid_threshold_marked_skipped(self):
        noisy, scores, bundle = sweep_setup(seed=2)
        report = threshold_sweep(noisy, scores, [0.5, 1.0], bundle)
        assert not report.points[0].skipped
        assert report.points[1].skipped
        assert report.points[1].test_accuracy is None
        assert report.points[1].error != ""

    def test_empty_selection_marked_skipped(self):
        noisy, scores, bundle = sweep_setup(seed=3)
        # Oracle at 0.9 confidence: threshold 0.95 selects nothing.
        report = threshold_sweep(noisy, scores, [0.5, 0.95], bundle)
        assert report.points[1].skipped
        assert report.points[1].error == "empty selection"
        assert report.points[1].selected_count == 0

    def test_threshold_order_enforced(self):
        noisy, scores, bundle = sweep_setup(seed=4)
        with pytest.raises(ValidationError):
            threshold_sweep(noisy, scores, [0.5, 0.3], bundle)
        with pytest.raises(ValidationError):
            threshold_sweep(noisy, scores, [0.5, 0.5], bundle)
        with pytest.raises(ValidationError):
            threshold_sweep(noisy, scores, [], bundle)
        with pytest.raises(ValidationError, match="strictly ascending"):
            threshold_sweep(noisy, scores, [0.3, float("nan"), 0.5], bundle)
        with pytest.raises(ValidationError, match="thresholds must be numbers"):
            threshold_sweep(noisy, scores, ["abc"], bundle)

    def test_report_invariant(self):
        with pytest.raises(ValidationError):
            SweepReport(
                points=(
                    SweepPoint(0.1, 5, None, None, None),
                    SweepPoint(0.5, 9, None, None, None),
                )
            )


class TestFormatters:
    ROWS = [
        {"name": "a", "value": 0.5, "flag": True, "note": None},
        {"name": "bb", "value": 2.0, "flag": False, "note": "empty selection"},
    ]

    def test_records_format(self):
        text = format_records(self.ROWS)
        lines = text.splitlines()
        assert lines[0] == "name=a value=0.5 flag=1 note=-"
        # whitespace inside a value becomes '_' so records stay token-splittable
        assert lines[1] == "name=bb value=2.0 flag=0 note=empty_selection"
        assert text.endswith("\n")

    def test_table_format(self):
        text = format_table(self.ROWS)
        lines = text.splitlines()
        assert lines[0].split() == ["name", "value", "flag", "note"]
        assert lines[1].split() == ["a", "0.5", "1", "-"]
        # columns are aligned: 'name' column is padded to len('name')
        assert lines[1].startswith("a   ")
        assert lines[2].endswith("empty selection")  # the table keeps it verbatim

    def test_table_requires_shared_columns(self):
        with pytest.raises(ValidationError):
            format_table([{"a": 1}, {"b": 2}])

    def test_empty_rows(self):
        assert format_records([]) == ""
        assert format_table([]) == ""

    def test_histogram_rows(self):
        report = confidence_histogram(np.array([0.05, 0.95]), source="scores")
        rows = histogram_rows(report)
        assert len(rows) == 10
        assert rows[0] == {"bin_low": 0.0, "bin_high": 0.1, "count": 1, "source": "scores"}
        assert rows[9]["count"] == 1
