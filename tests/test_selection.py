"""Tests for the confidence and prompt-consistency selection criteria."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselens.data import ROW_BLOCK, Dataset, ScoreMatrix
from noiselens.errors import FormatError, ValidationError
from noiselens.selection import (
    LN2,
    SelectionMask,
    _js_rows,
    apply_mask,
    js_divergence,
    load_mask,
    save_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)

# 50-digit reference for JS((0.5,0.5), (0.9,0.1)) with natural log.
JS_HALF_VS_NINETY = 0.1017492250791966883


def js_oracle(p, q):
    """Direct term-by-term evaluation, independent of the vectorized path."""
    m = [(a + b) / 2 for a, b in zip(p, q)]
    total = 0.0
    for a, b, mid in zip(p, q, m):
        if a > 1e-15:
            total += 0.5 * a * math.log(a / mid)
        if b > 1e-15:
            total += 0.5 * b * math.log(b / mid)
    return total


def dataset_with_labels(labels, num_classes):
    labels = np.asarray(labels)
    return Dataset(
        num_classes=num_classes,
        ids=np.arange(labels.size),
        features=np.zeros((labels.size, 1)),
        noisy_labels=labels,
    )


def uniform_scores(n, c):
    return ScoreMatrix(values=np.full((n, c), 1.0 / c), sample_ids=np.arange(n))


class TestJSDivergence:
    def test_identical_distributions_give_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_support_attains_ln2(self):
        v = js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(v - LN2) <= 1e-15

    def test_reference_value(self):
        v = js_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        assert abs(v - JS_HALF_VS_NINETY) <= 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = rng.integers(2, 9)
            p = rng.random(c) + 1e-3
            q = rng.random(c) + 1e-3
            p /= p.sum()
            q /= q.sum()
            assert abs(js_divergence(p, q) - js_oracle(p, q)) <= 1e-12

    def test_zero_entries_handled(self):
        p = np.array([0.7, 0.3, 0.0])
        q = np.array([0.0, 0.3, 0.7])
        v = js_divergence(p, q)
        assert 0.0 <= v <= LN2
        assert abs(v - js_oracle(p, q)) <= 1e-12

    def test_non_normalized_rejected(self):
        with pytest.raises(ValidationError):
            js_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            js_divergence(np.array([1.1, -0.1]), np.array([0.5, 0.5]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 12))
        p = rng.random(c) + 1e-9
        q = rng.random(c) + 1e-9
        p /= p.sum()
        q /= q.sum()
        forward = js_divergence(p, q)
        backward = js_divergence(q, p)
        assert abs(forward - backward) <= 1e-12
        assert -1e-15 <= forward <= LN2 + 1e-12


class TestSelectByConfidence:
    def test_above_threshold_is_clean(self):
        ds = dataset_with_labels([0], 2)
        scores = ScoreMatrix(values=np.array([[0.6, 0.4]]), sample_ids=np.array([0]))
        mask = select_by_confidence(ds, scores, 0.5)
        assert mask.verdicts[0]

    def test_exact_threshold_rejected(self):
        ds = dataset_with_labels([0], 2)
        scores = ScoreMatrix(values=np.array([[0.5, 0.5]]), sample_ids=np.array([0]))
        mask = select_by_confidence(ds, scores, 0.5)
        assert not mask.verdicts[0]

    def test_uniform_scores_select_nothing(self):
        ds = dataset_with_labels(np.arange(10) % 10, 10)
        mask = select_by_confidence(ds, uniform_scores(10, 10), 0.5)
        assert mask.selected_count == 0

    def test_scores_are_confidence_at_noisy_label(self):
        ds = dataset_with_labels([1, 0], 2)
        values = np.array([[0.3, 0.7], [0.8, 0.2]])
        scores = ScoreMatrix(values=values, sample_ids=np.array([0, 1]))
        mask = select_by_confidence(ds, scores, 0.5)
        np.testing.assert_array_equal(mask.scores, [0.7, 0.8])

    def test_rho_range_enforced(self):
        ds = dataset_with_labels([0], 2)
        scores = uniform_scores(1, 2)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                select_by_confidence(ds, scores, bad)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_rho(self, seed):
        rng = np.random.default_rng(seed)
        n, c = 30, 4
        raw = rng.random((n, c)) + 1e-6
        values = raw / raw.sum(axis=1, keepdims=True)
        ds = dataset_with_labels(rng.integers(0, c, n), c)
        scores = ScoreMatrix(values=values, sample_ids=np.arange(n))
        lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
        wide = select_by_confidence(ds, scores, float(lo))
        narrow = select_by_confidence(ds, scores, float(hi))
        assert np.all(wide.verdicts | ~narrow.verdicts)  # narrow set is a subset

    def test_true_labels_never_read(self):
        rng = np.random.default_rng(7)
        n, c = 40, 3
        raw = rng.random((n, c))
        values = raw / raw.sum(axis=1, keepdims=True)
        scores = ScoreMatrix(values=values, sample_ids=np.arange(n))
        noisy = rng.integers(0, c, n)
        with_truth = Dataset(
            num_classes=c,
            ids=np.arange(n),
            features=np.zeros((n, 1)),
            noisy_labels=noisy,
            true_labels=(noisy + 1) % c,
        )
        flipped = Dataset(
            num_classes=c,
            ids=np.arange(n),
            features=np.zeros((n, 1)),
            noisy_labels=noisy,
            true_labels=(noisy + 2) % c,
        )
        a = select_by_confidence(with_truth, scores, 0.4)
        b = select_by_confidence(flipped, scores, 0.4)
        np.testing.assert_array_equal(a.verdicts, b.verdicts)


class TestSelectByPromptConsistency:
    def test_identical_rows_all_clean(self):
        ds = dataset_with_labels([0, 1, 0], 2)
        scores = ScoreMatrix(
            values=np.array([[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]),
            sample_ids=np.arange(3),
        )
        mask = select_by_prompt_consistency(ds, scores, scores, 0.05)
        assert mask.selected_count == 3
        np.testing.assert_array_equal(mask.scores, np.zeros(3))

    def test_disjoint_rows_rejected_at_half(self):
        ds = dataset_with_labels([0, 1], 2)
        a = ScoreMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), sample_ids=np.arange(2))
        b = ScoreMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), sample_ids=np.arange(2))
        mask = select_by_prompt_consistency(ds, a, b, 0.5)
        assert mask.selected_count == 0  # ln 2 > 0.5

    def test_mu_must_be_positive_and_finite(self):
        ds = dataset_with_labels([0, 1], 2)
        a = ScoreMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), sample_ids=np.arange(2))
        for mu in (0.0, -0.1, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match=f"^mu {mu!r} must lie in \\(0, inf\\)$"):
                select_by_prompt_consistency(ds, a, a, mu)

    def test_verdicts_match_independent_oracle(self):
        rng = np.random.default_rng(11)
        n, c = 50, 4
        raw_a = rng.random((n, c)) + 1e-6
        raw_b = rng.random((n, c)) + 1e-6
        a = ScoreMatrix(values=raw_a / raw_a.sum(axis=1, keepdims=True), sample_ids=np.arange(n))
        b = ScoreMatrix(values=raw_b / raw_b.sum(axis=1, keepdims=True), sample_ids=np.arange(n))
        ds = dataset_with_labels(rng.integers(0, c, n), c)
        mu = 0.12
        mask = select_by_prompt_consistency(ds, a, b, mu)
        for i in range(n):
            expected = js_oracle(a.values[i], b.values[i]) < mu
            assert mask.verdicts[i] == expected

    def test_monotone_in_mu(self):
        rng = np.random.default_rng(13)
        n, c = 30, 3
        raw_a = rng.random((n, c)) + 1e-6
        raw_b = rng.random((n, c)) + 1e-6
        a = ScoreMatrix(values=raw_a / raw_a.sum(axis=1, keepdims=True), sample_ids=np.arange(n))
        b = ScoreMatrix(values=raw_b / raw_b.sum(axis=1, keepdims=True), sample_ids=np.arange(n))
        ds = dataset_with_labels(rng.integers(0, c, n), c)
        small = select_by_prompt_consistency(ds, a, b, 0.05)
        large = select_by_prompt_consistency(ds, a, b, 0.3)
        assert np.all(large.verdicts | ~small.verdicts)  # grows with mu

    @staticmethod
    def random_pair(n, c, seed):
        """Two row-stochastic score matrices with about a tenth of their
        entries below the divergence's zero cutoff."""
        rng = np.random.default_rng(seed)
        pair = []
        for _ in range(2):
            raw = rng.random((n, c)) * (rng.random((n, c)) > 0.1) + 1e-300
            pair.append(ScoreMatrix(raw / raw.sum(axis=1, keepdims=True), np.arange(n)))
        return pair

    @pytest.mark.parametrize(
        "n", [1, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]
    )
    def test_row_blocks_give_the_one_shot_bits(self, n):
        a, b = self.random_pair(n, 10, n)
        mask = select_by_prompt_consistency(dataset_with_labels(np.zeros(n, int), 10), a, b, 0.1)
        assert mask.scores.tobytes() == _js_rows(np.array((a.values, b.values))).tobytes()

    def test_holds_one_block_of_temporaries(self):
        # The one-shot criterion peaked at about 7 * N * C floats.
        n, c = 20000, 10
        a, b = self.random_pair(n, c, 14)
        ds = dataset_with_labels(np.zeros(n, int), c)
        tracemalloc.start()
        try:
            select_by_prompt_consistency(ds, a, b, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * c * 8


class TestMaskAndSubset:
    def make(self, n=6, c=2):
        labels = np.arange(n) % c
        ds = dataset_with_labels(labels, c)
        raw = np.linspace(0.1, 0.9, n)
        values = np.stack([raw, 1 - raw], axis=1)
        values[np.arange(n) % c == 1] = values[np.arange(n) % c == 1][:, ::-1]
        scores = ScoreMatrix(values=values, sample_ids=ds.ids)
        return ds, scores

    def test_all_true_mask_is_identity(self):
        ds, _ = self.make()
        mask = SelectionMask(
            sample_ids=ds.ids,
            scores=np.full(6, 0.9),
            criterion="confidence",
            threshold=0.5,
        )
        sub = apply_mask(ds, mask)
        np.testing.assert_array_equal(sub.ids, ds.ids)

    def test_empty_selection_is_an_error(self):
        ds, _ = self.make()
        mask = SelectionMask(
            sample_ids=ds.ids,
            scores=np.full(6, 0.1),
            criterion="confidence",
            threshold=0.5,
        )
        with pytest.raises(ValidationError, match="empty selection"):
            apply_mask(ds, mask)

    def test_alternating_mask_keeps_flagged_in_order(self):
        ds, _ = self.make()
        verdicts = np.array([True, False, True, False, True, False])
        mask = SelectionMask(
            sample_ids=ds.ids,
            scores=np.where(verdicts, 0.9, 0.1),
            criterion="confidence",
            threshold=0.5,
        )
        sub = apply_mask(ds, mask)
        np.testing.assert_array_equal(sub.ids, [0, 2, 4])

    def test_mask_invariant_enforced(self, tmp_path):
        # A file's verdict column must agree with its scores: 0.9 > 0.5 reads 1.
        path = tmp_path / "mask.txt"
        path.write_text("#noiselens-mask v1 N=1 CRITERION=confidence THRESHOLD=0.5\n0,0.9,0\n")
        with pytest.raises(ValidationError, match="verdicts are inconsistent with scores and threshold"):
            load_mask(path)
        # A verdict must be 0 or 1 before it is compared with its score.
        path.write_text(
            "#noiselens-mask v1 N=3 CRITERION=confidence THRESHOLD=0.5\n0,0.9,1\n1,0.9,1\n2,0.9,2\n"
        )
        with pytest.raises(FormatError, match="line 4: verdict must be 0 or 1$"):
            load_mask(path)

    def test_mask_id_mismatch(self):
        ds, _ = self.make()
        mask = SelectionMask(
            sample_ids=ds.ids + 100,
            scores=np.full(6, 0.9),
            criterion="confidence",
            threshold=0.5,
        )
        with pytest.raises(ValidationError):
            apply_mask(ds, mask)

    @pytest.mark.parametrize(
        "criterion,threshold",
        [
            ("confidence", "-1"),
            ("confidence", "0"),
            ("confidence", "1"),
            ("confidence", "1.5"),
            ("prompt_consistency", "0"),
        ],
    )
    def test_loaded_threshold_out_of_range(self, tmp_path, criterion, threshold):
        # Each verdict agrees with its score, so only the threshold is wrong.
        t = float(threshold)
        scores = [0.2, 0.8]
        flags = [int(s > t if criterion == "confidence" else s < t) for s in scores]
        path = tmp_path / "mask.txt"
        path.write_text(
            f"#noiselens-mask v1 N=2 CRITERION={criterion} THRESHOLD={threshold}\n"
            + "".join(f"{i},{s!r},{f}\n" for i, (s, f) in enumerate(zip(scores, flags)))
        )
        with pytest.raises(ValidationError):
            load_mask(path)

    def test_round_trip(self, tmp_path):
        ds, scores = self.make()
        mask = select_by_confidence(ds, scores, 0.45)
        path = tmp_path / "mask.txt"
        save_mask(path, mask)
        loaded = load_mask(path)
        np.testing.assert_array_equal(loaded.verdicts, mask.verdicts)
        np.testing.assert_array_equal(loaded.scores, mask.scores)
        assert loaded.criterion == mask.criterion
        assert loaded.threshold == mask.threshold
