"""Tests for the core dataset/score-matrix model and its file formats."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselens.codec import fmt_float
from noiselens.data import (
    Dataset,
    FormatError,
    ScoreMatrix,
    ValidationError,
    check_scores,
    load_dataset,
    load_score_matrix,
    save_dataset,
    save_score_matrix,
)
from noiselens.noise import selection_quality
from noiselens.priors import estimate_transition_matrix
from noiselens.scorer import load_embedding_table
from noiselens.selection import (
    SelectionMask,
    apply_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)


def small_dataset(with_truth=True):
    return Dataset(
        num_classes=3,
        ids=np.array([10, 11, 12, 13]),
        features=np.array([[0.5, 1.0], [-1.0, 2.0], [0.0, 0.0], [3.5, -2.25]]),
        noisy_labels=np.array([0, 1, 2, 1]),
        true_labels=np.array([0, 2, 2, 1]) if with_truth else None,
    )


class TestDataset:
    def test_basic_properties(self):
        ds = small_dataset()
        assert ds.num_samples == 4
        assert ds.feature_dim == 2
        assert ds.num_classes == 3
        assert ds.has_ground_truth

    def test_too_few_classes(self):
        with pytest.raises(ValidationError, match="^dataset needs at least 2 classes$"):
            Dataset(
                num_classes=1,
                ids=np.array([0]),
                features=np.array([[1.0]]),
                noisy_labels=np.array([0]),
            )

    def test_fields_cannot_be_rebound(self):
        ds = small_dataset()
        with pytest.raises(AttributeError):
            ds.num_classes = 4
        with pytest.raises(AttributeError):
            ds.features = np.zeros((4, 2))

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError, match="label out of range"):
            Dataset(
                num_classes=2,
                ids=np.array([0]),
                features=np.array([[1.0]]),
                noisy_labels=np.array([2]),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(
                num_classes=2,
                ids=np.array([5, 5]),
                features=np.array([[1.0], [2.0]]),
                noisy_labels=np.array([0, 1]),
            )

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(
                num_classes=2,
                ids=np.array([0, 1]),
                features=np.array([[1.0], [np.nan]]),
                noisy_labels=np.array([0, 1]),
            )

    def test_arrays_frozen(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_contiguous_input_frozen_in_place_not_copied(self):
        features = np.zeros((4, 2))
        values = np.full((4, 3), 1 / 3)
        ds = Dataset(3, np.arange(4), features, np.zeros(4, dtype=np.int64))
        scores = ScoreMatrix(values=values, sample_ids=ds.ids)
        assert np.shares_memory(ds.features, features)
        assert np.shares_memory(scores.values, values)
        assert not features.flags.writeable and not values.flags.writeable

    def test_subset_preserves_order(self):
        ds = small_dataset()
        sub = ds.subset(np.array([2, 0]))
        assert list(sub.ids) == [12, 10]
        assert list(sub.noisy_labels) == [2, 0]
        np.testing.assert_array_equal(sub.features[1], ds.features[0])

    def test_subset_empty_rejected(self):
        with pytest.raises(ValidationError):
            small_dataset().subset(np.array([], dtype=int))


class TestScoreValidation:
    def test_aligned_matrix_passes(self):
        ds = small_dataset()
        values = np.full((4, 3), 1.0 / 3)
        scores = ScoreMatrix(values=values, sample_ids=ds.ids)
        check_scores(scores, ds)
        assert scores.num_rows == 4
        assert np.abs(scores.values.sum(axis=1) - 1.0).max() <= 1e-12

    def test_row_sum_message_prints_a_plain_float(self):
        values = np.full((4, 3), 1 / 3)
        values[0] = 0.0
        with pytest.raises(ValidationError) as info:
            ScoreMatrix(values=values, sample_ids=np.arange(4))
        assert str(info.value) == "row 0 sums to 0.0, deviation exceeds 1e-06"

    def test_row_count_mismatch(self):
        ds = small_dataset()
        scores = ScoreMatrix(values=np.full((3, 3), 1 / 3), sample_ids=ds.ids[:3])
        with pytest.raises(ValidationError):
            check_scores(scores, ds)

    def test_id_mismatch_reports_row(self):
        ds = small_dataset()
        ids = ds.ids.copy()
        ids[2] = 99
        scores = ScoreMatrix(values=np.full((4, 3), 1 / 3), sample_ids=ids)
        with pytest.raises(ValidationError, match="row 2"):
            check_scores(scores, ds)

    def test_negative_entry_rejected(self):
        values = np.full((4, 3), 1 / 3)
        values[1, 0] = -0.01
        values[1, 1] = 2 / 3 + 0.01
        with pytest.raises(ValidationError, match="^negative entry at row 1, column 0$"):
            ScoreMatrix(values=values, sample_ids=np.arange(4))

    def test_row_sum_tolerance_boundary(self):
        good = np.full((4, 3), 1 / 3)
        good[0] *= 1 + 5e-7  # deviation 5e-7 < 1e-6: accepted
        ScoreMatrix(values=good, sample_ids=np.arange(4))
        bad = np.full((4, 3), 1 / 3)
        bad[0] *= 1 + 5e-6  # deviation 5e-6 > 1e-6: rejected
        with pytest.raises(ValidationError, match="^row 0 sums to .*, deviation exceeds 1e-06$"):
            ScoreMatrix(values=bad, sample_ids=np.arange(4))

    def test_renormalized_rows_sum_to_one(self, tmp_path):
        # A row within the file tolerance but beyond the internal one is
        # divided by its sum on load.
        ds = small_dataset()
        values = np.full((4, 3), 1 / 3)
        values[1] *= 1 + 5e-7
        path = tmp_path / "scores.txt"
        save_score_matrix(path, ScoreMatrix(values=values, sample_ids=ds.ids))
        loaded = load_score_matrix(path, ds)
        np.testing.assert_allclose(loaded.values.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(loaded.values[1], values[1] / values[1].sum())
        np.testing.assert_array_equal(loaded.values[[0, 2, 3]], values[[0, 2, 3]])

    @given(
        st.lists(
            st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_positive_matrix_validates_after_renormalization(self, rows):
        # Normalised in memory, every row sits well within
        # ROW_SUM_INTERNAL_TOL, so the file loads with the bits it was saved with.
        raw = np.array(rows)
        values = raw / raw.sum(axis=1, keepdims=True)
        assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-12
        ds = Dataset(
            num_classes=3,
            ids=np.arange(len(rows)),
            features=np.zeros((len(rows), 1)),
            noisy_labels=np.zeros(len(rows), dtype=int),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.txt"
            save_score_matrix(path, ScoreMatrix(values=values, sample_ids=ds.ids))
            loaded = load_score_matrix(path, ds)
        assert loaded.values.tobytes() == values.tobytes()


def _table(tmp_path, ds, ids):
    path = tmp_path / "emb.txt"
    rows = [f"{i}," + ",".join(map(repr, f)) for i, f in zip(ids, ds.features.tolist())]
    path.write_text(f"#noiselens-bank v1 C={len(rows)} D=2 PROMPT=img\n" + "\n".join(rows) + "\n")
    return path


def _mask(ids):
    return SelectionMask(ids, np.full(len(ids), 0.9), "confidence", 0.5)


# Each consumer of an array keyed to samples, given scores whose ids are
# misaligned with the dataset (masks and tables reuse those ids).
ID_CHECKS = {
    "check_scores": lambda ds, bad, tmp: check_scores(bad, ds),
    "select_by_confidence": lambda ds, bad, tmp: select_by_confidence(ds, bad, 0.5),
    "select_by_prompt_consistency": lambda ds, bad, tmp: select_by_prompt_consistency(
        ds, ScoreMatrix(bad.values, ds.ids), bad, 0.1
    ),
    "estimate_transition_matrix": lambda ds, bad, tmp: estimate_transition_matrix(ds, bad),
    "apply_mask": lambda ds, bad, tmp: apply_mask(ds, _mask(bad.sample_ids)),
    "selection_quality": lambda ds, bad, tmp: selection_quality(_mask(bad.sample_ids), ds),
    "load_embedding_table": lambda ds, bad, tmp: load_embedding_table(
        _table(tmp, ds, bad.sample_ids), ds
    ),
}


@pytest.mark.parametrize("entry", sorted(ID_CHECKS))
def test_misaligned_id_names_its_row(entry, tmp_path):
    ds = small_dataset()
    ids = ds.ids.copy()
    ids[2] = 99
    bad = ScoreMatrix(values=np.full((4, 3), 1 / 3), sample_ids=ids)
    with pytest.raises(ValidationError, match="id 99 at row 2 does not match dataset id 12"):
        ID_CHECKS[entry](ds, bad, tmp_path)


class TestFloatFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_fmt_float_round_trips_exactly(self, x):
        assert float(fmt_float(x)) == x


class TestDatasetFiles:
    def test_text_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.txt"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.ids, ds.ids)
        np.testing.assert_array_equal(loaded.noisy_labels, ds.noisy_labels)
        np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)

    def test_text_without_truth(self, tmp_path):
        ds = small_dataset(with_truth=False)
        path = tmp_path / "ds.txt"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert not loaded.has_ground_truth
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.noisy_labels, ds.noisy_labels)

    def test_binary_round_trip_and_autodetect(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.bin"
        save_dataset(path, ds, fmt="binary")
        loaded = load_dataset(path)  # the loader sniffs the magic bytes
        np.testing.assert_array_equal(loaded.ids, ds.ids)
        np.testing.assert_array_equal(loaded.noisy_labels, ds.noisy_labels)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)

    def test_header_record_count_enforced(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_header_tag(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("#noiselens-scores v1 N=1 C=2\n0,0,1.0\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("#noiselens-dataset v1 N=1 C=2 D=1 GT=0\n0,0,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_dataset(path)

    def test_label_out_of_range_on_load(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("#noiselens-dataset v1 N=1 C=2 D=1 GT=0\n0,5,1.0\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_binary(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.bin"
        save_dataset(path, ds, fmt="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            load_dataset(path)


class TestScoreFiles:
    def test_round_trip_and_renormalization(self, tmp_path):
        ds = small_dataset()
        rng = np.random.default_rng(0)
        raw = rng.random((4, 3)) + 0.1
        values = raw / raw.sum(axis=1, keepdims=True)
        scores = ScoreMatrix(values=values, sample_ids=ds.ids)
        path = tmp_path / "scores.txt"
        save_score_matrix(path, scores)
        loaded = load_score_matrix(path, ds)
        np.testing.assert_array_equal(loaded.values, values)
        np.testing.assert_allclose(loaded.values.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_binary_round_trip(self, tmp_path):
        ds = small_dataset()
        raw = np.random.default_rng(1).random((4, 3)) + 0.1
        values = raw / raw.sum(axis=1, keepdims=True)
        scores = ScoreMatrix(values=values, sample_ids=ds.ids)
        for fmt in ("binary", "text"):  # both formats are bit-exact
            path = tmp_path / f"scores.{fmt}"
            save_score_matrix(path, scores, fmt=fmt)
            loaded = load_score_matrix(path, ds)
            np.testing.assert_array_equal(loaded.values, values)
            np.testing.assert_array_equal(loaded.sample_ids, ds.ids)

    def test_misaligned_ids_rejected_on_load(self, tmp_path):
        ds = small_dataset()
        scores = ScoreMatrix(values=np.full((4, 3), 1 / 3), sample_ids=np.array([1, 2, 3, 4]))
        path = tmp_path / "scores.txt"
        save_score_matrix(path, scores)
        with pytest.raises(ValidationError):
            load_score_matrix(path, ds)

    def test_row_sum_violation_rejected_on_load(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "scores.txt"
        rows = ["#noiselens-scores v1 N=4 C=3"]
        for i, sid in enumerate(ds.ids):
            rows.append(f"{sid},0.5,0.3,{0.2 + (0.1 if i == 3 else 0.0)!r}")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 3"):
            load_score_matrix(path, ds)
