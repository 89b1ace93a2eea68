"""Tests for the core dataset/score-matrix model and its file formats."""

import os
import re
import tempfile
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselens import codec, parallel
from noiselens.codec import fmt_float
from noiselens.data import (
    ROW_BLOCK,
    Dataset,
    FormatError,
    ScoreMatrix,
    ValidationError,
    block_rows,
    check_scores,
    load_dataset,
    load_score_matrix,
    row_blocks,
    save_dataset,
    save_score_matrix,
)
from noiselens.noise import CorruptionRecord, selection_quality
from noiselens.losses import MarginConfig
from noiselens.priors import (
    ClassPrior,
    TransitionMatrix,
    compute_class_prior,
    estimate_transition_matrix,
)
from noiselens.report import HistogramReport
from noiselens.scorer import ClassEmbeddingBank, load_embedding_table
from noiselens.selection import (
    SelectionMask,
    apply_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)
from noiselens.trainer import LinearClassifier, TrainConfig, predict, train

# Valid constructor arguments for every value object that holds arrays.
VALUE_OBJECTS = {
    Dataset: dict(
        num_classes=2, ids=[0, 1], features=[[0.0], [1.0]], noisy_labels=[0, 1], true_labels=[1, 0]
    ),
    ScoreMatrix: dict(values=[[0.5, 0.5], [1.0, 0.0]], sample_ids=[0, 1]),
    SelectionMask: dict(sample_ids=[0, 1], scores=[0.2, 0.9], criterion="confidence", threshold=0.5),
    TransitionMatrix: dict(values=[[1.0, 0.0], [0.5, 0.5]], source_count=[3, 4]),
    ClassPrior: dict(values=[0.25, 0.75], counts=[1, 3], total=4),
    ClassEmbeddingBank: dict(embeddings=[[1.0, 0.0], [0.0, 1.0]]),
    LinearClassifier: dict(weights=[[1.0, 0.0], [0.0, 1.0]], bias=[0.0, 0.5]),
    CorruptionRecord: dict(
        flipped_ids=[1], realized_rate=0.5, realized_transition=[[1.0, 0.0], [1.0, 0.0]], num_samples=2
    ),
    HistogramReport: dict(bin_edges=np.arange(11) / 10, counts=np.arange(10)),
}

# Each entry replaces some arguments of a valid object with bad ones.
BAD_ARRAYS = [
    (Dataset, "float labels", dict(noisy_labels=[0.7, 1.2])),
    (Dataset, "float ids", dict(ids=[0.5, 1.5])),
    (Dataset, "2-D ids", dict(ids=[[0], [1]])),
    (Dataset, "2-D noisy labels", dict(noisy_labels=[[0], [1]])),
    (Dataset, "2-D true labels", dict(true_labels=[[1], [0]])),
    (Dataset, "0-d ids", dict(ids=5, features=[[0.0]], noisy_labels=[0], true_labels=None)),
    (Dataset, "N mismatch", dict(true_labels=[1, 0, 1])),
    (Dataset, "0-d features", dict(features=np.array(0.0))),
    (ScoreMatrix, "2-D ids", dict(sample_ids=[[0], [1]])),
    (ScoreMatrix, "N mismatch", dict(sample_ids=[0, 1, 2])),
    (ScoreMatrix, "0-d ids", dict(sample_ids=np.array(0))),
    (SelectionMask, "float ids", dict(sample_ids=[0.5, 1.5])),
    (SelectionMask, "N mismatch", dict(scores=[0.2])),
    (SelectionMask, "0-d scores", dict(scores=np.array(0.2))),
    (TransitionMatrix, "float counts", dict(source_count=[1.5, 2])),
    (TransitionMatrix, "C mismatch", dict(source_count=[3, 4, 5])),
    (TransitionMatrix, "0-d values", dict(values=np.array(1.0), source_count=None)),
    (ClassPrior, "float counts", dict(counts=[1.0, 3.0])),
    (ClassPrior, "C mismatch", dict(counts=[1, 3, 0])),
    (ClassPrior, "0-d counts", dict(counts=np.array(4))),
    (ClassEmbeddingBank, "ragged rows", dict(embeddings=[[1.0, 0.0], [1.0]])),
    (ClassEmbeddingBank, "0-d embeddings", dict(embeddings=np.array(1.0))),
    (LinearClassifier, "C mismatch", dict(bias=[0.0])),
    (LinearClassifier, "0-d bias", dict(bias=np.array(0.0))),
    (CorruptionRecord, "float ids", dict(flipped_ids=[1.5])),
    (CorruptionRecord, "C mismatch", dict(realized_transition=[[1.0, 0.0]])),
    (CorruptionRecord, "0-d ids", dict(flipped_ids=np.array(1))),
    (CorruptionRecord, "non-finite transition", dict(realized_transition=[[np.nan, 0.0], [1.0, 0.0]])),
    (HistogramReport, "float counts", dict(counts=np.arange(10) + 0.5)),
    (HistogramReport, "11 counts", dict(counts=np.arange(11))),
    (HistogramReport, "0-d edges", dict(bin_edges=np.array(0.5))),
]


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
        # Every array field of every value object, given at its declared dtype.
        for cls, valid in VALUE_OBJECTS.items():
            kwargs, inputs = dict(valid), {}
            for f in fields(cls):
                if "array" in f.metadata:
                    dtype = np.int64 if f.metadata["array"][0] is int else np.float64
                    inputs[f.name] = kwargs[f.name] = np.array(kwargs[f.name], dtype=dtype)
            obj = cls(**kwargs)
            assert inputs, cls
            for name, given in inputs.items():
                assert np.shares_memory(getattr(obj, name), given), (cls, name)
                assert not given.flags.writeable, (cls, name)

    def test_subset_preserves_order(self):
        ds = small_dataset()
        sub = ds.subset(np.array([2, 0]))
        assert list(sub.ids) == [12, 10]
        assert list(sub.noisy_labels) == [2, 0]
        np.testing.assert_array_equal(sub.features[1], ds.features[0])

    def test_subset_empty_rejected(self):
        with pytest.raises(ValidationError):
            small_dataset().subset(np.array([], dtype=int))


@pytest.mark.parametrize(
    "cls, change", [(cls, change) for cls, _, change in BAD_ARRAYS],
    ids=[f"{cls.__name__}-{label}" for cls, label, _ in BAD_ARRAYS],
)
def test_bad_array_input_is_a_validation_error(cls, change):
    cls(**VALUE_OBJECTS[cls])
    with pytest.raises(ValidationError):
        cls(**{**VALUE_OBJECTS[cls], **change})


def test_a_dataset_without_features_is_not_trained_or_evaluated(tmp_path):
    ds = small_dataset()
    path = _saved(tmp_path, ds)
    without = load_dataset(path, keep=False)
    matrix = estimate_transition_matrix(ds, ScoreMatrix(np.full((4, 3), 1 / 3), ds.ids))
    message = "^dataset was loaded without its features$"
    with pytest.raises(ValidationError, match=message):
        predict(LinearClassifier(np.ones((3, 2)), np.zeros(3)), without)
    with pytest.raises(ValidationError, match=message):
        train(without, matrix, compute_class_prior(ds), MarginConfig(), TrainConfig(epochs=1))


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


def _saved(tmp_path, ds, fmt="text"):
    path = tmp_path / f"ds.{fmt}"
    save_dataset(path, ds, fmt=fmt)
    return path


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
    "load_dataset_keeping_a_mask": lambda ds, bad, tmp: load_dataset(
        _saved(tmp, ds), keep=lambda: _mask(bad.sample_ids)
    ),
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
        path.write_text("#noiselens-dataset v1 N=2 C=2 D=1 GT=0 N=1\n0,0,1.0\n")
        with pytest.raises(FormatError, match=r"^line 1: duplicate header field 'N'$"):
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


def _fields(ds) -> list:
    """A dataset as its class count and each array's dtype, shape and bytes."""
    arrays = (ds.ids, ds.features, ds.noisy_labels, ds.true_labels)
    return [ds.num_classes] + [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# The rows a mask keeps of the 30 below: the first, the last, every third,
# runs of two between gaps, all but one, and all.
KEPT_ROWS = [[0], [29], range(0, 30, 3), [i for i in range(30) if i % 3 != 1], range(1, 30), range(30)]


@pytest.mark.parametrize("with_truth", [True, False])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_selective_loads_give_what_a_full_load_gives(tmp_path, monkeypatch, fmt, with_truth):
    """Without features, a load holds a full load's ids and labels; keeping a
    mask, it is ``apply_mask`` of a full load, bit for bit. With 6 fields a
    chunk every two records are a chunk, so at each piece size the text is
    split among 1, 2 or 3 reading processes."""
    rng = np.random.default_rng(3)
    ds = Dataset(
        4,
        ids=rng.permutation(1000)[:30],
        features=rng.standard_normal((30, 3)),
        noisy_labels=rng.integers(0, 4, 30),
        true_labels=rng.integers(0, 4, 30) if with_truth else None,
    )
    path = _saved(tmp_path, ds, fmt)
    monkeypatch.setattr(codec, "CHUNK_FIELDS", 6)
    readers = (1, 2, 3) if hasattr(os, "fork") else (1,)
    for workers, piece in product(readers, [1, 7, 64, codec.PIECE_BYTES]):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        monkeypatch.setattr(codec, "PIECE_BYTES", piece)
        full = load_dataset(path)
        assert _fields(full) == _fields(ds)
        without = load_dataset(path, keep=False)
        assert _fields(without) == _fields(replace(full, features=None)), (workers, piece)
        for rows in KEPT_ROWS:
            mask = SelectionMask(ds.ids, np.isin(np.arange(30), rows) * 1.0, "confidence", 0.5)
            kept = load_dataset(path, keep=lambda: mask)
            assert _fields(kept) == _fields(apply_mask(full, mask)), (workers, piece, rows)


def _streamed(path) -> tuple:
    """What `block_rows` reads of ``path`` with rows that are a block's
    features: the header, each block's features, the dataset."""
    dataset, features = block_rows(path, lambda c, d: lambda f, lo: f)
    n = dataset.num_samples
    blocks = [features[lo:hi] for lo, hi in row_blocks(n)]
    return ((n, dataset.num_classes, features.shape[1]), *blocks, dataset)


@pytest.mark.parametrize("cpus", [1, 2] if hasattr(os, "fork") else [1])
@pytest.mark.parametrize("with_truth", [True, False])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_dataset_blocks_give_a_full_load_a_block_at_a_time(tmp_path, monkeypatch, fmt, with_truth, cpus):
    """Three row blocks, the last with a merged tail: each block's features
    are a full load's rows of it, bit for bit, and the last item is the
    load without features. With 2 CPUs each text block is parsed by two
    processes."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(codec, "CHUNK_FIELDS", 4096)
    monkeypatch.setattr(codec, "PIECE_BYTES", 4096)
    n = 3 * ROW_BLOCK + 700
    rng = np.random.default_rng(5)
    ds = Dataset(
        3,
        ids=rng.permutation(2 * n)[:n],
        features=rng.standard_normal((n, 2)),
        noisy_labels=rng.integers(0, 3, n),
        true_labels=rng.integers(0, 3, n) if with_truth else None,
    )
    path = _saved(tmp_path, ds, fmt)
    header, *blocks, dataset = _streamed(path)
    assert header == (n, 3, 2)
    bounds = [(0, ROW_BLOCK), (ROW_BLOCK, 2 * ROW_BLOCK), (2 * ROW_BLOCK, n)]
    assert [b.tobytes() for b in blocks] == [ds.features[lo:hi].tobytes() for lo, hi in bounds]
    assert _fields(dataset) == _fields(load_dataset(path, keep=False))


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_a_later_block_names_its_record_as_a_full_load_does(tmp_path, fmt):
    """An infinite feature in block 3, record ``r``, is named by its place in
    the file: line r + 2 (text), record r + 1 (binary)."""
    n, r = 3 * ROW_BLOCK + 700, 2 * ROW_BLOCK + 5
    path = _saved(tmp_path, Dataset(3, np.arange(n), np.ones((n, 2)), np.arange(n) % 3), fmt)
    raw = path.read_bytes()
    if fmt == "text":
        lines = raw.split(b"\n")
        lines[1 + r] = lines[1 + r].rsplit(b",", 1)[0] + b",inf"
        raw = b"\n".join(lines)
    else:  # the features are the file's last n x 2 floats
        at = len(raw) - 8 * 2 * (n - r) + 8
        raw = raw[:at] + np.array([np.inf]).tobytes() + raw[at + 8 :]
    path.write_bytes(raw)
    where = f"line {r + 2}" if fmt == "text" else f"{path}: record {r + 1}"
    message = f"^{re.escape(where)}: record has a non-finite value$"
    with pytest.raises(FormatError, match=message):
        load_dataset(path)
    with pytest.raises(FormatError, match=message):
        _streamed(path)


def test_block_rows_map_each_block_once_the_header_is_read(tmp_path):
    ds = small_dataset()
    path = _saved(tmp_path, ds)
    calls = []

    def start(c, d):
        calls.append((c, d))
        return lambda features, lo: np.full((len(features), c), float(lo)) + features.sum(axis=1, keepdims=True)

    dataset, rows = block_rows(path, start)
    assert calls == [(3, 2)]
    np.testing.assert_array_equal(rows, np.repeat(ds.features.sum(axis=1, keepdims=True), 3, axis=1))
    assert _fields(dataset) == _fields(replace(ds, features=None))


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
