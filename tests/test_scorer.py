"""Tests for cosine-softmax scoring and the class-embedding bank."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselens import codec, parallel
from noiselens.data import ROW_BLOCK, Dataset, load_dataset, load_score_matrix, save_dataset, save_score_matrix
from noiselens.errors import ValidationError
from noiselens.scorer import (
    ClassEmbeddingBank,
    ScorerConfig,
    cosine_softmax_score,
    load_embedding_bank,
    load_embedding_table,
    save_embedding_bank,
    score_dataset_file,
    score_with_surrogate,
)
from noiselens.noise import make_blobs

BANK = ClassEmbeddingBank(
    embeddings=np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    ),
    prompt_id="ref",
)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# High-precision references (50-digit arithmetic, rounded to double).
# Image [1,0,0,0] at tau=0.25: cosines (1, 0, 0.5).
ROW_A_TAU_025 = [0.86681333219733487114, 0.015876239976466766323, 0.11731042782619836253]
# Image [2,1,0,0] at tau=0.25: cosines (2/sqrt(5), 1/sqrt(5), 3/(2*sqrt(5))).
ROW_B_TAU_025 = [0.63452047543083389408, 0.10606108214710364719, 0.25941844242206245873]
# Same image at the default tau=0.01, where unstabilized exponentials overflow.
ROW_B_TAU_001 = [0.9999999998055176641, 3.7823378969099716747e-20, 1.9448233586046764071e-10]


class TestCosineSoftmax:
    def test_reference_values_tau_025(self):
        images = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]])
        scores = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.25))
        np.testing.assert_allclose(scores.values[0], ROW_A_TAU_025, rtol=1e-14)
        np.testing.assert_allclose(scores.values[1], ROW_B_TAU_025, rtol=1e-14)

    def test_reference_values_default_temperature(self):
        images = np.array([[2.0, 1.0, 0.0, 0.0]])
        scores = cosine_softmax_score(images, BANK, ScorerConfig())
        np.testing.assert_allclose(scores.values[0], ROW_B_TAU_001, rtol=1e-13)
        assert np.all(np.isfinite(scores.values))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        images = rng.standard_normal((40, 4))
        scores = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.05))
        np.testing.assert_allclose(scores.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert scores.values.min() >= 0.0

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(4)
        images = rng.standard_normal((10, 4))
        a = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.1))
        b = cosine_softmax_score(images * 4.0, BANK, ScorerConfig(temperature=0.1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(5)
        images = rng.standard_normal((10, 4))
        a = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.1))
        b = cosine_softmax_score(images * 1.7, BANK, ScorerConfig(temperature=0.1))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_lower_temperature_sharpens(self):
        images = np.array([[2.0, 1.0, 0.0, 0.0]])
        soft = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.5)).values[0]
        sharp = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.05)).values[0]
        assert sharp.max() > soft.max()
        assert np.argmax(sharp) == np.argmax(soft)

    def test_argmax_is_nearest_cosine_class(self):
        rng = np.random.default_rng(6)
        images = rng.standard_normal((50, 4))
        scores = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.2))
        unit_images = images / np.linalg.norm(images, axis=1, keepdims=True)
        unit_bank = BANK.embeddings / np.linalg.norm(BANK.embeddings, axis=1, keepdims=True)
        cosines = unit_images @ unit_bank.T
        np.testing.assert_array_equal(np.argmax(scores.values, axis=1), np.argmax(cosines, axis=1))

    @pytest.mark.parametrize("temperature", [0.01, 0.3])
    def test_values_are_the_out_of_place_softmax_bit_for_bit(self, temperature):
        rng = np.random.default_rng(8)
        images = rng.standard_normal((60, 4)) * 3.0
        scores = cosine_softmax_score(images, BANK, ScorerConfig(temperature=temperature))
        unit_images = images / np.linalg.norm(images, axis=1)[:, None]
        unit_bank = BANK.embeddings / np.linalg.norm(BANK.embeddings, axis=1)[:, None]
        logits = (unit_images @ unit_bank.T) / temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        expected = weights / weights.sum(axis=1, keepdims=True)
        assert scores.values.tobytes() == expected.tobytes()

    def test_holds_the_embeddings_once_and_the_scores_in_place(self):
        n, d = 20000, 16
        rng = np.random.default_rng(9)
        images = rng.standard_normal((n, d))
        bank = ClassEmbeddingBank(rng.standard_normal((10, d)))
        peak = _traced_peak(lambda: cosine_softmax_score(images, bank, ScorerConfig()))
        assert peak <= n * d * 8 + 2 * n * bank.num_classes * 8

    def test_scores_a_block_at_a_time(self):
        # The one-shot scorer held N*D + N*C floats above its inputs.
        n, d = 20000, 64
        rng = np.random.default_rng(10)
        images = rng.standard_normal((n, d))
        bank = ClassEmbeddingBank(rng.standard_normal((10, d)))
        peak = _traced_peak(lambda: cosine_softmax_score(images, bank, ScorerConfig()))
        assert peak < 0.5 * n * d * 8 + 2 * n * bank.num_classes * 8

    @pytest.mark.parametrize("d", [1, 4, 128])
    @pytest.mark.parametrize(
        "n", [1, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]
    )
    def test_row_blocks_give_the_one_shot_bits(self, n, d):
        rng = np.random.default_rng(n * 1000 + d)
        images = rng.standard_normal((n, d)) * 3.0
        bank = ClassEmbeddingBank(rng.standard_normal((10, d)))
        scores = cosine_softmax_score(images, bank, ScorerConfig(temperature=0.05))
        unit_images = images / np.linalg.norm(images, axis=1)[:, None]
        unit_bank = bank.embeddings / np.linalg.norm(bank.embeddings, axis=1)[:, None]
        logits = (unit_images @ unit_bank.T) / 0.05
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        assert scores.values.tobytes() == (weights / weights.sum(axis=1, keepdims=True)).tobytes()

    def test_zero_norm_row_in_a_later_block_names_its_row(self):
        images = np.ones((2 * ROW_BLOCK + 10, 4))
        images[2 * ROW_BLOCK + 4] = 0.0
        with pytest.raises(ValidationError, match=f"image embedding at row {2 * ROW_BLOCK + 4} has a zero"):
            cosine_softmax_score(images, BANK, ScorerConfig())

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_a_file_is_scored_holding_one_block_of_its_features(self, tmp_path, monkeypatch, fmt):
        """Three blocks of 2048 rows at d=128 and 3 classes, read by one
        process: at most one block of features and its normalised copy, the
        N x C rows twice (the result and a block's product), the ids and
        labels twice (read and kept), for text a few pieces, and 256 KiB; that is
        less than the whole feature matrix."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(codec, "PIECE_BYTES", 1 << 16)
        dataset = make_blobs(3, ROW_BLOCK, 128, 2.0, seed=4)
        n = dataset.num_samples
        path = tmp_path / f"ds.{fmt}"
        save_dataset(path, dataset, fmt=fmt)
        bank = ClassEmbeddingBank(np.random.default_rng(4).standard_normal((3, 128)))
        pieces = 4 * codec.PIECE_BYTES if fmt == "text" else 0
        bound = 2 * ROW_BLOCK * 128 * 8 + 2 * n * 3 * 8 + 2 * 3 * n * 8 + pieces + (1 << 18)
        assert dataset.features.nbytes > bound
        assert _traced_peak(lambda: score_dataset_file(path, bank, ScorerConfig())) < bound
        expected = score_with_surrogate(load_dataset(path), bank, ScorerConfig())
        assert score_dataset_file(path, bank, ScorerConfig()).values.tobytes() == expected.values.tobytes()

    def test_zero_norm_row_in_a_later_block_of_a_file_names_its_row(self, tmp_path):
        images = np.ones((2 * ROW_BLOCK + 10, 4))
        images[2 * ROW_BLOCK + 4] = 0.0
        n = images.shape[0]
        path = tmp_path / "ds.txt"
        save_dataset(path, Dataset(3, np.arange(n), images, np.arange(n) % 3))
        with pytest.raises(ValidationError, match=f"image embedding at row {2 * ROW_BLOCK + 4} has a zero"):
            score_dataset_file(path, BANK, ScorerConfig())

    def test_non_finite_row_in_a_later_block_beats_an_earlier_zero_norm(self):
        images = np.ones((2 * ROW_BLOCK + 10, 4))
        images[3] = 0.0
        images[2 * ROW_BLOCK + 4, 1] = np.nan
        with pytest.raises(ValidationError, match="^non-finite image embedding$"):
            cosine_softmax_score(images, BANK, ScorerConfig())

    def test_zero_norm_image_rejected_with_index(self):
        images = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="1"):
            cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.1))

    def test_overflowing_image_norm_rejected_with_row(self):
        # [1e200, 1e200] points along bank row [1, 1], but its norm overflows
        # float64; divided by inf it would score as a zero vector.
        bank = ClassEmbeddingBank(np.array([[1.0, 1.0], [1.0, -1.0]]))
        images = np.array([[1.0, 1.0], [1e200, 1e200]])
        with pytest.raises(ValidationError, match="image embedding at row 1 has a zero or overflowing norm"):
            cosine_softmax_score(images, bank, ScorerConfig())

    def test_temperature_must_be_positive(self):
        for temperature in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                ScorerConfig(temperature=temperature)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cosine_softmax_score(np.ones((2, 3)), BANK, ScorerConfig(temperature=0.1))
        with pytest.raises(ValidationError, match="^image embeddings must be a 2-D array$"):
            cosine_softmax_score(np.ones(4), BANK, ScorerConfig(temperature=0.1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_embeddings_yield_valid_distributions(self, seed):
        rng = np.random.default_rng(seed)
        images = rng.standard_normal((5, 4)) * rng.uniform(0.1, 100)
        scores = cosine_softmax_score(images, BANK, ScorerConfig(temperature=0.01))
        assert np.all(np.isfinite(scores.values))
        np.testing.assert_allclose(scores.values.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestBank:
    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            ClassEmbeddingBank(embeddings=np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_overflowing_row_rejected(self):
        with pytest.raises(ValidationError, match="class embedding at row 1 has a zero or overflowing norm"):
            ClassEmbeddingBank(embeddings=np.array([[1.0, 0.0], [1e200, 1e200]]))

    def test_loaded_overflowing_row_rejected(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("#noiselens-bank v1 C=2 D=2 PROMPT=p\n1,1e200,1e200\n0,1.0,0.0\n")
        with pytest.raises(ValidationError, match="class embedding at row 1 has a zero or overflowing norm"):
            load_embedding_bank(path)

    def test_zero_classes_rejected(self):
        # Scoring against an empty bank used to fail inside numpy's max.
        with pytest.raises(ValidationError, match="^embedding bank needs at least one class$"):
            ClassEmbeddingBank(np.zeros((0, 3)))

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_zero_class_bank_file_rejected(self, tmp_path, fmt):
        path = tmp_path / f"bank.{fmt}"
        if fmt == "text":
            path.write_text("#noiselens-bank v1 C=0 D=3 PROMPT=p\n")
        else:
            codec.write_binary(path, codec.BANK, (0, 3, 1), b"p", np.zeros((0, 3)))
        with pytest.raises(ValidationError, match="^embedding bank needs at least one class$"):
            load_embedding_bank(path)

    def test_prompt_id_no_whitespace(self):
        with pytest.raises(ValidationError):
            ClassEmbeddingBank(embeddings=np.eye(2), prompt_id="two words")

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "bank.txt"
        save_embedding_bank(path, BANK)
        loaded = load_embedding_bank(path)
        np.testing.assert_array_equal(loaded.embeddings, BANK.embeddings)
        assert loaded.prompt_id == "ref"
        # The same file read as a per-sample embedding table: row j is sample j.
        n = BANK.num_classes
        ds = Dataset(2, np.arange(n), np.zeros((n, 1)), np.zeros(n, int))
        np.testing.assert_array_equal(load_embedding_table(path, ds), BANK.embeddings)

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "bank.bin"
        save_embedding_bank(path, BANK, fmt="binary")
        loaded = load_embedding_bank(path)
        np.testing.assert_array_equal(loaded.embeddings, BANK.embeddings)
        assert loaded.prompt_id == "ref"

    def test_each_class_exactly_once(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text(
            "#noiselens-bank v1 C=2 D=1 PROMPT=p\n0,1.0\n0,2.0\n"
        )
        with pytest.raises(Exception):
            load_embedding_bank(path)


class TestScoreWithSurrogate:
    def make_dataset(self):
        rng = np.random.default_rng(1)
        return Dataset(
            num_classes=3,
            ids=np.arange(6),
            features=rng.standard_normal((6, 4)),
            noisy_labels=rng.integers(0, 3, 6),
        )

    def test_bank_source(self):
        ds = self.make_dataset()
        scores = score_with_surrogate(ds, BANK, ScorerConfig(temperature=0.2))
        assert scores.values.shape == (6, 3)
        np.testing.assert_array_equal(scores.sample_ids, ds.ids)

    def test_file_source(self, tmp_path):
        ds = self.make_dataset()
        direct = score_with_surrogate(ds, BANK, ScorerConfig(temperature=0.2))
        path = tmp_path / "scores.txt"
        save_score_matrix(path, direct)
        from_file = load_score_matrix(path, ds)
        np.testing.assert_array_equal(from_file.values, direct.values)

    def test_class_count_mismatch(self):
        ds = self.make_dataset()
        bad_bank = ClassEmbeddingBank(embeddings=np.eye(4))
        with pytest.raises(ValidationError):
            score_with_surrogate(ds, bad_bank, ScorerConfig(temperature=0.2))

    def test_separate_image_embeddings(self):
        ds = self.make_dataset()
        rng = np.random.default_rng(9)
        other = rng.standard_normal((6, 4))
        scores = score_with_surrogate(ds, BANK, ScorerConfig(temperature=0.2), image_embeddings=other)
        expected = cosine_softmax_score(other, BANK, ScorerConfig(temperature=0.2), sample_ids=ds.ids)
        np.testing.assert_array_equal(scores.values, expected.values)
        with pytest.raises(ValidationError, match="^embedding row count does not match dataset size$"):
            score_with_surrogate(ds, BANK, ScorerConfig(temperature=0.2), image_embeddings=other[:5])

    def test_embedding_table_order_enforced(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "emb.txt"
        lines = ["#noiselens-bank v1 C=6 D=4 PROMPT=img"]
        for i in reversed(range(6)):
            lines.append(",".join([str(i)] + ["1.0", "0.0", "0.0", "0.0"]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            load_embedding_table(path, ds)
