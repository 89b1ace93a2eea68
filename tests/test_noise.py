"""Tests for the synthetic-benchmark generators and corruption models."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from noiselens.errors import FormatError, ValidationError
from noiselens.noise import (
    BlobSpec,
    CorruptionRecord,
    NoiseSpec,
    blob_means,
    inject_noise,
    load_corruption_record,
    make_blobs,
    oracle_scores,
    save_corruption_record,
    selection_quality,
)
from noiselens.data import Dataset
from noiselens.selection import SelectionMask


def strip_truth(dataset):
    return Dataset(
        num_classes=dataset.num_classes,
        ids=dataset.ids,
        features=dataset.features,
        noisy_labels=dataset.noisy_labels,
    )


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMakeBlobs:
    def test_shapes_ids_and_block_labels(self):
        ds = make_blobs(num_classes=3, per_class=4, dim=5, separation=2.0, seed=1)
        assert ds.num_samples == 12
        assert ds.features.shape == (12, 5)
        np.testing.assert_array_equal(ds.ids, np.arange(12))
        np.testing.assert_array_equal(ds.noisy_labels, np.repeat([0, 1, 2], 4))
        np.testing.assert_array_equal(ds.true_labels, ds.noisy_labels)

    def test_deterministic_per_seed(self):
        a = make_blobs(4, 10, 6, 1.5, seed=7)
        b = make_blobs(4, 10, 6, 1.5, seed=7)
        c = make_blobs(4, 10, 6, 1.5, seed=8)
        np.testing.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    @pytest.mark.parametrize("classes, dim", [(3, 5), (4, 4), (6, 3)], ids=["C<D", "C=D", "C>D"])
    def test_features_are_means_plus_draws_bit_for_bit(self, classes, dim):
        per_class, seed = 7, 11
        ds = make_blobs(classes, per_class, dim, 2.5, seed=seed)
        rng = np.random.default_rng(seed)
        if classes > dim:  # the excess classes' directions come first
            rng.standard_normal((classes - dim, dim))
        labels = np.repeat(np.arange(classes), per_class)
        means = blob_means(classes, dim, 2.5, seed=seed)
        expected = means[labels] + rng.standard_normal((classes * per_class, dim))
        assert ds.features.tobytes() == expected.tobytes()

    def test_features_are_held_once(self):
        classes, per_class, dim = 4, 1000, 128
        peak = _traced_peak(lambda: make_blobs(classes, per_class, dim, 2.0, seed=3))
        assert peak <= 1.1 * classes * per_class * dim * 8

    def test_means_are_axis_aligned(self):
        means = blob_means(num_classes=3, dim=5, separation=2.5)
        expected = np.zeros((3, 5))
        expected[0, 0] = expected[1, 1] = expected[2, 2] = 2.5
        np.testing.assert_array_equal(means, expected)

    def test_extra_classes_get_unit_directions(self):
        means = blob_means(num_classes=5, dim=3, separation=2.0, seed=0)
        norms = np.linalg.norm(means, axis=1)
        np.testing.assert_allclose(norms, np.full(5, 2.0), rtol=1e-12)

    def test_empirical_means_approach_configured_means(self):
        ds = make_blobs(num_classes=2, per_class=4000, dim=3, separation=3.0, seed=5)
        means = blob_means(2, 3, 3.0, seed=5)
        for k in range(2):
            emp = ds.features[ds.true_labels == k].mean(axis=0)
            assert np.abs(emp - means[k]).max() < 0.1

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            make_blobs(1, 5, 3, 1.0)
        with pytest.raises(ValidationError):
            make_blobs(2, 0, 3, 1.0)
        with pytest.raises(ValidationError):
            make_blobs(2, 5, 3, -1.0)
        with pytest.raises(ValidationError, match=r"^separation nan must lie in \[0, inf\)$"):
            make_blobs(2, 5, 3, float("nan"))
        with pytest.raises(ValidationError, match=r"^seed -1 must lie in \[0, inf\)$"):
            make_blobs(2, 5, 3, 1.0, -1)

    @pytest.mark.parametrize(
        "args",
        [(1, 5, 3, 1.0, 0), (2, 5, 0, 1.0, 0), (2, 5, 3, float("inf"), 0), (2, 5, 3, 1.0, -2),
         (10**20, 1, 3, 1.0, 0)],
    )
    def test_blob_spec_holds_every_caller_to_its_limits(self, args):
        with pytest.raises(ValidationError) as spec:
            BlobSpec(*args)
        with pytest.raises(ValidationError) as blobs:
            make_blobs(*args)
        with pytest.raises(ValidationError) as means:
            blob_means(args[0], *args[2:])
        assert str(blobs.value) == str(means.value) == str(spec.value)


class TestSymmetricNoise:
    def test_realized_rate_matches_effective_rate(self):
        c, rate = 5, 0.3
        ds = make_blobs(c, 4000, 4, 2.0, seed=0)
        _, record = inject_noise(ds, NoiseSpec("symmetric", rate, seed=1))
        effective = rate * (c - 1) / c
        assert abs(record.realized_rate - effective) < 0.02

    def test_realized_transition_matches_analytic(self):
        c, rate = 4, 0.4
        ds = make_blobs(c, 5000, 4, 2.0, seed=2)
        _, record = inject_noise(ds, NoiseSpec("symmetric", rate, seed=3))
        analytic = np.full((c, c), rate / c)
        np.fill_diagonal(analytic, 1.0 - rate * (c - 1) / c)
        assert np.abs(record.realized_transition - analytic).max() < 0.03

    def test_flipped_ids_are_exactly_the_changed_samples(self):
        ds = make_blobs(3, 50, 4, 2.0, seed=4)
        noisy, record = inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=5))
        changed = ds.ids[noisy.noisy_labels != ds.true_labels]
        np.testing.assert_array_equal(record.flipped_ids, changed)
        assert record.num_flipped == changed.size

    def test_rate_zero_flips_nothing(self):
        ds = make_blobs(3, 20, 4, 2.0, seed=6)
        noisy, record = inject_noise(ds, NoiseSpec("symmetric", 0.0, seed=7))
        assert record.num_flipped == 0
        assert record.realized_rate == 0.0
        np.testing.assert_array_equal(noisy.noisy_labels, ds.true_labels)
        np.testing.assert_array_equal(record.realized_transition, np.eye(3))

    def test_class_no_sample_has_gets_a_uniform_row(self):
        ds = make_blobs(3, 20, 4, 2.0, seed=6)
        ds = replace(ds, true_labels=ds.true_labels % 2)
        _, record = inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=7))
        np.testing.assert_array_equal(record.realized_transition[2], np.full(3, 1 / 3))

    def test_deterministic_per_seed(self):
        ds = make_blobs(3, 100, 4, 2.0, seed=8)
        a, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=9))
        b, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=9))
        np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)

    def test_features_and_truth_unchanged(self):
        ds = make_blobs(3, 50, 4, 2.0, seed=10)
        noisy, _ = inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=11))
        np.testing.assert_array_equal(noisy.features, ds.features)
        np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)


class TestAsymmetricNoise:
    def test_only_mapped_classes_flip_to_partner(self):
        ds = make_blobs(4, 500, 4, 2.0, seed=12)
        spec = NoiseSpec("asymmetric", 0.4, seed=13, pair_map={0: 1, 2: 3})
        noisy, record = inject_noise(ds, spec)
        truth = ds.true_labels
        moved = noisy.noisy_labels != truth
        # every flip lands on the mapped partner
        assert np.all(noisy.noisy_labels[moved & (truth == 0)] == 1)
        assert np.all(noisy.noisy_labels[moved & (truth == 2)] == 3)
        # unmapped classes never move
        assert not np.any(moved & (truth == 1))
        assert not np.any(moved & (truth == 3))
        # realized transition: unmapped rows are identity rows
        np.testing.assert_array_equal(record.realized_transition[1], [0, 1, 0, 0])
        np.testing.assert_array_equal(record.realized_transition[3], [0, 0, 0, 1])
        assert abs(record.realized_transition[0, 1] - 0.4) < 0.07

    def test_pair_map_required_and_validated(self):
        with pytest.raises(ValidationError):
            NoiseSpec("asymmetric", 0.3)
        with pytest.raises(ValidationError):
            NoiseSpec("asymmetric", 0.3, pair_map={1: 1})
        ds = make_blobs(2, 10, 3, 2.0, seed=0)
        with pytest.raises(ValidationError):
            inject_noise(ds, NoiseSpec("asymmetric", 0.3, pair_map={0: 9}))


class TestInstanceDependentNoise:
    def test_realized_rate_tracks_nominal(self):
        ds = make_blobs(4, 2500, 6, 2.0, seed=14)
        _, record = inject_noise(
            ds, NoiseSpec("instance_dependent", 0.3, seed=15)
        )
        assert abs(record.realized_rate - 0.3) < 0.05

    def test_equal_bounds_pin_the_budget(self):
        ds = make_blobs(3, 2000, 4, 2.0, seed=16)
        spec = NoiseSpec(
            "instance_dependent", 0.5, seed=17, budget_bounds=(0.2, 0.2)
        )
        _, record = inject_noise(ds, spec)
        # constant budget 0.2 regardless of the nominal rate
        assert abs(record.realized_rate - 0.2) < 0.03

    def test_zero_sd_uses_clipped_rate(self):
        ds = make_blobs(3, 2000, 4, 2.0, seed=18)
        spec = NoiseSpec(
            "instance_dependent", 0.4, seed=19, budget_sd=0.0, budget_bounds=(0.0, 0.25)
        )
        _, record = inject_noise(ds, spec)
        assert abs(record.realized_rate - 0.25) < 0.03

    def test_deterministic_per_seed(self):
        ds = make_blobs(3, 200, 4, 2.0, seed=20)
        spec = NoiseSpec("instance_dependent", 0.3, seed=21)
        a, _ = inject_noise(ds, spec)
        b, _ = inject_noise(ds, spec)
        np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)

    def test_labels_stay_in_range(self):
        ds = make_blobs(5, 400, 3, 1.0, seed=22)
        noisy, _ = inject_noise(
            ds, NoiseSpec("instance_dependent", 0.8, seed=23)
        )
        assert noisy.noisy_labels.min() >= 0
        assert noisy.noisy_labels.max() < 5

    def test_truncnorm_budgets_are_pinned(self, tmp_path):
        # budget_sd > 0 and low < high draw budgets from scipy's truncnorm;
        # the digests pin its draw order on the shared generator, so moving
        # or reordering that call shows up here.
        ds = make_blobs(3, 200, 4, 2.0, seed=31)
        spec = NoiseSpec(
            "instance_dependent", 0.3, seed=32, budget_sd=0.15, budget_bounds=(0.1, 0.6)
        )
        noisy, record = inject_noise(ds, spec)
        labels = noisy.noisy_labels.astype("<i8").tobytes()
        assert hashlib.sha256(labels).hexdigest() == (
            "52b5f9a7259b89523d888301b535ee2a5ec55017ee958206bf7cd6a9609bf857"
        )
        path = tmp_path / "corruption.txt"
        save_corruption_record(path, record, spec)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cb4f9914e91800d2a266f8171c279dd99164f69bc51c03d6d737493a6e353cc5"
        )

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            NoiseSpec("instance_dependent", 0.3, budget_bounds=(0.5, 0.2))
        with pytest.raises(ValidationError):
            NoiseSpec("instance_dependent", 0.3, budget_bounds=(-0.1, 0.5))
        with pytest.raises(ValidationError):
            NoiseSpec("instance_dependent", 0.3, budget_sd=-0.1)
        # Checked for every kind, not only the one that reads them.
        with pytest.raises(ValidationError):
            NoiseSpec("symmetric", 0.3, budget_sd=float("nan"))
        with pytest.raises(ValidationError):
            NoiseSpec("symmetric", 0.3, budget_bounds=(0.5, 0.2))


class TestDispatchAndSpec:
    def test_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValidationError):
            NoiseSpec("salt_and_pepper", 0.3)
        with pytest.raises(ValidationError):
            NoiseSpec("symmetric", 1.0)
        with pytest.raises(ValidationError):
            NoiseSpec("symmetric", -0.1)
        with pytest.raises(ValidationError, match=r"^rate nan must lie in \[0, 1\)$"):
            NoiseSpec("symmetric", float("nan"))
        with pytest.raises(ValidationError, match=r"^seed -1 must lie in \[0, inf\)$"):
            NoiseSpec("symmetric", 0.3, seed=-1)

    def test_ground_truth_required(self):
        ds = make_blobs(2, 10, 3, 2.0, seed=0)
        stripped = strip_truth(ds)
        with pytest.raises(ValidationError, match="ground-truth"):
            inject_noise(stripped, NoiseSpec("symmetric", 0.3))


class TestSelectionQuality:
    def make_case(self):
        ds = make_blobs(2, 3, 3, 2.0, seed=26)  # 6 samples, all clean
        noisy = ds.noisy_labels.copy()
        noisy[[1, 4]] = 1 - noisy[[1, 4]]  # corrupt two samples
        corrupted = Dataset(
            num_classes=ds.num_classes,
            ids=ds.ids,
            features=ds.features,
            noisy_labels=noisy,
            true_labels=ds.true_labels,
        )
        verdicts = np.array([True, True, False, True, False, False])
        mask = SelectionMask(
            sample_ids=ds.ids,
            scores=np.where(verdicts, 0.9, 0.1),
            criterion="confidence",
            threshold=0.5,
        )
        return corrupted, mask

    def test_hand_computed_metrics(self):
        ds, mask = self.make_case()
        # clean = {0, 2, 3, 5}; selected = {0, 1, 3}; tp = {0, 3}
        q = selection_quality(mask, ds)
        assert q.selected == 3
        assert q.actually_clean == 4
        assert q.true_positives == 2
        assert abs(q.precision - 2 / 3) <= 1e-15
        assert abs(q.recall - 0.5) <= 1e-15
        expected_f1 = 2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5)
        assert abs(q.f1 - expected_f1) <= 1e-15

    def test_empty_selection_yields_zeros(self):
        ds, mask = self.make_case()
        empty = SelectionMask(
            sample_ids=mask.sample_ids,
            scores=np.full(6, 0.1),
            criterion="confidence",
            threshold=0.5,
        )
        q = selection_quality(empty, ds)
        assert (q.precision, q.f1) == (0.0, 0.0)

    def test_requires_ground_truth_and_matching_ids(self):
        ds, mask = self.make_case()
        with pytest.raises(ValidationError):
            selection_quality(mask, strip_truth(ds))
        shifted = SelectionMask(
            sample_ids=mask.sample_ids + 10,
            scores=mask.scores,
            criterion="confidence",
            threshold=0.5,
        )
        with pytest.raises(ValidationError):
            selection_quality(shifted, ds)


class TestOracleScores:
    def test_one_hot(self):
        ds = make_blobs(3, 5, 4, 2.0, seed=27)
        scores = oracle_scores(ds)
        np.testing.assert_array_equal(
            scores.values, np.eye(3)[ds.true_labels]
        )

    def test_softened(self):
        ds = make_blobs(3, 5, 4, 2.0, seed=28)
        scores = oracle_scores(ds, correct_prob=0.7)
        rows = np.arange(ds.num_samples)
        np.testing.assert_allclose(scores.values[rows, ds.true_labels], 0.7)
        np.testing.assert_allclose(scores.values.sum(axis=1), 1.0, atol=1e-15)
        off = scores.values.copy()
        off[rows, ds.true_labels] = np.nan
        assert np.nanmax(off) == np.nanmin(off)  # remainder is spread evenly

    def test_range_validation(self):
        ds = make_blobs(2, 5, 3, 2.0, seed=0)
        with pytest.raises(ValidationError):
            oracle_scores(ds, correct_prob=0.0)
        with pytest.raises(ValidationError):
            oracle_scores(ds, correct_prob=1.2)
        with pytest.raises(ValidationError):
            oracle_scores(strip_truth(ds))


class TestCorruptionRecordFile:
    def test_round_trip(self, tmp_path):
        ds = make_blobs(3, 100, 4, 2.0, seed=29)
        spec = NoiseSpec("symmetric", 0.3, seed=30)
        _, record = inject_noise(ds, spec)
        path = tmp_path / "corruption.txt"
        save_corruption_record(path, record, spec)
        loaded, header = load_corruption_record(path)
        np.testing.assert_array_equal(loaded.flipped_ids, record.flipped_ids)
        np.testing.assert_array_equal(loaded.realized_transition, record.realized_transition)
        assert loaded.realized_rate == record.realized_rate
        assert loaded.num_samples == record.num_samples
        assert header["KIND"] == "symmetric"
        assert header["SEED"] == "30"

    def test_zero_flip_round_trip(self, tmp_path):
        ds = make_blobs(2, 10, 3, 2.0, seed=31)
        spec = NoiseSpec("symmetric", 0.0, seed=32)
        _, record = inject_noise(ds, spec)
        path = tmp_path / "corruption.txt"
        save_corruption_record(path, record, spec)
        loaded, _ = load_corruption_record(path)
        assert loaded.num_flipped == 0

    def test_flipped_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "corruption.txt"
        path.write_text(
            "#noiselens-corruption v1 N=4 C=2 KIND=symmetric RATE=0.5 SEED=0 "
            "FLIPPED=3 REALIZED=0.5\n1,2\n0.5,0.5\n0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="flipped"):
            load_corruption_record(path)

    def test_missing_transition_row_rejected(self, tmp_path):
        path = tmp_path / "corruption.txt"
        path.write_text(
            "#noiselens-corruption v1 N=4 C=3 KIND=symmetric RATE=0.5 SEED=0 "
            "FLIPPED=0 REALIZED=0.0\n\n1,0,0\n0,1,0\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            load_corruption_record(path)
