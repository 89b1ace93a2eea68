"""Acceptance suite: scaled-down quantitative checks and end-to-end
properties for the whole pipeline. Each criterion prints a single
`ACCEPTANCE n: PASS/FAIL (detail)` line (bypassing capture) and enforces
its own runtime budget.
"""

import itertools
import math
import os
import statistics
import sys
import time

import numpy as np
import pytest

from noiselens.cli import main as cli_main
from noiselens.experiment import config_from_text, run_experiment
from noiselens.losses import MarginConfig, cross_entropy, focal_loss, nabm_loss_batch, nabm_probability
from noiselens.noise import (
    NoiseSpec,
    blob_means,
    inject_noise,
    make_blobs,
    selection_quality,
    oracle_scores,
)
from noiselens.priors import ClassPrior, TransitionMatrix, compute_class_prior, estimate_transition_matrix, transition_matrix_error
from noiselens.report import accuracy
from noiselens.scorer import ClassEmbeddingBank, ScorerConfig, cosine_softmax_score, save_embedding_bank
from noiselens.selection import LN2, apply_mask, js_divergence, select_by_confidence
from noiselens.trainer import TrainConfig, load_classifier, predict, train


@pytest.fixture
def report(capfd):
    """Prints one verdict line per criterion on the real terminal, then
    enforces it."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return _report


def _median(values):
    return statistics.median(values)


def test_criterion_01_gradient_oracle(report):
    """Analytic gradients match central finite differences across the full
    margin-configuration grid on random batches."""
    budget = 10.0
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    b, c = 8, 10
    h = 1e-5
    combos = list(itertools.product((0.0, 0.1, 0.5, 1.0), (0.0, 0.01, 1.0), (0.1, 1.0), (0.0, 1.0)))
    worst = 0.0
    for k in range(200):
        delta, t, s, gamma = combos[k % len(combos)]
        cfg = MarginConfig(delta=delta, t=t, s=s, gamma=gamma)
        logits = rng.standard_normal((b, c))
        labels = rng.integers(0, c, b)
        raw = rng.random((c, c)) + 0.1
        matrix = TransitionMatrix(raw / raw.sum(axis=1, keepdims=True))
        raw_pi = rng.random(c) + 0.1
        prior = ClassPrior(raw_pi / raw_pi.sum(), np.ones(c, dtype=np.int64), c)

        analytic = nabm_loss_batch(logits, labels, matrix, prior, cfg).grad_logits / b
        fd = np.empty_like(logits)
        for i in range(b):
            for j in range(c):
                plus = logits.copy()
                plus[i, j] += h
                minus = logits.copy()
                minus[i, j] -= h
                fd[i, j] = (
                    nabm_loss_batch(plus, labels, matrix, prior, cfg).mean_loss
                    - nabm_loss_batch(minus, labels, matrix, prior, cfg).mean_loss
                ) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        worst = max(worst, float((np.abs(analytic - fd) / denom).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < budget
    report(1, ok, f"max rel err {worst:.2e} <= 1e-5; {elapsed:.1f}s < {budget:.0f}s")


def test_criterion_02_reduction_identities(report):
    """With all margins off the batch loss is plain cross-entropy, and the
    focal modulation at exponent zero is the bare negative log."""
    budget = 1.0
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    n, c = 1000, 10
    logits = rng.standard_normal((n, c)) * 3.0
    labels = rng.integers(0, c, n)
    matrix = TransitionMatrix(np.eye(c))
    prior = ClassPrior(np.full(c, 1.0 / c), np.ones(c, dtype=np.int64), c)
    batch = nabm_loss_batch(logits, labels, matrix, prior, MarginConfig(0.0, 0.0, 1.0, 0.0))
    ce_diff = max(
        abs(batch.per_sample_loss[i] - cross_entropy(logits[i], labels[i])) for i in range(n)
    )
    probs = rng.uniform(1e-9, 1.0, n)
    focal_diff = max(abs(focal_loss(float(p), 0.0) - (-math.log(p))) for p in probs)
    elapsed = time.perf_counter() - started
    ok = ce_diff <= 1e-14 and focal_diff <= 1e-15 and elapsed < budget
    report(2, ok, f"CE diff {ce_diff:.1e} <= 1e-14, focal diff {focal_diff:.1e} <= 1e-15; {elapsed:.1f}s < {budget:.0f}s")


def test_criterion_03_js_divergence_suite(report):
    """Symmetry, range, and the exact endpoints of the divergence."""
    budget = 1.0
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_sym = 0.0
    lo, hi = np.inf, -np.inf
    for _ in range(10_000):
        c = int(rng.integers(2, 8))
        p = rng.random(c) + 1e-9
        q = rng.random(c) + 1e-9
        p /= p.sum()
        q /= q.sum()
        f = js_divergence(p, q)
        worst_sym = max(worst_sym, abs(f - js_divergence(q, p)))
        lo, hi = min(lo, f), max(hi, f)
    identical = js_divergence(np.array([0.3, 0.3, 0.4]), np.array([0.3, 0.3, 0.4]))
    disjoint = js_divergence(np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.0, 0.0, 0.5, 0.5]))
    elapsed = time.perf_counter() - started
    ok = (
        worst_sym <= 1e-12
        and lo >= 0.0
        and hi <= LN2 + 1e-12
        and identical == 0.0
        and abs(disjoint - LN2) <= 1e-12
        and elapsed < budget
    )
    report(
        3,
        ok,
        f"symmetry {worst_sym:.1e} <= 1e-12, range [{lo:.1e}, {hi:.6f}] within [0, ln2], "
        f"identical {identical}, |disjoint-ln2| {abs(disjoint - LN2):.1e}; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_04_transition_matrix_recovery(report):
    """The score-averaged transition estimate recovers the analytic symmetric
    matrix with one-hot scores, and the noise-composed-with-scorer matrix
    with softened scores."""
    budget = 30.0
    started = time.perf_counter()
    c, per_class, dim, rate = 10, 1000, 16, 0.5
    ds = make_blobs(c, per_class, dim, 3.0, seed=0)
    noisy, _ = inject_noise(ds, NoiseSpec("symmetric", rate, seed=100))

    analytic = np.full((c, c), rate / c)
    np.fill_diagonal(analytic, 1.0 - rate * (c - 1) / c)

    one_hot = estimate_transition_matrix(noisy, oracle_scores(noisy, 1.0))
    err = transition_matrix_error(one_hot, analytic)

    soft = estimate_transition_matrix(noisy, oracle_scores(noisy, 0.8))
    templates = np.full((c, c), 0.2 / (c - 1))
    np.fill_diagonal(templates, 0.8)
    expected = np.zeros((c, c))
    for i in range(c):
        members = noisy.noisy_labels == i
        true_counts = np.bincount(noisy.true_labels[members], minlength=c)
        expected[i] = (true_counts[:, None] * templates).sum(axis=0) / members.sum()
    soft_diff = float(np.abs(soft.values - expected).max())

    elapsed = time.perf_counter() - started
    ok = err <= 0.02 and soft_diff <= 1e-12 and elapsed < budget
    report(
        4,
        ok,
        f"one-hot mean err {err:.5f} <= 0.02, softened vs expectation {soft_diff:.1e} <= 1e-12; "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def _selection_trial(seed: int):
    """Shared setup for criteria 5 and 6: noisy blobs scored by cosine
    similarity to the true class means."""
    c, per_class, dim, sep, rate = 4, 500, 16, 2.0, 0.4
    ds = make_blobs(c, per_class, dim, sep, seed=seed)
    noisy, record = inject_noise(ds, NoiseSpec("symmetric", rate, seed=seed + 100))
    bank = ClassEmbeddingBank(blob_means(c, dim, sep, seed=seed), "true-means")
    scores = cosine_softmax_score(
        noisy.features, bank, ScorerConfig(temperature=0.01), sample_ids=noisy.ids
    )
    mask = select_by_confidence(noisy, scores, 0.5)
    return noisy, record, scores, mask


def test_criterion_05_selection_efficacy(report):
    """Confidence selection beats the select-everything baseline."""
    budget = 20.0
    started = time.perf_counter()
    precisions, recalls, baselines = [], [], []
    for seed in range(5):
        noisy, record, _, mask = _selection_trial(seed)
        quality = selection_quality(mask, noisy)
        precisions.append(quality.precision)
        recalls.append(quality.recall)
        baselines.append(1.0 - record.realized_rate)
    precision, recall, baseline = _median(precisions), _median(recalls), _median(baselines)
    elapsed = time.perf_counter() - started
    ok = precision >= 0.85 and recall >= 0.5 and precision > baseline and elapsed < budget
    report(
        5,
        ok,
        f"median precision {precision:.3f} >= 0.85, recall {recall:.3f} >= 0.5, "
        f"baseline {baseline:.3f} beaten; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_06_end_to_end_ordering(report):
    """Full margin-adjusted training on the selected subset beats focal on
    the subset, which beats cross-entropy on everything."""
    budget = 60.0
    started = time.perf_counter()
    c, dim, sep = 4, 16, 2.0
    cfg_by_seed = lambda seed: TrainConfig(
        epochs=10, batch_size=128, learning_rate=0.1, weight_decay=1e-4,
        momentum=0.95, seed=seed,
    )
    identity = TransitionMatrix(np.eye(c))
    acc_a, acc_b, acc_c = [], [], []
    for seed in range(5):
        noisy, _, scores, mask = _selection_trial(seed)
        subset = apply_mask(noisy, mask)
        subset_prior = compute_class_prior(subset)
        full_prior = compute_class_prior(noisy)
        estimated = estimate_transition_matrix(noisy, scores)
        test = make_blobs(c, 1000, dim, sep, seed=seed + 1000)
        cfg = cfg_by_seed(seed)

        def run_arm(data, matrix, prior, margin):
            trained = train(data, matrix, prior, margin, cfg)
            return accuracy(predict(trained.classifier, test).labels, test.true_labels)

        acc_a.append(run_arm(noisy, identity, full_prior, MarginConfig(0.0, 0.0, 1.0, 0.0)))
        acc_b.append(run_arm(subset, identity, subset_prior, MarginConfig(0.0, 0.0, 1.0, 1.0)))
        acc_c.append(run_arm(subset, estimated, subset_prior, MarginConfig(0.5, 1.0, 1.0, 1.0)))
    a, b_, c_ = _median(acc_a), _median(acc_b), _median(acc_c)
    elapsed = time.perf_counter() - started
    ok = c_ >= b_ >= a and (c_ - a) >= 0.03 and elapsed < budget
    report(
        6,
        ok,
        f"median accuracy full-margin {c_:.4f} >= focal-subset {b_:.4f} >= ce-all {a:.4f}, "
        f"gap {c_ - a:.4f} >= 0.03; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_07_imbalance_regularization(report):
    """The balance term lifts minority-class recall on a 10:1 subset."""
    budget = 30.0
    started = time.perf_counter()
    dim, sep = 16, 2.0
    identity = TransitionMatrix(np.eye(2))
    gaps = []
    for seed in range(5):
        base = make_blobs(2, 500, dim, sep, seed=seed)
        subset = base.subset(np.concatenate([np.arange(500), 500 + np.arange(50)]))
        prior = compute_class_prior(subset)
        cfg = TrainConfig(
            epochs=10, batch_size=128, learning_rate=0.1, weight_decay=1e-4,
            momentum=0.95, seed=seed,
        )
        test = make_blobs(2, 1000, dim, sep, seed=seed + 1000)
        minority = test.true_labels == 1

        def minority_recall(t_value):
            margin = MarginConfig(delta=0.0, t=t_value, s=1.0, gamma=1.0)
            trained = train(subset, identity, prior, margin, cfg)
            predicted = predict(trained.classifier, test).labels
            return float(np.mean(predicted[minority] == 1))

        gaps.append(minority_recall(1.0) - minority_recall(0.0))
    gap = _median(gaps)
    elapsed = time.perf_counter() - started
    ok = gap >= 0.02 and elapsed < budget
    report(7, ok, f"median minority-recall gain {gap:.4f} >= 0.02; {elapsed:.1f}s < {budget:.0f}s")


def test_criterion_08_monotonicity_properties(report):
    """Selection shrinks as the threshold rises; scores ignore embedding
    scale; the adjusted probability ignores constant logit offsets."""
    budget = 5.0
    started = time.perf_counter()
    c, dim = 5, 8
    ds = make_blobs(c, 100, dim, 2.0, seed=0)
    noisy, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=1))
    bank = ClassEmbeddingBank(blob_means(c, dim, 2.0, seed=0), "true-means")
    scores = cosine_softmax_score(
        noisy.features, bank, ScorerConfig(temperature=0.25), sample_ids=noisy.ids
    )
    counts = [
        select_by_confidence(noisy, scores, float(rho)).selected_count
        for rho in np.linspace(0.05, 0.95, 20)
    ]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))

    base = np.argmax(scores.values, axis=1)
    scale_ok = True
    for factor in (0.5, 2.0, 7.3):
        scaled = cosine_softmax_score(
            noisy.features * factor, bank, ScorerConfig(temperature=0.25), sample_ids=noisy.ids
        )
        scale_ok = scale_ok and np.array_equal(np.argmax(scaled.values, axis=1), base)

    rng = np.random.default_rng(3)
    matrix = TransitionMatrix(np.eye(c))
    prior = ClassPrior(np.full(c, 1.0 / c), np.ones(c, dtype=np.int64), c)
    shift_diff = 0.0
    for _ in range(100):
        z = rng.standard_normal(c) * 3.0
        label = int(rng.integers(0, c))
        margin = MarginConfig(0.5, 1.0, 1.0, 1.0)
        p0 = nabm_probability(z, label, matrix, prior, margin)
        p1 = nabm_probability(z + 7.3, label, matrix, prior, margin)
        shift_diff = max(shift_diff, float(np.abs(p0 - p1).max()))

    elapsed = time.perf_counter() - started
    ok = monotone and scale_ok and shift_diff <= 1e-12 and elapsed < budget
    report(
        8,
        ok,
        f"sweep monotone {monotone}, argmax scale-invariant {scale_ok}, "
        f"shift diff {shift_diff:.1e} <= 1e-12; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_09_determinism(report, tmp_path):
    """Identical seeds give byte-identical artifacts, and the file-composed
    CLI pipeline reproduces the in-process result."""
    budget = 30.0
    started = time.perf_counter()

    config_text = (
        "dataset.source = synth\n"
        "dataset.classes = 3\n"
        "dataset.per_class = 30\n"
        "dataset.dim = 4\n"
        "dataset.separation = 2.5\n"
        "dataset.noise = symmetric\n"
        "dataset.noise_rate = 0.3\n"
        "scorer.source = oracle\n"
        "scorer.correct_prob = 0.9\n"
        "selection.rho = 0.5\n"
        "train.epochs = 3\n"
        "train.batch_size = 16\n"
        "test.source = synth\n"
        "output.dir = {out}\n"
    )
    runs = []
    for name in ("detA", "detB"):
        config = config_from_text(
            config_text.format(out=tmp_path / name), base_dir=str(tmp_path)
        )
        result = run_experiment(config)
        assert result.status == 0
        runs.append(tmp_path / name)
    artifact_names = sorted(
        n for n in os.listdir(runs[0]) if n != "manifest.txt"
    )
    identical = all(
        (runs[0] / n).read_bytes() == (runs[1] / n).read_bytes() for n in artifact_names
    )

    def artifacts_hash(run_dir):
        lines = (run_dir / "manifest.txt").read_text().splitlines()
        return [ln for ln in lines if ln.startswith("artifacts_hash=")][0]

    hashes_equal = artifacts_hash(runs[0]) == artifacts_hash(runs[1])

    # File-composed CLI chain vs the same pipeline in process.
    work = tmp_path / "chain"
    work.mkdir()
    ds_path, bank_path = work / "ds.txt", work / "bank.txt"
    save_embedding_bank(bank_path, ClassEmbeddingBank(blob_means(3, 4, 2.5, seed=0), "means"))
    for argv in (
        ["synth", "--classes", "3", "--per-class", "30", "--dim", "4", "--sep", "2.5",
         "--noise", "sym", "--rate", "0.3", "--seed", "0", "--out", str(ds_path)],
        ["score", "--dataset", str(ds_path), "--bank", str(bank_path),
         "--temperature", "0.25", "--out", str(work / "scores.txt")],
        ["select", "--dataset", str(ds_path), "--scores", str(work / "scores.txt"),
         "--criterion", "confidence", "--rho", "0.5", "--out", str(work / "mask.txt")],
        ["priors", "--dataset", str(ds_path), "--scores", str(work / "scores.txt"),
         "--mask", str(work / "mask.txt"), "--tm-out", str(work / "tm.txt"),
         "--prior-out", str(work / "prior.txt")],
        ["train", "--dataset", str(ds_path), "--mask", str(work / "mask.txt"),
         "--tm", str(work / "tm.txt"), "--prior", str(work / "prior.txt"),
         "--epochs", "3", "--batch-size", "16", "--out", str(work / "clf.txt")],
    ):
        assert cli_main(argv) == 0
    chained = load_classifier(work / "clf.txt")

    ds = make_blobs(3, 30, 4, 2.5, seed=0)
    noisy, _ = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=1))
    bank = ClassEmbeddingBank(blob_means(3, 4, 2.5, seed=0), "means")
    scores = cosine_softmax_score(
        noisy.features, bank, ScorerConfig(temperature=0.25), sample_ids=noisy.ids
    )
    mask = select_by_confidence(noisy, scores, 0.5)
    subset = apply_mask(noisy, mask)
    matrix = estimate_transition_matrix(noisy, scores)
    prior = compute_class_prior(subset)
    trained = train(
        subset, matrix, prior, MarginConfig(),
        TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=0),
    )
    weight_diff = float(np.abs(chained.weights - trained.classifier.weights).max())
    bias_diff = float(np.abs(chained.bias - trained.classifier.bias).max())

    elapsed = time.perf_counter() - started
    ok = identical and hashes_equal and weight_diff <= 1e-12 and bias_diff <= 1e-12 and elapsed < budget
    report(
        9,
        ok,
        f"artifacts byte-identical {identical}, hashes equal {hashes_equal}, "
        f"CLI-vs-API weight diff {weight_diff:.1e} <= 1e-12; {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_10_noise_injector_statistics(report):
    """Each injector's realized behavior matches its nominal model."""
    budget = 10.0
    started = time.perf_counter()
    c, per_class, dim, rate = 4, 2500, 8, 0.4
    ds = make_blobs(c, per_class, dim, 2.0, seed=0)

    _, record = inject_noise(ds, NoiseSpec("symmetric", rate, seed=1))
    analytic = np.full((c, c), rate / c)
    np.fill_diagonal(analytic, 1.0 - rate * (c - 1) / c)
    sym_err = float(np.abs(record.realized_transition - analytic).max())

    pair_map = {0: 1, 2: 3}
    noisy, asym_record = inject_noise(ds, NoiseSpec("asymmetric", 0.3, seed=2, pair_map=pair_map))
    truth = ds.true_labels
    moved = noisy.noisy_labels != truth
    asym_ok = (
        bool(np.all(noisy.noisy_labels[moved & (truth == 0)] == 1))
        and bool(np.all(noisy.noisy_labels[moved & (truth == 2)] == 3))
        and not np.any(moved & (truth == 1))
        and not np.any(moved & (truth == 3))
        and np.array_equal(asym_record.realized_transition[1], [0, 1, 0, 0])
        and np.array_equal(asym_record.realized_transition[3], [0, 0, 0, 1])
    )

    _, idn_record = inject_noise(ds, NoiseSpec("instance_dependent", 0.3, seed=3))
    idn_err = abs(idn_record.realized_rate - 0.3)

    elapsed = time.perf_counter() - started
    ok = sym_err <= 0.03 and asym_ok and idn_err <= 0.05 and elapsed < budget
    report(
        10,
        ok,
        f"symmetric entry err {sym_err:.4f} <= 0.03, asymmetric flips confined {asym_ok}, "
        f"idn rate err {idn_err:.4f} <= 0.05; {elapsed:.1f}s < {budget:.0f}s",
    )
