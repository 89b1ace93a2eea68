"""The benchmark's three workloads: their inputs, one iteration each, and the
checks on what an iteration produced.

Every workload takes the benchmark seed `s` and derives: dataset seed `s`,
noise seed `s+1`, test seed `s+2`, bank-B perturbation seed `s+3` and train
seed `s`. Why each workload exists and which layer figures should move
which end-to-end figure is written down in README.md beside this file.
"""

import contextlib
import hashlib
import io
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import noiselens.cli
import noiselens.report
from noiselens.data import save_dataset
from noiselens.losses import MarginConfig
from noiselens.noise import NoiseSpec, blob_means, inject_noise, make_blobs
from noiselens.report import TrainingBundle
from noiselens.scorer import ClassEmbeddingBank, ScorerConfig, cosine_softmax_score, save_embedding_bank
from noiselens.trainer import TrainConfig, load_classifier, predict

from spans import STAGES

SEPARATION = 3.0
NOISE_RATE = 0.4
TEMPERATURE = 0.01
RHO = 0.5
MU = 0.1
TOP_K = 2
BANK_B_NOISE = 0.3
SWEEP_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
STAGE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    classes: int
    dim: int
    per_class: int  # run-synth and sweep training set
    test_per_class: int  # run-synth and sweep test set
    chain_per_class: int
    chain_test_per_class: int
    epochs: int  # run-synth and cli-chain
    batch_size: int  # run-synth and cli-chain
    sweep_epochs: int
    sweep_batch_size: int


FULL = Sizes(
    classes=10, dim=128, per_class=2000, test_per_class=1000,
    chain_per_class=1000, chain_test_per_class=500,
    epochs=10, batch_size=128, sweep_epochs=20, sweep_batch_size=32,
)
SMOKE = Sizes(
    classes=3, dim=4, per_class=30, test_per_class=30,
    chain_per_class=30, chain_test_per_class=30,
    epochs=2, batch_size=128, sweep_epochs=2, sweep_batch_size=32,
)


@dataclass
class Checked:
    """What the checks made of one iteration's outputs. `signature` must be
    equal across all iterations of a run."""

    signature: object
    test_accuracy: float
    problems: list


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _noisy_blobs(sizes: Sizes, per_class: int, seed: int):
    clean = make_blobs(sizes.classes, per_class, sizes.dim, SEPARATION, seed)
    noisy, _ = inject_noise(clean, NoiseSpec("symmetric", NOISE_RATE, seed=seed + 1))
    return noisy


def _true_means(sizes: Sizes, seed: int) -> np.ndarray:
    return blob_means(sizes.classes, sizes.dim, SEPARATION, seed=seed)


def _chance_problem(accuracy, classes: int) -> list:
    if accuracy is None or not accuracy > 1.0 / classes:
        return [f"test accuracy {accuracy} is not above chance 1/{classes}"]
    return []


class RunSynth:
    """`noiselens run --config ...` in process: synthesise, write every text
    artifact, score with a cosine bank, select by confidence, train, report."""

    name = "run-synth"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self, directory: Path) -> None:
        s, z = self.seed, self.sizes
        save_embedding_bank(directory / "bank.txt", ClassEmbeddingBank(_true_means(z, s), "true-means"))
        config = {
            "dataset.source": "synth",
            "dataset.classes": z.classes,
            "dataset.per_class": z.per_class,
            "dataset.dim": z.dim,
            "dataset.separation": SEPARATION,
            "dataset.seed": s,
            "dataset.noise": "symmetric",
            "dataset.noise_rate": NOISE_RATE,
            "dataset.noise_seed": s + 1,
            "scorer.source": "cosine",
            "scorer.bank": "bank.txt",
            "scorer.temperature": TEMPERATURE,
            "selection.criterion": "confidence",
            "selection.rho": RHO,
            "train.epochs": z.epochs,
            "train.batch_size": z.batch_size,
            "train.seed": s,
            "test.source": "synth",
            "test.per_class": z.test_per_class,
            "test.seed": s + 2,
            "report.top_k": TOP_K,
            "output.dir": "out",
        }
        self.config = directory / "experiment.conf"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        self.out = directory / "out"
        # The same test set `run` synthesises, for checking the saved head.
        self.test = make_blobs(z.classes, z.test_per_class, z.dim, SEPARATION, s + 2)

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, traced: bool):
        # `cli.main` returns only a status; keep the in-memory result too, so
        # the saved head can be checked against the one `run` trained.
        results = []
        inner = noiselens.cli.run_experiment

        def keep(config):
            result = inner(config)
            results.append(result)
            return result

        noiselens.cli.run_experiment = keep
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = noiselens.cli.main(["run", "--config", str(self.config)])
        finally:
            noiselens.cli.run_experiment = inner
        return status, results

    def check(self, output) -> Checked:
        status, results = output
        if status != 0 or len(results) != 1:
            return Checked(None, None, [f"run exited {status}"])
        result = results[0]
        manifest = dict(
            line.split("=", 1)
            for line in (self.out / "manifest.txt").read_text(encoding="utf-8").splitlines()[1:]
        )
        problems = []
        if manifest.get("status") != "ok":
            problems.append(f"manifest status is {manifest.get('status')!r}")
        accuracy = result.metrics.get("test_accuracy")
        problems += _chance_problem(accuracy, self.sizes.classes)
        saved = load_classifier(self.out / "classifier.txt")
        if not np.array_equal(
            predict(saved, self.test).labels, predict(result.train_report.classifier, self.test).labels
        ):
            problems.append("reloaded classifier.txt predicts other labels than the trained head")
        return Checked((manifest.get("artifacts_hash"), accuracy), accuracy, problems)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliChain:
    """The README's per-stage pipeline: six `python -m noiselens.cli`
    processes, one after another, passing text artifacts."""

    name = "cli-chain"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.stage_seconds = {stage: [] for stage in STAGES}  # untraced iterations

    def setup(self, directory: Path) -> None:
        s, z = self.seed, self.sizes
        save_dataset(directory / "ds.txt", _noisy_blobs(z, z.chain_per_class, s))
        save_dataset(
            directory / "test.txt", make_blobs(z.classes, z.chain_test_per_class, z.dim, SEPARATION, s + 2)
        )
        means = _true_means(z, s)
        perturbed = means + BANK_B_NOISE * np.random.default_rng(s + 3).standard_normal(means.shape)
        save_embedding_bank(directory / "bank_a.txt", ClassEmbeddingBank(means, "true-means"))
        save_embedding_bank(directory / "bank_b.txt", ClassEmbeddingBank(perturbed, "perturbed-means"))
        p = {name: str(directory / name) for name in (
            "ds.txt", "test.txt", "bank_a.txt", "bank_b.txt", "scores_a.txt", "scores_b.txt",
            "mask.txt", "tm.txt", "prior.txt", "clf.txt",
        )}
        self.classifier = directory / "clf.txt"
        self.stages = dict(zip(STAGES, (
            ["score", "--dataset", p["ds.txt"], "--bank", p["bank_a.txt"],
             "--temperature", str(TEMPERATURE), "--out", p["scores_a.txt"]],
            ["score", "--dataset", p["ds.txt"], "--bank", p["bank_b.txt"],
             "--temperature", str(TEMPERATURE), "--out", p["scores_b.txt"]],
            ["select", "--dataset", p["ds.txt"], "--scores", p["scores_a.txt"],
             "--scores-b", p["scores_b.txt"], "--criterion", "prompt-consistency",
             "--mu", str(MU), "--out", p["mask.txt"]],
            ["priors", "--dataset", p["ds.txt"], "--scores", p["scores_a.txt"],
             "--mask", p["mask.txt"], "--tm-out", p["tm.txt"], "--prior-out", p["prior.txt"]],
            ["train", "--dataset", p["ds.txt"], "--mask", p["mask.txt"], "--tm", p["tm.txt"],
             "--prior", p["prior.txt"], "--epochs", str(z.epochs),
             "--batch-size", str(z.batch_size), "--seed", str(s), "--out", p["clf.txt"]],
            ["report", "--classifier", p["clf.txt"], "--dataset", p["test.txt"],
             "--top-k", str(TOP_K), "--format", "records"],
        )))

    def prepare(self) -> None:
        self.classifier.unlink(missing_ok=True)

    def run(self, traced: bool):
        """Untraced: one process per stage, timed from outside. Traced: the
        same argv through `cli.main` in this process, so the wrappers see
        the calls. Returns {stage: (exit code, stdout, stderr)}."""
        stages = {}
        for stage, argv in self.stages.items():
            if traced:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = noiselens.cli.main(argv)
                stdout, stderr = stdout.getvalue(), stderr.getvalue()
            else:
                started = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-m", "noiselens.cli", *argv],
                    capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
                )
                code, stdout, stderr = done.returncode, done.stdout, done.stderr
                self.stage_seconds[stage].append(time.perf_counter() - started)
            stages[stage] = (code, stdout, stderr)
            if code != 0:
                break
        return stages

    def check(self, stages) -> Checked:
        failed = [f"stage {name} exited {code}: {err.strip()}" for name, (code, _, err) in stages.items() if code]
        if failed or len(stages) != len(STAGES):
            return Checked(None, None, failed or ["chain stopped early"])
        record = dict(token.split("=", 1) for token in stages["report"][1].split())
        accuracy = float(record["accuracy"])
        problems = _chance_problem(accuracy, self.sizes.classes)
        return Checked(_sha256(self.classifier), accuracy, problems)

    def peak_rss_mb(self) -> float:
        # The largest stage child; the untraced run starts no other children.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Sweep:
    """`report.threshold_sweep` in memory: select, prior, train and evaluate
    once per confidence threshold, with no file I/O."""

    name = "sweep"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self, directory: Path) -> None:
        s, z = self.seed, self.sizes
        self.dataset = _noisy_blobs(z, z.per_class, s)
        bank = ClassEmbeddingBank(_true_means(z, s), "true-means")
        self.scores = cosine_softmax_score(
            self.dataset.features, bank, ScorerConfig(TEMPERATURE), sample_ids=self.dataset.ids
        )
        test = make_blobs(z.classes, z.test_per_class, z.dim, SEPARATION, s + 2)
        train_cfg = TrainConfig(epochs=z.sweep_epochs, batch_size=z.sweep_batch_size, seed=s)
        self.bundle = TrainingBundle(MarginConfig(), train_cfg, test)

    def prepare(self) -> None:
        pass

    def run(self, traced: bool):
        return noiselens.report.threshold_sweep(self.dataset, self.scores, SWEEP_THRESHOLDS, self.bundle)

    def check(self, report) -> Checked:
        points = tuple(
            (p.threshold, p.selected_count, p.precision, p.recall, p.test_accuracy, p.skipped, p.error)
            for p in report.points
        )
        at_rho = [p for p in report.points if p.threshold == RHO]
        accuracy = at_rho[0].test_accuracy if at_rho else None
        return Checked(points, accuracy, _chance_problem(accuracy, self.sizes.classes))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


BY_NAME = {workload.name: workload for workload in (RunSynth, CliChain, Sweep)}
