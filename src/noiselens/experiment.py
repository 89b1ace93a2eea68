"""Config-driven end-to-end runs: score, select, estimate priors, train,
evaluate, and write every intermediate artifact plus a manifest.

Config files are line-oriented `section.key = value` text; `#` at the
start of a line or after whitespace starts a comment, and keys nest
exactly one dot deep. All randomness comes from seeds named in the
config, and nothing time-dependent is written, so a repeated run
produces byte-identical artifacts.
"""

import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import noise as _noise
from .data import (
    Dataset,
    ScoreMatrix,
    load_dataset,
    load_score_matrix,
    save_dataset,
    save_score_matrix,
)
from .errors import NoiseLensError, ValidationError
from .losses import MarginConfig
from .noise import NoiseSpec, inject_noise, make_blobs, oracle_scores, save_corruption_record
from .priors import (
    compute_class_prior,
    estimate_transition_matrix,
    save_class_prior,
    save_transition_matrix,
)
from .report import accuracy, format_records, top_k_accuracy
from .scorer import (
    ScorerConfig,
    cosine_softmax_score,
    load_embedding_bank,
    load_embedding_table,
)
from .selection import (
    CRITERION_CONFIDENCE,
    CRITERION_PROMPT_CONSISTENCY,
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_CONSISTENCY_THRESHOLD,
    apply_mask,
    save_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)
from .trainer import TrainConfig, predict, save_classifier, train

_DATASET_SOURCES = ("file", "synth")
_SCORER_SOURCES = ("cosine", "file", "oracle")
_TEST_SOURCES = ("file", "synth", "none")

# section -> allowed keys; unknown keys are config errors so typos fail fast.
_SCHEMA = {
    "dataset": {
        "source", "path", "classes", "per_class", "dim", "separation", "seed",
        "noise", "noise_rate", "noise_seed", "pair_map", "budget_sd", "budget_bounds",
    },
    "scorer": {
        "source", "bank", "temperature", "embeddings", "path",
        "correct_prob", "bank_b", "path_b",
    },
    "selection": {"criterion", "rho", "mu"},
    "margin": {"delta", "t", "s", "gamma"},
    "train": {
        "epochs", "batch_size", "learning_rate", "weight_decay", "momentum",
        "seed", "shuffle", "lr_step_every", "lr_step_factor",
    },
    "test": {"source", "path", "per_class", "seed"},
    "report": {"top_k"},
    "output": {"dir"},
}

# '#' opens a comment at the start of a line or after whitespace, so values
# such as `data#1/ds.txt` keep their '#'.
_COMMENT = re.compile(r"(?:^|\s)#")

ARTIFACT_ORDER = (
    "dataset.txt",
    "corruption.txt",
    "scores.txt",
    "scores_b.txt",
    "mask.txt",
    "transition.txt",
    "prior.txt",
    "classifier.txt",
    "test.txt",
    "report.txt",
)


def parse_config_text(text: str) -> dict:
    """`section.key = value` lines into a {(section, key): value} dict."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'section.key = value'")
        name, value = line.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name.count(".") != 1:
            raise ValidationError(
                f"config line {lineno}: key {name!r} must have exactly one dot"
            )
        section, key = name.split(".")
        if section not in _SCHEMA:
            raise ValidationError(f"config line {lineno}: unknown section {section!r}")
        if key not in _SCHEMA[section]:
            raise ValidationError(
                f"config line {lineno}: unknown key {key!r} in section {section!r}"
            )
        if (section, key) in entries:
            raise ValidationError(f"config line {lineno}: duplicate key {name!r}")
        entries[(section, key)] = value
    return entries


def _get(entries, section, key, default=None):
    return entries.get((section, key), default)


def _as_int(entries, section, key, default):
    value = _get(entries, section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"config {section}.{key}: {value!r} is not an integer") from None


def _as_float(entries, section, key, default):
    value = _get(entries, section, key)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"config {section}.{key}: {value!r} is not a number") from None


def _as_bool(entries, section, key, default):
    value = _get(entries, section, key)
    if value is None:
        return default
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"config {section}.{key}: {value!r} is not a boolean")


def parse_pair_map(text: str, num_classes: int) -> dict:
    """'src:dst,src:dst' pairs, or 'cycle' for i -> (i+1) mod C."""
    if text == "cycle":
        return {i: (i + 1) % num_classes for i in range(num_classes)}
    pairs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValidationError(f"pair_map entry {chunk!r} must look like 'src:dst'")
        src_text, dst_text = chunk.split(":", 1)
        try:
            src, dst = int(src_text), int(dst_text)
        except ValueError:
            raise ValidationError(f"pair_map entry {chunk!r} has non-integer classes") from None
        if src in pairs:
            raise ValidationError(f"pair_map lists class {src} twice")
        pairs[src] = dst
    if not pairs:
        raise ValidationError("pair_map is empty")
    return pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; `entries` keeps the raw strings for the
    manifest echo."""

    entries: dict
    base_dir: str
    output_dir: str
    dataset_source: str
    scorer_source: str
    criterion: str
    margin: MarginConfig
    train: TrainConfig
    test_source: str

    def path(self, section: str, key: str) -> Optional[str]:
        value = _get(self.entries, section, key)
        if value is None:
            return None
        return os.path.normpath(os.path.join(self.base_dir, value))

    def normalized_text(self) -> str:
        lines = [
            f"{section}.{key} = {value}"
            for (section, key), value in sorted(self.entries.items())
        ]
        return "\n".join(lines) + "\n"

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.normalized_text().encode("utf-8")).hexdigest()


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    """Parse and validate a config; raises before any pipeline work."""
    entries = parse_config_text(text)

    output_dir = _get(entries, "output", "dir")
    if output_dir is None:
        raise ValidationError("config requires output.dir")

    dataset_source = _get(entries, "dataset", "source")
    if dataset_source not in _DATASET_SOURCES:
        raise ValidationError(
            f"dataset.source must be one of {_DATASET_SOURCES}, got {dataset_source!r}"
        )
    if dataset_source == "file" and _get(entries, "dataset", "path") is None:
        raise ValidationError("dataset.source=file requires dataset.path")

    scorer_source = _get(entries, "scorer", "source")
    if scorer_source not in _SCORER_SOURCES:
        raise ValidationError(
            f"scorer.source must be one of {_SCORER_SOURCES}, got {scorer_source!r}"
        )
    if scorer_source == "cosine" and _get(entries, "scorer", "bank") is None:
        raise ValidationError("scorer.source=cosine requires scorer.bank")
    if scorer_source == "file" and _get(entries, "scorer", "path") is None:
        raise ValidationError("scorer.source=file requires scorer.path")

    criterion = _get(entries, "selection", "criterion", CRITERION_CONFIDENCE)
    criterion = criterion.replace("-", "_")
    if criterion not in (CRITERION_CONFIDENCE, CRITERION_PROMPT_CONSISTENCY):
        raise ValidationError(f"unknown selection.criterion {criterion!r}")
    if criterion == CRITERION_PROMPT_CONSISTENCY:
        has_second = (
            _get(entries, "scorer", "bank_b") is not None
            or _get(entries, "scorer", "path_b") is not None
        )
        if not has_second:
            raise ValidationError(
                "selection.criterion=prompt_consistency requires a second score "
                "source (scorer.bank_b or scorer.path_b)"
            )

    test_source = _get(entries, "test", "source", "none")
    if test_source not in _TEST_SOURCES:
        raise ValidationError(f"test.source must be one of {_TEST_SOURCES}, got {test_source!r}")
    if test_source == "file" and _get(entries, "test", "path") is None:
        raise ValidationError("test.source=file requires test.path")
    if test_source == "synth" and dataset_source != "synth":
        raise ValidationError("test.source=synth requires dataset.source=synth")

    margin = MarginConfig(
        delta=_as_float(entries, "margin", "delta", 0.5),
        t=_as_float(entries, "margin", "t", 1.0),
        s=_as_float(entries, "margin", "s", 1.0),
        gamma=_as_float(entries, "margin", "gamma", 1.0),
    )
    train_cfg = TrainConfig(
        epochs=_as_int(entries, "train", "epochs", 10),
        batch_size=_as_int(entries, "train", "batch_size", 128),
        learning_rate=_as_float(entries, "train", "learning_rate", 0.1),
        weight_decay=_as_float(entries, "train", "weight_decay", 0.0),
        momentum=_as_float(entries, "train", "momentum", 0.9),
        seed=_as_int(entries, "train", "seed", 0),
        shuffle=_as_bool(entries, "train", "shuffle", True),
        lr_step_every=_as_int(entries, "train", "lr_step_every", 0),
        lr_step_factor=_as_float(entries, "train", "lr_step_factor", 0.1),
    )

    return ExperimentConfig(
        entries=entries,
        base_dir=base_dir,
        output_dir=os.path.normpath(os.path.join(base_dir, output_dir)),
        dataset_source=dataset_source,
        scorer_source=scorer_source,
        criterion=criterion,
        margin=margin,
        train=train_cfg,
        test_source=test_source,
    )


@dataclass
class ExperimentResult:
    """Status plus the in-memory stage outputs, for composition tests."""

    status: int
    output_dir: str
    stage: str
    error: str = ""
    dataset: Optional[Dataset] = None
    scores: Optional[ScoreMatrix] = None
    mask: object = None
    subset: Optional[Dataset] = None
    matrix: object = None
    prior: object = None
    train_report: object = None
    metrics: dict = field(default_factory=dict)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(config: ExperimentConfig, seeds: dict, stage: str, error: str) -> None:
    out = config.output_dir
    lines = ["#noiselens-manifest v1", f"config_sha256={config.config_sha256}"]
    for name in sorted(seeds):
        lines.append(f"seed.{name}={seeds[name]}")
    for (section, key), value in sorted(config.entries.items()):
        lines.append(f"config.{section}.{key}={value}")
    digest_lines = []
    for name in ARTIFACT_ORDER:
        path = os.path.join(out, name)
        if os.path.exists(path):
            digest_lines.append(f"{name}={_sha256_file(path)}")
    lines.extend(f"artifact.{entry}" for entry in digest_lines)
    combined = hashlib.sha256("\n".join(digest_lines).encode("utf-8")).hexdigest()
    lines.append(f"artifacts_hash={combined}")
    if error:
        lines.append("status=failed")
        lines.append(f"stage={stage}")
        lines.append(f"error={error}")
    else:
        lines.append("status=ok")
    with open(os.path.join(out, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_noise_spec(config: ExperimentConfig, num_classes: int) -> Optional[NoiseSpec]:
    entries = config.entries
    kind = _get(entries, "dataset", "noise", "none")
    if kind == "none":
        return None
    kind = kind.replace("-", "_")
    if kind not in _noise.NOISE_KINDS:
        raise ValidationError(f"unknown dataset.noise {kind!r}")
    rate = _as_float(entries, "dataset", "noise_rate", 0.2)
    seed = _as_int(entries, "dataset", "noise_seed", _as_int(entries, "dataset", "seed", 0) + 1)
    pair_map = None
    if kind == "asymmetric":
        text = _get(entries, "dataset", "pair_map")
        if text is None:
            raise ValidationError("asymmetric noise requires dataset.pair_map")
        pair_map = parse_pair_map(text, num_classes)
    bounds_text = _get(entries, "dataset", "budget_bounds")
    if bounds_text is None:
        bounds = _noise.DEFAULT_BUDGET_BOUNDS
    else:
        parts = bounds_text.split(",")
        if len(parts) != 2:
            raise ValidationError("dataset.budget_bounds must be 'low,high'")
        try:
            bounds = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValidationError("dataset.budget_bounds must be two numbers") from None
    return NoiseSpec(
        kind=kind,
        rate=rate,
        seed=seed,
        pair_map=pair_map,
        budget_sd=_as_float(entries, "dataset", "budget_sd", _noise.DEFAULT_BUDGET_SD),
        budget_bounds=bounds,
    )


def _stage_dataset(config: ExperimentConfig):
    entries = config.entries
    if config.dataset_source == "file":
        return load_dataset(config.path("dataset", "path")), None
    classes = _as_int(entries, "dataset", "classes", 2)
    per_class = _as_int(entries, "dataset", "per_class", 50)
    dim = _as_int(entries, "dataset", "dim", 8)
    separation = _as_float(entries, "dataset", "separation", 3.0)
    seed = _as_int(entries, "dataset", "seed", 0)
    dataset = make_blobs(classes, per_class, dim, separation, seed)
    spec = _build_noise_spec(config, classes)
    record = None
    if spec is not None:
        dataset, record = inject_noise(dataset, spec)
        return dataset, (spec, record)
    return dataset, None


def _one_score_source(config: ExperimentConfig, dataset: Dataset, suffix: str = "") -> ScoreMatrix:
    entries = config.entries
    source = config.scorer_source
    if suffix:
        # The second source for prompt consistency: whichever of bank_b /
        # path_b is present.
        bank_path = config.path("scorer", "bank_b")
        file_path = config.path("scorer", "path_b")
        if bank_path is not None:
            source = "cosine"
        elif file_path is not None:
            return load_score_matrix(file_path, dataset)
        else:
            raise ValidationError("missing second score source")
    else:
        bank_path = config.path("scorer", "bank")
        file_path = config.path("scorer", "path")
    if source == "cosine":
        bank = load_embedding_bank(bank_path)
        scorer_cfg = ScorerConfig(temperature=_as_float(entries, "scorer", "temperature", 0.01))
        embeddings_path = config.path("scorer", "embeddings")
        if embeddings_path is not None:
            embeddings = load_embedding_table(embeddings_path, dataset)
        else:
            embeddings = dataset.features
        if bank.num_classes != dataset.num_classes:
            raise ValidationError(
                f"bank has {bank.num_classes} classes, dataset has {dataset.num_classes}"
            )
        return cosine_softmax_score(embeddings, bank, scorer_cfg, sample_ids=dataset.ids)
    if source == "file":
        return load_score_matrix(file_path, dataset)
    return oracle_scores(dataset, _as_float(entries, "scorer", "correct_prob", 1.0))


def _stage_test_dataset(config: ExperimentConfig) -> Optional[Dataset]:
    entries = config.entries
    if config.test_source == "none":
        return None
    if config.test_source == "file":
        return load_dataset(config.path("test", "path"))
    classes = _as_int(entries, "dataset", "classes", 2)
    dim = _as_int(entries, "dataset", "dim", 8)
    separation = _as_float(entries, "dataset", "separation", 3.0)
    per_class = _as_int(entries, "test", "per_class", _as_int(entries, "dataset", "per_class", 50))
    seed = _as_int(entries, "test", "seed", _as_int(entries, "dataset", "seed", 0) + 2)
    return make_blobs(classes, per_class, dim, separation, seed)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full pipeline, writing artifacts as stages finish.

    On a stage failure the artifacts written so far stay in place and the
    manifest records the failing stage; the result carries status 1.
    """
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    entries = config.entries
    seeds = {
        "dataset": _as_int(entries, "dataset", "seed", 0),
        "noise": _as_int(entries, "dataset", "noise_seed", _as_int(entries, "dataset", "seed", 0) + 1),
        "train": config.train.seed,
        "test": _as_int(entries, "test", "seed", _as_int(entries, "dataset", "seed", 0) + 2),
    }
    result = ExperimentResult(status=1, output_dir=out, stage="dataset")

    def fail(stage: str, exc: Exception) -> ExperimentResult:
        result.stage = stage
        result.error = str(exc)
        _write_manifest(config, seeds, stage, str(exc))
        return result

    try:
        dataset, corruption = _stage_dataset(config)
        result.dataset = dataset
        if config.dataset_source == "synth":
            save_dataset(os.path.join(out, "dataset.txt"), dataset)
            if corruption is not None:
                spec, record = corruption
                save_corruption_record(os.path.join(out, "corruption.txt"), record, spec)
    except (NoiseLensError, OSError) as exc:
        return fail("dataset", exc)

    try:
        result.stage = "score"
        scores = _one_score_source(config, dataset)
        result.scores = scores
        save_score_matrix(os.path.join(out, "scores.txt"), scores)
        scores_b = None
        if config.criterion == CRITERION_PROMPT_CONSISTENCY:
            scores_b = _one_score_source(config, dataset, suffix="_b")
            save_score_matrix(os.path.join(out, "scores_b.txt"), scores_b)
    except (NoiseLensError, OSError) as exc:
        return fail("score", exc)

    try:
        result.stage = "select"
        if config.criterion == CRITERION_CONFIDENCE:
            rho = _as_float(entries, "selection", "rho", DEFAULT_CONFIDENCE_THRESHOLD)
            mask = select_by_confidence(dataset, scores, rho)
        else:
            mu = _as_float(entries, "selection", "mu", DEFAULT_CONSISTENCY_THRESHOLD)
            mask = select_by_prompt_consistency(dataset, scores, scores_b, mu)
        result.mask = mask
        save_mask(os.path.join(out, "mask.txt"), mask)
        subset = apply_mask(dataset, mask)
        result.subset = subset
    except (NoiseLensError, OSError) as exc:
        return fail("select", exc)

    try:
        result.stage = "priors"
        matrix = estimate_transition_matrix(dataset, scores)
        prior = compute_class_prior(subset, dataset.label_space)
        result.matrix = matrix
        result.prior = prior
        save_transition_matrix(os.path.join(out, "transition.txt"), matrix)
        save_class_prior(os.path.join(out, "prior.txt"), prior)
    except (NoiseLensError, OSError) as exc:
        return fail("priors", exc)

    try:
        result.stage = "train"
        train_report = train(subset, matrix, prior, config.margin, config.train)
        result.train_report = train_report
        save_classifier(os.path.join(out, "classifier.txt"), train_report.classifier)
    except (NoiseLensError, OSError) as exc:
        return fail("train", exc)

    try:
        result.stage = "evaluate"
        test_dataset = _stage_test_dataset(config)
        metrics = {
            "selected": mask.selected_count,
            "total": dataset.num_samples,
            "final_train_loss": train_report.epoch_losses[-1],
            "final_train_accuracy": train_report.epoch_train_accuracy[-1],
        }
        rows = [
            {
                "stage": "selection",
                "criterion": mask.criterion,
                "threshold": mask.threshold,
                "selected": mask.selected_count,
                "total": dataset.num_samples,
            },
            {
                "stage": "training",
                "epochs": config.train.epochs,
                "final_loss": train_report.epoch_losses[-1],
                "final_train_accuracy": train_report.epoch_train_accuracy[-1],
            },
        ]
        if dataset.has_ground_truth:
            quality = _noise.selection_quality(mask, dataset)
            metrics["precision"] = quality.precision
            metrics["recall"] = quality.recall
            rows[0]["precision"] = quality.precision
            rows[0]["recall"] = quality.recall
        if test_dataset is not None:
            if config.test_source == "synth":
                save_dataset(os.path.join(out, "test.txt"), test_dataset)
            reference = (
                test_dataset.true_labels
                if test_dataset.has_ground_truth
                else test_dataset.noisy_labels
            )
            prediction = predict(train_report.classifier, test_dataset)
            test_acc = accuracy(prediction.labels, reference)
            metrics["test_accuracy"] = test_acc
            row = {
                "stage": "evaluation",
                "test_samples": test_dataset.num_samples,
                "test_accuracy": test_acc,
            }
            top_k = _as_int(entries, "report", "top_k", 0)
            if top_k:
                row[f"top{top_k}_accuracy"] = top_k_accuracy(
                    prediction.probabilities, reference, top_k
                )
                metrics[f"top{top_k}_accuracy"] = row[f"top{top_k}_accuracy"]
            rows.append(row)
        result.metrics = metrics
        with open(os.path.join(out, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_records(rows))
    except (NoiseLensError, OSError) as exc:
        return fail("evaluate", exc)

    result.status = 0
    result.stage = "done"
    _write_manifest(config, seeds, "done", "")
    return result
