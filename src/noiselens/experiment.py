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
from dataclasses import dataclass, field, fields
from typing import Optional

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
from .report import evaluate, format_records
from .scorer import ScorerConfig, load_embedding_bank, load_embedding_table, score_with_surrogate
from .selection import (
    CRITERION_CONFIDENCE,
    CRITERION_PROMPT_CONSISTENCY,
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_CONSISTENCY_THRESHOLD,
    SelectionMask,
    apply_mask,
    check_threshold,
    save_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)
from .trainer import TrainConfig, save_classifier, train

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
        "source", "bank", "embeddings", "path", "correct_prob", "bank_b", "path_b",
        *(f.name for f in fields(ScorerConfig)),
    },
    "selection": {"criterion", "rho", "mu"},
    "margin": {f.name for f in fields(MarginConfig)},
    "train": {f.name for f in fields(TrainConfig)},
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


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# parser -> what a value it rejects is not
_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


def _value(entries, section, key, parse, default=None):
    """``section.key`` parsed by ``parse``, or ``default`` when absent."""
    text = entries.get((section, key))
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError:
        raise ValidationError(
            f"config {section}.{key}: {text!r} is not {_EXPECTED[parse]}"
        ) from None


def _from_section(entries, section, cls):
    """``cls`` built from the ``section`` keys the config sets, so the
    dataclass defaults are the only copy of the rest. Each field's
    annotation (int, float or bool) names its parser."""
    kwargs = {}
    for f in fields(cls):
        parse = _parse_bool if f.type is bool else f.type
        if (section, f.name) in entries:
            kwargs[f.name] = _value(entries, section, f.name, parse)
    return cls(**kwargs)


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
    _noise.check_pair_map(pairs, num_classes)
    return pairs


def noise_spec(
    kind: str,
    num_classes: int,
    rate: float,
    seed: int,
    pair_map: Optional[str] = None,
    budget_sd: float = _noise.DEFAULT_BUDGET_SD,
    budget_bounds: Optional[str] = None,
) -> NoiseSpec:
    """The corruption for a synthetic dataset, from the text forms the CLI
    and config files share: ``kind`` may spell '_' as '-', ``pair_map`` is
    'src:dst,...' or 'cycle' (read for asymmetric noise only) and
    ``budget_bounds`` is 'low,high'."""
    kind = kind.replace("-", "_")
    bounds = _noise.DEFAULT_BUDGET_BOUNDS
    if budget_bounds is not None:
        try:
            low, high = (float(part) for part in budget_bounds.split(","))
        except ValueError:
            raise ValidationError(
                f"budget_bounds {budget_bounds!r} must be two numbers 'low,high'"
            ) from None
        bounds = (low, high)
    return NoiseSpec(
        kind=kind,
        rate=rate,
        seed=seed,
        pair_map=(
            parse_pair_map(pair_map, num_classes)
            if kind == "asymmetric" and pair_map is not None
            else None
        ),
        budget_sd=budget_sd,
        budget_bounds=bounds,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run description with every value parsed; `entries` keeps
    the raw strings for the manifest echo. Values a run does not read, such
    as the synth sizes of a file dataset, are not parsed and stay None."""

    entries: dict
    output_dir: str
    seeds: dict  # dataset, noise, train and test
    dataset_source: str
    dataset_path: Optional[str]
    blobs: Optional[tuple]  # make_blobs (classes, per_class, dim, separation)
    noise: Optional[NoiseSpec]
    # One (kind, path) per score matrix: cosine (path is the bank), file or oracle.
    score_sources: tuple
    scorer: Optional[ScorerConfig]
    embeddings: Optional[str]
    correct_prob: Optional[float]
    criterion: str
    threshold: float  # rho for confidence, mu for prompt consistency
    margin: MarginConfig
    train: TrainConfig
    test_source: str
    test_path: Optional[str]
    test_blobs: Optional[tuple]
    top_k: int

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
    """Parse and validate a config; every value a run reads is parsed here,
    so a bad one raises before any pipeline work."""
    entries = parse_config_text(text)

    def get(section, key, default=None):
        return entries.get((section, key), default)

    def value(section, key, parse, default):
        return _value(entries, section, key, parse, default)

    def path(section, key):
        raw = get(section, key)
        return None if raw is None else os.path.normpath(os.path.join(base_dir, raw))

    output_dir = path("output", "dir")
    if output_dir is None:
        raise ValidationError("config requires output.dir")

    dataset_source = get("dataset", "source")
    if dataset_source not in _DATASET_SOURCES:
        raise ValidationError(
            f"dataset.source must be one of {_DATASET_SOURCES}, got {dataset_source!r}"
        )
    if dataset_source == "file" and get("dataset", "path") is None:
        raise ValidationError("dataset.source=file requires dataset.path")

    scorer_source = get("scorer", "source")
    if scorer_source not in _SCORER_SOURCES:
        raise ValidationError(
            f"scorer.source must be one of {_SCORER_SOURCES}, got {scorer_source!r}"
        )
    if scorer_source == "cosine" and get("scorer", "bank") is None:
        raise ValidationError("scorer.source=cosine requires scorer.bank")
    if scorer_source == "file" and get("scorer", "path") is None:
        raise ValidationError("scorer.source=file requires scorer.path")
    first = path("scorer", "bank" if scorer_source == "cosine" else "path")
    score_sources = [(scorer_source, first)]

    criterion = get("selection", "criterion", CRITERION_CONFIDENCE).replace("-", "_")
    if criterion == CRITERION_CONFIDENCE:
        threshold = value("selection", "rho", float, DEFAULT_CONFIDENCE_THRESHOLD)
    elif criterion == CRITERION_PROMPT_CONSISTENCY:
        # The second source is whichever of bank_b / path_b is present.
        if get("scorer", "bank_b") is not None:
            score_sources.append(("cosine", path("scorer", "bank_b")))
        elif get("scorer", "path_b") is not None:
            score_sources.append(("file", path("scorer", "path_b")))
        else:
            raise ValidationError(
                "selection.criterion=prompt_consistency requires a second score "
                "source (scorer.bank_b or scorer.path_b)"
            )
        threshold = value("selection", "mu", float, DEFAULT_CONSISTENCY_THRESHOLD)
    else:
        raise ValidationError(f"unknown selection.criterion {criterion!r}")
    check_threshold(criterion, threshold)
    cosine = any(kind == "cosine" for kind, _ in score_sources)

    test_source = get("test", "source", "none")
    if test_source not in _TEST_SOURCES:
        raise ValidationError(f"test.source must be one of {_TEST_SOURCES}, got {test_source!r}")
    if test_source == "file" and get("test", "path") is None:
        raise ValidationError("test.source=file requires test.path")
    if test_source == "synth" and dataset_source != "synth":
        raise ValidationError("test.source=synth requires dataset.source=synth")

    train_cfg = _from_section(entries, "train", TrainConfig)
    seed = value("dataset", "seed", int, 0)
    seeds = {
        "dataset": seed,
        "noise": value("dataset", "noise_seed", int, seed + 1),
        "train": train_cfg.seed,
        "test": value("test", "seed", int, seed + 2),
    }

    blobs = test_blobs = noise = None
    if dataset_source == "synth":
        classes = value("dataset", "classes", int, 2)
        per_class = value("dataset", "per_class", int, 50)
        dim = value("dataset", "dim", int, 8)
        separation = value("dataset", "separation", float, 3.0)
        blobs = (classes, per_class, dim, separation)
        _noise.check_blob_sizes(*blobs)
        if test_source == "synth":
            test_blobs = (classes, value("test", "per_class", int, per_class), dim, separation)
            _noise.check_blob_sizes(*test_blobs)
        kind = get("dataset", "noise", "none")
        if kind != "none":
            noise = noise_spec(
                kind,
                classes,
                value("dataset", "noise_rate", float, _noise.DEFAULT_NOISE_RATE),
                seeds["noise"],
                get("dataset", "pair_map"),
                value("dataset", "budget_sd", float, _noise.DEFAULT_BUDGET_SD),
                get("dataset", "budget_bounds"),
            )

    correct_prob = None
    if scorer_source == "oracle":
        correct_prob = value("scorer", "correct_prob", float, 1.0)
        _noise.check_correct_prob(correct_prob)

    top_k = value("report", "top_k", int, 0) if test_source != "none" else 0
    if top_k < 0:
        raise ValidationError(f"config report.top_k: {top_k} is negative (0 turns it off)")
    if blobs is not None and top_k > blobs[0]:
        raise ValidationError(
            f"config report.top_k: {top_k} exceeds the {blobs[0]} dataset classes"
        )

    return ExperimentConfig(
        entries=entries,
        output_dir=output_dir,
        seeds=seeds,
        dataset_source=dataset_source,
        dataset_path=path("dataset", "path"),
        blobs=blobs,
        noise=noise,
        score_sources=tuple(score_sources),
        scorer=_from_section(entries, "scorer", ScorerConfig) if cosine else None,
        embeddings=path("scorer", "embeddings"),
        correct_prob=correct_prob,
        criterion=criterion,
        threshold=threshold,
        margin=_from_section(entries, "margin", MarginConfig),
        train=train_cfg,
        test_source=test_source,
        test_path=path("test", "path"),
        test_blobs=test_blobs,
        top_k=top_k,
    )


@dataclass
class ExperimentResult:
    """Status plus the in-memory stage outputs, for composition tests."""

    status: int
    output_dir: str
    stage: str
    error: str = ""
    dataset: Optional[Dataset] = None
    mask: object = None
    matrix: object = None
    train_report: object = None
    metrics: dict = field(default_factory=dict)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(config: ExperimentConfig, stage: str, error: str) -> None:
    out = config.output_dir
    lines = ["#noiselens-manifest v1", f"config_sha256={config.config_sha256}"]
    for name in sorted(config.seeds):
        lines.append(f"seed.{name}={config.seeds[name]}")
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


def score(dataset, kind, path, scorer, embeddings, correct_prob) -> ScoreMatrix:
    """Scores for ``dataset`` from an oracle, the score file at ``path`` or
    the bank at ``path`` (on the ``embeddings`` table, else the features)."""
    if kind == "oracle":
        return oracle_scores(dataset, correct_prob)
    if kind == "file":
        return load_score_matrix(path, dataset)
    bank = load_embedding_bank(path)
    table = None if embeddings is None else load_embedding_table(embeddings, dataset)
    return score_with_surrogate(dataset, bank, scorer, table)


def select(dataset, criterion, threshold, scores, scores_b=None) -> SelectionMask:
    """The mask of ``criterion``; prompt consistency compares ``scores`` with ``scores_b``."""
    if criterion == CRITERION_CONFIDENCE:
        return select_by_confidence(dataset, scores, threshold)
    return select_by_prompt_consistency(dataset, scores, scores_b, threshold)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full pipeline, writing artifacts as stages finish.

    On a stage failure the artifacts written so far stay in place and the
    manifest records the failing stage; the result carries status 1.
    """
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    result = ExperimentResult(status=1, output_dir=out, stage="dataset")
    try:
        if config.dataset_source == "file":
            dataset = result.dataset = load_dataset(config.dataset_path)
        else:
            dataset = make_blobs(*config.blobs, config.seeds["dataset"])
            if config.noise is not None:
                dataset, record = inject_noise(dataset, config.noise)
            result.dataset = dataset
            save_dataset(os.path.join(out, "dataset.txt"), dataset)
            if config.noise is not None:
                save_corruption_record(os.path.join(out, "corruption.txt"), record, config.noise)

        result.stage = "score"
        settings = config.scorer, config.embeddings, config.correct_prob
        scores = score(dataset, *config.score_sources[0], *settings)
        save_score_matrix(os.path.join(out, "scores.txt"), scores)
        scores_b = None
        if config.criterion == CRITERION_PROMPT_CONSISTENCY:
            scores_b = score(dataset, *config.score_sources[1], *settings)
            save_score_matrix(os.path.join(out, "scores_b.txt"), scores_b)

        result.stage = "select"
        mask = result.mask = select(dataset, config.criterion, config.threshold, scores, scores_b)
        save_mask(os.path.join(out, "mask.txt"), mask)
        subset = apply_mask(dataset, mask)

        result.stage = "priors"
        matrix = result.matrix = estimate_transition_matrix(dataset, scores)
        prior = compute_class_prior(subset)
        save_transition_matrix(os.path.join(out, "transition.txt"), matrix)
        save_class_prior(os.path.join(out, "prior.txt"), prior)

        result.stage = "train"
        train_report = train(subset, matrix, prior, config.margin, config.train)
        result.train_report = train_report
        save_classifier(os.path.join(out, "classifier.txt"), train_report.classifier)

        result.stage = "evaluate"
        test_dataset = None
        if config.test_source == "file":
            test_dataset = load_dataset(config.test_path)
        elif config.test_source == "synth":
            test_dataset = make_blobs(*config.test_blobs, config.seeds["test"])
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
            test = evaluate(train_report.classifier, test_dataset, config.top_k)
            test = {"test_accuracy": test.pop("accuracy"), **test}
            metrics.update(test)
            rows.append({"stage": "evaluation", "test_samples": test_dataset.num_samples, **test})
        result.metrics = metrics
        with open(os.path.join(out, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_records(rows))
    except (NoiseLensError, OSError) as exc:
        result.error = str(exc)
        _write_manifest(config, result.stage, result.error)
        return result

    result.status = 0
    result.stage = "done"
    _write_manifest(config, "done", "")
    return result
