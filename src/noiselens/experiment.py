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
from contextlib import contextmanager, suppress
from dataclasses import astuple, dataclass, field, fields, replace
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
from .errors import NoiseLensError, RangeError, ValidationError, check_range
from .losses import MarginConfig
from .noise import BlobSpec, inject_noise, make_blobs, oracle_scores, save_corruption_record
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
    THRESHOLDS,
    SelectionMask,
    criterion_threshold,
    save_mask,
    select_by_confidence,
    select_by_prompt_consistency,
    selected_rows,
)
from .trainer import TrainConfig, save_classifier, train

# section -> (allowed sources, default source, {source: key it requires})
_SOURCES = {
    "dataset": (("file", "synth"), None, {"file": "path"}),
    "scorer": (("cosine", "file", "oracle"), None, {"cosine": "bank", "file": "path"}),
    "test": (("file", "synth", "none"), "none", {"file": "path"}),
}

# NoiseSpec field -> its dataset key, which is the field name but for these.
_NOISE_KEYS = {
    f.name: {"kind": "noise", "rate": "noise_rate", "seed": "noise_seed"}.get(f.name, f.name)
    for f in fields(_noise.NoiseSpec)
}

# section -> allowed keys; unknown keys are config errors so typos fail fast.
_SCHEMA = {
    "dataset": {"source", "path", *(f.name for f in fields(BlobSpec)), *_NOISE_KEYS.values()},
    "scorer": {
        "source", "bank", "embeddings", "path", "correct_prob", "bank_b", "path_b",
        *(f.name for f in fields(ScorerConfig)),
    },
    "selection": {"criterion", *(name for name, _, _ in THRESHOLDS.values())},
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


@contextmanager
def _config_keys(**keys):
    """Re-raise a range error on a field named in ``keys`` as one on the
    config key that ``keys`` maps it to."""
    try:
        yield
    except RangeError as exc:
        if exc.name not in keys:
            raise
        raise RangeError(keys[exc.name], exc.value, exc.interval) from None


def _from_section(entries, section, cls, base=None):
    """``cls`` built from the ``section`` keys the config sets, so the
    dataclass defaults (or ``base``) are the only copy of the rest. Each
    field's annotation (int, float or bool) names its parser."""
    kwargs = {}
    for f in fields(cls):
        parse = _parse_bool if f.type is bool else f.type
        if (section, f.name) in entries:
            kwargs[f.name] = _value(entries, section, f.name, parse)
    with _config_keys(**{name: f"{section}.{name}" for name in kwargs}):
        return cls(**kwargs) if base is None else replace(base, **kwargs)


def _source(entries, section) -> str:
    """``section.source``, checked against its sources and the key it requires."""
    sources, default, required = _SOURCES[section]
    source = entries.get((section, "source"), default)
    if source not in sources:
        raise ValidationError(f"{section}.source must be one of {sources}, got {source!r}")
    key = required.get(source)
    if key is not None and (section, key) not in entries:
        raise ValidationError(f"{section}.source={source} requires {section}.{key}")
    return source


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run description with every value parsed; `entries` keeps
    the raw strings for the manifest echo. A noise key, threshold or second
    score source that the chosen model or criterion never reads is an error,
    as in `synth` and `select`; a file dataset's synth and noise keys are not
    read, and its sizes and noise stay None. Every seed is checked."""

    entries: dict
    output_dir: str
    seeds: dict  # dataset, noise, train and test
    dataset_source: str
    dataset_path: Optional[str]
    blobs: Optional[BlobSpec]
    noise: Optional[_noise.NoiseSpec]
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
    test_blobs: Optional[BlobSpec]
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

    dataset_source = _source(entries, "dataset")
    scorer_source = _source(entries, "scorer")
    first = path("scorer", "bank" if scorer_source == "cosine" else "path")
    score_sources = [(scorer_source, first)]

    criterion = get("selection", "criterion", CRITERION_CONFIDENCE).replace("-", "_")
    if criterion not in THRESHOLDS:
        raise ValidationError(f"unknown selection.criterion {criterion!r}")
    # The second score source is whichever of bank_b / path_b is present;
    # like `score --bank` and `--scores-file`, they exclude each other.
    given = [key for key in ("bank_b", "path_b") if get("scorer", key) is not None]
    if len(given) > 1:
        raise ValidationError("scorer.bank_b and scorer.path_b exclude each other")
    second = given[0] if given else None
    if criterion == CRITERION_PROMPT_CONSISTENCY:
        if second is None:
            raise ValidationError(
                "selection.criterion=prompt_consistency requires a second score "
                "source (scorer.bank_b or scorer.path_b)"
            )
        score_sources.append(("cosine" if second == "bank_b" else "file", path("scorer", second)))
    names = {name: f"selection.{name}" for name, _, _ in THRESHOLDS.values()}
    own = THRESHOLDS[criterion][0]  # the one threshold parsed: any other is an error
    settings = {name: get("selection", name) for name in names}
    settings.update({own: value("selection", own, float, None), "scores_b": second})
    names.update({c: f"selection.criterion={c}" for c in THRESHOLDS}, scores_b=f"scorer.{second}")
    with _config_keys(**names):
        threshold = criterion_threshold(criterion, settings, names)
    cosine = any(kind == "cosine" for kind, _ in score_sources)
    # Scorer key -> whether a chosen score source reads it, and what would;
    # a key that none reads is an error. Every cosine source, scorer.bank_b
    # too, reads the cosine settings.
    readers = {
        "bank": (scorer_source == "cosine", "scorer.source=cosine"),
        "path": (scorer_source == "file", "scorer.source=file"),
        "correct_prob": (scorer_source == "oracle", "scorer.source=oracle"),
        **dict.fromkeys(
            ("embeddings", *(f.name for f in fields(ScorerConfig))),
            (cosine, "scorer.source=cosine or scorer.bank_b"),
        ),
    }
    for key, (read, need) in readers.items():
        if not read and get("scorer", key) is not None:
            raise ValidationError(f"scorer.{key} requires {need}")

    test_source = _source(entries, "test")
    if test_source == "synth" and dataset_source != "synth":
        raise ValidationError("test.source=synth requires dataset.source=synth")

    train_cfg = _from_section(entries, "train", TrainConfig)
    seed = value("dataset", "seed", int, BlobSpec.seed)
    seeds = {
        "dataset": seed,
        "noise": value("dataset", "noise_seed", int, _noise.default_noise_seed(seed)),
        "train": train_cfg.seed,
        "test": value("test", "seed", int, seed + 2),
    }
    # Every seed the manifest records is checked, whatever the dataset source.
    seed_keys = ("dataset.seed", "dataset.noise_seed", "train.seed", "test.seed")
    for key, seed_value in zip(seed_keys, seeds.values()):
        check_range(key, seed_value, "[0, inf)")

    blobs = test_blobs = noise = None
    if dataset_source == "synth":
        blobs = _from_section(entries, "dataset", BlobSpec)
        if test_source == "synth":
            test_blobs = _from_section(entries, "test", BlobSpec, replace(blobs, seed=seed + 2))
        knobs = {}  # the numbers parsed, pair_map and budget_bounds kept as text
        for f in fields(_noise.NoiseSpec)[1:]:
            parse = f.type if f.type in (int, float) else str
            knobs[f.name] = value("dataset", _NOISE_KEYS[f.name], parse, None)
        names = {name: f"dataset.{key}" for name, key in _NOISE_KEYS.items()}
        names.update({kind: f"dataset.noise={kind}" for kind in _noise.NOISE_KINDS})
        kind = get("dataset", "noise", "none").replace("-", "_")
        with _config_keys(**names):
            noise = _noise.noise_spec(kind, blobs, knobs, names)

    correct_prob = None
    if scorer_source == "oracle":
        correct_prob = value("scorer", "correct_prob", float, 1.0)
        check_range("scorer.correct_prob", correct_prob, _noise.CORRECT_PROB_RANGE)

    top_k = value("report", "top_k", int, 0) if test_source != "none" else 0
    if top_k < 0:
        raise ValidationError(f"config report.top_k: {top_k} is negative (0 turns it off)")
    if blobs is not None and top_k > blobs.classes:
        raise ValidationError(
            f"config report.top_k: {top_k} exceeds the {blobs.classes} dataset classes"
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


def _write_manifest(config: ExperimentConfig, stage: str, error: str, written) -> None:
    """The manifest of this run: its config and seeds, a hash of each
    `ARTIFACT_ORDER` name in ``written`` (the names this run began to
    write) that exists, and its status. A file that a previous run left in
    the directory is not listed."""
    out = config.output_dir
    lines = ["#noiselens-manifest v1", f"config_sha256={config.config_sha256}"]
    for name in sorted(config.seeds):
        lines.append(f"seed.{name}={config.seeds[name]}")
    for (section, key), value in sorted(config.entries.items()):
        lines.append(f"config.{section}.{key}={value}")
    digest_lines = []
    for name in ARTIFACT_ORDER:
        path = os.path.join(out, name)
        if name in written and os.path.exists(path):
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
    manifest records the failing stage; the result carries status 1. Any
    other exception, ``KeyboardInterrupt`` included, leaves a manifest with
    that stage and ``error=interrupted``, and propagates. A
    previous run's manifest is removed before the first artifact is
    written, and the new one lists only what this run wrote; no other file
    is removed, as an input may sit in ``output.dir``.
    """
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    with suppress(FileNotFoundError):
        os.remove(os.path.join(out, "manifest.txt"))
    written = []

    def artifact(name):
        written.append(name)
        return os.path.join(out, name)

    result = ExperimentResult(status=1, output_dir=out, stage="dataset")
    try:
        if config.dataset_source == "file":
            dataset = result.dataset = load_dataset(config.dataset_path)
        else:
            dataset = make_blobs(*astuple(config.blobs))
            if config.noise is not None:
                dataset, record = inject_noise(dataset, config.noise)
            result.dataset = dataset
            save_dataset(artifact("dataset.txt"), dataset)
            if config.noise is not None:
                save_corruption_record(artifact("corruption.txt"), record, config.noise)

        result.stage = "score"
        settings = config.scorer, config.embeddings, config.correct_prob
        matrices = []  # one per score source: the criterion's config reads one or two
        for name, source in zip(("scores.txt", "scores_b.txt"), config.score_sources):
            matrices.append(score(dataset, *source, *settings))
            save_score_matrix(artifact(name), matrices[-1])

        result.stage = "select"
        mask = result.mask = select(dataset, config.criterion, config.threshold, *matrices)
        save_mask(artifact("mask.txt"), mask)
        selected = selected_rows(dataset, mask)

        result.stage = "priors"
        matrix = result.matrix = estimate_transition_matrix(dataset, matrices[0])
        prior = compute_class_prior(dataset, selected)
        save_transition_matrix(artifact("transition.txt"), matrix)
        save_class_prior(artifact("prior.txt"), prior)

        result.stage = "train"
        train_report = train(dataset.subset(selected), matrix, prior, config.margin, config.train)
        result.train_report = train_report
        save_classifier(artifact("classifier.txt"), train_report.classifier)

        result.stage = "evaluate"
        test_dataset = None
        if config.test_source == "file":
            test_dataset = load_dataset(config.test_path)
        elif config.test_source == "synth":
            test_dataset = make_blobs(*astuple(config.test_blobs))
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
                save_dataset(artifact("test.txt"), test_dataset)
            test = evaluate(train_report.classifier, test_dataset, config.top_k)
            test = {"test_accuracy": test.pop("accuracy"), **test}
            metrics.update(test)
            rows.append({"stage": "evaluation", "test_samples": test_dataset.num_samples, **test})
        result.metrics = metrics
        with open(artifact("report.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_records(rows))
    except (NoiseLensError, OSError, MemoryError) as exc:
        result.error = str(exc)
        _write_manifest(config, result.stage, result.error, written)
        return result
    except BaseException:
        _write_manifest(config, result.stage, "interrupted", written)
        raise

    result.status = 0
    result.stage = "done"
    _write_manifest(config, "done", "", written)
    return result
