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

from . import noise as _noise, scorer as _scorer
from .data import (
    Dataset,
    ScoreMatrix,
    load_dataset,
    load_score_matrix,
    save_dataset,
    save_score_matrix,
)
from .errors import NoiseLensError, RangeError, ValidationError, check_range, check_reads
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

# section -> (allowed sources, default source)
_SOURCES = {
    "dataset": (("file", "synth"), None),
    "scorer": (("cosine", "file", "oracle"), None),
    "test": (("file", "synth", "none"), "none"),
}
# A score source, or a second one, as a config names it.
_SCORER_OPTIONS = {source: f"scorer.source={source}" for source in _SOURCES["scorer"][0]}
_SCORER_OPTIONS.update({key: f"scorer.{key}" for key in _scorer.SECOND_SOURCES})
# NoiseSpec field -> its config key: `dataset.` and the field name, but for these.
_NOISE_KEYS = {f.name: f"dataset.{f.name}" for f in fields(_noise.NoiseSpec)}
_NOISE_KEYS.update(kind="dataset.noise", rate="dataset.noise_rate", seed="dataset.noise_seed")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# parser -> what a value it rejects is not
_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "a boolean", os.fspath: "a path"}


def _parser(annotation):
    """The parser of a value annotated ``annotation``: `_parse_bool` for
    bool; int, float and `os.fspath` (a path) for themselves; else str,
    which keeps the text."""
    if annotation is bool:
        return _parse_bool
    return annotation if annotation in _EXPECTED else str


# Every key a config may set -> its parser (`os.fspath`: a non-empty path
# from the config's directory), the sources that read it and True when the
# one source that reads it requires it. A key without readers is read by
# every config that reaches it; the rules of `selection.criterion_threshold`
# and `noise.noise_spec` say which criterion or noise model reads a
# threshold or a noise knob. A key that no chosen source reads is an error
# (`_READERS`): a scorer key once the score sources are known, any other
# after every other rule.
_KEYS = {
    "output.dir": (os.fspath, (), False),
    **dict.fromkeys([f"{section}.source" for section in _SOURCES], (str, (), False)),
    "selection.criterion": (str, (), False),
    **{f"selection.{name}": (float, (), False) for name, _, _ in THRESHOLDS.values()},
    **{_NOISE_KEYS[f.name]: (_parser(f.type), (), False) for f in fields(_noise.NoiseSpec)},
    **{f"dataset.{f.name}": (_parser(f.type), (), False) for f in fields(BlobSpec)},
    **{f"margin.{f.name}": (_parser(f.type), (), False) for f in fields(MarginConfig)},
    **{f"train.{f.name}": (_parser(f.type), (), False) for f in fields(TrainConfig)},
    "dataset.path": (os.fspath, ("dataset.source=file",), True),
    **{f"scorer.{key}": (_parser(kind), tuple(map(_SCORER_OPTIONS.get, readers)), required)
       for key, (kind, readers, required) in _scorer.SETTINGS.items()},
    **{f"scorer.{key}": (os.fspath, (), False) for key in _scorer.SECOND_SOURCES},
    "test.seed": (int, (), False),
    "test.path": (os.fspath, ("test.source=file",), True),
    "test.per_class": (int, ("test.source=synth",), False),
    "report.top_k": (int, ("test.source=file", "test.source=synth"), False),
}
_READERS = {name: readers for name, (_, readers, _) in _KEYS.items() if readers}

# '#' opens a comment at the start of a line or after whitespace, so values
# such as `data#1/ds.txt` keep their '#'.
_COMMENT = re.compile(r"(?:^|\s)#")

def parse_config_text(text: str) -> dict:
    """`section.key = value` lines into a {(section, key): value} dict."""
    sections = {name.split(".")[0] for name in _KEYS}
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
            raise ValidationError(f"config line {lineno}: key {name!r} must have exactly one dot")
        section, key = name.split(".")
        if section not in sections:
            raise ValidationError(f"config line {lineno}: unknown section {section!r}")
        if name not in _KEYS:
            raise ValidationError(
                f"config line {lineno}: unknown key {key!r} in section {section!r}"
            )
        if (section, key) in entries:
            raise ValidationError(f"config line {lineno}: duplicate key {name!r}")
        entries[(section, key)] = value
    return entries


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


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run description with every value parsed by its `_KEYS`
    parser, an empty path being an error; `entries` keeps the raw strings
    for the manifest echo. A key that no chosen noise model, criterion or
    source reads is an error, as in `synth`, `select` and `score`; a file
    dataset's synth and noise keys are not read, and its sizes and noise
    stay None. Every seed is checked."""

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
    raw = {".".join(key): value for key, value in entries.items()}
    chosen = set()  # the sources chosen so far, spelled as `_KEYS` spells readers

    def value(name, default=None):
        """`_KEYS` key ``name`` parsed, else ``default``; None if no chosen source reads it."""
        parse, readers, _ = _KEYS[name]
        if readers and chosen.isdisjoint(readers):
            return None
        text = raw.get(name)
        if text is None:
            return default
        try:
            return path(text) if parse is os.fspath else parse(text)
        except ValueError:
            raise ValidationError(f"config {name}: {text!r} is not {_EXPECTED[parse]}") from None

    def path(text):  # a non-empty path, from the config's directory
        if not text:
            raise ValueError(text)
        return os.path.normpath(os.path.join(base_dir, text))

    def section(name, cls):
        """``cls`` built from the ``name`` keys the config sets, so the
        dataclass defaults are the only copy of the rest."""
        keys = {f.name: f"{name}.{f.name}" for f in fields(cls) if f"{name}.{f.name}" in raw}
        with _config_keys(**keys):
            return cls(**{field_name: value(key) for field_name, key in keys.items()})

    def source(name):
        """``name.source``, checked against its sources and the key it
        requires, and added to ``chosen`` as `name.source=<source>`."""
        sources, default = _SOURCES[name]
        choice = value(f"{name}.source", default)
        if choice not in sources:
            raise ValidationError(f"{name}.source must be one of {sources}, got {choice!r}")
        option = f"{name}.source={choice}"
        for key, (_, readers, required) in _KEYS.items():
            if required and option in readers and key not in raw:
                raise ValidationError(f"{option} requires {key}")
        chosen.add(option)
        return choice

    output_dir = value("output.dir")
    if output_dir is None:
        raise ValidationError("config requires output.dir")

    dataset_source = source("dataset")
    scorer_source = source("scorer")
    # The first source's bank or score file, whichever it reads (oracle: neither).
    score_sources = [(scorer_source, value("scorer.bank") or value("scorer.path"))]

    criterion = value("selection.criterion", CRITERION_CONFIDENCE).replace("-", "_")
    if criterion not in THRESHOLDS:
        raise ValidationError(f"unknown selection.criterion {criterion!r}")
    given = [key for key in _scorer.SECOND_SOURCES if f"scorer.{key}" in raw]
    if len(given) > 1:
        raise ValidationError("scorer.bank_b and scorer.path_b exclude each other")
    second = given[0] if given else None
    if criterion == CRITERION_PROMPT_CONSISTENCY:
        if second is None:
            raise ValidationError(
                "selection.criterion=prompt_consistency requires a second score "
                "source (scorer.bank_b or scorer.path_b)"
            )
        score_sources.append((_scorer.SECOND_SOURCES[second], value(f"scorer.{second}")))
        chosen.add(f"scorer.{second}")
    names = {name: f"selection.{name}" for name, _, _ in THRESHOLDS.values()}
    own = THRESHOLDS[criterion][0]  # the one threshold parsed: any other is an error
    settings = {name: raw.get(key) for name, key in names.items()}
    settings.update({own: value(names[own]), "scores_b": second})
    names.update({c: f"selection.criterion={c}" for c in THRESHOLDS}, scores_b=f"scorer.{second}")
    with _config_keys(**names):
        threshold = criterion_threshold(criterion, settings, names)
    scorer_keys = {name: _READERS[name] for name in _READERS if name.startswith("scorer.")}
    check_reads(raw, scorer_keys, chosen, {})

    test_source = source("test")
    if test_source == "synth" and dataset_source != "synth":
        raise ValidationError("test.source=synth requires dataset.source=synth")

    train_cfg = section("train", TrainConfig)
    seed = value("dataset.seed", BlobSpec.seed)
    seeds = {
        "dataset": seed,
        "noise": value("dataset.noise_seed", _noise.default_noise_seed(seed)),
        "train": train_cfg.seed,
        "test": value("test.seed", seed + 2),
    }
    # Every seed the manifest records is checked, whatever the dataset source.
    seed_keys = ("dataset.seed", "dataset.noise_seed", "train.seed", "test.seed")
    for key, seed_value in zip(seed_keys, seeds.values()):
        check_range(key, seed_value, "[0, inf)")

    blobs = test_blobs = noise = None
    if dataset_source == "synth":
        blobs = section("dataset", BlobSpec)
        if test_source == "synth":
            per_class = value("test.per_class", blobs.per_class)
            test_blobs = replace(blobs, per_class=per_class, seed=seeds["test"])
        knobs = {f.name: value(_NOISE_KEYS[f.name]) for f in fields(_noise.NoiseSpec)[1:]}
        names = {**_NOISE_KEYS, **{kind: f"dataset.noise={kind}" for kind in _noise.NOISE_KINDS}}
        kind = value("dataset.noise", "none").replace("-", "_")
        with _config_keys(**names):
            noise = _noise.noise_spec(kind, blobs, knobs, names)

    correct_prob = value("scorer.correct_prob", 1.0)
    if correct_prob is not None:
        check_range("scorer.correct_prob", correct_prob, _noise.CORRECT_PROB_RANGE)

    top_k = value("report.top_k") or 0  # off when unset or without a test set
    if top_k < 0:
        raise ValidationError(f"config report.top_k: {top_k} is negative (0 turns it off)")
    if blobs is not None and top_k > blobs.classes:
        raise ValidationError(
            f"config report.top_k: {top_k} exceeds the {blobs.classes} dataset classes"
        )
    check_reads(raw, _READERS, chosen, {})

    cosine = any(kind == "cosine" for kind, _ in score_sources)
    return ExperimentConfig(
        entries=entries,
        output_dir=output_dir,
        seeds=seeds,
        dataset_source=dataset_source,
        dataset_path=value("dataset.path"),
        blobs=blobs,
        noise=noise,
        score_sources=tuple(score_sources),
        scorer=section("scorer", ScorerConfig) if cosine else None,
        embeddings=value("scorer.embeddings"),
        correct_prob=correct_prob,
        criterion=criterion,
        threshold=threshold,
        margin=section("margin", MarginConfig),
        train=train_cfg,
        test_source=test_source,
        test_path=value("test.path"),
        test_blobs=test_blobs,
        top_k=top_k,
    )


@dataclass
class ExperimentResult:
    """Status plus the in-memory stage outputs, for composition tests.
    ``dataset`` holds no features once the train stage has read them."""

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
    """The manifest of this run: its config and seeds, a hash of each name
    in ``written`` (the names this run began to write, in that order) that
    exists, and its status. A file that a previous run left in the
    directory is not listed."""
    out = config.output_dir
    lines = ["#noiselens-manifest v1", f"config_sha256={config.config_sha256}"]
    for name in sorted(config.seeds):
        lines.append(f"seed.{name}={config.seeds[name]}")
    for (section, key), value in sorted(config.entries.items()):
        lines.append(f"config.{section}.{key}={value}")
    digest_lines = []
    for name in written:
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
        train_report = train(dataset, matrix, prior, config.margin, config.train, selected)
        result.train_report = train_report
        # No later stage reads the features: drop them before the test set is made.
        dataset = result.dataset = replace(dataset, features=None)
        save_classifier(artifact("classifier.txt"), train_report.classifier)

        result.stage = "evaluate"
        test_dataset = None
        if config.test_source == "file":
            test_dataset = load_dataset(config.test_path)
        elif config.test_source == "synth":
            test_dataset = make_blobs(*astuple(config.test_blobs))
            save_dataset(artifact("test.txt"), test_dataset)
        outcome = {"selected": mask.selected_count, "total": dataset.num_samples}
        if dataset.has_ground_truth:
            quality = _noise.selection_quality(mask, dataset)
            outcome.update(precision=quality.precision, recall=quality.recall)
        loss, accuracy = train_report.epoch_losses[-1], train_report.epoch_train_accuracy[-1]
        metrics = {**outcome, "final_train_loss": loss, "final_train_accuracy": accuracy}
        rows = [
            dict(stage="selection", criterion=mask.criterion, threshold=mask.threshold, **outcome),
            {
                "stage": "training",
                "epochs": config.train.epochs,
                "final_loss": loss,
                "final_train_accuracy": accuracy,
            },
        ]
        if test_dataset is not None:
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
