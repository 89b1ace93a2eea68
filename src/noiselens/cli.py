"""Command-line interface: one subcommand per pipeline stage plus a
config-driven end-to-end runner.

Exit codes: 0 success, 1 stage failure (message on stderr as
`error: [stage] ...`), 2 usage errors (argparse).
"""

import argparse
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .data import load_dataset, load_score_matrix, save_dataset, save_score_matrix
from .errors import NoiseLensError, ValidationError, check_reads
from .experiment import load_experiment_config, run_experiment, score, select
from .losses import MarginConfig
from .noise import BlobSpec, NoiseSpec, inject_noise, make_blobs, noise_spec, save_corruption_record
from .priors import (
    compute_class_prior,
    estimate_transition_matrix,
    load_class_prior,
    load_transition_matrix,
    save_class_prior,
    save_transition_matrix,
)
from .report import (
    confidence_histogram,
    evaluate_dataset_file,
    format_records,
    format_table,
    histogram_rows,
)
from .scorer import (
    COSINE_SOURCES,
    SOURCE_READERS,
    ScorerConfig,
    load_embedding_bank,
    score_dataset_file,
)
from .selection import (
    READERS,
    THRESHOLDS,
    criterion_threshold,
    load_mask,
    save_mask,
    selected_rows,
)
from .trainer import TrainConfig, load_classifier, save_classifier, train

_NOISE_NAMES = {"sym": "symmetric", "asym": "asymmetric", "idn": "instance_dependent"}
# The synth flag of each NoiseSpec field, and each noise model's choice.
_NOISE_FLAGS = {
    **{f.name: "--" + f.name.replace("_", "-") for f in fields(NoiseSpec)},
    "kind": "--noise",
    "seed": "--noise-seed",
    **{kind: f"--noise {flag}" for flag, kind in _NOISE_NAMES.items()},
}
# The select flag of each selection setting, and each criterion's choice.
_SELECT_FLAGS = {
    **{name: "--" + name.replace("_", "-") for name in READERS},
    **{criterion: "--criterion " + criterion.replace("_", "-") for criterion in THRESHOLDS},
}


def _warn_fallbacks(matrix) -> None:
    """One stderr line per transition row that fell back to uniform."""
    for text in matrix.warnings:
        sys.stderr.write(f"warning: [priors] {text}\n")


def _from_flags(args, cls):
    """``cls`` built from the flags given on the command line, so the
    dataclass defaults are the only copy of the rest."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def _cmd_synth(args) -> int:
    if args.corruption_out is not None and args.noise == "none":
        raise ValidationError("--corruption-out requires --noise")
    blobs = _from_flags(args, BlobSpec)
    knobs = {f.name: getattr(args, f.name) for f in fields(NoiseSpec)[1:] if f.name != "seed"}
    knobs["seed"] = args.noise_seed
    spec = noise_spec(_NOISE_NAMES.get(args.noise, "none"), blobs, knobs, _NOISE_FLAGS)
    dataset = make_blobs(*astuple(blobs))
    if spec is not None:
        dataset, record = inject_noise(dataset, spec)
    save_dataset(args.out, dataset, fmt="binary" if args.binary else "text")
    if args.corruption_out:
        save_corruption_record(args.corruption_out, record, spec)
    return 0


def _cmd_score(args) -> int:
    kind, path = ("cosine", args.bank) if args.bank is not None else ("file", args.scores_file)
    given = {"embeddings": args.embeddings, "temperature": args.temperature}
    flags = {COSINE_SOURCES: "--bank", **{name: "--" + name for name in given}}
    check_reads(given, SOURCE_READERS, (kind,), flags)
    config = ScorerConfig() if args.temperature is None else ScorerConfig(args.temperature)
    if kind == "cosine" and args.embeddings is None:
        scores = score_dataset_file(args.dataset, load_embedding_bank(path), config)
    else:  # a score file or an embedding table is keyed to the ids alone
        scores = score(load_dataset(args.dataset, keep=False), kind, path, config, args.embeddings, None)
    save_score_matrix(args.out, scores)
    return 0


def _cmd_select(args) -> int:
    criterion = args.criterion.replace("-", "_")
    settings = {name: getattr(args, name) for name in READERS}
    threshold = criterion_threshold(criterion, settings, _SELECT_FLAGS)
    if criterion in READERS["scores_b"] and not args.scores_b:
        raise ValidationError("prompt-consistency requires --scores-b")
    dataset = load_dataset(args.dataset, keep=False)
    scores = [load_score_matrix(p, dataset) for p in (args.scores, args.scores_b) if p is not None]
    save_mask(args.out, select(dataset, criterion, threshold, *scores))
    return 0


def _cmd_priors(args) -> int:
    dataset = load_dataset(args.dataset, keep=False)
    scores = load_score_matrix(args.scores, dataset)
    rows = selected_rows(dataset, load_mask(args.mask))
    matrix = estimate_transition_matrix(dataset, scores)
    _warn_fallbacks(matrix)
    prior = compute_class_prior(dataset, rows)
    save_transition_matrix(args.tm_out, matrix)
    save_class_prior(args.prior_out, prior)
    return 0


def _cmd_train(args) -> int:
    # The mask is loaded once the dataset's header has been read, so that
    # only the selected records' features are parsed.
    subset = load_dataset(args.dataset, keep=lambda: load_mask(args.mask))
    matrix = load_transition_matrix(args.tm)
    prior = load_class_prior(args.prior)
    margin, cfg = _from_flags(args, MarginConfig), _from_flags(args, TrainConfig)
    report = train(subset, matrix, prior, margin, cfg)
    save_classifier(args.out, report.classifier)
    return 0


def _cmd_report(args) -> int:
    if args.top_k is not None and not args.classifier:
        raise ValidationError("--top-k requires --classifier")
    if not (args.classifier or args.scores):
        raise ValidationError("report needs --classifier or --scores")
    if not args.dataset:
        source = "--classifier" if args.classifier else "--scores"
        raise ValidationError(f"{source} reports require --dataset")
    if args.classifier:
        top_k = args.top_k or 0
        if top_k < 0:
            raise ValidationError(f"--top-k: {top_k} is negative (0 turns it off)")
        classifier = load_classifier(args.classifier)
        if top_k > classifier.num_classes:
            raise ValidationError(
                f"--top-k: {top_k} exceeds the {classifier.num_classes} classifier classes"
            )
        dataset, metrics = evaluate_dataset_file(classifier, args.dataset, top_k)
        rows = [{"samples": dataset.num_samples, **metrics}]
    else:
        dataset = load_dataset(args.dataset, keep=False)
        scores = load_score_matrix(args.scores, dataset)
        confidences = scores.values[np.arange(dataset.num_samples), dataset.noisy_labels]
        histogram = confidence_histogram(confidences, source=os.path.basename(args.scores))
        rows = histogram_rows(histogram)
    formatter = format_table if args.format == "table" else format_records
    sys.stdout.write(formatter(rows))
    return 0


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    result = run_experiment(config)
    if result.matrix is not None:
        _warn_fallbacks(result.matrix)
    if result.status != 0:
        sys.stderr.write(f"error: [{result.stage}] {result.error}\n")
        return 1
    sys.stdout.write(f"{result.output_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noiselens",
        description="Surrogate-guided clean-sample selection and margin-adjusted training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset with label noise")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sep", type=float, required=True, dest="separation")
    p.add_argument("--noise", choices=("none", *_NOISE_NAMES), default="none")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--noise-seed", type=int, default=None, help="default: --seed + 1")
    p.add_argument("--pair-map", default=None, help="'src:dst,...' or 'cycle' (asym only)")
    p.add_argument("--budget-sd", type=float, default=None, help="idn only")
    p.add_argument("--budget-bounds", default=None, help="'low,high' (idn only)")
    p.add_argument("--out", required=True)
    p.add_argument("--corruption-out", default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("score", help="score a dataset with a class-embedding bank or score file")
    p.add_argument("--dataset", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bank")
    group.add_argument("--scores-file")
    p.add_argument("--temperature", type=float, default=None, help="bank scoring only")
    p.add_argument("--embeddings", default=None, help="image embeddings keyed by sample id")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("select", help="flag clean samples by confidence or prompt consistency")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--scores-b", default=None, help="prompt-consistency only")
    p.add_argument("--criterion", choices=[c.replace("_", "-") for c in THRESHOLDS], required=True)
    p.add_argument("--rho", type=float, default=None, help="confidence only")
    p.add_argument("--mu", type=float, default=None, help="prompt-consistency only")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("priors", help="estimate the transition matrix and clean-subset prior")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--tm-out", required=True)
    p.add_argument("--prior-out", required=True)
    p.set_defaults(handler=_cmd_priors)

    # A margin or training flag left out keeps its config dataclass default.
    p = sub.add_parser(
        "train", help="train a linear head on the selected subset", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--tm", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--wd", type=float, dest="weight_decay")
    p.add_argument("--momentum", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-shuffle", action="store_false", dest="shuffle")
    p.add_argument("--lr-step-every", type=int)
    p.add_argument("--lr-step-factor", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("report", help="accuracy or confidence-histogram reports")
    p.add_argument("--format", choices=("table", "records"), default="table")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--classifier", default=None)
    group.add_argument("--scores", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--top-k", type=int, default=None, help="--classifier reports only")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        return args.handler(args)
    except (NoiseLensError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: [{stage}] {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
