"""In-memory spans around calls into noiselens's public functions.

The package's modules import functions by name (`from .data import
save_dataset`), so a call is wrapped where the caller looks the name up:
`noiselens.experiment.save_dataset`, `noiselens.cli.load_dataset`,
`noiselens.trainer.nabm_loss_batch`, and so on. Nothing under `src/` is
changed; the wrappers are installed only around traced iterations and
removed after each one.
"""

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Optional

# The modules whose global names are wrapped: every module that calls another
# layer's public function through a name it imported, plus `report`, whose
# own `threshold_sweep` and `accuracy` are looked up as module globals.
CALLER_MODULES = ("cli", "experiment", "report", "trainer", "noise")

# Imported name -> span name. A name is wrapped in every caller module that
# binds it; `noiselens.trainer.predict` is only called from inside `train`,
# so there it is the per-epoch evaluation pass.
SPAN_NAMES = {
    "run_experiment": "experiment.run_experiment",
    "save_dataset": "data.save_dataset",
    "load_dataset": "data.load_dataset",
    "save_score_matrix": "data.save_score_matrix",
    "load_score_matrix": "data.load_score_matrix",
    "make_blobs": "noise.make_blobs",
    "inject_noise": "noise.inject_noise",
    "save_corruption_record": "noise.save_corruption_record",
    "selection_quality": "noise.selection_quality",
    "cosine_softmax_score": "scorer.cosine_softmax_score",
    "load_embedding_bank": "scorer.load_embedding_bank",
    "select_by_confidence": "selection.select_by_confidence",
    "select_by_prompt_consistency": "selection.select_by_prompt_consistency",
    "apply_mask": "selection.apply_mask",
    "save_mask": "selection.save_mask",
    "load_mask": "selection.load_mask",
    "estimate_transition_matrix": "priors.estimate_transition_matrix",
    "compute_class_prior": "priors.compute_class_prior",
    "save_transition_matrix": "priors.codec",
    "load_transition_matrix": "priors.codec",
    "save_class_prior": "priors.codec",
    "load_class_prior": "priors.codec",
    "nabm_loss_batch": "losses.nabm_loss_batch",
    "train": "trainer.train",
    "predict": "trainer.predict",
    "save_classifier": "trainer.save_classifier",
    "load_classifier": "trainer.load_classifier",
    "threshold_sweep": "report.threshold_sweep",
    "accuracy": "report.accuracy",
    "top_k_accuracy": "report.top_k_accuracy",
    "format_records": "report.format_records",
}
SPAN_OVERRIDES = {("trainer", "predict"): "trainer.epoch_eval"}

# Span names reported as `<name>.s` and `<name>.calls`.
TIMED_SPANS = tuple(sorted(set(SPAN_NAMES.values()) | set(SPAN_OVERRIDES.values())))

STAGES = ("score_a", "score_b", "select", "priors", "train", "report")


@dataclass(slots=True)
class Span:
    name: str
    iteration: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _mask_counts(args, kwargs, result):
    dataset = args[0]
    attrs = {"selected": result.selected_count, "total": dataset.num_samples}
    if dataset.has_ground_truth:
        clean = dataset.noisy_labels == dataset.true_labels
        attrs["clean_selected"] = int((clean & result.verdicts).sum())
    return attrs


def _fallback_rows(args, kwargs, result):
    return {"fallback_rows": len(result.warnings)}


def _rows_stepped(args, kwargs, result):
    subset, cfg = args[0], args[4]
    return {"rows": subset.num_samples * cfg.epochs}


# Span name -> hook that reads counts off the call's arguments and result.
HOOKS = {
    "data.save_dataset": _file_bytes,
    "data.load_dataset": _file_bytes,
    "data.save_score_matrix": _file_bytes,
    "data.load_score_matrix": _file_bytes,
    "selection.select_by_confidence": _mask_counts,
    "selection.select_by_prompt_consistency": _mask_counts,
    "priors.estimate_transition_matrix": _fallback_rows,
    "trainer.train": _rows_stepped,
}


class Tracer:
    """Records one span per wrapped call. Spans of one iteration share its
    id; a span's parent is the wrapped call that was open when it began."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._installed = []
        self.iteration = 0

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        for module_name in CALLER_MODULES:
            module = importlib.import_module(f"noiselens.{module_name}")
            for attr, span_name in SPAN_NAMES.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                span_name = SPAN_OVERRIDES.get((module_name, attr), span_name)
                setattr(module, attr, self._wrap(span_name, original))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.iteration, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _iteration_metrics(spans, indices) -> dict:
    """Per-iteration totals from the spans of one iteration."""
    totals = {name: 0.0 for name in TIMED_SPANS}
    calls = {name: 0 for name in TIMED_SPANS}
    attrs = {}
    # Self time: a span's duration minus the time its direct children cover
    # (calls are sequential, so children never overlap).
    self_s = {"experiment.run_experiment": 0.0, "report.threshold_sweep": 0.0, "trainer.train": 0.0}
    for i in indices:
        span = spans[i]
        totals[span.name] += span.seconds
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attrs[(span.name, key)] = attrs.get((span.name, key), 0) + value
        if span.name in self_s:
            self_s[span.name] += span.seconds
        if span.parent is not None and spans[span.parent].name in self_s:
            self_s[spans[span.parent].name] -= span.seconds

    def mb(name):
        return attrs.get((name, "bytes"), 0) / 1e6

    out = {}
    for name in TIMED_SPANS:
        out[f"{name}.s"] = totals[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("data.save_dataset", "data.save_score_matrix", "data.load_dataset"):
        out[f"{name}.mb"] = mb(name)
    writes = ("data.save_dataset", "data.save_score_matrix")
    reads = ("data.load_dataset", "data.load_score_matrix")
    out["data.write_mb_per_s"] = _ratio(sum(mb(n) for n in writes), sum(totals[n] for n in writes))
    out["data.read_mb_per_s"] = _ratio(sum(mb(n) for n in reads), sum(totals[n] for n in reads))

    selectors = ("selection.select_by_confidence", "selection.select_by_prompt_consistency")
    selected = sum(attrs.get((n, "selected"), 0) for n in selectors)
    offered = sum(attrs.get((n, "total"), 0) for n in selectors)
    clean = sum(attrs.get((n, "clean_selected"), 0) for n in selectors)
    out["selection.selected_frac"] = _ratio(selected, offered)
    out["selection.precision"] = _ratio(clean, selected)
    out["priors.tm_fallback_rows"] = attrs.get(("priors.estimate_transition_matrix", "fallback_rows"), 0)

    train_s = totals["trainer.train"]
    out["experiment.self_s"] = self_s["experiment.run_experiment"]
    out["report.threshold_sweep.self_s"] = self_s["report.threshold_sweep"]
    out["trainer.step_self_s"] = self_s["trainer.train"]
    out["trainer.epoch_eval_share"] = _ratio(totals["trainer.epoch_eval"], train_s)
    out["trainer.sample_steps_per_s"] = _ratio(attrs.get(("trainer.train", "rows"), 0), train_s)
    return out


def layer_metrics(spans) -> dict:
    """Median over traced iterations of each per-iteration figure, plus the
    per-call p50/p99 of the loss, pooled over all traced iterations."""
    by_iteration = {}
    for i, span in enumerate(spans):
        by_iteration.setdefault(span.iteration, []).append(i)
    per_iteration = [_iteration_metrics(spans, idx) for idx in by_iteration.values()]
    out = {key: median(m[key] for m in per_iteration) for key in per_iteration[0]}
    cuts = quantiles((s.seconds for s in spans if s.name == "losses.nabm_loss_batch"), n=100, method="inclusive")
    out["losses.nabm_loss_batch.s_p50"] = cuts[49]
    out["losses.nabm_loss_batch.s_p99"] = cuts[98]
    return out


def write_spans(path, spans) -> None:
    """One line per span: name, iteration, parent index, start, end, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(s.attrs.items()))
            fh.write(f"{i}\t{s.name}\t{s.iteration}\t{s.parent}\t{s.start:.9f}\t{s.end:.9f}\t{attrs}\n")
