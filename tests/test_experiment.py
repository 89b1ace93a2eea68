"""Tests for the config format and the config-driven experiment runner."""

import os
import tempfile
import tracemalloc
import types
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselens.experiment
from noiselens.data import ROW_BLOCK
from noiselens.errors import NoiseLensError, ValidationError
from noiselens.experiment import (
    config_from_text,
    load_experiment_config,
    parse_config_text,
    run_experiment,
)
from noiselens.noise import BlobSpec, parse_pair_map
from noiselens.scorer import ClassEmbeddingBank, save_embedding_bank

MINIMAL_CONFIG = """
# synthetic two-class run with symmetric label noise
dataset.source = synth
dataset.classes = 2
dataset.per_class = 40
dataset.dim = 4
dataset.separation = 3.0
dataset.seed = 0
dataset.noise = symmetric
dataset.noise_rate = 0.2

scorer.source = oracle
scorer.correct_prob = 0.9

selection.criterion = confidence
selection.rho = 0.5

train.epochs = 3
train.batch_size = 16
train.learning_rate = 0.1

test.source = synth
test.per_class = 20

output.dir = {out}
"""


def test_every_public_name_resolves():
    """``__all__`` is exactly the package's public names that are not
    submodules, and a star import binds exactly ``__all__``."""
    import noiselens

    public = [
        name
        for name in dir(noiselens)
        if not name.startswith("_") and not isinstance(getattr(noiselens, name), types.ModuleType)
    ]
    assert sorted(noiselens.__all__) == public
    namespace = {}
    exec("from noiselens import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == public


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_comments_blanks_and_values(self):
        entries = parse_config_text(
            "# top comment\n\ndataset.source = synth  # trailing comment\n"
            "output.dir = runs/a=b\n"
            "dataset.path = data#1/ds.txt\n"
        )
        assert entries[("dataset", "source")] == "synth"
        assert entries[("dataset", "path")] == "data#1/ds.txt"  # '#' inside a value
        assert entries[("output", "dir")] == "runs/a=b"  # split on first '=' only

    def test_exactly_one_dot(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("nodot = 1")
        with pytest.raises(ValidationError, match="one dot"):
            parse_config_text("a.b.c = 1")

    def test_unknown_section_and_key(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_config_text("nosuch.key = 1")
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("dataset.nosuch = 1")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_text("dataset.seed = 1\ndataset.seed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_config_text("dataset.seed = 1\ndataset.source synth\n")


class TestPairMap:
    def test_explicit_pairs(self):
        assert parse_pair_map("0:1, 2:3", 4) == {0: 1, 2: 3}

    def test_cycle(self):
        assert parse_pair_map("cycle", 3) == {0: 1, 1: 2, 2: 0}

    def test_rejections(self):
        with pytest.raises(ValidationError):
            parse_pair_map("0:1,0:2", 4)  # class listed twice
        with pytest.raises(ValidationError):
            parse_pair_map("01", 4)
        with pytest.raises(ValidationError):
            parse_pair_map("a:b", 4)
        with pytest.raises(ValidationError):
            parse_pair_map("", 4)


class TestConfigValidation:
    def base(self, **overrides):
        lines = {
            "dataset.source": "synth",
            "scorer.source": "oracle",
            "output.dir": "out",
        }
        lines.update(overrides)
        return "\n".join(f"{k} = {v}" for k, v in lines.items() if v is not None)

    def test_minimal_config_accepted_with_defaults(self):
        cfg = config_from_text(self.base(), base_dir="/tmp/x")
        assert cfg.margin.delta == 0.5
        assert cfg.margin.gamma == 1.0
        assert cfg.train.epochs == 10
        assert cfg.train.batch_size == 128
        assert cfg.criterion == "confidence"
        assert cfg.test_source == "none"
        assert cfg.output_dir == os.path.normpath("/tmp/x/out")
        # The synth sizes, spread and seed default to BlobSpec's; the synth
        # test set copies them, seeded two past the dataset.
        assert cfg.blobs == BlobSpec() and astuple(cfg.blobs) == (2, 50, 8, 3.0, 0)
        assert cfg.test_blobs is None
        cfg = config_from_text(self.base(**{"test.source": "synth"}))
        assert cfg.test_blobs == replace(BlobSpec(), seed=2)
        cfg = config_from_text(self.base(**{"test.source": "synth", "test.per_class": "7"}))
        assert cfg.test_blobs == replace(BlobSpec(), per_class=7, seed=2)
        sizes = {"dataset.classes": "3", "dataset.dim": "5", "dataset.seed": "4"}
        cfg = config_from_text(self.base(**sizes, **{"test.source": "synth", "test.seed": "9"}))
        assert cfg.blobs == BlobSpec(classes=3, dim=5, seed=4)
        assert cfg.test_blobs == replace(cfg.blobs, seed=9)

    def test_output_dir_required(self):
        # An empty value fails too, instead of naming the config's own directory.
        for value in (None, ""):
            with pytest.raises(ValidationError, match="output.dir"):
                config_from_text(self.base(**{"output.dir": value}))

    def test_dataset_source_constraints(self):
        with pytest.raises(ValidationError):
            config_from_text(self.base(**{"dataset.source": "nosuch"}))
        with pytest.raises(ValidationError, match="dataset.path"):
            config_from_text(self.base(**{"dataset.source": "file"}))

    def test_scorer_source_constraints(self):
        with pytest.raises(ValidationError, match="scorer.bank"):
            config_from_text(self.base(**{"scorer.source": "cosine"}))
        with pytest.raises(ValidationError, match="scorer.path"):
            config_from_text(self.base(**{"scorer.source": "file"}))
        # The second score source alone may be the cosine one that reads
        # the cosine settings.
        cfg = config_from_text(self.base(**{
            "scorer.source": "file", "scorer.path": "s.txt", "scorer.bank_b": "b.txt",
            "scorer.temperature": "0.5", "scorer.embeddings": "e.txt",
            "selection.criterion": "prompt_consistency",
        }))
        assert cfg.scorer.temperature == 0.5 and cfg.embeddings.endswith("e.txt")

    def test_prompt_consistency_needs_second_source_before_any_work(self):
        text = self.base(**{"selection.criterion": "prompt_consistency"})
        with pytest.raises(ValidationError, match="second score source"):
            config_from_text(text)

    def test_criterion_dash_normalization(self):
        text = self.base(
            **{
                "selection.criterion": "prompt-consistency",
                "scorer.path_b": "scores_b.txt",
            }
        )
        cfg = config_from_text(text)
        assert cfg.criterion == "prompt_consistency"

    def test_synth_test_requires_synth_dataset(self, tmp_path):
        ds_path = tmp_path / "ds.txt"
        ds_path.write_text("#noiselens-dataset v1 N=1 D=1 C=2 GT=0\n0,0,0.5\n")
        text = self.base(
            **{
                "dataset.source": "file",
                "dataset.path": str(ds_path),
                "test.source": "synth",
            }
        )
        with pytest.raises(ValidationError, match="test.source=synth"):
            config_from_text(text)

    def test_bad_numeric_value_names_the_key(self):
        for overrides, message in (
            ({"train.epochs": "many"}, "config train.epochs: 'many' is not an integer"),
            ({"dataset.classes": "2.5"}, "config dataset.classes: '2.5' is not an integer"),
            (
                {"dataset.noise": "symmetric", "dataset.noise_rate": "x"},
                "config dataset.noise_rate: 'x' is not a number",
            ),
            (
                {
                    "selection.criterion": "prompt_consistency",
                    "scorer.path_b": "s.txt",
                    "selection.mu": "x",
                },
                "config selection.mu: 'x' is not a number",
            ),
            ({"train.shuffle": "maybe"}, "config train.shuffle: 'maybe' is not a boolean"),
            ({"margin.delta": "x"}, "config margin.delta: 'x' is not a number"),
            (
                {"dataset.noise": "instance_dependent", "dataset.budget_bounds": "x"},
                "budget_bounds 'x' must be two numbers 'low,high'",
            ),
        ):
            with pytest.raises(ValidationError) as info:
                config_from_text(self.base(**overrides))
            assert str(info.value) == message

    def test_boolean_spellings(self):
        for text, value in (("on", True), ("YES", True), ("off", False), ("0", False)):
            assert config_from_text(self.base(**{"train.shuffle": text})).train.shuffle is value

    def test_sha256_ignores_line_order(self):
        a = config_from_text(self.base())
        reordered = "\n".join(reversed(self.base().splitlines()))
        b = config_from_text(reordered)
        assert a.config_sha256 == b.config_sha256
        c = config_from_text(self.base(**{"dataset.seed": "1"}))
        assert a.config_sha256 != c.config_sha256


class TestRunExperiment:
    def run_minimal(self, tmp_path, out_name="out"):
        out = tmp_path / out_name
        cfg_path = write_config(
            tmp_path, MINIMAL_CONFIG.format(out=out), name=f"{out_name}.cfg"
        )
        config = load_experiment_config(cfg_path)
        return run_experiment(config), out

    def test_happy_path_writes_all_artifacts(self, tmp_path):
        result, out = self.run_minimal(tmp_path)
        assert result.status == 0
        assert result.stage == "done"
        names = [
            "dataset.txt", "corruption.txt", "scores.txt", "scores_b.txt", "mask.txt",
            "transition.txt", "prior.txt", "classifier.txt", "test.txt", "report.txt",
        ]
        for name in names:
            if name == "scores_b.txt":  # only written for prompt consistency
                assert not (out / name).exists()
            else:
                assert (out / name).exists(), name
        assert (out / "manifest.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "status=ok" in manifest
        assert "config_sha256=" in manifest
        assert "artifact.dataset.txt=" in manifest
        assert "test_accuracy" in result.metrics
        assert result.metrics["precision"] > 0.8
        # Training has read the features; the result keeps ids and labels only.
        assert result.dataset.features is None
        assert result.dataset.num_samples == 80

    def test_repeat_run_is_byte_identical(self, tmp_path):
        result, out = self.run_minimal(tmp_path)
        assert result.status == 0
        before = {
            name: (out / name).read_bytes() for name in os.listdir(out)
        }
        result2, _ = self.run_minimal(tmp_path)
        assert result2.status == 0
        after = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert before == after  # includes manifest.txt: nothing time-dependent

    def test_scoring_failure_is_staged(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "dataset.source = synth\n"
            "dataset.classes = 2\n"
            "dataset.per_class = 10\n"
            "dataset.dim = 3\n"
            "scorer.source = cosine\n"
            "scorer.bank = missing_bank.txt\n"
            f"output.dir = {out}\n"
        )
        config = config_from_text(text, base_dir=str(tmp_path))
        result = run_experiment(config)
        assert result.status == 1
        assert result.stage == "score"
        assert result.error
        # dataset artifact was already written; scores never appeared
        assert (out / "dataset.txt").exists()
        assert not (out / "scores.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "status=failed" in manifest
        assert "stage=score" in manifest

    def test_empty_selection_fails_in_select_stage(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "dataset.source = synth\n"
            "dataset.classes = 2\n"
            "dataset.per_class = 10\n"
            "dataset.dim = 3\n"
            "scorer.source = oracle\n"
            "scorer.correct_prob = 0.8\n"
            "selection.rho = 0.9\n"
            f"output.dir = {out}\n"
        )
        config = config_from_text(text, base_dir=str(tmp_path))
        result = run_experiment(config)
        assert result.status == 1
        assert result.stage == "select"
        assert "empty selection" in result.error

    def test_prompt_consistency_round(self, tmp_path):
        # First produce a dataset + scores on disk, then feed both as the two
        # score sources; identical sources mean zero divergence everywhere.
        first, out = self.run_minimal(tmp_path, out_name="seed_run")
        assert first.status == 0
        out2 = tmp_path / "pc_out"
        text = (
            f"dataset.source = file\n"
            f"dataset.path = {out / 'dataset.txt'}\n"
            f"dataset.noise = bogus\n"  # synth-only keys are not read for a file dataset
            f"scorer.source = file\n"
            f"scorer.path = {out / 'scores.txt'}\n"
            f"scorer.path_b = {out / 'scores.txt'}\n"
            f"selection.criterion = prompt_consistency\n"
            f"train.epochs = 2\n"
            f"output.dir = {out2}\n"
        )
        config = config_from_text(text, base_dir=str(tmp_path))
        result = run_experiment(config)
        assert result.status == 0
        assert (out2 / "scores_b.txt").exists()
        assert result.mask.selected_count == result.dataset.num_samples

    @staticmethod
    def artifacts(out):
        """The manifest's artifact lines and its artifacts_hash."""
        lines = (out / "manifest.txt").read_text().splitlines()
        return [ln for ln in lines if ln.startswith(("artifact.", "artifacts_hash="))]

    def test_rerun_without_a_test_set_describes_only_itself(self, tmp_path):
        first, out = self.run_minimal(tmp_path, out_name="shared")
        assert first.status == 0 and "artifact.test.txt" in "".join(self.artifacts(out))
        no_test = MINIMAL_CONFIG.replace("test.source = synth\n", "").replace("test.per_class = 20\n", "")
        for name in ("shared", "fresh"):
            config = config_from_text(no_test.format(out=tmp_path / name))
            assert run_experiment(config).status == 0
        assert self.artifacts(tmp_path / "shared") == self.artifacts(tmp_path / "fresh")
        assert (out / "test.txt").exists()  # no file is removed but the manifest

    def test_confidence_rerun_after_prompt_consistency_describes_only_itself(self, tmp_path):
        fresh, fresh_out = self.run_minimal(tmp_path, out_name="fresh")
        assert fresh.status == 0
        out = tmp_path / "shared"
        consistency = MINIMAL_CONFIG.replace(
            "selection.criterion = confidence\nselection.rho = 0.5\n",
            f"selection.criterion = prompt_consistency\nscorer.path_b = {fresh_out / 'scores.txt'}\n",
        )
        assert run_experiment(config_from_text(consistency.format(out=out))).status == 0
        assert "artifact.scores_b.txt" in "".join(self.artifacts(out))
        again, _ = self.run_minimal(tmp_path, out_name="shared")
        assert again.status == 0
        assert self.artifacts(out) == self.artifacts(fresh_out)
        assert (out / "scores_b.txt").exists()

    @pytest.mark.parametrize(
        "stage, call",
        [
            ("dataset", "inject_noise"),
            ("score", "score"),
            ("select", "save_mask"),
            ("priors", "estimate_transition_matrix"),
            ("train", "train"),
            ("evaluate", "evaluate"),
        ],
    )
    def test_interrupted_rerun_records_its_stage(self, tmp_path, monkeypatch, stage, call):
        first, out = self.run_minimal(tmp_path)
        assert first.status == 0

        def interrupted(*args):
            raise KeyboardInterrupt(call)

        monkeypatch.setattr(noiselens.experiment, call, interrupted)
        with pytest.raises(KeyboardInterrupt, match=f"^{call}$"):
            self.run_minimal(tmp_path)
        status = (out / "manifest.txt").read_text().splitlines()[-3:]
        assert status == ["status=failed", f"stage={stage}", "error=interrupted"]

    def test_run_holds_the_features_once_and_one_row_block(self, tmp_path):
        """Training reads the selected rows of the dataset itself, and the
        per-epoch accuracy copies one row block at most, so a run's traced
        peak is the features plus one block, not a second copy of the
        selected rows' features."""
        classes, per_class, dim = 3, 2500, 128
        config = config_from_text(
            "dataset.source = synth\n"
            f"dataset.classes = {classes}\n"
            f"dataset.per_class = {per_class}\n"
            f"dataset.dim = {dim}\n"
            "dataset.noise = symmetric\n"
            "scorer.source = oracle\n"
            "train.epochs = 1\n"
            "train.batch_size = 256\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        assert classes * per_class >= 3 * ROW_BLOCK
        tracemalloc.start()
        try:
            result = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == 0, result.error
        features = classes * per_class * dim * 8
        # 2 MiB covers the ids, labels, scores and the text writer's pieces.
        assert peak < features + 2 * ROW_BLOCK * dim * 8 + (2 << 20)

    def test_report_artifact_is_parseable_records(self, tmp_path):
        result, out = self.run_minimal(tmp_path)
        lines = (out / "report.txt").read_text().splitlines()
        assert len(lines) == 3  # selection, training, evaluation
        for line in lines:
            tokens = line.split()
            assert all("=" in tok for tok in tokens)
        assert lines[0].startswith("stage=selection")
        assert lines[2].startswith("stage=evaluation")


# Every numeric key of a synth run with its in-range draw. Sizes, epochs
# and top_k stay small: a huge one is a large allocation or a long loop,
# not an out-of-range value.
FLOAT_KEYS = {
    "dataset.separation": (0.0, 5.0),
    "dataset.noise_rate": (0.0, 0.9),
    "dataset.budget_sd": (0.0, 1.0),
    "scorer.temperature": (0.01, 1.0),
    "scorer.correct_prob": (0.5, 1.0),
    "selection.rho": (0.05, 0.95),
    "margin.delta": (0.0, 2.0),
    "margin.t": (0.0, 2.0),
    "margin.s": (0.1, 3.0),
    "margin.gamma": (0.0, 3.0),
    "train.learning_rate": (0.0, 1.0),
    "train.weight_decay": (0.0, 0.5),
    "train.momentum": (0.0, 0.95),
    "train.lr_step_factor": (0.1, 1.0),
}
SEED_KEYS = ("dataset.seed", "dataset.noise_seed", "train.seed", "test.seed")
SIZE_KEYS = {
    "dataset.classes": (2, 4),
    "dataset.per_class": (1, 8),
    "dataset.dim": (1, 4),
    "test.per_class": (1, 8),
    "train.epochs": (1, 2),
    "train.batch_size": (1, 64),
    "train.lr_step_every": (0, 2),
    "report.top_k": (0, 2),
}
NUMERIC_KEYS = (*FLOAT_KEYS, *SEED_KEYS, *SIZE_KEYS)
# The numeric noise keys each noise model reads; a key of another model is a
# config error, so a draw writes only those of its own model.
NOISE_KEYS = ("dataset.noise_rate", "dataset.noise_seed", "dataset.budget_sd")
NOISE_READS = {
    "none": (),
    "symmetric": NOISE_KEYS[:2],
    "asymmetric": NOISE_KEYS[:2],
    "instance_dependent": NOISE_KEYS,
}
# The numeric scorer keys each scorer source reads; likewise a key of another
# source is a config error.
SCORER_KEYS = ("scorer.temperature", "scorer.correct_prob")
SCORER_READS = {"oracle": SCORER_KEYS[1:], "cosine": SCORER_KEYS[:1]}
OUT_OF_RANGE = ["nan", "inf", "-inf", "-1", "0", "1e300"]


def _numeric_value(data, key: str, bad: bool) -> str:
    """An in-range value of ``key``, or with ``bad`` one at or past an edge."""
    if key in SEED_KEYS:
        return "-1" if bad else str(data.draw(st.integers(0, 2**70)))
    if key in SIZE_KEYS:
        strategy = st.sampled_from(["-1", "0"]) if bad else st.integers(*SIZE_KEYS[key]).map(str)
    else:
        strategy = st.sampled_from(OUT_OF_RANGE) if bad else st.floats(*FLOAT_KEYS[key]).map(repr)
    return data.draw(strategy)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_config_is_rejected_or_runs_to_a_manifest(data):
    """One or two numeric keys drawn from the edge values, the rest in range:
    the config either fails to parse before any work, or the run ends in a
    manifest; nothing but a NoiseLensError escapes either step."""
    noise = data.draw(st.sampled_from(list(NOISE_READS)))
    scorer = data.draw(st.sampled_from(list(SCORER_READS)))
    keys = [
        key for key in NUMERIC_KEYS
        if (key not in NOISE_KEYS or key in NOISE_READS[noise])
        and (key not in SCORER_KEYS or key in SCORER_READS[scorer])
    ]
    bad = data.draw(st.sets(st.sampled_from(keys), min_size=1, max_size=2))
    values = {key: _numeric_value(data, key, key in bad) for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        # A bank that fits valid drawn sizes, so cosine runs get past scoring.
        shape = [max(int(values[key]), 1) for key in ("dataset.classes", "dataset.dim")]
        save_embedding_bank(os.path.join(tmp, "bank.txt"), ClassEmbeddingBank(np.eye(*shape) + 1))
        text = "\n".join(
            [
                "dataset.source = synth",
                f"dataset.noise = {noise}",
                *(["dataset.pair_map = cycle"] if noise == "asymmetric" else []),
                f"scorer.source = {scorer}",
                *(["scorer.bank = bank.txt"] if scorer == "cosine" else []),
                "test.source = synth",
                f"output.dir = {out}",
                *(f"{key} = {value}" for key, value in values.items()),
            ]
        )
        try:
            config = config_from_text(text, base_dir=tmp)
        except NoiseLensError:
            assert not os.path.exists(out)
            return
        result = run_experiment(config)
        with open(os.path.join(out, "manifest.txt"), encoding="utf-8") as fh:
            status = [line for line in fh.read().splitlines() if line.startswith("status=")]
        assert status == ["status=ok" if result.status == 0 else "status=failed"]
