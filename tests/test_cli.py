"""End-to-end tests of the command-line interface, run in-process; the
import check alone starts a fresh interpreter."""

import os
import subprocess
import sys

import numpy as np
import pytest

import noiselens
from noiselens.cli import main
from noiselens.data import Dataset, load_dataset, load_score_matrix, save_dataset
from noiselens.noise import blob_means
from noiselens.losses import MarginConfig
from noiselens.priors import load_class_prior, load_transition_matrix
from noiselens.scorer import ClassEmbeddingBank, ScorerConfig, save_embedding_bank
from noiselens.selection import apply_mask, load_mask, select_by_confidence
from noiselens.trainer import TrainConfig, load_classifier, save_classifier, train


def run(argv):
    return main(argv)


def test_import_does_not_load_scipy():
    # Each CLI stage is a fresh process; scipy.stats alone costs about a
    # second to import, so only instance-dependent noise may load it.
    src = os.path.dirname(os.path.dirname(noiselens.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, noiselens, noiselens.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            run(["--help"])
        assert info.value.code == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run([])
        assert info.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["synth", "--nosuch"])
        assert info.value.code == 2

    def test_missing_input_file_is_stage_error(self, tmp_path, capsys):
        code = run(
            ["score", "--dataset", str(tmp_path / "nope.txt"),
             "--scores-file", str(tmp_path / "also_nope.txt"),
             "--out", str(tmp_path / "out.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [score]")

    def test_malformed_budget_bounds_is_stage_error(self, tmp_path, capsys):
        code = run(
            ["synth", "--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0",
             "--noise", "idn", "--budget-bounds", "a,b", "--out", str(tmp_path / "ds.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [synth] budget_bounds 'a,b'")
        assert not (tmp_path / "ds.txt").exists()

    def test_corruption_out_without_noise_writes_nothing(self, tmp_path, capsys):
        code = run(
            ["synth", "--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0",
             "--out", str(tmp_path / "ds.txt"), "--corruption-out", str(tmp_path / "c.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: [synth] --corruption-out requires --noise\n"
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def pipeline_files(tmp_path):
    """synth + bank files shared by the stage-chain tests."""
    ds = tmp_path / "ds.txt"
    code = run(
        ["synth", "--classes", "3", "--per-class", "30", "--dim", "4",
         "--sep", "2.5", "--noise", "sym", "--rate", "0.3", "--seed", "0",
         "--out", str(ds), "--corruption-out", str(tmp_path / "corruption.txt")]
    )
    assert code == 0
    bank = tmp_path / "bank.txt"
    save_embedding_bank(bank, ClassEmbeddingBank(blob_means(3, 4, 2.5, seed=0), "means"))
    return tmp_path, ds, bank


class TestStageChain:
    def test_full_chain(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        mask = tmp_path / "mask.txt"
        tm = tmp_path / "tm.txt"
        prior = tmp_path / "prior.txt"
        clf = tmp_path / "clf.txt"

        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--temperature", "0.25", "--out", str(scores)]) == 0
        assert run(["select", "--dataset", str(ds), "--scores", str(scores),
                    "--criterion", "confidence", "--rho", "0.5",
                    "--out", str(mask)]) == 0
        assert run(["priors", "--dataset", str(ds), "--scores", str(scores),
                    "--mask", str(mask), "--tm-out", str(tm),
                    "--prior-out", str(prior)]) == 0
        assert run(["train", "--dataset", str(ds), "--mask", str(mask),
                    "--tm", str(tm), "--prior", str(prior), "--epochs", "3",
                    "--batch-size", "16", "--out", str(clf)]) == 0
        assert run(["report", "--classifier", str(clf), "--dataset", str(ds),
                    "--format", "records", "--top-k", "2"]) == 0

        out = capsys.readouterr().out
        line = out.strip().splitlines()[-1]
        fields = dict(tok.split("=", 1) for tok in line.split())
        assert fields["samples"] == "90"
        assert 0.0 <= float(fields["accuracy"]) <= 1.0
        assert float(fields["top2_accuracy"]) >= float(fields["accuracy"])
        assert load_classifier(clf).weights.shape == (3, 4)

    def test_select_matches_in_process_api(self, pipeline_files):
        tmp_path, ds, bank = pipeline_files
        scores_path = tmp_path / "scores.txt"
        mask_path = tmp_path / "mask.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--temperature", "0.25", "--out", str(scores_path)]) == 0
        assert run(["select", "--dataset", str(ds), "--scores", str(scores_path),
                    "--criterion", "confidence", "--rho", "0.4",
                    "--out", str(mask_path)]) == 0
        dataset = load_dataset(ds)
        scores = load_score_matrix(scores_path, dataset)
        expected = select_by_confidence(dataset, scores, 0.4)
        loaded = load_mask(mask_path)
        np.testing.assert_array_equal(loaded.verdicts, expected.verdicts)
        np.testing.assert_array_equal(loaded.scores, expected.scores)

    def test_prompt_consistency_requires_second_file(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(scores)]) == 0
        # The usage is rejected before any file is read.
        for dataset in (ds, tmp_path / "nope.txt"):
            code = run(["select", "--dataset", str(dataset), "--scores", str(scores),
                        "--criterion", "prompt-consistency",
                        "--out", str(tmp_path / "mask.txt")])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: [select] prompt-consistency requires --scores-b\n"
            )

    def test_embeddings_require_bank(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(scores)]) == 0
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not an embedding table\n", encoding="utf-8")
        code = run(["score", "--dataset", str(ds), "--scores-file", str(scores),
                    "--embeddings", str(garbage), "--out", str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: [score] --embeddings requires --bank\n"
        assert not (tmp_path / "out.txt").exists()

    def test_temperature_requires_bank(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(scores)]) == 0
        code = run(["score", "--dataset", str(ds), "--scores-file", str(scores),
                    "--temperature", "0.25", "--out", str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: [score] --temperature requires --bank\n"
        assert not (tmp_path / "out.txt").exists()

    def test_bank_scoring_defaults_to_the_scorer_temperature(self, pipeline_files):
        tmp_path, ds, bank = pipeline_files
        implicit, explicit = tmp_path / "implicit.txt", tmp_path / "explicit.txt"
        flags = ["score", "--dataset", str(ds), "--bank", str(bank)]
        assert run([*flags, "--out", str(implicit)]) == 0
        assert run([*flags, "--temperature", repr(ScorerConfig().temperature),
                    "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_scores_file_passes_through_bit_for_bit(self, pipeline_files):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        copy = tmp_path / "copy.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(scores)]) == 0
        assert run(["score", "--dataset", str(ds), "--scores-file", str(scores),
                    "--out", str(copy)]) == 0
        assert copy.read_bytes() == scores.read_bytes()

    def test_histogram_report(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--temperature", "0.25", "--out", str(scores)]) == 0
        assert run(["report", "--scores", str(scores), "--dataset", str(ds),
                    "--format", "records"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        counts = [int(dict(t.split("=", 1) for t in ln.split())["count"]) for ln in lines]
        assert sum(counts) == 90

    def test_embeddings_score_the_same_through_cli_and_run(self, pipeline_files):
        tmp_path, ds, bank = pipeline_files
        table = tmp_path / "emb.txt"
        rng = np.random.default_rng(4)
        save_embedding_bank(table, ClassEmbeddingBank(rng.standard_normal((90, 4)), "img"))
        scores = tmp_path / "scores.txt"
        plain = tmp_path / "plain.txt"
        flags = ["--dataset", str(ds), "--bank", str(bank), "--temperature", "0.25"]
        assert run(["score", *flags, "--embeddings", str(table), "--out", str(scores)]) == 0
        assert run(["score", *flags, "--out", str(plain)]) == 0
        cfg = tmp_path / "emb.cfg"
        cfg.write_text(
            f"dataset.source = file\ndataset.path = {ds}\n"
            f"scorer.source = cosine\nscorer.bank = {bank}\nscorer.embeddings = {table}\n"
            f"scorer.temperature = 0.25\ntrain.epochs = 1\noutput.dir = {tmp_path / 'run'}\n",
            encoding="utf-8",
        )
        assert run(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "scores.txt").read_bytes() == scores.read_bytes()
        assert scores.read_bytes() != plain.read_bytes()

    def test_uniform_row_fallback_is_a_warning(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        # Relabel class 2 as 0: class 2 then has no samples, so none are
        # selected and its transition row falls back to uniform.
        full = load_dataset(ds)
        labels = np.where(full.noisy_labels == 2, 0, full.noisy_labels)
        gap = tmp_path / "gap.txt"
        save_dataset(gap, Dataset(full.num_classes, full.ids, full.features, labels))
        scores = tmp_path / "scores.txt"
        mask = tmp_path / "mask.txt"
        tm = tmp_path / "tm.txt"
        assert run(["score", "--dataset", str(gap), "--bank", str(bank),
                    "--temperature", "0.25", "--out", str(scores)]) == 0
        assert run(["select", "--dataset", str(gap), "--scores", str(scores),
                    "--criterion", "confidence", "--rho", "0.4", "--out", str(mask)]) == 0
        capsys.readouterr()
        expected = "warning: [priors] class 2 has no samples; transition row set to uniform\n"

        assert run(["priors", "--dataset", str(gap), "--scores", str(scores),
                    "--mask", str(mask), "--tm-out", str(tm),
                    "--prior-out", str(tmp_path / "prior.txt")]) == 0
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""
        np.testing.assert_array_equal(load_transition_matrix(tm).values[2], np.full(3, 1 / 3))

        cfg = tmp_path / "gap.cfg"
        cfg.write_text(
            f"dataset.source = file\ndataset.path = {gap}\nscorer.source = cosine\n"
            f"scorer.bank = {bank}\nscorer.temperature = 0.25\nselection.rho = 0.4\n"
            f"train.epochs = 1\noutput.dir = {tmp_path / 'run'}\n",
            encoding="utf-8",
        )
        assert run(["run", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == f"{tmp_path / 'run'}\n"
        uniform = load_transition_matrix(tmp_path / "run" / "transition.txt").values[2]
        np.testing.assert_array_equal(uniform, np.full(3, 1 / 3))

    def test_report_without_inputs_is_an_error(self, capsys):
        assert run(["report"]) == 1
        assert "error: [report]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "criterion,flags,message",
        [
            ("confidence", ["--mu", "0.2"], "--mu requires --criterion prompt-consistency"),
            ("confidence", ["--scores-b", "b.txt"],
             "--scores-b requires --criterion prompt-consistency"),
            ("prompt-consistency", ["--scores-b", "b.txt", "--rho", "0.5"],
             "--rho requires --criterion confidence"),
        ],
    )
    def test_select_rejects_the_other_criterions_flags(
        self, tmp_path, capsys, criterion, flags, message
    ):
        # The usage is rejected before any file is read.
        code = run(["select", "--dataset", str(tmp_path / "nope.txt"), "--scores", "a.txt",
                    "--criterion", criterion, *flags, "--out", str(tmp_path / "mask.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: [select] {message}\n"
        assert not (tmp_path / "mask.txt").exists()

    def test_report_takes_one_of_classifier_and_scores(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        with pytest.raises(SystemExit) as info:
            run(["report", "--classifier", "clf.txt", "--scores", "scores.txt",
                 "--dataset", str(ds)])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_report_top_k_requires_classifier(self, pipeline_files, capsys):
        tmp_path, ds, bank = pipeline_files
        scores = tmp_path / "scores.txt"
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(scores)]) == 0
        code = run(["report", "--scores", str(scores), "--dataset", str(ds), "--top-k", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: [report] --top-k requires --classifier\n"
        assert captured.out == ""

    def test_train_flags_set_their_config_fields(self, pipeline_files):
        tmp_path, ds, bank = pipeline_files
        p = {name: tmp_path / f"{name}.txt" for name in ("scores", "mask", "tm", "prior", "clf")}
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", str(p["scores"])]) == 0
        assert run(["select", "--dataset", str(ds), "--scores", str(p["scores"]),
                    "--criterion", "confidence", "--out", str(p["mask"])]) == 0
        assert run(["priors", "--dataset", str(ds), "--scores", str(p["scores"]),
                    "--mask", str(p["mask"]), "--tm-out", str(p["tm"]),
                    "--prior-out", str(p["prior"])]) == 0
        assert run(["train", "--dataset", str(ds), "--mask", str(p["mask"]), "--tm", str(p["tm"]),
                    "--prior", str(p["prior"]), "--delta", "0.7", "--t", "0.5", "--s", "0.8",
                    "--gamma", "1.5", "--epochs", "3", "--batch-size", "16", "--lr", "0.05",
                    "--wd", "0.01", "--momentum", "0.5", "--seed", "9", "--no-shuffle",
                    "--out", str(p["clf"])]) == 0
        dataset = load_dataset(ds)
        subset = apply_mask(dataset, load_mask(p["mask"]))
        margin = MarginConfig(delta=0.7, t=0.5, s=0.8, gamma=1.5)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, weight_decay=0.01,
                          momentum=0.5, seed=9, shuffle=False)
        report = train(subset, load_transition_matrix(p["tm"]), load_class_prior(p["prior"]),
                       margin, cfg)
        expected = tmp_path / "expected.txt"
        save_classifier(expected, report.classifier)
        assert p["clf"].read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("criterion", ["confidence", "prompt_consistency"])
@pytest.mark.parametrize("seed", [0, 11])
def test_stage_chain_reproduces_run_bit_for_bit(tmp_path, seed, criterion):
    """`noiselens run` and the per-stage commands, given the same inputs and
    seeds, write byte-identical artifacts."""
    classes, dim = 4, 8
    ds = tmp_path / "dataset.txt"
    assert run(["synth", "--classes", str(classes), "--per-class", "50", "--dim", str(dim),
                "--sep", "2.0", "--noise", "sym", "--rate", "0.3", "--seed", str(seed),
                "--out", str(ds)]) == 0
    means = blob_means(classes, dim, 2.0, seed=seed)
    shifted = means + np.random.default_rng(seed).standard_normal(means.shape)
    save_embedding_bank(tmp_path / "bank.txt", ClassEmbeddingBank(means, "a"))
    save_embedding_bank(tmp_path / "bank_b.txt", ClassEmbeddingBank(shifted, "b"))

    def f(name):
        return str(tmp_path / name)

    scored = ["--dataset", f("dataset.txt"), "--temperature", "0.1"]
    assert run(["score", *scored, "--bank", f("bank.txt"), "--out", f("scores.txt")]) == 0
    names = ["scores.txt", "mask.txt", "transition.txt", "prior.txt", "classifier.txt"]
    if criterion == "confidence":
        select = ["--criterion", "confidence", "--rho", "0.5"]
        config = "selection.rho = 0.5\n"
    else:
        assert run(["score", *scored, "--bank", f("bank_b.txt"), "--out", f("scores_b.txt")]) == 0
        select = ["--criterion", "prompt-consistency", "--scores-b", f("scores_b.txt"),
                  "--mu", "0.1"]
        config = (f"selection.criterion = prompt_consistency\nselection.mu = 0.1\n"
                  f"scorer.bank_b = {f('bank_b.txt')}\n")
        names.append("scores_b.txt")
    assert run(["select", "--dataset", f("dataset.txt"), "--scores", f("scores.txt"),
                *select, "--out", f("mask.txt")]) == 0
    assert run(["priors", "--dataset", f("dataset.txt"), "--scores", f("scores.txt"),
                "--mask", f("mask.txt"), "--tm-out", f("transition.txt"),
                "--prior-out", f("prior.txt")]) == 0
    assert run(["train", "--dataset", f("dataset.txt"), "--mask", f("mask.txt"),
                "--tm", f("transition.txt"), "--prior", f("prior.txt"), "--epochs", "3",
                "--batch-size", "16", "--seed", str(seed), "--out", f("classifier.txt")]) == 0

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset.source = file\ndataset.path = {ds}\nscorer.source = cosine\n"
        f"scorer.bank = {f('bank.txt')}\nscorer.temperature = 0.1\n{config}"
        f"train.epochs = 3\ntrain.batch_size = 16\ntrain.seed = {seed}\n"
        f"output.dir = {f('run')}\n",
        encoding="utf-8",
    )
    assert run(["run", "--config", str(cfg)]) == 0
    for name in names:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestRunSubcommand:
    CONFIG = """
dataset.source = synth
dataset.classes = 2
dataset.per_class = 25
dataset.dim = 4
dataset.separation = 3.0
dataset.noise = symmetric
dataset.noise_rate = 0.2
scorer.source = oracle
scorer.correct_prob = 0.9
selection.rho = 0.5
train.epochs = 2
train.batch_size = 16
test.source = synth
test.per_class = 20
output.dir = {out}
"""

    def write(self, tmp_path, out_name):
        cfg = tmp_path / f"{out_name}.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / out_name), encoding="utf-8")
        return cfg

    def test_run_prints_output_dir(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "runA")
        assert run(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == str(tmp_path / "runA")
        for name in ("dataset.txt", "scores.txt", "mask.txt", "transition.txt",
                     "prior.txt", "classifier.txt", "report.txt", "manifest.txt"):
            assert (tmp_path / "runA" / name).exists(), name

    def test_two_runs_share_artifacts_hash(self, tmp_path):
        cfg_a = self.write(tmp_path, "runA")
        cfg_b = self.write(tmp_path, "runB")
        assert run(["run", "--config", str(cfg_a)]) == 0
        assert run(["run", "--config", str(cfg_b)]) == 0

        def artifacts_hash(name):
            text = (tmp_path / name / "manifest.txt").read_text()
            return [ln for ln in text.splitlines() if ln.startswith("artifacts_hash=")][0]

        assert artifacts_hash("runA") == artifacts_hash("runB")

    def test_invalid_config_fails_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "never"
        valid = self.CONFIG.format(out=out)
        cfg = tmp_path / "bad.cfg"
        for text, reason in (
            (
                "dataset.source = synth\nscorer.source = oracle\n"
                f"selection.criterion = prompt_consistency\noutput.dir = {out}\n",
                "second score source",
            ),
            (valid + "report.top_k = two\n", "report.top_k"),
            (valid.replace("selection.rho = 0.5", "selection.rho = half"), "selection.rho"),
            (valid.replace("dataset.noise = symmetric", "dataset.noise = bogus"), "bogus"),
            (valid + "dataset.budget_bounds = a,b\n", "budget_bounds"),
            (valid + "report.top_k = 5\n", "report.top_k: 5 exceeds the 2 dataset classes"),
            (valid + "report.top_k = -1\n", "report.top_k: -1 is negative"),
            (valid.replace("dataset.classes = 2", "dataset.classes = 1"), "at least 2 classes"),
            (valid.replace("test.per_class = 20", "test.per_class = 0"), "1 sample per class"),
            (
                valid.replace("noise = symmetric", "noise = asymmetric\ndataset.pair_map = 0:5"),
                "pair_map entry 0->5 is out of range for 2 classes",
            ),
            (valid.replace("rho = 0.5", "rho = 1.5"), "rho 1.5 must lie in (0, 1)"),
            (valid.replace("correct_prob = 0.9", "correct_prob = 2"), "correct_prob 2.0 must lie"),
        ):
            cfg.write_text(text, encoding="utf-8")
            assert run(["run", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: [run]") and reason in err, err
            assert not out.exists()

    def test_failed_stage_reported_in_envelope(self, tmp_path, capsys):
        out = tmp_path / "failing"
        cfg = tmp_path / "failing.cfg"
        cfg.write_text(
            "dataset.source = synth\ndataset.classes = 2\ndataset.per_class = 10\n"
            "dataset.dim = 3\nscorer.source = oracle\nscorer.correct_prob = 0.8\n"
            "selection.rho = 0.9\n"  # nothing clears 0.9 when oracle gives 0.8
            f"output.dir = {out}\n",
            encoding="utf-8",
        )
        assert run(["run", "--config", str(cfg)]) == 1
        assert "error: [select]" in capsys.readouterr().err
        assert (out / "manifest.txt").exists()
