"""End-to-end tests of the command-line interface, run in-process; the
import check alone starts a fresh interpreter."""

import os
import subprocess
import sys

import numpy as np
import pytest

import noiselens
from noiselens.cli import main
from noiselens.codec import MAX_COUNT
from noiselens.data import Dataset, load_dataset, load_score_matrix, save_dataset, save_score_matrix
from noiselens.errors import NoiseLensError
from noiselens.experiment import config_from_text
from noiselens.noise import blob_means, oracle_scores
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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--noise", "idn", "--pair-map", "nonsense"], "--pair-map requires --noise asym"),
            (["--noise", "sym", "--pair-map", "cycle"], "--pair-map requires --noise asym"),
            (["--noise", "sym", "--budget-bounds", "0.1,0.2"],
             "--budget-bounds requires --noise idn"),
            (["--noise", "asym", "--pair-map", "cycle", "--budget-sd", "0.2"],
             "--budget-sd requires --noise idn"),
            (["--budget-sd", "0.2"], "--budget-sd requires --noise idn"),
            (["--noise", "none", "--rate", "0.9"], "--rate requires --noise"),
            (["--noise", "none", "--noise-seed", "5"], "--noise-seed requires --noise"),
            (["--noise", "none", "--noise-seed", "5", "--pair-map", "cycle"],
             "--noise-seed requires --noise"),
        ],
    )
    def test_synth_rejects_flags_the_noise_model_never_reads(
        self, tmp_path, capsys, flags, message
    ):
        code = run(["synth", "--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0",
                    *flags, "--out", str(tmp_path / "ds.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: [synth] {message}\n"
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
            ("confidence", ["--scores-b", "b.txt", "--mu", "0.2"],
             "--mu requires --criterion prompt-consistency"),
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

    @pytest.mark.parametrize(
        "stage,flags,message",
        [
            ("synth", ["--seed", "-1"], "seed -1 must lie in [0, inf)"),
            ("score", ["--temperature", "inf"], "temperature inf must lie in (0, inf)"),
            ("train", ["--seed", "-1"], "seed -1 must lie in [0, inf)"),
            ("train", ["--gamma", "nan"], "gamma nan must lie in [0, inf)"),
            (
                "synth",
                ["--classes", "100000000000000000000"],
                "100000000000000000000 classes x 5 samples x 2 dimensions "
                f"exceed {MAX_COUNT} feature values",
            ),
        ],
    )
    def test_out_of_range_flag_is_one_error_line(
        self, pipeline_files, capsys, stage, flags, message
    ):
        tmp_path, ds, bank = pipeline_files
        p = {name: str(tmp_path / f"{name}.txt") for name in ("scores", "mask", "tm", "prior")}
        assert run(["score", "--dataset", str(ds), "--bank", str(bank),
                    "--out", p["scores"]]) == 0
        assert run(["select", "--dataset", str(ds), "--scores", p["scores"],
                    "--criterion", "confidence", "--out", p["mask"]]) == 0
        assert run(["priors", "--dataset", str(ds), "--scores", p["scores"], "--mask", p["mask"],
                    "--tm-out", p["tm"], "--prior-out", p["prior"]]) == 0
        inputs = {
            "synth": ["--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0"],
            "score": ["--dataset", str(ds), "--bank", str(bank)],
            "train": ["--dataset", str(ds), "--mask", p["mask"], "--tm", p["tm"],
                      "--prior", p["prior"]],
        }
        capsys.readouterr()
        out = tmp_path / "out.txt"
        assert run([stage, *inputs[stage], *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [{stage}] {message}\n"
        assert not out.exists()

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


@pytest.mark.parametrize(
    "flags,config",
    [
        (["--noise", "sym"], "dataset.noise = symmetric\n"),
        (["--noise", "asym", "--pair-map", "cycle"],
         "dataset.noise = asymmetric\ndataset.pair_map = cycle\n"),
        (["--noise", "idn"], "dataset.noise = instance_dependent\n"),
    ],
)
def test_synth_writes_what_run_synthesises(tmp_path, flags, config):
    """`noiselens synth` and `run` with `dataset.source = synth`, at the same
    sizes, seed and rate, write byte-identical dataset and corruption files."""
    assert run(["synth", "--classes", "4", "--per-class", "20", "--dim", "3", "--sep", "2.5",
                *flags, "--rate", "0.3", "--seed", "7", "--out", str(tmp_path / "dataset.txt"),
                "--corruption-out", str(tmp_path / "corruption.txt")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dataset.source = synth\ndataset.classes = 4\ndataset.per_class = 20\n"
        f"dataset.dim = 3\ndataset.separation = 2.5\ndataset.seed = 7\n{config}"
        "dataset.noise_rate = 0.3\nscorer.source = oracle\nscorer.correct_prob = 0.8\n"
        f"output.dir = {tmp_path / 'run'}\n",
        encoding="utf-8",
    )
    assert run(["run", "--config", str(cfg)]) == 0
    for name in ("dataset.txt", "corruption.txt"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def _config_error(text):
    """The message `config_from_text` raises for ``text``, or None."""
    try:
        config_from_text(text)
    except NoiseLensError as exc:
        return str(exc)
    return None


# knob -> (synth flag, run key, a value the knob's models accept)
NOISE_KNOBS = {
    "rate": ("--rate", "dataset.noise_rate", "0.3"),
    "seed": ("--noise-seed", "dataset.noise_seed", "5"),
    "pair_map": ("--pair-map", "dataset.pair_map", "cycle"),
    "budget_sd": ("--budget-sd", "dataset.budget_sd", "0.2"),
    "budget_bounds": ("--budget-bounds", "dataset.budget_bounds", "0.1,0.6"),
}


@pytest.mark.parametrize("knob", [None, *NOISE_KNOBS])
@pytest.mark.parametrize(
    "choice,model",
    [("none", "none"), ("sym", "symmetric"), ("asym", "asymmetric"), ("idn", "instance_dependent")],
)
def test_synth_and_run_agree_on_which_noise_knobs_a_model_reads(
    tmp_path, capsys, choice, model, knob
):
    """`synth` rejects a noise knob exactly when `run` does, both name it,
    and neither writes anything; an explicit `none` with no knob is valid."""
    flags, lines = ["--noise", choice], [f"dataset.noise = {model}"]
    if model == "asymmetric" and knob != "pair_map":  # the one knob it requires
        flags += ["--pair-map", "cycle"]
        lines.append("dataset.pair_map = cycle")
    if knob is not None:
        flag, key, value = NOISE_KNOBS[knob]
        flags += [flag, value]
        lines.append(f"{key} = {value}")
    code = run(["synth", "--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0",
                *flags, "--out", str(tmp_path / "ds.txt")])
    err = capsys.readouterr().err
    message = _config_error(
        "\n".join(["dataset.source = synth", "dataset.classes = 3", "scorer.source = oracle",
                   f"output.dir = {tmp_path / 'run'}", *lines])
    )
    assert (code == 1) == (message is not None), (err, message)
    if code == 1:
        assert knob is not None
        assert err.startswith(f"error: [synth] {flag} requires") and key in message, (err, message)
        assert not (tmp_path / "ds.txt").exists()
    assert not (tmp_path / "run").exists()


# setting -> (select flag, run key); both second score sources map to --scores-b.
SELECT_SETTINGS = {
    "rho": ("--rho", "selection.rho"),
    "mu": ("--mu", "selection.mu"),
    "path_b": ("--scores-b", "scorer.path_b"),
    "bank_b": ("--scores-b", "scorer.bank_b"),
}


@pytest.mark.parametrize("setting", [None, *SELECT_SETTINGS])
@pytest.mark.parametrize("criterion", ["confidence", "prompt-consistency"])
def test_select_and_run_agree_on_which_settings_a_criterion_reads(
    tmp_path, capsys, criterion, setting
):
    """`select` rejects a threshold or second score source exactly when
    `run` does, both name it, and neither writes anything."""
    ds, scores = tmp_path / "ds.txt", tmp_path / "scores.txt"
    assert run(["synth", "--classes", "3", "--per-class", "5", "--dim", "2", "--sep", "2.0",
                "--noise", "sym", "--out", str(ds)]) == 0
    save_score_matrix(scores, oracle_scores(load_dataset(ds), 0.9))
    values = {"rho": "0.4", "mu": "0.2", "path_b": str(scores), "bank_b": "bank_b.txt"}
    flags = ["--criterion", criterion]
    lines = [f"selection.criterion = {criterion}"]
    if criterion == "prompt-consistency" and setting not in ("path_b", "bank_b"):
        flags += ["--scores-b", str(scores)]
        lines.append(f"scorer.path_b = {scores}")
    if setting is not None:
        flag, key = SELECT_SETTINGS[setting]
        flags += [flag, str(scores) if flag == "--scores-b" else values[setting]]
        lines.append(f"{key} = {values[setting]}")
    code = run(["select", "--dataset", str(ds), "--scores", str(scores), *flags,
                "--out", str(tmp_path / "mask.txt")])
    err = capsys.readouterr().err
    message = _config_error(
        "\n".join([f"dataset.source = file\ndataset.path = {ds}", "scorer.source = file",
                   f"scorer.path = {scores}", f"output.dir = {tmp_path / 'run'}", *lines])
    )
    assert (code == 1) == (message is not None), (err, message)
    if code == 1:
        assert setting is not None
        assert err.startswith(f"error: [select] {flag} requires") and key in message, (err, message)
        assert not (tmp_path / "mask.txt").exists()
    assert not (tmp_path / "run").exists()


# setting -> (score flag, run key)
SCORER_SETTINGS = {
    "temperature": ("--temperature", "scorer.temperature"),
    "embeddings": ("--embeddings", "scorer.embeddings"),
}


@pytest.mark.parametrize("setting", [None, *SCORER_SETTINGS])
@pytest.mark.parametrize("source", ["cosine", "file"])
def test_score_and_run_agree_on_which_scorer_settings_a_source_reads(
    pipeline_files, capsys, source, setting
):
    """`score` rejects a scorer setting exactly when `run` does, both name
    it, and neither writes anything."""
    tmp_path, ds, bank = pipeline_files
    scores, table = tmp_path / "scores.txt", tmp_path / "emb.txt"
    assert run(["score", "--dataset", str(ds), "--bank", str(bank), "--out", str(scores)]) == 0
    # A bank with one row per sample id reads as an embedding table.
    rng = np.random.default_rng(4)
    save_embedding_bank(table, ClassEmbeddingBank(rng.standard_normal((90, 4)), "img"))
    values = {"temperature": "0.25", "embeddings": str(table)}
    flag, key, path = {
        "cosine": ("--bank", "scorer.bank", bank), "file": ("--scores-file", "scorer.path", scores)
    }[source]
    flags, lines = [flag, str(path)], [f"scorer.source = {source}", f"{key} = {path}"]
    if setting is not None:
        flag, key = SCORER_SETTINGS[setting]
        flags += [flag, values[setting]]
        lines.append(f"{key} = {values[setting]}")
    out = tmp_path / "out.txt"
    code = run(["score", "--dataset", str(ds), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    message = _config_error(
        "\n".join([f"dataset.source = file\ndataset.path = {ds}",
                   f"output.dir = {tmp_path / 'run'}", *lines])
    )
    assert (code == 1) == (message is not None), (err, message)
    if code == 1:
        assert setting is not None
        assert err.startswith(f"error: [score] {flag} requires") and key in message, (err, message)
        assert not out.exists()
    assert not (tmp_path / "run").exists()


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
        on_file = (
            "dataset.source = file\ndataset.path = ds.txt\nscorer.source = oracle\n"
            f"output.dir = {out}\n"
        )
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
            (valid.replace("rho = 0.5", "rho = 1.5"), "selection.rho 1.5 must lie in (0, 1)"),
            (
                valid.replace("correct_prob = 0.9", "correct_prob = 2"),
                "scorer.correct_prob 2.0 must lie",
            ),
            (valid + "train.seed = -1\n", "train.seed -1 must lie in [0, inf)"),
            (valid + "dataset.seed = -1\n", "dataset.seed -1 must lie in [0, inf)"),
            (valid + "dataset.noise_seed = -1\n", "dataset.noise_seed -1 must lie in [0, inf)"),
            (valid + "test.seed = -1\n", "test.seed -1 must lie in [0, inf)"),
            (on_file + "dataset.seed = -1\n", "dataset.seed -1 must lie in [0, inf)"),
            (on_file + "dataset.noise_seed = -1\n", "dataset.noise_seed -1 must lie in [0, inf)"),
            (on_file + "test.seed = -7\n", "test.seed -7 must lie in [0, inf)"),
            (
                valid + "dataset.pair_map = nonsense\n",
                "dataset.pair_map requires dataset.noise=asymmetric",
            ),
            (
                valid + "selection.mu = banana\n",
                "selection.mu requires selection.criterion=prompt_consistency",
            ),
            (
                valid.replace("selection.rho = 0.5", "selection.criterion = prompt_consistency")
                + "scorer.bank_b = b.txt\nscorer.path_b = s.txt\n",
                "scorer.bank_b and scorer.path_b exclude each other",
            ),
            (
                valid.replace("noise = symmetric", "noise = instance_dependent")
                + "dataset.budget_bounds = a,b\n",
                "budget_bounds 'a,b' must be two numbers 'low,high'",
            ),
            (
                valid.replace("noise_rate = 0.2", "noise_rate = nan"),
                "dataset.noise_rate nan must lie in [0, 1)",
            ),
            (valid + "margin.delta = nan\n", "margin.delta nan must lie in [0, inf)"),
            (valid + "margin.s = inf\n", "margin.s inf must lie in (0, inf)"),
            (valid + "train.learning_rate = inf\n", "train.learning_rate inf must lie in [0, inf)"),
            (
                valid.replace("separation = 3.0", "separation = nan"),
                "dataset.separation nan must lie",
            ),
            (
                valid.replace("noise = symmetric", "noise = instance_dependent")
                + "dataset.budget_sd = nan\n",
                "dataset.budget_sd nan must lie in [0, inf)",
            ),
            (
                valid.replace("dataset.classes = 2", "dataset.classes = 100000000000000000000"),
                f"exceed {MAX_COUNT} feature values",
            ),
            # A scorer key that no chosen score source reads.
            (
                valid + "scorer.temperature = 7\n",
                "scorer.temperature requires scorer.source=cosine or scorer.bank_b",
            ),
            (
                valid + "scorer.embeddings = e.txt\n",
                "scorer.embeddings requires scorer.source=cosine or scorer.bank_b",
            ),
            (valid + "scorer.bank = b.txt\n", "scorer.bank requires scorer.source=cosine"),
            (valid + "scorer.path = s.txt\n", "scorer.path requires scorer.source=file"),
            (
                valid.replace("scorer.source = oracle", "scorer.source = cosine\nscorer.bank = b.txt"),
                "scorer.correct_prob requires scorer.source=oracle",
            ),
            # Two unread scorer keys: the first declared is named.
            (
                valid + "scorer.temperature = 7\nscorer.bank = b.txt\n",
                "scorer.bank requires scorer.source=cosine",
            ),
            # A dataset, test or report key that the chosen source never reads.
            (valid + "dataset.path = ds.txt\n", "dataset.path requires dataset.source=file"),
            (valid + "test.path = t.txt\n", "test.path requires test.source=file"),
            (on_file + "test.path = t.txt\n", "test.path requires test.source=file"),
            (on_file + "test.per_class = 3\n", "test.per_class requires test.source=synth"),
            (
                on_file + "report.top_k = 2\n",
                "report.top_k requires test.source=file or test.source=synth",
            ),
            # Checked after every other rule.
            (on_file + "test.path = t.txt\ntest.seed = -7\n", "test.seed -7 must lie in [0, inf)"),
        ):
            cfg.write_text(text, encoding="utf-8")
            assert run(["run", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: [run]") and reason in err, err
            assert len(err.splitlines()) == 1, err
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

    def test_out_of_memory_is_a_stage_error(self, tmp_path, capsys, monkeypatch):
        # Synth sizes under codec.MAX_COUNT can still be too large to
        # allocate; the stand-in raises as numpy does, allocating nothing.
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

        def make_blobs(*args):
            raise MemoryError(message)

        monkeypatch.setattr("noiselens.cli.make_blobs", make_blobs)
        monkeypatch.setattr("noiselens.experiment.make_blobs", make_blobs)
        out = tmp_path / "oom"
        cfg = tmp_path / "oom.cfg"
        cfg.write_text(
            "dataset.source = synth\ndataset.classes = 2\ndataset.per_class = 10\n"
            "dataset.dim = 3\nscorer.source = oracle\nscorer.correct_prob = 0.8\n"
            f"output.dir = {out}\n",
            encoding="utf-8",
        )
        assert run(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: [dataset] {message}\n"
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert manifest.endswith(f"status=failed\nstage=dataset\nerror={message}\n")
        ds = tmp_path / "ds.txt"
        argv = ["synth", "--classes", "2", "--per-class", "5", "--dim", "2", "--sep", "2"]
        assert run([*argv, "--out", str(ds)]) == 1
        assert capsys.readouterr().err == f"error: [synth] {message}\n"
        assert not ds.exists()
