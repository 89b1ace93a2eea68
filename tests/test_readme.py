"""The README's quick-start Python block and command-line block run as
written."""

import re
import shlex
from pathlib import Path

from noiselens.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_quick_start_block_runs(tmp_path, monkeypatch, capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "__readme__"})
    # It prints the test accuracy of a 4-class head: above chance.
    assert 0.25 < float(capsys.readouterr().out) <= 1.0


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _blocks("sh") if "noiselens synth" in b]
    snippet = re.search(r'^python3 -c "\n(.*?)^"$', block, re.S | re.M)
    commands = [
        shlex.split(line)
        for line in block[snippet.end():].replace("\\\n", " ").splitlines()
        if line.strip()
    ]
    assert [argv[0] for argv in commands] == ["noiselens"] * 6
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet.group(1), str(README), "exec"), {"__name__": "__readme__"})
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    # The report line is the last command's output: a 3-class head, above chance.
    record = dict(token.split("=", 1) for token in capsys.readouterr().out.split())
    assert 1 / 3 < float(record["accuracy"]) <= 1.0
