"""The README's examples run as written: the Library block, and each
command of the CLI block in order, from an empty directory."""
import re
import shlex
from pathlib import Path

import pytest

from hypercontainers.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert "cond_iv = true" in capsys.readouterr().out


def test_cli_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _block("CLI", "sh").splitlines()]
    assert commands and all(argv[0] == "hypercontainers" for argv in commands)
    for argv in commands:
        assert cli_main(argv[1:]) == 0, argv
        capsys.readouterr()
