"""README's "CLI examples" block runs as documented: every `sabrkit ...`
line exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from sabrkit.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI examples\n\n```bash\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no CLI examples block"
    return [line for line in block.group(1).splitlines() if line.startswith("sabrkit ")]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 5


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_exits_ok(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == EXIT_OK, capsys.readouterr().err
