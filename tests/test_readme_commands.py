"""README.md's fenced code blocks: every `masim` command parses, and every Python block runs.

A flag removed from the CLI but left in the walkthrough fails here. The
commands are only parsed, never run; each Python block runs in a fresh
working directory.
"""

import re
import shlex
from pathlib import Path

import pytest

from masim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced code block."""
    return re.findall(r"^```([^\n]*)\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def readme_commands() -> list[str]:
    return [line.strip() for _, block in readme_blocks() for line in block.splitlines()
            if line.strip().startswith("masim ")]


def readme_python() -> list[str]:
    return [block for info, block in readme_blocks() if info.strip() == "python"]


def test_readme_has_commands():
    assert len(readme_commands()) >= 7
    assert len(readme_python()) >= 2


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command)[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        pytest.fail(f"{command!r} does not parse (exit {e.code})")
    assert args.command == argv[0]


@pytest.mark.parametrize("source", readme_python(), ids=lambda source: source.splitlines()[0])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__main__"})
