"""Every `masim` command in README.md's fenced code blocks parses with the CLI's own parser.

A flag removed from the CLI but left in the walkthrough fails here. The
commands are only parsed, never run.
"""

import re
import shlex
from pathlib import Path

import pytest

from masim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines() if line.strip().startswith("masim ")]


def test_readme_has_commands():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command)[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        pytest.fail(f"{command!r} does not parse (exit {e.code})")
    assert args.command == argv[0]
