"""README.md's fenced code blocks: every `masim` command parses, every Python block runs, and the walkthrough runs.

A flag removed from the CLI but left in the walkthrough fails here, and so
does a `#   wrote ...` line that no longer matches what its command prints.
Each Python block runs in a fresh working directory; so does the
walkthrough, setup_demo.py first and then every `masim` line of its sh block.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from masim.cli import build_parser, main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced code block."""
    return re.findall(r"^```([^\n]*)\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def readme_commands() -> list[str]:
    return [line.strip() for _, block in readme_blocks() for line in block.splitlines()
            if line.strip().startswith("masim ")]


def readme_python() -> list[str]:
    return [block for info, block in readme_blocks() if info.strip() == "python"]


def readme_walkthrough() -> tuple[str, list[tuple[str, str | None]]]:
    """setup_demo.py's source, and each `masim` line of the sh block that runs it with the `#   wrote` line under it.

    The expected line drops a trailing size note such as `(~40 MB)`; a
    command with no `#   wrote` line under it pairs with None.
    """
    blocks = readme_blocks()
    setup = next(body for info, body in blocks if info.strip() == "python" and body.startswith("# setup_demo.py"))
    session = next(body for info, body in blocks if info.strip() == "sh" and "python setup_demo.py" in body)
    lines = [line.strip() for line in session.splitlines()]
    steps = []
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("masim "):
            wrote = re.fullmatch(r"#\s+(wrote .*?)(?:\s+\(~[^)]*\))?", below)
            steps.append((line, wrote and wrote.group(1)))
    return setup, steps


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


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    setup, steps = readme_walkthrough()
    assert len(steps) >= 7 and sum(wrote is not None for _, wrote in steps) >= 5
    monkeypatch.chdir(tmp_path)
    exec(compile(setup, "setup_demo.py", "exec"), {"__name__": "__main__"})
    try:
        for command, wrote in steps:
            assert cli_main(shlex.split(command)[1:]) == 0, command
            out = capsys.readouterr().out
            if wrote is not None:
                assert out.splitlines() == [wrote], command
    finally:
        for campaign in ("campaign", "tone_campaign"):  # about 200 MB of records
            shutil.rmtree(tmp_path / campaign, ignore_errors=True)
