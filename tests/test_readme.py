"""The README's examples run: its Python API block executes, and every
``servesim`` line of its command-line block parses."""

import os
import re
import shlex

import pytest

from servesim.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def cli_lines() -> list[str]:
    joined = fenced_block("Command line", "bash").replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("servesim ")]


def test_readme_python_api_block_runs(capsys):
    exec(compile(fenced_block("Python API", "python"), README, "exec"), {})
    smooth_goodput, attainment = map(float, capsys.readouterr().out.split())
    assert smooth_goodput > 0.0 and 0.0 <= attainment <= 1.0


def test_readme_lists_every_subcommand():
    commands = {shlex.split(line)[1] for line in cli_lines()}
    assert commands == {"simulate", "sweep", "metrics", "capacity", "delay"}


@pytest.mark.parametrize("line", cli_lines())
def test_readme_command_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)
