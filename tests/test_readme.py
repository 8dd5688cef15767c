import argparse
import re
from pathlib import Path

from crankrank import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    section = README.read_text().split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_library_example_runs():
    section = _section("Library example")
    assert "```python\n" in section
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_command_flag_lists_match_parser():
    # each "* `cmd`: ..." item, with its indented continuation lines,
    # names exactly the flags the parser gives that subcommand
    items = re.findall(r"^\* `([a-z-]+)`: (.*(?:\n  .*)*)",
                       _section("Command line"), re.MULTILINE)
    documented = {cmd: set(re.findall(r"--[a-z-]+", text))
                  for cmd, text in items}
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {cmd: {flag for action in parser._actions
                      for flag in action.option_strings
                      if flag not in ("-h", "--help")}
                for cmd, parser in subparsers.choices.items()}
    assert documented == accepted
