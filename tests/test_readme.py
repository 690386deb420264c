"""The README's examples run as written: every line of the Python quick start
whose trailing comment is a Python literal evaluates to that literal, and
every CLI example exits 0 and prints its ``# -> X`` comment first."""

import ast
import shlex
from pathlib import Path

from lrhive import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, fence: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def test_quick_start_runs_and_its_literal_comments_hold():
    code = readme_block("## Library quick start", "```python\n")
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, sep, comment = line.partition("  # ")
        if not sep:
            continue
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, not a value
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked >= 3


def test_cli_examples_exit_0_and_print_their_comments(capsys):
    commands = [line for line in readme_block("## CLI examples", "```sh\n").splitlines()
                if line.startswith("lrhive ")]
    checked = 0
    for line in commands:
        command, _, comment = line.partition("#")
        assert cli.main(shlex.split(command)[1:]) == 0, line
        first = capsys.readouterr().out.splitlines()[0]
        if comment.strip().startswith("->"):
            assert first == comment.strip()[2:].strip(), line
            checked += 1
    assert len(commands) >= 10
    assert checked >= 3
