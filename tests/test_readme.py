"""The README's Python quick start runs as written, and every line of it
whose trailing comment is a Python literal evaluates to that literal."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_start_runs_and_its_literal_comments_hold():
    code = quick_start_block()
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
