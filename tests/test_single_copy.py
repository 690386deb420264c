"""Shared checks and declarations are written once: the rank check lives in
``partitions.common_rank`` (the tableaux oracle keeps its own, being
independent on purpose), and the CLI declares ``--json`` in one place."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lrhive"


def test_rank_mismatch_written_once():
    found = {path.name: path.read_text().count('"rank mismatch"') for path in SRC.glob("*.py")}
    assert {name: k for name, k in found.items() if k} == {"partitions.py": 1, "tableaux.py": 1}


def test_json_flag_declared_once():
    assert (SRC / "cli.py").read_text().count('add_argument("--json"') == 1
