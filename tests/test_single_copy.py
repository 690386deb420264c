"""Shared checks and declarations are written once: the rank check lives in
``partitions.common_rank`` (the tableaux oracle keeps its own, being
independent on purpose), the CLI declares ``--json`` in one place, and a
piecewise table is evaluated only through its compiled form."""

from pathlib import Path

from lrhive.piecewise import Cone, LinearForm, Polynomial, QuasiPolynomial

SRC = Path(__file__).resolve().parent.parent / "src" / "lrhive"


def test_rank_mismatch_written_once():
    found = {path.name: path.read_text().count('"rank mismatch"') for path in SRC.glob("*.py")}
    assert {name: k for name, k in found.items() if k} == {"partitions.py": 1, "tableaux.py": 1}


def test_json_flag_declared_once():
    assert (SRC / "cli.py").read_text().count('add_argument("--json"') == 1


def test_piecewise_table_parts_do_not_evaluate():
    """Only ``PiecewiseFunction._compiled`` evaluates a table; the classes
    that hold one keep no evaluator of their own."""
    x = Polynomial.var(("x",), "x")
    form = LinearForm.make({"x": 1})
    for part in (form, Cone.make([form]), x, QuasiPolynomial.plain(x)):
        assert not callable(part), part
        for name in ("value_at", "contains", "numerator_at", "branch"):
            assert not hasattr(part, name), (part, name)
