"""Shared checks and declarations are written once: the rank check lives in
``partitions.common_rank`` (the tableaux oracle keeps its own, being
independent on purpose, and borrows nothing but ``Partition``), the CLI
declares ``--json`` in one place and picks between JSON and text in one
helper, a piecewise table is evaluated only through its compiled form,
which reads tuples through one getter, and its forms and polynomials share
one algebra type.  Records pickle only through ``Record``.  No public
function or class is kept that nothing reads."""

import ast
from pathlib import Path

from test_readme import readme_block

from lrhive import piecewise
from lrhive.piecewise import Cone, Polynomial, QuasiPolynomial, family_function

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lrhive"


def test_rank_mismatch_written_once():
    found = {path.name: path.read_text().count('"rank mismatch"') for path in SRC.glob("*.py")}
    assert {name: k for name, k in found.items() if k} == {"partitions.py": 1, "tableaux.py": 1}


def test_tableaux_oracle_imports_only_partition():
    """The oracle checks the hive engine and the product, so it may not
    borrow their code: its one import from the package is ``Partition``."""
    package_imports = []
    for node in ast.walk(ast.parse((SRC / "tableaux.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lrhive")):
            package_imports.append(("." * node.level + (node.module or ""), [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            package_imports += [(a.name, None) for a in node.names if a.name.split(".")[0] == "lrhive"]
    assert package_imports == [(".partitions", ["Partition"])]


def test_records_pickle_only_through_record():
    """``Record.__reduce__`` pickles every record through its constructor;
    no other class may pickle its own way."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [(node.name, item.name) for item in node.body if isinstance(item, ast.FunctionDef)
                          and item.name in ("__reduce__", "__reduce_ex__", "__getstate__", "__setstate__")]
    assert found == [("Record", "__reduce__")]


def test_json_flag_declared_once():
    assert (SRC / "cli.py").read_text().count('add_argument("--json"') == 1


def test_cli_output_format_chosen_once():
    """Every result goes through ``_show``; only the sweep's indented report
    and ``piecewise --dump``, which is JSON whatever the flags, print JSON
    of their own."""
    tree = ast.parse((SRC / "cli.py").read_text())
    dumps, reads = [], []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "dumps":
                    dumps.append(func.name)
                if isinstance(node, ast.Attribute) and node.attr == "json":
                    reads.append(func.name)
    assert sorted(dumps) == ["_cmd_piecewise", "_show"]
    assert sorted(reads) == ["_cmd_sweep", "_show"]


def test_piecewise_table_parts_do_not_evaluate():
    """Only ``PiecewiseFunction._compiled`` evaluates a table; the classes
    that hold one keep no evaluator of their own."""
    x = Polynomial.var(("x",), "x")
    form = x - 1
    for part in (form, Cone.make([form]), x, QuasiPolynomial.plain(x), QuasiPolynomial(2, form, (x, x))):
        assert not callable(part), part
        for name in ("value_at", "contains", "numerator_at", "branch"):
            assert not hasattr(part, name), (part, name)


def test_piecewise_table_evaluated_by_its_own_methods():
    """Only ``PiecewiseFunction``'s own methods read its compiled form
    (``_compiled``) or its kernel (``_line``); everything else,
    ``verify_family`` included, evaluates through ``evaluate_line``,
    ``evaluate_at`` and ``values_at`` or their mapping adapters, so no
    second evaluator grows beside them."""
    internal = {"_compiled", "_line"}
    inside, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "PiecewiseFunction"
               for method in cls.body if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):  # getattr(f, "_compiled") too
                name = node.value
            else:
                continue
            if name in internal:
                if id(node) in own:
                    inside.add(name)
                else:
                    outside.append((path.name, node.lineno, name))
    assert outside == []
    assert inside == internal  # the guard reads the names the class uses


def test_itemgetter_called_only_in_getter():
    """``itemgetter`` of one key returns a bare value, not a 1-tuple, so
    ``piecewise._getter`` is the one place that calls it and every reader
    of tuples goes through that rule."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), func.name) for node in ast.walk(func))
        calls += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "itemgetter" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == [("piecewise.py", "_getter")]


def test_piecewise_forms_are_polynomials():
    """Cone constraints and selectors are degree-<=1 polynomials, not a
    second algebra type."""
    assert not hasattr(piecewise, "LinearForm")
    for family in piecewise.FAMILIES:
        f = family_function(family)
        forms = [*f.support.constraints,
                 *(form for cone, q in f.pieces for form in (*cone.constraints, q.selector))]
        for form in forms:
            assert type(form) is Polynomial, (family, form)
            assert all(sum(e) <= 1 for e, _ in form.numerators), (family, form)


def public_definitions(tree) -> list[str]:
    """The names of the module's top-level functions and classes that do not
    start with an underscore."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(tree) -> set[str]:
    """Every identifier the module reads as a name, an attribute or an import
    alias, outside the top-level definition of that same name (a function
    calling itself or a class naming itself is no reader), and every dotted
    part of the strings in a ``TARGETS`` assignment, which names what a
    tracer wraps."""
    read = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        traced = isinstance(top, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in top.targets)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif traced and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".")
            else:
                continue
            read.update(name for name in names if name != own)
    return read


def test_detector_finds_unread_definitions():
    source = """
from pkg import imported

def used(x):
    return x

def unread(n):
    return unread(n - 1) if n else used(n)

class Record:
    def copy(self):
        return Record()

def _private():
    pass

TARGETS = (("pkg.mod.Traced", "wrapped"),)
"""
    tree = ast.parse(source)
    assert public_definitions(tree) == ["used", "unread", "Record"]
    read = names_read(tree)
    assert {"used", "imported", "pkg", "mod", "Traced", "wrapped"} <= read
    assert not {"unread", "Record"} & read


def test_every_public_definition_has_a_reader():
    """Each public top-level function and class in src/lrhive is read, by
    name, by the package itself, the acceptance gate, the benchmark
    (``perfbench``, its tracer's targets included) or the README's quick
    start, which ``test_readme`` runs; other tests are not readers."""
    readers = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(names_read(ast.parse(path.read_text())) for path in readers))
    read |= names_read(ast.parse(readme_block("## Library quick start", "```python\n")))
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in public_definitions(ast.parse(path.read_text())) if name not in read]
    assert unread == [], "nothing reads these: delete them"
