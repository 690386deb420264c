"""No search may depend on Python's recursion limit: list every function in
src/lrhive that calls itself, and allow only the known ones."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lrhive"

# qualified name -> why its recursion is allowed
ALLOWED = {
    "verify._nested_ints": "depth bounded by its depth argument, at most 3",
}


def _calls_itself(func, is_method):
    """A bare call of the function's own name, or self./cls.<name> in a method."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == func.name and not is_method:
            return True
        if (is_method and isinstance(callee, ast.Attribute) and callee.attr == func.name
                and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
            return True
    return False


def self_calling_functions(tree, prefix):
    found = []

    def visit(node, qualname, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                visit(child, name, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}", True)
            else:
                visit(child, qualname, in_class)

    visit(tree, prefix, False)
    return found


def test_detector_finds_direct_recursion():
    source = """
def outer(n):
    def rec(k):
        return rec(k - 1) if k else 0
    return rec(n)

def plain(x):
    return other(x)

class C:
    def walk(self, x):
        return self.walk(x) if x else x.walk()

    def permuted(self, p):
        return self.inner.permuted(p)
"""
    assert self_calling_functions(ast.parse(source), "m") == ["m.outer.rec", "m.C.walk"]


def test_only_allowed_functions_recurse():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += self_calling_functions(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(ALLOWED), "new recursion: rewrite it with an explicit loop or stack"
