"""Checks on the program source itself."""

import ast
import os

import mcmforms

# (module, function) pairs whose `assert` guards only a loop count, never a
# verdict. None is left: the package holds no assert at all.
ALLOWED_ASSERTS = set()


def _asserts(path):
    """(function name, line) of every assert statement in a source file."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Assert):
                    found.append((func, child.lineno))
                visit(child, func)

    visit(tree, None)
    return found


def test_no_assert_carries_a_verdict():
    package = os.path.dirname(os.path.abspath(mcmforms.__file__))
    offending = []
    allowed_seen = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        for func, line in _asserts(os.path.join(package, name)):
            if (name, func) in ALLOWED_ASSERTS:
                allowed_seen.add((name, func))
            else:
                offending.append(f"{name}:{line} in {func}")
    assert offending == [], "asserts vanish under python -O: " + ", ".join(offending)
    assert allowed_seen == ALLOWED_ASSERTS
