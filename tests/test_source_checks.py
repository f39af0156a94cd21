"""Checks on the program source itself."""

import ast
import os
import re
from pathlib import Path

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


# Functions, classes and methods of the package that only tests may reach.
# None is: code that nothing else calls is deleted, not kept for its tests.
ALLOWED_TEST_ONLY = set()


def _docstring_ids(tree):
    """ids of the docstring constants of a module and of its classes and
    functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _definitions(package):
    """(file, class or None, name) of every top-level function and class of
    the package and of every method of its classes, dunders aside."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((path.name, None, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(path.name, node.name, m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def _fields(package):
    """(file, class, name) of every annotated field of a package class:
    dataclass and NamedTuple fields alike."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [(path.name, node.name, f.target.id) for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return found


def _fragment_ids(tree):
    """ids of the literal fragments of the f-strings of a module."""
    return {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for part in node.values if isinstance(part, ast.Constant)}


def _references(roots):
    """(names, attribute names, attribute names read, string constants)
    used by the Python files under roots; docstrings and f-string fragments
    (the "dz" of f"dz{k}") are not uses."""
    names, attrs, reads, strings = set(), set(), set(), set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            not_uses = _docstring_ids(tree) | _fragment_ids(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        reads.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and id(node) not in not_uses:
                    strings.add(node.value)
    return names, attrs, reads, strings


def _outside_tests():
    """The package directory and the references of src, demos and bench."""
    package = Path(mcmforms.__file__).resolve().parent
    root = package.parent.parent
    roots = [package.parent, root / "demos", root / "bench"]
    assert all(r.is_dir() for r in roots)
    return package, _references(roots)


def test_every_definition_is_reached_outside_tests():
    # a method counts as reached when its name is read as an attribute or
    # named in a string (the benchmark tracer patches methods by name)
    package, (names, attrs, _, strings) = _outside_tests()
    unreached = set()
    for path, cls, name in _definitions(package):
        used = name in attrs or name in strings or (cls is None and name in names)
        if not used:
            unreached.add(f"{path}:{cls + '.' if cls else ''}{name}")
    assert sorted(unreached - ALLOWED_TEST_ONLY) == []
    assert ALLOWED_TEST_ONLY <= unreached


def test_every_field_is_read_outside_tests():
    # a field that src, demos and bench never read as an attribute, nor name
    # in a string, is carried for tests alone and is deleted instead
    package, (_, _, reads, strings) = _outside_tests()
    fields = _fields(package)
    assert len(fields) > 20
    unread = [f"{path}:{cls}.{name}" for path, cls, name in fields
              if name not in reads and name not in strings]
    assert unread == []


def test_no_draw_comes_from_numpy_random():
    # every draw comes from a seeded child_rng stream (util): a numpy
    # generator would draw other values and silently change every sampled
    # report, so neither the name nor an import of it may appear
    package = Path(mcmforms.__file__).resolve().parent
    offending = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        offending += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1)
                      if re.search(r"\b(np|numpy)\.random\b", line)]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                    and any(alias.name == "random" for alias in node.names):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == [], "numpy.random in " + ", ".join(offending)
