"""Checks on the program source itself."""

import ast
import os
import re
from pathlib import Path

import pytest

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


# The primary membership path: the rank tables and their column codes, the
# key plan and the layouts it folds, and membership_M_ab itself.
PRIMARY_MEMBERSHIP_PATH = {
    "_rank_tables", "_column_codes", "_rank_table", "RankTables", "_key_plan",
    "_layout_keys", "_rank_mask", "_combine_columns", "selection_layouts", "column_layout",
    "membership_M_ab", "_membership_by_elimination",
}


def _names_reached(functions, name):
    """Every name and attribute read in the body of `name` and, through the
    module-level functions of the same module it names, in theirs."""
    seen, todo, found = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            used = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if used:
                found.add(used)
                if used in functions:
                    todo.append(used)
    return found


def oracle_independence_faults(source):
    """The names of the primary membership path that membership_M_ab_alt
    reaches in a finite_geometry source."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return sorted(_names_reached(functions, "membership_M_ab_alt") & PRIMARY_MEMBERSHIP_PATH)


def test_the_membership_oracle_uses_nothing_of_the_primary_path():
    # membership_M_ab_alt is the independent side of the dual check: a
    # shared helper would let one fault pass both sides
    path = Path(mcmforms.__file__).resolve().parent / "finite_geometry.py"
    assert oracle_independence_faults(path.read_text(encoding="utf-8")) == []
    routed = "def _helper(M):\n    return _layout_keys(M)\n\n" \
             "def membership_M_ab_alt(M):\n    return all(_helper(M))\n"
    assert oracle_independence_faults(routed) == ["_layout_keys"]


# The functions that may store a polynomial's terms: __init__, which
# validates outside input, and _of, the trusted constructor of results.
TERMS_WRITERS = {"MultiPoly.__init__", "MultiPoly._of"}
# the dict methods that change a dict in place
DICT_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_store_faults(source):
    """(function, line) of every change to an attribute `terms` in a source
    outside TERMS_WRITERS: a store or del of the attribute, a store or del
    of one of its items, or a call of a dict method that changes it in
    place; a method is named Class.method. Bundles, selections and walks
    are shared between a run's stages, which is safe only while no one
    edits a polynomial's terms in place."""
    faults = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if where not in TERMS_WRITERS and (
                    _is_terms(child) and not isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Subscript) and _is_terms(child.value)
                    and not isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in DICT_MUTATORS and _is_terms(child.func.value)):
                faults.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), None)
    return faults


def test_only_the_constructors_store_a_polynomials_terms():
    # results are built by MultiPoly._of, never by constructing an empty
    # polynomial and assigning its terms afterwards, and no one edits the
    # terms of a polynomial that a bundle or a walk may share
    package = Path(mcmforms.__file__).resolve().parent
    faults = [f"{path.name}:{line} in {where}" for path in sorted(package.glob("*.py"))
              for where, line in terms_store_faults(path.read_text(encoding="utf-8"))]
    assert faults == []
    planted = "class MultiPoly:\n    def __neg__(self):\n" \
              "        res = MultiPoly(self.N, self.field)\n        res.terms = {}\n"
    assert terms_store_faults(planted) == [("MultiPoly.__neg__", 4)]


@pytest.mark.parametrize("edit", [
    "p.terms[e] = 1",
    "p.terms[e] += 1",
    "del p.terms[e]",
    "del p.terms",
    "p.terms.update({e: 1})",
    "p.terms.pop(e)",
    "p.terms.popitem()",
    "p.terms.setdefault(e, 0)",
    "p.terms.clear()",
    "fam.sections[0].terms[e] = 2",
])
def test_an_in_place_edit_of_a_polynomials_terms_is_flagged(edit):
    planted = f"def bump(p, fam, e):\n    {edit}\n"
    assert terms_store_faults(planted) == [("bump", 2)]
    # the constructors may fill the dict they build; reads are never flagged
    writer = f"class MultiPoly:\n    def _of(p, fam, e):\n        {edit}\n"
    assert terms_store_faults(writer) == []
    reads = "def read(p, e):\n    return p.terms[e], p.terms.get(e), p.terms.items()\n"
    assert terms_store_faults(reads) == []


# Derived data a family's checks share lives on its FamilyData holder; a
# parameter that threads it by hand past the holder is refused.
PLUMBING_PARAMETERS = {"matrices", "walk", "jacobians"}


def plumbing_parameter_faults(source):
    """(function, parameter) of every parameter of a function or method in
    a source that is named in PLUMBING_PARAMETERS, or is a `forms` that
    defaults to None (a scan that builds the forms when not given them)."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = dict(zip([a.arg for a in positional][len(positional) - len(args.defaults):],
                            args.defaults))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
        for arg in positional + args.kwonlyargs:
            default = defaults.get(arg.arg)
            if arg.arg in PLUMBING_PARAMETERS or arg.arg == "forms" and \
                    isinstance(default, ast.Constant) and default.value is None:
                faults.append((getattr(node, "name", "<lambda>"), arg.arg))
    return faults


def test_no_function_threads_derived_data_past_the_holder():
    package = Path(mcmforms.__file__).resolve().parent
    faults = [f"{path.name}: {fn}({arg})" for path in sorted(package.glob("*.py"))
              for fn, arg in plumbing_parameter_faults(path.read_text(encoding="utf-8"))]
    assert faults == []


@pytest.mark.parametrize("planted, fault", [
    ("def scan(fam, q, matrices=None):\n    pass\n", ("scan", "matrices")),
    ("def scan(fam, q, *, walk):\n    pass\n", ("scan", "walk")),
    ("class S:\n    def walk(self, q, jacobians=()):\n        pass\n", ("walk", "jacobians")),
    ("def scan(fam, forms=None, q=5):\n    pass\n", ("scan", "forms")),
    ("def scan(fam, q, *, forms=None):\n    pass\n", ("scan", "forms")),
    ("check = lambda fam, matrices: fam\n", ("<lambda>", "matrices")),
])
def test_a_plumbing_parameter_is_flagged(planted, fault):
    assert plumbing_parameter_faults(planted) == [fault]


def test_an_explicit_forms_parameter_is_allowed():
    # base_locus_scan takes the forms it evaluates, with no default
    assert plumbing_parameter_faults("def scan(fam, forms, q, vanished=()):\n    pass\n") == []
    assert plumbing_parameter_faults("def scan(fam, forms=(), q=5):\n    pass\n") == []


# The command line reaches the checks a pipeline stage wraps through that
# stage's body, and uses no other module's private names.
CLI_STAGE_WRAPPED = {"verify_gluing", "verify_transition", "base_locus_scan"}


def cli_faults(source):
    """Sorted (fault, name) pairs of a cli source: each _-prefixed name it
    imports from another mcmforms module, and each name of
    CLI_STAGE_WRAPPED it imports or mentions."""
    faults = set()
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level or (node.module or "").split(".")[0] == "mcmforms":
                faults.update(("private import", name) for name in names if name.startswith("_"))
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        faults.update(("names", name) for name in names if name in CLI_STAGE_WRAPPED)
    return sorted(faults)


def test_the_cli_runs_the_stage_bodies_and_imports_no_private_name():
    source = (Path(mcmforms.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8")
    assert cli_faults(source) == []


def test_a_second_cli_path_is_flagged():
    # the form of the command line that looped the verifiers over the
    # pipeline's private unit lists
    planted = (
        "from __future__ import annotations\n"
        "from .finite_geometry import base_locus_scan, smoothness_check\n"
        "from .identity_verifier import verify_gluing, verify_hidden, verify_transition\n"
        "from .pipeline import RunConfig, _glue_units, _transition_units\n"
        "def verify(data, fam):\n"
        "    return [verify_gluing(data, u['selection'], 0, 1) for u in _glue_units(fam)]\n"
    )
    assert cli_faults(planted) == [
        ("names", "base_locus_scan"), ("names", "verify_gluing"), ("names", "verify_transition"),
        ("private import", "_glue_units"), ("private import", "_transition_units")]
    assert cli_faults("from mcmforms import identity_verifier\n"
                      "identity_verifier.verify_gluing\n") == [("names", "verify_gluing")]
    # the stage bodies, public names and a private name of the module itself are allowed
    assert cli_faults("from .pipeline import stage_gluing\n"
                      "from argparse import _SubParsersAction\n"
                      "def _csv_ints(text):\n    return stage_gluing\n") == []
