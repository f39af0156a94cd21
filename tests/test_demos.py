"""Every name a demo imports from mcmforms exists, and every demo runs to
exit 0 as a script (about 6 s in all, 2.5 s of it in demo_census)."""

import ast
import importlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def mcmforms_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mcmforms":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mcmforms":
                    yield alias.name, None


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = list(mcmforms_imports(path))
    assert names, f"{path.name} imports nothing from mcmforms"
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or fail


@lru_cache(maxsize=None)
def run_demo(path):
    """The finished process of one demo, run once per session with this
    checkout's mcmforms importable."""
    import mcmforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmforms.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, str(path)], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_pipeline_demo_runs_and_replays_its_failure():
    proc = run_demo(next(p for p in DEMOS if p.name == "demo_pipeline.py"))
    assert proc.returncode == 0, proc.stderr
    for line in ("overall ok: True", "deterministic: True",
                 "replayed smoothness: FAIL, same witness: True"):
        assert line in proc.stdout
