import pytest

from mcmforms.exact_algebra import EvalPlan, MultiPoly


def det(rows):
    """The determinant of a square matrix of polynomials: the test oracle,
    since the library never expands one. Cofactor expansion along the top
    row, each minor memoised on its columns (its rows are the bottom ones),
    so minors that share columns are expanded once. An empty or ragged
    matrix raises ValueError."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("matrix is empty or not square")
    memo = {}

    def minor(cols):
        top = rows[n - len(cols)]
        if len(cols) == 1:
            return top[cols[0]]
        if cols not in memo:
            total = MultiPoly.zero(top[0].N, top[0].field)
            for t, col in enumerate(cols):
                if not top[col].is_zero():
                    piece = top[col] * minor(cols[:t] + cols[t + 1:])
                    total = total - piece if t % 2 else total + piece
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


def expand_form(form):
    """A form as a polynomial: its sign times the determinant of its rows
    of the divided matrix. The library never expands a form."""
    value = det([form.matrix.rows[t] for t in form.matrix_rows])
    return value if form.sign == 1 else -value


@pytest.fixture
def compiled_plans(monkeypatch):
    """Refuses term-by-term evaluation and records the number of
    polynomials of every EvalPlan compiled."""
    def refuse(*args):
        raise AssertionError("a polynomial evaluated term by term")

    monkeypatch.setattr(MultiPoly, "evaluate_mod", refuse)
    monkeypatch.setattr(MultiPoly, "evaluate", refuse)
    compiled = []
    real = EvalPlan.__init__

    def record(self, polys, modulus):
        compiled.append(len(polys))
        real(self, polys, modulus)

    monkeypatch.setattr(EvalPlan, "__init__", record)
    return compiled


@pytest.fixture
def run_optimized():
    """Runs Python source under `python -O`, which strips every `assert`,
    with this checkout's mcmforms importable; returns its stdout."""
    import os
    import subprocess
    import sys

    import mcmforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmforms.__file__)))

    def run(code: str) -> str:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
