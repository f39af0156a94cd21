import pytest

from mcmforms.exact_algebra import EvalPlan, MultiPoly


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
