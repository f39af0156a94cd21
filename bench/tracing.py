"""In-memory span tracer that wraps the public functions of each layer.

The tracer patches names from outside the program: every public function a
layer module defines is replaced, in every ``mcmforms`` module that bound it
(``poly_det`` in ``exact_algebra``, ``section_builder`` and
``identity_verifier``, for instance), by a wrapper that records a span
``(name, start, end, parent, unit)``.  A few methods are wrapped on their
class (``MultiPoly.__mul__`` and friends, ``FormBundle.evaluate_at``).
Per-coefficient ``Field`` arithmetic is never wrapped.

Counters are updated at the same boundaries from the arguments and results,
so work counts are measured where the work happens.  ``uninstall`` restores
every original binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

# Methods wrapped on their class: (layer, class name, method names).
CLASS_METHODS = (
    ("exact_algebra", "MultiPoly",
     ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
      "evaluate", "evaluate_mod")),
    ("section_builder", "FormBundle", ("evaluate_at",)),
)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _census_matrices(fn, args, kwargs, rep) -> int:
    """Matrices examined: the zero-sum space q^(b(2a+1)) when exhaustive,
    the sample size otherwise."""
    if rep["mode"] == "exhaustive":
        return rep["q"] ** (rep["b"] * (2 * rep["a"] + 1))
    return _bind(fn, args, kwargs)["sample_size"]


def _sz_trials(rep) -> int:
    return sum(c.get("trials", 0) for c in rep.get("checks", ()))


def _counters(tracer: "Tracer") -> Dict[str, Callable]:
    """Span name -> fn(counts, original, args, kwargs, result)."""

    def mul(c, fn, args, kwargs, res):
        c["mul_calls"] += 1
        c["mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        c["mul_terms_out"] += len(res.terms)

    def evaluate(c, fn, args, kwargs, res):
        c["eval_calls"] += 1
        c["eval_terms"] += len(args[0].terms)

    def poly_det(c, fn, args, kwargs, res):
        c["poly_det_calls"] += 1
        c["poly_det_terms_out"] += len(res.terms)

    def extract_form(c, fn, args, kwargs, res):
        c["extract_form_calls"] += 1
        c["form_terms"] += len(res.value_global.terms)

    def build_matrices(c, fn, args, kwargs, res):
        c["build_matrices_calls"] += 1
        fam = _bind(fn, args, kwargs)["fam"]
        tracer.families[id(fam)] = fam  # holding it keeps ids unique in the pass

    def gluing(c, fn, args, kwargs, res):
        c["gluing_units"] += 1
        c["sz_trials"] += _sz_trials(res)

    def transition(c, fn, args, kwargs, res):
        c["transition_units"] += 1
        c["sz_trials"] += _sz_trials(res)

    def identity_test(c, fn, args, kwargs, res):
        c["sz_trials"] += res.get("trials", 0)

    def crosscheck(c, fn, args, kwargs, res):
        c["incidence_pairs"] += res["incidence_pairs"]
        c["crosscheck_samples"] += res["samples"]

    def census(c, fn, args, kwargs, res):
        c["census_matrices"] += _census_matrices(fn, args, kwargs, res)

    def simple(key: str):
        def count(c, fn, args, kwargs, res):
            c[key] += 1
        return count

    def sized(key: str):
        def count(c, fn, args, kwargs, res):
            c[key] += len(res)
        return count

    def decomposition(c, fn, args, kwargs, res):
        c["decomposition_pairs"] += res["pairs"]

    return {
        "exact_algebra.MultiPoly.__mul__": mul,
        "exact_algebra.MultiPoly.evaluate": evaluate,
        "exact_algebra.MultiPoly.evaluate_mod": evaluate,
        "exact_algebra.poly_det": poly_det,
        "exact_algebra.det_mod_p": simple("det_mod_p_calls"),
        "exact_algebra.identity_test": identity_test,
        "section_builder.extract_form": extract_form,
        "section_builder.build_matrices": build_matrices,
        "identity_verifier.verify_gluing": gluing,
        "identity_verifier.verify_transition": transition,
        "finite_geometry.proj_points": sized("points_enumerated"),
        "finite_geometry.tangent_directions": sized("directions_visited"),
        "finite_geometry.characterization_crosscheck": crosscheck,
        "finite_geometry.rank_condition_census": census,
        "finite_geometry.membership_M_ab": simple("membership_calls"),
        "finite_geometry.membership_M_ab_alt": simple("membership_calls"),
        "util.rank_mod_p": simple("rank_mod_p_calls"),
        "util.kernel_basis_mod_p": simple("kernel_basis_calls"),
        "schedule.twist_ledger": simple("twist_ledger_calls"),
        "product_coup.verify_product_decomposition": decomposition,
    }


class Tracer:
    """Spans and counts for one traced pass at a time.

    ``modules`` maps each layer name to its imported ``mcmforms`` module.
    ``install`` patches them and ``uninstall`` restores them; the record
    survives both, and ``reset`` clears it between passes.
    """

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.families: dict = {}
        self._stack: List[int] = []
        self._unit = -1
        self._installed = False
        self._patch_list = self._patches()

    # ----- recording -----

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.families = {}
        self._stack = []
        self._unit = -1

    def unit(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a root span that names one verification unit."""
        nid = self._name_id("bench.unit:" + name)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._unit = idx
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, -1, idx)

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer._unit)
            if count is not None:
                count(tracer.counts, fn, args, kwargs, result)
            return result

        return traced

    # ----- patching -----

    def _patches(self) -> List[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        counters = _counters(self)
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, name, counters.get(name))
        patches = []
        for mod in self.modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                patches.append((cls, meth, orig, self._wrap(orig, name, counters.get(name))))
        return patches

    def install(self) -> None:
        """Replace every patched binding by its wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, wrapper in self._patch_list:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, orig, _ in reversed(self._patch_list):
            setattr(owner, attr, orig)
        self._installed = False

    # ----- analysis -----

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as columns (name id, start, end, parent, unit)."""
        if any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        rec = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {
            "name": rec[:, 0].astype(np.int32),
            "start": rec[:, 1],
            "end": rec[:, 2],
            "parent": rec[:, 3].astype(np.int64),
            "unit": rec[:, 4].astype(np.int64),
        }

    def self_times(self) -> Dict[str, float]:
        """Span name -> total self time: each span's duration minus the
        durations of its direct children (calls nest, so they never overlap)."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = np.bincount(cols["name"], weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def calls(self) -> Dict[str, int]:
        cols = self.arrays()
        n = np.bincount(cols["name"], minlength=len(self.names))
        return {name: int(n[i]) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the current pass's spans (compressed numpy arrays)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())
