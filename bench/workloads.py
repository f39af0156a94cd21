"""The four benchmark workloads: inputs from a seed, units, output checks.

``build(name, seed, mods)`` generates a workload's inputs from the seed and
returns its units.  A unit calls the program once and returns its report;
``check`` lists what is wrong with that report.  Every pass of a workload
runs the same units on the same inputs, so two passes must produce
identical outputs.

The expected values are ones the repository already asserts: the census
counts of the acceptance gate, every verdict PASS, no member pair where the
forms do not vanish, and byte-identical pipeline reports modulo timings.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Callable, List, Optional

WORKLOADS = ("pipeline-default", "certify-exact", "certify-sampled", "scan-fp")

# Exhaustive census counts (acceptance 07), keyed by (a, b, q).
EXPECTED_CENSUS = {(2, 2, 2): 148, (2, 3, 2): 596, (2, 2, 3): 1737,
                   (3, 3, 2): 273344}

PIPELINES_PER_PASS = 2

PIPELINE_STAGES = ("schedule", "build", "divisibility", "gluing", "transition",
                   "twist-ledger", "smoothness", "base-locus", "crosscheck", "census")


@dataclass
class Outcome:
    """One verification unit as the benchmark counts it."""
    name: str
    seconds: float
    errors: List[str]
    digest: str


@dataclass
class Unit:
    """One call into the program.

    ``check`` lists what is wrong with the report.  ``split`` is for a call
    that covers several verification units (the pipeline's stages): it
    returns one Outcome per unit, timed by the program itself.
    """
    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    split: Optional[Callable[[object, float], List[Outcome]]] = None
    digest: Callable[[object], str] = None

    def __post_init__(self):
        if self.digest is None:
            self.digest = report_digest

    def outcomes(self, report, seconds: float) -> List[Outcome]:
        if self.split is not None:
            return self.split(report, seconds)
        return [Outcome(self.name, seconds, self.check(report), self.digest(report))]


@dataclass
class Workload:
    name: str
    units: List[Unit]
    # Passes every run makes however fast they are; with units_per_pass it
    # fixes the percentile of unit_tail_ms.
    min_passes: int
    units_per_pass: int
    inputs_digest: str


def report_digest(report) -> str:
    """Digest of a report; dict keys sorted, timings excluded."""
    if isinstance(report, dict):
        report = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(report, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"bench:{workload}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _verdict_errors(rep: dict, mode: Optional[str] = None) -> List[str]:
    errors = []
    if not rep.get("ok"):
        errors.append("report not ok")
    for c in rep.get("checks", ()):
        if c["verdict"] != "pass":
            errors.append(f"check {c['id']!r}: {c['verdict']}")
        if mode is not None and c["id"] != "transition exponent" and c["mode"] != mode:
            errors.append(f"check {c['id']!r} ran {c['mode']}, expected {mode}")
    if not rep.get("checks"):
        errors.append("no checks ran")
    return errors


def _transition_errors(rep: dict, mode: str) -> List[str]:
    errors = _verdict_errors(rep, mode)
    if not any(c["id"] == "transition exponent" for c in rep.get("checks", ())):
        errors.append("transition exponent not checked")
    return errors


def _census_errors(rep: dict, expected: Optional[int]) -> List[str]:
    errors = [] if rep["ok"] else [f"census {rep['a']},{rep['b']},{rep['q']} over bound"]
    if expected is not None and rep["count"] != expected:
        errors.append(f"census {rep['a']},{rep['b']},{rep['q']}: count "
                      f"{rep['count']} != {expected}")
    return errors


# ----- pipeline-default -----


def pipeline_config_text(mods, seed: int) -> str:
    """The default config with its master seed replaced by the workload's."""
    text, n = re.subn(r"(?m)^seed = \d+$", f"seed = {seed}",
                      mods["pipeline"].default_config_text())
    if n != 1:
        raise RuntimeError("default config has no single seed line")
    return text


def _pipeline(seed: int, mods, small: bool) -> Workload:
    """Two pipelines per pass, each with a master seed drawn from the
    workload seed: how much the base-locus stage expands depends on the
    family, and one family per run made the pass time vary by about 10 %
    from seed to seed."""
    pl = mods["pipeline"]
    units, texts = [], []
    for k, master in enumerate(_seeds("pipeline-default", seed, PIPELINES_PER_PASS)):
        text = pipeline_config_text(mods, master)
        if small:
            text += "\n[census]\nshapes = 2 2 2; 2 3 2\n"
            text = text.replace("N = 4\nc = 3", "N = 3\nc = 2")
        texts.append(text)
        units.append(_pipeline_unit(pl, pl.parse_config(text), f"run_pipeline#{k}"))
    return Workload("pipeline-default", units, min_passes=2,
                    units_per_pass=len(units) * len(PIPELINE_STAGES),
                    inputs_digest=hashlib.sha256("".join(texts).encode()).hexdigest())


def _pipeline_unit(pl, cfg, name: str) -> Unit:
    shapes = [tuple(s) for s in cfg.census_shapes]

    def run():
        return pl.run_pipeline(copy.deepcopy(cfg))

    def stage_errors(rep, stage: str) -> List[str]:
        entry = rep["stages"].get(stage)
        if entry is None or entry["status"] != "PASS":
            return [f"status {entry and entry['status']}"]
        if stage == "census":
            census = entry["report"]["censuses"]
            if [(c["a"], c["b"], c["q"]) for c in census] != shapes:
                return ["census shapes differ from the config"]
            return [e for c in census
                    for e in _census_errors(c, EXPECTED_CENSUS.get((c["a"], c["b"], c["q"])))]
        if stage == "crosscheck" and entry["report"]["member_not_vanish"] != 0:
            return [f"member_not_vanish = {entry['report']['member_not_vanish']}"]
        return []

    def check(rep) -> List[str]:
        return [] if rep["ok"] else ["pipeline not ok"]

    def split(rep, seconds: float) -> List[Outcome]:
        return [Outcome(f"stage:{stage}", rep["timings"].get(stage, 0.0),
                        stage_errors(rep, stage),
                        report_digest(rep["stages"].get(stage)))
                for stage in PIPELINE_STAGES]

    def digest(rep) -> str:
        text = pl.report_to_json(pl.strip_timings(rep))
        return hashlib.sha256(text.encode()).hexdigest()

    return Unit(name, run, check, split, digest)


# ----- certify-exact and certify-sampled -----


def _mcm_family(mods, shape, seed: int):
    sched = mods["schedule"].build_schedule(shape, heart=2)
    return mods["section_builder"].build_sections(
        shape, "mcm", field=mods["exact_algebra"].Field(5), schedule=sched, seed=seed)


def _fermat_family(mods, shape, lambdas, degrees, seed: int):
    return mods["section_builder"].build_sections(
        shape, "general_fermat", field=mods["exact_algebra"].QQ,
        lambdas=lambdas, degrees=degrees, seed=seed)


def _family_digest(mods, families) -> str:
    lit = mods["exact_algebra"].to_literal
    h = hashlib.sha256()
    for fam in families:
        for F in fam.sections:
            h.update(lit(F).encode())
            h.update(b";")
    return h.hexdigest()


def _call(mod, attr: str, *args, **kwargs) -> Callable[[], object]:
    """Look mod.attr up when the unit runs, so a traced binding is the one called."""
    return lambda: getattr(mod, attr)(*args, **kwargs)


def _mcm_whichs(shape) -> List[tuple]:
    return [("K_nu", 0), ("K_nu", shape.N), ("K_tau_rho", 0, 1)]


def _mcm_transitions(shape) -> List[dict]:
    return [dict(which=("K_nu", 0), omit=0, l1=0, l2=1),
            dict(which=("K_tau_rho", 0, 1), omit=1, l1=0, l2=shape.N)]


def _gluing_units(iv, tag: str, fam, which, selection, mode: str, seed: int) -> List[Unit]:
    N = fam.shape.N
    units = []
    for j1 in range(N + 1):
        for j2 in range(j1 + 1, N + 1):
            units.append(Unit(
                f"{tag}:glue:{which}:{j1},{j2}",
                _call(iv, "verify_gluing", fam, selection, j1, j2,
                      which=which, mode=mode, seed=seed),
                lambda rep, m=mode: _verdict_errors(rep, m)))
    return units


def _certify_exact(seed: int, mods, small: bool) -> Workload:
    iv = mods["identity_verifier"]
    Shape = mods["schedule"].ProblemShape
    per_shape = 1 if small else 3
    fermat_count = 0 if small else 2
    seeds = iter(_seeds("certify-exact", seed, 2 * per_shape + fermat_count))
    families, units = [], []
    for shape_t in ((3, 2, 0), (3, 1, 1)):
        shape = Shape(*shape_t)
        for k in range(per_shape):
            fam = _mcm_family(mods, shape, next(seeds))
            families.append(fam)
            tag = f"mcm{shape_t}#{k}"
            sel = tuple(range(1, shape.n + 1))
            whichs = _mcm_whichs(shape)[:1] if small else _mcm_whichs(shape)
            for which in whichs:
                units += _gluing_units(iv, tag, fam, which, sel, "exact", seed)
            for u in _mcm_transitions(shape):
                units.append(Unit(
                    f"{tag}:transition:{u['which']}",
                    _call(iv, "verify_transition", fam, sel, u["omit"], u["l1"],
                          u["l2"], mode="exact", which=u["which"], seed=seed),
                    lambda rep: _transition_errors(rep, "exact")))
    shape = Shape(3, 2, 0)
    sel = tuple(range(1, shape.n + 1))
    for k in range(fermat_count):
        fam = _fermat_family(mods, shape, (2, 2, 2, 2), (4, 4), next(seeds))
        families.append(fam)
        tag = f"fermatQ(3,2,0)#{k}"
        units += _gluing_units(iv, tag, fam, None, sel, "exact", seed)
        for kind, omit in (("psi", 0), ("omega", shape.N)):
            units.append(Unit(
                f"{tag}:transition:{kind}",
                _call(iv, "verify_transition", fam, sel, omit, 0, 1,
                      mode="exact", kind=kind, seed=seed),
                lambda rep: _transition_errors(rep, "exact")))
    return Workload("certify-exact", units, min_passes=2, units_per_pass=len(units),
                    inputs_digest=_family_digest(mods, families))


def _certify_sampled(seed: int, mods, small: bool) -> Workload:
    iv = mods["identity_verifier"]
    Shape = mods["schedule"].ProblemShape
    shape = Shape(2, 1, 0) if small else Shape(4, 3, 0)
    # Many families with one unit each: the work of a family varies with its
    # coefficients, and the pass averages over more of them.
    mcm_count, fermat_count = (2, 1) if small else (4, 3)
    seeds = iter(_seeds("certify-sampled", seed, mcm_count + fermat_count))
    families, units = [], []
    sel = tuple(range(1, shape.n + 1))
    transitions = _mcm_transitions(shape)
    for k in range(mcm_count):
        fam = _mcm_family(mods, shape, next(seeds))
        families.append(fam)
        u = transitions[k % len(transitions)]
        units.append(Unit(
            f"mcm({shape.N},{shape.c},{shape.r})#{k}:transition:{u['which']}",
            _call(iv, "verify_transition", fam, sel, u["omit"], u["l1"],
                  u["l2"], mode="probabilistic", which=u["which"], seed=seed),
            lambda rep: _transition_errors(rep, "probabilistic")))
    lambdas, degrees = ((2, 1, 2), (3,)) if small else ((2, 1, 2, 1, 2), (3, 3, 4))
    for k in range(fermat_count):
        fam = _fermat_family(mods, shape, lambdas, degrees, next(seeds))
        families.append(fam)
        units += _gluing_units(iv, f"fermatQ#{k}", fam, None, sel, "probabilistic", seed)
    return Workload("certify-sampled", units, min_passes=2, units_per_pass=len(units),
                    inputs_digest=_family_digest(mods, families))


# ----- scan-fp -----


def _scan_fp(seed: int, mods, small: bool) -> Workload:
    fg = mods["finite_geometry"]
    ea = mods["exact_algebra"]
    Shape = mods["schedule"].ProblemShape
    rng = random.Random(f"bench:scan-fp:{seed}")
    census_shapes = list(EXPECTED_CENSUS)[:2] if small else list(EXPECTED_CENSUS)
    # Zero-sum matrices, so every one reaches the rank conditions.
    chunks, per_chunk = (1, 200) if small else (4, 1000)
    matrices = {
        (key, k): [fg.random_rank_matrix(*key, rng, constrained=True)
                   for _ in range(per_chunk)]
        for key in census_shapes for k in range(chunks)
    }
    F3 = ea.Field(3)
    random_homogeneous = mods["section_builder"].random_homogeneous
    if small:
        factor_shape = Shape(2, 1, 0)
        factors = [[random_homogeneous(2, 1, F3, rng) for _ in range(2)]]
    else:
        factor_shape = Shape(3, 2, 0)
        factors = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)] for _ in range(2)]
    smooth_seed = rng.randrange(2 ** 31)
    sample_seed = rng.randrange(2 ** 31)
    flagship = Shape(3, 2, 0) if small else Shape(4, 3, 0)
    sched = mods["schedule"].build_schedule(flagship, heart=2)
    F5 = ea.Field(5)
    state: dict = {}
    units: List[Unit] = []

    for key in census_shapes:
        units.append(Unit(
            f"census:{key}",
            _call(fg, "rank_condition_census", *key),
            lambda rep, k=key: _census_errors(rep, EXPECTED_CENSUS[k])))
    if not small:
        units.append(Unit(
            "census-sampled:(3, 3, 3)",
            _call(fg, "rank_condition_census", 3, 3, 3, mode="sample",
                  sample_size=20_000, seed=sample_seed),
            lambda rep: _census_errors(rep, None)
            + ([] if rep["mode"] == "sample" else ["census (3,3,3) not sampled"])))

    def agreement(key):
        def run():
            members = disagree = 0
            for M in matrices[key]:
                primary = fg.membership_M_ab(M)
                members += primary
                disagree += primary != fg.membership_M_ab_alt(M)
            return {"matrices": len(matrices[key]), "members": members,
                    "disagreements": disagree}
        return run

    for key in matrices:
        units.append(Unit(
            f"membership-agreement:{key[0]}#{key[1]}", agreement(key),
            lambda rep: [f"{rep['disagreements']} disagreements"]
            if rep["disagreements"] else []))

    def smoothness():
        state.pop("family", None)
        rep = fg.smoothness_with_resampling(flagship, "mcm", F5, schedule=sched,
                                            seed=smooth_seed, q=5, attempts=8)
        state["family"] = mods["section_builder"].build_sections(
            flagship, "mcm", field=F5, schedule=sched, seed=rep["family_seed"])
        return rep

    def crosscheck():
        fam = state["family"]
        total = 4 ** flagship.N * (5 ** flagship.N - 1) // 4
        return fg.characterization_crosscheck(fam, 5, sample=total, seed=seed)

    def crosscheck_errors(rep) -> List[str]:
        errors = [] if rep["ok"] else ["crosscheck not ok"]
        if rep["member_not_vanish"] != 0:
            errors.append(f"member_not_vanish = {rep['member_not_vanish']}")
        if rep["samples"] != rep["total_pairs"]:
            errors.append(f"crosscheck covered {rep['samples']} of {rep['total_pairs']} pairs")
        return errors

    units.append(Unit("smoothness", smoothness,
                      lambda rep: [] if rep["ok"] else ["no smooth family in 8 attempts"]))
    units.append(Unit("crosscheck", crosscheck, crosscheck_errors))
    units.append(Unit(
        "product-decomposition",
        _call(mods["product_coup"], "verify_product_decomposition",
              factors, factor_shape, 3),
        lambda rep: [] if rep["ok"] else ["decomposition mismatch"]))

    h = hashlib.sha256()
    for key, mats in matrices.items():
        h.update(repr([m.rows for m in mats]).encode())
    h.update(repr([[ea.to_literal(f) for f in fs] for fs in factors]).encode())
    h.update(f"{smooth_seed}:{sample_seed}".encode())
    return Workload("scan-fp", units, min_passes=2, units_per_pass=len(units),
                    inputs_digest=h.hexdigest())


_BUILDERS = {
    "pipeline-default": _pipeline,
    "certify-exact": _certify_exact,
    "certify-sampled": _certify_sampled,
    "scan-fp": _scan_fp,
}


def build(name: str, seed: int, mods: dict, small: bool = False) -> Workload:
    """Generate the named workload's inputs from the seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](seed, mods, small)
