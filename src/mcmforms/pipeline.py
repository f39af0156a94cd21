"""Config-driven verification pipelines with deterministic reports.

A run parses an INI config (schema-versioned), executes the requested
stages in dependency order, and assembles a JSON-friendly report: identical
configs produce byte-identical canonical JSON once the timing block is
stripped. Every failing stage carries a witness with the seeds and indices
needed to replay exactly that unit.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_algebra import Field
from .finite_geometry import (
    base_locus_scan,
    characterization_crosscheck,
    rank_condition_census,
    smoothness_check,
    smoothness_with_resampling,
)
from .identity_verifier import verify_gluing, verify_transition
from .schedule import (
    ProblemShape,
    build_schedule,
    effective_bound_report,
    schedule_to_dict,
    twist_ledger,
    validate_schedule,
)
from .section_builder import (
    DivisibilityClaimFailed,
    build_matrices,
    build_sections,
    column_divisors,
    selection_layouts,
    standard_forms,
)
from .util import child_rng

SCHEMA_VERSION = 1

STAGE_ORDER = (
    "schedule",
    "build",
    "divisibility",
    "gluing",
    "transition",
    "twist-ledger",
    "smoothness",
    "base-locus",
    "crosscheck",
    "census",
)

STAGE_DEPS = {
    "schedule": (),
    "build": ("schedule",),
    "divisibility": ("build",),
    "gluing": ("build",),
    "transition": ("build",),
    "twist-ledger": ("schedule",),
    "smoothness": ("build",),
    "base-locus": ("build", "smoothness"),
    "crosscheck": ("build", "smoothness"),
    "census": (),
}

DEFAULT_CENSUS_SHAPES = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2))


@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the desk-scale flagship
    shape N=4, c=3, r=0 over F_5 with master seed 1."""

    shape: ProblemShape = dc_field(default_factory=lambda: ProblemShape(4, 3, 0))
    mode: str = "mcm"
    field_spec: str = "5"
    heart: int = 2
    eps: Optional[Tuple[int, ...]] = None
    lambdas: Optional[Tuple[int, ...]] = None
    degrees: Optional[Tuple[int, ...]] = None
    seed: int = 1
    stages: Tuple[str, ...] = STAGE_ORDER
    max_terms: int = 100_000
    max_points: int = 50_000
    max_census: int = 2 ** 28
    crosscheck_sample: int = 10_000
    census_shapes: Tuple[Tuple[int, int, int], ...] = DEFAULT_CENSUS_SHAPES

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "shape": {"N": self.shape.N, "c": self.shape.c, "r": self.shape.r},
            "mode": self.mode,
            "field": self.field_spec,
            "heart": self.heart,
            "eps": list(self.eps) if self.eps else None,
            "lambdas": list(self.lambdas) if self.lambdas else None,
            "degrees": list(self.degrees) if self.degrees else None,
            "seed": self.seed,
            "stages": list(self.stages),
            "budgets": {
                "max_terms": self.max_terms,
                "max_points": self.max_points,
                "max_census": self.max_census,
                "crosscheck_sample": self.crosscheck_sample,
            },
            "census_shapes": [list(t) for t in self.census_shapes],
        }


def parse_config(text: str) -> RunConfig:
    """INI parser for run configs; every section optional except [run]."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc
    if "run" not in cp:
        raise ValueError("config needs a [run] section")
    run = cp["run"]
    schema = run.getint("schema", fallback=None)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {schema!r}, expected {SCHEMA_VERSION}")
    cfg = RunConfig()
    cfg.seed = run.getint("seed", fallback=cfg.seed)
    if "stages" in run:
        wanted = run["stages"].split()
        unknown = [s for s in wanted if s not in STAGE_ORDER]
        if unknown:
            raise ValueError(f"unknown stages: {unknown}")
        cfg.stages = tuple(s for s in STAGE_ORDER if s in wanted)
    if "shape" in cp:
        sec = cp["shape"]
        cfg.shape = ProblemShape(sec.getint("N"), sec.getint("c"), sec.getint("r", fallback=0))
    if "family" in cp:
        sec = cp["family"]
        cfg.mode = sec.get("mode", fallback=cfg.mode)
        cfg.field_spec = sec.get("field", fallback=cfg.field_spec)
        cfg.heart = sec.getint("heart", fallback=cfg.heart)
        for key in ("eps", "lambdas", "degrees"):
            if key in sec:
                setattr(cfg, key, tuple(int(x) for x in sec[key].split()))
    if "budgets" in cp:
        sec = cp["budgets"]
        cfg.max_terms = sec.getint("max_terms", fallback=cfg.max_terms)
        cfg.max_points = sec.getint("max_points", fallback=cfg.max_points)
        cfg.max_census = sec.getint("max_census", fallback=cfg.max_census)
        cfg.crosscheck_sample = sec.getint("crosscheck_sample", fallback=cfg.crosscheck_sample)
    if "census" in cp and "shapes" in cp["census"]:
        trips = []
        for chunk in cp["census"]["shapes"].split(";"):
            a, b, q = (int(x) for x in chunk.split())
            trips.append((a, b, q))
        cfg.census_shapes = tuple(trips)
    return cfg


def default_config_text() -> str:
    return (
        "[run]\n"
        f"schema = {SCHEMA_VERSION}\n"
        "seed = 1\n\n"
        "[shape]\n"
        "N = 4\n"
        "c = 3\n"
        "r = 0\n\n"
        "[family]\n"
        "mode = mcm\n"
        "field = 5\n"
        "heart = 2\n"
    )


# ----- family (re)construction shared by run and replay -----


def _family_params(cfg: RunConfig, fam_seed: int) -> dict:
    return {
        "shape": [cfg.shape.N, cfg.shape.c, cfg.shape.r],
        "mode": cfg.mode,
        "field": cfg.field_spec,
        "heart": cfg.heart,
        "eps": list(cfg.eps) if cfg.eps else None,
        "lambdas": list(cfg.lambdas) if cfg.lambdas else None,
        "degrees": list(cfg.degrees) if cfg.degrees else None,
        "seed": fam_seed,
    }


def build_family(params: dict):
    """Build the family a witness `family` dict describes; runs, replays
    and `mcm build` all construct families here."""
    shape = ProblemShape(*params["shape"])
    field = Field.from_spec(params["field"])
    if params["mode"] == "mcm":
        sched = build_schedule(shape, heart=params["heart"], eps=params.get("eps"))
        return build_sections(shape, "mcm", field=field, schedule=sched,
                              seed=params["seed"])
    return build_sections(shape, "general_fermat", field=field,
                          lambdas=params["lambdas"], degrees=params["degrees"],
                          seed=params["seed"])


def _default_lambdas_degrees(shape: ProblemShape) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    lambdas = (2,) * (shape.N + 1)
    degrees = tuple(2 + i for i in range(shape.c + shape.r))
    return lambdas, degrees


# ----- stage implementations -----


def _selected_whichs(shape: ProblemShape) -> List[Tuple]:
    whichs: List[Tuple] = [("K_nu", 0), ("K_nu", shape.N)]
    whichs.append(("K_tau_rho", 0, 1))
    return whichs


def _stage_schedule(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    sched = build_schedule(cfg.shape, heart=cfg.heart, eps=cfg.eps)
    ctx["schedule"] = sched
    validation = validate_schedule(sched)
    bound = effective_bound_report(sched)
    report = {
        "schedule": schedule_to_dict(sched),
        "validation_ok": validation["ok"],
        "checks": len(validation["checks"]),
        "effective_bound": bound,
    }
    if validation["ok"]:
        return "PASS", report, None
    bad = [c for c in validation["checks"] if not c["ok"]][:3]
    return "FAIL", report, {"failed_checks": bad}


def _stage_build(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fam_seed = child_rng(cfg.seed, "build", 0).randrange(2 ** 31)
    if cfg.mode != "mcm" and (cfg.lambdas is None or cfg.degrees is None):
        # the report's config block echoes the defaulted exponents
        cfg.lambdas, cfg.degrees = _default_lambdas_degrees(cfg.shape)
    ctx["family_params"] = _family_params(cfg, fam_seed)
    fam = ctx["family"] = build_family(ctx["family_params"])
    terms = [F.term_count() for F in fam.sections]
    ctx["terms_ok"] = max(terms) <= cfg.max_terms
    report = {
        "family_seed": fam_seed,
        "sections": len(fam.sections),
        "degrees": [F.z_degree() for F in fam.sections],
        "term_counts": terms,
        "within_term_budget": ctx["terms_ok"],
    }
    return "PASS", report, None


def _all_divisors(fam, K) -> int:
    if fam.mode == "mcm":
        return sum(len(column_divisors(K, (kind,) + params))
                   for kind, params, _ in selection_layouts(fam.shape.N))
    return len(column_divisors(K))


def _stage_divisibility(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fam = ctx["family"]
    K = build_matrices(fam)
    ctx["K"] = K
    columns = 0
    try:
        columns = _all_divisors(fam, K)
    except DivisibilityClaimFailed as exc:
        witness = {"schema": SCHEMA_VERSION, "stage": "divisibility",
                   "family": ctx["family_params"],
                   "row": exc.row, "col": exc.col}
        return "FAIL", {"columns_verified": columns, "error": str(exc)}, witness
    return "PASS", {"columns_verified": columns}, None


def _glue_units(fam) -> List[dict]:
    shape = fam.shape
    sel = tuple(range(1, shape.n + 1))
    if fam.mode == "mcm":
        return [{"which": which, "selection": sel, "j1": j1, "j2": j2}
                for which in _selected_whichs(shape) for j1, j2 in ((0, 1), (1, shape.N))]
    return [{"which": None, "selection": sel, "j1": 0, "j2": j2} for j2 in (1, shape.N)]


def _stage_gluing(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fam = ctx["family"]
    if not ctx.get("terms_ok", True):
        return "SKIP", {"reason": "term budget exceeded"}, None
    mode = "exact"
    if fam.mode == "general_fermat" and cfg.shape.N >= 4:
        mode = "probabilistic"
    units = _glue_units(fam)
    sub = []
    skipped = 0
    for idx, u in enumerate(units):
        rep = verify_gluing(fam, u["selection"], u["j1"], u["j2"],
                            which=u["which"], mode=mode, seed=cfg.seed)
        verdicts = [c["verdict"] for c in rep["checks"]]
        if all(v == "skip" for v in verdicts):
            skipped += 1
        sub.append({"unit": idx, "which": list(u["which"]) if u["which"] else None,
                    "j1": u["j1"], "j2": u["j2"], "ok": rep["ok"],
                    "verdicts": verdicts})
        if not rep["ok"]:
            witness = {"schema": SCHEMA_VERSION, "stage": "gluing",
                       "family": ctx["family_params"],
                       "unit": {"which": list(u["which"]) if u["which"] else None,
                                "selection": list(u["selection"]),
                                "j1": u["j1"], "j2": u["j2"]},
                       "mode": mode, "seed": cfg.seed}
            return "FAIL", {"mode": mode, "units": sub}, witness
    if skipped == len(units):
        return "SKIP", {"reason": "characteristic guard", "mode": mode,
                        "units": sub}, None
    return "PASS", {"mode": mode, "units": sub}, None


def _transition_units(fam) -> List[dict]:
    shape = fam.shape
    sel = tuple(range(1, shape.n + 1))
    if fam.mode == "mcm":
        return [
            {"which": ("K_nu", 0), "selection": sel, "omit": 0, "l1": 0, "l2": 1,
             "kind": None},
            {"which": ("K_tau_rho", 0, 1), "selection": sel, "omit": 1, "l1": 0,
             "l2": shape.N, "kind": None},
        ]
    return [
        {"which": None, "selection": sel, "omit": 0, "l1": 0, "l2": 1, "kind": "psi"},
        {"which": None, "selection": sel, "omit": shape.N, "l1": 0, "l2": 1,
         "kind": "omega"},
    ]


def _stage_transition(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fam = ctx["family"]
    if not ctx.get("terms_ok", True):
        return "SKIP", {"reason": "term budget exceeded"}, None
    units = _transition_units(fam)
    sub = []
    skipped = 0
    for idx, u in enumerate(units):
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode="auto", which=u["which"], kind=u["kind"],
                                seed=cfg.seed)
        verdicts = [c["verdict"] for c in rep["checks"]]
        if all(v == "skip" for v in verdicts):
            skipped += 1
        sub.append({"unit": idx, "omit": u["omit"], "charts": [u["l1"], u["l2"]],
                    "ok": rep["ok"], "mode": rep.get("mode"), "verdicts": verdicts})
        if not rep["ok"]:
            witness = {"schema": SCHEMA_VERSION, "stage": "transition",
                       "family": ctx["family_params"],
                       "unit": {"which": list(u["which"]) if u["which"] else None,
                                "selection": list(u["selection"]), "omit": u["omit"],
                                "l1": u["l1"], "l2": u["l2"], "kind": u["kind"]},
                       "seed": cfg.seed}
            return "FAIL", {"units": sub}, witness
    if skipped == len(units):
        return "SKIP", {"reason": "characteristic guard", "units": sub}, None
    return "PASS", {"units": sub}, None


def _stage_twist_ledger(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    ledger = twist_ledger(ctx["schedule"])
    worst = max((e.value - e.bound) for e in ledger.entries)
    report = {
        "entries": len(ledger.entries),
        "all_within_bound": ledger.ok,
        "worst_slack": worst,
        "tight_entries": sum(1 for e in ledger.entries if e.tight),
    }
    if ledger.ok:
        return "PASS", report, None
    bad = [e for e in ledger.entries if not e.ok][:3]
    witness = {"schema": SCHEMA_VERSION, "stage": "twist-ledger",
               "entries": [{"eta": e.eta, "kind": e.kind, "tau": e.tau,
                            "selection": list(e.selection), "value": e.value,
                            "bound": e.bound} for e in bad]}
    return "FAIL", report, witness


def _stage_smoothness(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fld = Field.from_spec(cfg.field_spec)
    if fld.p == 0:
        return "SKIP", {"reason": "rational field: no finite scan"}, None
    fam = ctx["family"]
    first = smoothness_check(fam, fld.p)
    if first["ok"]:
        ctx["scan_family"] = fam
        ctx["scan_family_params"] = ctx["family_params"]
        report = dict(first)
        report["attempt"] = 0
        report["family_seed"] = ctx["family_params"]["seed"]
        return "PASS", report, None
    rep = smoothness_with_resampling(
        cfg.shape, cfg.mode, fld,
        schedule=ctx.get("schedule") if cfg.mode == "mcm" else None,
        seed=cfg.seed, q=fld.p,
        **({} if cfg.mode == "mcm" else
           {"lambdas": cfg.lambdas, "degrees": cfg.degrees}),
    )
    if rep["ok"]:
        params = dict(ctx["family_params"])
        params["seed"] = rep["family_seed"]
        ctx["scan_family"] = build_family(params)
        ctx["scan_family_params"] = params
        return "PASS", rep, None
    witness = {"schema": SCHEMA_VERSION, "stage": "smoothness",
               "family": ctx["family_params"], "q": fld.p,
               "singular": rep["singular"][:3]}
    return "FAIL", rep, witness


def _stage_base_locus(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    q = Field.from_spec(cfg.field_spec).p
    if not ctx.get("terms_ok", True):
        return "SKIP", {"reason": "term budget exceeded"}, None
    forms = standard_forms(ctx["scan_family"])
    rep = base_locus_scan(ctx["scan_family"], forms, q)
    rep["forms"] = len(forms)
    rep["form_inventory"] = [
        {"kind": f.kind, "twist": f.twist, "dz_degree": f.dz_degree,
         "terms": f.term_count()} for f in forms]
    if rep["ok"]:
        return "PASS", rep, None
    witness = {"schema": SCHEMA_VERSION, "stage": "base-locus",
               "family": ctx["scan_family_params"], "q": q,
               "singular_tangent": rep["singular_tangent"][:3]}
    return "FAIL", rep, witness


def _stage_crosscheck(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    fam = ctx["scan_family"]
    if fam.mode != "mcm":
        return "SKIP", {"reason": "crosscheck needs an mcm family"}, None
    if fam.shape.n != 1:
        return "SKIP", {"reason": "crosscheck needs an n = 1 family"}, None
    q = Field.from_spec(cfg.field_spec).p
    rep = characterization_crosscheck(fam, q, sample=cfg.crosscheck_sample,
                                      seed=cfg.seed)
    if rep["ok"]:
        return "PASS", rep, None
    witness = {"schema": SCHEMA_VERSION, "stage": "crosscheck",
               "family": ctx["scan_family_params"], "q": q,
               "sample": cfg.crosscheck_sample, "seed": cfg.seed,
               "disagreements": rep["disagreements"][:3]}
    return "FAIL", rep, witness


def _stage_census(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    results = []
    failed = None
    for a, b, q in cfg.census_shapes:
        rep = rank_condition_census(a, b, q, budget=cfg.max_census, seed=cfg.seed)
        results.append(rep)
        if not rep["ok"] and failed is None:
            failed = rep
    report = {"censuses": results, "all_pass": failed is None}
    if failed is None:
        return "PASS", report, None
    witness = {"schema": SCHEMA_VERSION, "stage": "census",
               "a": failed["a"], "b": failed["b"], "q": failed["q"],
               "mode": failed["mode"], "seed": cfg.seed,
               "budget": cfg.max_census, "count": failed["count"]}
    return "FAIL", report, witness


def _point_budget(cfg: RunConfig) -> Optional[str]:
    """The SKIP reason of a stage that enumerates P^N(F_q) when its point
    count is over max_points; None within budget or over Q."""
    q = Field.from_spec(cfg.field_spec).p
    if not q:
        return None
    total = (q ** (cfg.shape.N + 1) - 1) // (q - 1)
    return f"point budget: {total} > {cfg.max_points}" if total > cfg.max_points else None


# The stages that enumerate P^N(F_q), each held to max_points.
_POINT_SCANS = ("smoothness", "base-locus", "crosscheck")

_STAGE_FNS = {
    "schedule": _stage_schedule,
    "build": _stage_build,
    "divisibility": _stage_divisibility,
    "gluing": _stage_gluing,
    "transition": _stage_transition,
    "twist-ledger": _stage_twist_ledger,
    "smoothness": _stage_smoothness,
    "base-locus": _stage_base_locus,
    "crosscheck": _stage_crosscheck,
    "census": _stage_census,
}


def _expand_stages(wanted: Sequence[str]) -> List[str]:
    needed = set()

    def add(stage: str):
        if stage in needed:
            return
        for dep in STAGE_DEPS[stage]:
            add(dep)
        needed.add(stage)

    for s in wanted:
        add(s)
    return [s for s in STAGE_ORDER if s in needed]


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the configured stages in dependency order.

    A failing or skipped stage halts its dependents (recorded as SKIP with
    the blocking stage named) but not independent stages; the overall
    verdict is ok iff no executed stage FAILs. A point scan (_POINT_SCANS)
    over max_points SKIPs with its point budget as the reason, unless a
    dependency FAILed or ERRORed. The stages run on a copy of
    cfg, so the caller's config is left as given while the report's config
    block echoes the defaults the run filled in.
    """
    cfg = replace(cfg)
    stages = _expand_stages(cfg.stages)
    ctx: dict = {}
    stage_reports: Dict[str, dict] = {}
    timings: Dict[str, float] = {}
    for name in stages:
        blockers = [d for d in STAGE_DEPS[name]
                    if stage_reports.get(d, {}).get("status") in ("FAIL", "SKIP", "ERROR")]
        over = None
        if name in _POINT_SCANS and all(stage_reports[d]["status"] == "SKIP" for d in blockers):
            over = _point_budget(cfg)
        if over:
            stage_reports[name] = {"status": "SKIP", "report": {"reason": over}, "reason": over}
            continue
        if blockers:
            stage_reports[name] = {"status": "SKIP",
                                   "reason": f"blocked by {blockers[0]}"}
            continue
        t0 = time.perf_counter()
        try:
            status, report, witness = _STAGE_FNS[name](cfg, ctx)
        except Exception as exc:  # pragma: no cover - defensive
            status, report = "ERROR", {"error": f"{type(exc).__name__}: {exc}"}
            witness = {"schema": SCHEMA_VERSION, "stage": name,
                       "error": str(exc), "seed": cfg.seed}
        timings[name] = round(time.perf_counter() - t0, 6)
        entry = {"status": status, "report": report}
        if status == "SKIP" and "reason" in report:
            entry["reason"] = report["reason"]
        if witness is not None:
            entry["witness"] = witness
        stage_reports[name] = entry
    ok = all(e["status"] not in ("FAIL", "ERROR") for e in stage_reports.values())
    return {
        "op": "run",
        "schema": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "stages": stage_reports,
        "ok": ok,
        "timings": timings,
    }


def report_to_json(report: dict) -> str:
    """Canonical JSON: sorted keys, newline-terminated."""
    return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


# ----- replay -----


def replay(witness: dict) -> dict:
    """Re-run exactly the unit recorded in a failure witness."""
    if witness.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"stale witness: schema {witness.get('schema')!r} != {SCHEMA_VERSION}")
    stage = witness.get("stage")
    if stage == "census":
        rep = rank_condition_census(witness["a"], witness["b"], witness["q"],
                                budget=witness.get("budget", 2 ** 28),
                                seed=witness.get("seed", 0))
        rep["replayed"] = "census"
        return rep
    if stage == "gluing":
        fam = build_family(witness["family"])
        u = witness["unit"]
        rep = verify_gluing(fam, tuple(u["selection"]), u["j1"], u["j2"],
                            which=tuple(u["which"]) if u.get("which") else None,
                            mode=witness.get("mode", "exact"),
                            seed=witness.get("seed", 0))
        rep["replayed"] = "gluing"
        return rep
    if stage == "transition":
        fam = build_family(witness["family"])
        u = witness["unit"]
        rep = verify_transition(fam, tuple(u["selection"]), u["omit"], u["l1"],
                                u["l2"], which=tuple(u["which"]) if u.get("which") else None,
                                kind=u.get("kind"), seed=witness.get("seed", 0))
        rep["replayed"] = "transition"
        return rep
    if stage == "divisibility":
        fam = build_family(witness["family"])
        K = build_matrices(fam)
        try:
            columns = _all_divisors(fam, K)
            rep = {"ok": True, "columns_verified": columns}
        except DivisibilityClaimFailed as exc:
            rep = {"ok": False, "row": exc.row, "col": exc.col, "error": str(exc)}
        rep["replayed"] = "divisibility"
        return rep
    if stage == "smoothness":
        fam = build_family(witness["family"])
        rep = smoothness_check(fam, witness["q"])
        rep["replayed"] = "smoothness"
        return rep
    if stage == "crosscheck":
        fam = build_family(witness["family"])
        rep = characterization_crosscheck(fam, witness["q"],
                                          sample=witness.get("sample", 10_000),
                                          seed=witness.get("seed", 0))
        rep["replayed"] = "crosscheck"
        return rep
    raise ValueError(f"witness names no replayable stage: {stage!r}")
