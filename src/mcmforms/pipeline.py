"""Config-driven verification pipelines with deterministic reports.

A run parses an INI config (schema-versioned), executes the requested
stages in dependency order, and assembles a JSON-friendly report: identical
configs produce byte-identical canonical JSON once the timing block is
stripped. A config is checked in one place, when its RunConfig is built,
whether in Python, by config_from_dict (the inverse of RunConfig.to_dict)
or by parse_config, which fills that dict from the INI file; the stages
and run_pipeline only read it.

A run keeps one FamilyData holder in its context, for the family the
build stage made, and the smoothness stage replaces it with the holder of
a resampled family. The stages pass the holder as the family to the
verifiers and scans, so the bundle, each K_nu / K_tau_rho selection, the
gluing hypothesis, standard_forms and the walks of X(F_q) are each built
once per family. Nothing outlives the run.

Every FAIL or ERROR stage carries a witness: the stage, the run config
restricted to that stage, and the stage's own detail (the failing unit,
row and column, singular points, or census shape and count). replay reruns
the witness's config through run_pipeline, so a stage is replayed by the
code that ran it.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_algebra import Field
from .finite_geometry import (
    _resample_smooth,
    base_locus_scan,
    characterization_crosscheck,
    rank_condition_census,
    smoothness_check,
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
    FamilyData,
    build_sections,
    column_divisors,
    selection_layouts,
)
from .util import child_rng

SCHEMA_VERSION = 1

DEFAULT_CENSUS_SHAPES = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2))


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; defaults reproduce the desk-scale flagship
    shape N=4, c=3, r=0 over F_5 with master seed 1. Checked when built
    (the functions that read census shapes, heart and eps check those);
    an mcm config takes no lambdas or degrees, since no stage reads them,
    and a general_fermat config naming neither gets lambda_j = 2 and
    d_i = 2 + i."""

    shape: ProblemShape = dc_field(default_factory=lambda: ProblemShape(4, 3, 0))
    mode: str = "mcm"
    field_spec: str = "5"
    heart: int = 2
    eps: Optional[Tuple[int, ...]] = None
    lambdas: Optional[Tuple[int, ...]] = None
    degrees: Optional[Tuple[int, ...]] = None
    seed: int = 1
    stages: Tuple[str, ...] = dc_field(default_factory=lambda: STAGE_ORDER)
    max_points: int = 50_000
    # the most column tuples an exact census walks, else it samples; a walk
    # of 2**28 would take about 10 s (extrapolated, not timed; see README)
    max_census: int = 2 ** 28
    census_shapes: Tuple[Tuple[int, int, int], ...] = DEFAULT_CENSUS_SHAPES

    def __post_init__(self):
        if self.mode not in ("mcm", "general_fermat"):
            raise ValueError(f"unknown family mode {self.mode!r}")
        unknown = [s for s in self.stages if s not in STAGE_ORDER]
        if unknown:
            raise ValueError(f"unknown stages: {unknown}")
        if not self.stages:
            raise ValueError("config names no stage")
        self.field  # Field.from_spec refuses a bad spec
        low = [key for key in ("max_points", "max_census") if getattr(self, key) < 1]
        if low:
            raise ValueError(f"budget {' and '.join(low)} must be at least 1")
        if self.mode == "mcm" and (self.lambdas is not None or self.degrees is not None):
            raise ValueError("an mcm config takes no lambdas or degrees")
        if self.mode == "general_fermat":
            if (self.lambdas is None) != (self.degrees is None):
                raise ValueError("general_fermat needs both lambdas and degrees, or neither")
            if self.lambdas is None:
                object.__setattr__(self, "lambdas", (2,) * (self.shape.N + 1))
                object.__setattr__(self, "degrees", tuple(range(2, 2 + self.shape.c + self.shape.r)))

    @property
    def field(self) -> Field:
        return Field.from_spec(self.field_spec)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "shape": {"N": self.shape.N, "c": self.shape.c, "r": self.shape.r},
            "mode": self.mode,
            "field": self.field_spec,
            "heart": self.heart,
            "eps": None if self.eps is None else list(self.eps),
            "lambdas": None if self.lambdas is None else list(self.lambdas),
            "degrees": None if self.degrees is None else list(self.degrees),
            "seed": self.seed,
            "stages": list(self.stages),
            "budgets": {"max_points": self.max_points, "max_census": self.max_census},
            "census_shapes": [list(t) for t in self.census_shapes],
        }


def config_from_dict(d: dict) -> RunConfig:
    """The RunConfig that RunConfig.to_dict describes, stages in STAGE_ORDER.
    A wrong schema, a missing key and a value of the wrong type raise
    ValueError; RunConfig refuses the rest. Keys it does not read are
    ignored, so a witness written with retired budgets still replays."""
    if not isinstance(d, dict) or d.get("schema") != SCHEMA_VERSION:
        schema = d.get("schema") if isinstance(d, dict) else None
        raise ValueError(f"unsupported config schema {schema!r}, expected {SCHEMA_VERSION}")
    try:
        shape, budgets, stages = d["shape"], d["budgets"], tuple(d["stages"])
        missing = [key for key in ("N", "c", "r") if shape.get(key) is None]
        if missing:
            raise ValueError(f"config shape needs {' and '.join(missing)}")
        try:
            census_shapes = tuple((int(a), int(b), int(q)) for a, b, q in d["census_shapes"])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"config census_shapes must be triples of integers: {exc}") from exc

        def ints(xs):
            return None if xs is None else tuple(int(x) for x in xs)

        return RunConfig(
            shape=ProblemShape(*(int(shape[key]) for key in ("N", "c", "r"))),
            mode=d["mode"], field_spec=str(d["field"]), heart=int(d["heart"]),
            eps=ints(d["eps"]), lambdas=ints(d["lambdas"]), degrees=ints(d["degrees"]),
            seed=int(d["seed"]),
            stages=tuple(s for s in STAGE_ORDER if s in stages)
            + tuple(s for s in stages if s not in STAGE_ORDER),
            max_points=int(budgets["max_points"]), max_census=int(budgets["max_census"]),
            census_shapes=census_shapes)
    except KeyError as exc:
        raise ValueError(f"config has no {exc} entry") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc


# The sections and keys an INI config may hold (configparser lowercases keys).
_INI_KEYS = {"run": ("schema", "seed", "stages"), "shape": ("n", "c", "r"),
             "family": ("mode", "field", "heart", "eps", "lambdas", "degrees"),
             "budgets": ("max_points", "max_census"), "census": ("shapes",)}


def parse_config(text: str) -> RunConfig:
    """INI parser for run configs; every section optional except [run].
    An unknown section or key raises ValueError naming it. The sections
    fill in the default config's dict, which config_from_dict parses."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc
    for name in cp.sections():
        if name not in _INI_KEYS:
            raise ValueError(f"config has an unknown section [{name}]")
        unknown = [key for key in cp[name] if key not in _INI_KEYS[name]]
        if unknown:
            raise ValueError(f"config section [{name}] has unknown keys {unknown}")
    if "run" not in cp:
        raise ValueError("config needs a [run] section")
    d = RunConfig().to_dict()
    run = cp["run"]
    d["schema"] = run.getint("schema", fallback=None)
    d["seed"] = run.getint("seed", fallback=d["seed"])
    if "stages" in run:
        d["stages"] = run["stages"].split()
    if "shape" in cp:
        sec = cp["shape"]
        d["shape"] = {"N": sec.getint("N"), "c": sec.getint("c"), "r": sec.getint("r", fallback=0)}
    if "family" in cp:
        sec = cp["family"]
        d["mode"] = sec.get("mode", fallback=d["mode"])
        d["field"] = sec.get("field", fallback=d["field"])
        d["heart"] = sec.getint("heart", fallback=d["heart"])
        for key in ("eps", "lambdas", "degrees"):
            if key in sec:
                d[key] = sec[key].split()
    if "budgets" in cp:
        for key, value in d["budgets"].items():
            d["budgets"][key] = cp["budgets"].getint(key, fallback=value)
    if "census" in cp and "shapes" in cp["census"]:
        d["census_shapes"] = [chunk.split() for chunk in cp["census"]["shapes"].split(";")]
    return config_from_dict(d)


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


# ----- family construction -----


def build_family(cfg: RunConfig, seed: int):
    """Build the family cfg describes (shape, mode, field, heart, eps,
    lambdas, degrees) from the family seed `seed`; pipeline runs and `mcm
    build` both construct families here."""
    if cfg.mode == "mcm":
        sched = build_schedule(cfg.shape, heart=cfg.heart, eps=cfg.eps)
        return build_sections(cfg.shape, "mcm", field=cfg.field, schedule=sched, seed=seed)
    return build_sections(cfg.shape, "general_fermat", field=cfg.field,
                          lambdas=cfg.lambdas, degrees=cfg.degrees, seed=seed)


# ----- stage implementations -----
#
# Each stage returns (status, report, detail): detail is None unless the
# stage FAILs, and then holds what failed (a unit, a row and column, points,
# a census shape). run_pipeline turns it into the stage's witness.


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
    fam = build_family(cfg, fam_seed)
    ctx["data"] = FamilyData(fam)
    report = {
        "family_seed": fam_seed,
        "sections": len(fam.sections),
        "degrees": list(fam.section_degrees()),
        "term_counts": [F.term_count() for F in fam.sections],
    }
    return "PASS", report, None


def _all_divisors(data: FamilyData) -> int:
    fam = data.family
    if fam.mode == "mcm":
        return sum(len(column_divisors(data.selected((kind,) + params)))
                   for kind, params, _ in selection_layouts(fam.shape.N))
    return len(column_divisors(data.matrices))


def _stage_divisibility(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    columns = 0
    try:
        columns = _all_divisors(ctx["data"])
    except DivisibilityClaimFailed as exc:
        return ("FAIL", {"columns_verified": columns, "error": str(exc)},
                {"row": exc.row, "col": exc.col})
    return "PASS", {"columns_verified": columns}, None


def _run_units(units: List[dict], check, describe, **extra) -> Tuple[str, dict, Optional[dict]]:
    """The unit loop of the gluing and transition stages: check(u) is the
    verifier's report on unit u, describe(u, rep) its entry in the stage
    report. Stops at the first unit that fails, whose entry is the detail;
    SKIPs when every check of every unit skipped."""
    report = dict(extra, units=[])
    skipped = 0
    for idx, u in enumerate(units):
        rep = check(u)
        verdicts = [c["verdict"] for c in rep["checks"]]
        skipped += all(v == "skip" for v in verdicts)
        report["units"].append(dict(describe(u, rep), unit=idx, ok=rep["ok"],
                                    verdicts=verdicts))
        if not rep["ok"]:
            return "FAIL", report, {"unit": report["units"][-1]}
    if skipped == len(units):
        return "SKIP", dict(report, reason="characteristic guard"), None
    return "PASS", report, None


def _glue_units(fam) -> List[dict]:
    """One unit per layout, at charts (0, 1): the gluing hypothesis does not
    depend on the charts, so another pair would repeat the same check."""
    shape = fam.shape
    whichs = ((("K_nu", 0), ("K_nu", shape.N), ("K_tau_rho", 0, 1)) if fam.mode == "mcm"
              else (None,))
    return [{"which": which, "selection": tuple(range(1, shape.n + 1)), "j1": 0, "j2": 1}
            for which in whichs]


def _stage_gluing(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    data = ctx["data"]
    return _run_units(
        _glue_units(data.family),
        lambda u: verify_gluing(data, u["selection"], u["j1"], u["j2"], which=u["which"]),
        lambda u, rep: {"which": list(u["which"]) if u["which"] else None,
                        "j1": u["j1"], "j2": u["j2"]},
        mode="exact")


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
    data = ctx["data"]
    return _run_units(
        _transition_units(data.family),
        lambda u: verify_transition(data, u["selection"], u["omit"], u["l1"], u["l2"],
                                    which=u["which"], kind=u["kind"]),
        lambda u, rep: {"omit": u["omit"], "charts": [u["l1"], u["l2"]],
                        "mode": rep.get("mode")})


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
    return "FAIL", report, {"entries": [
        {"eta": e.eta, "kind": e.kind, "tau": e.tau, "selection": list(e.selection),
         "value": e.value, "bound": e.bound} for e in bad]}


def _stage_smoothness(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    q = cfg.field.p
    if q == 0:
        return "SKIP", {"reason": "rational field: no finite scan"}, None
    # base-locus and the crosscheck, which also enumerate P^N(F_q), depend on this stage
    points = (q ** (cfg.shape.N + 1) - 1) // (q - 1)
    if points > cfg.max_points:
        return "SKIP", {"reason": f"point budget: {points} > {cfg.max_points}"}, None
    data = ctx["data"]
    fam = data.family
    first = smoothness_check(data, q)
    if first["ok"]:
        return "PASS", dict(first, attempt=0, family_seed=fam.seed), None
    # the resampler's own family, which build_family(cfg, rep["family_seed"]) rebuilds
    rep, resampled = _resample_smooth(fam.shape, fam.mode, fam.field,
                                      schedule=fam.schedule, seed=cfg.seed, q=q,
                                      lambdas=fam.lambdas, degrees=fam.degrees)
    if rep["ok"]:
        ctx["data"] = resampled  # one holder at a time: the built family's goes
        return "PASS", rep, None
    # the last resample's seed and points, as in the report
    return "FAIL", rep, {"family_seed": rep["family_seed"], "singular": rep["singular"][:3]}


def _stage_base_locus(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    data = ctx["data"]
    forms = data.forms
    rep = base_locus_scan(data, forms, cfg.field.p)
    rep["forms"] = len(forms)
    rep["form_inventory"] = [
        {"kind": f.kind, "twist": f.twist, "dz_degree": f.dz_degree} for f in forms]
    if rep["ok"]:
        return "PASS", rep, None
    return "FAIL", rep, {"singular_tangent": rep["singular_tangent"][:3]}


def _stage_crosscheck(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    data = ctx["data"]
    if data.family.mode != "mcm":
        return "SKIP", {"reason": "crosscheck needs an mcm family"}, None
    if data.family.shape.n != 1:
        return "SKIP", {"reason": "crosscheck needs an n = 1 family"}, None
    # every incidence pair, the pairs base-locus visits
    rep = characterization_crosscheck(data, cfg.field.p)
    if rep["ok"]:
        return "PASS", rep, None
    return "FAIL", rep, {"disagreements": rep["disagreements"][:3]}


def _stage_census(cfg: RunConfig, ctx: dict) -> Tuple[str, dict, Optional[dict]]:
    results = [rank_condition_census(a, b, q, budget=cfg.max_census, seed=cfg.seed)
               for a, b, q in cfg.census_shapes]
    failed = next((rep for rep in results if not rep["ok"]), None)
    report = {"censuses": results, "all_pass": failed is None}
    if failed is None:
        return "PASS", report, None
    return "FAIL", report, {key: failed[key] for key in ("a", "b", "q", "mode", "count")}


# Each stage once, in run order: its function and the stages it needs.
STAGES = {
    "schedule": (_stage_schedule, ()),
    "build": (_stage_build, ("schedule",)),
    "divisibility": (_stage_divisibility, ("build",)),
    "gluing": (_stage_gluing, ("build",)),
    "transition": (_stage_transition, ("build",)),
    "twist-ledger": (_stage_twist_ledger, ("schedule",)),
    "smoothness": (_stage_smoothness, ("build",)),
    "base-locus": (_stage_base_locus, ("build", "smoothness")),
    "crosscheck": (_stage_crosscheck, ("build", "smoothness")),
    "census": (_stage_census, ()),
}
STAGE_ORDER = tuple(STAGES)


def _expand_stages(wanted: Sequence[str]) -> List[str]:
    needed = set()

    def add(stage: str):
        if stage in needed:
            return
        for dep in STAGES[stage][1]:
            add(dep)
        needed.add(stage)

    for s in wanted:
        add(s)
    return [s for s in STAGE_ORDER if s in needed]


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the configured stages in dependency order.

    A failing or skipped stage halts its dependents (recorded as SKIP with
    the blocking stage named) but not independent stages; the overall
    verdict is ok iff no executed stage FAILs or ERRORs. Over F_q with
    more than max_points points in P^N, smoothness SKIPs with its point
    budget as the reason, which blocks base-locus and the crosscheck. The
    stages only read cfg, and the report's config block is cfg.to_dict().

    Every FAIL or ERROR entry holds a witness: the schema, the stage, the
    run config restricted to that stage (`config`, as RunConfig.to_dict
    writes it) and the stage's detail, or the error message.
    """
    stages = _expand_stages(cfg.stages)
    ctx: dict = {}
    stage_reports: Dict[str, dict] = {}
    timings: Dict[str, float] = {}
    for i, name in enumerate(stages):
        fn, deps = STAGES[name]
        if not any(STAGES[s][1] for s in stages[i:]):
            # a stage reads only what its dependencies left in ctx: drop the
            # run's holder before the census
            ctx.clear()
        blockers = [d for d in deps
                    if stage_reports.get(d, {}).get("status") in ("FAIL", "SKIP", "ERROR")]
        if blockers:
            stage_reports[name] = {"status": "SKIP",
                                   "reason": f"blocked by {blockers[0]}"}
            continue
        t0 = time.perf_counter()
        try:
            status, report, detail = fn(cfg, ctx)
        except Exception as exc:
            status, report = "ERROR", {"error": f"{type(exc).__name__}: {exc}"}
            detail = report
        timings[name] = round(time.perf_counter() - t0, 6)
        entry = {"status": status, "report": report}
        if status == "SKIP" and "reason" in report:
            entry["reason"] = report["reason"]
        if status in ("FAIL", "ERROR"):
            entry["witness"] = dict(detail or {}, schema=SCHEMA_VERSION, stage=name,
                                    config=replace(cfg, stages=(name,)).to_dict())
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


def replay(witness: dict) -> dict:
    """Rerun the stage a witness names, with its dependencies, through
    run_pipeline on the witness's config.

    Returns {"op": "replay", "replayed": stage, "ok"} merged with the
    stage's entry in the run (status, report and, on FAIL or ERROR, the
    new witness); ok is the run's verdict. A witness of another schema, of
    no known stage, or without a config that runs exactly its stage (the
    old format named a family and a unit instead) raises ValueError.
    """
    if not isinstance(witness, dict) or witness.get("schema") != SCHEMA_VERSION:
        schema = witness.get("schema") if isinstance(witness, dict) else None
        raise ValueError(f"stale witness: schema {schema!r} != {SCHEMA_VERSION}")
    stage = witness.get("stage")
    if stage not in STAGE_ORDER:
        raise ValueError(f"witness names no replayable stage: {stage!r}")
    if "config" not in witness:
        raise ValueError("witness holds no run config (an old-format witness)")
    cfg = config_from_dict(witness["config"])
    if cfg.stages != (stage,):
        raise ValueError(f"witness config runs stages {list(cfg.stages)}, not [{stage!r}]")
    report = run_pipeline(cfg)
    return {"op": "replay", "replayed": stage, "ok": report["ok"], **report["stages"][stage]}
