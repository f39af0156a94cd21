"""Tests for the config-driven pipeline and the command line tool."""

import dataclasses
import hashlib
import json
import re
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_reports import legacy_pipeline

from mcmforms import finite_geometry, pipeline, section_builder
from mcmforms.cli import main
from mcmforms.pipeline import (
    RunConfig,
    SCHEMA_VERSION,
    STAGES,
    STAGE_ORDER,
    _expand_stages,
    _glue_units,
    _transition_units,
    build_family,
    config_from_dict,
    default_config_text,
    parse_config,
    replay,
    report_to_json,
    run_pipeline,
    strip_timings,
)
from mcmforms.finite_geometry import smoothness_check
from mcmforms.schedule import ProblemShape
from mcmforms.section_builder import FamilyData, FormBundle, load_family
from test_finite_geometry import incidence_faults


def small_config(**overrides) -> RunConfig:
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), seed=3,
                    census_shapes=((2, 2, 2), (2, 3, 2)))
    return dataclasses.replace(cfg, **overrides)


# ----- config parsing -----


def test_parse_default_config_round_trip():
    cfg = parse_config(default_config_text())
    assert cfg.shape == ProblemShape(4, 3, 0)
    assert cfg.mode == "mcm"
    assert cfg.field_spec == "5"
    assert cfg.seed == 1
    assert cfg.stages == STAGE_ORDER


def test_parse_config_sections():
    text = """
[run]
schema = 1
seed = 17
stages = schedule twist-ledger census

[shape]
N = 3
c = 2
r = 0

[family]
mode = general_fermat
field = 101
lambdas = 2 2 2 2
degrees = 3 4

[budgets]
max_census = 1024

[census]
shapes = 2 2 2; 2 3 2
"""
    cfg = parse_config(text)
    assert cfg.seed == 17
    assert cfg.stages == ("schedule", "twist-ledger", "census")
    assert cfg.shape == ProblemShape(3, 2, 0)
    assert cfg.mode == "general_fermat"
    assert cfg.lambdas == (2, 2, 2, 2)
    assert cfg.degrees == (3, 4)
    assert cfg.max_census == 1024
    assert cfg.census_shapes == ((2, 2, 2), (2, 3, 2))
    # the term budget is retired: an INI that still sets it is refused
    with pytest.raises(ValueError, match=r"\[budgets\] has unknown keys \['max_terms'\]"):
        parse_config(text.replace("[budgets]\n", "[budgets]\nmax_terms = 500\n"))


@pytest.mark.parametrize("text, message", [
    ("[budget]\nmax_points = 100\n", "unknown section \\[budget\\]"),
    ("[budgets]\nmax_point = 100\n", "\\[budgets\\] has unknown keys \\['max_point'\\]"),
    ("[budgets]\ncrosscheck_sample = 100\n", "unknown keys \\['crosscheck_sample'\\]"),
    ("[shape]\nN = 3\nc = 2\nrr = 0\n", "\\[shape\\] has unknown keys \\['rr'\\]"),
    ("[budgets]\nmax_points = -5\n", "budget max_points must be at least 1"),
    ("[budgets]\nmax_census = 0\n", "budget max_census must be at least 1"),
], ids=["section", "key", "retired-key", "shape-key", "points", "census"])
def test_parse_config_refuses_an_unknown_entry_or_a_budget_below_one(text, message):
    # an ignored line or a budget below 1 (which SKIPs every point scan)
    # would let a run report ok on less than the config asked for
    with pytest.raises(ValueError, match=message):
        parse_config("[run]\nschema = 1\n" + text)


def test_parse_config_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        parse_config("[run]\nschema = 99\n")


def test_parse_config_rejects_missing_run_section():
    with pytest.raises(ValueError, match="run"):
        parse_config("[shape]\nN = 3\nc = 2\n")


def test_parse_config_rejects_unknown_stage():
    with pytest.raises(ValueError, match="unknown stages"):
        parse_config("[run]\nschema = 1\nstages = schedule warp\n")


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="parse error"):
        parse_config("this is not ini\n[run\n")


def test_expand_stages_pulls_dependencies_in_order():
    assert _expand_stages(("twist-ledger",)) == ["schedule", "twist-ledger"]
    assert _expand_stages(("crosscheck",)) == [
        "schedule", "build", "smoothness", "crosscheck"]
    assert _expand_stages(("census",)) == ["census"]
    assert _expand_stages(STAGE_ORDER) == list(STAGE_ORDER)


def test_stage_dependencies_point_backwards():
    assert STAGE_ORDER == tuple(STAGES)
    for stage, (_, deps) in STAGES.items():
        for dep in deps:
            assert STAGE_ORDER.index(dep) < STAGE_ORDER.index(stage)


# ----- pipeline runs -----


def test_default_pipeline_all_stages_pass():
    report = run_pipeline(parse_config(default_config_text()))
    statuses = {name: entry["status"] for name, entry in report["stages"].items()}
    assert statuses == {name: "PASS" for name in STAGE_ORDER}
    assert report["ok"]
    assert report["schema"] == SCHEMA_VERSION
    sched = report["stages"]["schedule"]["report"]["schedule"]
    assert sched["d"] == 64845
    census = report["stages"]["census"]["report"]["censuses"]
    assert [c["count"] for c in census] == [148, 596, 1737, 273344]


def test_schedule_only_stage_list():
    report = run_pipeline(small_config(stages=("schedule",)))
    assert list(report["stages"].keys()) == ["schedule"]
    assert report["ok"]


def test_pipeline_determinism_modulo_timings():
    r1 = run_pipeline(small_config())
    r2 = run_pipeline(small_config())
    assert r1["timings"] != {}
    assert report_to_json(strip_timings(r1)) == report_to_json(strip_timings(r2))


@pytest.mark.parametrize("cfg, digest, legacy", [
    (RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat", field_spec="11", seed=5),
     "e91ca97def52508540c70018f4656543ebf69dbc51f2c36e36304f2f05ac8073",
     "a7a055499ae3b7c20edf20b823df4b2b68fb129a7c12181c3f7c8f91cbcc5dfd"),
    (RunConfig(shape=ProblemShape(3, 1, 1), mode="mcm", field_spec="5", seed=3),
     "a9eaa298ae6b43295c539c4fc4809b91923c600ea7a50aa90223c320624fdaf4",
     "bcad8a441a3724f10212f712748f0410a9d29050fd14f7d0ef2fb664a9dfec1e"),
], ids=["general_fermat-320-F11-seed5", "mcm-311-F5-seed3"])
def test_canonical_report_is_pinned(cfg, digest, legacy):
    # legacy: the same report with its chart copies put back (legacy_reports)
    report = strip_timings(run_pipeline(cfg))
    for rep, pin in ((report, digest), (legacy_pipeline(report), legacy)):
        assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == pin


def test_n2_transition_stage_runs_exact():
    # n = 2: the transition certificate reads entries, so the stage stays
    # exact however many terms the forms would expand to
    report = run_pipeline(RunConfig(shape=ProblemShape(4, 2, 0), seed=1, stages=("transition",)))
    stage = report["stages"]["transition"]
    assert stage["status"] == "PASS"
    units = stage["report"]["units"]
    assert len(units) == 2 and all(u["mode"] == "exact" and u["ok"] for u in units)


@pytest.mark.parametrize("field_spec", ["5", "Q"])
def test_general_fermat_n4_gluing_stage_runs_exact(field_spec):
    # no pipeline stage samples: the N = 4 general Fermat gluing compares
    # its pairs exactly, over F_5 and over Q alike
    cfg = RunConfig(shape=ProblemShape(4, 3, 0), mode="general_fermat", field_spec=field_spec,
                    lambdas=(2, 1, 2, 1, 2), degrees=(3, 3, 4), stages=("gluing",))
    stage = run_pipeline(cfg)["stages"]["gluing"]
    assert stage["status"] == "PASS" and stage["report"]["mode"] == "exact"
    (unit,) = stage["report"]["units"]
    assert unit["ok"] and unit["verdicts"] == ["pass"]


def test_budget_change_keeps_executed_units_identical():
    base = run_pipeline(small_config())
    tight = run_pipeline(small_config(max_census=10))
    for stage in ("schedule", "build", "divisibility", "gluing", "transition",
                  "twist-ledger", "smoothness"):
        assert base["stages"][stage] == tight["stages"][stage]
    base_census = base["stages"]["census"]["report"]["censuses"]
    tight_census = tight["stages"]["census"]["report"]["censuses"]
    assert [c["count"] for c in base_census] == [148, 596]
    assert any(c["forced_sample"] for c in tight_census)


def test_characteristic_guard_skips_differential_stages():
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat",
                    field_spec="2", lambdas=(2, 2, 2, 2), degrees=(3, 4),
                    seed=3, stages=("gluing", "transition"))
    report = run_pipeline(cfg)
    assert report["stages"]["gluing"]["status"] == "SKIP"
    assert report["stages"]["gluing"]["reason"] == "characteristic guard"
    assert report["stages"]["transition"]["status"] == "SKIP"
    assert report["ok"]


def test_rational_family_skips_finite_scans_and_blocks_dependents():
    cfg = small_config(field_spec="Q")
    report = run_pipeline(cfg)
    assert report["stages"]["smoothness"]["status"] == "SKIP"
    assert "rational" in report["stages"]["smoothness"]["reason"]
    assert report["stages"]["base-locus"]["status"] == "SKIP"
    assert report["stages"]["base-locus"]["reason"] == "blocked by smoothness"
    assert report["stages"]["crosscheck"]["status"] == "SKIP"
    assert report["stages"]["gluing"]["status"] == "PASS"
    assert report["ok"]


def test_stage_error_blocks_dependents_and_fails_run(monkeypatch):
    from mcmforms import pipeline as pl

    def broken(cfg, seed):
        raise ValueError("planted build failure")

    monkeypatch.setattr(pl, "build_family", broken)
    report = run_pipeline(small_config())
    assert report["stages"]["schedule"]["status"] == "PASS"
    assert report["stages"]["build"]["status"] == "ERROR"
    assert report["stages"]["build"]["report"]["error"] == "ValueError: planted build failure"
    witness = report["stages"]["build"]["witness"]
    assert witness["stage"] == "build"
    assert witness["error"] == report["stages"]["build"]["report"]["error"]
    assert witness["config"] == dict(report["config"], stages=["build"])
    assert report["stages"]["divisibility"]["status"] == "SKIP"
    assert report["stages"]["divisibility"]["reason"] == "blocked by build"
    assert not report["ok"]


def test_point_budget_skips_base_locus():
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat",
                    field_spec="11", lambdas=(2, 2, 2, 2), degrees=(3, 4),
                    seed=5, stages=("base-locus",), max_points=1000)
    report = run_pipeline(cfg)
    assert report["stages"]["smoothness"]["status"] == "SKIP"
    assert report["stages"]["smoothness"]["reason"] == "point budget: 1464 > 1000"
    assert report["stages"]["base-locus"]["status"] == "SKIP"
    assert report["stages"]["base-locus"]["reason"] == "blocked by smoothness"
    assert report["ok"]


def test_point_budget_skips_every_point_scan():
    text = (f"[run]\nschema = {SCHEMA_VERSION}\nseed = 1\n"
            "stages = smoothness base-locus crosscheck census\n"
            "[shape]\nN = 3\nc = 2\n[family]\nmode = mcm\nfield = 5\n"
            "[budgets]\nmax_points = 100\n[census]\nshapes = 2 2 2\n")
    cfg = parse_config(text)
    report = run_pipeline(cfg)
    assert report["stages"]["smoothness"] == {
        "status": "SKIP", "reason": "point budget: 156 > 100",  # (5^4 - 1) / 4 points
        "report": {"reason": "point budget: 156 > 100"}}
    for stage in ("base-locus", "crosscheck"):
        entry = report["stages"][stage]
        assert entry["status"] == "SKIP"
        assert entry["reason"] == "blocked by smoothness"
    assert report["stages"]["build"]["status"] == "PASS"
    assert report["stages"]["census"]["status"] == "PASS"
    assert report["ok"]
    # at exactly the point count the scans run
    report = run_pipeline(dataclasses.replace(cfg, max_points=156))
    assert [report["stages"][s]["status"] for s in ("smoothness", "base-locus", "crosscheck")] \
        == ["PASS"] * 3


def test_forced_failure_blocks_dependents(monkeypatch):
    from mcmforms import pipeline as pl

    def broken(cfg, ctx):
        return "FAIL", {"planted": True}, {"planted": "smoothness"}

    monkeypatch.setitem(pl.STAGES, "smoothness", (broken, pl.STAGES["smoothness"][1]))
    report = run_pipeline(small_config())
    assert report["stages"]["smoothness"]["status"] == "FAIL"
    assert report["stages"]["smoothness"]["witness"]["planted"] == "smoothness"
    assert report["stages"]["base-locus"]["reason"] == "blocked by smoothness"
    assert report["stages"]["crosscheck"]["status"] == "SKIP"
    assert report["stages"]["census"]["status"] == "PASS"
    assert not report["ok"]


@pytest.mark.parametrize("shape, selection", [((3, 2, 0), (1,)), ((4, 2, 0), (1, 2))])
@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_gluing_and_transition_units_select_n_differential_rows(mode, shape, selection):
    exponents = {} if mode == "mcm" else {"lambdas": (2,) * (shape[0] + 1), "degrees": (3, 3)}
    fam = build_family(RunConfig(shape=ProblemShape(*shape), mode=mode, **exponents), 1)
    units = _glue_units(fam) + _transition_units(fam)
    # one gluing unit per layout (3 mcm, 1 general Fermat) and 2 transitions
    assert len(units) == (5 if mode == "mcm" else 3)
    assert all(u["selection"] == selection for u in units)


def test_crosscheck_stage_skips_an_n_2_family():
    # (4,2,0) has n = 2: the stage skips instead of raising, whatever the
    # sample meets
    cfg = RunConfig(shape=ProblemShape(4, 2, 0), seed=1, stages=("crosscheck",))
    report = run_pipeline(cfg)
    assert report["stages"]["smoothness"]["status"] == "PASS"
    assert report["stages"]["crosscheck"] == {
        "status": "SKIP", "reason": "crosscheck needs an n = 1 family",
        "report": {"reason": "crosscheck needs an n = 1 family"}}
    assert report["ok"]


# The master seeds of the two pipelines of a pipeline-default benchmark
# pass at workload seeds 1 and 20261017 (bench/workloads.py, _seeds)
PIPELINE_DEFAULT_SEEDS = (1169344821, 1166727779, 968459955, 1051055586)


@pytest.mark.parametrize("seed", (1,) + PIPELINE_DEFAULT_SEEDS)
def test_crosscheck_visits_every_base_locus_pair(monkeypatch, seed):
    # the pairs each scan evaluates forms at, each scan run on its own,
    # and both in one default run
    cfg = dataclasses.replace(parse_config(default_config_text()), seed=seed)
    evaluate_at, visited = FormBundle.evaluate_at, set()

    def recording(self, z, dz, q):
        visited.add((tuple(z), tuple(dz)))
        return evaluate_at(self, z, dz, q)

    monkeypatch.setattr(FormBundle, "evaluate_at", recording)
    pairs = {}
    for stage in ("base-locus", "crosscheck"):
        visited.clear()
        assert run_pipeline(dataclasses.replace(cfg, stages=(stage,)))["ok"]
        pairs[stage] = set(visited)
    assert pairs["crosscheck"] == pairs["base-locus"] != set()
    report = run_pipeline(cfg)
    assert report["ok"]
    locus = report["stages"]["base-locus"]["report"]
    cross = report["stages"]["crosscheck"]["report"]
    assert cross["incidence_pairs"] == locus["directions"] == len(pairs["base-locus"])
    assert cross["samples"] == cross["total_pairs"] == 39_936
    assert cross["member_not_vanish"] == 0


def test_one_default_run_extracts_the_forms_once_and_walks_once(monkeypatch):
    # X(F_5) is evaluated once per smoothness attempt (seed 3 resamples once),
    # and base-locus and the crosscheck read the accepted attempt's walk
    # through one incidence walk of its holder
    calls = {"standard_forms": 0, "incidence": 0}
    real_forms, real_derived = section_builder.standard_forms, FamilyData.derived

    def forms(*args, **kwargs):
        calls["standard_forms"] += 1
        return real_forms(*args, **kwargs)

    def derived(data, key, build):
        def counted():
            calls["incidence"] += key[0] == "incidence"
            return build()
        return real_derived(data, key, counted)

    monkeypatch.setattr(section_builder, "standard_forms", forms)
    monkeypatch.setattr(FamilyData, "derived", derived)
    running, walks = [], []

    def jacobians(*args, _original=finite_geometry._jacobians, **kwargs):
        walks.append(running[-1])
        return _original(*args, **kwargs)

    monkeypatch.setattr(finite_geometry, "_jacobians", jacobians)
    for name, (fn, deps) in pipeline.STAGES.items():
        def staged(cfg, ctx, _fn=fn, _name=name):
            running.append(_name)
            return _fn(cfg, ctx)
        monkeypatch.setitem(pipeline.STAGES, name, (staged, deps))
    for seed in (1, 3):
        for name in calls:
            calls[name] = 0
        walks.clear()
        cfg = dataclasses.replace(parse_config(default_config_text()), seed=seed)
        report = run_pipeline(cfg)
        assert report["stages"]["crosscheck"]["report"]["incidence_pairs"] > 0
        assert calls == {"standard_forms": 1, "incidence": 1}
        smooth = report["stages"]["smoothness"]["report"]
        resampled = smooth["family_seed"] != report["stages"]["build"]["report"]["family_seed"]
        assert resampled == (seed == 3)
        attempts = 1 + (smooth["attempt"] + 1 if resampled else 0)
        assert walks == ["smoothness"] * attempts


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_smoothness_walk_gives_the_incidence_walk(seed):
    # points, order and directions as the walk's reference restates them,
    # for every vanished set base-locus accepts; seed 3 scans its resampled
    # family
    ctx = {}
    for stage in ("schedule", "build"):
        pipeline.STAGES[stage][0](RunConfig(seed=seed), ctx)
    built = ctx["data"]
    pipeline.STAGES["smoothness"][0](RunConfig(seed=seed), ctx)
    data = ctx["data"]
    assert (data is not built) == (seed == 3)
    faults, met = incidence_faults(data, 5)
    assert faults == []
    # points with more zeros lie on no scanned support
    assert 0 < met <= len(finite_geometry._walk(data, 5))


def test_smoothness_keeps_the_family_it_resampled(monkeypatch):
    # seed 3's built family is singular over F_5: the stage keeps the
    # holder of the resampler's family, which is the one build_family makes
    # from its seed, in place of the built family's
    cfg = RunConfig(seed=3)
    ctx = {}
    for stage in ("schedule", "build"):
        pipeline.STAGES[stage][0](cfg, ctx)
    built = ctx["data"]
    real, seeds = pipeline.build_family, []
    monkeypatch.setattr(pipeline, "build_family",
                        lambda cfg, seed: seeds.append(seed) or real(cfg, seed))
    status, rep, _ = pipeline._stage_smoothness(cfg, ctx)
    monkeypatch.undo()
    # build_family makes each attempt's family once, and nothing after
    assert len(seeds) == rep["attempt"] + 1 and seeds[-1] == rep["family_seed"]
    assert status == "PASS" and ctx["data"] is not built
    assert sorted(ctx) == ["data", "schedule"]
    fam = ctx["data"].family
    assert fam.seed == rep["family_seed"]
    assert fam.sections == build_family(cfg, rep["family_seed"]).sections


def test_general_pipeline_passes_with_defaulted_exponents():
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat",
                    field_spec="11", seed=5,
                    stages=("divisibility", "gluing", "transition", "smoothness"))
    report = run_pipeline(cfg)
    executed = {n: e["status"] for n, e in report["stages"].items()}
    assert executed["divisibility"] == "PASS"
    assert executed["gluing"] == "PASS"
    assert executed["transition"] == "PASS"
    assert executed["smoothness"] == "PASS"
    # the config holds the defaulted exponents, and the report echoes it
    assert cfg.lambdas == (2, 2, 2, 2) and cfg.degrees == (2, 3)
    assert report["config"] == cfg.to_dict()


def test_divisibility_fail_counts_the_columns_verified_before_it(monkeypatch):
    # the count read 0 on every FAIL; at N = 4 each layout has 5 columns,
    # so two layouts verified before the third failed
    real, calls = section_builder.column_divisors, []

    def third_fails(K):
        calls.append(K.selected_kind)
        if len(calls) == 3:
            raise section_builder.DivisibilityClaimFailed("planted", 1, 2)
        return real(K)

    monkeypatch.setattr(pipeline, "column_divisors", third_fails)
    stage = run_pipeline(RunConfig(stages=("divisibility",)))["stages"]["divisibility"]
    assert stage["status"] == "FAIL" and len(calls) == 3
    assert stage["report"] == {"columns_verified": 10, "error": "planted"}
    assert (stage["witness"]["row"], stage["witness"]["col"]) == (1, 2)


def test_run_pipeline_leaves_the_callers_config_as_given():
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat",
                    field_spec="11", seed=5, stages=("build",))
    before = dataclasses.asdict(cfg)
    first = run_pipeline(cfg)
    assert dataclasses.asdict(cfg) == before
    # the config block is the one a config naming the defaults gives
    named = dataclasses.replace(cfg, lambdas=(2, 2, 2, 2), degrees=(2, 3))
    for report in (first, run_pipeline(cfg), run_pipeline(named)):
        assert report_to_json(report["config"]) == report_to_json(named.to_dict())


# ----- replay -----


def as_json(obj):
    """obj as a witness file holds it."""
    return json.loads(report_to_json(obj))


# (2,1,0) general Fermat over F_2, seed 0: no resampled family is smooth
F2_SINGULAR = RunConfig(shape=ProblemShape(2, 1, 0), mode="general_fermat",
                        field_spec="2", seed=0, stages=("smoothness",))


@pytest.mark.parametrize("outcome", ["FAIL", "ERROR"])
@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_every_stage_replays_its_planted_outcome(monkeypatch, stage, outcome):
    from mcmforms import pipeline as pl
    real, deps = pl.STAGES[stage]

    def planted(cfg, ctx):
        real(cfg, ctx)  # dependents still find what the stage leaves in ctx
        if outcome == "ERROR":
            raise RuntimeError(f"planted in {stage}")
        return "FAIL", {"planted": True}, {"planted": stage}

    monkeypatch.setitem(pl.STAGES, stage, (planted, deps))
    report = run_pipeline(small_config())
    entry = report["stages"][stage]
    witness = entry["witness"]
    assert entry["status"] == outcome and not report["ok"]
    assert witness["stage"] == stage and witness["schema"] == SCHEMA_VERSION
    assert witness["config"] == dict(report["config"], stages=[stage])
    if outcome == "ERROR":
        assert witness["error"] == f"RuntimeError: planted in {stage}"
    rep = replay(as_json(witness))
    assert (rep["op"], rep["replayed"], rep["ok"]) == ("replay", stage, False)
    assert rep["status"] == outcome
    assert rep["witness"] == witness


def test_replay_census_witness_reproduces_count(monkeypatch):
    from mcmforms import pipeline as pl
    real = pl.rank_condition_census

    def strict(a, b, q, **kwargs):  # a (2,2,2) census that misses its bound
        rep = real(a, b, q, **kwargs)
        return dict(rep, verdict="fail", ok=False) if (a, b, q) == (2, 2, 2) else rep

    monkeypatch.setattr(pl, "rank_condition_census", strict)
    witness = run_pipeline(small_config())["stages"]["census"]["witness"]
    assert {k: witness[k] for k in ("a", "b", "q", "mode", "count")} == {
        "a": 2, "b": 2, "q": 2, "mode": "exhaustive", "count": 148}
    rep = replay(as_json(witness))
    assert rep["replayed"] == "census" and rep["status"] == "FAIL"
    assert rep["report"]["censuses"][0]["count"] == 148
    assert rep["witness"] == witness


def test_replay_gluing_witness_reruns_exact_unit(monkeypatch):
    from mcmforms import pipeline as pl
    real, calls = pl.verify_gluing, []

    def broken(fam, selection, j1, j2, which=None, **kwargs):
        calls.append((which, j1, j2))
        rep = real(fam, selection, j1, j2, which=which, **kwargs)
        if (which, j1, j2) != (("K_nu", 3), 0, 1):
            return rep
        return dict(rep, ok=False, checks=[dict(c, verdict="fail") for c in rep["checks"]])

    monkeypatch.setattr(pl, "verify_gluing", broken)
    witness = run_pipeline(small_config())["stages"]["gluing"]["witness"]
    assert witness["unit"] == {"unit": 1, "which": ["K_nu", 3], "j1": 0, "j2": 1,
                               "ok": False, "verdicts": ["fail"],
                               "failed": [{"id": "hypothesis", "witness": None}]}
    run_calls = list(calls)
    calls.clear()
    rep = replay(as_json(witness))
    # every unit runs, the failing one second
    assert calls == run_calls and len(calls) == 3 and calls[1] == (("K_nu", 3), 0, 1)
    assert rep["replayed"] == "gluing" and rep["status"] == "FAIL"
    assert rep["report"]["mode"] == "exact"
    assert rep["witness"] == witness


def test_a_failing_transition_unit_names_its_layout(monkeypatch):
    # a passing transition unit names its layout by omit and charts alone; a
    # failing one also names `which` and keeps its checks' witnesses
    real = pipeline.verify_transition

    def broken(fam, selection, omit, l1, l2, which=None, **kwargs):
        rep = real(fam, selection, omit, l1, l2, which=which, **kwargs)
        if which != ("K_tau_rho", 0, 1):
            return rep
        return dict(rep, ok=False, checks=[dict(rep["checks"][0], verdict="fail",
                                                witness={"planted": 1})] + rep["checks"][1:])

    monkeypatch.setattr(pipeline, "verify_transition", broken)
    entry = run_pipeline(small_config(stages=("transition",)))["stages"]["transition"]
    assert entry["status"] == "FAIL"
    assert [sorted(u) for u in entry["report"]["units"]] == [
        ["charts", "mode", "ok", "omit", "unit", "verdicts"],
        ["charts", "failed", "mode", "ok", "omit", "unit", "verdicts", "which"]]
    assert entry["witness"]["unit"] == {
        "unit": 1, "omit": 1, "charts": [0, 3], "mode": "exact", "which": ["K_tau_rho", 0, 1],
        "ok": False, "verdicts": ["fail", "pass"],
        "failed": [{"id": "transition", "witness": {"planted": 1}}]}


def test_replay_smoothness_witness_reproduces_singular_family():
    report = run_pipeline(F2_SINGULAR)
    entry = report["stages"]["smoothness"]
    witness = entry["witness"]
    assert entry["status"] == "FAIL"
    # the witness names the family whose singular points it lists
    assert witness["family_seed"] == entry["report"]["family_seed"] == 105480930
    assert witness["family_seed"] != report["stages"]["build"]["report"]["family_seed"]
    assert witness["singular"] == entry["report"]["singular"][:3]
    fam = build_family(RunConfig(shape=ProblemShape(2, 1, 0), mode="general_fermat",
                                 field_spec="2", lambdas=(2, 2, 2), degrees=(2,)),
                       witness["family_seed"])
    assert smoothness_check(fam, 2)["singular"][:3] == witness["singular"]
    rep = replay(as_json(witness))
    assert rep["replayed"] == "smoothness" and rep["status"] == "FAIL"
    assert not rep["ok"] and rep["report"]["singular"]
    assert rep["witness"] == witness


def test_replay_ignores_retired_budgets_in_a_witness():
    # a witness written while the run config still had a term budget and a
    # crosscheck sample size replays to the witness of today's run
    witness = run_pipeline(F2_SINGULAR)["stages"]["smoothness"]["witness"]
    old = as_json(witness)
    old["config"]["budgets"].update(max_terms=100_000, crosscheck_sample=10_000)
    rep = replay(old)
    assert rep["status"] == "FAIL" and not rep["ok"]
    assert rep["witness"] == witness


def test_a_witness_of_empty_exponents_replays_its_error():
    # an empty tuple is written as an empty list, not as None, which would
    # replay with the default schedule and pass
    for cfg in (RunConfig(eps=(), stages=("schedule",)),
                small_config(mode="general_fermat", lambdas=(), degrees=(), stages=("build",))):
        (stage,) = cfg.stages
        entry = run_pipeline(cfg)["stages"][stage]
        assert entry["status"] == "ERROR"
        rep = replay(as_json(entry["witness"]))
        assert rep["status"] == "ERROR" and not rep["ok"]
        assert rep["witness"] == entry["witness"]
    assert entry["witness"]["config"]["lambdas"] == []


def test_replay_rejects_stale_schema():
    with pytest.raises(ValueError, match="stale witness"):
        replay({"schema": 99, "stage": "census"})


def test_replay_rejects_unknown_stage():
    with pytest.raises(ValueError, match="no replayable stage"):
        replay({"schema": SCHEMA_VERSION, "stage": "warp"})


def test_replay_rejects_a_witness_without_a_config():
    # the old format named a family and a unit instead of a config
    old = {"schema": SCHEMA_VERSION, "stage": "census", "a": 2, "b": 2, "q": 2,
           "mode": "exhaustive", "seed": 0, "budget": 2 ** 28, "count": 148}
    with pytest.raises(ValueError, match="no run config"):
        replay(old)
    with pytest.raises(ValueError, match="stale witness"):
        replay([old])


def test_replay_rejects_a_config_of_other_stages():
    config = small_config(stages=("census", "schedule")).to_dict()
    with pytest.raises(ValueError, match="not \\['census'\\]"):
        replay({"schema": SCHEMA_VERSION, "stage": "census", "config": config})


def test_config_from_dict_inverts_to_dict():
    for cfg in (RunConfig(), small_config(stages=("gluing", "census")), F2_SINGULAR,
                RunConfig(mode="general_fermat", lambdas=(2, 1, 2, 1, 2), degrees=(3, 3, 4),
                          eps=(1, 0), max_points=7)):
        assert config_from_dict(as_json(cfg.to_dict())) == cfg


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("seed"), "no 'seed' entry"),
    (lambda d: d["budgets"].pop("max_census"), "no 'max_census' entry"),
    (lambda d: d["budgets"].update(max_points=-5), "budget max_points must be at least 1"),
    (lambda d: d["budgets"].update(max_points=0, max_census=0),
     "budget max_points and max_census must be at least 1"),
    (lambda d: d["shape"].pop("c"), "needs c"),
    (lambda d: d.update(shape=[3, 2, 0]), "malformed config"),
    (lambda d: d.update(stages=["warp"]), "unknown stages"),
    (lambda d: d.update(mode="fermat"), "unknown family mode"),
    (lambda d: d.update(heart="two"), "config heart must hold integers, got 'two'"),
    (lambda d: d.update(census_shapes=[[2, 2]]), "not enough values"),
    (lambda d: d.update(census_shapes=[]), "config names no census shape"),
    (lambda d: d.update(schema=2), "unsupported config schema 2"),
], ids=["seed", "budget", "points", "both-budgets", "shape-c", "shape-list", "stage", "mode", "heart",
        "census", "no-census", "schema"])
def test_config_from_dict_refuses_a_bad_config(mutate, message):
    d = RunConfig().to_dict()
    mutate(d)
    with pytest.raises(ValueError, match=message):
        config_from_dict(d)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(heart=1.5), "config heart must hold integers, got 1.5"),
    (lambda d: d.update(seed="5"), "config seed must hold integers, got '5'"),
    (lambda d: d.update(seed=True), "config seed must hold integers, got True"),
    (lambda d: d["budgets"].update(max_points=2.9),
     "config max_points must hold integers, got 2.9"),
    (lambda d: d["shape"].update(N=4.0), "shape N, c and r must be integers, got 4.0"),
    (lambda d: d.update(eps=[1, "1", 1]), "config eps must hold integers, got '1'"),
    (lambda d: d.update(census_shapes=[[2, 2, 2.0]]),
     "config census_shapes must hold integers, got 2.0"),
], ids=["heart-float", "seed-string", "seed-bool", "budget-float", "shape-float", "eps-string",
        "census-float"])
def test_config_from_dict_refuses_a_number_it_would_convert(mutate, message):
    # these used to be truncated or parsed (1.5 -> 1, "5" -> 5), so a report
    # echoed a config nobody wrote
    d = RunConfig().to_dict()
    mutate(d)
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(d)


@pytest.mark.parametrize("overrides", [{"heart": 1.5}, {"seed": "5"}, {"max_census": True},
                                       {"eps": (1, 1.0)}, {"census_shapes": (("2", 2, 2),)}])
def test_run_config_refuses_a_number_that_is_not_an_int(overrides):
    # a config built in Python is checked as one read from a dict
    with pytest.raises(ValueError, match="must hold integers"):
        RunConfig(**overrides)


def test_cli_replay_refuses_a_witness_config_with_a_string_seed(tmp_path, capsys):
    config = RunConfig(stages=("census",), census_shapes=((2, 2, 2),)).to_dict()
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"schema": SCHEMA_VERSION, "stage": "census",
                                "config": dict(config, seed="5")}))
    assert main(["replay", "--witness", str(path)]) == 2
    assert capsys.readouterr().err == "error: config seed must hold integers, got '5'\n"


def test_parse_config_reads_each_integer_from_its_text(tmp_path, capsys):
    cfg = parse_config("[run]\nschema = 1\n[shape]\nN = 3\nc = 2\n[family]\n"
                       "mode = general_fermat\nlambdas = 2 2 3 2\ndegrees = 3 4\n"
                       "[census]\nshapes = 2 2 2; 2 3 2\n")
    assert (cfg.lambdas, cfg.degrees, cfg.census_shapes) == (
        (2, 2, 3, 2), (3, 4), ((2, 2, 2), (2, 3, 2)))
    config = tmp_path / "bad.ini"
    config.write_text("[run]\nschema = 1\nstages = schedule\n[shape]\nN = 3\nc = 2\n"
                      "[family]\neps = 1 1.5\n")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: config eps must be integers, got '1 1.5'\n"


@pytest.mark.parametrize("overrides, message", [
    ({"max_points": -5}, "budget max_points must be at least 1"),
    ({"max_census": 0}, "budget max_census must be at least 1"),
    ({"mode": "bogus"}, "unknown family mode 'bogus'"),
    ({"stages": ("nonsense",)}, "unknown stages: \\['nonsense'\\]"),
    ({"stages": ()}, "config names no stage"),
    ({"field_spec": "4"}, "must be prime: 4"),
    ({"field_spec": "five"}, "invalid literal"),
    ({"mode": "general_fermat", "lambdas": (3, 3, 3, 3)}, "both lambdas and degrees"),
    ({"mode": "general_fermat", "degrees": (3, 4)}, "both lambdas and degrees"),
    ({"lambdas": (2,) * 4, "degrees": (3, 3)}, "an mcm config takes no lambdas or degrees"),
    ({"degrees": (3, 3)}, "an mcm config takes no lambdas or degrees"),
    ({"census_shapes": ()}, "config names no census shape"),
], ids=["points", "census", "mode", "stage", "no-stage", "field", "field-spec",
        "lambdas-only", "degrees-only", "mcm-exponents", "mcm-degrees", "no-census"])
def test_run_config_refuses_a_bad_value_when_built(overrides, message):
    # each of these used to run: skipping every scan, sampling every
    # census, building a general Fermat family, replacing the lambdas,
    # echoing exponents that no mcm stage reads, or passing a census that
    # counted nothing
    with pytest.raises(ValueError, match=message):
        RunConfig(shape=ProblemShape(3, 2, 0), **overrides)
    with pytest.raises(ValueError, match=message):
        small_config(**overrides)


def test_run_config_is_read_only_and_keeps_its_stages_in_stage_order():
    cfg = small_config(stages=("census", "schedule"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 4
    # a report echoes the stage order config_from_dict of it keeps
    assert run_pipeline(cfg)["config"]["stages"] == ["schedule", "census"]
    assert config_from_dict(cfg.to_dict()).stages == cfg.stages == ("schedule", "census")
    assert RunConfig(stages=("gluing", "gluing")).stages == ("gluing",)


# (good values, bad values) of each drawn config field. Heart, eps and
# census shapes are refused by the stage that reads them, the rest when
# the config is built; exponents are (lambdas, degrees) for (2,1,0), and
# an mcm config refuses any.
DRAWN_FIELDS = {
    "shape": ([(2, 1, 0), (3, 2, 0), (3, 1, 1), (4, 3, 0)], [(2, 2, 0), (0, 1, 0)]),
    "mode": (["mcm", "general_fermat"], ["bogus"]),
    "field_spec": (["2", "5", "Q"], ["4", "x"]),
    "heart": ([1, 2, 3], [-1, 0]),
    "eps": ([None], [(0, 1), (-1,)]),
    "exponents": ([(None, None), ((2, 2, 2), (3,))], [((3, 3, 3), None), (None, (3,))]),
    "stages": ([("schedule",), ("twist-ledger", "census"), ("census", "schedule")],
               [(), ("nonsense",), ("census", "nonsense")]),
    "max_points": ([1, 10 ** 6], [0, -5]),
    "max_census": ([4096, 2 ** 28], [0, -1]),
    "census_shapes": ([((2, 2, 2),), ((2, 2, 3), (2, 3, 2))],
                      [((2, 2),), ((1, 2, 2),), ((2, 2, 4),)]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_drawn_config_is_refused_or_runs_to_a_consistent_report(data):
    # fields drawn one by one, at most two of them bad: a config is refused
    # when it is built, or it runs, and its verdict is its stages' verdicts;
    # good values are never refused and pass
    spoilt = data.draw(st.sets(st.sampled_from(sorted(DRAWN_FIELDS)), max_size=2))
    values = {name: data.draw(st.sampled_from(DRAWN_FIELDS[name][name in spoilt]), label=name)
              for name in DRAWN_FIELDS}
    lambdas, degrees = values.pop("exponents")
    unread = values["mode"] == "mcm" and (lambdas, degrees) != (None, None)
    try:
        cfg = RunConfig(shape=ProblemShape(*values.pop("shape")), lambdas=lambdas,
                        degrees=degrees, seed=data.draw(st.integers(0, 3), label="seed"),
                        **values)
    except ValueError:
        assert spoilt or unread, "a config of good values was refused"
        return
    assert not unread, "an mcm config kept exponents that no stage reads"
    report = run_pipeline(cfg)
    statuses = [entry["status"] for entry in report["stages"].values()]
    assert statuses and set(cfg.stages) <= set(report["stages"])
    assert report["ok"] == all(s not in ("FAIL", "ERROR") for s in statuses)
    assert report["config"] == cfg.to_dict()
    assert report["ok"] or spoilt


SHAPES = [(2, 1, 0), (3, 2, 0), (3, 1, 1), (4, 3, 0)]
INTS = st.lists(st.integers(0, 5), max_size=4).map(tuple)


@st.composite
def run_configs(draw):
    """A RunConfig of good values, its stages in any order with repeats."""
    mode = draw(st.sampled_from(["mcm", "general_fermat"]))
    lambdas, degrees = None, None
    if mode == "general_fermat":
        lambdas, degrees = draw(st.just((None, None)) | st.tuples(INTS, INTS))
    return RunConfig(
        shape=ProblemShape(*draw(st.sampled_from(SHAPES))), mode=mode,
        field_spec=draw(st.sampled_from(["5", "11", "Q"])), heart=draw(st.integers(1, 3)),
        eps=draw(st.none() | INTS), lambdas=lambdas, degrees=degrees,
        seed=draw(st.integers(0, 2 ** 40)),
        stages=tuple(draw(st.lists(st.sampled_from(STAGE_ORDER), min_size=1, max_size=12))),
        max_points=draw(st.integers(1, 10 ** 9)), max_census=draw(st.integers(1, 2 ** 40)),
        census_shapes=tuple(draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                                    st.sampled_from([2, 3, 5])),
                                          min_size=1, max_size=4))))


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_a_config_round_trips_through_its_dict(cfg):
    # a report's config block is cfg.to_dict(): reading it back, through
    # JSON as a witness is, gives the same config and the same dict
    d = cfg.to_dict()
    back = config_from_dict(json.loads(json.dumps(d)))
    assert back == cfg and back.to_dict() == d
    assert cfg.stages == tuple(s for s in STAGE_ORDER if s in cfg.stages)


def test_report_json_refuses_a_value_json_has_no_type_for():
    # default=str wrote these as strings, with no error
    for value in (np.int64(1), Fraction(1, 2)):
        with pytest.raises(TypeError):
            report_to_json({"op": "run", "count": value, "ok": True})


# ----- command line -----


def run_cli(tmp_path, *argv, expect=0):
    code = main(list(argv))
    assert code == expect
    return code


def test_cli_schedule_report(tmp_path, capsys):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--N", "4", "--c", "3", "--r", "0", "--heart", "2",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["d"] == 64845
    assert report["mu"]["4,4"] == 12969
    assert report["ledger"]["ok"]
    assert report["bounds"]["verdict"] == "PASS"
    assert set(report) >= {"shape", "delta", "mu", "d", "ledger", "bounds"}


def test_cli_build_verify_scan_round_trip(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    assert fam_path.exists()

    report_path = tmp_path / "verify.json"
    assert main(["verify", "gluing", "--family", str(fam_path),
                 "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["ok"] and report["status"] == "PASS"
    assert all(v == "pass" for u in report["units"] for v in u["verdicts"])

    scan_path = tmp_path / "scan.json"
    assert main(["scan", "smooth", "--family", str(fam_path),
                 "--json", str(scan_path)]) == 0
    scan = json.loads(scan_path.read_text())
    assert scan["op"] == "smoothness"

    capsys.readouterr()


def test_cli_verify_op_names_the_verb_and_help_lists_gluing(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    for what in ("gluing", "transition"):
        report_path = tmp_path / f"{what}.json"
        assert main(["verify", what, "--family", str(fam_path),
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["op"] == f"verify-{what}" and report["ok"]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "family file (gluing/transition/hidden)" in " ".join(capsys.readouterr().out.split())


def test_cli_verify_forms_is_refused(tmp_path, capsys):
    # `verify forms` was `verify gluing` under another name
    with pytest.raises(SystemExit) as err:
        main(["verify", "forms", "--family", str(tmp_path / "family.json")])
    assert err.value.code == 2
    assert "invalid choice: 'forms'" in capsys.readouterr().err


def test_cli_verify_refuses_a_tampered_family(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    data = json.loads(fam_path.read_text())
    data["schedule"]["mu"]["3,0"] += 1
    fam_path.write_text(json.dumps(data))
    report_path = tmp_path / "verify.json"
    assert main(["verify", "gluing", "--family", str(fam_path),
                 "--json", str(report_path)]) != 0
    assert not report_path.exists()
    assert "schedule" in capsys.readouterr().err


def test_cli_scan_census(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert main(["scan", "census", "--a", "2", "--b", "2", "--q", "2",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["count"] == 148
    assert report["verdict"] == "pass"


def test_cli_crosscheck_visits_every_pair_without_a_sample(tmp_path, capsys):
    fam_path, out = tmp_path / "family.json", tmp_path / "crosscheck.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    assert main(["scan", "crosscheck", "--family", str(fam_path), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["samples"] == report["total_pairs"] == 4 ** 3 * 31
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    assert "crosscheck: pairs drawn (default every pair)" in " ".join(capsys.readouterr().out.split())


def test_cli_coup_split_exit_codes(capsys):
    assert main(["coup", "split", "--d", "7", "--s", "3"]) == 0
    assert main(["coup", "split", "--d", "5", "--s", "3"]) == 1
    out = capsys.readouterr().out
    assert '"p": 1' in out and '"q": 1' in out


def test_cli_coup_decompose(capsys):
    assert main(["coup", "decompose", "--shape", "2,1,0", "--q", "3",
                 "--field", "3", "--factors",
                 "1 * z0^1 + 1 * z1^1; 1 * z1^1 + 2 * z2^1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["lhs_count"] == report["rhs_count"] == 10


def test_cli_scans_reject_a_composite_q(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "2,1,0", "--mode", "general_fermat", "--field", "Q",
                 "--lambdas", "2,2,2", "--degrees", "3", "--seed", "0",
                 "--out", str(fam_path)]) == 0
    for what in ("smooth", "base-locus"):
        assert main(["scan", what, "--family", str(fam_path), "--q", "3"]) == 0
        assert main(["scan", what, "--family", str(fam_path), "--q", "4"]) == 2
    assert main(["scan", "census", "--a", "2", "--b", "2", "--q", "4"]) == 2
    assert main(["coup", "decompose", "--shape", "2,1,0", "--q", "4", "--field", "Q",
                 "--factors", "1 * z0^1 + 1 * z1^1; 1 * z1^1 + 2 * z2^1"]) == 2
    assert capsys.readouterr().err.count("must be prime: 4") == 4


def test_cli_scans_reject_an_empty_sample(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    assert main(["scan", "crosscheck", "--family", str(fam_path), "--sample", "1"]) == 0
    assert main(["scan", "crosscheck", "--family", str(fam_path), "--sample", "0"]) == 2
    assert main(["scan", "census", "--q", "2", "--mode", "sample", "--sample", "0"]) == 2
    assert capsys.readouterr().err.count("at least 1") == 2


def test_cli_base_locus_refuses_bad_vanished_coordinates(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    scan = ["scan", "base-locus", "--family", str(fam_path)]
    assert main(scan + ["--vanished", "0"]) == 0
    capsys.readouterr()
    for vanished, message in (("9", "outside 0..3"), ("-1", "outside 0..3"),
                              ("0,1", "exceed N - c = 1")):
        assert main(scan + [f"--vanished={vanished}"]) == 2
        assert message in capsys.readouterr().err


def test_cli_refuses_checks_without_a_trial(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    for trials in ("0", "-3"):
        assert main(["verify", "surjectivity", "--trials", trials]) == 2
    assert capsys.readouterr().err.count("at least one trial") == 2


@pytest.mark.parametrize("N", ["0", "-1"])
def test_cli_refuses_surjectivity_below_one_dimension(capsys, N):
    # with N + 1 < 2 coordinates no nonzero point exists; the alarm fails
    # the test instead of hanging it should the draw loop run again
    def timeout(signum, frame):
        raise TimeoutError(f"mcm verify surjectivity --N {N} did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        assert main(["verify", "surjectivity", "--N", N]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err == f"error: need N at least 1, got {N}\n"


MISSING_INPUT = [
    (["verify", "gluing"], "family"), (["verify", "transition"], "family"),
    (["verify", "hidden", "--vanished", "0"], "family"),
    (["scan", "smooth"], "family"), (["scan", "base-locus"], "family"),
    (["scan", "crosscheck"], "family"), (["scan", "census"], "q"),
    (["coup", "decompose", "--factors", "1 * z0^1 + 1 * z1^1"], "shape"),
]


@pytest.mark.parametrize("argv, flag", MISSING_INPUT,
                         ids=["-".join(argv[:2]) for argv, _ in MISSING_INPUT])
def test_cli_refuses_a_missing_family_or_shape(capsys, argv, flag):
    # exit 1 is a FAILed check; a command without its input is refused
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {argv[0]} {argv[1]} needs --{flag}\n"


def test_cli_scan_of_a_rational_family_without_q_is_refused(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "2,1,0", "--mode", "general_fermat", "--field", "Q",
                 "--lambdas", "2,2,2", "--degrees", "3", "--seed", "0",
                 "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["scan", "smooth", "--family", str(fam_path)]) == 2
    assert capsys.readouterr().err == "error: scan over a rational family needs --q\n"


def test_cli_run_and_replay(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nschema = 1\nseed = 3\nstages = schedule twist-ledger\n\n"
        "[shape]\nN = 3\nc = 2\nr = 0\n")
    out = tmp_path / "run.json"
    assert main(["run", "--config", str(config), "--json", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["ok"]
    assert set(report["stages"]) == {"schedule", "twist-ledger"}

    # a real failure: every resampled (2,1,0) family over F_2 is singular
    config.write_text(
        "[run]\nschema = 1\nseed = 0\nstages = smoothness\n\n"
        "[shape]\nN = 2\nc = 1\n\n[family]\nmode = general_fermat\nfield = 2\n")
    assert main(["run", "--config", str(config), "--json", str(out)]) == 1
    capsys.readouterr()
    entry = json.loads(out.read_text())["stages"]["smoothness"]
    witness = tmp_path / "wit.json"
    witness.write_text(json.dumps(entry["witness"]))
    assert main(["replay", "--witness", str(witness)]) == 1
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["status"] == "FAIL"
    assert replayed["witness"] == entry["witness"]
    assert replayed["report"] == entry["report"]


def test_cli_replay_stale_witness_is_graceful(tmp_path, capsys):
    witness = tmp_path / "stale.json"
    witness.write_text(json.dumps({"schema": 99, "stage": "census"}))
    assert main(["replay", "--witness", str(witness)]) == 2
    err = capsys.readouterr().err
    assert "stale witness" in err


@pytest.mark.parametrize("witness, message", [
    # an ERROR witness of the old format: replay used to escape with KeyError
    ({"schema": 1, "stage": "gluing", "error": "boom", "seed": 3}, "no run config"),
    ({"schema": 1, "stage": "census",
      "config": {k: v for k, v in RunConfig(stages=("census",)).to_dict().items()
                 if k != "seed"}}, "no 'seed' entry"),
    ({"schema": 1, "stage": "census", "config": "census"}, "unsupported config schema"),
    (["census"], "stale witness"),
], ids=["old-error", "config-key", "config-type", "list"])
def test_cli_replay_refuses_a_malformed_witness(tmp_path, capsys, witness, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(witness))
    assert main(["replay", "--witness", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("shape, missing", [("c = 2\n", "N"), ("N = 3\n", "c"),
                                            ("r = 0\n", "N and c")])
def test_cli_run_refuses_a_shape_without_N_or_c(tmp_path, capsys, shape, missing):
    config = tmp_path / "bad.ini"
    config.write_text(f"[run]\nschema = 1\n\n[shape]\n{shape}")
    assert main(["run", "--config", str(config)]) == 2
    assert f"error: config shape needs {missing}\n" == capsys.readouterr().err


@pytest.mark.parametrize("key", ["shape", "mode", "field_p", "twists", "coefficients",
                                 "schedule", "r"])
def test_cli_verify_refuses_a_family_file_missing_an_entry(tmp_path, capsys, key):
    # a malformed family file is a refusal (exit 2), never a FAIL (exit 1)
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    data = json.loads(fam_path.read_text())
    if key == "r":
        del data["shape"]["r"]
    else:
        del data[key]
    fam_path.write_text(json.dumps(data))
    assert main(["verify", "gluing", "--family", str(fam_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err


@pytest.mark.parametrize("field_p", [5.0, True, "5"])
def test_cli_verify_refuses_a_field_that_is_not_an_int(tmp_path, capsys, field_p):
    # `field_p: 5.0` used to load as the field F_5.0
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    fam_path.write_text(json.dumps(dict(json.loads(fam_path.read_text()), field_p=field_p)))
    assert main(["verify", "gluing", "--family", str(fam_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: field characteristic must be an integer, got {field_p!r}\n"


@pytest.mark.parametrize("what", ["gluing", "transition"])
def test_cli_verify_refuses_a_zero_denominator_and_an_unread_key(tmp_path, capsys, what):
    # bad family files are refusals (exit 2), never an uncaught error or a PASS
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    saved = json.loads(fam_path.read_text())
    for key, literal, message in (("A:1:0", "1/0*z0^2", "zero denominator in '1/0'"),
                                  ("X:3", "1", "does not read: X:3")):
        data = json.loads(json.dumps(saved))
        data["coefficients"][key] = literal
        fam_path.write_text(json.dumps(data))
        assert main(["verify", what, "--family", str(fam_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_cli_verify_hidden_refuses_depth_zero(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    assert main(["verify", "hidden", "--family", str(fam_path), "--selection", "1"]) == 2
    assert "at least one vanished coordinate" in capsys.readouterr().err


def test_cli_verify_hidden_refuses_depth_at_or_above_n(tmp_path, capsys):
    # n = 1 on a (3,2,0) family: one vanished coordinate leaves no form
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "hidden", "--family", str(fam_path), "--vanished", "0",
                 "--selection", "1"]) == 2
    assert "no hidden forms at depth 1 >= n = 1" in capsys.readouterr().err


def test_cli_verify_reports_only_exact_checks(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    ids = {}
    for what in ("gluing", "transition"):
        assert main(["verify", what, "--family", str(fam_path)]) == 0
        units = json.loads(capsys.readouterr().out)["units"]
        checks = [c for u in units for c in u["checks"]]
        assert {(c["mode"], c["trials"], c["verdict"]) for c in checks} == {("exact", 0, "pass")}
        ids[what] = {c["id"] for c in checks}
    assert ids == {"gluing": {"hypothesis"}, "transition": {"transition", "transition exponent"}}
    # no flag asks for sampling
    with pytest.raises(SystemExit) as err:
        main(["verify", "transition", "--family", str(fam_path), "--mode", "probabilistic"])
    assert err.value.code == 2
    assert "unrecognized arguments: --mode probabilistic" in capsys.readouterr().err


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[run]\nschema = 99\n")
    assert main(["run", "--config", str(config)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("budgets, message", [
    ("max_terms = 100000", "[budgets] has unknown keys ['max_terms']"),
    ("max_points = -5", "budget max_points must be at least 1"),
], ids=["retired-key", "negative"])
def test_cli_run_refuses_a_bad_budget(tmp_path, capsys, budgets, message):
    config = tmp_path / "old.ini"
    config.write_text(f"[run]\nschema = 1\nstages = census\n\n[budgets]\n{budgets}\n")
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


def test_cli_run_has_no_budget_flags(tmp_path, capsys):
    # budgets are set in the INI [budgets] section, which is validated
    config = tmp_path / "run.ini"
    config.write_text("[run]\nschema = 1\nstages = schedule\n")
    for flag in ("--budget-terms", "--budget-points", "--budget-census"):
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(config), flag, "5"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_cli_run_seed_override(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nschema = 1\nseed = 3\nstages = build\n\n"
                      "[shape]\nN = 3\nc = 2\nr = 0\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "--config", str(config), "--json", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--seed", "4",
                 "--json", str(out2)]) == 0
    capsys.readouterr()
    rep1 = json.loads(out1.read_text())
    rep2 = json.loads(out2.read_text())
    seed1 = rep1["stages"]["build"]["report"]["family_seed"]
    seed2 = rep2["stages"]["build"]["report"]["family_seed"]
    assert seed1 != seed2
    assert rep2["config"] == dict(rep1["config"], seed=4)


@pytest.mark.parametrize("text, message", [
    ("stages = census\n[family]\nfield = 4\n", "field characteristic must be prime: 4"),
    ("stages = census\n[family]\nmode = bogus\n", "unknown family mode 'bogus'"),
    ("stages =\n", "config names no stage"),
    ("stages = build\n[shape]\nN = 3\nc = 2\n[family]\nmode = general_fermat\n"
     "lambdas = 3 3 3 3\n", "general_fermat needs both lambdas and degrees, or neither"),
    ("stages = census\n[census]\nshapes = 2 2 2; 2 2\n",
     "config census_shapes must be triples of integers"),
    ("stages = census\n[census]\nshapes = 2 2 x\n",
     "config census_shapes must be triples of integers"),
    ("stages = build\n[family]\nlambdas = 2 2 2 2 2\ndegrees = 3 3 3\n",
     "an mcm config takes no lambdas or degrees"),
], ids=["field", "mode", "no-stage", "lambdas-only", "census-pair", "census-literal",
        "mcm-exponents"])
def test_cli_run_refuses_an_invalid_config(tmp_path, capsys, text, message):
    # each of these used to run: to a build ERROR, a general Fermat family,
    # an empty ok report, replaced lambdas, or an unpacking message
    config = tmp_path / "bad.ini"
    config.write_text("[run]\nschema = 1\n" + text)
    assert main(["run", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_cli_build_general_fermat_writes_the_run_defaults(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "general_fermat", "--field", "11",
                 "--seed", "5", "--out", str(fam_path)]) == 0
    fam = load_family(str(fam_path))
    cfg = RunConfig(shape=ProblemShape(3, 2, 0), mode="general_fermat", field_spec="11")
    assert (fam.lambdas, fam.degrees) == ((2, 2, 2, 2), (2, 3)) == (cfg.lambdas, cfg.degrees)
    assert fam.sections == build_family(cfg, 5).sections
    capsys.readouterr()
    assert main(["build", "--shape", "3,2,0", "--mode", "general_fermat",
                 "--lambdas", "3,3,3,3", "--out", str(fam_path)]) == 2
    assert "both lambdas and degrees" in capsys.readouterr().err
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--lambdas", "2,2,2,2",
                 "--degrees", "3,3", "--out", str(fam_path)]) == 2
    assert "an mcm config takes no lambdas or degrees" in capsys.readouterr().err


def test_cli_verify_checks_name_their_layout(tmp_path, capsys, monkeypatch):
    fam_path = tmp_path / "family.json"
    assert main(["build", "--shape", "3,2,0", "--mode", "mcm", "--field", "5",
                 "--seed", "3", "--out", str(fam_path)]) == 0
    capsys.readouterr()
    for what in ("gluing", "transition"):
        assert main(["verify", what, "--family", str(fam_path)]) == 0
        units = json.loads(capsys.readouterr().out)["units"]
        pairs = [(c["id"], tuple(u["which"])) for u in units for c in u["checks"]]
        assert len(set(pairs)) == len(pairs), what
    # one unit's report forced to fail: the FAIL names its layout and keeps
    # its check's witness, and the units after it still run; the CLI runs
    # the pipeline's stage body, which calls pipeline.verify_gluing
    real = pipeline.verify_gluing

    def failing_on_k_nu(fam, selection, j1, j2, which=None, **kwargs):
        rep = real(fam, selection, j1, j2, which=which, **kwargs)
        if which == ("K_nu", 0):
            rep = dict(rep, ok=False, checks=[dict(c, verdict="fail", witness={"planted": 1})
                                              for c in rep["checks"]])
        return rep

    monkeypatch.setattr(pipeline, "verify_gluing", failing_on_k_nu)
    assert main(["verify", "gluing", "--family", str(fam_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"] and report["status"] == "FAIL"
    assert [u["verdicts"] for u in report["units"]] == [["fail"], ["pass"], ["pass"]]
    assert [(u["which"], c["id"], c["witness"]) for u in report["units"] for c in u["checks"]
            if c["verdict"] == "fail"] == [(["K_nu", 0], "hypothesis", {"planted": 1})]
