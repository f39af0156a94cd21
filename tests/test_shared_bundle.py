"""One holder of derived data per family per run: counts and equivalence.

A pipeline run keeps one FamilyData holder at a time, builds each family's
build_matrices bundle once and each K_nu / K_tau_rho selection of it once,
and nothing survives the run; the verifiers, standard_forms and the scans
read a holder exactly as they read its family.
"""

import gc
import json
import weakref

import pytest

from mcmforms import (
    cli,
    finite_geometry,
    identity_verifier,
    pipeline,
    section_builder,
)
from mcmforms.exact_algebra import Field, QQ
from mcmforms.finite_geometry import base_locus_scan, characterization_crosscheck
from mcmforms.identity_verifier import verify_gluing, verify_transition
from mcmforms.pipeline import (
    RunConfig,
    _glue_units,
    _transition_units,
    build_family,
    run_pipeline,
    strip_timings,
)
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import (
    FamilyData,
    build_matrices,
    build_sections,
    build_selected,
    save_family,
    standard_forms,
)

# a default config whose smoothness stage resamples its family
RESAMPLED_SEED = 3


@pytest.fixture
def counts(monkeypatch):
    """Count every build_matrices call, under each name a module binds it
    to, with the family it was given, and every selection build_selected
    combines (section_builder's only use of _combine_columns)."""
    seen = {"families": [], "selections": 0}
    real_build, real_combine = section_builder.build_matrices, section_builder._combine_columns

    def building(fam, vanished=()):
        seen["families"].append(fam)
        return real_build(fam, vanished)

    def combining(*args, **kwargs):
        seen["selections"] += 1
        return real_combine(*args, **kwargs)

    for module in (cli, finite_geometry, identity_verifier, pipeline, section_builder):
        if hasattr(module, "build_matrices"):
            monkeypatch.setattr(module, "build_matrices", building)
    monkeypatch.setattr(section_builder, "_combine_columns", combining)
    return seen


@pytest.mark.parametrize("seed, families", [(1, 1), (RESAMPLED_SEED, 2)])
def test_a_run_builds_each_family_and_each_selection_once(counts, seed, families):
    cfg = RunConfig(seed=seed)
    first = run_pipeline(cfg)
    assert first["ok"]
    built = list(counts["families"])
    assert len(built) == len({id(f) for f in built}) == families
    # 15 layouts at N = 4, for the run's family and for a resampled scan family
    assert counts["selections"] == 15 * families
    # a second identical run finds nothing of the first and builds as much again
    again = run_pipeline(cfg)
    assert len(counts["families"]) == 2 * families
    assert counts["selections"] == 2 * 15 * families
    assert pipeline.report_to_json(strip_timings(again)) \
        == pipeline.report_to_json(strip_timings(first))


@pytest.mark.parametrize("what", ["gluing", "transition"])
def test_mcm_verify_builds_one_bundle(counts, capsys, tmp_path, what):
    shape = ProblemShape(4, 3, 0)
    path = tmp_path / "fam.json"
    save_family(build_sections(shape, "mcm", field=Field(5),
                               schedule=build_schedule(shape, 2), seed=5), str(path))
    assert cli.main(["verify", what, "--family", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(counts["families"]) == 1


def test_a_characteristic_skip_builds_no_bundle(counts):
    # char 2 divides every lambda: each verifier SKIPs before it reads a bundle
    fam = build_sections(ProblemShape(2, 1, 0), "general_fermat", field=Field(2),
                         lambdas=(2, 2, 2), degrees=(3,), seed=0)
    for rep in (verify_gluing(fam, (1,), 0, 1),
                verify_transition(fam, (1,), 0, 0, 1, kind="psi")):
        assert [c["verdict"] for c in rep["checks"]] == ["skip"]
    assert counts["families"] == []


@pytest.mark.parametrize("seed", [1, RESAMPLED_SEED])
def test_nothing_of_a_run_outlives_it(monkeypatch, seed):
    holders, bundles = [], []
    real_init, real_build = FamilyData.__init__, section_builder.build_matrices

    def init(self, fam):
        holders.append(weakref.ref(self))
        real_init(self, fam)

    def building(fam, vanished=()):
        K = real_build(fam, vanished)
        bundles.append(weakref.ref(K))
        return K

    monkeypatch.setattr(FamilyData, "__init__", init)
    monkeypatch.setattr(section_builder, "build_matrices", building)
    assert run_pipeline(RunConfig(seed=seed))["ok"]
    gc.collect()
    # the build stage's holder, and each resampling attempt's
    assert len(holders) >= (2 if seed == RESAMPLED_SEED else 1)
    assert len(bundles) == (2 if seed == RESAMPLED_SEED else 1)
    assert [ref() for ref in holders + bundles] == [None] * len(holders + bundles)


def _resampled_family():
    ctx, built = {}, None
    for stage in ("schedule", "build", "smoothness"):
        built = built or ctx.get("data")
        status, _, _ = pipeline.STAGES[stage][0](RunConfig(seed=RESAMPLED_SEED), ctx)
        assert status == "PASS"
    assert ctx["data"] is not built
    return ctx["data"].family


FAMILIES = {
    "resampled mcm": _resampled_family,
    "general Fermat over Q": lambda: build_sections(
        ProblemShape(3, 2, 0), "general_fermat", field=QQ, lambdas=(2, 2, 2, 2),
        degrees=(4, 4), seed=2),
}


@pytest.mark.parametrize("label", FAMILIES)
def test_a_holder_reads_as_its_family(label):
    fam = FAMILIES[label]()
    data = FamilyData(fam)
    assert FamilyData.of(data) is data and FamilyData.of(fam) is not data
    for u in _glue_units(fam):
        args = (u["selection"], u["j1"], u["j2"])
        assert verify_gluing(data, *args, which=u["which"]) \
            == verify_gluing(fam, *args, which=u["which"]), label
    for u in _transition_units(fam):
        args = (u["selection"], u["omit"], u["l1"], u["l2"])
        kwargs = dict(which=u["which"], kind=u["kind"])
        assert verify_transition(data, *args, **kwargs) \
            == verify_transition(fam, *args, **kwargs), label
    z, dz = [1, 2, 3, 4, 2][: fam.shape.N + 1], [0, 1, 4, 2, 3][: fam.shape.N + 1]
    q = fam.field.p or 101
    assert data.forms is data.forms
    assert [(f.kind, f.twist, f.evaluate_at(z, dz, q)) for f in data.forms] \
        == [(f.kind, f.twist, f.evaluate_at(z, dz, q)) for f in standard_forms(fam)], label
    assert base_locus_scan(data, data.forms, 5) == base_locus_scan(fam, data.forms, 5), label
    if fam.mode == "mcm":
        rep = characterization_crosscheck(data, 5)
        assert rep["incidence_pairs"] > 0
        assert rep == characterization_crosscheck(fam, 5)


def test_a_selection_is_built_once_per_holder():
    fam = build_family(RunConfig(), 7)
    data = FamilyData(fam)
    S = data.selected(("K_tau_rho", 0, 1))
    assert data.selected(["K_tau_rho", 0, 1]) is S
    assert S.family is fam and S.selected_params == (0, 1)
    # another holder of the same family has its own selections, and
    # build_selected itself keeps nothing
    assert FamilyData(fam).selected(("K_tau_rho", 0, 1)) is not S
    K = data.matrices
    assert build_selected(K, ("K_tau_rho", 0, 1)) is not build_selected(K, ("K_tau_rho", 0, 1))
    assert build_selected(K, ("K_tau_rho", 0, 1)) == S
    assert build_matrices(fam) == K
