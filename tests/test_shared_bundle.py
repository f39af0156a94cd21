"""One matrix bundle per family per run: counts and equivalence.

A pipeline run builds each family's build_matrices bundle once and each
K_nu / K_tau_rho selection of it once, and nothing survives the run; the
verifiers, standard_forms and the crosscheck read a bundle they are given
exactly as one they build, and refuse a bundle that is not the family's.
"""

import dataclasses
import json

import pytest

from mcmforms import (
    cli,
    finite_geometry,
    identity_verifier,
    pipeline,
    section_builder,
)
from mcmforms.exact_algebra import Field, QQ
from mcmforms.finite_geometry import characterization_crosscheck
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
        monkeypatch.setattr(module, "build_matrices", building)
    monkeypatch.setattr(section_builder, "_combine_columns", combining)
    return seen


def _scan_family(cfg):
    """The family the scans of a run of cfg read, and the run's context."""
    ctx = {}
    for stage in ("schedule", "build", "smoothness"):
        status, _, _ = pipeline.STAGES[stage][0](cfg, ctx)
        assert status == "PASS"
    return ctx["scan_family"], ctx


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


def _resampled_family():
    fam, ctx = _scan_family(RunConfig(seed=RESAMPLED_SEED))
    assert fam is not ctx["family"]
    return fam


FAMILIES = {
    "resampled mcm": _resampled_family,
    "general Fermat over Q": lambda: build_sections(
        ProblemShape(3, 2, 0), "general_fermat", field=QQ, lambdas=(2, 2, 2, 2),
        degrees=(4, 4), seed=2),
}


@pytest.mark.parametrize("label", FAMILIES)
def test_a_given_bundle_reads_as_a_built_one(label):
    fam = FAMILIES[label]()
    K = build_matrices(fam)
    for u in _glue_units(fam):
        args = (fam, u["selection"], u["j1"], u["j2"])
        assert verify_gluing(*args, which=u["which"], matrices=K) \
            == verify_gluing(*args, which=u["which"]), label
    for u in _transition_units(fam):
        args = (fam, u["selection"], u["omit"], u["l1"], u["l2"])
        kwargs = dict(which=u["which"], kind=u["kind"])
        assert verify_transition(*args, matrices=K, **kwargs) \
            == verify_transition(*args, **kwargs), label
    z, dz = [1, 2, 3, 4, 2][: fam.shape.N + 1], [0, 1, 4, 2, 3][: fam.shape.N + 1]
    q = fam.field.p or 101
    shared, own = standard_forms(fam, K), standard_forms(fam)
    assert [(f.kind, f.twist, f.evaluate_at(z, dz, q)) for f in shared] \
        == [(f.kind, f.twist, f.evaluate_at(z, dz, q)) for f in own], label
    if fam.mode == "mcm":
        rep = characterization_crosscheck(fam, 5, matrices=K)
        assert rep["incidence_pairs"] > 0
        assert rep == characterization_crosscheck(fam, 5)


def _refusing_calls(fam, K):
    sel = tuple(range(1, fam.shape.n + 1))
    return [
        lambda: verify_gluing(fam, sel, 0, 1, which=("K_nu", 0), matrices=K),
        lambda: verify_transition(fam, sel, 0, 0, 1, which=("K_nu", 0), matrices=K),
        lambda: standard_forms(fam, K),
        lambda: characterization_crosscheck(fam, 5, matrices=K),
    ]


def test_a_bundle_that_is_not_the_familys_is_refused():
    fam = build_family(RunConfig(), 7)
    equal = build_family(RunConfig(), 7)
    assert equal == fam and equal is not fam
    other = build_family(RunConfig(), 8)
    for K in (build_matrices(other), build_matrices(equal)):
        for call in _refusing_calls(fam, K):
            with pytest.raises(ValueError, match="another family"):
                call()
    for call in _refusing_calls(fam, build_selected(build_matrices(fam), ("K_nu", 0))):
        with pytest.raises(ValueError, match="full bundle"):
            call()


def test_a_hidden_bundle_is_refused():
    shape = ProblemShape(4, 2, 0)  # n = 2: a bundle at depth 1 exists
    fam = build_sections(shape, "mcm", field=Field(5), schedule=build_schedule(shape, 2),
                         seed=3)
    hidden = build_matrices(fam, (0,))
    for call in (
        lambda: verify_gluing(fam, (1, 2), 0, 1, which=("K_nu", 0), matrices=hidden),
        lambda: verify_transition(fam, (1, 2), 0, 0, 1, which=("K_nu", 0), matrices=hidden),
        lambda: standard_forms(fam, hidden),
    ):
        with pytest.raises(ValueError, match="full bundle"):
            call()


def test_a_selection_is_built_once_per_bundle():
    fam = build_family(RunConfig(), 7)
    K = build_matrices(fam)
    S = build_selected(K, ("K_tau_rho", 0, 1))
    assert build_selected(K, ["K_tau_rho", 0, 1]) is S
    # another bundle of the same family has its own selections
    assert build_selected(build_matrices(fam), ("K_tau_rho", 0, 1)) is not S
    assert dataclasses.replace(K)._selected == {}
