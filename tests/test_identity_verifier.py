import dataclasses
import inspect
import random
from types import SimpleNamespace

import pytest
from conftest import det, expand_form
from hypothesis import given, settings
from hypothesis import strategies as st
from substitution_oracle import chart_images, reference_transition, substitute_dz

from mcmforms import exact_algebra, identity_verifier, section_builder
from mcmforms.exact_algebra import (
    Field,
    MultiPoly,
    QQ,
    from_literal,
    times_monomial,
    to_literal,
    total_differential,
    z_power,
)
from mcmforms.identity_verifier import (
    evaluation_matrix,
    monomial_basis,
    verify_gluing,
    verify_hidden,
    verify_surjectivity,
    verify_transition,
)
from mcmforms.pipeline import _glue_units, _transition_units
from mcmforms.schedule import ProblemShape, TwistLedger, build_schedule, twist_ledger
from mcmforms.section_builder import (
    DividedMatrix,
    build_matrices,
    build_sections,
    build_selected,
    extract_forms,
)
from mcmforms.util import child_rng, rank_mod_p
from test_exact_algebra import polynomial_laplace_sides

F101 = Field(101)

UNIT_LINE = {"A:1:0": "1", "A:1:1": "1", "A:1:2": "1"}


def unit_line_family():
    return build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=QQ,
        lambdas=(1, 1, 1), degrees=(1,), explicit=UNIT_LINE,
    )


def fermat_family(N, c, r, lambdas, degrees, field=F101, seed=0, twists=None):
    return build_sections(
        ProblemShape(N, c, r), "general_fermat", field=field, lambdas=lambdas,
        degrees=degrees, twists=twists, seed=seed,
    )


# ----- gluing -----


def test_line_gluing_certificate_matches_hand_expansion():
    fam = unit_line_family()
    rep = verify_gluing(fam, (1,), 0, 1)
    assert rep["ok"] and rep["generators"] == 2
    K = build_matrices(fam)
    M = [list(K.entries[0]), list(K.entries[1])]
    _, cert = polynomial_laplace_sides(M, 0, 1)
    F_dz2 = from_literal(
        "1 * z0^1 dz2^1 + 1 * z1^1 dz2^1 + 1 * z2^1 dz2^1", 2)
    dF_z2 = from_literal(
        "1 * z2^1 dz0^1 + 1 * z2^1 dz1^1 + 1 * z2^1 dz2^1", 2)
    assert cert == F_dz2 - dF_z2
    psi0 = expand_form(extract_forms(K, [(1,)], omit=0, kind="psi")[0])
    psi1 = expand_form(extract_forms(K, [(1,)], omit=1, kind="psi")[0])
    assert psi0 - psi1 == cert


@pytest.mark.parametrize("selection", [(1, 1), (2, 1)])
def test_gluing_refuses_a_repeated_or_unordered_selection(selection):
    # with one differential row twice the form vanishes identically, so
    # gluing it would test nothing
    fam = fermat_family(4, 2, 0, (2,) * 5, (3, 3), field=Field(5), seed=1)
    assert verify_gluing(fam, (1, 2), 0, 1)["ok"]
    with pytest.raises(ValueError, match="distinct|increasing"):
        verify_gluing(fam, selection, 0, 1)
    with pytest.raises(ValueError, match="distinct|increasing"):
        extract_forms(build_matrices(fam), [selection], omit=0)


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_gluing_refuses_equal_chart_columns(mode):
    # psi_j - psi_j == 0 tests nothing
    fam = unit_line_family()
    with pytest.raises(ValueError, match="chart columns must differ"):
        verify_gluing(fam, (1,), 1, 1, which=None, mode=mode)
    assert verify_gluing(fam, (1,), 1, 2, mode=mode)["ok"]


def test_gluing_rational_quadratic_family():
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), field=QQ, seed=7)
    for j1 in range(3):
        for j2 in range(3):
            if j1 != j2:
                assert verify_gluing(fam, (1,), j1, j2)["ok"]


def test_gluing_all_pairs_all_selections_small_shapes():
    shapes = [(2, 1, 0), (3, 2, 0), (3, 1, 1)]
    rng = random.Random(5)
    for N, c, r in shapes:
        for fam_idx in range(10):
            lambdas = tuple(rng.randrange(1, 3) for _ in range(N + 1))
            degrees = tuple(max(lambdas) + rng.randrange(2) for _ in range(c + r))
            fam = fermat_family(N, c, r, lambdas, degrees, seed=fam_idx)
            n = N - c - r
            selections = [(j,) for j in range(1, c + 1)] if n == 1 else [
                tuple(range(1, n + 1))]
            for sel in selections:
                for j1 in range(N + 1):
                    for j2 in range(j1 + 1, N + 1):
                        assert verify_gluing(fam, sel, j1, j2)["ok"]


def test_gluing_on_combined_mcm_columns():
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=3)
    assert verify_gluing(fam, (1,), 0, 4, which=("K_nu", 2))["ok"]
    assert verify_gluing(fam, (2,), 1, 3, which=("K_tau_rho", 0, 2))["ok"]


# ----- gluing mutants: each must FAIL, never ERROR or PASS -----


def mcm_430_family():
    shape = ProblemShape(4, 3, 0)
    return build_sections(shape, "mcm", field=Field(5), schedule=build_schedule(shape, 2), seed=3)


def mutate_matrices(monkeypatch, change):
    """Make the verifier read every family's matrix with change(K) applied:
    the family's holder builds it (FamilyData.matrices)."""
    real = section_builder.build_matrices

    def mutated(fam):
        K = real(fam)
        change(K)
        return K

    monkeypatch.setattr(section_builder, "build_matrices", mutated)


def glue_all(fam, mode, **kwargs):
    """verify_gluing on each of the pipeline's gluing units of fam."""
    return [verify_gluing(fam, u["selection"], u["j1"], u["j2"], which=u["which"],
                          mode=mode, **kwargs) for u in _glue_units(fam)]


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_gluing_fails_a_value_row_that_does_not_sum_to_its_section(monkeypatch, mode):
    # psi_j1 - psi_j2 == sum_i G_i * Cof_i still holds here, as for every
    # matrix; the row sum no longer equals F_1
    fam = mcm_430_family()
    assert all(rep["ok"] for rep in glue_all(fam, mode))

    def add(K):
        K.entries[0][0] = K.entries[0][0] + MultiPoly.z(4, 1, fam.field, power=7)

    mutate_matrices(monkeypatch, add)
    for rep in glue_all(fam, mode):
        (check,) = rep["checks"]
        assert not rep["ok"] and check["verdict"] == "fail" and check["mode"] == mode
        witness = check["witness"]
        assert (witness["bundle"], witness["row"], witness["col"]) == ("full", 0, None)
        if mode == "exact":
            assert witness["lhs_minus_rhs"] == "1 * z1^7"
        else:
            assert (witness["lhs"] - witness["rhs"] - witness["z"][1] ** 7) % 5 == 0


def test_gluing_fails_a_differential_entry_and_names_it(monkeypatch):
    fam = mcm_430_family()
    extra = MultiPoly.monomial(4, fam.field, 1, (3, 0, 0, 0, 0), (0, 1, 0, 0, 0))

    def off(K):
        K.entries[4][2] = K.entries[4][2] + extra

    mutate_matrices(monkeypatch, off)
    for mode in ("exact", "probabilistic"):
        (check,) = verify_gluing(fam, (1,), 0, 1, which=("K_nu", 0), mode=mode)["checks"]
        assert check["verdict"] == "fail"
        assert (check["witness"]["bundle"], check["witness"]["row"], check["witness"]["col"]) \
            == ("full", 4, 2)
    assert check["witness"]["lhs"] != check["witness"]["rhs"]
    (check,) = verify_gluing(fam, (1,), 0, 1, which=("K_nu", 0))["checks"]
    assert check["witness"]["lhs_minus_rhs"] == to_literal(extra)


def test_gluing_fails_a_layout_that_drops_a_column(monkeypatch):
    fam = mcm_430_family()
    real = section_builder.build_selected

    def dropped(K, which):
        S = real(K, which)
        return dataclasses.replace(S, entries=[row[:-1] for row in S.entries]) \
            if which == ("K_tau_rho", 0, 1) else S

    monkeypatch.setattr(section_builder, "build_selected", dropped)
    assert verify_gluing(fam, (1,), 0, 1, which=("K_nu", 0))["ok"]
    for mode in ("exact", "probabilistic"):
        rep = verify_gluing(fam, (1,), 0, 1, which=("K_tau_rho", 0, 1), mode=mode)
        witness = rep["checks"][0]["witness"]
        assert not rep["ok"]
        assert (witness["bundle"], witness["col"]) == ("K_tau_rho(0,1)", None)
        # exact mode names the first row; a sampled point over F_5 may
        # miss row 0 and catch another
        assert witness["row"] == 0 if mode == "exact" else witness["row"] in (0, 1, 2)


def test_a_term_moved_between_A_columns_passes_gluing_and_fails_divisibility(monkeypatch):
    # every row sum and differential row holds, so gluing cannot see it;
    # the declared column divisors must
    from mcmforms import pipeline
    from mcmforms.pipeline import RunConfig, run_pipeline

    shape = ProblemShape(3, 2, 0)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=build_schedule(shape, 2), seed=7)
    real = build_matrices(fam)
    moved = MultiPoly(3, fam.field, dict([next(iter(real.entries[0][0].terms.items()))]))
    rows = [list(row) for row in real.entries]
    rows[0][0], rows[0][1] = rows[0][0] - moved, rows[0][1] + moved
    rows[2:] = [[total_differential(e) for e in row] for row in rows[:2]]
    mutant = dataclasses.replace(real, entries=rows)
    monkeypatch.setattr(section_builder, "build_matrices", lambda f: mutant)
    monkeypatch.setattr(pipeline, "build_family", lambda cfg, seed: fam)
    assert all(rep["ok"] for rep in glue_all(fam, "exact"))
    stages = run_pipeline(RunConfig(shape=shape, stages=("divisibility", "gluing")))["stages"]
    assert stages["gluing"]["status"] == "PASS"
    assert stages["divisibility"]["status"] == "FAIL"
    assert stages["divisibility"]["report"]["error"] == "entry (0,0) not divisible by z1^4011"
    assert (stages["divisibility"]["witness"]["row"], stages["divisibility"]["witness"]["col"]) == (0, 0)


def test_gluing_characteristic_guard():
    fam = fermat_family(2, 1, 0, (2, 2, 2), (2,), field=Field(2), seed=1)
    rep = verify_gluing(fam, (1,), 0, 1)
    assert rep["ok"] and rep["checks"][0]["verdict"] == "skip"


def test_gluing_probabilistic_mode():
    fam = build_sections(ProblemShape(4, 3, 0), "general_fermat", field=QQ,
                         lambdas=(2, 1, 2, 1, 2), degrees=(3, 3, 4), seed=7)
    rep = verify_gluing(fam, (1,), 0, 3, mode="probabilistic", seed=0)
    assert rep["ok"]
    check = rep["checks"][0]
    assert check["mode"] == "probabilistic" and check["trials"] == 20
    assert "certificate_terms" not in rep
    assert "certificate_terms" not in verify_gluing(fam, (1,), 0, 3)
    # exact and probabilistic agree on a shape where both are cheap
    small = fermat_family(3, 2, 0, (2, 2, 2, 2), (3, 3), seed=1)
    for j1, j2 in [(0, 1), (1, 3), (2, 0)]:
        assert verify_gluing(small, (1,), j1, j2)["ok"]
        assert verify_gluing(small, (1,), j1, j2, mode="probabilistic")["ok"]
    with pytest.raises(ValueError, match="unknown mode"):
        verify_gluing(small, (1,), 0, 1, mode="guess")


# ----- transition -----


def test_tangent_scaling_holds_for_forms_but_not_in_general():
    fam = unit_line_family()
    K = build_matrices(fam)
    G = expand_form(extract_forms(K, [(1,)], omit=2, kind="psi")[0])
    for l in range(3):
        assert substitute_dz(G, chart_images(2, QQ, l)) == times_monomial(G, z_power(2, l, 1))
    raw = from_literal("dz0", 2, QQ)
    assert substitute_dz(raw, chart_images(2, QQ, 1)) != times_monomial(raw, z_power(2, 1, 1))


def test_transition_same_chart_trivial():
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), seed=2)
    rep = verify_transition(fam, (1,), omit=0, l1=1, l2=1, mode="exact")
    assert rep["ok"]


def test_transition_probabilistic_quadratic():
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), seed=4)
    rep = verify_transition(fam, (1,), omit=2, l1=0, l2=1, mode="probabilistic")
    assert rep["ok"]
    assert rep["checks"][0]["trials"] == 20
    assert rep["exponent"] == 3 + (2 - 1)  # heart' + lambda_j - 1


def test_transition_exact_n3():
    fam = fermat_family(3, 1, 1, (2, 2, 2, 2), (3, 2), seed=6)
    rep = verify_transition(fam, (1,), omit=1, l1=0, l2=3, mode="exact")
    assert rep["ok"]
    # heart' = (3+2) + 3 - sum(lambda-1) = 8 - 4; omitted column adds 1
    assert rep["exponent"] == 4 + 1


def test_transition_rational_probabilistic_uses_big_prime():
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), field=QQ, seed=7)
    rep = verify_transition(fam, (1,), omit=0, l1=1, l2=2, mode="probabilistic")
    assert rep["ok"]


def test_transition_exponent_with_twists():
    fam = fermat_family(2, 1, 0, (1, 2, 1), (3,), seed=8, twists=(1,))
    rep = verify_transition(fam, (1,), omit=1, l1=0, l2=2, mode="exact")
    assert rep["ok"]
    # heart' = 6 - sum(lambda - 1) = 5, omitted lambda_1 - 1 = 1
    assert rep["exponent"] == 6


def test_transition_on_mcm_selected_columns():
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=9)
    rep = verify_transition(fam, (1,), omit=4, l1=0, l2=3, mode="exact",
                            which=("K_nu", 0))
    assert rep["ok"]
    assert rep["exponent"] == -8 + sched.mu[(4, 0)] - 1
    rep2 = verify_transition(fam, (3,), omit=0, l1=1, l2=2, mode="probabilistic",
                             which=("K_tau_rho", 1, 3), seed=5)
    assert rep2["ok"]


def test_sampled_gluing_failure_keeps_its_point(monkeypatch):
    # one term added to a value entry: its row no longer sums to F_1; the
    # witness is the point, the pair and the two values the sampler saw
    fam = fermat_family(3, 2, 0, (2, 2, 2, 2), (3, 3), seed=1)

    def add(K):
        K.entries[0][2] = K.entries[0][2] + MultiPoly.monomial(3, fam.field, 1, (0, 0, 3, 0))

    mutate_matrices(monkeypatch, add)
    rep = verify_gluing(fam, (1,), 0, 1, mode="probabilistic", seed=2)
    assert not rep["ok"]
    assert rep["checks"][0]["witness"] == {
        "trial": 0, "z": [94, 52, 30, 39], "dz": [65, 31, 35, 29],
        "bundle": "full", "row": 0, "col": None, "lhs": 29, "rhs": 97}
    assert (29 - 97 - 30 ** 3) % 101 == 0  # the added z2^3 at z


def test_sampling_catches_a_broken_transition_and_keeps_its_points(monkeypatch):
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), seed=4)
    real = identity_verifier.extract_forms

    def broken(*args, **kwargs):
        # one term h, of the entry's own bidegree, added to a divided entry
        # of the differential row: h(z; z) != 0 breaks Euler's relation, and
        # exact and sampled checks both read it, from the divided matrix
        (form,) = real(*args, **kwargs)
        rows = form.matrix.rows
        entry = rows[form.matrix_rows[-1]][0]
        zdeg, n = entry.bidegree()
        rows[form.matrix_rows[-1]][0] = entry + MultiPoly.monomial(
            entry.N, entry.field, 1, (zdeg, 0, 0), (0, n, 0))
        return [form]

    monkeypatch.setattr(identity_verifier, "extract_forms", broken)
    exact = verify_transition(fam, (1,), omit=2, l1=0, l2=1, mode="exact")
    assert not exact["ok"]
    # expanding the broken G and substituting into it fails every scaling
    # and the transition: the one transition check fails with them
    form = broken(build_matrices(fam), [(1,)], omit=2)[0]
    assert reference_transition(form, 0, 1) == [
        ("scaling chart 0", "fail"), ("scaling chart 1", "fail"), ("transition", "fail")]
    # the witness names the entry (bundle row c + r + j - 1 = 1, column 0)
    # and D(z; z) - deg(F_1) * V, which is h(z; z) = z0 z1
    entry = {"bundle": "full", "row": 1, "col": 0, "lhs_minus_rhs": "1 * z0^1 z1^1"}
    assert [(c["id"], c["verdict"], c["witness"]) for c in exact["checks"]] == [
        ("transition", "fail", entry), ("transition exponent", "pass", None)]
    # sampling compares the same pairs and fails the same check; the
    # witness keeps the point, the entry and its two sides there
    sampled = verify_transition(fam, (1,), omit=2, l1=0, l2=1, mode="probabilistic")
    assert not sampled["ok"]
    witness = {"trial": 0, "z": [22, 14, 40], "dz": [17, 19, 9],
               "bundle": "full", "row": 1, "col": 0, "lhs": 43, "rhs": 38}
    assert [(c["id"], c["verdict"], c["mode"], c["trials"], c["witness"])
            for c in sampled["checks"]] == [
        ("transition", "fail", "probabilistic", 20, witness),
        ("transition exponent", "pass", "exact", 0, None)]
    assert (43 - 38 - 22 * 14) % 101 == 0  # h(z; z) = z0 z1 at z
    # on one chart the broken entry fails the same check with the same
    # witness: nothing passes that was not tested
    assert verify_transition(fam, (1,), omit=2, l1=1, l2=1, mode="probabilistic") == \
        dict(sampled, charts=(1, 1))
    assert verify_transition(fam, (1,), omit=2, l1=1, l2=1, mode="exact") == \
        dict(exact, charts=(1, 1))
    assert reference_transition(form, 1, 1)[0] == ("scaling chart 1", "fail")


def fractional_fermat_family():
    """A (3,2,0) general Fermat family over Q whose explicit linear
    coefficients have denominators up to 7."""
    rng = random.Random(11)
    explicit = {}
    for i in (1, 2):
        for j in range(4):
            terms = [f"{rng.choice((-1, 1)) * rng.randrange(1, 9)}/{rng.randrange(1, 8)} * z{k}^1"
                     for k in range(4) if rng.random() < 0.7]
            explicit[f"A:{i}:{j}"] = " + ".join(terms) or "1/3 * z0^1"
    return build_sections(ProblemShape(3, 2, 0), "general_fermat", field=QQ,
                          lambdas=(2, 2, 2, 2), degrees=(3, 3), explicit=explicit)


def transition_families():
    """(label, family) of every shape the exact transition is checked on:
    mcm over F_5, Fermat over Q, and n = 2 over F_7."""
    def mcm(N, c, seed):
        shape = ProblemShape(N, c, 0)
        return build_sections(shape, "mcm", field=Field(5),
                              schedule=build_schedule(shape, 2), seed=seed)

    return [
        ("mcm(3,2,0)/F5", mcm(3, 2, 3)),
        ("mcm(4,3,0)/F5", mcm(4, 3, 9)),
        ("fermat(3,2,0)/Q", fermat_family(3, 2, 0, (2, 2, 2, 2), (4, 4), field=QQ, seed=1)),
        ("fermat(3,2,0)/Q fractional", fractional_fermat_family()),
        ("fermat(4,2,0)/F7 n=2", fermat_family(4, 2, 0, (2,) * 5, (3, 3), field=Field(7), seed=3)),
    ]


def transition_units(fam):
    """The pipeline's transition units of fam, and its first unit on one chart."""
    units = _transition_units(fam)
    return units + [dict(units[0], l1=units[0]["l2"])]


def unit_form(fam, u):
    """The form of transition unit u, extracted as verify_transition does."""
    K = build_matrices(fam)
    K = K if u["which"] is None else build_selected(K, u["which"])
    return extract_forms(K, [u["selection"]], omit=u["omit"], kind=u["kind"])[0]


@pytest.mark.parametrize("fam", [pytest.param(fam, id=label)
                                 for label, fam in transition_families()])
def test_exact_transition_matches_expand_then_substitute(fam):
    for u in transition_units(fam):
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode="exact", which=u["which"], kind=u["kind"])
        form = unit_form(fam, u)
        assert [c["id"] for c in rep["checks"]] == ["transition", "transition exponent"]
        # every scaling and the transition of the reference carry the one
        # transition verdict
        verdict = rep["checks"][0]["verdict"]
        assert all(v == verdict for _, v in reference_transition(form, u["l1"], u["l2"])), u
        assert rep["ok"] and all(c["mode"] == "exact" for c in rep["checks"])


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_exact_transition_projects_divided_entries_and_never_expands_G(monkeypatch, mode):
    # both modes read the divided differential entries one at a time and
    # form only the products z_k * [dz_k]D, at most N + 1 of them an entry
    # D, and a sampled unit forms exactly the exact unit's products; neither
    # evaluates the divided matrix (sampling evaluates the pairs through
    # their own EvalPlan) nor takes a determinant
    def refuse(*args):
        raise AssertionError("a transition evaluated the matrix or took a determinant")

    products, forms = [], []
    real_mul, real_extract = MultiPoly.__mul__, identity_verifier.extract_forms

    def record(a, b):
        products.append((a, b))
        return real_mul(a, b)

    def keep(*args, **kwargs):
        forms.extend(real_extract(*args, **kwargs))
        return forms[-1:]

    def run(fam, u, run_mode):
        products.clear()
        monkeypatch.setattr(MultiPoly, "__mul__", record)
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode=run_mode, which=u["which"], kind=u["kind"])
        monkeypatch.setattr(MultiPoly, "__mul__", real_mul)
        return rep, list(products)

    assert not hasattr(identity_verifier, "det_mod_p")
    monkeypatch.setattr(exact_algebra, "det_mod_p", refuse)
    monkeypatch.setattr(section_builder, "det_mod_p", refuse)
    monkeypatch.setattr(DividedMatrix, "values_at", refuse)
    monkeypatch.setattr(identity_verifier, "extract_forms", keep)
    for label, fam in transition_families()[::2]:
        N = fam.shape.N
        coords = [MultiPoly.z(N, k, fam.field) for k in range(N + 1)]
        for u in transition_units(fam):
            rep, made = run(fam, u, mode)
            assert rep["ok"] and rep["mode"] == mode, label
            assert all(c["mode"] == mode for c in rep["checks"][:-1]), label
            form = forms[-1]
            diff = [form.matrix.rows[t] for t in form.matrix_rows[-form.dz_degree:]]
            pieces = {exp[:N + 1] for row in diff for e in row for exp in e.terms}
            assert 0 < len(made) <= (N + 1) * len(diff) * len(diff[0]), label
            for z_k, piece in made:
                assert z_k in coords and piece.dz_degree() in (None, 0), label
                assert {exp[:N + 1] for exp in piece.terms} <= pieces, label
            if mode == "probabilistic":
                assert made == run(fam, u, "exact")[1], label


def test_sampled_transition_forms_the_exact_units_products(monkeypatch):
    # probabilistic mode builds the pairs exactly as exact mode does: the
    # same products z_k * [dz_k]D, in the same order, before it samples
    shape = ProblemShape(3, 2, 0)
    fam = build_sections(shape, "mcm", field=Field(5),
                         schedule=build_schedule(shape, 2), seed=3)
    products = {"exact": [], "probabilistic": []}
    real = MultiPoly.__mul__

    for mode, made in products.items():
        def record(a, b, made=made):
            made.append((a, b))
            return real(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", record)
        rep = verify_transition(fam, (1,), omit=0, l1=0, l2=1, mode=mode, which=("K_nu", 0))
        monkeypatch.setattr(MultiPoly, "__mul__", real)
        assert rep["ok"] and rep["mode"] == mode
    assert rep["checks"][0]["trials"] == 20
    assert products["probabilistic"] == products["exact"] and products["exact"]


def test_sampled_identities_compile_once_and_never_evaluate_term_by_term(compiled_plans):
    shape = ProblemShape(3, 2, 0)
    fam = build_sections(shape, "mcm", field=Field(5),
                         schedule=build_schedule(shape, 2), seed=3)
    fermat = fermat_family(3, 2, 0, (2, 2, 2, 2), (3, 3), field=QQ, seed=1)
    assert verify_transition(fam, (1,), omit=0, l1=0, l2=1, mode="probabilistic",
                             which=("K_nu", 0))["ok"]
    # both sides of n differential rows of N entries (one column omitted),
    # one plan
    assert compiled_plans == [2 * 3]
    assert verify_gluing(fermat, (1,), 0, 2, mode="probabilistic")["ok"]
    # both sides of c + r row sums and c * (N + 1) differential entries, one plan
    assert compiled_plans == [6, 2 * (2 + 2 * 4)]


def test_one_comparer_serves_both_transition_modes(monkeypatch):
    # the minor-sampling path is gone, and the pairs take no mode: both
    # modes hand the comparer the one pair list of _transition_pairs
    gone = ("_transition_rows", "_transition_identities", "Identity", "det_mod_p",
            "_euler_witness")
    assert [name for name in gone if hasattr(identity_verifier, name)] == []
    pairs_of = identity_verifier._transition_pairs
    assert list(inspect.signature(pairs_of).parameters) == ["form", "fam", "bundle"]
    compared = []
    real = identity_verifier._check_hypothesis

    def record(check_id, pairs, fam, mode, *rest):
        compared.append((mode, pairs))
        return real(check_id, pairs, fam, mode, *rest)

    monkeypatch.setattr(identity_verifier, "_check_hypothesis", record)
    for label, fam in transition_families():
        for u in transition_units(fam):
            compared.clear()
            for mode in ("exact", "probabilistic"):
                assert verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                         mode=mode, which=u["which"], kind=u["kind"])["ok"]
            pairs, nonlinear = pairs_of(unit_form(fam, u), fam, identity_verifier._label(u["which"]))
            assert pairs and nonlinear is None, label
            assert compared == [("exact", pairs), ("probabilistic", pairs)], label


def test_sampled_branch_draws_seeded_points_and_reports_the_first_mismatch(monkeypatch):
    # trial t draws z, then dz, mod p from its own child stream; the first
    # trial with z1 != 0 fails the second pair, and no trial after it is drawn
    N, F = 2, Field(7)
    fam = SimpleNamespace(shape=SimpleNamespace(N=N), field=F)
    zero = MultiPoly.zero(N, F)
    pairs = [("b", 0, None, zero, zero), ("b", 1, 0, MultiPoly.z(N, 1, F), zero)]
    streams = []

    def record(*key):
        streams.append(key)
        return child_rng(*key)

    monkeypatch.setattr(identity_verifier, "child_rng", record)
    check = identity_verifier._check_hypothesis("c", pairs, fam, "probabilistic", 3, "s")
    drawn = []
    for t in range(identity_verifier.SAMPLED_TRIALS):
        rng = child_rng(3, "s", t)
        drawn.append(([rng.randrange(7) for _ in range(3)], [rng.randrange(7) for _ in range(3)]))
    first = next(t for t, (z, _) in enumerate(drawn) if z[1])
    z, dz = drawn[first]
    assert check == {"id": "c", "mode": "probabilistic", "trials": 20, "verdict": "fail",
                     "witness": {"trial": first, "z": z, "dz": dz, "bundle": "b", "row": 1,
                                 "col": 0, "lhs": z[1], "rhs": 0}}
    assert streams == [(3, "s", t) for t in range(first + 1)]
    # over Q the points live modulo 2**31 - 1, where that constant is zero
    streams.clear()
    fam.field = QQ
    prime = MultiPoly.const(N, identity_verifier.IDENTITY_PRIME, QQ)
    check = identity_verifier._check_hypothesis(
        "c", [("b", 0, None, prime, MultiPoly.zero(N, QQ))], fam, "probabilistic", 0, "q")
    assert (check["verdict"], check["trials"], check["witness"]) == ("pass", 20, None)
    assert streams == [(0, "q", t) for t in range(20)]


def test_sampling_lives_in_one_branch_of_the_comparer():
    gone = ("sample_identity", "identity_modulus", "IDENTITY_PRIME", "child_rng")
    assert [name for name in gone if hasattr(exact_algebra, name)] == []
    # every sampled check runs SAMPLED_TRIALS trials: no verifier takes a count
    for fn in (verify_gluing, verify_transition, identity_verifier._check_hypothesis):
        assert "trials" not in inspect.signature(fn).parameters, fn.__name__


def test_transition_unknown_mode():
    fam = unit_line_family()
    with pytest.raises(ValueError):
        verify_transition(fam, (1,), omit=0, l1=0, l2=1, mode="sideways")


def test_transition_defaults_to_exact_and_refuses_auto():
    # no mode picks a check by the size of an expansion: "auto" is refused
    fam = unit_line_family()
    rep = verify_transition(fam, (1,), omit=0, l1=0, l2=1)
    assert rep["ok"] and rep["mode"] == "exact"
    assert all(c["mode"] == "exact" and c["trials"] == 0 for c in rep["checks"])
    with pytest.raises(ValueError, match="unknown mode 'auto'"):
        verify_transition(fam, (1,), omit=0, l1=0, l2=1, mode="auto")


# ----- the Euler certificate -----


def euler_split(V, deg):
    """A polynomial D linear in dz with D(z; z) == deg * V, for V without a
    constant term: each term of V divided by its first z_k, times dz_k."""
    n1 = V.N + 1
    terms = {}
    for exp, c in V.terms.items():
        k = next(i for i in range(n1) if exp[i])
        terms[exp[:k] + (exp[k] - 1,) + exp[k + 1:n1 + k] + (1,) + exp[n1 + k + 1:]] = c
    return MultiPoly(V.N, V.field, terms).scale(deg)


def euler_kernel_term(N, field, g, a, b):
    """g * (z_a dz_b - z_b dz_a), which vanishes at dz = z."""
    def z(k):
        return MultiPoly.z(N, k, field)

    def dz(k):
        return from_literal(f"dz{k}", N, field)

    return g * (z(a) * dz(b) - z(b) * dz(a))


def bare_certificate(rows, cr, selection, degrees, mode="exact"):
    """The transition check of a square matrix given bare: cr value rows,
    then the differential row of each selected j (1-based), all columns
    kept; its witness, or None when it passes."""
    N, field = rows[0][0].N, rows[0][0].field
    form = SimpleNamespace(matrix=SimpleNamespace(rows=rows), matrix_rows=tuple(range(len(rows))),
                           selection=selection, omit=len(rows[0]))
    fam = SimpleNamespace(shape=SimpleNamespace(N=N, c=cr, r=0), field=field,
                          section_degrees=lambda: tuple(degrees))
    pairs, nonlinear = identity_verifier._transition_pairs(form, fam, "bare")
    if nonlinear is not None:
        return nonlinear
    return identity_verifier._check_hypothesis("transition", pairs, fam, mode)["witness"]


def sparse_z_poly(rng, N, field, low, high, terms=3):
    """Up to `terms` terms in z alone, of z-degree low..high; maybe zero."""
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        exp = [0] * (2 * (N + 1))
        for _ in range(rng.randrange(low, high + 1)):
            exp[rng.randrange(N + 1)] += 1
        out[tuple(exp)] = field.rand_nonzero(rng)
    return MultiPoly(N, field, out)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_euler_certificate_implies_equal_oracle_minors(data):
    # random matrices over F_5 and Q whose differential entries keep
    # D(z; z) == deg(F_j) * V, plus terms that vanish at dz = z: the
    # certificate passes, and the oracle's minors agree, G(w_l) == z_l^n G
    field = data.draw(st.sampled_from((Field(5), QQ)), label="field")
    N = data.draw(st.integers(1, 2), label="N")
    cr = data.draw(st.integers(1, 3), label="value rows")
    n = data.draw(st.integers(1, min(cr, 4 - cr)), label="n")
    selection = tuple(sorted(data.draw(st.permutations(range(1, cr + 1)))[:n]))
    degrees = data.draw(st.lists(st.integers(0, 6), min_size=cr, max_size=cr), label="degrees")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    size = cr + n
    value = [[sparse_z_poly(rng, N, field, 1, 2) for _ in range(size)] for _ in range(cr)]
    diff = []
    for j in selection:
        row = []
        for V in value[j - 1]:
            D = euler_split(V, degrees[j - 1])
            for a in range(N + 1):
                for b in range(a + 1, N + 1):
                    D = D + euler_kernel_term(N, field, sparse_z_poly(rng, N, field, 0, 1, 2), a, b)
            row.append(D)
        diff.append(row)
    assert bare_certificate(value + diff, cr, selection, degrees) is None
    assert bare_certificate(value + diff, cr, selection, degrees, "probabilistic") is None
    G = det(value + diff)
    for l in range(N + 1):
        moved = [[substitute_dz(e, chart_images(N, field, l)) for e in row] for row in diff]
        assert det(value + moved) == G * MultiPoly.z(N, l, field, power=n), l


def mutated_transition(monkeypatch, fam, u, h_of, mode="exact"):
    """verify_transition of unit u in `mode`, after h_of(D) is added to
    the divided entry D of highest z-degree in the form's last differential
    row: (report, the mutated form, D's bundle row and column, h)."""
    real = identity_verifier.extract_forms
    seen = {}

    def mutate(*args, **kwargs):
        (form,) = real(*args, **kwargs)
        rows, t = form.matrix.rows, form.matrix_rows[-1]
        c = max((i for i, e in enumerate(rows[t]) if not e.is_zero()),
                key=lambda i: rows[t][i].z_degree())
        h = h_of(rows[t][c])
        rows[t][c] = rows[t][c] + h
        cols = [col for col in range(len(rows[t]) + 1) if col != form.omit]
        cr = len(form.matrix_rows) - form.dz_degree
        seen.update(form=form, row=cr + form.selection[-1] - 1, col=cols[c], h=h)
        return [form]

    with monkeypatch.context() as m:
        m.setattr(identity_verifier, "extract_forms", mutate)
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode=mode, which=u["which"], kind=u["kind"])
    return rep, seen["form"], seen["row"], seen["col"], seen["h"]


def in_both_modes(cases):
    """pytest params (value, mode) of every (id, value) case in each mode:
    exact under the case's id, sampled under "<id>-probabilistic"."""
    return [pytest.param(value, mode, id=ident if mode == "exact" else f"{ident}-{mode}")
            for ident, value in cases for mode in ("exact", "probabilistic")]


@pytest.mark.parametrize("fam, mode", in_both_modes(transition_families()))
def test_euler_certificate_kills_a_term_that_survives_dz_equals_z(monkeypatch, fam, mode):
    # h = z_k^deg dz_k, with h(z; z) = z_k^(deg + 1) != 0: the transition
    # check fails, on one chart too, naming the entry and h(z; z) (exact)
    # or the point where the entry's two sides differ by h(z; z) (sampled)
    N = fam.shape.N
    m = fam.field.p or identity_verifier.IDENTITY_PRIME
    for index, u in enumerate(transition_units(fam)):
        k = index % (N + 1)

        def h_of(D):
            return MultiPoly.z(N, k, D.field, power=D.z_degree()) \
                * from_literal(f"dz{k}", N, D.field)

        rep, _, row, col, h = mutated_transition(monkeypatch, fam, u, h_of, mode)
        assert not rep["ok"]
        transition, exponent = rep["checks"]
        witness, which = transition["witness"], u["which"]
        bundle = "full" if which is None else f"{which[0]}({','.join(map(str, which[1:]))})"
        entry = {"bundle": bundle, "row": row, "col": col}
        if mode == "exact":
            assert witness == dict(entry, lhs_minus_rhs=to_literal(
                MultiPoly.z(N, k, fam.field, power=h.z_degree() + 1)))
        else:
            assert {key: witness[key] for key in entry} == entry
            assert (witness["lhs"] - witness["rhs"]
                    - pow(witness["z"][k], h.z_degree() + 1, m)) % m == 0
        assert (transition["id"], transition["verdict"], transition["mode"]) \
            == ("transition", "fail", mode)
        assert (exponent["id"], exponent["verdict"]) == ("transition exponent", "pass")


@pytest.mark.parametrize("fam, mode", in_both_modes(transition_families()))
def test_euler_certificate_passes_a_term_that_vanishes_at_dz_equals_z(monkeypatch, fam, mode):
    # h = z_0^(deg - 1) * (z_0 dz_N - z_N dz_0) keeps the relation: the
    # certificate passes, and so does expanding the mutated G and
    # substituting into it
    N = fam.shape.N
    for u in transition_units(fam):
        def h_of(D):
            g = MultiPoly.z(N, 0, D.field, power=D.z_degree() - 1)
            return euler_kernel_term(N, D.field, g, 0, N)

        rep, form, _, _, _ = mutated_transition(monkeypatch, fam, u, h_of, mode)
        assert rep["ok"] and all(c["verdict"] == "pass" for c in rep["checks"])
        assert all(c["mode"] == mode for c in rep["checks"][:-1])
        assert all(verdict == "pass" for _, verdict in reference_transition(form, u["l1"], u["l2"]))


@pytest.mark.parametrize("term, mode", in_both_modes(
    [(term, term) for term in ("1 * z0^2", "1 * z0^1 dz1^2")]))
def test_euler_certificate_fails_an_entry_not_linear_in_dz(monkeypatch, term, mode):
    # a term of dz-degree 0 or 2 is a FAIL with the entry as witness, never
    # an exception and never a PASS, in either mode
    fam = fermat_family(2, 1, 0, (2, 2, 2), (3,), seed=4)
    u = {"selection": (1,), "omit": 2, "l1": 0, "l2": 1, "which": None, "kind": None}
    rep, form, row, col, _ = mutated_transition(
        monkeypatch, fam, u, lambda D: from_literal(term, 2, D.field), mode)
    entry = form.matrix.rows[form.matrix_rows[-1]][0]
    assert [(c["id"], c["verdict"], c["mode"]) for c in rep["checks"]] == [
        ("transition", "fail", mode), ("transition exponent", "pass", "exact")]
    assert rep["checks"][0]["witness"] == {"row": row, "col": col,
                                           "entry_not_linear_in_dz": to_literal(entry)}


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
@pytest.mark.parametrize("l1, l2", [(0, 9), (-1, 1), (4, 4)])
def test_transition_refuses_a_chart_out_of_range(monkeypatch, mode, l1, l2):
    # charts run over 0..N: anything else is refused before a form is
    # extracted, never reported as a check
    shape = ProblemShape(3, 2, 0)
    fam = build_sections(shape, "mcm", field=Field(5),
                         schedule=build_schedule(shape, 2), seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("a form was extracted for an out-of-range chart")

    monkeypatch.setattr(identity_verifier, "extract_forms", refuse)
    with pytest.raises(ValueError, match="chart out of range"):
        verify_transition(fam, (1,), omit=0, l1=l1, l2=l2, mode=mode, which=("K_nu", 0))


# ----- surjectivity -----


def test_surjectivity_linear_basis():
    rep = verify_surjectivity(1, 1, trials=50, seed=0)
    assert rep["ok"] and rep["dim"] == 2
    assert list(rep) == ["op", "ok", "checks", "N", "d", "dim", "p"]


def test_surjectivity_quadrics_dimension_and_rank():
    rep = verify_surjectivity(3, 2, trials=100, seed=1)
    assert rep["ok"] and rep["dim"] == 10
    assert rep["checks"][0]["trials"] == 100


def test_surjectivity_rejects_degree_zero():
    with pytest.raises(ValueError):
        verify_surjectivity(2, 0)


@pytest.mark.parametrize("trials", [0, -3])
def test_checks_without_a_trial_are_refused(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        verify_surjectivity(2, 3, trials=trials)


@pytest.mark.parametrize("N", [0, -1])
def test_surjectivity_refuses_an_ambient_dimension_below_one(N):
    # N + 1 < 2 coordinates leave no nonzero point to draw
    with pytest.raises(ValueError, match=f"need N at least 1, got {N}"):
        verify_surjectivity(N, 3)


def test_surjectivity_checks_over_its_fixed_prime():
    assert "p" not in inspect.signature(verify_surjectivity).parameters
    assert verify_surjectivity(2, 3, trials=5)["p"] == identity_verifier.SURJECTIVITY_PRIME == 101


def test_surjectivity_redraws_a_zero_point(monkeypatch):
    # a trial draws z from its own stream until z is nonzero; over F_2 some
    # of 20 trials meet z == 0 first
    monkeypatch.setattr(identity_verifier, "SURJECTIVITY_PRIME", 2)
    seen = []
    real = identity_verifier.evaluation_matrix

    def record(N, d, z, tangents, p):
        seen.append(z)
        return real(N, d, z, tangents, p)

    monkeypatch.setattr(identity_verifier, "evaluation_matrix", record)
    assert verify_surjectivity(1, 1, trials=20)["ok"]
    expected, redrawn = [], 0
    for t in range(20):
        rng = child_rng(0, "surjectivity", t)
        z = [rng.randrange(2), rng.randrange(2)]
        redrawn += not any(z)
        while not any(z):
            z = [rng.randrange(2), rng.randrange(2)]
        expected.append(z)
    assert seen == expected and redrawn > 0


def test_monomial_basis_size():
    assert len(monomial_basis(3, 2)) == 10
    assert monomial_basis(1, 1) == [(1, 0), (0, 1)]


def test_evaluation_matrix_degenerate_tangent_loses_rank():
    z = [1, 2, 3]
    mat = evaluation_matrix(2, 2, z, [z, [0, 1, 0]], 101)
    assert rank_mod_p(mat, 101) < 3


def test_rank_verdict_invariant_under_lower_triangular_change():
    rng = random.Random(12)
    p = 101
    z = [5, 1, 7, 2]
    tangents = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    mat = evaluation_matrix(3, 2, z, tangents, p)
    base = rank_mod_p(mat, p)
    for _ in range(10):
        T = [[rng.randrange(p) if i > j else 0 for j in range(4)] for i in range(4)]
        for i in range(4):
            T[i][i] = rng.randrange(1, p)
        mixed = [
            [sum(T[i][k] * mat[k][m] for k in range(4)) % p for m in range(len(mat[0]))]
            for i in range(4)
        ]
        assert rank_mod_p(mixed, p) == base


def reference_evaluation_matrix(N, d, z, tangents, p):
    """The hand-written loop evaluation_matrix ran before EvalPlan:
    monomial values and directional derivatives mod p. The reference for
    evaluation_matrix."""
    def eval_monomial(e):
        v = 1
        for zi, ei in zip(z, e):
            if ei:
                v = (v * pow(zi, ei, p)) % p
        return v

    def dir_derivative(e, v):
        total = 0
        for i, ei in enumerate(e):
            if ei:
                shifted = list(e)
                shifted[i] -= 1
                total += ei * v[i] * eval_monomial(shifted)
        return total % p

    basis = monomial_basis(N, d)
    rows = [[eval_monomial(e) for e in basis]]
    rows += [[dir_derivative(e, v) for e in basis] for v in tangents]
    return rows


def test_evaluation_matrix_matches_the_reference_loop():
    rng = random.Random(21)
    for N, d in [(1, 1), (2, 3), (3, 2), (4, 2)]:
        for _ in range(5):
            z = [rng.randrange(101) for _ in range(N + 1)]
            tangents = [[rng.randrange(101) for _ in range(N + 1)] for _ in range(N)]
            assert evaluation_matrix(N, d, z, tangents, 101) == \
                reference_evaluation_matrix(N, d, z, tangents, 101)


# ----- hidden -----


def test_hidden_refuses_depth_at_or_above_n():
    # no form is defined from depth n on: an empty report would pass
    # without testing anything
    fam = fermat_family(3, 2, 0, (2, 2, 2, 2), (3, 3), seed=1)
    for vanished in ((0,), (0, 3)):
        with pytest.raises(ValueError, match=f"no hidden forms at depth {len(vanished)} >= n = 1"):
            verify_hidden(fam, vanished, (1,))


def test_hidden_refuses_depth_zero():
    # with nothing killed there is no hidden form: the old "eta=0
    # coincidence" compared kill_coordinates(e, ()) with e, which cannot fail
    fam = fermat_family(4, 3, 0, (2, 2, 2, 2, 2), (2, 2, 2), seed=2)
    with pytest.raises(ValueError, match="at least one vanished coordinate"):
        verify_hidden(fam, (), (1,))


def test_hidden_certificates_and_twist_increment():
    fam = fermat_family(4, 2, 0, (2, 2, 2, 2, 2), (3, 3), seed=3)
    rep = verify_hidden(fam, (4,), (1,))
    assert rep["ok"]
    assert [c["id"] for c in rep["checks"]] == ["hypothesis", "twist increment"]


def test_hidden_mcm_certificates_and_ledger_twist():
    shape = ProblemShape(4, 2, 0)
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=4)
    rep = verify_hidden(fam, (0,), (1,))
    assert rep["ok"]
    # every selection of the depth-1 bundle (top level 3): 4 K_nu, 6 K_tau_rho
    certs = [c for c in rep["checks"] if c["id"].startswith("hypothesis ")]
    twists = [c for c in rep["checks"] if c["id"].startswith("twist ")]
    assert len(certs) == 10 and len(twists) == 10
    assert all(c["verdict"] == "pass" for c in rep["checks"])
    assert "hypothesis K_tau_rho(2,3)" in [c["id"] for c in certs]


def record_hypotheses(monkeypatch):
    """Record (check id, bundles of the pairs) of every _check_hypothesis call."""
    real, calls = identity_verifier._check_hypothesis, []

    def record(check_id, pairs, *args, **kwargs):
        calls.append((check_id, {pair[0] for pair in pairs}))
        return real(check_id, pairs, *args, **kwargs)

    monkeypatch.setattr(identity_verifier, "_check_hypothesis", record)
    return calls


def test_hidden_compares_the_restricted_bundle_once(monkeypatch):
    # the restricted pairs go to one check; each layout check compares the
    # layout's own pairs only
    shape = ProblemShape(4, 2, 0)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=build_schedule(shape, 2), seed=4)
    calls = record_hypotheses(monkeypatch)
    rep = verify_hidden(fam, (0,), (1,))
    assert rep["ok"]
    assert [bundles for _, bundles in calls if "hidden(0)" in bundles] == [{"hidden(0)"}]
    assert calls[0] == ("hypothesis", {"hidden(0)"})
    assert [check_id for check_id, _ in calls[1:]] == [
        f"hypothesis {bundle}" for _, (bundle,) in calls[1:]]
    assert len(calls) == 1 + 10


def test_default_pipeline_checks_each_hypothesis_once(monkeypatch):
    # one gluing check per layout and one per transition unit: 3 + 2
    from mcmforms.pipeline import default_config_text, parse_config, run_pipeline

    calls = record_hypotheses(monkeypatch)
    assert run_pipeline(parse_config(default_config_text()))["ok"]
    assert [check_id for check_id, _ in calls] == ["hypothesis"] * 3 + ["transition"] * 2
    assert [bundles for _, bundles in calls] == [
        {"full", "K_nu(0)"}, {"full", "K_nu(4)"}, {"full", "K_tau_rho(0,1)"},
        {"K_nu(0)"}, {"K_tau_rho(0,1)"}]


def test_hidden_reads_twists_without_unpacking_a_form(monkeypatch):
    # the hidden checks compare entries and read twists from degrees: no
    # polynomial product, so no determinant either
    def refuse(self, *args):
        raise AssertionError("a polynomial product")

    shape = ProblemShape(4, 2, 0)
    mcm = build_sections(shape, "mcm", field=Field(5), schedule=build_schedule(shape, 2), seed=4)
    general = fermat_family(4, 2, 0, (2, 2, 2, 2, 2), (3, 3), seed=3)
    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    for fam, vanished in ((mcm, (0,)), (general, (4,))):
        rep = verify_hidden(fam, vanished, (1,))
        assert rep["ok"] and any(c["id"].startswith("twist") for c in rep["checks"])


def _ledger_entry_off_by_one(monkeypatch, key):
    """Make the twist ledger read one too high at (eta, kind, tau, selection)."""
    real = TwistLedger.lookup

    def lookup(self, eta, kind, tau, selection):
        entry = real(self, eta, kind, tau, selection)
        if (eta, kind, tau, tuple(selection)) == key:
            return dataclasses.replace(entry, value=entry.value + 1)
        return entry

    monkeypatch.setattr(TwistLedger, "lookup", lookup)


def test_hidden_mcm_twist_check_fails_on_a_corrupted_ledger(monkeypatch):
    shape = ProblemShape(4, 2, 0)
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=Field(5), schedule=sched, seed=4)
    true_twist = twist_ledger(sched).lookup(1, "K_tau_rho", 2, (1,)).value
    _ledger_entry_off_by_one(monkeypatch, (1, "K_tau_rho", 2, (1,)))
    rep = verify_hidden(fam, (0,), (1,))
    assert not rep["ok"]
    failed = [c for c in rep["checks"] if c["verdict"] != "pass"]
    assert [c["id"] for c in failed] == ["twist K_tau_rho(2,3)"]
    assert failed[0]["verdict"] == "fail"
    assert failed[0]["witness"] == {"twist": true_twist, "ledger": true_twist + 1}


def test_hidden_characteristic_guard():
    fam = fermat_family(4, 2, 0, (2, 2, 2, 2, 2), (3, 3), field=Field(2), seed=5)
    rep = verify_hidden(fam, (4,), (1,))
    assert rep["checks"][0]["verdict"] == "skip"
