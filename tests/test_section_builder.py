import dataclasses
import hashlib
import json
import pickle
import random
from copy import deepcopy

import pytest

from mcmforms.exact_algebra import (
    Field,
    MultiPoly,
    QQ,
    from_literal,
    kill_coordinates,
    times_monomial,
    to_literal,
    total_differential,
)
from mcmforms.schedule import ProblemShape, TwistLedger, build_schedule, twist_ledger
from mcmforms.identity_verifier import verify_gluing
from mcmforms.section_builder import (
    DegreeClaimFailed,
    DivisibilityClaimFailed,
    FamilyData,
    SectionFamily,
    build_matrices,
    build_sections,
    build_selected,
    column_divisors,
    extract_forms,
    load_family,
    mcm_tuple_space,
    random_homogeneous,
    save_family,
    selection_layouts,
    standard_forms,
)
from conftest import det, expand_form

F5 = Field(5)
F101 = Field(101)

UNIT_LINE = {
    "A:1:0": "1",
    "A:1:1": "1",
    "A:1:2": "1",
}


def unit_line_family():
    return build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=QQ,
        lambdas=(1, 1, 1), degrees=(1,), explicit=UNIT_LINE,
    )


def mcm_family(N=4, c=3, r=0, p=5, seed=1, heart=2):
    shape = ProblemShape(N, c, r)
    sched = build_schedule(shape, heart)
    return build_sections(shape, "mcm", field=Field(p), schedule=sched, seed=seed)


# ----- family construction -----


def test_unit_coefficients_give_the_sum_of_coordinates():
    fam = unit_line_family()
    assert fam.sections[0] == from_literal("1 * z0^1 + 1 * z1^1 + 1 * z2^1", 2)


def test_random_cubic_family_is_homogeneous():
    fam = build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=F101,
        lambdas=(2, 2, 2), degrees=(3,), seed=42,
    )
    assert fam.sections[0].z_degree() == 3
    assert fam.sections[0].dz_degree() == 0


def test_explicit_degree_mismatch_is_rejected():
    bad = dict(UNIT_LINE)
    bad["A:1:0"] = "z0"  # degree 1 where 0 is required
    with pytest.raises(ValueError, match="bookkeeping"):
        build_sections(
            ProblemShape(2, 1, 0), "general_fermat", field=QQ,
            lambdas=(1, 1, 1), degrees=(1,), explicit=bad,
        )


def test_random_homogeneous_has_exact_degree():
    rng = random.Random(3)
    for deg in (0, 1, 2, 3):
        p = random_homogeneous(3, deg, F101, rng)
        assert p.z_degree() == deg and not p.is_zero()


def test_mcm_sections_have_expected_degree_and_terms():
    fam = mcm_family(seed=2)
    sched = fam.schedule
    d = sched.d
    for i, F in enumerate(fam.sections):
        assert F.z_degree() == sched.eps[i] + d
        # pure part: 5 coordinates, linear coefficients; moving part: one
        # level-4 tuple with 5 distinguished choices
        assert F.term_count() <= 5 * 5 + 5 * 5


def test_mcm_heart_must_dominate_twists():
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, 2)
    with pytest.raises(ValueError, match="heart"):
        build_sections(shape, "mcm", field=F5, schedule=sched, twists=(2, 0, 0), seed=0)


# ----- matrices -----


def reference_bundle(fam, vanished=()):
    """(entries, column tags, column coordinates, divisor exponents) of the
    family's matrix over the coordinates not in `vanished`, assembled mode
    by mode: the explicit-exponent matrix restricted entry by entry, or the
    mcm groups built from the surviving coefficient terms, each moving
    monomial written out from the schedule."""
    shape = fam.shape
    N, cr = shape.N, shape.c + shape.r
    retained = tuple(j for j in range(N + 1) if j not in vanished)

    def sub(p):
        return kill_coordinates(p, vanished) if vanished else p

    if fam.mode == "general_fermat":
        rows = [[fam.coefficients[f"A:{i}:{j}"] * MultiPoly.z(N, j, fam.field, power=fam.lambdas[j])
                 for j in range(N + 1)] for i in range(1, cr + 1)]
        rows += [[total_differential(e) for e in rows[q]] for q in range(shape.c)]
        return ([[sub(row[j]) for j in retained] for row in rows],
                tuple(f"col_{j}" for j in retained), retained,
                tuple(fam.lambdas[j] for j in retained))
    sched = fam.schedule
    d = sched.d
    top = len(retained) - 1

    def term(i, level, tup, jk):
        m_exp = sched.mu[(level, tup.index(jk))]
        mono = [0] * (2 * (N + 1))
        for m in tup:
            mono[m] = m_exp
        mono[jk] = d - level * m_exp
        key = f"M:{i}:{','.join(map(str, tup))}:{jk}"
        return sub(times_monomial(fam.coefficients[key], tuple(mono)))

    lower = [t for t in mcm_tuple_space(shape, retained) if t[0] != top]
    rows = []
    for i in range(1, cr + 1):
        row = []
        for j in retained:
            g = sub(fam.coefficients[f"A:{i}:{j}"]) * MultiPoly.z(N, j, fam.field, power=d)
            for level, tup, jk in lower:
                if jk == j:
                    g = g + term(i, level, tup, jk)
            row.append(g)
        rows.append(row + [term(i, top, retained, k) for k in retained])
    rows += [[total_differential(e) for e in rows[q]] for q in range(shape.c)]
    tags = tuple([f"A_{j}" for j in retained] + [f"B_{k}" for k in retained])
    return rows, tags, retained + retained, None


@pytest.mark.parametrize("field", [F5, QQ], ids=str)
@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_matrices_and_hidden_restrictions_match_the_reference(mode, field):
    # (4,2,0) has n = 2, so each single vanished coordinate is a hidden model
    shape = ProblemShape(4, 2, 0)
    for seed in (0, 1):
        if mode == "mcm":
            fam = build_sections(shape, "mcm", field=field, schedule=build_schedule(shape, 2),
                                 seed=seed)
        else:
            fam = build_sections(shape, "general_fermat", field=field, lambdas=(2, 3, 2, 2, 4),
                                 degrees=(4, 5), twists=(1, 0), seed=seed)
        K = build_matrices(fam)
        bundles = [((), K)] + [((v,), build_matrices(fam, (v,))) for v in range(5)]
        for vanished, B in bundles:
            entries, tags, coords, divisors = reference_bundle(fam, vanished)
            assert B.vanished == vanished
            assert B.entries == entries
            assert (B.column_tags, B.column_coords, B.divisor_exponents) == (tags, coords, divisors)


def test_line_matrix_is_coordinates_over_differentials():
    fam = unit_line_family()
    K = build_matrices(fam)
    assert K.layout == "sec4" and len(K.entries) == 2 and K.ncols == 3
    assert [to_literal(e) for e in K.entries[0]] == ["1 * z0^1", "1 * z1^1", "1 * z2^1"]
    assert [to_literal(e) for e in K.entries[1]] == ["1 * dz0^1", "1 * dz1^1", "1 * dz2^1"]


def test_quadratic_differential_rows_factor_through_the_coordinate():
    fam = build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=F101,
        lambdas=(2, 2, 2), degrees=(3,), seed=42,
    )
    K = build_matrices(fam)
    for j in range(3):
        entry = K.entries[1][j]
        assert all(exp[j] >= 1 for exp in entry.terms)


def test_mcm_matrix_shape_and_tags():
    fam = mcm_family(seed=3)
    K = build_matrices(fam)
    assert len(K.entries) == 2 * 3 + 0 and K.ncols == 10
    assert K.column_tags == ("A_0", "A_1", "A_2", "A_3", "A_4", "B_0", "B_1", "B_2", "B_3", "B_4")


def test_row_sum_and_differential_row_invariants():
    fam = mcm_family(seed=4)
    K = build_matrices(fam)
    cr = 3
    for i in range(cr):
        total = MultiPoly.zero(4, fam.field)
        for e in K.entries[i]:
            total = total + e
        assert total == fam.sections[i]
        for col in range(K.ncols):
            assert K.entries[cr + i][col] == total_differential(K.entries[i][col])


def tampered_family():
    """The (4,3,0) mcm family of seed 4 with z0^67 added to F_1, so that
    value row 0 of its matrix no longer sums to its first section."""
    fam = mcm_family(seed=4)
    return dataclasses.replace(fam, sections=(
        fam.sections[0] + MultiPoly.z(4, 0, fam.field, power=67),) + fam.sections[1:])


def test_a_section_that_is_not_its_row_sum_is_rejected():
    fam = tampered_family()
    build_matrices(fam)  # construction does not check: gluing does
    for mode in ("exact", "probabilistic"):
        rep = verify_gluing(fam, (1,), 0, 1, which=("K_nu", 0), mode=mode)
        (check,) = rep["checks"]
        assert not rep["ok"] and check["verdict"] == "fail"
        assert (check["witness"]["bundle"], check["witness"]["row"], check["witness"]["col"]) \
            == ("full", 0, None)
    rep = verify_gluing(fam, (1,), 0, 1, which=("K_nu", 0))
    assert rep["checks"][0]["witness"]["lhs_minus_rhs"] == "4 * z0^67"


def test_a_tampered_section_fails_the_gluing_stage(monkeypatch):
    from mcmforms import pipeline
    from mcmforms.pipeline import RunConfig, run_pipeline

    # F_1 is no longer homogeneous: the build stage reports the claimed
    # degrees and passes, and gluing catches the section
    fam = tampered_family()
    monkeypatch.setattr(pipeline, "build_family", lambda cfg, seed: fam)
    stages = run_pipeline(RunConfig(stages=("gluing",)))["stages"]
    assert stages["build"]["status"] == "PASS"
    assert stages["build"]["report"]["degrees"] == list(fam.section_degrees())
    entry = stages["gluing"]
    assert entry["status"] == "FAIL"
    unit = dict(entry["witness"]["unit"])
    failed = unit.pop("failed")
    assert unit == {"unit": 0, "which": ["K_nu", 0], "j1": 0, "j2": 1,
                    "ok": False, "verdicts": ["fail"]}
    # the witness keeps the failing check's own witness: the full bundle's row 0
    assert failed == [{"id": "hypothesis", "witness": {
        "bundle": "full", "row": 0, "col": None, "lhs_minus_rhs": "4 * z0^67"}}]
    # every unit runs, and each fails on the full bundle's row sum
    assert [u["ok"] for u in entry["report"]["units"]] == [False] * 3


def test_bundle_invariants_hold_under_python_O(run_optimized):
    out = run_optimized(
        "import dataclasses\n"
        "from mcmforms.exact_algebra import Field, MultiPoly\n"
        "from mcmforms.identity_verifier import verify_gluing\n"
        "from mcmforms.schedule import ProblemShape, build_schedule\n"
        "from mcmforms.section_builder import build_sections\n"
        "shape = ProblemShape(4, 3, 0)\n"
        "fam = build_sections(shape, 'mcm', field=Field(5), schedule=build_schedule(shape, 2), seed=4)\n"
        "fam = dataclasses.replace(fam, sections=(\n"
        "    fam.sections[0] + MultiPoly.z(4, 0, Field(5), power=67),) + fam.sections[1:])\n"
        "check = verify_gluing(fam, (1,), 0, 1, which=('K_nu', 0))['checks'][0]\n"
        "w = check['witness']\n"
        "print(check['verdict'], w['bundle'], w['row'], w['col'], w['lhs_minus_rhs'])\n")
    assert out == "fail full 0 None 4 * z0^67\n"


def test_a_family_is_frozen_and_a_changed_copy_is_checked_anew():
    # gluing passes on the family; its replaced copy with z0^67 added to
    # F_1, checked after it in the same process, fails with the witness of
    # a family tampered before any check, and cannot borrow its bundle: a
    # holder derives everything from the one family it holds
    fam = mcm_family(seed=4)
    data = FamilyData(fam)
    assert verify_gluing(data, (1,), 0, 1, which=("K_nu", 0))["ok"]
    changed = dataclasses.replace(fam, sections=(
        fam.sections[0] + MultiPoly.z(4, 0, fam.field, power=67),) + fam.sections[1:])
    (check,) = verify_gluing(changed, (1,), 0, 1, which=("K_nu", 0))["checks"]
    assert check["verdict"] == "fail"
    assert (check["witness"]["bundle"], check["witness"]["row"], check["witness"]["col"],
            check["witness"]["lhs_minus_rhs"]) == ("full", 0, None, "4 * z0^67")
    assert FamilyData.of(changed).family is changed and data.matrices.family is fam
    for name, value in (("sections", changed.sections), ("seed", 5), ("twists", (1, 0, 0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fam, name, value)
    with pytest.raises(TypeError):
        fam.coefficients["A:1:0"] = fam.coefficients["A:1:1"]
    # the family keeps its own copy of the mapping it was built from
    coefficients = dict(fam.coefficients)
    copy = dataclasses.replace(fam, coefficients=coefficients)
    coefficients.clear()
    assert copy.coefficients == fam.coefficients != {}
    # and copies and pickles as before, into a frozen family
    for clone in (deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        assert clone == fam and clone is not fam
        with pytest.raises(TypeError):
            clone.coefficients["A:1:0"] = fam.coefficients["A:1:1"]


# ----- column selection -----


def test_K_nu_keeps_plain_columns_and_appends_the_combined_one():
    fam = mcm_family(seed=5)
    K = build_matrices(fam)
    sel = build_selected(K, ("K_nu", 0))
    assert sel.column_tags == ("A_1", "A_2", "A_3", "A_4", "A_0+sumB")
    combined = sel.entries[0][4]
    expected = K.entries[0][0]
    for j in range(5):
        expected = expected + K.entries[0][5 + j]
    assert combined == expected


def test_K_tau_rho_column_layout():
    fam = mcm_family(seed=6)
    K = build_matrices(fam)
    sel = build_selected(K, ("K_tau_rho", 0, 1))
    assert sel.column_tags == ("A_0+B_0", "A_2", "A_3", "A_4", "A_1+sumB_gt_tau")
    assert sel.entries[0][0] == K.entries[0][0] + K.entries[0][5]
    combined = sel.entries[0][4]
    expected = K.entries[0][1]
    for j in range(1, 5):
        expected = expected + K.entries[0][5 + j]
    assert combined == expected


def test_selection_index_guards():
    fam = mcm_family(seed=7)
    K = build_matrices(fam)
    with pytest.raises(ValueError):
        build_selected(K, ("K_nu", 5))
    with pytest.raises(ValueError):
        build_selected(K, ("K_tau_rho", 1, 1))
    with pytest.raises(ValueError):
        build_selected(K, ("mystery", 0))


def test_hidden_restriction_of_explicit_matrix():
    fam = build_sections(
        ProblemShape(4, 2, 0), "general_fermat", field=F101,
        lambdas=(2, 2, 2, 2, 2), degrees=(4, 4), seed=9,
    )
    H = build_matrices(fam, (0,))
    assert H.retained == (1, 2, 3, 4) and H.vanished == (0,)
    for row in H.entries:
        for e in row:
            assert all(exp[0] == 0 and exp[5] == 0 for exp in e.terms)


def test_hidden_needs_lambda_at_least_two():
    fam = build_sections(
        ProblemShape(4, 2, 0), "general_fermat", field=F101,
        lambdas=(1, 2, 2, 2, 2), degrees=(4, 4), seed=9,
    )
    with pytest.raises(ValueError, match="lambda"):
        build_matrices(fam, (0,))


def test_hidden_depth_bounds():
    fam = mcm_family(seed=8)  # n = 1: no hidden depth available
    with pytest.raises(ValueError, match="depth"):
        build_matrices(fam, (0,))
    # one depth rule for both modes: (4,2,0) has n = 2
    fermat = build_sections(ProblemShape(4, 2, 0), "general_fermat", field=F101,
                            lambdas=(2,) * 5, degrees=(4, 4), seed=9)
    assert build_matrices(fermat, (3, 3)).vanished == (3,)
    with pytest.raises(ValueError, match="no hidden forms at depth 2 >= n = 2"):
        build_matrices(fermat, (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        build_matrices(fermat, (5,))


# ----- divisors -----


def test_declared_divisors_verified_for_K_nu_and_K_tau_rho():
    fam = mcm_family(seed=10)
    sched = fam.schedule
    K = build_matrices(fam)
    div_nu = column_divisors(build_selected(K, ("K_nu", 0)))
    assert [d["exponent"] for d in div_nu] == [sched.d - sched.delta[4]] * 4 + [sched.mu[(4, 0)]]
    div_tr = column_divisors(build_selected(K, ("K_tau_rho", 1, 3)))
    assert div_tr[0]["exponent"] == sched.d - 4 * sched.mu[(4, 0)]
    assert div_tr[1]["exponent"] == sched.d - 4 * sched.mu[(4, 1)]
    assert div_tr[-1]["exponent"] == sched.mu[(4, 2)]


def test_pure_columns_carry_divisor_slack_when_lower_levels_are_absent():
    # with c+r+1 = N the A-columns are single pure terms z_j^d; the declared
    # exponent d - delta_N leaves slack exactly delta_N
    fam = mcm_family(seed=11)
    sched = fam.schedule
    K = build_matrices(fam)
    for j in range(5):
        entry = K.entries[0][j]
        assert min(exp[j] for exp in entry.terms) == sched.d
    div = column_divisors(build_selected(K, ("K_nu", 2)))
    assert div[0]["exponent"] == sched.d - sched.delta[4]


def test_corrupted_entry_fails_divisor_verification_with_coordinates():
    fam = mcm_family(seed=12)
    K = build_matrices(fam)
    K.entries[0][0] = K.entries[0][0] + MultiPoly.z(4, 1, fam.field)
    with pytest.raises(DivisibilityClaimFailed) as info:
        column_divisors(build_selected(K, ("K_nu", 1)))
    assert info.value.row == 0 and info.value.col == 0


# ----- form extraction -----


def test_line_form_and_its_value_on_a_chart():
    fam = unit_line_family()
    K = build_matrices(fam)
    form = extract_forms(K, [(1,)], omit=2, kind="psi")[0]
    G = expand_form(form)
    assert to_literal(G) == "1 * z0^1 dz1^1 + -1 * z1^1 dz0^1"
    # on the chart z0 = 1 (dz0 = 0) the form restricts to dz1
    for z1, z2, dz1, dz2 in [(2, 3, 5, 7), (-1, 4, 1, 0)]:
        assert G.evaluate([1, z1, z2], [0, dz1, dz2]) == dz1
    assert form.twist == 2 and form.dz_degree == 1


def test_cubic_divided_form_twist():
    fam = build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=F101,
        lambdas=(2, 2, 2), degrees=(3,), seed=42,
    )
    K = build_matrices(fam)
    form = extract_forms(K, [(1,)], omit=0, kind="omega")[0]
    assert form.twist == 2 * 3 - 3 == 3
    assert expand_form(form).bidegree()[1] == 1


def test_mcm_K_nu_form_matches_ledger_twist():
    fam = mcm_family(seed=13)
    K = build_matrices(fam)
    ledger = twist_ledger(fam.schedule)
    for nu in (0, 3):
        form = extract_forms(build_selected(K, ("K_nu", nu)), [(1,)], omit=4)[0]
        assert form.kind == "phi_nu"
        assert form.twist == ledger.lookup(0, "K_nu", None, (1,)).value == -8
        assert form.dz_degree == 1
    form = extract_forms(build_selected(K, ("K_tau_rho", 0, 2)), [(1,)], omit=0)[0]
    assert form.kind == "psi_tau_rho" and form.twist == -8


def test_extract_form_rejects_a_ledger_that_disagrees_with_the_row_degrees(monkeypatch):
    fam = mcm_family(seed=13)
    K = build_matrices(fam)
    real = TwistLedger.lookup

    def lookup(self, eta, kind, tau, selection):
        entry = real(self, eta, kind, tau, selection)
        return dataclasses.replace(entry, value=entry.value + 1) if kind == "K_nu" else entry

    monkeypatch.setattr(TwistLedger, "lookup", lookup)
    with pytest.raises(DegreeClaimFailed) as info:
        extract_forms(build_selected(K, ("K_nu", 0)), [(1,)], omit=4)[0]
    assert info.value.quantity == "twist"
    assert (info.value.expected, info.value.observed) == (-7, -8)
    assert extract_forms(build_selected(K, ("K_tau_rho", 0, 2)), [(1,)], omit=0)[0].twist == -8


def test_form_evaluation_matches_value_global():
    fam = mcm_family(seed=14)
    K = build_matrices(fam)
    form = extract_forms(build_selected(K, ("K_nu", 1)), [(1,)], omit=2)[0]
    G = expand_form(form)
    rng = random.Random(0)
    for _ in range(5):
        z = [rng.randrange(1, 5) for _ in range(5)]
        dz = [rng.randrange(5) for _ in range(5)]
        assert form.evaluate_at(z, dz, 5) == G.evaluate(z, dz)


def test_selection_validation():
    fam = mcm_family(seed=15)
    K = build_matrices(fam)
    with pytest.raises(ValueError):
        extract_forms(build_selected(K, ("K_nu", 0)), [(1, 2)], omit=0)[0]  # too many rows
    with pytest.raises(ValueError):
        extract_forms(build_selected(K, ("K_nu", 0)), [(4,)], omit=0)[0]  # row index out of range


def test_omit_sign_convention():
    fam = unit_line_family()
    K = build_matrices(fam)
    f0 = extract_forms(K, [(1,)], omit=0, kind="psi")[0]
    f1 = extract_forms(K, [(1,)], omit=1, kind="psi")[0]
    # (-1)^0 det[[z1,z2],[dz1,dz2]] and (-1)^1 det[[z0,z2],[dz0,dz2]]
    assert to_literal(expand_form(f0)) == "1 * z1^1 dz2^1 + -1 * z2^1 dz1^1"
    assert to_literal(expand_form(f1)) == "-1 * z0^1 dz2^1 + 1 * z2^1 dz0^1"


def test_twist_consistency_for_random_families_all_small_shapes():
    shapes = [(2, 1, 0), (3, 2, 0), (3, 1, 1), (4, 3, 0), (4, 2, 0), (4, 2, 1), (4, 1, 2)]
    rng = random.Random(99)
    for N, c, r in shapes:
        shape = ProblemShape(N, c, r)
        for trial in range(20):
            lambdas = tuple(rng.randrange(1, 3) for _ in range(N + 1))
            base = max(lambdas)
            spread = 2 if N <= 3 else 1
            degrees = tuple(base + rng.randrange(spread) for _ in range(c + r))
            twists = tuple(rng.randrange(0, 2) for _ in range(c + r))
            fam = build_sections(
                shape, "general_fermat", field=F101, lambdas=lambdas,
                degrees=degrees, twists=twists, seed=1000 + trial,
            )
            K = build_matrices(fam)
            selection = tuple(sorted(rng.sample(range(1, c + 1), shape.n)))
            omit = rng.randrange(N + 1)
            rng.randrange(N + 1)  # the draw of a chart, kept so the families stay the same
            kind = "psi" if trial % 2 else "omega"
            form = extract_forms(K, [selection], omit=omit, kind=kind)[0]
            spent = sum(l - 1 for l in lambdas) if kind == "omega" else 0
            expected = sum(degrees) + sum(degrees[j - 1] for j in selection) - spent
            assert form.twist == expected
            G = expand_form(form)
            if not G.is_zero():
                zdeg, dzdeg = G.bidegree()
                a_sum = sum(twists) + sum(twists[j - 1] for j in selection)
                omit_spend = (lambdas[omit] - 1) if kind == "omega" else 0
                assert zdeg == form.twist + a_sum + omit_spend - dzdeg


def test_hidden_mcm_form_twist_matches_hidden_ledger():
    shape = ProblemShape(4, 2, 0)  # n = 2: hidden depth 1 available
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=F5, schedule=sched, seed=21)
    H = build_matrices(fam, (4,))
    assert H.retained == (0, 1, 2, 3)
    ledger = twist_ledger(sched)
    form = extract_forms(build_selected(H, ("K_nu", 0)), [(2,)], omit=1)[0]
    assert form.kind == "hidden_phi_nu"
    assert form.twist == ledger.lookup(1, "K_nu", None, (2,)).value
    assert form.dz_degree == 1
    form2 = extract_forms(build_selected(H, ("K_tau_rho", 0, 3)), [(1,)], omit=2)[0]
    assert form2.twist == ledger.lookup(1, "K_tau_rho", 0, (1,)).value


def test_hidden_explicit_form_twist():
    fam = build_sections(
        ProblemShape(4, 2, 0), "general_fermat", field=F101,
        lambdas=(2, 2, 2, 2, 2), degrees=(4, 4), seed=31,
    )
    H = build_matrices(fam, (0,))
    form = extract_forms(H, [(1,)], omit=1, kind="omega")[0]
    assert form.kind == "hidden_omega"
    # heart' skips the vanished lambda: (4 + 4 + 4) - 4*(2-1)
    assert form.twist == 12 - 4


def test_lazy_standard_forms_match_eager_extraction_term_for_term():
    fam = mcm_family()
    K = build_matrices(fam)
    lazy = standard_forms(fam)
    alone = [extract_forms(build_selected(K, (kind,) + params), [(j,)], omit=0)[0]
             for kind, params, _ in selection_layouts(4) for j in (1, 2, 3)]
    assert len(lazy) == len(alone) == 45
    for a, b in zip(lazy, alone):
        rows = [a.matrix.rows[t] for t in a.matrix_rows]
        assert a == b and rows == [b.matrix.rows[t] for t in b.matrix_rows]
        # expanded down the first column instead of along the top row
        eager = det([list(col) for col in zip(*rows)])
        eager = eager if a.sign == 1 else -eager
        assert expand_form(a).terms == eager.terms and eager.term_count() > 0


@pytest.mark.parametrize("change, quantity", [
    # one more power of z1: the z-degree of the entry, not its dz-degree
    (lambda e: e * MultiPoly.z(4, 1, F5), "z-degree"),
    # plus terms of another degree
    (lambda e: e + e * MultiPoly.z(4, 1, F5), "bihomogeneous"),
    # one more power of dz1 on a differential row
    (lambda e: e * from_literal("dz1", 4, F5), "dz-degree"),
])
def test_a_corrupted_divided_entry_trips_the_structural_degree_check(monkeypatch, change, quantity):
    row = 3 if quantity == "dz-degree" else 1
    S = build_selected(build_matrices(mcm_family()), ("K_nu", 0))
    S.entries[row][2] = change(S.entries[row][2])

    def refuse(*args):
        raise AssertionError("a polynomial product before the degree check")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    with pytest.raises(DegreeClaimFailed) as info:
        extract_forms(S, [(1,), (2,), (3,)], omit=0)
    assert info.value.quantity == quantity
    assert info.value.entry == (row, 2)


def test_extract_forms_refuses_a_kind_on_a_selected_bundle():
    # the layout names a selected bundle's kind: no other is read
    S = build_selected(build_matrices(mcm_family()), ("K_nu", 0))
    assert extract_forms(S, [(1,)], omit=0)[0].kind == "phi_nu"
    for kind in ("bogus", "psi"):
        with pytest.raises(ValueError, match=f"kind '{kind}' invalid for a selected bundle"):
            extract_forms(S, [(1,)], omit=0, kind=kind)


# ----- serialization -----


# sha256 of the file save_family writes for two fixed families: it pins the
# coefficient draws, their order and the serialization
SAVED_FAMILY_SHA256 = {
    "mcm": "de50bc83d665365574c1973d24d9ce7a94ac5235ac01d059fc8ae0bc0d155a71",
    "general_fermat": "523591cbc680612e936649274d4f1421130d3d2dff5dde81c67cea7c53f5c825",
}


def pinned_family(mode):
    if mode == "mcm":
        shape = ProblemShape(3, 1, 1)
        return build_sections(shape, "mcm", field=F5, schedule=build_schedule(shape, 2), seed=3)
    return build_sections(ProblemShape(3, 2, 0), "general_fermat", field=Field(11),
                          lambdas=(2, 1, 2, 3), degrees=(4, 3), twists=(1, 0), seed=5)


@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_saved_family_is_pinned(tmp_path, mode):
    path = tmp_path / "family.json"
    save_family(pinned_family(mode), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_FAMILY_SHA256[mode]


@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_load_family_rejects_tampered_twists(tmp_path, mode):
    fam = pinned_family(mode)
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    assert load_family(str(path)).sections == fam.sections
    data = json.loads(path.read_text())
    data["twists"][0] += 1
    path.write_text(json.dumps(data))
    # every coefficient degree follows from the twists
    with pytest.raises(ValueError, match="degree bookkeeping mismatch at A:1:0"):
        load_family(str(path))


@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_load_family_names_a_missing_entry(tmp_path, mode):
    # every entry save_family writes but the seed is needed: removing one is
    # a ValueError naming it, never a KeyError or TypeError
    fam = pinned_family(mode)
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    saved = json.loads(path.read_text())
    for key in saved:
        data = {k: v for k, v in saved.items() if k != key}
        path.write_text(json.dumps(data))
        if key == "seed":
            assert load_family(str(path)).sections == fam.sections
            continue
        message = "schema version: None" if key == "schema_version" else f"no '{key}' entry"
        with pytest.raises(ValueError, match=message):
            load_family(str(path))
    for broken, message in ((dict(saved, shape={"N": 3, "c": 1}), "malformed family file: .*'r'"),
                            (dict(saved, shape=None), "malformed family file"),
                            (dict(saved, twists=None), "malformed family file"),
                            (dict(saved, coefficients=None), "malformed family file"),
                            ([saved], "malformed family file")):
        path.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=message):
            load_family(str(path))


@pytest.mark.parametrize("mode", ["mcm", "general_fermat"])
def test_load_family_refuses_a_coefficient_key_it_does_not_read(tmp_path, mode):
    fam = pinned_family(mode)
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    saved = json.loads(path.read_text())
    assert load_family(str(path)) == fam
    for extra in ("X:3", "A:9:0", "M:1:0,1:0"):
        data = json.loads(json.dumps(saved))
        data["coefficients"][extra] = "1"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"does not read: {extra}$"):
            load_family(str(path))


def test_family_save_load_round_trip(tmp_path):
    fam = mcm_family(seed=16)
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    fam2 = load_family(str(path))
    assert fam2.sections == fam.sections
    assert fam2.coefficients == fam.coefficients
    assert fam2.schedule == fam.schedule


def test_load_family_rejects_a_tampered_schedule(tmp_path):
    fam = mcm_family(N=3, c=2, r=0, seed=16)
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    data = json.loads(path.read_text())
    data["schedule"]["mu"]["3,0"] += 1
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="schedule"):
        load_family(str(path))


def test_general_family_save_load_round_trip(tmp_path):
    fam = build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=QQ,
        lambdas=(2, 2, 2), degrees=(3,), seed=5,
    )
    path = tmp_path / "cubic.json"
    save_family(fam, str(path))
    fam2 = load_family(str(path))
    assert fam2.sections == fam.sections and fam2.lambdas == fam.lambdas


def test_hidden_K_tau_rho_declares_each_divisor_per_column():
    # on the depth-1 hidden bundle of (4,2,0) the top level is 3 < N; at
    # (tau, rho) = (2, 3) the last column is A_3 + B_3, yet it is a tail
    # column and takes mu[3, 3], not the paired d - 3 * mu[3, 3]
    shape = ProblemShape(4, 2, 0)
    sched = build_schedule(shape, 2)
    fam = build_sections(shape, "mcm", field=F5, schedule=sched, seed=21)
    H = build_matrices(fam, (4,))
    top = len(H.retained) - 1
    assert top == 3
    ledger = twist_ledger(sched)
    pairs = [(tau, rho) for tau in range(top) for rho in range(tau + 1, top + 1)]
    assert len(pairs) == 6
    for tau, rho in pairs:
        which = ("K_tau_rho", tau, rho)
        sel = build_selected(H, which)
        assert len(column_divisors(sel)) == top + 1
        form = extract_forms(sel, [(1,)], omit=0)[0]
        assert form.twist == ledger.lookup(1, "K_tau_rho", tau, (1,)).value
    corner = build_selected(H, ("K_tau_rho", 2, 3))
    assert corner.column_tags[-1] == "A_3+sumB_gt_tau"
    assert corner.divisor_exponents[-1] == sched.mu[(3, 3)]
    assert corner.divisor_exponents[-1] != sched.d - 3 * sched.mu[(3, 3)]
