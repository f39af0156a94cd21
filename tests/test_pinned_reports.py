"""Digests of verifier reports, declared divisors and form inventories.

Each digest is the sha256 of the canonical JSON of what the formal-matrix
steps produce on fixed families: the restriction to a vanishing locus
(build_matrices with `vanished`), the K_nu / K_tau_rho column layouts
(build_selected), the declared divisors (column_divisors) and the divided
forms (extract_forms, through verify_transition and standard_forms). A
change to how those steps are composed must leave every digest as it is.

The transition and mcm hidden reports lost their chart copies and their
repeated restricted pairs; each is pinned as it is now and, mapped back to
that form (legacy_reports), to the digest it had then.
"""

import hashlib
import json

from legacy_reports import legacy_hidden, legacy_transition

from mcmforms.exact_algebra import Field, QQ, to_literal
from mcmforms.identity_verifier import verify_gluing, verify_hidden, verify_transition
from mcmforms.pipeline import _glue_units, _transition_units
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import (
    build_matrices,
    build_sections,
    build_selected,
    column_divisors,
    selection_layouts,
    standard_forms,
)

F5 = Field(5)
F101 = Field(101)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def mcm_family(N, c, seed):
    shape = ProblemShape(N, c, 0)
    return build_sections(shape, "mcm", field=F5, schedule=build_schedule(shape, 2), seed=seed)


def fermat_family(N, c, lambdas, degrees, field, seed):
    return build_sections(ProblemShape(N, c, 0), "general_fermat", field=field,
                          lambdas=lambdas, degrees=degrees, seed=seed)


def flagship():
    return mcm_family(4, 3, 1)


def mcm_n2():
    return mcm_family(4, 2, 21)


def fermat_n2():
    return fermat_family(4, 2, (2, 3, 2, 2, 4), (4, 5), QQ, 3)


def fermat_n3():
    return fermat_family(6, 3, (2,) * 7, (2, 3, 2), F101, 4)


def test_hidden_reports_are_pinned():
    payload = [verify_hidden(mcm_n2(), (v,), sel) for v in range(5) for sel in ((1,), (2,))]
    assert digest(payload) == "3b51e1ca4a441bbdd6d20bc4ada8ceefe3283255117f77617635df4e930c7792"
    assert digest([legacy_hidden(rep) for rep in payload]) \
        == "417533624556f7142ae1fb11210481d524e867c9d1ad3b5dda02f7d39cc87d95"
    fam, deep = fermat_n2(), fermat_n3()
    payload = [verify_hidden(fam, (v,), sel) for v in range(5) for sel in ((1,), (2,))]
    payload += [verify_hidden(deep, vanished, sel)
                for vanished in ((0, 3), (6, 1), (2, 5))
                for sel in ((1,), (2,), (3,))]
    payload += [verify_hidden(deep, (v,), sel)
                for v in (0, 6) for sel in ((1, 2), (1, 3), (2, 3))]
    assert digest(payload) == "f255333a2c955f71743b6982c5d528d8553ec03f61fda59cff72acf5f18df6ab"


def test_transition_reports_are_pinned():
    payload = []
    for fam in (flagship(), mcm_n2(), fermat_n2(), fermat_n3()):
        for mode in ("exact", "probabilistic"):
            payload += [verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                          mode=mode, which=u["which"], kind=u["kind"])
                        for u in _transition_units(fam)]
    fam = flagship()
    payload += [verify_transition(fam, (1,), 4, 0, 4, which=(kind,) + params)
                for kind, params, _ in selection_layouts(4)]
    assert digest(payload) == "48fdf1043af097068a6347e53be4ec183307327bcbc02123e1bf43cc85bbf7c6"
    assert digest([legacy_transition(rep) for rep in payload]) \
        == "6df2bb7404fa527ef3a0b58d240172e9a2a503d86c4c2fb9010e3692d0d486cf"


def test_column_divisors_are_pinned():
    fam, hidden_fam = flagship(), mcm_n2()
    K = build_matrices(fam)
    payload = [column_divisors(build_selected(K, (kind,) + params))
               for kind, params, _ in selection_layouts(4)]
    for v in range(5):
        H = build_matrices(hidden_fam, (v,))
        payload += [column_divisors(build_selected(H, (kind,) + params))
                    for kind, params, _ in selection_layouts(3)]
    fermat = fermat_n2()
    payload.append(column_divisors(build_matrices(fermat)))
    payload += [column_divisors(build_matrices(fermat, (v,))) for v in range(5)]
    assert digest(payload) == "d998a67fce8e07e291f7dc66fc85dbc7e20d9c50ca68e13dcba4a60e373a4bd8"


def test_standard_form_inventory_is_pinned():
    payload = []
    for fam in (flagship(), mcm_n2(), fermat_n2(), fermat_n3()):
        for form in standard_forms(fam):
            payload.append(dict(
                kind=form.kind, selection=form.selection, vanished=form.vanished,
                omit=form.omit, omit_coord=form.omit_coord,
                omit_exponent=form.omit_exponent, twist=form.twist,
                dz_degree=form.dz_degree, z_degree=form.z_degree,
                matrix_rows=form.matrix_rows, sign=form.sign,
                rows=digest([[to_literal(e) for e in row] for row in form.matrix.rows])))
    assert digest(payload) == "828ab00dd0c83b768a92a3e53a7eccabe21b72fa61cb4477be50f031806788ab"


def test_each_report_checks_each_identity_once():
    # no check id repeats within a gluing, transition or hidden report of
    # the pinned families
    reports = []
    for fam in (flagship(), mcm_n2(), fermat_n2(), fermat_n3()):
        reports += [verify_gluing(fam, u["selection"], u["j1"], u["j2"], which=u["which"])
                    for u in _glue_units(fam)]
        reports += [verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                      mode=mode, which=u["which"], kind=u["kind"])
                    for u in _transition_units(fam) for mode in ("exact", "probabilistic")]
    reports += [verify_hidden(mcm_n2(), (v,), (1,)) for v in range(5)]
    reports += [verify_hidden(fermat_n3(), (0, 3), sel) for sel in ((1,), (2,))]
    assert len(reports) == 3 + 3 + 1 + 1 + 4 * 4 + 5 + 2
    for rep in reports:
        ids = [c["id"] for c in rep["checks"]]
        assert len(ids) == len(set(ids)), ids
        if rep["op"] == "transition":
            assert ids == ["transition", "transition exponent"]
