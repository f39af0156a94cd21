import hashlib
import json
from dataclasses import replace
from decimal import Decimal
from itertools import combinations

import pytest

from mcmforms.schedule import (
    ExponentSchedule,
    ProblemShape,
    build_schedule,
    effective_bound_report,
    fermat_heart,
    fermat_heart_prime,
    fermat_hidden_heart_prime,
    ledger_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    twist_ledger,
    validate_schedule,
)
from schedule_oracle import oracle_schedule

# Reference values evaluated by hand from the recurrences, then frozen.
KNOWN_SCHEDULES = [
    # (N, c, r, heart, eps) -> (delta at first level, {level: mu row}, d)
    ((3, 1, 1, 2, (1, 1)), (1, {3: [16, 63, 251, 1003]}, 4012)),
    ((4, 3, 0, 2, (1, 1, 1)), (1, {4: [21, 104, 519, 2594, 12969]}, 64845)),
    (
        (4, 2, 0, 2, (1, 1)),
        (1, {3: [16, 63, 251, 1003], 4: [12053, 57256, 283271, 1413346, 7063721]}, 35318605),
    ),
]


def all_shapes(max_N):
    out = []
    for N in range(2, max_N + 1):
        for c in range(1, N + 1):
            for r in range(0, N):
                if 2 * c + r >= N and c + r < N:
                    out.append(ProblemShape(N, c, r))
    return out


# ----- shape validation -----


def test_shape_invariants_enforced():
    ProblemShape(4, 3, 0)
    with pytest.raises(ValueError):
        ProblemShape(4, 1, 1)  # 2c+r = 3 < 4
    with pytest.raises(ValueError):
        ProblemShape(3, 2, 1)  # c+r = N
    with pytest.raises(ValueError):
        ProblemShape(0, 1, 0)


def test_shape_n_range():
    for shape in all_shapes(6):
        assert 1 <= shape.n <= shape.c


# ----- recurrence values -----


def test_known_schedules_match_frozen_values_and_oracle():
    for (N, c, r, heart, eps), (delta_first, mu_rows, d) in KNOWN_SCHEDULES:
        s = build_schedule(ProblemShape(N, c, r), heart, eps)
        assert s.delta[c + r + 1] == delta_first
        for level, row in mu_rows.items():
            assert [s.mu[(level, k)] for k in range(level + 1)] == row
        assert s.d == d
        odelta, omu, od = oracle_schedule(N, c, r, heart, eps)
        assert od == d
        for level, row in mu_rows.items():
            assert omu[level] == row
        assert odelta[c + r + 1] == delta_first


def test_builder_agrees_with_oracle_on_many_shapes():
    for shape in all_shapes(6):
        for heart in (1, 2, 3):
            eps = tuple(1 + (i % 2) for i in range(shape.c + shape.r))
            s = build_schedule(shape, heart, eps)
            odelta, omu, od = oracle_schedule(shape.N, shape.c, shape.r, heart, eps)
            assert s.d == od
            for level in range(shape.c + shape.r + 1, shape.N + 1):
                assert [s.mu[(level, k)] for k in range(level + 1)] == omu[level]
                assert s.delta[level] == odelta[level]


def test_default_eps_is_all_ones():
    s = build_schedule(ProblemShape(4, 3, 0), 2)
    assert s.eps == (1, 1, 1)


def test_build_schedule_rejects_bad_inputs():
    shape = ProblemShape(4, 3, 0)
    with pytest.raises(ValueError):
        build_schedule(shape, 0)
    with pytest.raises(ValueError):
        build_schedule(shape, 2, (1, 1))
    with pytest.raises(ValueError):
        build_schedule(shape, 2, (1, 0, 1))


# ----- validation report -----


def test_built_schedules_validate_with_zero_slack_on_recurrences():
    s = build_schedule(ProblemShape(4, 3, 0), 2)
    report = validate_schedule(s)
    assert report["ok"]
    recurrence_checks = [c for c in report["checks"] if "level bound" in c["name"]]
    assert recurrence_checks and all(c["slack"] == 0 for c in recurrence_checks)


def test_decremented_mu_fails_its_inequality():
    s = build_schedule(ProblemShape(4, 3, 0), 2)
    mu = dict(s.mu)
    mu[(4, 0)] -= 1
    broken = replace(s, mu=mu)
    report = validate_schedule(broken)
    assert not report["ok"]
    failing = [c for c in report["checks"] if not c["ok"]]
    assert any(c["name"] == "mu[4,0] >= level bound" for c in failing)


def test_short_d_fails_the_degree_requirement():
    s = build_schedule(ProblemShape(4, 3, 0), 2)
    broken = replace(s, d=s.d - 1)
    report = validate_schedule(broken)
    names = [c["name"] for c in report["checks"] if not c["ok"]]
    assert any(name.startswith("d >=") for name in names)


def test_slack_builds_still_validate():
    s = build_schedule(ProblemShape(4, 2, 0), 2, slack=5)
    assert validate_schedule(s)["ok"]


def test_monotonicity_and_positive_residuals():
    for shape in all_shapes(5):
        s = build_schedule(shape, 2)
        for l in range(shape.c + shape.r + 1, shape.N + 1):
            row = [s.mu[(l, k)] for k in range(l + 1)]
            assert all(row[k] < row[k + 1] for k in range(l))
            assert row[l] < s.delta[l + 1]
            if l + 1 <= shape.N:
                assert s.delta[l + 1] <= s.mu[(l + 1, 0)]
            assert all(s.d - l * s.mu[(l, k)] >= 1 for k in range(l + 1))
        assert (shape.N + 1) * s.mu[(shape.N, shape.N)] <= s.d


# ----- twist ledger -----


def test_ledger_reference_values():
    s = build_schedule(ProblemShape(4, 3, 0), 2, (1, 1, 1))
    ledger = twist_ledger(s)
    nu = ledger.lookup(0, "K_nu", None, (1,))
    assert nu.value == -21 + 4 * 1 + 3 + 1 + 5 == -8
    assert nu.bound == -8 and nu.tight
    tau0 = ledger.lookup(0, "K_tau_rho", 0, (1,))
    assert tau0.value == -104 + 4 * 21 + 3 * 1 + 3 + 1 + 5 == -8
    assert ledger.ok


def test_ledger_negativity_exhaustive_small_shapes():
    for shape in all_shapes(6):
        for heart in (1, 2):
            for eps in [(1,) * (shape.c + shape.r), tuple(1 + (i % 3) for i in range(shape.c + shape.r))]:
                ledger = twist_ledger(build_schedule(shape, heart, eps))
                assert ledger.ok, (shape, heart, eps)
                for e in ledger.entries:
                    assert e.value <= -(shape.N - e.eta) * heart


def test_ledger_entries_tight_exactly_when_all_eps_equal():
    shape = ProblemShape(4, 2, 0)
    uniform = twist_ledger(build_schedule(shape, 2, (2, 2)))
    assert all(e.tight for e in uniform.entries)
    mixed = twist_ledger(build_schedule(shape, 2, (1, 2)))
    assert not any(e.tight for e in mixed.entries)


def test_ledger_covers_all_hidden_depths_and_selections():
    shape = ProblemShape(4, 2, 0)  # n = 2: hidden depths 0 and 1
    s = build_schedule(shape, 2)
    ledger = twist_ledger(s)
    for eta in range(shape.n):
        m = shape.N - eta
        sels = list(combinations(range(1, shape.c + 1), shape.n - eta))
        for sel in sels:
            ledger.lookup(eta, "K_nu", None, sel)
            for tau in range(m):
                ledger.lookup(eta, "K_tau_rho", tau, sel)
    kinds = {(e.eta, e.kind) for e in ledger.entries}
    assert (1, "K_nu") in kinds and (1, "K_tau_rho") in kinds


def test_ledger_closed_form_with_zero_slack():
    # entry value = selected eps sum - m*(delta_base + heart)
    shape = ProblemShape(4, 2, 1)
    s = build_schedule(shape, 3, (1, 2, 1))
    ledger = twist_ledger(s)
    base = s.delta[shape.c + shape.r + 1]
    for e in ledger.entries:
        m = shape.N - e.eta
        eps_sum = sum(s.eps) + sum(s.eps[j - 1] for j in e.selection)
        assert e.value == eps_sum - m * (base + s.heart)


def test_ledger_serialization():
    ledger = twist_ledger(build_schedule(ProblemShape(3, 2, 0), 2))
    data = ledger_to_dict(ledger)
    assert data["ok"] and len(data["entries"]) == len(ledger.entries)


# ----- explicit-exponent twist helpers -----


def test_fermat_twist_degrees():
    # one section of degree 3, one differential row selected, cubic lambda
    assert fermat_heart((3,), (1,)) == 6
    assert fermat_heart_prime((3,), (2, 2, 2), (1,)) == 3
    # quadric template on 4 coordinates, two sections
    assert fermat_heart((2, 2), (1,)) == 6
    assert fermat_heart_prime((2, 2), (2, 2, 2, 2), (1,)) == 2


def test_hidden_twist_degree_skips_vanished_coordinates():
    assert fermat_hidden_heart_prime((3, 3), (2, 2, 2, 2), (1,), (0,)) == 9 - 3
    with pytest.raises(ValueError):
        fermat_hidden_heart_prime((3,), (1, 2, 2), (1,), (0,))


# ----- effective bound report -----


def test_effective_bound_examples():
    s = build_schedule(ProblemShape(4, 3, 0), 2)
    rep = effective_bound_report(s)
    assert rep["verdict"] == "PASS" and not rep["flagged"]
    assert rep["d0"] == 65535 and rep["d_schedule"] == 64845
    assert rep["eps0"] == "1/21845"  # 3/65535 reduced

    s3 = build_schedule(ProblemShape(3, 1, 1), 2)
    rep3 = effective_bound_report(s3)
    assert rep3["verdict"] == "FAIL" and rep3["flagged"]
    assert rep3["d0_approx"] == "139.30"
    assert rep3["d0_floor"] == 139 and rep3["d0_ceil"] == 140

    s42 = build_schedule(ProblemShape(4, 2, 0), 2)
    rep42 = effective_bound_report(s42)
    assert rep42["verdict"] == "FAIL" and rep42["flagged"]
    assert rep42["d_schedule"] == 35318605 and rep42["d0"] == 65535


def _all_bound_reports(max_N):
    """One line per valid shape with N <= max_N and heart 1..3: the shape and
    its report as sorted JSON."""
    for N in range(2, max_N + 1):
        for c in range(1, N):
            for r in range(N):
                try:
                    shape = ProblemShape(N, c, r)
                except ValueError:
                    continue
                for heart in (1, 2, 3):
                    rep = effective_bound_report(build_schedule(shape, heart))
                    yield f"{N} {c} {r} {heart} {json.dumps(rep, sort_keys=True)}\n"


def test_effective_bound_reports_up_to_N8_are_unchanged():
    # digest and approximations recorded when d0_approx was formatted from
    # a float of N^(N^2)
    lines = list(_all_bound_reports(8))
    assert len(lines) == 150
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "996082647085189eefadf627d037d42a2a0190f90e986668e092266d2222ae9c"
    approx = {3: ("139.30", "0.0215369"), 5: ("545915032.57", "5.49536e-09"),
              7: ("506876294100502249472.00", "5.9186e-21")}
    for N, (d0, eps0) in approx.items():
        rep = effective_bound_report(build_schedule(ProblemShape(N, N - 1, 0), 2))
        assert (rep["d0_approx"], rep["eps0_approx"]) == (d0, eps0)


@pytest.mark.parametrize("shape, precision", [((17, 9, 0), "double precision"),
                                              ((25, 13, 0), "17 significant digits")])
def test_effective_bound_report_where_N_to_the_N2_overflows_a_float(shape, precision):
    # 17^289 is past the float range, its square root is not; 25^625 and its
    # square root both are
    rep = effective_bound_report(build_schedule(ProblemShape(*shape), 2))
    assert rep["parity"] == "odd" and rep["verdict"] == "PASS"
    assert rep["eps0_precision"] == f"{precision} on N^(N^2/2)"
    d0 = Decimal(rep["d0_floor"])
    assert abs(Decimal(rep["d0_approx"]) / d0 - 1) < Decimal("1e-15")
    assert abs(Decimal(rep["eps0_approx"]) * d0 / 3 - 1) < Decimal("1e-5")


# ----- serialization -----


def test_schedule_round_trip():
    s = build_schedule(ProblemShape(4, 2, 0), 2, (1, 2))
    data = schedule_to_dict(s)
    s2 = schedule_from_dict(data)
    assert s2 == s
    assert isinstance(s2, ExponentSchedule)
