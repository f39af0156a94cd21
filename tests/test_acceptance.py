"""Acceptance gate: the ten headline checks, one test and one line each.

Run with -s to see the checklist: every test prints exactly one
"ACCEPTANCE nn PASS/FAIL" line before asserting. All comparisons are exact
integer comparisons; the stated wall-clock budgets are asserted too.
"""

import hashlib
import time

from mcmforms.exact_algebra import QQ, Field
from mcmforms.finite_geometry import (
    base_locus_scan,
    characterization_crosscheck,
    rank_condition_census,
    membership_M_ab,
    membership_M_ab_alt,
    random_rank_matrix,
    smoothness_with_resampling,
)
from mcmforms.identity_verifier import verify_gluing, verify_transition
from mcmforms.pipeline import (
    _glue_units,
    _transition_units,
    default_config_text,
    parse_config,
    report_to_json,
    run_pipeline,
    strip_timings,
)
from mcmforms.product_coup import (
    effective_bound_NN2,
    verify_product_decomposition,
    verify_semigroup_bound,
)
from mcmforms.schedule import ProblemShape, build_schedule, twist_ledger
from mcmforms.section_builder import (
    build_matrices,
    build_sections,
    build_selected,
    column_divisors,
    random_homogeneous,
    standard_forms,
)
from mcmforms.util import child_rng

F3 = Field(3)
F5 = Field(5)

# sha256 of the canonical report of the default config, modulo timings
DEFAULT_REPORT_SHA256 = "17a16fe9ee77e45dd87698659eb02d3efb4370d1e8a6b88d3462207f58c42acd"


def _line(num: int, name: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {num:02d} {verdict}: {name}{suffix}")


def admissible_shapes(N: int):
    return [ProblemShape(N, c, r)
            for c in range(1, N + 1) for r in range(0, N)
            if 2 * c + r >= N and c + r < N]


def mcm_family(shape: ProblemShape, seed: int, field=F5, heart: int = 2):
    sched = build_schedule(shape, heart=heart)
    return build_sections(shape, "mcm", field=field, schedule=sched, seed=seed)


def all_whichs(shape: ProblemShape):
    whichs = [("K_nu", nu) for nu in range(shape.N + 1)]
    whichs += [("K_tau_rho", t, r) for t in range(shape.N)
               for r in range(t + 1, shape.N + 1)]
    return whichs


def test_acceptance_01_schedule_reproduction():
    t0 = time.perf_counter()
    sched = build_schedule(ProblemShape(4, 3, 0), heart=2)
    top_row = tuple(sched.mu[(4, k)] for k in range(5))
    ok = (top_row == (21, 104, 519, 2594, 12969)
          and sched.d == 5 * 12969 == 64845
          and sched.d < 65535 == 4 ** 8 - 1)
    elapsed = time.perf_counter() - t0
    _line(1, "schedule mu row (21,104,519,2594,12969), d=64845 < 65535", ok,
          f"{elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_acceptance_02_effective_bound():
    t0 = time.perf_counter()
    four = effective_bound_NN2(4)
    three = effective_bound_NN2(3)
    ok = (four["verdict"] == "PASS"
          and four["product"] == 65535 * 65536
          and four["product"] < 4 ** 16
          and not four["flagged"]
          and three["ok"]
          and three["flagged"]
          and three["ceil_variant"]["verdict"] == "FAIL"
          and three["floor_variant"]["verdict"] == "PASS"
          and three["real_form"]["verdict"] == "PASS")
    elapsed = time.perf_counter() - t0
    _line(2, "N=4 bound 65535*65536 < 4^16; N=3 marginal flagged, not fatal",
          ok, f"{elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_acceptance_03_twist_negativity_exhaustive():
    t0 = time.perf_counter()
    entries = 0
    bad = []
    shapes = 0
    for N in range(2, 7):
        for shape in admissible_shapes(N):
            shapes += 1
            sched = build_schedule(shape, heart=2)
            ledger = twist_ledger(sched)
            for e in ledger.entries:
                entries += 1
                if e.value > -(N - e.eta) * sched.heart:
                    bad.append((shape, e))
    elapsed = time.perf_counter() - t0
    ok = not bad and entries > 0
    _line(3, "twist ledger entries <= -(N-eta)*heart, exhaustive N<=6", ok,
          f"{shapes} shapes, {entries} entries, {elapsed:.2f}s")
    assert ok, bad[:3]
    assert elapsed < 10.0


def test_acceptance_04_gluing_certificates():
    t0 = time.perf_counter()
    failures = []
    families = 0

    def check(fam, shape):
        nonlocal families
        families += 1
        for u in _glue_units(fam):
            for j1 in range(shape.N + 1):
                for j2 in range(j1 + 1, shape.N + 1):
                    rep = verify_gluing(fam, u["selection"], j1, j2, which=u["which"])
                    if not rep["ok"] or rep["checks"][0]["mode"] != "exact":
                        failures.append((shape, u, j1, j2))

    for shape_tuple in ((2, 1, 0), (3, 2, 0), (3, 1, 1)):
        shape = ProblemShape(*shape_tuple)
        for seed in range(10):
            check(mcm_family(shape, seed), shape)
    shape = ProblemShape(4, 3, 0)
    for seed in range(10):
        fam = build_sections(shape, "general_fermat", field=QQ,
                             lambdas=(2, 1, 2, 1, 2), degrees=(3, 3, 4),
                             seed=seed)
        check(fam, shape)
    elapsed = time.perf_counter() - t0
    ok = not failures and families == 40
    _line(4, "gluing hypothesis on every chart pair, 10 families per shape", ok,
          f"{families} families, {elapsed:.1f}s")
    assert ok, failures[:3]
    assert elapsed < 300.0


def test_acceptance_05_transition_formulas():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for shape_tuple in ((2, 1, 0), (3, 2, 0), (3, 1, 1), (4, 3, 0)):
        shape = ProblemShape(*shape_tuple)
        for seed in range(3):
            fam = mcm_family(shape, seed)
            for u in _transition_units(fam):
                rep = verify_transition(fam, u["selection"], u["omit"],
                                        u["l1"], u["l2"], which=u["which"],
                                        kind=u["kind"])
                checked += 1
                exponent_checks = [c for c in rep["checks"]
                                   if c["id"] == "transition exponent"]
                if not rep["ok"] or not exponent_checks or rep["mode"] != "exact":
                    failures.append((shape, u, rep))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 24
    _line(5, "transition + ledger-recomputed exponent, exact for N<=4",
          ok, f"{checked} units, {elapsed:.1f}s")
    assert ok, failures[:2]


def test_acceptance_06_divisibility_claims():
    t0 = time.perf_counter()
    columns = 0
    for shape_tuple in ((2, 1, 0), (3, 2, 0), (3, 1, 1), (4, 3, 0),
                        (4, 2, 0), (4, 2, 1), (4, 1, 2)):
        shape = ProblemShape(*shape_tuple)
        for seed in (0, 1):
            fam = mcm_family(shape, seed)
            K = build_matrices(fam)
            for which in all_whichs(shape):
                columns += len(column_divisors(build_selected(K, which)))
    elapsed = time.perf_counter() - t0
    ok = columns > 0
    _line(6, "declared K_nu / K_tau_rho column divisors divide exactly", ok,
          f"{columns} columns, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_acceptance_07_rank_condition_census():
    t0 = time.perf_counter()
    expected = {(2, 2, 2): 148, (2, 3, 2): 596, (2, 2, 3): 1737,
                (3, 3, 2): 273344}
    census_ok = True
    for (a, b, q), count in expected.items():
        rep = rank_condition_census(a, b, q)
        census_ok = census_ok and rep["count"] == count and rep["ok"] \
            and rep["count"] <= rep["bound"]
    disagreements = 0
    for (a, b, q) in expected:
        rng = child_rng(0, f"census-agree-{a}-{b}", q)
        for _ in range(100_000):
            M = random_rank_matrix(a, b, q, rng)
            if membership_M_ab(M) != membership_M_ab_alt(M):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = census_ok and disagreements == 0
    _line(7, "census counts <= q^codim bound; dual membership agrees 4x1e5",
          ok, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 600.0


def test_acceptance_08_smoothness_base_locus_crosscheck():
    t0 = time.perf_counter()
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, heart=2)
    smooth = smoothness_with_resampling(shape, "mcm", F5, schedule=sched,
                                        seed=1, q=5, attempts=8)
    fam = build_sections(shape, "mcm", field=F5, schedule=sched,
                         seed=smooth["family_seed"])
    forms = standard_forms(fam)
    locus = base_locus_scan(fam, forms, 5)
    cross = characterization_crosscheck(fam, 5, sample=39936, seed=1)
    elapsed = time.perf_counter() - t0
    ok = (smooth["ok"] and smooth["attempt"] < 8
          and locus["ok"]
          and isinstance(locus["fiber_counts"], dict)
          and cross["total_pairs"] >= 10_000
          and cross["samples"] >= 10_000
          and cross["member_not_vanish"] == 0
          and cross["ok"])
    _line(8, "smooth within 8 reseeds; base-locus fibers; crosscheck >= 1e4",
          ok, f"attempt {smooth['attempt']}, {cross['samples']} pairs, "
              f"{elapsed:.1f}s")
    assert ok, (smooth["ok"], locus["ok"], cross["member_not_vanish"])


def test_acceptance_09_product_coup():
    t0 = time.perf_counter()
    semigroup_ok = all(verify_semigroup_bound(s, 10_000)["ok"]
                       for s in range(2, 51))

    lines = [["1 * z0^1 + 1 * z1^1", "1 * z1^1 + 2 * z2^1"]]
    from mcmforms.exact_algebra import from_literal
    factors1 = [[from_literal(lit, 2, F3) for lit in lines[0]]]
    rep1 = verify_product_decomposition(factors1, ProblemShape(2, 1, 0), 3)

    rng = child_rng(5, "acceptance-decompose", 0)
    factors2 = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)]
                for _ in range(2)]
    rep2 = verify_product_decomposition(factors2, ProblemShape(3, 2, 0), 3)
    elapsed = time.perf_counter() - t0
    ok = semigroup_ok and rep1["ok"] and rep2["ok"]
    _line(9, "semigroup splits s=2..50 to 1e4; decompositions N=2 and N=3",
          ok, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_acceptance_10_pipeline_determinism():
    t0 = time.perf_counter()
    r1 = run_pipeline(parse_config(default_config_text()))
    r2 = run_pipeline(parse_config(default_config_text()))
    j1 = report_to_json(strip_timings(r1))
    j2 = report_to_json(strip_timings(r2))
    elapsed = time.perf_counter() - t0
    ok = (r1["ok"] and r2["ok"] and j1 == j2
          and hashlib.sha256(j1.encode()).hexdigest() == DEFAULT_REPORT_SHA256)
    _line(10, "two default pipeline runs identical modulo timings", ok,
          f"{len(j1)} bytes, {elapsed:.1f}s")
    assert ok
