import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmforms.exact_algebra import Field, QQ, from_literal
from mcmforms.product_coup import (
    NoRepresentation,
    effective_bound_NN2,
    frobenius_split,
    verify_product_decomposition,
    verify_semigroup_bound,
)
from mcmforms.schedule import ProblemShape
from mcmforms.section_builder import random_homogeneous

F3 = Field(3)


def linear_pair(field=F3):
    f = from_literal("1 * z0^1 + 1 * z1^1", N=2, field=field)
    g = from_literal("1 * z1^1 + 2 * z2^1", N=2, field=field)
    return f, g


# ----- semigroup splits -----


def test_frobenius_split_examples():
    assert frobenius_split(7, 3) == (1, 1)
    assert frobenius_split(6, 3) == (2, 0)
    assert frobenius_split(0, 5) == (0, 0)
    with pytest.raises(NoRepresentation):
        frobenius_split(5, 3)  # the largest gap of <3, 4>


def test_frobenius_split_guards():
    with pytest.raises(ValueError):
        frobenius_split(-1, 3)
    with pytest.raises(ValueError):
        frobenius_split(7, 1)


@given(st.integers(0, 500), st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_frobenius_split_invariant(d, s):
    try:
        p, q = frobenius_split(d, s)
    except NoRepresentation:
        assert d < s * (s - 1)
        return
    assert p >= 0 and 0 <= q <= s - 1
    assert d == p * s + q * (s + 1)


def test_semigroup_bound_s3():
    rep = verify_semigroup_bound(3, 100)
    assert rep["threshold"] == 6
    assert rep["gaps_below_threshold"] == [1, 2, 5]
    assert rep["failures_at_or_above"] == []
    assert rep["ok"]


def test_semigroup_bound_s2():
    rep = verify_semigroup_bound(2, 50)
    assert rep["threshold"] == 2
    assert rep["gaps_below_threshold"] == [1]
    assert rep["ok"]


def test_semigroup_bound_s10():
    rep = verify_semigroup_bound(10, 10_000)
    assert rep["threshold"] == 90
    gaps = rep["gaps_below_threshold"]
    # numerical semigroup <s, s+1>: genus s(s-1)/2, largest gap s(s-1)-1
    assert len(gaps) == 45
    assert max(gaps) == 89
    assert rep["ok"]


def test_semigroup_bound_guards():
    with pytest.raises(ValueError):
        verify_semigroup_bound(1, 100)
    with pytest.raises(ValueError, match="below the threshold"):
        verify_semigroup_bound(10, 50)


# ----- effective bound -----


def test_effective_bound_trivial_cases():
    for N in (1, 2):
        rep = effective_bound_NN2(N)
        assert rep["parity"] == "trivial"
        assert rep["verdict"] == "PASS" and rep["ok"] and not rep["flagged"]
        assert rep["bound"] == N ** (N * N)


def test_effective_bound_even_N4():
    rep = effective_bound_NN2(4)
    assert rep["parity"] == "even"
    assert rep["d0"] == 65535
    assert rep["product"] == 65535 * 65536 == 4294901760
    assert rep["bound"] == 4 ** 16 == 4294967296
    assert rep["verdict"] == "PASS" and rep["ok"] and not rep["flagged"]


def test_effective_bound_odd_N3_marginal():
    rep = effective_bound_NN2(3)
    assert rep["parity"] == "odd"
    assert rep["bound"] == 19683
    assert rep["sqrt_floor"] == 140
    assert rep["ceil_variant"]["product"] == 141 * 140 == 19740
    assert rep["ceil_variant"]["verdict"] == "FAIL"
    assert rep["floor_variant"]["product"] == 140 * 139 == 19460
    assert rep["floor_variant"]["verdict"] == "PASS"
    assert rep["real_form"]["verdict"] == "PASS"
    assert rep["flagged"] and rep["ok"]


def test_effective_bound_floor_variant_always_passes():
    # floor(x)*(floor(x)-1) < floor(x)^2 <= N^(N^2), strictly since an odd
    # power is never a perfect square
    for N in (3, 5, 7):
        rep = effective_bound_NN2(N)
        assert rep["parity"] == "odd"
        assert rep["floor_variant"]["verdict"] == "PASS"
        assert rep["sqrt_floor"] ** 2 < rep["bound"]


def test_effective_bound_odd_square_N_has_one_integer_threshold():
    # 9^(81/2) = 3^81 is an integer, so both roundings give s = 3^81
    rep = effective_bound_NN2(9)
    assert rep["parity"] == "odd"
    assert rep["floor_variant"]["s"] == rep["ceil_variant"]["s"] == 3 ** 81
    assert rep["ceil_variant"]["verdict"] == "PASS" and not rep["flagged"]


def test_effective_bound_even_larger():
    rep = effective_bound_NN2(6)
    assert rep["parity"] == "even"
    assert rep["ok"]
    assert rep["product"] == (6 ** 18 - 1) * 6 ** 18


def test_effective_bound_guard():
    with pytest.raises(ValueError):
        effective_bound_NN2(0)


# ----- product decomposition -----


def test_decomposition_two_lines_over_F3():
    f, g = linear_pair()
    rep = verify_product_decomposition([[f, g]], ProblemShape(2, 1, 0), 3)
    assert rep["pieces"] == 3  # full on f, full on g, or the pair (f, g)
    assert rep["pairs"] == 13 * 4
    # each line carries 4 points; off the intersection point the tangent
    # condition picks 1 of 4 directions, at the intersection dF vanishes
    # identically: 3*1 + 3*1 + 4 = 10
    assert rep["lhs_count"] == rep["rhs_count"] == 10
    assert rep["only_lhs"] == [] and rep["only_rhs"] == []
    assert rep["ok"]


def test_decomposition_single_factor_is_plain_locus():
    f, _ = linear_pair()
    rep = verify_product_decomposition([[f]], ProblemShape(2, 1, 0), 3)
    assert rep["pieces"] == 1
    assert rep["lhs_count"] == rep["rhs_count"] == 4
    assert rep["ok"]


def test_decomposition_quadratic_factors_seed5():
    rng = random.Random(5)
    factors = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)] for _ in range(2)]
    rep = verify_product_decomposition(factors, ProblemShape(3, 2, 0), 3)
    assert rep["pieces"] == 9
    assert rep["pairs"] == 40 * 13
    assert rep["lhs_count"] == rep["rhs_count"] == 36
    assert rep["ok"]


def test_decomposition_symmetric_under_factor_permutation():
    rng = random.Random(5)
    factors = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)] for _ in range(2)]
    base = verify_product_decomposition(factors, ProblemShape(3, 2, 0), 3)
    swapped = [list(reversed(fs)) for fs in factors]
    rep = verify_product_decomposition(swapped, ProblemShape(3, 2, 0), 3)
    assert rep["ok"] == base["ok"]
    assert rep["lhs_count"] == base["lhs_count"]
    assert rep["rhs_count"] == base["rhs_count"]


def test_decomposition_with_value_only_section():
    # r = 1: the extra section constrains values but not differentials
    f = from_literal("1 * z0^1 + 1 * z1^1", N=3, field=F3)
    g = from_literal("1 * z1^1 + 2 * z2^1", N=3, field=F3)
    h = from_literal("1 * z0^1 + 2 * z3^1", N=3, field=F3)
    rep = verify_product_decomposition([[f, g], [h]], ProblemShape(3, 1, 1), 3)
    assert rep["ok"]
    assert rep["factor_counts"] == [2, 1]
    assert rep["lhs_count"] == rep["rhs_count"] > 0


def test_decomposition_rational_coefficients_mod_q():
    f, g = linear_pair(field=QQ)
    rep = verify_product_decomposition([[f, g]], ProblemShape(2, 1, 0), 3)
    assert rep["lhs_count"] == rep["rhs_count"] == 10
    assert rep["ok"]


def test_decomposition_guards():
    f = from_literal("1 * z0^1 + 1 * z1^1", N=3, field=F3)
    with pytest.raises(ValueError, match="factor lists"):
        verify_product_decomposition([[f]], ProblemShape(3, 1, 1), 3)
    with pytest.raises(ValueError, match="at least one factor"):
        verify_product_decomposition([[]], ProblemShape(2, 1, 0), 3)
    g = from_literal("1 * z0^1 + 1 * z1^1", N=2, field=Field(5))
    with pytest.raises(ValueError, match="F_5, not F_3"):
        verify_product_decomposition([[g]], ProblemShape(2, 1, 0), 3)


def test_a_bad_split_fails_the_semigroup_check_under_python_O(run_optimized):
    out = run_optimized(
        "import json\n"
        "from mcmforms import product_coup\n"
        "real = product_coup.frobenius_split\n"
        "product_coup.frobenius_split = lambda d, s: (0, s) if d == 7 else real(d, s)\n"
        "print(json.dumps(product_coup.verify_semigroup_bound(3, 20)))\n")
    rep = json.loads(out)
    assert rep["bad_splits"] == [[7, 0, 3]]
    assert rep["ok"] is False


def test_semigroup_report_lists_no_bad_split_on_the_real_splitter():
    rep = verify_semigroup_bound(4, 200)
    assert rep["bad_splits"] == [] and rep["ok"]


def test_decomposition_walks_directions_once_per_lead_coordinate(monkeypatch):
    from mcmforms import finite_geometry, product_coup

    calls = []

    def counted(z, rows, q):
        calls.append(list(z))
        return finite_geometry.tangent_directions(z, rows, q)

    rng = random.Random(5)
    factors = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)] for _ in range(2)]
    monkeypatch.setattr(product_coup, "tangent_directions", counted)
    rep = verify_product_decomposition(factors, ProblemShape(3, 2, 0), 3)
    # one walk per index of the first nonzero coordinate, not one per point
    assert [z.index(1) for z in calls] == [0, 1, 2, 3]
    assert rep["pairs"] == 40 * 13
    assert rep["lhs_count"] == rep["rhs_count"] == 36 and rep["ok"]
    # the walk it reuses is the one each point would have made
    for pt in finite_geometry.proj_points(3, 3):
        z = list(pt)
        lead = next(i for i, v in enumerate(z) if v)
        assert finite_geometry.tangent_directions(z, [], 3) == \
            finite_geometry.tangent_directions(calls[lead], [], 3)
