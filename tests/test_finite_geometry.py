import hashlib
import json
import random
import tracemalloc
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from census_oracle import rank as oracle_rank
from conftest import expand_form

from mcmforms import finite_geometry
from mcmforms.exact_algebra import EvalPlan, Field, MultiPoly, QQ, deriv, det_mod_p, from_literal, to_literal
from mcmforms.finite_geometry import (
    RankConditionMatrix,
    _census_exhaustive,
    _census_sampled,
    _column_codes,
    _rank_mask,
    _rank_table,
    _rank_tables,
    clopper_pearson_upper,
    base_locus_scan,
    canonical_direction,
    characterization_crosscheck,
    rank_condition_census,
    membership_M_ab,
    membership_M_ab_alt,
    points_on_X,
    proj_points,
    random_rank_matrix,
    smoothness_check,
    smoothness_with_resampling,
    tangent_directions,
)
from mcmforms.product_coup import verify_product_decomposition
from mcmforms.schedule import ProblemShape, build_schedule
from mcmforms.section_builder import (
    FormBundle,
    build_matrices,
    build_sections,
    _combine_columns,
    column_layout,
    divisor_exponent,
    extract_forms,
    random_homogeneous,
    selection_layouts,
    standard_forms,
)
from mcmforms.util import child_rng, rank_mod_p

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)

UNIT_LINE = {"A:1:0": "1", "A:1:1": "1", "A:1:2": "1"}


def unit_line_family(field=QQ):
    return build_sections(
        ProblemShape(2, 1, 0), "general_fermat", field=field,
        lambdas=(1, 1, 1), degrees=(1,), explicit=UNIT_LINE,
    )


def mcm_family(seed, shape=None, p=5, heart=2):
    shape = shape or ProblemShape(4, 3, 0)
    sched = build_schedule(shape, heart=heart)
    return build_sections(shape, "mcm", field=Field(p), schedule=sched, seed=seed)


# ----- points and directions -----


def test_proj_points_counts():
    for N, p in [(1, 2), (2, 2), (2, 3), (2, 5), (3, 2), (4, 5)]:
        pts = proj_points(N, p)
        assert len(pts) == (p ** (N + 1) - 1) // (p - 1)
        # normalized: N + 1 coordinates in 0..p-1, the first nonzero one 1
        assert all(len(pt) == N + 1 and all(0 <= x < p for x in pt) for pt in pts)
        assert all(next(x for x in pt if x) == 1 for pt in pts)
        assert len(set(pts)) == len(pts)


def test_canonical_direction_reduction():
    p = 7
    z = (1, 2, 3, 4)
    rng = random.Random(5)
    for _ in range(50):
        xi = [rng.randrange(p) for _ in z]
        d = canonical_direction(z, xi, p)
        if d is None:
            # proportional to z: xi - t z == 0 for the solved t
            t = xi[0] % p
            assert all((x - t * zi) % p == 0 for x, zi in zip(xi, z))
            continue
        # invariant under adding multiples of z and under scaling
        shifted = [(x + 3 * zi) % p for x, zi in zip(xi, z)]
        scaled = [(2 * x) % p for x in xi]
        assert canonical_direction(z, shifted, p) == d
        assert canonical_direction(z, scaled, p) == d
        assert d[0] == 0  # slot of z's leading coordinate is zeroed
        lead = next(v for v in d if v)
        assert lead == 1


def test_canonical_direction_euler_is_none():
    assert canonical_direction((1, 1, 3), (2, 2, 6), 5) is None


def test_tangent_directions_on_line():
    # kernel of (1,1,1) at z=(1,1,3) over F_5, modulo Euler: one direction
    dirs = tangent_directions((1, 1, 3), [(1, 1, 1)], 5)
    assert len(dirs) == 1
    xi = dirs[0]
    assert sum(xi) % 5 == 0 and xi[0] == 0


def test_tangent_directions_unconstrained():
    # no constraints: all of F_5^3 modulo Euler and scaling, q+1 directions
    dirs = tangent_directions((1, 0, 0), [], 5)
    assert len(dirs) == 6
    assert all(isinstance(d, tuple) and len(d) == 3 for d in dirs)
    assert all(d[0] == 0 for d in dirs)
    assert dirs == sorted(set(dirs))


# ----- points_on_X -----


def cutout(N, field, sections):
    """Bare homogeneous equations in P^N, standing in for a family: the
    scans read only its shape, field and sections."""
    return SimpleNamespace(shape=SimpleNamespace(N=N, c=len(sections), r=0),
                           field=field, sections=sections)


def test_points_on_line_over_F2():
    pts = points_on_X(unit_line_family(), 2)
    assert set(pts) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_points_on_empty_family():
    # no equations: the whole projective space
    for N, p in [(2, 3), (3, 2), (2, 5)]:
        pts = points_on_X(cutout(N, Field(p), ()), p)
        assert pts == proj_points(N, p)


def test_points_on_z0_squared_cutout():
    sq = from_literal("1 * z0^2", N=2, field=F3)
    cut = cutout(2, F3, (sq,))
    pts = points_on_X(cut, 3)
    assert len(pts) == 4  # the line z0 = 0 in P^2(F_3)
    assert all(pt[0] == 0 for pt in pts)


def test_points_field_mismatch():
    fam = build_sections(ProblemShape(2, 1, 0), "general_fermat", field=Field(101),
                         lambdas=(1, 1, 1), degrees=(2,), seed=0)
    with pytest.raises(ValueError, match="F_101"):
        points_on_X(fam, 5)


# ----- smoothness -----


def test_fermat_cubic_in_P3_is_smooth_over_F7():
    F7 = Field(7)
    cubic = from_literal("1 * z0^3 + 1 * z1^3 + 1 * z2^3 + 1 * z3^3", N=3, field=F7)
    rep = smoothness_check(cutout(3, F7, (cubic,)), 7)
    assert rep["ok"]
    assert rep["points"] == 99
    assert rep["expected_rank"] == 1
    assert rep["singular"] == []


def test_z0_squared_is_singular_along_its_zero_line():
    F5loc = Field(5)
    sq = from_literal("1 * z0^2", N=2, field=F5loc)
    rep = smoothness_check(cutout(2, F5loc, (sq,)), 5)
    assert not rep["ok"]
    assert rep["points"] == 6
    assert len(rep["singular"]) == 6
    assert all(w["rank"] == 0 for w in rep["singular"])


def test_mcm_seed_11_smoothness_verdict():
    rep = smoothness_check(mcm_family(11), 5)
    assert rep["op"] == "smoothness"
    assert rep["expected_rank"] == 3
    assert rep["points"] == 10
    assert not rep["ok"]
    assert rep["singular"][0] == {"z": [1, 0, 1, 3, 2], "rank": 2}


def test_smoothness_resampling_recovers():
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, heart=2)
    rep = smoothness_with_resampling(shape, "mcm", Field(5), schedule=sched, seed=11)
    assert rep["ok"]
    assert rep["attempt"] == 0
    assert "family_seed" in rep


def test_smoothness_resampling_needs_an_attempt():
    # with no attempt there is no scan to report
    shape = ProblemShape(4, 3, 0)
    sched = build_schedule(shape, heart=2)
    for attempts in (0, -1):
        with pytest.raises(ValueError, match="at least one attempt"):
            smoothness_with_resampling(shape, "mcm", Field(5), schedule=sched, seed=11,
                                       attempts=attempts)


# ----- rank-condition membership -----


def test_membership_zero_matrix():
    Z = RankConditionMatrix(((0,) * 6, (0,) * 6), 2)
    assert membership_M_ab(Z) and membership_M_ab_alt(Z)


def test_membership_unit_alpha0_fails_column_sum():
    M = RankConditionMatrix(((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)), 2)
    assert not membership_M_ab(M)
    assert not membership_M_ab_alt(M)


def test_membership_nontrivial_members():
    # frozen from exhaustive enumeration of the (a, b, q) = (2, 2, 2) space
    for rows in [
        ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)),
        ((0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1)),
    ]:
        M = RankConditionMatrix(rows, 2)
        assert membership_M_ab(M) and membership_M_ab_alt(M)


def test_membership_shape_guards():
    with pytest.raises(ValueError, match="b x 2"):
        RankConditionMatrix(((1, 0, 0), (0, 0, 0)), 2)
    with pytest.raises(ValueError, match="2 <= a <= b"):
        RankConditionMatrix(((0, 0, 0, 0),) * 4, 2)  # a = 1
    with pytest.raises(ValueError, match="2 <= a <= b"):
        RankConditionMatrix(((0,) * 8, (0,) * 8), 2)  # a = 3 > b = 2


def test_membership_primary_and_alt_agree():
    # reformulation equivalence, swept over every (a, b) up to (3, 4)
    pairs = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
    qs = (2, 3, 5)
    for a, b in pairs:
        rng = random.Random(f"agree-{a}-{b}")
        members = 0
        for i in range(100_000):
            q = qs[i % 3]
            M = random_rank_matrix(a, b, q, rng)
            lhs = membership_M_ab(M)
            assert lhs == membership_M_ab_alt(M)
            members += lhs
        # column-sum-constrained draws exercise the rank conditions densely
        for i in range(1500):
            q = qs[i % 3]
            M = random_rank_matrix(a, b, q, rng, constrained=True)
            lhs = membership_M_ab(M)
            assert lhs == membership_M_ab_alt(M)
            members += lhs
        assert members > 0


def test_table_elimination_and_alt_agree_on_every_2_2_2_matrix():
    members = 0
    for entries in product(range(2), repeat=12):
        M = RankConditionMatrix((entries[:6], entries[6:]), 2)
        table = membership_M_ab(M)
        assert table == finite_geometry._membership_by_elimination(M) == membership_M_ab_alt(M)
        members += table
    assert members == 148


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(finite_geometry, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(finite_geometry, name, counted)
    return calls


@pytest.mark.parametrize("a, b, q", [(2, 3, 5), (4, 6, 5)])
def test_membership_above_the_table_limit_builds_no_table(monkeypatch, a, b, q):
    assert q ** (b * (a + 1)) > finite_geometry.CENSUS_TABLE_MAX
    rng = random.Random(f"above:{a},{b},{q}")
    mats = [random_rank_matrix(a, b, q, rng, constrained=True) for _ in range(200)]
    expected = [membership_M_ab_alt(M) for M in mats]
    built = [_count_calls(monkeypatch, name) for name in ("_rank_tables", "_column_codes")]
    eliminations = _count_calls(monkeypatch, "rank_mod_p")
    assert [membership_M_ab(M) for M in mats] == expected
    assert built == [[], []]
    assert len(eliminations) >= len(mats)  # a zero-sum matrix is reduced at least once


def test_membership_within_the_table_limit_builds_each_table_once(monkeypatch):
    shapes = [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3)]
    mats, expected = {}, {}
    for a, b, q in shapes:
        assert q ** (b * (a + 1)) <= finite_geometry.CENSUS_TABLE_MAX
        rng = random.Random(f"within:{a},{b},{q}")
        mats[a, b, q] = [random_rank_matrix(a, b, q, rng, constrained=True) for _ in range(300)]
        expected[a, b, q] = [membership_M_ab_alt(M) for M in mats[a, b, q]]
        assert any(expected[a, b, q])

    def refuse(*args):
        raise AssertionError("membership eliminated within the table limit")

    monkeypatch.setattr(finite_geometry, "rank_mod_p", refuse)
    finite_geometry._rank_tables.cache_clear()
    built = _count_calls(monkeypatch, "_rank_table")
    for shape in shapes:
        assert [membership_M_ab(M) for M in mats[shape]] == expected[shape]
    assert len(built) == len(shapes)  # one table per shape, across 300 calls each


@pytest.mark.parametrize("p", [4, 1, 0, 6, -3])
def test_rank_condition_matrix_refuses_a_modulus_that_is_not_prime(p):
    with pytest.raises(ValueError, match="prime|out of range"):
        RankConditionMatrix(((0,) * 6, (0,) * 6), p)


# ----- census -----


def test_census_2_2_2():
    rep = rank_condition_census(2, 2, 2)
    assert rep["count"] == 148  # frozen from the independent brute-force oracle
    assert rep["exact"] and rep["mode"] == "exhaustive" and not rep["forced_sample"]
    assert rep["ambient_dim"] == 12
    assert rep["codim_target"] == 3
    assert rep["bound"] == 1024
    assert rep["verdict"] == "pass" and rep["ok"]
    assert 4.7 < rep["implied_codim"] < 4.9


def test_census_2_3_2():
    rep = rank_condition_census(2, 3, 2)
    assert rep["count"] == 596  # frozen from the independent brute-force oracle
    assert rep["bound"] == 2 ** 15
    assert rep["verdict"] == "pass"


def test_census_2_2_3_generic_field():
    rep = rank_condition_census(2, 2, 3)
    assert rep["count"] == 1737  # frozen from the independent brute-force oracle
    assert rep["bound"] == 3 ** 10
    assert rep["verdict"] == "pass"


def test_census_3_3_2():
    rep = rank_condition_census(3, 3, 2)
    assert rep["count"] == 273344  # frozen from the independent brute-force oracle
    assert rep["ambient_dim"] == 24
    assert rep["codim_target"] == 5
    assert rep["bound"] == 2 ** 20
    assert rep["verdict"] == "pass"
    assert 5.9 < rep["implied_codim"] < 6.0


def scalar_census(a, b, q):
    """The scalar member count the census ran over F_q (q > 2) before the
    numpy kernel: the reference for _census_exhaustive. Columns are coded by
    their index in F_q^b and summed through an addition table; ranks are
    memoized on sorted column multisets."""
    col_space = list(product(range(q), repeat=b))
    index = {v: i for i, v in enumerate(col_space)}
    add_table = [[index[tuple((u + w) % q for u, w in zip(x, y))] for y in col_space]
                 for x in col_space]
    negate = [index[tuple(-u % q for u in x)] for x in col_space]
    layouts = [layout for _, _, layout in selection_layouts(a)]
    rank_cache = {}

    def add(x, y):
        return add_table[x][y]

    def cached_rank(cols):
        key = tuple(sorted(cols))
        r = rank_cache.get(key)
        if r is None:
            r = rank_cache[key] = rank_mod_p([col_space[i] for i in key], q)
        return r

    count = 0
    for free in product(range(len(col_space)), repeat=2 * a + 1):
        total = 0  # index of the zero column
        for col in free:
            total = add_table[total][col]
        alphas = (negate[total],) + free[:a]
        betas = free[a:]
        memo = {}
        if all(cached_rank(_combine_columns(layout, alphas, betas, add, memo)) <= a - 1
               for layout in layouts):
            count += 1
    return count


def test_census_kernel_matches_scalar_loop():
    for a, b, q in [(2, 2, 2), (2, 3, 2), (2, 2, 3)]:
        assert _census_exhaustive(a, b, q) == scalar_census(a, b, q)


def _code_of(col, q):
    code = 0
    for v in col:
        code = code * q + v
    return code


@pytest.mark.parametrize("a, b, q", [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2),
                                     (2, 2, 5), (3, 3, 3)])
def test_rank_mask_matches_alt_membership(a, b, q):
    rng = random.Random(f"rank-mask:{a},{b},{q}")
    mats = [random_rank_matrix(a, b, q, rng, constrained=True) for _ in range(2000)]
    tables = _rank_tables(a, b, q)
    add = np.bitwise_xor if q == 2 else (lambda x, y: tables.add[x, y])
    low = np.frombuffer(tables.low, dtype=np.bool_)
    assert len(low) == q ** (a * b)  # one key per a-column tuple
    cols = [np.array([_code_of(M.column(j), q) for M in mats], dtype=tables.add.dtype)
            for j in range(2 * a + 2)]
    mask = _rank_mask(cols[:a + 1], cols[a + 1:], add, q ** b, low)
    expected = [membership_M_ab_alt(M) for M in mats]
    assert mask.tolist() == expected
    assert any(expected)


def _layout_ranks(M, keep):
    """rank_mod_p of the combined columns of every layout of M, keeping the
    layout columns for which keep(col) holds."""
    q = M.p
    alphas = [M.alpha(j) for j in range(M.a + 1)]
    betas = [M.beta(j) for j in range(M.a + 1)]

    def add(x, y):
        return tuple((u + v) % q for u, v in zip(x, y))

    return [rank_mod_p(_combine_columns([c for c in layout if keep(c)], alphas, betas, add), q)
            for _, _, layout in selection_layouts(M.a)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dropping_the_alpha_0_column_keeps_every_layout_rank(q):
    for a in (2, 3):
        for _, _, layout in selection_layouts(a):
            # each A_j and each B_j once, so the columns sum to the column sum
            assert sorted(c.a for c in layout) == list(range(a + 1))
            assert sorted(j for c in layout for j in c.b) == list(range(a + 1))
    rng = random.Random(f"drop-alpha-0:{q}")
    for a, b in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for _ in range(150):
            M = random_rank_matrix(a, b, q, rng, constrained=True)
            assert _layout_ranks(M, lambda c: c.a) == _layout_ranks(M, lambda c: True)
    # without the zero sum the dropped column can raise the rank
    broken = 0
    for _ in range(50):
        M = random_rank_matrix(2, 3, q, rng)
        broken += _layout_ranks(M, lambda c: c.a) != _layout_ranks(M, lambda c: True)
    assert broken


@pytest.mark.parametrize("b, q, k", [(2, 2, 3), (3, 2, 4), (2, 3, 3), (2, 5, 3), (3, 3, 4)])
def test_rank_table_matches_oracle(b, q, k):
    add, mul = _column_codes(b, q)
    Q = q ** b
    digits = [list(v) for v in product(range(q), repeat=b)]  # digits[x]: column of code x
    for x in range(Q):
        for t in range(q):
            assert mul[t, x] == _code_of([t * v % q for v in digits[x]], q)
        for y in range(Q):
            assert add[x, y] == _code_of([(u + v) % q for u, v in zip(digits[x], digits[y])], q)
            if q == 2:
                assert add[x, y] == x ^ y
    table = _rank_table(add, mul, k)
    assert table.shape == (Q ** k,)
    ranks = {}  # rank depends on the set of columns only
    for key, tup in enumerate(product(range(Q), repeat=k)):
        multiset = tuple(sorted(tup))
        if multiset not in ranks:
            ranks[multiset] = oracle_rank([digits[x] for x in multiset], q)
        assert table[key] == ranks[multiset], tup


CENSUS_SHAPES = [(2, 2, 2, 148), (2, 3, 2, 596), (2, 2, 3, 1737), (3, 3, 2, 273344),
                 (2, 2, 5, 36025)]


def full_enumeration_census(a, b, q):
    """The exhaustive census before it was factored: the reference for
    _census_exhaustive. The free columns alpha_1..alpha_a, beta_0..beta_a
    run over every tuple of codes and alpha_0 is their negated sum; the
    last free columns (at least one) are enumerated as arrays of at most
    CENSUS_BLOCK tuples, the others looped over as constants. Every
    layout's a + 1 combined columns are one key of an (a + 1)-column rank
    table."""
    add_table, mul = _column_codes(b, q)
    add = np.bitwise_xor if q == 2 else (lambda x, y: add_table[x, y])
    low = _rank_table(add_table, mul, a + 1) <= a - 1
    Q, nfree = q ** b, 2 * a + 1
    zero = np.min_scalar_type(len(low) - 1).type(0)
    layouts = [layout for _, _, layout in selection_layouts(a)]

    def rank_mask(alphas, betas):
        memo, ok = {}, True
        for layout in layouts:
            key = zero
            for col in _combine_columns(layout, alphas, betas, add, memo):
                key = key * Q + col
            ok = ok & low[key]
        return ok

    inner = max([1] + [m for m in range(1, nfree + 1) if Q ** m <= finite_geometry.CENSUS_BLOCK])
    codes = np.arange(Q, dtype=add_table.dtype)
    block = [np.tile(np.repeat(codes, Q ** (inner - 1 - i)), Q ** i) for i in range(inner)]
    block_sum = reduce(add, block)
    count = 0
    for outer in product(range(Q), repeat=nfree - inner):
        free = list(outer) + block
        alphas = [mul[q - 1][add(block_sum, reduce(add, outer, 0))]] + free[:a]
        count += int(np.count_nonzero(rank_mask(alphas, free[a:])))
    return count


@pytest.mark.parametrize("a, b, q, count", CENSUS_SHAPES)
def test_factored_census_matches_full_enumeration(a, b, q, count):
    assert _census_exhaustive(a, b, q) == full_enumeration_census(a, b, q) == count


@pytest.fixture
def mask_sizes(monkeypatch):
    """The size of every mask _rank_mask returns: one per census block."""
    sizes = []
    real_mask = finite_geometry._rank_mask

    def counted(*args):
        ok = real_mask(*args)
        sizes.append(ok.size)
        return ok

    monkeypatch.setattr(finite_geometry, "_rank_mask", counted)
    return sizes


def test_census_block_size_does_not_change_counts(monkeypatch, mask_sizes):
    for a, b, q, count in [(2, 2, 2, 148), (2, 3, 2, 596), (2, 2, 3, 1737)]:
        Q = q ** b
        # one inner column per block: Q^a blocks of the K_nu walk and
        # Q^(2a-1) of the K_tau_rho walk; then one block per walk
        for block, masks in [(Q, Q ** a + Q ** (2 * a - 1)), (Q ** (2 * a + 1), 2)]:
            monkeypatch.setattr(finite_geometry, "CENSUS_BLOCK", block)
            mask_sizes.clear()
            assert _census_exhaustive(a, b, q) == count
            assert len(mask_sizes) == masks
            assert sum(mask_sizes) == Q ** (a + 1) + Q ** (2 * a)


@pytest.mark.parametrize("a, b, q, count", CENSUS_SHAPES)
def test_census_examines_the_two_factored_walks(mask_sizes, a, b, q, count):
    Q = q ** b
    assert _census_exhaustive(a, b, q) == count
    assert sum(mask_sizes) == Q ** (a + 1) + Q ** (2 * a)  # not Q^(2a+1)
    assert max(mask_sizes) <= max(Q, finite_geometry.CENSUS_BLOCK)


def test_census_memory_stays_bounded():
    tracemalloc.start()
    try:
        rep = rank_condition_census(3, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["count"] == 273344
    assert peak < 4 * 2 ** 20  # whole-space arrays of 2^21 tuples would not fit


@pytest.mark.parametrize("n", [1, 20, 5000, 100_000])
def test_clopper_pearson_closed_forms(n):
    assert clopper_pearson_upper(n, n) == 1.0
    assert clopper_pearson_upper(0, n) == pytest.approx(1 - 0.05 ** (1 / n), rel=1e-12)


@pytest.mark.parametrize("hits, n", [(0, 5000), (1, 20), (3, 5000), (13, 20_000),
                                     (168, 5000), (137, 100_000), (19, 20), (20, 20)])
def test_clopper_pearson_matches_beta_quantile(hits, n):
    stats = pytest.importorskip("scipy.stats")
    upper = clopper_pearson_upper(hits, n)
    if hits == n:
        assert upper == 1.0
    else:
        assert upper == pytest.approx(stats.beta.ppf(0.95, hits + 1, n - hits), rel=1e-9)
    assert hits / n <= upper <= 1.0


def test_census_bound_formula():
    for a, b, q in [(2, 2, 2), (2, 3, 2), (2, 2, 3)]:
        rep = rank_condition_census(a, b, q)
        dim = 2 * b * (a + 1)
        assert rep["ambient_dim"] == dim
        assert rep["bound"] == q ** (dim - (a + b - 1) + 1)
        assert rep["count"] <= rep["bound"]  # census monotonicity


def test_census_sample_mode_and_forced_fallback():
    rep = rank_condition_census(2, 2, 2, mode="sample", sample_size=5000, seed=3)
    assert rep["mode"] == "sample" and not rep["exact"] and not rep["forced_sample"]
    assert rep["count"] == 138  # extrapolated, deterministic for this seed
    assert rep["confidence"] == 0.95
    assert rep["count"] <= rep["count_upper"] <= rep["bound"]
    big = rank_condition_census(3, 4, 2, sample_size=20_000, seed=1)
    assert big["forced_sample"] and big["mode"] == "sample" and not big["exact"]
    assert big["verdict"] == "pass"
    assert big["count"] <= big["count_upper"] <= big["bound"]
    assert "count_upper" not in rank_condition_census(2, 2, 2)


def test_sampled_census_report_is_pinned():
    # the (3,3,3) 20,000-draw report as the scalar per-entry draws gave it;
    # a change to how the census draws must leave it byte for byte
    rep = rank_condition_census(3, 3, 3, mode="sample", sample_size=20_000, seed=5)
    assert (rep["count"], rep["count_upper"]) == (183579199, 291814763)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "0bc804a3611b270bf1ada7e98c70a27ce0194b5ce9bcb25687e0e0a42594950b"


@pytest.mark.parametrize("a, b, q, n", [(2, 2, 2, 5000), (2, 3, 2, 5000), (3, 3, 3, 20_000)])
def test_sampled_census_kernel_matches_the_per_draw_loop(monkeypatch, a, b, q, n):
    # a per-draw loop through the independent oracle is the reference: the
    # same draws give the same hits, through the rank table in blocks and
    # through the per-draw test above CENSUS_TABLE_MAX
    ref_rng = child_rng(7, "census", f"{a},{b},{q}")
    hits = sum(membership_M_ab_alt(random_rank_matrix(a, b, q, ref_rng)) for _ in range(n))
    assert hits > 0
    monkeypatch.setattr(finite_geometry, "CENSUS_BLOCK", 1024)
    for table_max in (finite_geometry.CENSUS_TABLE_MAX, 0):
        monkeypatch.setattr(finite_geometry, "CENSUS_TABLE_MAX", table_max)
        rng = child_rng(7, "census", f"{a},{b},{q}")
        assert _census_sampled(a, b, q, n, rng) == hits
        assert rng.getstate() == ref_rng.getstate()  # every draw taken, no more


def test_sampled_census_verdict_rests_on_the_upper_bound(monkeypatch):
    monkeypatch.setattr(finite_geometry, "clopper_pearson_upper", lambda hits, n: 1.0)
    rep = rank_condition_census(2, 2, 2, mode="sample", sample_size=500, seed=3)
    assert rep["count"] <= rep["bound"] < rep["count_upper"] == 2 ** 12
    assert rep["verdict"] == "fail" and not rep["ok"]


def test_census_rejects_bad_shapes_and_modes():
    with pytest.raises(ValueError, match="2 <= a <= b"):
        rank_condition_census(1, 2, 2)
    with pytest.raises(ValueError, match="unknown mode"):
        rank_condition_census(2, 2, 2, mode="guess")


@pytest.mark.parametrize("q", [4, 6, 9, 1, 0, -3])
def test_census_rejects_a_q_that_is_not_prime(q):
    for mode in ("exhaustive", "sample"):
        with pytest.raises(ValueError, match="prime|out of range"):
            rank_condition_census(2, 2, q, mode=mode, sample_size=10)


@pytest.mark.parametrize("size", [0, -5])
def test_census_rejects_an_empty_sample(size):
    with pytest.raises(ValueError, match="at least 1"):
        rank_condition_census(2, 2, 2, mode="sample", sample_size=size)


@pytest.mark.parametrize("budget", [0, -5])
def test_census_rejects_a_budget_below_one(budget):
    # a budget below 1 used to turn every census into a sampled one
    for mode in ("exhaustive", "sample"):
        with pytest.raises(ValueError, match=f"census budget must be at least 1, got {budget}"):
            rank_condition_census(2, 2, 2, mode=mode, budget=budget)
    assert rank_condition_census(2, 2, 2, sample_size=500, budget=1)["forced_sample"]


# ----- base locus -----


class ConstantForm:
    """Stand-in form evaluating to a fixed function of (z, xi)."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate_at(self, z, xi, q):
        return self.fn(z, xi)


def line_psi(fam):
    K = build_matrices(fam)
    return extract_forms(K, [(1,)], omit=0, kind="psi")[0]


def test_base_locus_of_line_form_is_empty():
    fam = unit_line_family(field=F5)
    psi = line_psi(fam)
    assert to_literal(expand_form(psi)) == "1 * z1^1 dz2^1 + 4 * z2^1 dz1^1"
    rep = base_locus_scan(fam, [psi], 5)
    assert rep["op"] == "base-locus"
    assert rep["points"] == 3
    assert rep["directions"] == 3
    assert rep["base_count"] == 0 and rep["base_pairs"] == []
    assert rep["fiber_counts"] == {}
    assert rep["ok"] and rep["singular_tangent"] == []


@pytest.mark.parametrize("q, base_count", [(3, 1), (7, 2)])
def test_base_locus_of_a_rational_family_vanishes_mod_q(q, base_count):
    fam = build_sections(ProblemShape(2, 1, 0), "general_fermat", field=QQ,
                         lambdas=(2, 2, 2), degrees=(3,), seed=0)
    forms = standard_forms(fam)
    rep = base_locus_scan(fam, forms, q)
    assert rep["base_count"] == base_count
    expanded = [expand_form(f) for f in forms]
    for pair in rep["base_pairs"]:
        assert all(G.evaluate_mod(pair["z"], pair["xi"], q) == 0 for G in expanded)


def test_base_locus_matches_inline_enumeration():
    fam = unit_line_family(field=F5)
    # independently enumerate the all-nonzero line points and their directions,
    # then scan with a form that vanishes exactly when z_1 = z_2
    expected = []
    for t1 in range(1, 5):
        for t2 in range(1, 5):
            z = (1, t1, t2)
            if (1 + t1 + t2) % 5:
                continue
            for xi in tangent_directions(z, [(1, 1, 1)], 5):
                if (z[1] - z[2]) % 5 == 0:
                    expected.append({"z": list(z), "xi": list(xi)})
    stub = ConstantForm(lambda z, xi: (z[1] - z[2]) % 5)
    rep = base_locus_scan(fam, [stub], 5)
    assert rep["base_pairs"] == expected
    assert rep["base_count"] == len(expected) > 0
    assert sum(rep["fiber_counts"].values()) == rep["base_count"]


def test_base_locus_nonvanishing_form_and_no_forms():
    fam = unit_line_family(field=F5)
    rep = base_locus_scan(fam, [ConstantForm(lambda z, xi: 1)], 5)
    assert rep["base_count"] == 0
    # with no forms imposed every scanned pair is a base pair
    rep_all = base_locus_scan(fam, [], 5)
    assert rep_all["base_count"] == rep_all["directions"] == 3


def test_base_locus_hidden_coordinates():
    fam = mcm_family(1, shape=ProblemShape(4, 2, 0))
    rep = base_locus_scan(fam, [], 5, vanished=(0,))
    assert rep["ok"]
    for pair in rep["base_pairs"]:
        assert pair["z"][0] == 0
        assert all(pair["z"][i] for i in range(1, 5))
        assert pair["xi"][0] == 0
    assert rep["base_count"] == rep["directions"]


def test_scans_compile_each_polynomial_set_once(compiled_plans):
    # one plan per set of polynomials, however many points are visited
    fam = unit_line_family(field=F5)
    psi = line_psi(fam)
    assert base_locus_scan(fam, [psi], 5)["directions"] == 3
    assert compiled_plans == [3, 1, 4]  # gradients, sections, psi's divided matrix
    base_locus_scan(fam, [psi], 5)
    assert compiled_plans == [3, 1, 4, 3, 1]  # psi keeps its plan
    del compiled_plans[:]
    assert smoothness_check(mcm_family(11), 5)["points"] > 0
    assert compiled_plans == [3 * 5, 3]  # gradients, sections
    del compiled_plans[:]
    rep = characterization_crosscheck(mcm_family(1), 5, sample=39_936)
    assert rep["incidence_pairs"] == 1
    # the base-locus walk: gradients (3 x 5), sections; at the one incidence
    # pair the matrix (6 x 10) and the divided matrix (6 x 4) of the first
    # standard form, which does not vanish there
    assert compiled_plans == [15, 3, 60, 24]
    del compiled_plans[:]
    f = from_literal("1 * z0^1 + 1 * z1^1", N=2, field=F3)
    g = from_literal("1 * z1^1 + 2 * z2^1", N=2, field=F3)
    assert verify_product_decomposition([[f, g]], ProblemShape(2, 1, 0), 3)["ok"]
    assert compiled_plans == [3, 3]  # f, g, fg at a point; d(fg), df, dg along a direction


@pytest.fixture
def evaluation_calls(monkeypatch):
    """Counts EvalPlan.at_points and EvalPlan.__call__ calls; a one-point
    call goes through at_points and counts there too."""
    calls = {"at_points": 0, "__call__": 0}
    real_at, real_call = EvalPlan.at_points, EvalPlan.__call__

    def at_points(self, points):
        calls["at_points"] += 1
        return real_at(self, points)

    def call(self, z_vals, dz_vals):
        calls["__call__"] += 1
        return real_call(self, z_vals, dz_vals)

    monkeypatch.setattr(EvalPlan, "at_points", at_points)
    monkeypatch.setattr(EvalPlan, "__call__", call)
    return calls


def test_scans_evaluate_all_their_points_in_one_call(evaluation_calls):
    # the call count is fixed by the scan, not by the points it visits
    counts = set()
    for seed in (1, 3, 11):
        fam = mcm_family(seed)
        evaluation_calls.update({"at_points": 0, "__call__": 0})
        counts.add(smoothness_check(fam, 5)["points"])
        assert evaluation_calls == {"at_points": 2, "__call__": 0}  # sections, gradients
        evaluation_calls.update({"at_points": 0, "__call__": 0})
        assert points_on_X(fam, 5)
        assert evaluation_calls == {"at_points": 1, "__call__": 0}
    assert counts == {6, 3, 10}
    rng = random.Random(5)
    factors = [[random_homogeneous(3, 2, F3, rng) for _ in range(2)] for _ in range(2)]
    evaluation_calls.update({"at_points": 0, "__call__": 0})
    rep = verify_product_decomposition(factors, ProblemShape(3, 2, 0), 3)
    assert rep["pairs"] == 40 * 13
    assert evaluation_calls == {"at_points": 2, "__call__": 0}  # at points, along pairs


@pytest.mark.parametrize("vanished, message", [
    ((9,), r"vanished \[9\] has coordinates outside 0\.\.4"),
    ((-1,), r"vanished \[-1\] has coordinates outside 0\.\.4"),
    ((0, 1), r"2 vanished coordinates exceed N - c = 1"),
])
def test_base_locus_refuses_bad_vanished_coordinates(vanished, message):
    # each used to report: (9,) and (-1,) a bogus singular tangent at
    # z = [1, 1, 1, 3, 2], (0, 1) ok on 0 points with a float expected count
    fam = mcm_family(1)
    with pytest.raises(ValueError, match=message):
        base_locus_scan(fam, [], 5, vanished=vanished)
    assert base_locus_scan(fam, [], 5, vanished=(0,))["ok"]


def test_points_on_X_refuses_a_support_outside_the_coordinates():
    fam = mcm_family(1)
    assert points_on_X(fam, 5, support=[0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match=r"support \[0, 1, 2, 3, 9\] has coordinates outside 0\.\.4"):
        points_on_X(fam, 5, support=[0, 1, 2, 3, 9])


# ----- characterization crosscheck -----


def test_crosscheck_full_space_agrees():
    rep = characterization_crosscheck(mcm_family(1), 5, sample=39_936)
    assert rep["op"] == "crosscheck"
    assert rep["total_pairs"] == 39_936  # 4^4 points x 156 directions
    assert rep["samples"] == 39_936
    assert rep["incidence_pairs"] == 1
    assert rep["agree"] == rep["samples"] and rep["rate"] == 1.0
    assert rep["member_not_vanish"] == 0
    assert rep["disagreements"] == []
    assert rep["ok"]


def test_crosscheck_sampled():
    rep = characterization_crosscheck(mcm_family(2), 5, sample=2000, seed=0)
    assert rep["samples"] == 2000
    assert rep["agree"] == 2000
    assert rep["ok"]


def test_crosscheck_rejects_non_mcm():
    with pytest.raises(ValueError, match="mcm"):
        characterization_crosscheck(unit_line_family(field=F5), 5)


def test_crosscheck_rejects_a_family_over_another_field():
    with pytest.raises(ValueError, match="F_5, not F_7"):
        characterization_crosscheck(mcm_family(1), 7, sample=10)


def test_crosscheck_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="at least 1"):
        characterization_crosscheck(mcm_family(1), 5, sample=0)


def test_scans_reject_a_q_that_is_not_prime():
    # a rational family can be scanned mod any prime, and only mod a prime
    shape = ProblemShape(2, 1, 0)
    fermat = build_sections(shape, "general_fermat", field=QQ, lambdas=(2, 2, 2),
                            degrees=(3,), seed=0)
    mcm = build_sections(shape, "mcm", field=QQ, schedule=build_schedule(shape, heart=2),
                         seed=0)
    f = from_literal("1 * z0^1 + 1 * z1^1", N=2)
    scans = [
        lambda q: proj_points(2, q),
        lambda q: tangent_directions((1, 1, 3), [(1, 1, 1)], q),
        lambda q: smoothness_check(fermat, q),
        lambda q: base_locus_scan(fermat, standard_forms(fermat), q),
        lambda q: characterization_crosscheck(mcm, q),
        lambda q: verify_product_decomposition([[f, f]], shape, q),
    ]
    for scan in scans:
        scan(3)
        for q in (4, 9):
            with pytest.raises(ValueError, match="prime"):
                scan(q)


def numeric_selected_columns(fam, Mnum, z, kind, params, q):
    """Columns of the K_nu / K_tau_rho combination of a numeric matrix,
    divided by the declared coordinate powers (all z_i != 0): the numeric
    copy of the forms the crosscheck evaluated before it read the
    program's forms, kept as the reference."""
    N = fam.shape.N
    layout = column_layout(kind, tuple(params), N)
    A = [[row[j] for row in Mnum] for j in range(N + 1)]
    B = [[row[N + 1 + j] for row in Mnum] for j in range(N + 1)]
    combined = _combine_columns(layout, A, B,
                                lambda x, y: [(u + v) % q for u, v in zip(x, y)])
    cols = []
    for col, vec in zip(layout, combined):
        e = divisor_exponent(col, fam.schedule, N)
        inv = pow(z[col.a], (e - 1) * (q - 2), q)
        cols.append([(x * inv) % q for x in vec])
    return cols


def numeric_form_values(fam, Mnum, z, q):
    """Every divided determinant (each K_nu and K_tau_rho layout, each
    differential row, column 0 omitted) of the numeric matrix, in
    standard_forms order."""
    N, c, cr = fam.shape.N, fam.shape.c, fam.shape.c + fam.shape.r
    out = []
    for kind, params, _ in selection_layouts(N):
        cols = numeric_selected_columns(fam, Mnum, z, kind, params, q)
        for j in range(1, c + 1):
            rows = list(range(cr)) + [cr + j - 1]
            out.append(det_mod_p([[cols[jc][ri] for jc in range(1, N + 1)] for ri in rows], q))
    return out


def reference_crosscheck(fam, q, sample, seed=0):
    """The crosscheck as it was before it shared the base-locus walk: every
    sampled ambient pair visited in index order, incidence tested by hand,
    and the numeric forms above. The reference for characterization_crosscheck."""
    N, c = fam.shape.N, fam.shape.c
    K = build_matrices(fam)
    zero = [0] * (N + 1)
    zs = [(1,) + tail for tail in product(range(1, q), repeat=N)]
    dirs = [(0,) + pt for pt in proj_points(N - 1, q)]
    total = len(zs) * len(dirs)
    take = min(sample, total)
    rng = child_rng(seed, "crosscheck", 0)
    chosen = sorted(rng.sample(range(total), take)) if take < total else range(total)
    grads = {}

    def gradients(zi):  # None off X, else the gradients of F_1..F_c at z
        if zi not in grads:
            z = list(zs[zi])
            on_X = all(F.evaluate_mod(z, zero, q) == 0 for F in fam.sections)
            grads[zi] = [[deriv(F, j).evaluate_mod(z, zero, q) for j in range(N + 1)]
                         for F in fam.sections[:c]] if on_X else None
        return grads[zi]

    agree = incidence = 0
    tally = {"vanish_and_member": 0, "vanish_not_member": 0, "member_not_vanish": 0}
    disagreements = []
    for idx in chosen:
        zi, di = divmod(idx, len(dirs))
        z, xi = list(zs[zi]), list(dirs[di])
        grad = gradients(zi)
        if grad is None or any(sum(g * x for g, x in zip(row, xi)) % q for row in grad):
            agree += 1
            continue
        incidence += 1
        Mnum = [[e.evaluate_mod(z, xi, q) for e in row] for row in K.entries]
        member = membership_M_ab(RankConditionMatrix(tuple(map(tuple, Mnum)), q))
        vanish = not any(numeric_form_values(fam, Mnum, z, q))
        if vanish and member:
            tally["vanish_and_member"] += 1
        elif vanish:
            tally["vanish_not_member"] += 1
        elif member:
            tally["member_not_vanish"] += 1
        if vanish == member:
            agree += 1
        elif len(disagreements) < 10:
            disagreements.append({"z": z, "xi": xi, "vanish": vanish, "member": member})
    return {"op": "crosscheck", "q": q, "samples": take, "total_pairs": total,
            "incidence_pairs": incidence, "agree": agree, "rate": agree / take,
            **tally, "disagreements": disagreements,
            "ok": tally["member_not_vanish"] == 0}


@pytest.mark.parametrize("shape_t, seed, sample, sample_seed", [
    *(((2, 1, 0), s, 96, 0) for s in range(6)),
    ((3, 1, 1), 0, 1984, 0),
    ((3, 1, 1), 0, 500, 3),
    ((4, 3, 0), 1, 10_000, 0),
])
def test_crosscheck_matches_the_ambient_reference(shape_t, seed, sample, sample_seed):
    fam = mcm_family(seed, shape=ProblemShape(*shape_t))
    rep = characterization_crosscheck(fam, 5, sample=sample, seed=sample_seed)
    assert rep == reference_crosscheck(fam, 5, sample, sample_seed)
    if shape_t == (2, 1, 0) and seed == 4:
        # both branches: a member pair that vanishes, and non-members
        assert rep["incidence_pairs"] == 7 and rep["vanish_and_member"] == 1


def test_crosscheck_reads_the_programs_forms(monkeypatch):
    # with every form of the program forced to vanish, each non-member
    # incidence pair becomes a vanish-not-member disagreement
    fam = mcm_family(4, shape=ProblemShape(2, 1, 0))
    honest = characterization_crosscheck(fam, 5, sample=96)
    monkeypatch.setattr(FormBundle, "evaluate_at", lambda self, z, dz, q: 0)
    rep = characterization_crosscheck(fam, 5, sample=96)
    members = honest["vanish_and_member"] + honest["member_not_vanish"]
    assert rep["vanish_not_member"] == rep["incidence_pairs"] - members == 6
    assert rep["vanish_and_member"] == members == 1


def test_crosscheck_refuses_an_n_2_family_up_front():
    # refused before sampling: a sample that meets no incidence pair must
    # not report ok
    fam = mcm_family(1, shape=ProblemShape(4, 2, 0))
    with pytest.raises(ValueError, match="n = 1"):
        characterization_crosscheck(fam, 5, sample=100)


def test_scans_that_only_evaluate_forms_expand_no_determinant(monkeypatch):
    # the scans and the stages that run them form no polynomial product;
    # an exact transition unit forms only the products z_k * [dz_k]D of
    # its certificate, at most N + 1 per divided differential entry, and a
    # sampled one forms none
    from mcmforms.identity_verifier import verify_transition
    from mcmforms.pipeline import RunConfig, _transition_units, run_pipeline

    products = []
    real = MultiPoly.__mul__

    def count(a, b):
        products.append((a.term_count(), b.term_count()))
        return real(a, b)

    fam = mcm_family(4, shape=ProblemShape(2, 1, 0))
    monkeypatch.setattr(MultiPoly, "__mul__", count)
    forms = standard_forms(fam)
    assert characterization_crosscheck(fam, 5, sample=96)["incidence_pairs"] == 7
    assert base_locus_scan(fam, forms, 5)["directions"] == 7
    stages = run_pipeline(RunConfig(stages=("base-locus", "crosscheck")))["stages"]
    assert [stages[s]["status"] for s in ("base-locus", "crosscheck")] == ["PASS", "PASS"]
    assert stages["base-locus"]["report"]["forms"] == 45
    assert products == []
    N = fam.shape.N
    for u in _transition_units(fam):
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode="exact", which=u["which"], kind=u["kind"])
        assert rep["ok"] and rep["mode"] == "exact"
        # n = 1 differential row of N entries (one column omitted)
        assert 0 < len(products) <= (N + 1) * N
        assert all(1 in pair for pair in products)
        products.clear()
        rep = verify_transition(fam, u["selection"], u["omit"], u["l1"], u["l2"],
                                mode="probabilistic", which=u["which"], kind=u["kind"])
        assert rep["ok"] and rep["mode"] == "probabilistic"
        assert products == []


def test_membership_forces_numeric_vanishing():
    # a member matrix (alphas zero, betas proportional) makes every divided
    # determinant of the reference vanish at an all-ones point; a generic
    # matrix does not
    fam = mcm_family(1)
    v = [1, 2, 3, 4, 0, 1]
    Mnum = [[0] * 5 + [v[i]] * 5 for i in range(6)]
    M = RankConditionMatrix(tuple(tuple(r) for r in Mnum), 5)
    assert membership_M_ab(M)
    z = [1, 1, 1, 1, 1]
    assert not any(numeric_form_values(fam, Mnum, z, 5))

    rng = random.Random(9)
    noise = [[rng.randrange(5) for _ in range(10)] for _ in range(6)]
    assert not membership_M_ab(RankConditionMatrix(tuple(tuple(r) for r in noise), 5))
    assert any(numeric_form_values(fam, noise, z, 5))


@pytest.mark.parametrize("shape_t", [(3, 2, 0), (4, 3, 0), (3, 1, 1)])
def test_numeric_and_symbolic_layouts_agree(shape_t):
    # every divided determinant of the reference's numeric layouts equals
    # the program's standard form evaluated at the same all-nonzero point
    shape = ProblemShape(*shape_t)
    fam = mcm_family(7, shape=shape)
    K = build_matrices(fam)
    forms = standard_forms(fam)
    q, N = 5, shape.N
    rng = random.Random(f"layouts:{shape_t}")
    nonzero = 0
    for _ in range(5):
        z = [rng.randrange(1, q) for _ in range(N + 1)]
        xi = [rng.randrange(q) for _ in range(N + 1)]
        Mnum = [[e.evaluate_mod(z, xi, q) for e in row] for row in K.entries]
        want = numeric_form_values(fam, Mnum, z, q)
        assert [f.evaluate_at(z, xi, q) for f in forms] == want
        nonzero += sum(map(bool, want))
    per_point = {(3, 2, 0): 10 * 2, (4, 3, 0): 15 * 3, (3, 1, 1): 10 * 1}
    assert len(forms) == per_point[shape_t]
    assert nonzero > 0
