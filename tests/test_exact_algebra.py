import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import det
from substitution_oracle import chart_images, substitute_dz

from mcmforms.exact_algebra import (
    DivisibilityError,
    EvalPlan,
    Field,
    MultiPoly,
    ParseError,
    QQ,
    deriv,
    det_mod_p,
    divide_exact,
    from_literal,
    times_monomial,
    to_literal,
    total_differential,
    z_power,
)
from mcmforms import exact_algebra
from mcmforms.util import child_rng, chunks

F7 = Field(7)
# 2**31 - 1, the largest prime EvalPlan accepts as a modulus
P31 = 2147483647


def rand_poly(rng, N, field, max_terms=5, max_deg=3, with_dz=True):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = [0] * (2 * (N + 1))
        for _ in range(rng.randrange(0, max_deg + 1)):
            exp[rng.randrange(N + 1)] += 1
        if with_dz:
            for _ in range(rng.randrange(0, 3)):
                exp[N + 1 + rng.randrange(N + 1)] += 1
        coeff = field.rand_elt(rng)
        if coeff != 0:
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return MultiPoly(N, field, terms)


def field_add(fld, a, b):
    """a + b in the field: reduced mod p, or exact over Q."""
    return (a + b) % fld.p if fld.p else a + b


def tuple_mul(a, b):
    """A product loop that sums with Field.coerce and field_add, term by
    term: the reference for MultiPoly.__mul__, which reduces once per
    result."""
    fld = a.field
    out = {}
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for e1, c1 in small.items():
        for e2, c2 in big.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            c = fld.coerce(c1 * c2)
            prev = out.get(exp)
            if prev is None:
                out[exp] = c
            else:
                s = field_add(fld, prev, c)
                if s == 0:
                    del out[exp]
                else:
                    out[exp] = s
    res = MultiPoly(a.N, fld)
    res.terms = out
    return res


def term_evaluate_mod(p, z_vals, dz_vals, modulus):
    """The per-term loop MultiPoly.evaluate_mod ran before EvalPlan: one pow
    per exponent of every term, one modular inverse per Q coefficient. The
    reference for the compiled kernel."""
    n1 = p.N + 1
    total = 0
    for exp, c in p.terms.items():
        if isinstance(c, Fraction):
            den = c.denominator % modulus
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod the test prime")
            cv = (c.numerator % modulus) * pow(den, modulus - 2, modulus) % modulus
        else:
            cv = c % modulus
        val = cv
        for k in range(n1):
            if exp[k]:
                val = (val * pow(z_vals[k] % modulus, exp[k], modulus)) % modulus
            if exp[n1 + k]:
                val = (val * pow(dz_vals[k] % modulus, exp[n1 + k], modulus)) % modulus
        total = (total + val) % modulus
    return total


def brute_det(rows):
    """Permutation expansion on tuple_mul, summed with field_add."""
    n = len(rows)
    sample = rows[0][0]
    fld = sample.field
    acc = {}
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        piece = MultiPoly.const(sample.N, sign, fld)
        for i in range(n):
            piece = tuple_mul(piece, rows[i][perm[i]])
        for exp, c in piece.terms.items():
            acc[exp] = field_add(fld, acc[exp], c) if exp in acc else c
    return MultiPoly(sample.N, fld, acc)


def same_poly(p, q):
    """Equal terms, and coefficients of the same type (Fraction over Q)."""
    return p == q and all(type(p.terms[e]) is type(c) for e, c in q.terms.items())


# ----- ring arithmetic -----


def test_difference_of_squares():
    z0 = MultiPoly.z(2, 0)
    z1 = MultiPoly.z(2, 1)
    assert (z0 + z1) * (z0 - z1) == z0 * z0 - z1 * z1


def test_zero_polynomial_is_empty_dict():
    z0 = MultiPoly.z(1, 0)
    p = z0 - z0
    assert p.is_zero() and p.terms == {}
    assert p.bidegree() is None


def test_mod_p_coefficients_wrap():
    p = MultiPoly.const(1, 5, F7) + MultiPoly.const(1, 4, F7)
    assert p.terms == {(0, 0, 0, 0): 2}
    q = MultiPoly.z(1, 0, F7).scale(3) * MultiPoly.z(1, 0, F7).scale(5)
    assert list(q.terms.values()) == [1]  # 15 mod 7


def test_power_by_squaring():
    p = MultiPoly.z(1, 0) + MultiPoly.z(1, 1)
    assert p**0 == MultiPoly.const(1, 1)
    assert p**3 == p * p * p


def test_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Field(15)
    with pytest.raises(ValueError):
        Field(2**31)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_ring_axioms_on_constants_and_variables(a, b, c):
    N = 2
    p = MultiPoly.z(N, 0).scale(a) + MultiPoly.const(N, b)
    q = MultiPoly.z(N, 1).scale(c) + from_literal("dz2", N)
    r = MultiPoly.z(N, 2) * from_literal("dz0", N)
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


# ----- grading -----


def test_bidegree_of_monomial():
    m = MultiPoly.monomial(2, QQ, 3, [2, 1, 0], [0, 0, 1])
    assert m.bidegree() == (3, 1)
    assert m.z_degree() == 3 and m.dz_degree() == 1


def test_inhomogeneous_bidegree_raises():
    p = MultiPoly.z(1, 0) + MultiPoly.const(1, 1)
    with pytest.raises(ValueError):
        p.bidegree()


def test_grading_errors_list_every_distinct_degree_once():
    # two terms share bidegree (2, 1): each distinct value is listed once, sorted
    p = sum((MultiPoly.monomial(1, QQ, 1, z, dz) for z, dz in
             (([2, 0], [0, 1]), ([1, 1], [1, 0]), ([0, 1], [1, 1]), ([3, 0], [0, 0]))),
            MultiPoly.zero(1, QQ))
    for grading, message in (
            (p.bidegree, "not bihomogeneous: bidegrees [(1, 2), (2, 1), (3, 0)]"),
            (p.z_degree, "not z-homogeneous: degrees [1, 2, 3]"),
            (p.dz_degree, "not dz-homogeneous: degrees [0, 1, 2]")):
        with pytest.raises(ValueError) as info:
            grading()
        assert str(info.value) == message


# ----- literals -----


def test_literal_examples():
    p = MultiPoly.monomial(2, QQ, Fraction(3, 2), [2, 0, 0], [0, 1, 0])
    assert to_literal(p) == "3/2 * z0^2 dz1^1"
    q = MultiPoly.z(2, 0) - MultiPoly.z(2, 1)
    assert to_literal(q) == "1 * z0^1 + -1 * z1^1"
    assert to_literal(MultiPoly.zero(2)) == "0"
    assert to_literal(MultiPoly.const(2, Fraction(-1, 3))) == "-1/3"


def test_literal_round_trip_is_byte_exact():
    rng = random.Random(7)
    for field in (QQ, F7):
        for _ in range(50):
            p = rand_poly(rng, 3, field)
            s = to_literal(p)
            assert from_literal(s, 3, field) == p
            assert to_literal(from_literal(s, 3, field)) == s


def test_lenient_parsing():
    assert from_literal("z0", 2) == MultiPoly.z(2, 0)
    assert from_literal("2*z1^2 * dz0", 2) == MultiPoly.monomial(2, QQ, 2, [0, 2, 0], [1, 0, 0])
    assert from_literal("-z0 + z1", 2) == MultiPoly.z(2, 1) - MultiPoly.z(2, 0)


def test_parse_errors_name_the_token():
    with pytest.raises(ParseError) as info:
        from_literal("2 * w0^1", 2)
    assert "w0" in str(info.value)
    with pytest.raises(ParseError):
        from_literal("z5", 2)
    with pytest.raises(ParseError):
        from_literal("", 2)


@pytest.mark.parametrize("literal, token", [("1/0*z0", "1/0"), ("z1 + -3/0 * dz2", "-3/0"),
                                            ("0/0", "0/0")])
def test_a_zero_denominator_is_a_parse_error(literal, token):
    # a refusal (ValueError) that names the token, never a ZeroDivisionError
    with pytest.raises(ParseError, match="zero denominator") as info:
        from_literal(literal, 2, Field(5))
    assert info.value.token == token and isinstance(info.value, ValueError)
    assert from_literal("1/2*z0", 2, Field(5)) == MultiPoly.z(2, 0, Field(5)).scale(3)


def test_canonical_order_is_graded_lex_descending():
    # z1^2 (degree 2) before z0 dz... same-degree terms compared lexicographically
    p = from_literal("1 * z0^1 + 1 * z1^2 + 1 * z0^1 dz0^1", 1)
    assert to_literal(p) == "1 * z0^1 dz0^1 + 1 * z1^2 + 1 * z0^1"


# ----- calculus -----


def test_total_differential_example():
    p = from_literal("z0^2 z1^1", 1)
    assert total_differential(p) == from_literal("2 * z0^1 z1^1 dz0^1 + 1 * z0^2 dz1^1", 1)


def test_total_differential_leibniz_random_pairs():
    rng = random.Random(11)
    for deg in range(1, 5):
        for _ in range(100):
            N = rng.randrange(1, 6)
            field = QQ if rng.random() < 0.5 else F7
            p = rand_poly(rng, N, field, max_deg=deg, with_dz=False)
            q = rand_poly(rng, N, field, max_deg=deg, with_dz=False)
            assert total_differential(p * q) == p * total_differential(q) + q * total_differential(p)


def test_differential_drops_terms_killed_by_characteristic():
    p = MultiPoly.z(1, 0, F7, power=7)
    assert total_differential(p).is_zero()


def test_euler_relation():
    rng = random.Random(3)
    for _ in range(20):
        N = rng.randrange(1, 4)
        deg = rng.randrange(1, 5)
        terms = {}
        for _ in range(4):
            exp = [0] * (2 * (N + 1))
            for _ in range(deg):
                exp[rng.randrange(N + 1)] += 1
            terms[tuple(exp)] = Fraction(rng.randrange(1, 9))
        f = MultiPoly(N, QQ, terms)
        euler = substitute_dz(total_differential(f), [MultiPoly.z(N, k) for k in range(N + 1)])
        assert euler == f.scale(deg)
        # substituting w_l into df keeps z_l df and drops dz_l df(z, z)
        l = rng.randrange(N + 1)
        df = total_differential(f)
        assert MultiPoly.z(N, l) * df - substitute_dz(df, chart_images(N, QQ, l)) == \
            from_literal(f"dz{l}", N) * f.scale(deg)


def test_deriv_and_dz_components():
    f = from_literal("1 * z0^2 z1^1 + 2 * z2^3", 2)
    df = total_differential(f)
    # the dz_k component of df, read term by term, is the partial by z_k
    comps = {}
    for exp, c in df.terms.items():
        assert sum(exp[3:]) == 1
        comps.setdefault(exp[3:].index(1), {})[exp[:3] + (0, 0, 0)] = c
    for k in range(3):
        assert MultiPoly(2, QQ, comps.get(k, {})) == deriv(f, k)


# ----- monomial division -----


def test_divide_exact_examples():
    p = from_literal("2 * z0^3 z1^1 dz0^1 + 4 * z0^2", 1)
    q = divide_exact(p, z_power(1, 0, 2))
    assert q == from_literal("2 * z0^1 z1^1 dz0^1 + 4", 1)


def test_divide_exact_reports_offending_term():
    p = from_literal("1 * z0^2 + 1 * z1^1", 1)
    with pytest.raises(DivisibilityError) as info:
        divide_exact(p, z_power(1, 0, 1))
    assert info.value.term == (0, 1, 0, 0)


def test_divide_multiply_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        N = rng.randrange(1, 4)
        p = rand_poly(rng, N, QQ)
        mono = z_power(N, rng.randrange(N + 1), rng.randrange(1, 4))
        assert divide_exact(times_monomial(p, mono), mono) == p


# ----- substitutions -----


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_tangent_projection_matches_the_substitution(field):
    # linear in dz: p(z, w_l(dz)) is z_l * p - dz_l * p(z, z), the step the
    # exact transition certificate rests on, with p(z, z) = sum_k z_k [dz_k]p
    rng = random.Random(23)
    for _ in range(100):
        N = rng.randrange(1, 4)
        p = MultiPoly.zero(N, field)
        parts = []
        for k in range(N + 1):
            parts.append(rand_poly(rng, N, field, with_dz=False))
            p = p + parts[-1] * from_literal(f"dz{k}", N, field)
        if rng.random() < 0.2:
            p, parts = MultiPoly.zero(N, field), []
        at_z = sum((MultiPoly.z(N, k, field) * part for k, part in enumerate(parts)),
                   MultiPoly.zero(N, field))
        l = rng.randrange(N + 1)
        projected = MultiPoly.z(N, l, field) * p - from_literal(f"dz{l}", N, field) * at_z
        assert projected == substitute_dz(p, chart_images(N, field, l))


# ----- the determinant expansion is gone -----


def test_no_determinant_expansion_or_packed_kernel_is_left():
    # forms are evaluated at points and exact checks compare entries, so
    # nothing in the library expands a determinant or packs exponents
    gone = ("MinorTable", "tangent_projection", "identity_test", "AUTO_EXACT_TERM_LIMIT",
            "_SLOT_CODES", "_struct_for", "_slot_codec", "_max_degree", "_denominator_lcm",
            "_pack", "_product_into", "_reduce", "_unpack")
    assert [name for name in gone if hasattr(exact_algebra, name)] == []


# ----- determinants -----


def test_poly_det_matches_permutation_expansion():
    rng = random.Random(23)
    for n in (2, 3, 4):
        rows = [[rand_poly(rng, 2, QQ, max_terms=2, max_deg=2) for _ in range(n)] for _ in range(n)]
        assert det(rows) == brute_det(rows)


def test_poly_det_vanishes_on_repeated_rows():
    rng = random.Random(29)
    row = [rand_poly(rng, 2, QQ) for _ in range(3)]
    other = [rand_poly(rng, 2, QQ) for _ in range(3)]
    assert det([row, other, row]).is_zero()


# ----- products and determinants against field arithmetic -----

PROPERTY_FIELDS = (Field(2), Field(5), Field(P31), QQ)
# the largest exponent of 8-, 16- and 32-bit slots, and one past it: a
# product kernel on packed exponents would have to widen its slots there
SLOT_EDGES = (255, 256, 65535, 65536, 2**32 - 1, 2**32)


def _coefficients(field):
    if field.p:
        return st.integers(-field.p, 2 * field.p)
    return st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _polys(draw, field, N, max_terms=4):
    """Small exponents, and maybe one more term whose total degree is a slot
    edge, raised in one slot."""
    width = 2 * (N + 1)
    small = st.tuples(*[st.integers(0, 2)] * width)
    terms = draw(st.dictionaries(small, _coefficients(field), max_size=max_terms))
    edge = draw(st.sampled_from((0,) + SLOT_EDGES))
    if edge and terms:
        exp = list(draw(st.sampled_from(sorted(terms))))
        slot = draw(st.integers(0, width - 1))
        exp[slot] = max(0, edge - (sum(exp) - exp[slot]))
        terms[tuple(exp)] = draw(_coefficients(field))
    return MultiPoly(N, field, terms)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packed_product_matches_tuple_loop(data):
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    N = data.draw(st.integers(0, 2))
    a = data.draw(_polys(field, N))
    b = data.draw(_polys(field, N))
    assert same_poly(a * b, tuple_mul(a, b))


def test_rational_product_divides_once_and_cancels_exactly():
    # coprime denominators on both sides: the cross terms cancel to nothing
    # and each surviving coefficient comes back as a reduced Fraction
    z0, z1 = MultiPoly.z(1, 0), MultiPoly.z(1, 1)
    a = z0.scale(Fraction(1, 2)) + z1.scale(Fraction(1, 3))
    b = z0.scale(Fraction(1, 2)) - z1.scale(Fraction(1, 3))
    prod = a * b
    assert same_poly(prod, tuple_mul(a, b))
    assert prod.terms == {(2, 0, 0, 0): Fraction(1, 4), (0, 2, 0, 0): Fraction(-1, 9)}
    assert same_poly(a * MultiPoly.zero(1), MultiPoly.zero(1))
    c = MultiPoly.const(1, Fraction(6, 5)) * MultiPoly.const(1, Fraction(5, 6))
    assert same_poly(c, MultiPoly.const(1, 1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_determinant_matches_tuple_expansion(data):
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    N = data.draw(st.integers(0, 1))
    n = data.draw(st.integers(2, 4))
    rows = [[data.draw(_polys(field, N, max_terms=3)) for _ in range(n)] for _ in range(n)]
    assert same_poly(det(rows), brute_det(rows))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sum_negation_and_scaling_match_field_arithmetic(data):
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    a = data.draw(_polys(field, 1))
    b = data.draw(_polys(field, 1))
    k = field.coerce(data.draw(_coefficients(field)))
    total = dict(a.terms)
    for exp, c in b.terms.items():
        total[exp] = field_add(field, total[exp], c) if exp in total else c
    assert same_poly(a + b, MultiPoly(1, field, total))
    assert same_poly(-a, MultiPoly(1, field, {e: field.coerce(-c) for e, c in a.terms.items()}))
    assert same_poly(a.scale(k), MultiPoly(1, field, {e: field.coerce(c * k) for e, c in a.terms.items()}))


def field_transform(p, images):
    """Reference for the term-wise maps: each term's images (new exponent,
    coefficient), computed and summed with Field.coerce/field_add."""
    fld = p.field
    out = {}
    for exp, c in p.terms.items():
        for key, coeff in images(exp, c, fld):
            if coeff != 0:
                out[key] = field_add(fld, out[key], coeff) if key in out else coeff
    return MultiPoly(p.N, fld, out)


def _lowered(exp, k, raise_slot=None):
    new = list(exp)
    new[k] -= 1
    if raise_slot is not None:
        new[raise_slot] += 1
    return tuple(new)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_calculus_and_substitutions_match_field_arithmetic(data):
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    N = data.draw(st.integers(0, 2))
    n1 = N + 1
    p = data.draw(_polys(field, N, max_terms=6))
    j = data.draw(st.integers(0, N))
    assert same_poly(deriv(p, j), field_transform(
        p, lambda e, c, f: [(_lowered(e, j), f.coerce(c * e[j]))] if e[j] else []))
    assert same_poly(total_differential(p), field_transform(
        p, lambda e, c, f: [(_lowered(e, k, n1 + k), f.coerce(c * e[k]))
                            for k in range(n1) if e[k]]))


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
@pytest.mark.parametrize("edge", SLOT_EDGES)
def test_packed_kernel_at_slot_edges(edge, field):
    """Products and determinants of degree exactly 2**b - 1 and 2**b, in the
    lowest and the highest slot, stay exact."""
    N = 1
    for slot in (0, 2 * N + 1):
        high = [0] * (2 * (N + 1))
        high[slot] = edge - 1
        one = [0] * (2 * (N + 1))
        one[slot] = 1
        zero = (0,) * (2 * (N + 1))
        a = MultiPoly(N, field, {tuple(high): 3, zero: 1})
        b = MultiPoly(N, field, {tuple(one): 1, zero: Fraction(1, 2) if not field.p else 1})
        assert same_poly(a * b, tuple_mul(a, b))
        assert max(map(sum, (a * b).terms)) == edge
        assert same_poly(det([[a, b], [b, a]]), brute_det([[a, b], [b, a]]))


def test_products_past_64_bit_exponents_stay_exact():
    big = MultiPoly.z(1, 0, Field(5), power=2**63)
    almost = MultiPoly.z(1, 0, Field(5), power=2**63 - 1)
    one = MultiPoly.const(1, 1, Field(5))
    for a, b in ((big, almost), (big, big)):
        assert same_poly(a * b, tuple_mul(a, b))
    assert (big * big).terms == {(2**64, 0, 0, 0): 1}
    assert same_poly(det([[big, one], [one, big]]), brute_det([[big, one], [one, big]]))


def test_det_mod_p_agrees_with_poly_det_on_constants():
    rng = random.Random(31)
    p = 13
    fld = Field(p)
    for _ in range(10):
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        rows = [[MultiPoly.const(0, x, fld) for x in row] for row in m]
        sym = det(rows)
        val = 0 if sym.is_zero() else list(sym.terms.values())[0]
        assert val == det_mod_p(m, p)


def _cramer_identities(cols, weights, p):
    """First pair (j1, j2) of columns violating the omit-one-column identity
    (-1)^{j1} det(omit j1) w_{j2} == (-1)^{j2} det(omit j2) w_{j1} mod p,
    or None; cols lists the columns of a rows x (rows + 1) matrix."""
    n1 = len(cols)
    dets = []
    for omit in range(n1):
        kept = [col for j, col in enumerate(cols) if j != omit]
        dets.append(det_mod_p([list(row) for row in zip(*kept)], p) * (-1) ** omit % p)
    for j1 in range(n1):
        for j2 in range(j1 + 1, n1):
            if dets[j1] * weights[j2] % p != dets[j2] * weights[j1] % p:
                return j1, j2
    return None


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_det_mod_p_satisfies_the_cramer_identities(rows):
    # rows x (rows + 1) matrices whose weighted columns sum to zero: the
    # zero matrix, unit weights (column sums zero) and random nonzero
    # weights, column 0 solved from the others
    p = 101
    n1 = rows + 1
    assert _cramer_identities([[0] * rows for _ in range(n1)], [1] * n1, p) is None
    for case in ("column-sum zero", "weighted"):
        for t in range(100):
            rng = child_rng(rows, f"cramer:{case}", t)
            cols = [[rng.randrange(p) for _ in range(rows)] for _ in range(n1)]
            weights = [1] * n1 if case == "column-sum zero" else \
                [rng.randrange(1, p) for _ in range(n1)]
            inv0 = pow(weights[0], p - 2, p)
            cols[0] = [-sum(cols[j][i] * weights[j] for j in range(1, n1)) * inv0 % p
                       for i in range(rows)]
            assert _cramer_identities(cols, weights, p) is None, (case, t, cols, weights)
    # columns that do not sum to zero violate the identities
    assert _cramer_identities([[1, 0], [0, 1], [1, 1]], [1, 1, 1], p) is not None


# ----- the determinant oracle and the Laplace identity -----


@st.composite
def _matrices(draw, field, N, nrows, ncols):
    """Entries of up to 3 terms, often zero; maybe a row repeated or
    scaled into another, so that square minors on both rows vanish."""
    rows = [[draw(_polys(field, N, max_terms=3)) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(nrows)))[:2]
        k = field.coerce(draw(st.sampled_from((1, -1, 2, 3))))
        rows[dst] = [e.scale(k) for e in rows[src]]
    return rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_poly_det_matches_the_cofactor_loop(data):
    # the memoised cofactor oracle against the permutation expansion, also
    # on 1 x 1 matrices and on matrices with a repeated or scaled row
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    N = data.draw(st.integers(0, 1))
    n = data.draw(st.integers(1, 4))
    rows = data.draw(_matrices(field, N, n, n))
    assert same_poly(det(rows), brute_det(rows))


def gluing_identity(nrows, ncols, j1, j2):
    """The gluing identity psi_{j1} - psi_{j2} == sum_i G_i * Cof_i of an
    nrows x ncols matrix M (ncols == nrows + 1), as terms (sign, i, rows,
    cols): sign times the sum G_i of row i (1 for i None) times the minor
    on (rows, cols).

    psi_j is (-1)^j det(M without column j). For j1 < j2 the certificate is
    (-1)^{j1} times the determinant of M with column j1 removed and column
    j2 replaced by the row sums G_i; expanding along that column gives
    sum_i (-1)^{i + j2 - 1} G_i * minor_i with minor_i the doubly-omitted
    (columns j1, j2, row i) determinant. Swapping j1 > j2 negates. This is
    the Laplace expansion, true of every matrix. Returns (difference,
    certificate). Needs j1 != j2.
    """
    def without(n, *drop):
        return tuple(k for k in range(n) if k not in drop)

    everything = tuple(range(nrows))
    difference = [((-1) ** j1, None, everything, without(ncols, j1)),
                  (-(-1) ** j2, None, everything, without(ncols, j2))]
    a, b = sorted((j1, j2))
    flip = -1 if (a % 2 == 1) != (j1 > j2) else 1
    certificate = [(flip if (i + b) % 2 else -flip, i, without(nrows, i), without(ncols, a, b))
                   for i in range(nrows)]
    return difference, certificate


def laplace_side(terms, minor, row_sum, zero):
    """The sum of sign * row_sum(i) * minor(rows, cols) over the terms of
    one side of gluing_identity (row_sum(None) is 1), from zero."""
    total = zero
    for sign, i, rows, cols in terms:
        piece = minor(rows, cols) if i is None else row_sum(i) * minor(rows, cols)
        total = total + piece if sign > 0 else total - piece
    return total


def polynomial_laplace_sides(M, j1, j2):
    """(difference, certificate) of gluing_identity on the polynomial matrix
    M, every minor expanded by the det oracle (the empty minor is 1)."""
    sample = M[0][0]
    one = MultiPoly.const(sample.N, 1, sample.field)

    def minor(rows, cols):
        return det([[M[r][c] for c in cols] for r in rows]) if rows else one

    def row_sum(i):
        return sum(M[i][1:], M[i][0])

    return tuple(laplace_side(side, minor, row_sum, MultiPoly.zero(sample.N, sample.field))
                 for side in gluing_identity(len(M), len(M[0]), j1, j2))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_det_oracle_and_det_mod_p_satisfy_the_laplace_gluing_identity(data):
    # psi_{j1} - psi_{j2} == sum_i G_i * Cof_i holds for every matrix, over
    # Q with fractional entries and over F_5, exactly from the det oracle
    # and at a point through det_mod_p
    field = data.draw(st.sampled_from((Field(5), QQ)), label="field")
    n = data.draw(st.integers(1, 4), label="rows")
    M = data.draw(_matrices(field, 1, n, n + 1))
    m = field.p or P31
    point = data.draw(st.lists(st.integers(0, m - 1), min_size=4, max_size=4))
    values = chunks(EvalPlan([e for row in M for e in row], m)(point[:2], point[2:]), n + 1)

    def minor_mod(rows, cols):
        return det_mod_p([[values[r][c] for c in cols] for r in rows], m)

    for j1, j2 in permutations(range(n + 1), 2):
        difference, certificate = polynomial_laplace_sides(M, j1, j2)
        assert same_poly(difference, certificate), (j1, j2)
        diff_mod, cert_mod = (laplace_side(side, minor_mod, lambda i: sum(values[i]), 0)
                              for side in gluing_identity(n, n + 1, j1, j2))
        assert (diff_mod - cert_mod) % m == 0, (j1, j2)


# ----- evaluation -----


def test_evaluate_exact_and_mod():
    p = from_literal("1 * z0^2 + 3 * z1^1 dz0^1", 1)
    assert p.evaluate([2, 5], [7, 0]) == Fraction(4 + 105)
    assert p.evaluate_mod([2, 5], [7, 0], 11) == (4 + 105) % 11


def test_evaluate_over_q_refuses_a_point_of_the_wrong_width():
    # extra coordinates were once ignored, and too few raised IndexError
    p = from_literal("z0*dz1 + 2*z2^2", 2)
    assert p.evaluate([1, 2, 3], [0, 1, 0]) == 19
    for z, dz in (([1, 2, 3, 9], [0, 1, 0, 9]), ([1, 2], [0, 1]), ([1, 2, 3], [0, 1])):
        with pytest.raises(ValueError, match="need 3 coordinates"):
            p.evaluate(z, dz)


def test_evaluate_handles_large_exponents_mod_p():
    p = MultiPoly.z(1, 0, Field(5), power=64845)
    assert p.evaluate([2, 1], [0, 0]) == pow(2, 64845, 5)


def _test_modulus(field):
    return field.p or P31


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_eval_plan_matches_the_per_term_loop(data):
    field = data.draw(st.sampled_from(PROPERTY_FIELDS))
    N = data.draw(st.integers(0, 2))
    polys = data.draw(st.lists(_polys(field, N), max_size=4))
    m = _test_modulus(field)
    residues = st.integers(-m, 2 * m)
    z = data.draw(st.lists(residues, min_size=N + 1, max_size=N + 1))
    dz = data.draw(st.lists(residues, min_size=N + 1, max_size=N + 1))
    want = [term_evaluate_mod(p, z, dz, m) for p in polys]
    assert EvalPlan(polys, m)(z, dz) == want
    assert [p.evaluate_mod(z, dz, m) for p in polys] == want
    if field.p:
        assert [p.evaluate(z, dz) for p in polys] == want


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
def test_eval_plan_on_zero_constant_and_high_degree_polynomials(field):
    N = 1
    m = _test_modulus(field)
    zero = MultiPoly.zero(N, field)
    const = MultiPoly.const(N, Fraction(3, 4) if not field.p else 3, field)
    # z1 and dz0 have exponent 0 in every term; z0 and dz1 reach 65536 and
    # more, z0 even past int64
    high = MultiPoly(N, field, {(65536, 0, 0, 1): 2, (70001, 0, 0, 2**20): 1,
                                (2**64 + 1, 0, 0, 1): 4, (0,) * 4: 5})
    point = ([3, 7], [11, 13])
    plan = EvalPlan([zero, const, high, zero], m)
    assert plan(*point) == [term_evaluate_mod(p, *point, m) for p in (zero, const, high, zero)]
    assert plan(*point)[:2] == [0, field.coerce(3) if field.p else 3 * pow(4, m - 2, m) % m]
    assert EvalPlan([], m)(*point) == []
    assert EvalPlan([zero], m)(*point) == [0]


def test_eval_plan_inverts_each_denominator_once():
    # shared numerators, shared and distinct denominators across two polynomials
    p = MultiPoly(1, QQ, {(k, 0, 0, 0): Fraction(1, k + 2) for k in range(6)})
    q = MultiPoly(1, QQ, {(0, k, 1, 0): Fraction(5, 2 * k + 3) for k in range(4)})
    point = ([3, 10], [4, 0])
    want = [term_evaluate_mod(f, *point, P31) for f in (p, q)]
    assert EvalPlan([p, q], P31)(*point) == want


def test_eval_plan_refusals():
    q_poly = MultiPoly(1, QQ, {(1, 0, 0, 0): Fraction(1, 7)})
    with pytest.raises(ZeroDivisionError):
        EvalPlan([q_poly], 7)
    with pytest.raises(ZeroDivisionError):
        EvalPlan([MultiPoly.const(1, Fraction(1, 2 * P31), QQ)], P31)
    with pytest.raises(ZeroDivisionError):
        q_poly.evaluate_mod([1, 1], [1, 1], 7)
    assert EvalPlan([q_poly], 5)([3, 0], [0, 0]) == [3 * pow(7, 3, 5) % 5]
    f5 = MultiPoly.z(1, 0, Field(5))
    with pytest.raises(ValueError, match="F_5, not F_7"):
        EvalPlan([f5], 7)
    with pytest.raises(ValueError, match="F_5, not F_7"):
        f5.evaluate_mod([1, 1], [0, 0], 7)
    with pytest.raises(ValueError, match="mixed"):
        EvalPlan([f5, MultiPoly.z(1, 0, QQ)], 5)
    for modulus in (2**31, 2**61 - 1, 1):
        with pytest.raises(ValueError, match="int64"):
            EvalPlan([MultiPoly.z(1, 0, QQ)], modulus)


def test_eval_plan_refuses_rows_of_the_wrong_width():
    # N = 2: a row (z | dz) has 6 entries; extra entries are refused, not
    # dropped, and missing ones are refused, not read as zero
    p = from_literal("z0 * dz1 + 2 * z2^2", 2, Field(5))
    plan = EvalPlan([p], 5)
    assert plan.at_points([[1, 2, 3, 0, 1, 0]]).tolist() == [[4]]
    for rows in ([[1, 2, 3, 0, 1, 0, 7, 7]], [[1, 2, 3, 0, 1]], [1, 2, 3, 0, 1, 0]):
        with pytest.raises(ValueError, match="need width 6"):
            plan.at_points(rows)
    # a zero polynomial fixes the width too; a plan of none reads any row
    with pytest.raises(ValueError, match="need width 6"):
        EvalPlan([MultiPoly.zero(2, Field(5))], 5).at_points([[1, 2]])
    assert EvalPlan([], 5).at_points([[1, 2]]).shape == (1, 0)


def test_eval_plan_refuses_a_z_and_a_dz_of_different_lengths():
    # ([1, 2, 3, 4], [0, 1]) has the width of a point of P^2 but is none
    p = from_literal("z0 * dz1 + 2 * z2^2", 2, Field(5))
    plan = EvalPlan([p], 5)
    assert plan([1, 2, 3], [0, 1, 0]) == [4]
    for z, dz in (([1, 2, 3, 4], [0, 1]), ([1, 2], [0, 1, 0])):
        with pytest.raises(ValueError, match=f"z has {len(z)} coordinates but dz has {len(dz)}"):
            plan(z, dz)
    with pytest.raises(ValueError, match="z has 4 coordinates but dz has 2"):
        p.evaluate_mod([1, 2, 3, 4], [0, 1], 5)


# ----- batched evaluation -----

BATCH_FIELDS = (Field(5), F7, QQ)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_at_points_rows_match_the_one_point_call(data):
    field = data.draw(st.sampled_from(BATCH_FIELDS))
    N = data.draw(st.integers(0, 2))
    polys = data.draw(st.lists(_polys(field, N), max_size=4))
    # a zero polynomial (an empty run of terms) first, in the middle or last
    at = data.draw(st.sampled_from((None, 0, len(polys) // 2, len(polys))))
    if at is not None:
        polys.insert(at, MultiPoly.zero(N, field))
    m = _test_modulus(field)
    residues = st.integers(-m, 2 * m) | st.sampled_from((0, 1, m - 1, m))
    points = data.draw(st.lists(st.lists(residues, min_size=2 * N + 2, max_size=2 * N + 2),
                                max_size=6))
    if points:
        points += data.draw(st.lists(st.sampled_from(points), max_size=3))  # repeated rows
    plan = EvalPlan(polys, m)
    values = plan.at_points(points)
    assert values.dtype == np.int64 and values.shape == (len(points), len(polys))
    for point, row in zip(points, values.tolist()):
        z, dz = point[:N + 1], point[N + 1:]
        assert row == plan(z, dz) == [p.evaluate_mod(z, dz, m) for p in polys]
        assert row == [term_evaluate_mod(p, z, dz, m) for p in polys]


@pytest.mark.parametrize("field", BATCH_FIELDS, ids=str)
def test_at_points_edge_cases(field, monkeypatch):
    m = _test_modulus(field)
    zero = MultiPoly.zero(1, field)
    half = Fraction(1, 2) if not field.p else 3
    mixed = MultiPoly(1, field, {(0, 0, 0, 0): 2, (2, 0, 0, 1): half, (0, 3, 1, 0): 1})
    polys = [zero, MultiPoly.z(1, 0, field), zero, mixed, zero]
    plan = EvalPlan(polys, m)
    # 0^0 = 1 under the constant term; coordinates negative, >= m and past int64
    points = [[0, 0, 0, 0], [-1, m + 2, 2 * m, -m], [0, 0, 0, 0], [3, 4, 5, 6],
              [2**70 + 1, -(2**65), 7, 0]]
    want = [[term_evaluate_mod(p, pt[:2], pt[2:], m) for p in polys] for pt in points]
    assert plan.at_points(points).tolist() == want
    assert want[0] == [0, 0, 0, 2, 0]
    assert EvalPlan([], m).at_points(points).shape == (5, 0)
    assert EvalPlan([zero, zero], m).at_points(points).tolist() == [[0, 0]] * 5
    assert plan.at_points([]).shape == (0, 5)
    # four terms in blocks of at most 8 entries: two rows a block, 20 blocks
    monkeypatch.setattr(exact_algebra, "EVAL_BLOCK", 8)
    many = [[k, k * k - 3, 2 * k + 1, m - k] for k in range(-10, 30)]
    assert plan.at_points(many).tolist() == [
        [term_evaluate_mod(p, pt[:2], pt[2:], m) for p in polys] for pt in many]


# moduli whose products of many factors need a reduction before the
# coefficient (7 past 24 slots, 5 past 30, 2**31 - 1 past 2) or none
WIDE_FIELDS = (Field(5), F7, Field(P31), QQ)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_at_points_defers_its_reductions_without_overflow(data):
    # up to 32 slots, most of them used by every term: at m = 5 and N <= 14
    # no monomial is reduced before its coefficient, at 7 and 2**31 - 1 the
    # kernel must reduce on the way
    field = data.draw(st.sampled_from(WIDE_FIELDS))
    N = data.draw(st.integers(0, 15))
    m = _test_modulus(field)
    exps = st.tuples(*[st.integers(0, 3)] * (2 * N + 2))
    polys = data.draw(st.lists(
        st.dictionaries(exps, _coefficients(field), max_size=3).map(
            lambda terms: MultiPoly(N, field, terms)), min_size=1, max_size=3))
    residues = st.integers(0, m - 1) | st.sampled_from((1, m - 1))
    points = data.draw(st.lists(st.lists(residues, min_size=2 * N + 2, max_size=2 * N + 2),
                                min_size=1, max_size=4))
    values = EvalPlan(polys, m).at_points(points).tolist()
    assert values == [[term_evaluate_mod(p, pt[:N + 1], pt[N + 1:], m) for p in polys]
                      for pt in points]


@pytest.mark.parametrize("N", [4, 15])
def test_at_points_at_the_int64_edge(N):
    # every coordinate m - 1 and every slot used, coefficient m - 1 too:
    # each unreduced product of three factors would pass 2**63
    m = P31
    width = 2 * N + 2
    polys = [MultiPoly(N, Field(P31), {(1,) * width: m - 1}),
             MultiPoly(N, Field(P31), {(2,) * width: m - 1, (3,) * width: m - 1})]
    edge = [m - 1] * width
    points = [edge, edge, [1] * width]
    want = [[term_evaluate_mod(p, pt[:N + 1], pt[N + 1:], m) for p in polys] for pt in points]
    # (-1)^(width + 1), and (-1)^(2 width + 1) + (-1)^(3 width + 1) at the edge
    assert want[0] == [m - 1, m - 2]
    assert EvalPlan(polys, m).at_points(points).tolist() == want
