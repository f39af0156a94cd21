"""Machine checks for the determinant identities behind the glued forms.

Four families of checks:

  verify_gluing        the chart-difference psi_{j_1} - psi_{j_2} equals an
                       explicit certificate sum_i G_i * Cof_i with G_i the
                       row sums (sections and their differentials) and Cof_i
                       signed doubly-omitted minors; exact polynomial
                       equality, no ideal-membership machinery.
  verify_transition    chart changes: the tangent substitution multiplies an
                       extracted form by z_l^(dz-degree), hence
                       z_{l_2}^n * G(w_{l_1}) == z_{l_1}^n * G(w_{l_2}),
                       with the transition exponent cross-checked against
                       the twist bookkeeping.
  verify_surjectivity  the (N+1) x dim evaluation matrix (value row plus N
                       tangent-derivative rows) of the degree-d monomial
                       basis has full rank at random points, optionally in
                       the Leibniz-premultiplied variant for a twist factor.
  verify_hidden        the gluing certificate and the twist formula on the
                       vanishing-coordinate restriction of a family, for
                       every K_nu / K_tau_rho selection of an mcm family.

The gluing and transition identities are each stated once: the gluing
identity as signs and index sets (_gluing_identity), the transition
identity generic over the element type (_transition_sides). Exact gluing
evaluates the identity on one packed MinorTable and compares packed terms;
probabilistic mode applies both identities to values mod p at the points
drawn by exact_algebra.sample_identity, the one Schwartz-Zippel loop. A
sampled transition evaluates G at the projected tangent w_l(dz) as the
determinant of its evaluated divided matrix (FormBundle.evaluate_at): it
never expands G nor builds the substituted polynomial.

Every check returns a report dict: {"op", "ok", "checks": [{"id", "mode",
"trials", "verdict", "witness"}, ...]} plus op-specific extras.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .exact_algebra import (
    AUTO_EXACT_TERM_LIMIT,
    EvalPlan,
    MinorTable,
    MultiPoly,
    PackedPoly,
    QQ,
    det_mod_p,
    identity_modulus,
    sample_identity,
    tangent_projection,
    times_monomial,
    to_literal,
    total_differential,
    z_power,
)
from .schedule import fermat_heart_prime, twist_ledger
from .section_builder import (
    DegreeClaimFailed,
    FormalMatrixBundle,
    SectionFamily,
    _check_selection,
    build_matrices,
    build_selected,
    extract_forms,
    selection_layouts,
)
from .util import child_rng, chunks, rank_mod_p


def _check(check_id: str, verdict: str, mode: str = "exact", trials: int = 0,
           witness: Optional[dict] = None) -> dict:
    return {"id": check_id, "mode": mode, "trials": trials,
            "verdict": verdict, "witness": witness}


def _report(op: str, checks: List[dict], **extra) -> dict:
    out = {"op": op, "ok": all(c["verdict"] != "fail" for c in checks),
           "checks": checks}
    out.update(extra)
    return out


def _characteristic_skip(fam: SectionFamily) -> Optional[dict]:
    """Record a skip when the coefficient characteristic divides a lambda."""
    p = fam.field.p
    if p and fam.lambdas and any(l % p == 0 for l in fam.lambdas):
        return _check("characteristic guard", "skip",
                      witness={"reason": f"char {p} divides a lambda exponent"})
    return None


# ----- gluing certificates -----


def _glue_matrix(K: FormalMatrixBundle, selection: Sequence[int], which: Optional[Tuple] = None
                 ) -> Tuple[FormalMatrixBundle, List[List[MultiPoly]]]:
    """Row-selected, undivided matrix of K, column-combined by `which`
    when given, and the bundle it was read from."""
    if which is not None:
        K = build_selected(K, which)
    if K.layout == "mcm":
        raise ValueError("full mcm bundles need a K_nu/K_tau_rho selection")
    shape = K.family.shape
    selection = _check_selection(shape, K.eta(), selection)
    cr = shape.c + shape.r
    row_ids = list(range(cr)) + [cr + j - 1 for j in selection]
    M = [[K.entries[rid][col] for col in range(K.ncols)] for rid in row_ids]
    return K, M


def _gluing_identity(nrows: int, ncols: int, j1: int, j2: int) -> Tuple[list, list]:
    """The gluing identity psi_{j1} - psi_{j2} == sum_i G_i * Cof_i of an
    nrows x ncols matrix M (ncols == nrows + 1), as signs and index sets.

    psi_j is (-1)^j det(M without column j). For j1 < j2 the certificate is
    (-1)^{j1} times the determinant of M with column j1 removed and column
    j2 replaced by the row sums G_i; expanding along that column gives
    sum_i (-1)^{i + j2 - 1} G_i * minor_i with minor_i the doubly-omitted
    (columns j1, j2, row i) determinant. Swapping j1 > j2 negates.
    Returns (difference, certificate): difference lists (sign, cols), the
    signed determinants on every row; certificate lists (sign, i, rows,
    cols), the terms sign * G_i * det(rows, cols). Needs j1 != j2.
    """
    def without(n: int, *drop: int) -> Tuple[int, ...]:
        return tuple(k for k in range(n) if k not in drop)

    difference = [((-1) ** j1, without(ncols, j1)), (-(-1) ** j2, without(ncols, j2))]
    a, b = sorted((j1, j2))
    flip = -1 if (a % 2 == 1) != (j1 > j2) else 1
    certificate = [(flip if (i + b) % 2 else -flip, i, without(nrows, i), without(ncols, a, b))
                   for i in range(nrows)]
    return difference, certificate


def _gluing_sides(M: Sequence[Sequence], j1: int, j2: int,
                  det: Callable) -> Tuple[object, object]:
    """Both sides of the gluing identity (_gluing_identity) of M, a matrix
    over any commutative ring: integers with det = det_mod_p at a point, or
    polynomials with det = poly_det."""
    def signed(sign: int, x):
        return x if sign > 0 else -x

    def total(xs: Sequence):
        return sum(xs[1:], xs[0])

    def minor(rows: Sequence[int], cols: Sequence[int]):
        return det([[M[r][c] for c in cols] for r in rows])

    difference, certificate = _gluing_identity(len(M), len(M[0]), j1, j2)
    everything = range(len(M))
    diff = total([signed(sign, minor(everything, cols)) for sign, cols in difference])
    return diff, total([signed(sign, total(M[i]) * minor(rows, cols))
                        for sign, i, rows, cols in certificate])


def _packed_gluing_sides(M: List[List[MultiPoly]], j1: int, j2: int
                         ) -> Tuple[PackedPoly, PackedPoly]:
    """Both sides of the gluing identity of a polynomial matrix, packed:
    psi_{j1}, psi_{j2} and the row-omitted minors share one MinorTable, and
    each side accumulates in one packed dict at the product of the row
    scales, so equal sides have equal terms."""
    table = MinorTable(M)
    difference, certificate = _gluing_identity(len(M), len(M[0]), j1, j2)
    everything = tuple(range(len(M)))
    return (table.combine([(sign, None, everything, cols) for sign, cols in difference]),
            table.combine(certificate))


def _certificate_check(check_id: str, M: List[List[MultiPoly]], j1: int, j2: int
                       ) -> Tuple[dict, PackedPoly]:
    """The exact gluing check of one chart pair, and its packed
    certificate; only a failing check unpacks, for its witness."""
    difference, certificate = _packed_gluing_sides(M, j1, j2)
    witness = None
    if difference.terms != certificate.terms:
        gap = difference.unpack() - certificate.unpack()
        witness = {"difference_minus_certificate": to_literal(gap)[:400]}
    return _check(check_id, "fail" if witness else "pass", witness=witness), certificate


def verify_gluing(fam: SectionFamily, selection: Sequence[int], j1: int, j2: int,
                  which: Optional[Tuple] = None, mode: str = "exact",
                  trials: int = 20, seed: int = 0) -> dict:
    """Certificate check psi_{j1} - psi_{j2} == sum_i G_i * Cof_i.

    The G_i are the row sums of the (undivided) row-selected matrix, i.e.
    the sections and the differentials of the selected sections; the Cof_i
    are the signed minors with both chart columns removed. Column indices
    refer to positions in the (possibly column-combined) bundle. Exact mode
    compares polynomials; probabilistic mode evaluates the matrix at random
    points and both sides of the same identity from its values (over F_p, or
    modulo the 31-bit prime for rational families). Equal chart columns
    raise ValueError: psi_j - psi_j == 0 has an empty certificate and
    would pass without testing anything.
    """
    if j1 == j2:
        raise ValueError("chart columns must differ")
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("gluing", [guard], j1=j1, j2=j2)
    _, M = _glue_matrix(build_matrices(fam), selection, which)
    ncols = len(M[0])
    if not (0 <= j1 < ncols and 0 <= j2 < ncols):
        raise ValueError("chart column out of range")
    check_id = f"certificate j1={j1} j2={j2}"
    if mode == "exact":
        check, certificate = _certificate_check(check_id, M, j1, j2)
        return _report("gluing", [check], j1=j1, j2=j2,
                       generators=len(M), certificate_terms=certificate.term_count())
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")

    plan = EvalPlan([e for row in M for e in row], identity_modulus(fam.field))

    def sides(z, dz, m):
        diff, cert = _gluing_sides(chunks(plan(z, dz), ncols), j1, j2,
                                   lambda rows: det_mod_p(rows, m))
        return [(diff % m, cert % m)]

    miss = sample_identity(sides, fam.shape.N, fam.field, trials, seed, "gluing")
    witness = None
    if miss is not None:
        t, z, dz, _, diff, cert = miss
        witness = {"trial": t, "z": z, "dz": dz, "difference": diff, "certificate": cert}
    checks = [_check(check_id, "fail" if witness else "pass",
                     "probabilistic", trials, witness)]
    return _report("gluing", checks, j1=j1, j2=j2, generators=len(M))


# ----- transition formulas -----


def _transition_sides(g, at_chart: Callable, times_power: Callable,
                      l1: int, l2: int) -> Iterator[Tuple[object, object]]:
    """(lhs, rhs) of each chart-change identity of a form G, in check order.

    g is G itself or its value; at_chart(l) is G at the projected tangent
    w_l(dz), w_l,k = z_l dz_k - dz_l z_k; times_power(x, l) is z_l^n * x.
    First the transition z_{l2}^n G(w_{l1}) == z_{l1}^n G(w_{l2}), then the
    scaling G(w_l) == z_l^n G for each chart l in sorted order.
    """
    projected = {l: at_chart(l) for l in sorted({l1, l2})}
    yield times_power(projected[l1], l2), times_power(projected[l2], l1)
    for l in sorted({l1, l2}):
        yield projected[l], times_power(g, l)


def verify_transition(fam: SectionFamily, selection: Sequence[int], omit: int,
                      l1: int, l2: int, mode: str = "auto",
                      which: Optional[Tuple] = None, kind: Optional[str] = None,
                      trials: int = 20, seed: int = 0) -> dict:
    """Chart-change identities for one extracted form.

    Checks, for G the signed divided determinant with column `omit` removed:
      scaling      G(z, w_l(dz)) == z_l^n * G(z, dz)  for l in {l1, l2},
                   where w_l(dz_k) = z_l dz_k - dz_l z_k;
      transition   z_{l2}^n * G(z, w_{l1}) == z_{l1}^n * G(z, w_{l2});
      exponent     z-degree + dz-degree of G equals the twist plus the
                   omitted column's divisor share plus the coefficient
                   twists, independently recomputed.
    Exact mode expands G and substitutes polynomials; probabilistic mode
    samples points with z_{l1}, z_{l2} != 0 and evaluates G at w_l(dz)
    there from its divided matrix, never expanding G. "auto" goes exact
    while the scaled forms, len({l1, l2}) * (terms of G, read off the
    packed determinant), stay within the limit. The exponent check reads
    the z-degree that extract_forms enforces, so it runs in every mode and
    also on a zero G.
    """
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("transition", [guard], omit=omit, charts=(l1, l2))
    form = extract_forms(build_matrices(fam), which, [selection], omit=omit, kind=kind)[0]
    n_eff = form.dz_degree
    N = fam.shape.N

    if mode == "auto":
        total = len({l1, l2}) * form.term_count()
        mode = "exact" if total <= AUTO_EXACT_TERM_LIMIT else "probabilistic"
    checks = []
    if mode == "exact":
        G = form.value_global
        transition, *scaling = _transition_sides(
            G, lambda l: tangent_projection(G, l),
            lambda x, l: times_monomial(x, z_power(N, l, n_eff)), l1, l2)
        for l, (lhs, rhs) in zip(sorted({l1, l2}), scaling):
            checks.append(_check(f"scaling chart {l}", "pass" if lhs == rhs else "fail"))
        checks.append(_check("transition", "pass" if transition[0] == transition[1] else "fail"))
    elif mode == "probabilistic":
        def sides(z, dz, m):
            def at_chart(l):
                w = [(z[l] * dz[k] - dz[l] * z[k]) % m for k in range(N + 1)]
                return form.evaluate_at(z, w, m)

            return _transition_sides(form.evaluate_at(z, dz, m), at_chart,
                                     lambda x, l: x * pow(z[l], n_eff, m) % m, l1, l2)

        miss = sample_identity(sides, N, fam.field, trials, seed, "transition",
                               nonzero=(l1, l2))
        witness = None if miss is None else dict(zip(("trial", "z", "dz", "pair"), miss))
        checks.append(_check("transition", "fail" if witness else "pass",
                             "probabilistic", trials, witness))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # extract_forms holds every term of G to this z-degree before any
    # expansion, and value_global checks it again when unpacked
    observed = form.z_degree + n_eff
    a_sum = sum(fam.twists) + sum(fam.twists[j - 1] for j in selection)
    if fam.mode == "general_fermat" and form.kind == "omega":
        heart_j = fermat_heart_prime(fam.degrees, fam.lambdas, selection) \
            + fam.lambdas[form.omit_coord] - 1
    else:
        heart_j = form.twist + form.omit_exponent - 1
    ok = observed == heart_j + a_sum
    checks.append(_check("transition exponent", "pass" if ok else "fail",
                         witness=None if ok else {"observed": observed,
                                                  "expected": heart_j + a_sum}))
    return _report("transition", checks, omit=omit, charts=(l1, l2),
                   exponent=heart_j, mode=mode)


# ----- evaluation-map surjectivity -----


def monomial_basis(N: int, d: int) -> List[Tuple[int, ...]]:
    """Exponent vectors of the degree-d monomials in z_0..z_N."""
    out = []
    for combo in combinations_with_replacement(range(N + 1), d):
        e = [0] * (N + 1)
        for idx in combo:
            e[idx] += 1
        out.append(tuple(e))
    return out


def evaluation_matrix(N: int, d: int, z: Sequence[int], tangents: Sequence[Sequence[int]],
                      p: int, twist_factor: Optional[MultiPoly] = None) -> List[List[int]]:
    """The (N+1) x dim matrix of monomial values and tangent derivatives, mod p.

    Row 0 evaluates every degree-d monomial m at z; row 1+t evaluates its
    differential at (z, tangents[t]). With a twist factor A the monomials
    become A*m, whose differential at (z, v) is the Leibniz row
    A(z)*Dm(v) + DA(v)*m(z). Rational coefficients are reduced mod p;
    a factor over another prime field raises ValueError.
    """
    zero = (0,) * (N + 1)
    if twist_factor is None:
        polys = [MultiPoly.monomial(N, QQ, 1, e) for e in monomial_basis(N, d)]
    else:
        polys = [times_monomial(twist_factor, e + zero) for e in monomial_basis(N, d)]
    values = EvalPlan(polys, p)
    differentials = EvalPlan([total_differential(f) for f in polys], p)
    return [values(z, zero)] + [differentials(z, v) for v in tangents]


def verify_surjectivity(N: int, d: int, twist_factor: Optional[MultiPoly] = None,
                        trials: int = 100, seed: int = 0, p: int = 101) -> dict:
    """Full-rank check for the evaluation map at random points.

    At each sampled point z (with twist factor nonzero when given) and a
    random completion of z to a basis by N tangent vectors, the
    (N+1) x C(N+d, N) evaluation matrix must have rank N+1.
    """
    if d < 1:
        raise ValueError("need degree at least 1")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    factor = None if twist_factor is None else EvalPlan([twist_factor], p)
    witness = None
    for t in range(trials):
        rng = child_rng(seed, "surjectivity", t)
        while True:
            z = [rng.randrange(p) for _ in range(N + 1)]
            if not any(z):
                continue
            if factor is not None and factor(z, [0] * (N + 1))[0] == 0:
                continue
            break
        while True:
            tangents = [[rng.randrange(p) for _ in range(N + 1)] for _ in range(N)]
            if rank_mod_p([z] + tangents, p) == N + 1:
                break
        mat = evaluation_matrix(N, d, z, tangents, p, twist_factor)
        rank = rank_mod_p(mat, p)
        if rank != N + 1:
            witness = {"trial": t, "z": z, "rank": rank}
            break
    checks = [_check("evaluation rank", "fail" if witness else "pass",
                     "numeric", trials, witness)]
    return _report("surjectivity", checks, N=N, d=d, dim=comb(N + d, N), p=p,
                   leibniz=twist_factor is not None)


# ----- hidden forms -----


def verify_hidden(fam: SectionFamily, vanished: Sequence[int],
                  selection: Sequence[int]) -> dict:
    """Gluing certificates and the twist increment on a vanishing locus.

    With eta coordinates killed, every chart pair of the restricted bundle
    must satisfy the certificate identity, and the extracted twist must be
    the unrestricted twist plus sum(lambda_v - 1) over the killed
    coordinates (general families) or the depth-eta ledger entry (mcm).
    Depth eta >= n yields an empty report: no forms are requested there.
    Depth 0 raises ValueError: with nothing killed there is no hidden form
    to check.
    """
    vanished = tuple(sorted(set(vanished)))
    eta = len(vanished)
    if eta == 0:
        raise ValueError("hidden forms need at least one vanished coordinate")
    shape = fam.shape
    if eta >= shape.n:
        return _report("hidden", [], eta=eta,
                       reason=f"no forms at depth {eta} >= n = {shape.n}")
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("hidden", [guard], eta=eta)
    checks = []
    hidden = build_selected(build_matrices(fam), ("hidden",) + vanished)
    if fam.mode == "general_fermat":
        _, M = _glue_matrix(hidden, selection)
        ncols = len(M[0])
        for j1 in range(ncols):
            for j2 in range(j1 + 1, ncols):
                checks.append(_certificate_check(f"certificate j1={j1} j2={j2}",
                                                 M, j1, j2)[0])
        form = extract_forms(hidden, None, [selection], omit=0, kind="omega")[0]
        expected = fermat_heart_prime(fam.degrees, fam.lambdas, selection) \
            + sum(fam.lambdas[v] - 1 for v in vanished)
        ok = form.twist == expected
        checks.append(_check("twist increment", "pass" if ok else "fail",
                             witness=None if ok else {"twist": form.twist,
                                                      "expected": expected}))
    else:
        ledger = twist_ledger(fam.schedule)
        for kind, params, _ in selection_layouts(len(hidden.retained) - 1):
            which = (kind,) + params
            label = f"{kind}({','.join(map(str, params))})"
            K, M = _glue_matrix(hidden, selection, which)
            checks.append(_certificate_check(f"certificate {label}", M, 0, 1)[0])
            tau = params[0] if kind == "K_tau_rho" else None
            entry = ledger.lookup(eta, kind, tau, selection)
            # extract_forms takes the twist from the ledger and raises when
            # the row degrees and divisors give another one
            try:
                twist = extract_forms(K, None, [selection], omit=0)[0].twist
            except DegreeClaimFailed as err:
                if err.quantity != "twist":
                    raise
                twist = err.observed
            ok = twist == entry.value
            checks.append(_check(f"twist {label}", "pass" if ok else "fail",
                                 witness=None if ok else {"twist": twist,
                                                          "ledger": entry.value}))
    return _report("hidden", checks, eta=eta, vanished=list(vanished))
