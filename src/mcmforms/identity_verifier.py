"""Machine checks for the determinant identities behind the glued forms.

Four families of checks:

  verify_cramer        numeric omit-one-column determinant identities for
                       matrices whose weighted columns sum to zero.
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
                       vanishing-coordinate restriction of a family.

Every check returns a report dict: {"op", "ok", "checks": [{"id", "mode",
"trials", "verdict", "witness"}, ...]} plus op-specific extras.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import List, Optional, Sequence, Tuple

from .exact_algebra import (
    IDENTITY_PRIME,
    AUTO_EXACT_TERM_LIMIT,
    MultiPoly,
    deriv,
    det_mod_p,
    kill_coordinates,
    poly_det,
    tangent_projection,
    times_monomial,
    to_literal,
    z_power,
)
from .schedule import fermat_heart_prime, twist_ledger
from .section_builder import (
    FormalMatrixBundle,
    SectionFamily,
    build_matrices,
    build_selected,
    extract_form,
)
from .util import child_rng, rank_mod_p


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


# ----- Cramer-style numeric identities -----


def _omit_det(cols: List[List[int]], omit: int, p: int) -> int:
    kept = [cols[j] for j in range(len(cols)) if j != omit]
    rows = [[kept[j][i] for j in range(len(kept))] for i in range(len(kept[0]))]
    return det_mod_p(rows, p)


def _cramer_identities(cols: List[List[int]], weights: List[int], p: int):
    """First violated pair of the identities
    (-1)^{j1} det(omit j1) w_{j2} == (-1)^{j2} det(omit j2) w_{j1}."""
    n1 = len(cols)
    dets = [(_omit_det(cols, j, p) * (-1) ** j) % p for j in range(n1)]
    for j1 in range(n1):
        for j2 in range(j1 + 1, n1):
            if (dets[j1] * weights[j2]) % p != (dets[j2] * weights[j1]) % p:
                return (j1, j2)
    return None


def verify_cramer(rows: int, seed: int, trials: int = 200, p: int = 101) -> dict:
    """Omit-one-column identities for N x (N+1) matrices over F_p whose
    weighted columns sum to zero.

    Per trial, column 0 is solved from the others twice: once with unit
    weights and once with random nonzero weights z_j; all pairwise
    identities (-1)^{j1} det(..omit j1..) z_{j2} == (-1)^{j2} det(..omit
    j2..) z_{j1} are asserted. The zero matrix is checked once up front.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    n1 = rows + 1
    checks = []

    zero_cols = [[0] * rows for _ in range(n1)]
    bad = _cramer_identities(zero_cols, [1] * n1, p)
    checks.append(_check("zero matrix", "fail" if bad else "pass", "numeric", 1,
                         witness={"pair": bad} if bad else None))

    for case, unit_weights in (("column-sum zero", True), ("weighted", False)):
        witness = None
        for t in range(trials):
            rng = child_rng(seed, f"cramer:{case}", t)
            cols = [[rng.randrange(p) for _ in range(rows)] for _ in range(n1)]
            if unit_weights:
                weights = [1] * n1
            else:
                weights = [rng.randrange(1, p) for _ in range(n1)]
            inv0 = pow(weights[0], p - 2, p)
            cols[0] = [
                (-sum(cols[j][i] * weights[j] for j in range(1, n1)) * inv0) % p
                for i in range(rows)
            ]
            bad = _cramer_identities(cols, weights, p)
            if bad is not None:
                witness = {"trial": t, "pair": bad, "columns": cols, "weights": weights}
                break
        checks.append(_check(case, "fail" if witness else "pass", "numeric",
                             trials, witness))
    return _report("cramer", checks, rows=rows, p=p)


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
    n_eff = shape.n - K.eta()
    selection = tuple(selection)
    if len(selection) != n_eff or any(not (1 <= j <= shape.c) for j in selection):
        raise ValueError(f"selection must pick {n_eff} differential rows in 1..{shape.c}")
    cr = shape.c + shape.r
    row_ids = list(range(cr)) + [cr + j - 1 for j in selection]
    M = [[K.entries[rid][col] for col in range(K.ncols)] for rid in row_ids]
    return K, M


def _row_sums(M: List[List[MultiPoly]]) -> List[MultiPoly]:
    out = []
    for row in M:
        total = row[0]
        for e in row[1:]:
            total = total + e
        out.append(total)
    return out


def _signed_omit_det(M: List[List[MultiPoly]], omit: int) -> MultiPoly:
    det = poly_det([[e for c, e in enumerate(row) if c != omit] for row in M])
    return det if omit % 2 == 0 else -det


def gluing_certificate(M: List[List[MultiPoly]], j1: int, j2: int) -> MultiPoly:
    """The exact certificate for psi_{j1} - psi_{j2}.

    For j1 < j2 this is (-1)^{j1} times the determinant of M with column j1
    removed and column j2 replaced by the full row-sum column; expanding
    along that column gives sum_i (-1)^{i + j2 - 1} G_i * minor_i with
    minor_i the doubly-omitted (cols j1, j2, row i) determinant. Swapping
    j1 > j2 negates; j1 == j2 gives zero.
    """
    some = M[0][0]
    if j1 == j2:
        return MultiPoly.zero(some.N, some.field)
    flip = j1 > j2
    a, b = (j1, j2) if j1 < j2 else (j2, j1)
    sums = _row_sums(M)
    pos = b - 1
    total = MultiPoly.zero(some.N, some.field)
    for i in range(len(M)):
        sub = [
            [e for c, e in enumerate(row) if c not in (a, b)]
            for ri, row in enumerate(M) if ri != i
        ]
        piece = sums[i] * poly_det(sub)
        total = total + (piece if (i + pos) % 2 == 0 else -piece)
    if a % 2:
        total = -total
    return -total if flip else total


def _numeric_glue_pair(M: List[List[MultiPoly]], j1: int, j2: int,
                       z: List[int], dz: List[int], p: int) -> Tuple[int, int]:
    """(difference, certificate) of the gluing identity at one point."""
    if j1 == j2:
        return 0, 0
    exact = M[0][0].field.p != 0
    vals = [[(e.evaluate(z, dz) if exact else e.evaluate_mod(z, dz, p)) % p
             for e in row] for row in M]

    def omit_det(j: int) -> int:
        det = det_mod_p([[v for c, v in enumerate(row) if c != j] for row in vals], p)
        return det if j % 2 == 0 else (-det) % p

    diff = (omit_det(j1) - omit_det(j2)) % p
    flip = j1 > j2
    a, b = (j1, j2) if j1 < j2 else (j2, j1)
    sums = [sum(row) % p for row in vals]
    pos = b - 1
    total = 0
    for i in range(len(vals)):
        sub = [[v for c, v in enumerate(row) if c not in (a, b)]
               for ri, row in enumerate(vals) if ri != i]
        piece = sums[i] * det_mod_p(sub, p)
        total = (total + (piece if (i + pos) % 2 == 0 else -piece)) % p
    if a % 2:
        total = -total % p
    if flip:
        total = -total % p
    return diff, total


def verify_gluing(fam: SectionFamily, selection: Sequence[int], j1: int, j2: int,
                  which: Optional[Tuple] = None, mode: str = "exact",
                  trials: int = 20, seed: int = 0) -> dict:
    """Certificate check psi_{j1} - psi_{j2} == sum_i G_i * Cof_i.

    The G_i are the row sums of the (undivided) row-selected matrix, i.e.
    the sections and the differentials of the selected sections; the Cof_i
    are the signed minors with both chart columns removed. Column indices
    refer to positions in the (possibly column-combined) bundle. Exact mode
    compares polynomials; probabilistic mode evaluates both sides at random
    points (over F_p, or modulo the 31-bit prime for rational families).
    """
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("gluing", [guard], j1=j1, j2=j2)
    _, M = _glue_matrix(build_matrices(fam), selection, which)
    ncols = len(M[0])
    if not (0 <= j1 < ncols and 0 <= j2 < ncols):
        raise ValueError("chart column out of range")
    if mode == "exact":
        difference = _signed_omit_det(M, j1) - _signed_omit_det(M, j2)
        certificate = gluing_certificate(M, j1, j2)
        equal = difference == certificate
        witness = None
        if not equal:
            gap = difference - certificate
            witness = {"difference_minus_certificate": to_literal(gap)[:400]}
        checks = [_check(f"certificate j1={j1} j2={j2}", "pass" if equal else "fail",
                         witness=witness)]
        return _report("gluing", checks, j1=j1, j2=j2,
                       generators=len(M), certificate_terms=certificate.term_count())
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")
    modulus = fam.field.p or IDENTITY_PRIME
    witness = None
    for t in range(trials):
        rng = child_rng(seed, "gluing", t)
        z = [rng.randrange(modulus) for _ in range(M[0][0].N + 1)]
        dz = [rng.randrange(modulus) for _ in range(M[0][0].N + 1)]
        diff, cert = _numeric_glue_pair(M, j1, j2, z, dz, modulus)
        if diff != cert:
            witness = {"trial": t, "z": z, "dz": dz,
                       "difference": diff, "certificate": cert}
            break
    checks = [_check(f"certificate j1={j1} j2={j2}", "fail" if witness else "pass",
                     "probabilistic", trials, witness)]
    return _report("gluing", checks, j1=j1, j2=j2, generators=len(M))


# ----- transition formulas -----


def _transition_points(G_N: int, l1: int, l2: int, rng,
                       modulus: int) -> Tuple[List[int], List[int]]:
    z = [rng.randrange(modulus) for _ in range(G_N + 1)]
    z[l1] = rng.randrange(1, modulus)
    z[l2] = rng.randrange(1, modulus)
    dz = [rng.randrange(modulus) for _ in range(G_N + 1)]
    return z, dz


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
    Probabilistic mode samples points with z_{l1}, z_{l2} != 0.
    """
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("transition", [guard], omit=omit, charts=(l1, l2))
    K = build_matrices(fam)
    form = extract_form(K, which, selection, omit=omit, chart=l1, kind=kind)
    G = form.value_global
    n_eff = form.dz_degree
    N = G.N
    projected = {l: tangent_projection(G, l) for l in {l1, l2}}
    scaled = {l: times_monomial(G, z_power(N, l, n_eff)) for l in {l1, l2}}
    lhs = times_monomial(projected[l1], z_power(N, l2, n_eff))
    rhs = times_monomial(projected[l2], z_power(N, l1, n_eff))

    if mode == "auto":
        total = sum(q.term_count() for q in projected.values())
        mode = "exact" if total <= AUTO_EXACT_TERM_LIMIT else "probabilistic"
    checks = []
    if mode == "exact":
        for l in sorted({l1, l2}):
            ok = projected[l] == scaled[l]
            checks.append(_check(f"scaling chart {l}", "pass" if ok else "fail"))
        ok = lhs == rhs
        checks.append(_check("transition", "pass" if ok else "fail"))
    elif mode == "probabilistic":
        modulus = fam.field.p or IDENTITY_PRIME
        witness = None
        for t in range(trials):
            rng = child_rng(seed, "transition", t)
            z, dz = _transition_points(N, l1, l2, rng, modulus)
            pairs = [(lhs, rhs)] + [(projected[l], scaled[l]) for l in sorted({l1, l2})]
            for idx, (a, b) in enumerate(pairs):
                va = a.evaluate(z, dz) if fam.field.p else a.evaluate_mod(z, dz, modulus)
                vb = b.evaluate(z, dz) if fam.field.p else b.evaluate_mod(z, dz, modulus)
                if va != vb:
                    witness = {"trial": t, "z": z, "dz": dz, "pair": idx}
                    break
            if witness:
                break
        checks.append(_check("transition", "fail" if witness else "pass",
                             "probabilistic", trials, witness))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    observed = None
    if not G.is_zero():
        observed = G.z_degree() + n_eff
    a_sum = sum(fam.twists) + sum(fam.twists[j - 1] for j in selection)
    if fam.mode == "general_fermat" and form.kind == "omega":
        heart_j = fermat_heart_prime(fam.degrees, fam.lambdas, selection) \
            + fam.lambdas[form.omit_coord] - 1
    else:
        omit_exp = 1
        if which is not None:
            omit_exp = build_selected(K, which).divisor_exponents[omit]
        elif form.kind == "omega":
            omit_exp = fam.lambdas[form.omit_coord]
        heart_j = form.twist + omit_exp - 1
    ok = observed is None or observed == heart_j + a_sum
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


def _eval_monomial(e: Sequence[int], z: Sequence[int], p: int) -> int:
    v = 1
    for zi, ei in zip(z, e):
        if ei:
            v = (v * pow(zi, ei, p)) % p
    return v


def _dir_derivative(e: Sequence[int], z: Sequence[int], v: Sequence[int], p: int) -> int:
    total = 0
    for i, ei in enumerate(e):
        if ei == 0:
            continue
        shifted = list(e)
        shifted[i] -= 1
        total += ei * v[i] * _eval_monomial(shifted, z, p)
    return total % p


def evaluation_matrix(N: int, d: int, z: Sequence[int], tangents: Sequence[Sequence[int]],
                      p: int, twist_factor: Optional[MultiPoly] = None) -> List[List[int]]:
    """The (N+1) x dim matrix of monomial values and tangent derivatives.

    Row 0 evaluates every degree-d monomial at z; row 1+t differentiates
    along tangents[t]. With a twist factor A the rows become A(z)*m(z) and
    A(z)*Dm(v) + DA(v)*m(z), the Leibniz expansion of differentiating A*m.
    """
    basis = monomial_basis(N, d)
    a_val = 1
    da_val = [0] * len(tangents)
    if twist_factor is not None:
        zero_dz = [0] * (N + 1)
        a_val = twist_factor.evaluate(z, zero_dz) % p
        for t, v in enumerate(tangents):
            da_val[t] = sum(
                deriv(twist_factor, i).evaluate(z, zero_dz) * v[i] for i in range(N + 1)
            ) % p
    rows = [[(a_val * _eval_monomial(e, z, p)) % p for e in basis]]
    for t, v in enumerate(tangents):
        rows.append([
            (a_val * _dir_derivative(e, z, v, p) + da_val[t] * _eval_monomial(e, z, p)) % p
            for e in basis
        ])
    return rows


def verify_surjectivity(N: int, d: int, twist_factor: Optional[MultiPoly] = None,
                        trials: int = 100, seed: int = 0, p: int = 101) -> dict:
    """Full-rank check for the evaluation map at random points.

    At each sampled point z (with twist factor nonzero when given) and a
    random completion of z to a basis by N tangent vectors, the
    (N+1) x C(N+d, N) evaluation matrix must have rank N+1.
    """
    if d < 1:
        raise ValueError("need degree at least 1")
    witness = None
    for t in range(trials):
        rng = child_rng(seed, "surjectivity", t)
        while True:
            z = [rng.randrange(p) for _ in range(N + 1)]
            if not any(z):
                continue
            if twist_factor is not None:
                if twist_factor.evaluate(z, [0] * (N + 1)) % p == 0:
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
    """
    vanished = tuple(sorted(set(vanished)))
    eta = len(vanished)
    shape = fam.shape
    if eta >= shape.n:
        return _report("hidden", [], eta=eta,
                       reason=f"no forms at depth {eta} >= n = {shape.n}")
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("hidden", [guard], eta=eta)
    checks = []
    if eta == 0:
        # the vanishing machinery with nothing killed must reproduce the
        # baseline matrices entry for entry
        K = build_matrices(fam)
        killed = [[kill_coordinates(e, ()) for e in row] for row in K.entries]
        ok = killed == K.entries
        checks.append(_check("eta=0 coincidence", "pass" if ok else "fail"))
        return _report("hidden", checks, eta=0)

    if fam.mode == "general_fermat":
        which = ("hidden",) + vanished
        K, M = _glue_matrix(build_matrices(fam), selection, which)
        ncols = len(M[0])
        for j1 in range(ncols):
            for j2 in range(j1 + 1, ncols):
                diff = _signed_omit_det(M, j1) - _signed_omit_det(M, j2)
                cert = gluing_certificate(M, j1, j2)
                ok = diff == cert
                checks.append(_check(f"certificate j1={j1} j2={j2}",
                                     "pass" if ok else "fail"))
        full = build_matrices(fam)
        form = extract_form(full, which, selection, omit=0, chart=K.retained[-1],
                            kind="omega")
        expected = fermat_heart_prime(fam.degrees, fam.lambdas, selection) \
            + sum(fam.lambdas[v] - 1 for v in vanished)
        ok = form.twist == expected
        checks.append(_check("twist increment", "pass" if ok else "fail",
                             witness=None if ok else {"twist": form.twist,
                                                      "expected": expected}))
    else:
        full = build_matrices(fam)
        hidden = build_selected(full, ("hidden",) + vanished)
        ledger = twist_ledger(fam.schedule)
        retained_top = len(hidden.retained) - 1
        for nu in (0, retained_top):
            _, M = _glue_matrix(hidden, selection, ("K_nu", nu))
            diff = _signed_omit_det(M, 0) - _signed_omit_det(M, 1)
            cert = gluing_certificate(M, 0, 1)
            checks.append(_check(f"certificate K_nu({nu})",
                                 "pass" if diff == cert else "fail"))
            form = extract_form(hidden, ("K_nu", nu), selection, omit=0,
                                chart=hidden.retained[-1])
            entry = ledger.lookup(eta, "K_nu", None, selection)
            ok = form.twist == entry.value
            checks.append(_check(f"twist K_nu({nu})", "pass" if ok else "fail",
                                 witness=None if ok else {"twist": form.twist,
                                                          "ledger": entry.value}))
    return _report("hidden", checks, eta=eta, vanished=list(vanished))
