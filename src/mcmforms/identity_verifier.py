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

Both identities are signed minors of one matrix, checked by one helper
(_check_identities): exact mode compares the sides packed on a MinorTable
that expands each shared minor once, probabilistic mode the same terms
through det_mod_p at the points of sample_identity. Substituting w_l(dz)
commutes with the determinant, so the transition sides are minors of the
form's divided rows stacked with their projections to each chart and
their multiples by z_l (_transition_rows); no expanded G is substituted.

Every check returns a report dict: {"op", "ok", "checks": [{"id", "mode",
"trials", "verdict", "witness"}, ...]} plus op-specific extras.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

from .exact_algebra import (
    AUTO_EXACT_TERM_LIMIT,
    EvalPlan,
    MinorTable,
    MultiPoly,
    QQ,
    det_mod_p,
    identity_modulus,
    sample_identity,
    tangent_projection,
    times_monomial,
    to_literal,
    total_differential,
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

# sign * (sum of row i, or 1 for i None) * minor(rows, cols); (lhs, rhs)
Term = Tuple[int, Optional[int], Tuple[int, ...], Tuple[int, ...]]
Identity = Tuple[List[Term], List[Term]]


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


# ----- identities between minors -----


def _check_identities(ids: Sequence[str], identities: Sequence[Identity],
                      names: Tuple[str, str] = ("lhs", "rhs"),
                      table: Optional[MinorTable] = None, rows_at: Optional[Callable] = None,
                      sampling: Optional[dict] = None) -> Tuple[List[dict], list]:
    """Checks of identities between signed sums of minors of one matrix.

    With a MinorTable, check ids[k] compares the sides of identity k packed,
    which needs all their terms of one size (one scale); a failure's witness
    is names[0]_minus_names[1], cut to 400 characters. Returns the checks
    and the packed sides. Else
    check ids[0] samples every identity from rows_at(z, dz, m), the values
    mod m, at sample_identity's points (keyword arguments `sampling`); its
    witness holds the point and the two values of a single identity, or
    the index of the failing one as "pair".
    """
    if table is not None:
        checks, sides = [], []
        for check_id, (lhs, rhs) in zip(ids, identities):
            a, b = table.combine(lhs), table.combine(rhs)
            gap = None if a.terms == b.terms else to_literal(a.unpack() - b.unpack())[:400]
            checks.append(_check(check_id, "fail" if gap else "pass",
                                 witness=gap and {f"{names[0]}_minus_{names[1]}": gap}))
            sides.append((a, b))
        return checks, sides

    def side(values, terms, m):
        return sum(sign * det_mod_p([[values[r][c] for c in cols] for r in rows], m)
                   * (1 if i is None else sum(values[i])) for sign, i, rows, cols in terms) % m

    def sides_at(z, dz, m):
        values = rows_at(z, dz, m)
        return ((side(values, lhs, m), side(values, rhs, m)) for lhs, rhs in identities)

    miss = sample_identity(sides_at, **sampling)
    witness = None
    if miss is not None:
        t, z, dz, pair, lhs, rhs = miss
        witness = dict(trial=t, z=z, dz=dz, **({names[0]: lhs, names[1]: rhs}
                                               if len(identities) == 1 else {"pair": pair}))
    return [_check(ids[0], "fail" if witness else "pass", "probabilistic",
                   sampling["trials"], witness)], []


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


def _gluing_identity(nrows: int, ncols: int, j1: int, j2: int) -> Identity:
    """The gluing identity psi_{j1} - psi_{j2} == sum_i G_i * Cof_i of an
    nrows x ncols matrix M (ncols == nrows + 1), as signed minor terms.

    psi_j is (-1)^j det(M without column j). For j1 < j2 the certificate is
    (-1)^{j1} times the determinant of M with column j1 removed and column
    j2 replaced by the row sums G_i; expanding along that column gives
    sum_i (-1)^{i + j2 - 1} G_i * minor_i with minor_i the doubly-omitted
    (columns j1, j2, row i) determinant. Swapping j1 > j2 negates.
    Returns (difference, certificate). Needs j1 != j2.
    """
    def without(n: int, *drop: int) -> Tuple[int, ...]:
        return tuple(k for k in range(n) if k not in drop)

    everything = tuple(range(nrows))
    difference = [((-1) ** j1, None, everything, without(ncols, j1)),
                  (-(-1) ** j2, None, everything, without(ncols, j2))]
    a, b = sorted((j1, j2))
    flip = -1 if (a % 2 == 1) != (j1 > j2) else 1
    certificate = [(flip if (i + b) % 2 else -flip, i, without(nrows, i), without(ncols, a, b))
                   for i in range(nrows)]
    return difference, certificate


_GLUING_NAMES = ("difference", "certificate")


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
    ids, identities = [f"certificate j1={j1} j2={j2}"], [_gluing_identity(len(M), ncols, j1, j2)]
    if mode == "exact":
        checks, ((_, certificate),) = _check_identities(ids, identities, _GLUING_NAMES,
                                                        table=MinorTable(M))
        return _report("gluing", checks, j1=j1, j2=j2,
                       generators=len(M), certificate_terms=certificate.term_count())
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")
    plan = EvalPlan([e for row in M for e in row], identity_modulus(fam.field))
    checks, _ = _check_identities(
        ids, identities, _GLUING_NAMES, rows_at=lambda z, dz, m: chunks(plan(z, dz), ncols),
        sampling=dict(N=fam.shape.N, field=fam.field, trials=trials, seed=seed, stage="gluing"))
    return _report("gluing", checks, j1=j1, j2=j2, generators=len(M))


# ----- transition formulas -----


def _transition_rows(value: list, diff: list, at_chart: Callable, times: Callable,
                     l1: int, l2: int) -> list:
    """A form's value rows stacked, over any commutative ring, with blocks of
    its differential rows `diff`: diff; z_{l2} * (diff at w_{l1}) and
    z_{l1} * (diff at w_{l2}); then diff at w_l and z_l * diff for each chart
    l in sorted order. at_chart(l) is diff at w_l, times(rows, l) is z_l * rows."""
    w = {l: at_chart(l) for l in sorted({l1, l2})}
    blocks = [diff, times(w[l1], l2), times(w[l2], l1)]
    blocks += [block for l in w for block in (w[l], times(diff, l))]
    return value + [row for block in blocks for row in block]


def _transition_identities(nvalue: int, ndiff: int, ncols: int, sign: int, l1: int, l2: int
                           ) -> Tuple[List[Identity], List[Term]]:
    """The transition z_{l2}^n G(w_{l1}) == z_{l1}^n G(w_{l2}), then the
    scaling G(w_l) == z_l^n G for each chart l in sorted order, as maximal
    minors of _transition_rows (n = ndiff rows each times z_l); and G."""
    def minor(block: int) -> List[Term]:
        rows = tuple(range(nvalue + block * ndiff, nvalue + (block + 1) * ndiff))
        return [(sign, None, tuple(range(nvalue)) + rows, tuple(range(ncols)))]

    return [(minor(2 * j + 1), minor(2 * j + 2)) for j in range(1 + len({l1, l2}))], minor(0)


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
    Each side is a maximal minor of _transition_rows: exact mode compares
    them packed on one MinorTable, probabilistic mode evaluates the rows at
    points with z_{l1}, z_{l2} != 0; neither substitutes into an expanded G.
    "auto" goes exact while len({l1, l2}) * (terms of G) stays within the
    limit. The exponent check reads the z-degree that extract_forms
    enforces, so it runs in every mode and also on a zero G.
    """
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("transition", [guard], omit=omit, charts=(l1, l2))
    form = extract_forms(build_matrices(fam), which, [selection], omit=omit, kind=kind)[0]
    n_eff, N, charts = form.dz_degree, fam.shape.N, sorted({l1, l2})
    divided = [form.matrix.rows[t] for t in form.matrix_rows]
    nvalue = len(divided) - n_eff
    identities, g = _transition_identities(nvalue, n_eff, len(divided[0]), form.sign, l1, l2)
    table = None
    if mode in ("exact", "auto"):
        diff = divided[nvalue:]
        table = MinorTable(_transition_rows(
            divided[:nvalue], diff, lambda l: [[tangent_projection(e, l) for e in row] for row in diff],
            lambda rows, l: [[e * MultiPoly.z(N, l, fam.field) for e in row] for row in rows],
            l1, l2))
    if mode == "auto":
        total = len(charts) * table.combine(g).term_count()
        mode = "exact" if total <= AUTO_EXACT_TERM_LIMIT else "probabilistic"
    if mode == "exact":
        ids = [f"scaling chart {l}" for l in charts] + ["transition"]
        checks, _ = _check_identities(ids, identities[1:] + identities[:1], table=table)
    elif mode == "probabilistic":
        def rows_at(z, dz, m):
            def at(point):
                values = form.matrix.values_at(z, point, m)
                return [values[t] for t in form.matrix_rows]

            here = at(dz)
            return _transition_rows(
                here[:nvalue], here[nvalue:],
                lambda l: at([(z[l] * dz[k] - dz[l] * z[k]) % m for k in range(N + 1)])[nvalue:],
                lambda rows, l: [[x * z[l] % m for x in row] for row in rows], l1, l2)

        checks, _ = _check_identities(
            ["transition"], identities, rows_at=rows_at,
            sampling=dict(N=N, field=fam.field, trials=trials, seed=seed, stage="transition",
                          nonzero=(l1, l2)))
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
    return [tuple(combo.count(k) for k in range(N + 1))
            for combo in combinations_with_replacement(range(N + 1), d)]


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
        z = [0] * (N + 1)
        while not any(z) or (factor is not None and factor(z, [0] * (N + 1))[0] == 0):
            z = [rng.randrange(p) for _ in range(N + 1)]
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
    Depth 0 and depth eta >= n raise ValueError: with nothing killed there
    is no hidden form, and from depth n on no form is defined, so either
    report would pass without testing anything.
    """
    vanished = tuple(sorted(set(vanished)))
    eta = len(vanished)
    if eta == 0:
        raise ValueError("hidden forms need at least one vanished coordinate")
    if eta >= fam.shape.n:
        raise ValueError(f"no hidden forms at depth {eta} >= n = {fam.shape.n}")
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("hidden", [guard], eta=eta)
    checks = []
    hidden = build_selected(build_matrices(fam), ("hidden",) + vanished)
    if fam.mode == "general_fermat":
        _, M = _glue_matrix(hidden, selection)
        pairs = [(j1, j2) for j1 in range(len(M[0])) for j2 in range(j1 + 1, len(M[0]))]
        checks += _check_identities(
            [f"certificate j1={j1} j2={j2}" for j1, j2 in pairs],
            [_gluing_identity(len(M), len(M[0]), j1, j2) for j1, j2 in pairs],
            _GLUING_NAMES, table=MinorTable(M))[0]
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
            checks += _check_identities([f"certificate {label}"],
                                        [_gluing_identity(len(M), len(M[0]), 0, 1)],
                                        _GLUING_NAMES, table=MinorTable(M))[0]
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
