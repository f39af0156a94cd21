"""Machine checks for the determinant identities behind the glued forms.

Four families of checks:

  verify_gluing        the hypothesis under which two chart realizations
                       psi_{j_1}, psi_{j_2} agree on X: value row i of the
                       matrix sums to the section F_i, and each differential
                       row is the total differential of its value row, entry
                       by entry (_hypothesis_pairs). Then psi_{j_1} - psi_{j_2}
                       lies in the ideal of the F_i and dF_i, as in Brotbek's
                       construction that the paper extends.
  verify_transition    chart changes: the tangent substitution multiplies an
                       extracted form by z_l^(dz-degree), hence
                       z_{l_2}^n * G(w_{l_1}) == z_{l_1}^n * G(w_{l_2}),
                       because every divided differential entry keeps
                       Euler's relation with its value entry
                       (_transition_pairs); the transition exponent is
                       cross-checked against the twist bookkeeping.
  verify_surjectivity  the (N+1) x dim evaluation matrix (value row plus N
                       tangent-derivative rows) of the degree-d monomial
                       basis has full rank at random points.
  verify_hidden        the gluing hypothesis and the twist formula on the
                       vanishing-coordinate restriction of a family, and on
                       every K_nu / K_tau_rho selection of an mcm family.

Gluing and transitions check the hypothesis an identity rests on, entry by
entry, and never expand a determinant. Each hypothesis is a list of
polynomial pairs, and one comparer serves both (_check_hypothesis): it
compares the pairs in order. A hypothesis belongs to the matrix, not to a
chart, so each is one check; the charts a caller names are range-checked
and echoed, and do not enter it. The pipeline and `mcm verify` run only
this exact mode. The comparer's one probabilistic branch, which samples the
pairs at SAMPLED_TRIALS seeded points, serves the certify-sampled
benchmark workload alone: over F_5 a sampled PASS bounds nothing, since
the Schwartz-Zippel bound D / 5 on a trial's miss, for a nonzero
difference of degree D, is far above 1 at the degrees built here. The
transition pairs are Euler's relation D(z; z) == deg(F_j) * V on each
divided differential entry D: then substituting w_l(dz) adds multiples of
the value rows to z_l times the differential rows, so G(w_l) == z_l^n * G
by row operations. Both modes form D(z; z) the same way, by the products
z_k * [dz_k]D, and compare the one pair list.

verify_gluing and verify_transition take a family or its FamilyData
holder, and read the bundle, the selections and the full bundle's
hypothesis from the holder: a pipeline run and `mcm verify` pass one
holder per family to every unit, so each is formed once.

Every check returns a report dict: {"op", "ok", "checks": [{"id", "mode",
"trials", "verdict", "witness"}, ...]} plus op-specific extras.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_algebra import (
    EvalPlan,
    MultiPoly,
    QQ,
    kill_coordinates,
    to_literal,
    total_differential,
)
from .schedule import fermat_heart_prime
from .section_builder import (
    DegreeClaimFailed,
    FamilyData,
    FormalMatrixBundle,
    FormBundle,
    SectionFamily,
    _check_selection,
    build_matrices,
    build_selected,
    extract_forms,
    selection_layouts,
)
from .util import child_rng, chunks, rank_mod_p

# (bundle, row, col, lhs, rhs): col is None for a row sum
Pair = Tuple[str, int, Optional[int], MultiPoly, MultiPoly]

# The probabilistic branch of _check_hypothesis: trials per check, and the
# modulus of its draws over Q (2**31 - 1; over F_p it draws mod p).
SAMPLED_TRIALS = 20
IDENTITY_PRIME = 2147483647

# The prime the evaluation map's rank is checked over.
SURJECTIVITY_PRIME = 101


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


# ----- the gluing hypothesis -----


def _label(which: Optional[Tuple]) -> str:
    return "full" if which is None else f"{which[0]}({','.join(map(str, which[1:]))})"


def _hypothesis_pairs(K: FormalMatrixBundle, bundle: str) -> List[Pair]:
    """The hypothesis the gluing of K's forms rests on, as pairs that must
    be equal: (sum of value row i, F_i) for every value row, then (entry,
    d(value entry)) for every differential entry, both right-hand sides with
    K's vanished coordinates killed. Every column of K counts, so a
    column-combined bundle that drops or repeats a column fails its row sums."""
    fam, cr = K.family, K.value_rows()

    def kill(p: MultiPoly) -> MultiPoly:
        return kill_coordinates(p, K.vanished) if K.vanished else p

    pairs = [(bundle, i, None, sum(K.entries[i][1:], K.entries[i][0]), kill(fam.sections[i]))
             for i in range(cr)]
    pairs += [(bundle, cr + q, col, e, kill(total_differential(K.entries[q][col])))
              for q in range(fam.shape.c) for col, e in enumerate(K.entries[cr + q])]
    return pairs


def _check_hypothesis(check_id: str, pairs: Sequence[Pair], fam: SectionFamily,
                      mode: str, seed: int = 0, stage: str = "gluing") -> dict:
    """One check of every pair, for gluing, transitions and hidden forms.
    Exact mode compares them in order; the first mismatch is the witness
    (bundle, row, col and lhs - rhs, cut to 400 characters).

    The probabilistic branch serves only the certify-sampled benchmark
    workload. It compiles both sides of every pair into one EvalPlan mod m
    (fam.field.p, or IDENTITY_PRIME over Q). Trial t of SAMPLED_TRIALS draws
    z, then dz, uniformly mod m from child_rng(seed, stage, t). The witness
    holds the trial, the point and the two values of the first pair that
    differs there."""
    if mode == "exact":
        for bundle, row, col, lhs, rhs in pairs:
            if lhs != rhs:
                return _check(check_id, "fail", witness=dict(
                    bundle=bundle, row=row, col=col, lhs_minus_rhs=to_literal(lhs - rhs)[:400]))
        return _check(check_id, "pass")
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")
    n1, m = fam.shape.N + 1, fam.field.p or IDENTITY_PRIME
    plan = EvalPlan([side for pair in pairs for side in pair[3:]], m)
    for t in range(SAMPLED_TRIALS):
        rng = child_rng(seed, stage, t)
        z = [rng.randrange(m) for _ in range(n1)]
        dz = [rng.randrange(m) for _ in range(n1)]
        for (bundle, row, col, _, _), (lhs, rhs) in zip(pairs, chunks(plan(z, dz), 2)):
            if lhs != rhs:
                return _check(check_id, "fail", "probabilistic", SAMPLED_TRIALS, dict(
                    trial=t, z=z, dz=dz, bundle=bundle, row=row, col=col, lhs=lhs, rhs=rhs))
    return _check(check_id, "pass", "probabilistic", SAMPLED_TRIALS)


def verify_gluing(fam: SectionFamily | FamilyData, selection: Sequence[int], j1: int, j2: int,
                  which: Optional[Tuple] = None, mode: str = "exact", seed: int = 0) -> dict:
    """The gluing hypothesis for psi_{j1} and psi_{j2}: the rows of the
    family's matrix sum to its sections and its differential rows are the
    differentials of its value rows, and with `which` the same of the
    column-combined bundle, whose columns j1, j2 name the charts.

    One check, "hypothesis", covers both bundles and every pair of charts
    (_check_hypothesis, exactly unless the probabilistic branch is asked
    for). The selection must name the form's differential rows, a full mcm
    bundle needs `which`, and equal or out-of-range chart columns raise
    ValueError: psi_j - psi_j == 0 tests nothing.
    """
    data = FamilyData.of(fam)
    fam = data.family
    if j1 == j2:
        raise ValueError("chart columns must differ")
    full = data.matrices
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("gluing", [guard], j1=j1, j2=j2)
    K = full if which is None else data.selected(which)
    if K.layout == "mcm":
        raise ValueError("full mcm bundles need a K_nu/K_tau_rho selection")
    selection = _check_selection(fam.shape, K.eta(), selection)
    if not (0 <= j1 < K.ncols and 0 <= j2 < K.ncols):
        raise ValueError("chart column out of range")
    pairs = data.derived("hypothesis", lambda: _hypothesis_pairs(full, _label(None)))
    if which is not None:
        pairs = pairs + _hypothesis_pairs(K, _label(which))
    checks = [_check_hypothesis("hypothesis", pairs, fam, mode, seed)]
    return _report("gluing", checks, j1=j1, j2=j2, generators=K.value_rows() + len(selection))


# ----- transition formulas -----


def _transition_pairs(form: FormBundle, fam: SectionFamily,
                      bundle: str) -> Tuple[List[Pair], Optional[dict]]:
    """The hypothesis the form's chart changes rest on, as pairs that must
    be equal: (bundle, cr + j - 1, col, D(z; z), deg(F_j) * V) for every
    divided entry D of the differential row of each selected j, V the
    divided value entry of row j - 1 in the same column. That is Euler's
    relation for the undivided entries, kept by dividing both by the
    column's power of z. D(z; z) is sum_k z_k * [dz_k]D, by products, in
    every mode. An entry not linear in dz gives no pairs and the witness
    {row, col, entry_not_linear_in_dz}."""
    N, fld = fam.shape.N, fam.field
    n1, cr = N + 1, fam.shape.c + fam.shape.r
    rows, degrees = form.matrix.rows, fam.section_degrees()
    cols = [col for col in range(len(rows[0]) + 1) if col != form.omit]
    pairs: List[Pair] = []
    for t, j in zip(form.matrix_rows[cr:], form.selection):
        for col, D, V in zip(cols, rows[t], rows[j - 1]):
            parts: Dict[int, dict] = {}  # k -> the terms of [dz_k]D
            for exp, c in D.terms.items():
                if sum(exp[n1:]) != 1:
                    return [], dict(row=cr + j - 1, col=col,
                                    entry_not_linear_in_dz=to_literal(D)[:400])
                parts.setdefault(exp.index(1, n1) - n1, {})[exp[:n1] + (0,) * n1] = c
            d_zz = sum((MultiPoly.z(N, k, fld) * MultiPoly(N, fld, part)
                        for k, part in parts.items()), MultiPoly.zero(N, fld))
            pairs.append((bundle, cr + j - 1, col, d_zz, V.scale(degrees[j - 1])))
    return pairs, None


def verify_transition(fam: SectionFamily | FamilyData, selection: Sequence[int], omit: int,
                      l1: int, l2: int, mode: str = "exact",
                      which: Optional[Tuple] = None, kind: Optional[str] = None,
                      seed: int = 0) -> dict:
    """Chart-change identities for one extracted form: exactly the checks
    "transition" and "transition exponent".

    For G the signed divided determinant with column `omit` removed:
      transition   G(z, w_l(dz)) == z_l^n * G(z, dz) on every chart l,
                   where w_l(dz_k) = z_l dz_k - dz_l z_k, and so
                   z_{l2}^n * G(z, w_{l1}) == z_{l1}^n * G(z, w_{l2});
      exponent     z-degree + dz-degree of G equals the twist plus the
                   omitted column's divisor share plus the coefficient
                   twists, independently recomputed.
    The transition rests on one hypothesis (_transition_pairs): a divided
    differential entry D linear in dz with D(z; z) == deg(F_j) * V gives
    D(z; w_l) == z_l * D - dz_l * deg(F_j) * V, and subtracting multiples
    of the value rows turns the rows of G(w_l) into z_l times those of G.
    _check_hypothesis compares its pairs, in order in exact mode and at
    seeded points (stage "transition") in probabilistic mode, and that one
    comparison covers every chart, l1 == l2 included: the charts are
    range-checked and echoed, and do not enter it. An entry not linear in
    dz fails it in either mode. Neither mode expands G or takes a
    determinant. The exponent check reads the z-degree that extract_forms
    enforces, so it runs in every mode and also on a zero G. A chart
    outside 0..N raises ValueError.
    """
    data = FamilyData.of(fam)
    fam = data.family
    if mode not in ("exact", "probabilistic"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (0 <= l1 <= fam.shape.N and 0 <= l2 <= fam.shape.N):
        raise ValueError("chart out of range")
    K = data.matrices
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("transition", [guard], omit=omit, charts=(l1, l2))
    form = extract_forms(K if which is None else data.selected(which), [selection],
                         omit=omit, kind=kind)[0]
    pairs, nonlinear = _transition_pairs(form, fam, _label(which))
    checks = [_check("transition", "fail", mode, witness=nonlinear) if nonlinear
              else _check_hypothesis("transition", pairs, fam, mode, seed, "transition")]

    # extract_forms holds every divided entry, so every term of G, to this z-degree
    observed = form.z_degree + form.dz_degree
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
                      p: int) -> List[List[int]]:
    """The (N+1) x dim matrix of monomial values and tangent derivatives, mod p.

    Row 0 evaluates every degree-d monomial m at z; row 1+t evaluates its
    differential at (z, tangents[t]).
    """
    zero = (0,) * (N + 1)
    polys = [MultiPoly.monomial(N, QQ, 1, e) for e in monomial_basis(N, d)]
    values = EvalPlan(polys, p)
    differentials = EvalPlan([total_differential(f) for f in polys], p)
    return [values(z, zero)] + differentials.at_points([list(z) + list(v) for v in tangents]).tolist()


def verify_surjectivity(N: int, d: int, trials: int = 100, seed: int = 0) -> dict:
    """Full-rank check for the evaluation map at random points.

    At each sampled nonzero point z over F_p, p = SURJECTIVITY_PRIME, and a
    random completion of z to a basis by N tangent vectors, the
    (N+1) x C(N+d, N) evaluation matrix must have rank N+1. N < 1 leaves no
    nonzero point and is refused.
    """
    if N < 1:
        raise ValueError(f"need N at least 1, got {N}")
    if d < 1:
        raise ValueError("need degree at least 1")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    p = SURJECTIVITY_PRIME
    witness = None
    for t in range(trials):
        rng = child_rng(seed, "surjectivity", t)
        z = [0] * (N + 1)
        while not any(z):
            z = [rng.randrange(p) for _ in range(N + 1)]
        while True:
            tangents = [[rng.randrange(p) for _ in range(N + 1)] for _ in range(N)]
            if rank_mod_p([z] + tangents, p) == N + 1:
                break
        mat = evaluation_matrix(N, d, z, tangents, p)
        rank = rank_mod_p(mat, p)
        if rank != N + 1:
            witness = {"trial": t, "z": z, "rank": rank}
            break
    checks = [_check("evaluation rank", "fail" if witness else "pass",
                     "numeric", trials, witness)]
    return _report("surjectivity", checks, N=N, d=d, dim=comb(N + d, N), p=p)


# ----- hidden forms -----


def verify_hidden(fam: SectionFamily, vanished: Sequence[int],
                  selection: Sequence[int]) -> dict:
    """The gluing hypothesis and the twist increment on a vanishing locus.

    With eta coordinates killed, the restricted bundle must satisfy the
    gluing hypothesis (_hypothesis_pairs, the check "hypothesis"), and so
    must each K_nu / K_tau_rho layout of an mcm family, on its own pairs
    ("hypothesis <layout>"); the extracted twist must be the unrestricted
    twist plus sum(lambda_v - 1) over the killed coordinates (general
    families) or the depth-eta ledger entry (mcm). Depth 0 and depth
    eta >= n raise ValueError (the latter in build_matrices): with nothing
    killed there is no hidden form, and from depth n on no form is
    defined, so either report would pass without testing anything.
    """
    if not vanished:
        raise ValueError("hidden forms need at least one vanished coordinate")
    hidden = build_matrices(fam, vanished)
    vanished, eta = hidden.vanished, hidden.eta()
    guard = _characteristic_skip(fam)
    if guard is not None:
        return _report("hidden", [guard], eta=eta)
    selection = _check_selection(fam.shape, eta, selection)
    checks = [_check_hypothesis("hypothesis", _hypothesis_pairs(
        hidden, _label(("hidden",) + vanished)), fam, "exact")]
    if fam.mode == "general_fermat":
        form = extract_forms(hidden, [selection], omit=0, kind="omega")[0]
        expected = fermat_heart_prime(fam.degrees, fam.lambdas, selection) \
            + sum(fam.lambdas[v] - 1 for v in vanished)
        ok = form.twist == expected
        checks.append(_check("twist increment", "pass" if ok else "fail",
                             witness=None if ok else {"twist": form.twist,
                                                      "expected": expected}))
    else:
        for kind, params, _ in selection_layouts(len(hidden.retained) - 1):
            which = (kind,) + params
            label = _label(which)
            K = build_selected(hidden, which)
            checks.append(_check_hypothesis(f"hypothesis {label}", _hypothesis_pairs(K, label),
                                            fam, "exact"))
            # extract_forms takes the twist from the ledger and raises when
            # the row degrees and divisors give another one
            witness = None
            try:
                extract_forms(K, [selection], omit=0)
            except DegreeClaimFailed as err:
                if err.quantity != "twist":
                    raise
                witness = {"twist": err.observed, "ledger": err.expected}
            checks.append(_check(f"twist {label}", "fail" if witness else "pass",
                                 witness=witness))
    return _report("hidden", checks, eta=eta, vanished=list(vanished))
