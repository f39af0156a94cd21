"""Degree arithmetic for product decompositions.

Splits d = p*s + q*(s+1) over the numerical semigroup generated by s and
s+1 (every d >= s(s-1) splits; the largest gap is s(s-1)-1), computes the
exact big-integer comparison d0*(d0+1) < N^(N^2), and verifies pointwise
over F_q that the incidence locus of factored sections decomposes into the
union of factor-level pieces.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Sequence, Tuple

from .exact_algebra import EvalPlan, MultiPoly, total_differential
from .finite_geometry import proj_points, tangent_directions
from .schedule import ProblemShape, nn2_threshold


class NoRepresentation(ValueError):
    """d has no expression p*s + q*(s+1) with nonnegative p, q."""


def frobenius_split(d: int, s: int) -> Tuple[int, int]:
    """The q-minimal split d = p*s + q*(s+1) with p, q >= 0.

    q must equal d mod s, so the minimal candidate is q = d mod s; if that
    leaves p < 0 no larger candidate can work. Existence is guaranteed for
    d >= s(s-1).
    """
    if d < 0 or s < 2:
        raise ValueError("need d >= 0 and s >= 2")
    q = d % s
    p = (d - q * (s + 1)) // s
    if p < 0:
        raise NoRepresentation(f"{d} is not p*{s} + q*{s + 1} with p, q >= 0")
    return p, q


def verify_semigroup_bound(s: int, horizon: int) -> dict:
    """Exhaustive split check on [0, horizon] against the threshold s(s-1).

    Every d at or above the threshold must split; the unrepresentable d
    below it are listed (the largest is always s(s-1)-1 for s >= 2). A
    split that does not give back d with 0 <= q <= s-1 is listed under
    bad_splits as [d, p, q] and fails the check.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    threshold = s * (s - 1)
    if horizon < threshold:
        raise ValueError(f"horizon {horizon} is below the threshold {threshold}")
    failures_above = []
    failures_below = []
    bad_splits = []
    for d in range(horizon + 1):
        try:
            p, q = frobenius_split(d, s)
        except NoRepresentation:
            (failures_below if d < threshold else failures_above).append(d)
            continue
        if d != p * s + q * (s + 1) or not 0 <= q <= s - 1:
            bad_splits.append([d, p, q])
    return {
        "op": "semigroup-bound",
        "s": s,
        "horizon": horizon,
        "threshold": threshold,
        "gaps_below_threshold": failures_below,
        "failures_at_or_above": failures_above,
        "bad_splits": bad_splits,
        "ok": not failures_above and not bad_splits,
    }


def effective_bound_NN2(N: int) -> dict:
    """Check d0*(d0+1) < N^(N^2) for the reference degree d0 = N^(N^2/2) - 1.

    This is the product-coup inequality. schedule.effective_bound_report
    checks another one, d < N^(N^2/2) - 1 for the schedule degree d; both
    read d0 and N^(N^2) from schedule.nn2_threshold.

    For N <= 2 the bound holds trivially at d = N^(N^2). For even N^2 the
    comparison is exact big-integer arithmetic. For odd N^2 the exponent
    N^2/2 is fractional: both integerized thresholds s = d0 + 1 (the ceil
    and the floor of N^(N^2/2)) are reported next to the algebraically true
    real form (x-1)x < x^2; neither integerization overrides the other.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    thr = nn2_threshold(N)
    exponent = N * N
    bound = thr["big"]
    report = {"op": "effective-bound", "N": N, "exponent": exponent, "bound": bound}
    if N <= 2:
        report.update({
            "parity": "trivial",
            "note": f"bound holds trivially at d = {bound}",
            "verdict": "PASS",
            "flagged": False,
            "ok": True,
        })
        return report
    if thr["parity"] == "even":
        d0 = thr["d0"]
        prod = d0 * (d0 + 1)
        fits = prod < bound
        report.update({
            "parity": "even",
            "d0": d0,
            "product": prod,
            "comparison": f"{d0}*{d0 + 1} {'<' if fits else '>='} {N}^{exponent}",
            "verdict": "PASS" if fits else "FAIL",
            "flagged": not fits,
            "ok": fits,
        })
        return report
    variants = {}
    for name in ("floor", "ceil"):
        s = thr[f"d0_{name}"] + 1
        prod = s * (s - 1)
        fits = prod < bound
        variants[name] = {
            "s": s,
            "product": prod,
            "comparison": f"{s}*{s - 1} {'<' if fits else '>='} {N}^{exponent}",
            "verdict": "PASS" if fits else "FAIL",
        }
    report.update({
        "parity": "odd",
        "sqrt_floor": variants["floor"]["s"],
        "floor_variant": variants["floor"],
        "ceil_variant": variants["ceil"],
        "real_form": {"inequality": "(x-1)*x < x^2 for x = N^(N^2/2) > 1", "verdict": "PASS"},
        "flagged": any(v["verdict"] == "FAIL" for v in variants.values()),
        "ok": True,
    })
    return report


# ----- pointwise product decomposition -----


def _pieces(factor_counts: Sequence[int], c: int) -> List[Tuple]:
    """All decomposition pieces: for each subset of the first c indices a
    factor choice with full (value and differential) vanishing; for the
    complement a pair of distinct factors vanishing in value; for indices
    beyond c a single factor vanishing in value."""
    cr = len(factor_counts)
    out = []
    for k in range(c + 1):
        for subset in combinations(range(c), k):
            comp = [i for i in range(c) if i not in subset]
            full_choices = [range(factor_counts[i]) for i in subset]
            pair_choices = [list(combinations(range(factor_counts[i]), 2)) for i in comp]
            single_choices = [range(factor_counts[i]) for i in range(c, cr)]
            for vs in product(*full_choices):
                for ws in product(*pair_choices):
                    for us in product(*single_choices):
                        out.append((
                            tuple(zip(subset, vs)),
                            tuple(zip(comp, ws)),
                            tuple(zip(range(c, cr), us)),
                        ))
    return out


def _split(values: List[int], counts: Sequence[int]) -> List[List[int]]:
    """values cut into consecutive runs of the given lengths."""
    out, start = [], 0
    for n in counts:
        out.append(values[start:start + n])
        start += n
    return out


def verify_product_decomposition(factors: Sequence[Sequence[MultiPoly]],
                                 shape: ProblemShape, q: int) -> dict:
    """Set equality between the incidence locus of the multiplied sections
    and the union of factor-level pieces, pointwise over F_q.

    The left side collects the pairs (z, [xi]) with F_i(z) = 0 for every i
    and dF_j(z, xi) = 0 for j <= c, where F_i is the product of the i-th
    factor list. The right side is the union over all pieces; mismatch
    witnesses are dumped both ways. Factors and products are evaluated at
    every point in one batched call, and the differentials at every pair
    in another. The tangent directions are walked once per index of a
    point's first nonzero coordinate, at most N + 1 walks.
    """
    cr = shape.c + shape.r
    if len(factors) != cr:
        raise ValueError(f"need {cr} factor lists, got {len(factors)}")
    if any(not fs for fs in factors):
        raise ValueError("every section needs at least one factor")
    N = shape.N
    c = shape.c
    zero_dz = [0] * (N + 1)

    Fs = []
    for fs in factors:
        F = fs[0]
        for g in fs[1:]:
            F = F * g
        Fs.append(F)
    counts = [len(fs) for fs in factors]
    # at z: every factor, then every product; at (z, xi): the differentials
    # of the first c products, then of their factors
    at_point = EvalPlan([f for fs in factors for f in fs] + Fs, q)
    at_direction = EvalPlan([total_differential(F) for F in Fs[:c]]
                            + [total_differential(f) for fs in factors[:c] for f in fs], q)

    points = [list(pt) for pt in proj_points(N, q)]
    point_vals = at_point.at_points([z + zero_dz for z in points]).tolist()
    factor_vals = [_split(vals, counts) for vals in point_vals]
    # with no constraint rows, the sorted directions at z depend on z only
    # through its first nonzero coordinate: one walk of P^N per lead index
    by_lead: dict = {}
    pairs = []
    for zi, z in enumerate(points):
        lead = next(i for i, v in enumerate(z) if v)
        if lead not in by_lead:
            by_lead[lead] = tangent_directions(z, [], q)
        pairs += [(zi, list(xi)) for xi in by_lead[lead]]
    pair_vals = at_direction.at_points([points[zi] + xi for zi, xi in pairs]).tolist()

    pieces = _pieces(counts, c)
    lhs_only = []
    rhs_only = []
    lhs_count = 0
    rhs_count = 0
    for (zi, xi), dvals in zip(pairs, pair_vals):
        z, fvals = points[zi], factor_vals[zi]
        in_lhs = not any(point_vals[zi][-cr:]) and not any(dvals[:c])
        fdiff = _split(dvals[c:], counts[:c])
        in_rhs = any(
            all(fvals[i][k] == 0 and fdiff[i][k] == 0 for i, k in full)
            and all(fvals[i][k1] == 0 and fvals[i][k2] == 0 for i, (k1, k2) in two)
            and all(fvals[i][k] == 0 for i, k in single)
            for full, two, single in pieces
        )
        lhs_count += in_lhs
        rhs_count += in_rhs
        if in_lhs and not in_rhs and len(lhs_only) < 10:
            lhs_only.append({"z": z, "xi": xi})
        if in_rhs and not in_lhs and len(rhs_only) < 10:
            rhs_only.append({"z": list(z), "xi": xi})
    return {
        "op": "product-coup",
        "q": q,
        "shape": {"N": N, "c": c, "r": shape.r},
        "factor_counts": [len(fs) for fs in factors],
        "pieces": len(pieces),
        "pairs": len(pairs),
        "lhs_count": lhs_count,
        "rhs_count": rhs_count,
        "only_lhs": lhs_only,
        "only_rhs": rhs_only,
        "ok": not lhs_only and not rhs_only and lhs_count == rhs_count,
    }
