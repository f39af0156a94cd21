"""Finite-field geometry: point scans, rank-condition membership, censuses.

Everything here works over a small prime field F_p. Projective points are
normalized so the first nonzero coordinate equals 1; tangent directions are
vectors modulo the Euler direction at the base point, canonically reduced.
The rank-condition variety M(a, b) collects the b x 2(a+1) matrices with
column blocks alpha_0..alpha_a, beta_0..beta_a satisfying the zero-sum and
rank inequalities; its census counts members exhaustively (vectorized over
F_2) or by sampling, and compares against the codimension bound
q^(dim - (a+b-1) + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import log
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact_algebra import EvalPlan, MultiPoly, deriv, det_mod_p, gradient_rows
from .section_builder import (
    SectionFamily,
    _combine_columns,
    build_matrices,
    column_layout,
    divisor_exponent,
    selection_layouts,
)
from .util import child_rng, chunks, kernel_basis_mod_p, rank_mod_p


@dataclass(frozen=True)
class ProjPoint:
    """A normalized point of P^N(F_p): first nonzero coordinate is 1."""

    coords: Tuple[int, ...]
    p: int

    def __post_init__(self):
        if not any(self.coords):
            raise ValueError("projective point cannot be the zero vector")
        lead = next(c for c in self.coords if c)
        if lead % self.p != 1:
            raise ValueError("point is not normalized")

    @staticmethod
    def normalize(vec: Sequence[int], p: int) -> "ProjPoint":
        vec = [v % p for v in vec]
        lead = next((v for v in vec if v), None)
        if lead is None:
            raise ValueError("projective point cannot be the zero vector")
        inv = pow(lead, p - 2, p)
        return ProjPoint(tuple((v * inv) % p for v in vec), p)


@dataclass(frozen=True)
class TangentDirection:
    """A tangent direction at a point: a vector modulo the Euler direction,
    with the base-point slot zeroed and the first nonzero entry scaled to 1."""

    xi: Tuple[int, ...]


@dataclass(frozen=True)
class Cutout:
    """Bare homogeneous equations in P^N, for point and smoothness scans
    that do not need the full family bookkeeping."""

    N: int
    field: object
    sections: Tuple[MultiPoly, ...]


def _scan_dimensions(fam) -> Tuple[int, int]:
    """(ambient N, expected Jacobian rank) for a family or a Cutout."""
    if isinstance(fam, Cutout):
        return fam.N, len(fam.sections)
    return fam.shape.N, fam.shape.c + fam.shape.r


@dataclass(frozen=True)
class RankConditionMatrix:
    """A b x 2(a+1) matrix over F_p, rows as tuples; columns are read as
    the blocks alpha_0..alpha_a | beta_0..beta_a."""

    rows: Tuple[Tuple[int, ...], ...]
    p: int

    def __post_init__(self):
        width = len(self.rows[0])
        if width % 2 or any(len(r) != width for r in self.rows):
            raise ValueError("need a b x 2(a+1) matrix")
        if not (2 <= self.a <= self.b):
            raise ValueError(f"need 2 <= a <= b, got a={self.a}, b={self.b}")

    @property
    def b(self) -> int:
        return len(self.rows)

    @property
    def a(self) -> int:
        return len(self.rows[0]) // 2 - 1

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(row[j] % self.p for row in self.rows)

    def alpha(self, j: int) -> Tuple[int, ...]:
        return self.column(j)

    def beta(self, j: int) -> Tuple[int, ...]:
        return self.column(self.a + 1 + j)


# ----- projective enumeration -----


def proj_points(N: int, p: int) -> List[ProjPoint]:
    """All (p^(N+1) - 1)/(p - 1) points of P^N(F_p), normalized."""
    out = []
    for lead in range(N + 1):
        for tail in product(range(p), repeat=N - lead):
            coords = (0,) * lead + (1,) + tail
            out.append(ProjPoint(coords, p))
    return out


def points_on_X(fam: Optional[SectionFamily], q: int, N: Optional[int] = None,
                support: Optional[Sequence[int]] = None) -> List[ProjPoint]:
    """The F_q-points of the common zero locus of the family's sections.

    With fam=None (and N given) no equations are imposed and the whole
    projective space is returned. With `support` given, only the points
    whose nonzero coordinates are exactly those listed are kept, and the
    sections are evaluated at those alone.
    """
    if fam is None:
        if N is None:
            raise ValueError("need N when no family is given")
        return proj_points(N, q)
    if fam.field.p not in (0, q):
        raise ValueError(f"family lives over F_{fam.field.p}, not F_{q}")
    N, _ = _scan_dimensions(fam)
    zero_dz = [0] * (N + 1)
    sections = EvalPlan(fam.sections, q)
    points = proj_points(N, q)
    if support is not None:
        support = set(support)
        points = [pt for pt in points
                  if all((x != 0) == (k in support) for k, x in enumerate(pt.coords))]
    return [pt for pt in points if not any(sections(pt.coords, zero_dz))]


def jacobian_at(fam: SectionFamily, z: Sequence[int], q: int,
                grads: Optional[EvalPlan] = None) -> List[List[int]]:
    """The (c+r) x (N+1) matrix (dF_i/dz_j)(z) over F_q. grads is
    gradient_plan(fam, q), for callers that compile it once for many points."""
    N, _ = _scan_dimensions(fam)
    if grads is None:
        grads = gradient_plan(fam, q)
    return chunks(grads(z, [0] * (N + 1)), N + 1)


def section_gradients(fam: SectionFamily) -> List[List[MultiPoly]]:
    N, _ = _scan_dimensions(fam)
    return [[deriv(F, j) for j in range(N + 1)] for F in fam.sections]


def gradient_plan(fam: SectionFamily, q: int, rows: Optional[int] = None) -> EvalPlan:
    """The partials dF_i/dz_j of the first `rows` sections (default all),
    row-major, compiled for evaluation mod q."""
    return EvalPlan([g for row in section_gradients(fam)[:rows] for g in row], q)


def smoothness_check(fam: SectionFamily, q: int) -> dict:
    """Rank of the Jacobian at every F_q-point of X; full rank everywhere
    means no F_q-witness of singularity."""
    _, cr = _scan_dimensions(fam)
    grads = gradient_plan(fam, q)
    singular = []
    pts = points_on_X(fam, q)
    for pt in pts:
        jac = jacobian_at(fam, pt.coords, q, grads)
        rank = rank_mod_p(jac, q)
        if rank != cr:
            singular.append({"z": list(pt.coords), "rank": rank})
    return {
        "op": "smoothness",
        "ok": not singular,
        "q": q,
        "points": len(pts),
        "expected_rank": cr,
        "singular": singular,
    }


def smoothness_with_resampling(shape, mode: str, field, schedule=None, seed: int = 0,
                               q: Optional[int] = None, attempts: int = 8, **build_kwargs) -> dict:
    """Build a family and scan it; on a singular verdict, rebuild with the
    next derived seed, up to `attempts` times. Mirrors generic-choice claims."""
    from .section_builder import build_sections

    q = q or field.p
    last = None
    for k in range(attempts):
        fam_seed = child_rng(seed, "smoothness-resample", k).randrange(2**31)
        fam = build_sections(shape, mode, field=field, schedule=schedule,
                             seed=fam_seed, **build_kwargs)
        rep = smoothness_check(fam, q)
        rep["attempt"] = k
        rep["family_seed"] = fam_seed
        if rep["ok"]:
            return rep
        last = rep
    return last


# ----- tangent directions -----


def canonical_direction(z: Sequence[int], xi: Sequence[int], p: int) -> Optional[TangentDirection]:
    """Reduce xi modulo the Euler direction z and projective scaling.

    The slot of z's first nonzero coordinate is zeroed by subtracting a
    multiple of z; the remainder is scaled so its first nonzero entry is 1.
    Returns None when xi is proportional to z.
    """
    lead = next(i for i, v in enumerate(z) if v % p)
    t = (xi[lead] * pow(z[lead], p - 2, p)) % p
    w = [(x - t * zi) % p for x, zi in zip(xi, z)]
    head = next((v for v in w if v), None)
    if head is None:
        return None
    inv = pow(head, p - 2, p)
    return TangentDirection(tuple((v * inv) % p for v in w))


def tangent_directions(z: Sequence[int], constraint_rows: Sequence[Sequence[int]],
                       p: int) -> List[TangentDirection]:
    """All directions [xi] with M xi = 0, modulo Euler and scaling."""
    N1 = len(z)
    basis = kernel_basis_mod_p(constraint_rows, p, N1) if constraint_rows else \
        [[1 if i == j else 0 for i in range(N1)] for j in range(N1)]
    seen = {}
    k = len(basis)
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            v = [sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(N1)]
            d = canonical_direction(z, v, p)
            if d is not None:
                seen[d.xi] = d
    return [seen[key] for key in sorted(seen)]


# ----- rank-condition membership -----


def _vec_add(*vecs: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(col) for col in zip(*vecs))


def _rank_cols(cols: Sequence[Sequence[int]], p: int) -> int:
    return rank_mod_p(list(cols), p)


def membership_M_ab(M: RankConditionMatrix) -> bool:
    """The zero-column-sum and rank conditions, as displayed.

    (i)   all 2a+2 columns sum to zero;
    (ii)  for every K_nu and (iii) every K_tau_rho column layout at top
          level a (section_builder.column_layout), with the alphas as the
          A and the betas as the B columns, the combined columns have
          rank <= a-1.
    """
    a, p = M.a, M.p
    alphas = [M.alpha(j) for j in range(a + 1)]
    betas = [M.beta(j) for j in range(a + 1)]
    total = _vec_add(*alphas, *betas)
    if any(v % p for v in total):
        return False
    memo: dict = {}
    return all(
        _rank_cols(_combine_columns(layout, alphas, betas, _vec_add, memo), p) <= a - 1
        for _, _, layout in selection_layouts(a)
    )


def membership_M_ab_alt(M: RankConditionMatrix) -> bool:
    """The reformulation in the partial sums S_i = sum_{j >= i} beta_j.

    The zero-sum condition lets alpha_0 be dropped from the rank sets; the
    beta blocks enter only through consecutive differences S_i - S_{i+1}.
    Must agree with membership_M_ab everywhere.
    """
    a, b, p = M.a, M.b, M.p
    alphas = [M.alpha(j) for j in range(a + 1)]
    betas = [M.beta(j) for j in range(a + 1)]
    total = _vec_add(*alphas, *betas)
    if any(v % p for v in total):
        return False
    S = [None] * (a + 2)
    S[a + 1] = (0,) * b
    for i in range(a, -1, -1):
        S[i] = _vec_add(S[i + 1], betas[i])
    for nu in range(a + 1):
        cols = [alphas[j] for j in range(1, a + 1) if j != nu]
        cols.append(_vec_add(alphas[nu], S[0]))
        if _rank_cols(cols, p) > a - 1:
            return False
    for tau in range(a):
        for rho in range(tau + 1, a + 1):
            cols = [
                _vec_add(alphas[k], S[k], tuple(-x for x in S[k + 1]))
                for k in range(1, tau + 1)
            ]
            cols += [alphas[j] for j in range(tau + 1, a + 1) if j != rho]
            cols.append(_vec_add(alphas[rho], S[tau + 1]))
            if _rank_cols(cols, p) > a - 1:
                return False
    return True


def random_rank_matrix(a: int, b: int, p: int, rng, constrained: bool = False) -> RankConditionMatrix:
    """Uniform random b x 2(a+1) matrix; with constrained=True the alpha_0
    column is solved so that the columns sum to zero."""
    width = 2 * (a + 1)
    rows = [[rng.randrange(p) for _ in range(width)] for _ in range(b)]
    if constrained:
        for row in rows:
            row[0] = -sum(row[1:]) % p
    return RankConditionMatrix(tuple(tuple(r) for r in rows), p)


# ----- rank-condition census -----


def _rank_lut_F2(b: int, k: int) -> np.ndarray:
    """Rank over F_2 of every k-tuple of b-bit column vectors, indexed by
    the concatenated 2^(b*k) key."""
    lut = np.zeros(1 << (b * k), dtype=np.int8)
    mask = (1 << b) - 1
    for key in range(1 << (b * k)):
        basis = []
        for i in range(k):
            v = (key >> (b * i)) & mask
            for u in basis:
                v = min(v, v ^ u)
            if v:
                basis.append(v)
        lut[key] = len(basis)
    return lut


def _census_exhaustive_F2(a: int, b: int) -> int:
    """Vectorized count of members over F_2: the free columns
    alpha_1..alpha_a, beta_0..beta_a are enumerated as bit fields and
    alpha_0 is the xor forced by the zero-sum condition."""
    nfree = 2 * a + 1
    idx = np.arange(1 << (b * nfree), dtype=np.int64)
    mask = (1 << b) - 1
    # columns in the smallest dtype that holds b bits; keys are int64
    free = [((idx >> (b * i)) & mask).astype(np.min_scalar_type(mask)) for i in range(nfree)]
    a0 = np.zeros_like(free[0])
    for col in free:
        a0 ^= col
    alphas = [a0] + free[:a]
    betas = free[a:]

    lut = _rank_lut_F2(b, a + 1)

    def pack(cols):
        key = cols[0].astype(np.int64)
        for i, col in enumerate(cols[1:], start=1):
            key |= col.astype(np.int64) << (b * i)
        return key

    ok = np.ones(idx.shape, dtype=bool)
    memo: dict = {}
    for _, _, layout in selection_layouts(a):
        ok &= lut[pack(_combine_columns(layout, alphas, betas, np.bitwise_xor, memo))] <= a - 1
    return int(ok.sum())


def _census_exhaustive_generic(a: int, b: int, q: int) -> int:
    """Scalar count with the zero-sum condition imposed up front. Columns
    are coded by their index in F_q^b and summed through an addition table;
    ranks are memoized on sorted column multisets."""
    col_space = list(product(range(q), repeat=b))
    index = {v: i for i, v in enumerate(col_space)}
    add_table = [[index[tuple((u + w) % q for u, w in zip(x, y))] for y in col_space]
                 for x in col_space]
    negate = [index[tuple(-u % q for u in x)] for x in col_space]
    layouts = [layout for _, _, layout in selection_layouts(a)]
    rank_cache: Dict[Tuple[int, ...], int] = {}

    def add(x: int, y: int) -> int:
        return add_table[x][y]

    def cached_rank(cols: List[int]) -> int:
        key = tuple(sorted(cols))
        r = rank_cache.get(key)
        if r is None:
            r = rank_cache[key] = _rank_cols([col_space[i] for i in key], q)
        return r

    count = 0
    for free in product(range(len(col_space)), repeat=2 * a + 1):
        total = 0  # index of the zero column
        for col in free:
            total = add_table[total][col]
        alphas = (negate[total],) + free[:a]
        betas = free[a:]
        memo: dict = {}
        if all(cached_rank(_combine_columns(layout, alphas, betas, add, memo)) <= a - 1
               for layout in layouts):
            count += 1
    return count


def rank_condition_census(a: int, b: int, q: int, mode: str = "exhaustive",
                      sample_size: int = 100_000, seed: int = 0,
                      budget: int = 2 ** 28) -> dict:
    """Member count of the rank-condition variety versus the codimension
    bound q^(dim - (a+b-1) + 1).

    Exhaustive mode enumerates the whole matrix space (vectorized bit
    arithmetic over F_2, memoized scalar scan otherwise); above the budget
    it falls back to uniform sampling and reports the extrapolated count.
    """
    if not (2 <= a <= b):
        raise ValueError("need 2 <= a <= b")
    dim = 2 * b * (a + 1)
    total = q ** dim
    codim_target = a + b - 1
    bound = q ** (dim - codim_target + 1)
    forced = False
    if mode == "exhaustive" and total > budget:
        mode = "sample"
        forced = True

    if mode == "exhaustive":
        if q == 2:
            count = _census_exhaustive_F2(a, b)
        else:
            count = _census_exhaustive_generic(a, b, q)
        verdict = "pass" if count <= bound else "fail"
        exact = True
    elif mode == "sample":
        rng = child_rng(seed, "census", f"{a},{b},{q}")
        hits = 0
        for _ in range(sample_size):
            M = random_rank_matrix(a, b, q, rng)
            if membership_M_ab(M):
                hits += 1
        count = round(hits * total / sample_size)
        verdict = "pass" if count <= bound else "fail"
        exact = False
    else:
        raise ValueError(f"unknown mode {mode!r}")

    implied = None
    if count > 0:
        implied = dim - log(count, q)
    return {
        "op": "census",
        "a": a,
        "b": b,
        "q": q,
        "ambient_dim": dim,
        "count": count,
        "exact": exact,
        "mode": mode,
        "forced_sample": forced,
        "implied_codim": implied,
        "codim_target": codim_target,
        "bound": bound,
        "verdict": verdict,
        "ok": verdict == "pass",
    }


# ----- base locus scan -----


def base_locus_scan(fam: SectionFamily, forms: Sequence, q: int,
                    vanished: Sequence[int] = ()) -> dict:
    """Common zeros of the given forms over the coordinates-nonvanishing
    part of X, paired with tangent directions.

    Points run over X(F_q) with every retained coordinate nonzero (and every
    listed vanished coordinate zero); directions solve dF_1..dF_c = 0 at z
    modulo the Euler direction. Returns the vanishing pairs, per-point fiber
    counts, and any points where the tangent solve has wrong dimension.
    """
    shape = fam.shape
    N, c = shape.N, shape.c
    vanished = tuple(sorted(set(vanished)))
    retained = [i for i in range(N + 1) if i not in vanished]
    eta = len(vanished)
    grads = gradient_plan(fam, q, c)
    pairs = []
    fiber_counts: Dict[Tuple[int, ...], int] = {}
    singular_tangent = []
    points_used = 0
    directions_used = 0
    for pt in points_on_X(fam, q, support=retained):
        z = list(pt.coords)
        points_used += 1
        rows = chunks(grads(z, [0] * (N + 1)), N + 1)
        if eta:
            # directions live on the vanishing locus: xi_v = 0
            for v in vanished:
                unit = [0] * (N + 1)
                unit[v] = 1
                rows.append(unit)
        dirs = tangent_directions(z, rows, q)
        expected = N - c - eta
        expected_count = (q ** expected - 1) // (q - 1)
        if len(dirs) != expected_count:
            singular_tangent.append({"z": z, "directions": len(dirs)})
        count = 0
        for d in dirs:
            directions_used += 1
            vals = [f.evaluate_at(z, list(d.xi)) for f in forms]
            if all(v == 0 for v in vals):
                pairs.append({"z": z, "xi": list(d.xi)})
                count += 1
        if count:
            fiber_counts[tuple(z)] = count
    return {
        "op": "base-locus",
        "q": q,
        "points": points_used,
        "directions": directions_used,
        "base_pairs": pairs,
        "base_count": len(pairs),
        "fiber_counts": {str(list(k)): v for k, v in sorted(fiber_counts.items())},
        "singular_tangent": singular_tangent,
        "ok": not singular_tangent,
    }


# ----- characterization crosscheck -----


def _numeric_selected_columns(fam: SectionFamily, Mnum: List[List[int]],
                              z: Sequence[int], kind: str, params: Tuple[int, ...],
                              q: int) -> Tuple[List[List[int]], List[int]]:
    """Columns of the K_nu / K_tau_rho combination of the numeric matrix,
    divided by the declared coordinate powers (legal: all z_i != 0)."""
    N = fam.shape.N
    layout = column_layout(kind, tuple(params), N)
    A = [[row[j] for row in Mnum] for j in range(N + 1)]
    B = [[row[N + 1 + j] for row in Mnum] for j in range(N + 1)]
    combined = _combine_columns(layout, A, B,
                               lambda x, y: [(u + v) % q for u, v in zip(x, y)])
    cols = []
    exps = []
    for col, vec in zip(layout, combined):
        e = divisor_exponent(col, fam.schedule, N)
        inv = pow(z[col.a], (e - 1) * (q - 2), q)
        cols.append([(x * inv) % q for x in vec])
        exps.append(e)
    return cols, exps


def _forms_vanish_numeric(fam: SectionFamily, Mnum: List[List[int]],
                          z: Sequence[int], q: int) -> bool:
    """All divided determinant forms (every K_nu, K_tau_rho and row
    selection, one chart each) vanish at the evaluated matrix."""
    shape = fam.shape
    N, c, r = shape.N, shape.c, shape.r
    cr = c + r
    if shape.n != 1:
        raise ValueError("crosscheck expects n = 1 families")
    for kind, params, _ in selection_layouts(N):
        cols, _ = _numeric_selected_columns(fam, Mnum, z, kind, params, q)
        for j in range(1, c + 1):
            rows = list(range(cr)) + [cr + j - 1]
            mat = [[cols[jc][ri] for jc in range(1, N + 1)] for ri in rows]
            if det_mod_p(mat, q) % q != 0:
                return False
    return True


def characterization_crosscheck(fam: SectionFamily, q: int, sample: int = 10_000,
                                seed: int = 0) -> dict:
    """Agreement between 'all forms vanish' and rank-condition membership.

    Pairs (z, [xi]) run over the all-coordinates-nonzero points of P^N and
    all tangent directions modulo Euler. For each sampled pair the numeric
    2c+r x 2N+2 matrix is evaluated; membership implies the incidence
    equations (z on X, xi tangent), so off-incidence pairs agree trivially
    and are counted in bulk; on incidence pairs both sides are computed in
    full and disagreements are reported as witnesses.
    """
    shape = fam.shape
    N, c, r = shape.N, shape.c, shape.r
    if fam.mode != "mcm":
        raise ValueError("crosscheck is defined for mcm families")
    cr = c + r
    K = build_matrices(fam)
    zero_dz = [0] * (N + 1)

    zs = [(1,) + tail for tail in product(range(1, q), repeat=N)]
    n_dirs = (q ** N - 1) // (q - 1)
    dirs: List[Tuple[int, ...]] = []
    for lead in range(1, N + 1):
        for tail in product(range(q), repeat=N - lead):
            dirs.append((0,) * lead + (1,) + tail)
    assert len(dirs) == n_dirs

    total = len(zs) * n_dirs
    take = min(sample, total)
    rng = child_rng(seed, "crosscheck", 0)
    chosen = sorted(rng.sample(range(total), take)) if take < total else range(total)

    # at a point on X: the gradients of the first c sections, the value
    # rows of K, and the dz-coefficients of each differential-row entry
    sections = EvalPlan(fam.sections, q)
    on_X = EvalPlan(
        [g for row in section_gradients(fam)[:c] for g in row]
        + [e for row in K.entries[:cr] for e in row]
        + [g for row in K.entries[cr:] for e in row for g in gradient_rows(e)], q)
    n_grad, n_values = c * (N + 1), cr * K.ncols
    value_cache: Dict[int, dict] = {}

    def z_data(zi: int) -> dict:
        data = value_cache.get(zi)
        if data is not None:
            return data
        z = list(zs[zi])
        data = {"z": z, "on_X": not any(sections(z, zero_dz))}
        if data["on_X"]:
            vals = on_X(z, zero_dz)
            data["grad"] = chunks(vals[:n_grad], N + 1)
            data["values"] = chunks(vals[n_grad:n_grad + n_values], K.ncols)
            data["diff_grads"] = chunks(chunks(vals[n_grad + n_values:], N + 1), K.ncols)
        value_cache[zi] = data
        return data

    agree = 0
    incidence = 0
    vanish_and_member = 0
    vanish_not_member = 0
    member_not_vanish = 0
    disagreements = []
    for pair_idx in chosen:
        zi, di = divmod(pair_idx, n_dirs)
        data = z_data(zi)
        if not data["on_X"]:
            agree += 1  # both sides false: the value rows cannot sum to zero
            continue
        z = data["z"]
        xi = list(dirs[di])
        tangent = all(
            sum(g * x for g, x in zip(row, xi)) % q == 0 for row in data["grad"]
        )
        if not tangent:
            agree += 1  # both sides false: a differential row sums to dF(z, xi) != 0
            continue
        incidence += 1
        Mnum = [list(row) for row in data["values"]]
        for i in range(c):
            Mnum.append([
                sum(g * x for g, x in zip(data["diff_grads"][i][col], xi)) % q
                for col in range(K.ncols)
            ])
        member = membership_M_ab(
            RankConditionMatrix(tuple(tuple(v % q for v in row) for row in Mnum), q))
        vanish = _forms_vanish_numeric(fam, Mnum, z, q)
        if vanish and member:
            vanish_and_member += 1
        elif vanish and not member:
            vanish_not_member += 1
        elif member and not vanish:
            member_not_vanish += 1
        if vanish == member:
            agree += 1
        elif len(disagreements) < 10:
            disagreements.append({"z": z, "xi": xi, "vanish": vanish,
                                  "member": member})
    return {
        "op": "crosscheck",
        "q": q,
        "samples": take,
        "total_pairs": total,
        "incidence_pairs": incidence,
        "agree": agree,
        "rate": agree / take if take else 1.0,
        "vanish_and_member": vanish_and_member,
        "vanish_not_member": vanish_not_member,
        "member_not_vanish": member_not_vanish,
        "disagreements": disagreements,
        "ok": member_not_vanish == 0,
    }
