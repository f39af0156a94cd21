"""Finite-field geometry: point scans, rank-condition membership, censuses.

Everything here works over a small prime field F_p. Projective points are
coordinate tuples whose first nonzero entry is 1; tangent directions are
tuples too, vectors modulo the Euler direction at the base point,
canonically reduced.
The rank-condition variety M(a, b) collects the b x 2(a+1) matrices with
column blocks alpha_0..alpha_a, beta_0..beta_a satisfying the zero-sum and
rank inequalities. Membership of one matrix, the exhaustive census and the
sampled census share one rank test, made after the zero sum: columns of
F_q^b are coded by their index and summed through an add table, each
K_nu / K_tau_rho layout drops its alpha_0 column (on a zero-sum matrix it
is minus the sum of the other a, so the rank is theirs), and the a
columns left are one lookup in an a-column rank table, folded from a span
automaton and built once per shape (_rank_tables), keyed by one key plan
per (a, kind) (_layout_keys). Membership takes that path while
(q^b)^(a+1) is at most CENSUS_TABLE_MAX and Gaussian elimination above
it; membership_M_ab_alt stays the independent oracle.
The census counts members exhaustively or by sampling, and compares
against the codimension bound q^(dim - (a+b-1) + 1). The exhaustive count
is factored: with alpha_0 dropped, the K_nu layouts see the betas only
through their sum and the K_tau_rho layouts never see beta_0, so it sums
N_nu(A) N_tau_rho(A) over A = (alpha_1..alpha_a). Base-locus and the
crosscheck walk the same incidence pairs (_incidence_points) and evaluate
the same standard_forms from their divided matrices; the crosscheck
visits every pair unless given a sample size. The scans take a family or
its FamilyData holder and keep their walks on the holder: the Jacobian
walk of X(F_q) (_jacobians), which smoothness_check reads and every
incidence walk filters, and the incidence walk per vanished set. So a
pipeline run, which passes one holder to every scan, evaluates X(F_q)
once and walks the incidence pairs once. Every scan, census and
rank-condition matrix rejects a composite q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product
from math import ceil, exp, lgamma, log, log1p
from operator import add, and_, sub
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exact_algebra import EvalPlan, Field, deriv
from .section_builder import (
    FamilyData,
    SectionFamily,
    _combine_columns,
    build_sections,
    selection_layouts,
)
from .util import child_rng, chunks, kernel_basis_mod_p, randrange_block, rank_mod_p


@dataclass(frozen=True)
class RankConditionMatrix:
    """A b x 2(a+1) matrix over F_p, rows as tuples; columns are read as
    the blocks alpha_0..alpha_a | beta_0..beta_a."""

    rows: Tuple[Tuple[int, ...], ...]
    p: int

    def __post_init__(self):
        # one pass over the row widths, and a and b from locals: the
        # crosscheck builds one matrix per incidence pair
        rows = self.rows
        _require_prime(self.p)
        width = len(rows[0]) if rows else 0
        if not width or width % 2 or len(set(map(len, rows))) != 1:
            raise ValueError("need a b x 2(a+1) matrix")
        a, b = width // 2 - 1, len(rows)
        if not 2 <= a <= b:
            raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")

    @property
    def b(self) -> int:
        return len(self.rows)

    @property
    def a(self) -> int:
        return len(self.rows[0]) // 2 - 1


# ----- projective enumeration -----


@lru_cache(maxsize=64)
def _require_prime(q: int) -> None:
    """Reject a q that is not a prime below 2**31 (Field reads 0 as Q).
    Cached, since every RankConditionMatrix checks its modulus."""
    if not Field(q).p:
        raise ValueError(f"need a prime q, got {q}")


def proj_points(N: int, p: int) -> List[Tuple[int, ...]]:
    """All (p^(N+1) - 1)/(p - 1) points of P^N(F_p), as coordinate tuples
    whose first nonzero entry is 1."""
    _require_prime(p)
    return [(0,) * lead + (1,) + tail
            for lead in range(N + 1) for tail in product(range(p), repeat=N - lead)]


def _at_z(plan: EvalPlan, points: Sequence[Tuple[int, ...]], N: int) -> np.ndarray:
    """The plan's values at each point z of P^N, with dz = 0, in one
    batched call: one row per point."""
    z = np.array(points, dtype=np.int64).reshape(-1, N + 1)
    return plan.at_points(np.hstack((z, np.zeros_like(z))))


def points_on_X(fam, q: int) -> List[Tuple[int, ...]]:
    """The F_q-points of the common zero locus of the sections of a family,
    the sections evaluated at every point of P^N(F_q) in one batched call."""
    if fam.field.p not in (0, q):
        raise ValueError(f"family lives over F_{fam.field.p}, not F_{q}")
    N = fam.shape.N
    points = proj_points(N, q)
    on_X = ~_at_z(EvalPlan(fam.sections, q), points, N).any(axis=1)
    return [pt for pt, keep in zip(points, on_X.tolist()) if keep]


def _jacobians(fam: SectionFamily, q: int) -> list:
    """(point, Jacobian rows) for each point of points_on_X(fam, q): the
    partials dF_i/dz_j of every section, compiled once and evaluated at
    every point in one batched call."""
    N = fam.shape.N
    grads = EvalPlan([deriv(F, j) for F in fam.sections for j in range(N + 1)], q)
    pts = points_on_X(fam, q)
    return [(pt, chunks(gradient, N + 1))
            for pt, gradient in zip(pts, _at_z(grads, pts, N).tolist())]


def _walk(data: FamilyData, q: int) -> list:
    """The holder's Jacobian walk of X(F_q), evaluated on first read."""
    return data.derived(("jacobians", q), lambda: _jacobians(data.family, q))


def smoothness_check(fam: SectionFamily | FamilyData, q: int) -> dict:
    """Rank of the Jacobian at every F_q-point of X; full rank everywhere
    means no F_q-witness of singularity. The walk stays on the holder,
    for the incidence walks of the scans."""
    data = FamilyData.of(fam)
    cr = data.family.shape.c + data.family.shape.r
    walk = _walk(data, q)
    singular = []
    for pt, jacobian in walk:
        rank = rank_mod_p(jacobian, q)
        if rank != cr:
            singular.append({"z": list(pt), "rank": rank})
    return {
        "op": "smoothness",
        "ok": not singular,
        "q": q,
        "points": len(walk),
        "expected_rank": cr,
        "singular": singular,
    }


def smoothness_with_resampling(shape, mode: str, field, schedule=None, seed: int = 0,
                               q: Optional[int] = None, attempts: int = 8, **build_kwargs) -> dict:
    """Build a family and scan it; on a singular verdict, rebuild with the
    next derived seed, up to `attempts` times (at least 1), and report the
    last scan. Mirrors generic-choice claims."""
    return _resample_smooth(lambda s: build_sections(shape, mode, field=field, schedule=schedule,
                                                     seed=s, **build_kwargs),
                            seed, q or field.p, attempts)[0]


def _resample_smooth(build: Callable[[int], SectionFamily], seed: int, q: int,
                     attempts: int = 8) -> Tuple[dict, FamilyData]:
    """smoothness_with_resampling's report on the families build(fam_seed)
    makes, with the holder of the last one scanned, which keeps its walk."""
    if attempts < 1:
        raise ValueError(f"need at least one attempt, got {attempts}")
    for k in range(attempts):
        fam_seed = child_rng(seed, "smoothness-resample", k).randrange(2**31)
        data = FamilyData(build(fam_seed))
        rep = smoothness_check(data, q)
        rep["attempt"] = k
        rep["family_seed"] = fam_seed
        if rep["ok"]:
            break
    return rep, data


# ----- tangent directions -----


def canonical_direction(z: Sequence[int], xi: Sequence[int], p: int) -> Optional[Tuple[int, ...]]:
    """Reduce xi modulo the Euler direction z and projective scaling.

    The slot of z's first nonzero coordinate is zeroed by subtracting a
    multiple of z; the remainder is scaled so its first nonzero entry is 1.
    Returns the reduced tuple, or None when xi is proportional to z.
    """
    lead = next(i for i, v in enumerate(z) if v % p)
    t = (xi[lead] * pow(z[lead], p - 2, p)) % p
    w = [(x - t * zi) % p for x, zi in zip(xi, z)]
    head = next((v for v in w if v), None)
    if head is None:
        return None
    inv = pow(head, p - 2, p)
    return tuple((v * inv) % p for v in w)


def tangent_directions(z: Sequence[int], constraint_rows: Sequence[Sequence[int]],
                       p: int) -> List[Tuple[int, ...]]:
    """All directions [xi] with M xi = 0, modulo Euler and scaling, as the
    sorted canonical_direction tuples."""
    N1 = len(z)
    basis = kernel_basis_mod_p(constraint_rows, p, N1)
    seen = set()
    for coeffs in proj_points(len(basis) - 1, p):
        v = [sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(N1)]
        seen.add(canonical_direction(z, v, p))
    seen.discard(None)
    return sorted(seen)


# ----- rank-condition membership -----


def membership_M_ab(M: RankConditionMatrix) -> bool:
    """The zero-column-sum and rank conditions, as displayed.

    (i)   all 2a+2 columns sum to zero;
    (ii)  for every K_nu and (iii) every K_tau_rho column layout at top
          level a (section_builder.column_layout), with the alphas as the
          A and the betas as the B columns, the combined columns have
          rank <= a-1.

    While the shape fits (_table_fits), each column is coded by one
    code_of lookup (reduced mod p only if the lookup misses) and the codes
    are summed from code 0 through the census's add table; once the zero
    sum holds, each layout's combined columns, less the one that holds
    alpha_0, are one lookup in the same a-column rank table (_rank_tables),
    keyed by the census's key plan (_layout_keys), and the first layout
    that fails ends the test. Larger shapes are reduced by Gaussian
    elimination (_membership_by_elimination).
    """
    rows, p = M.rows, M.p
    b, a = len(rows), len(rows[0]) // 2 - 1
    if not _table_fits(a, b, p):
        return _membership_by_elimination(M)
    tables = _rank_tables(a, b, p)
    code_of, add_rows, low = tables.code_of, tables.add_rows, tables.low
    try:
        codes = [code_of[col] for col in zip(*rows)]
    except KeyError:
        codes = [code_of[tuple(x % p for x in col)] for col in zip(*rows)]
    total = 0
    for c in codes:
        total = add_rows[total][c]
    if total:
        return False
    return all(map(low.__getitem__, _layout_keys(codes[:a + 1], codes[a + 1:],
                                                 lambda x, y: add_rows[x][y], len(add_rows), 0)))


def _membership_by_elimination(M: RankConditionMatrix) -> bool:
    """membership_M_ab for any shape: the columns as vectors (reduced mod p
    by rank_mod_p), each layout's rank by rank_mod_p."""
    a, p = M.a, M.p
    if any(sum(row) % p for row in M.rows):
        return False
    cols = list(zip(*M.rows))
    alphas, betas = cols[:a + 1], cols[a + 1:]
    memo: dict = {}
    return all(
        rank_mod_p(_combine_columns(layout, alphas, betas, lambda x, y: tuple(map(add, x, y)),
                                    memo), p) <= a - 1
        for _, _, layout in selection_layouts(a)
    )


def membership_M_ab_alt(M: RankConditionMatrix) -> bool:
    """The reformulation in the partial sums S_i = sum_{j >= i} beta_j.

    The zero-sum condition lets alpha_0 be dropped from the rank sets; the
    beta blocks enter only through consecutive differences S_i - S_{i+1}.
    Must agree with membership_M_ab everywhere: as the independent side of
    the dual check it reads M.rows itself (row sums for the zero sum, the
    alpha columns by zip, the partial sums as running sums of each row's
    betas from beta_a back), takes one rank_mod_p per layout on one list
    of its columns, and may use no rank table, column code, key plan,
    layout or combination helper of the primary path.
    """
    rows, p = M.rows, M.p
    if any(sum(row) % p for row in rows):
        return False
    a = len(rows[0]) // 2 - 1
    alphas = list(zip(*rows))[:a + 1]
    S = list(zip(*[accumulate(row[:a:-1]) for row in rows]))  # S_a, ..., S_0
    S.reverse()
    for nu in range(a + 1):
        if rank_mod_p([*alphas[1:nu], *alphas[nu + 1:], tuple(map(add, alphas[nu], S[0]))],
                      p) > a - 1:
            return False
    paired = []  # alpha_k + S_k - S_(k+1) for k = 1..tau
    for tau in range(a):
        if tau:
            paired.append(tuple(map(sub, map(add, alphas[tau], S[tau]), S[tau + 1])))
        for rho in range(tau + 1, a + 1):
            if rank_mod_p([*paired, *alphas[tau + 1:rho], *alphas[rho + 1:],
                           tuple(map(add, alphas[rho], S[tau + 1]))], p) > a - 1:
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


# Column-code tuples enumerated together as one numpy block of a census
# walk; the remaining leading columns are looped over in Python as constants.
CENSUS_BLOCK = 1 << 15
# Gate on the shapes for which membership and a sampled census build the
# rank table: Q^(a+1) <= CENSUS_TABLE_MAX with Q = q^b. The table keys the
# a columns a layout keeps once its alpha_0 column is dropped, so it has
# Q^a entries, and building it takes an index array eight times that.
CENSUS_TABLE_MAX = 1 << 20
CENSUS_CONFIDENCE = 0.95


def _table_fits(a: int, b: int, q: int) -> bool:
    """Whether shape (a, b) over F_q takes the rank-table path:
    (q^b)^(a+1) <= CENSUS_TABLE_MAX. The table itself has (q^b)^a entries,
    a q^b-th of the gate."""
    return q ** (b * (a + 1)) <= CENSUS_TABLE_MAX


def _column_codes(b: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Columns of F_q^b coded by their index in product(range(q), repeat=b)
    order (code 0 is the zero column): (add, mul), with add[x, y] the code
    of the sum and mul[t, x] the code of t times column x, so mul[q - 1]
    negates. Over F_2 add[x, y] == x ^ y."""
    digits = np.array(list(product(range(q), repeat=b)), dtype=np.int64)
    weights = q ** np.arange(b - 1, -1, -1)
    add = ((digits[:, None, :] + digits[None, :, :]) % q) @ weights
    mul = ((np.arange(q)[:, None, None] * digits[None, :, :]) % q) @ weights
    code_t = np.min_scalar_type(len(digits) - 1)
    return add.astype(code_t), mul.astype(code_t)


def _rank_table(add: np.ndarray, mul: np.ndarray, k: int) -> np.ndarray:
    """Rank of every k-tuple of the Q coded columns (tables from
    _column_codes), at key ((x_0 Q + x_1) Q + ...) Q + x_(k-1).

    A span automaton replaces elimination: its states are the subspaces of
    F_q^b, found breadth first from the zero subspace (state 0), and
    join[s, x] is the span of s and column x. Folding join over the k
    columns of every tuple at once gives each tuple's span.
    """
    Q = len(add)
    spans, dim, join = [(0,)], [0], []
    index = {(0,): 0}
    while len(join) < len(spans):
        s = len(join)
        row = []
        for x in range(Q):
            span = tuple(np.unique(add[np.array(spans[s])[:, None], mul[:, x]]).tolist())
            if index.setdefault(span, len(spans)) == len(spans):
                spans.append(span)
                dim.append(dim[s] + 1)
            row.append(index[span])
        join.append(row)
    join = np.array(join, dtype=np.min_scalar_type(len(spans) - 1))
    states = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        states = join[states].ravel()
    return np.array(dim, dtype=np.int8)[states]


class RankTables(NamedTuple):
    """The coded-column tables of one shape (a, b) over F_q, read-only.

    add is _column_codes(b, q)[0]; code_of maps each column of F_q^b, as a
    tuple of entries in 0..q-1, to its code; add_rows is add as nested
    tuples and low is `_rank_table(add, mul, a) <= a - 1` as one byte per
    key, so that a single matrix is tested with no numpy call."""

    add: np.ndarray
    code_of: Dict[Tuple[int, ...], int]
    add_rows: Tuple[Tuple[int, ...], ...]
    low: bytes


@lru_cache(maxsize=8)
def _rank_tables(a: int, b: int, q: int) -> RankTables:
    """The one builder of rank tables, for membership and both censuses."""
    add, mul = _column_codes(b, q)
    low = (_rank_table(add, mul, a) <= a - 1).tobytes()
    add.setflags(write=False)
    code_of = {col: code for code, col in enumerate(product(range(q), repeat=b))}
    return RankTables(add, code_of, tuple(map(tuple, add.tolist())), low)


@lru_cache(maxsize=None)
def _key_plan(a: int, kind: Optional[str]) -> list:
    """Per layout of `kind` (all when None) at top level a, in
    selection_layouts order: (new, columns). new lists the beta subsets of
    size > 1 that the layout is the first to add to an alpha, and columns
    the (alpha index, value or None) of each column but alpha_0's; values
    0..a are the betas, and a + 1 + i is the sum of the i-th subset listed
    in some layout's new."""
    value = {(j,): j for j in range(a + 1)}
    plan = []
    for kind_, _, layout in selection_layouts(a):
        if kind not in (None, kind_):
            continue
        columns = [c for c in layout if c.a]
        new = []
        for c in columns:
            if len(c.b) > 1 and c.b not in value:
                value[c.b] = len(value)
                new.append(c.b)
        plan.append((new, [(c.a, value.get(c.b)) for c in columns]))
    return plan


def _layout_keys(alphas: Sequence, betas: Sequence, add, Q: int, key, kind: Optional[str] = None):
    """The rank-table key of the combined columns of every K_nu and
    K_tau_rho layout (only those of `kind` when given), in
    selection_layouts order, for the coded columns alpha_0..alpha_a |
    beta_0..beta_a (code arrays or single codes, summed by add), by the
    key plan of (a, kind). Keys fold from `key`, a zero wide enough for the
    table. Each beta-subset sum is formed when the first layout that needs
    it is reached, so a caller that stops early forms only those it read.

    Each layout drops its column that holds alpha_0. A layout's columns
    sum to the matrix's column sum, so on a zero-sum matrix the dropped
    column is minus the sum of the other a, and the rank is theirs. So
    alpha_0 is never read, the K_nu layouts read the betas only through
    their sum, and the K_tau_rho layouts never read beta_0."""
    values = list(betas)
    for new, columns in _key_plan(len(alphas) - 1, kind):
        for subset in new:
            values.append(reduce(add, [betas[j] for j in subset]))
        k = key
        for i, v in columns:
            k = k * Q + (alphas[i] if v is None else add(alphas[i], values[v]))
        yield k


def _rank_mask(alphas: Sequence, betas: Sequence, add, Q: int, low: np.ndarray,
               kind: Optional[str] = None):
    """Where the code arrays alpha_0..alpha_a | beta_0..beta_a pass every
    K_nu and K_tau_rho rank test (of `kind` only, when given); low is
    `_rank_table(add, mul, a) <= a - 1` as an array. The zero-sum
    condition is not tested here, and the verdict holds only where it is
    met (_layout_keys)."""
    zero = np.min_scalar_type(len(low) - 1).type(0)
    return reduce(and_, (low[key] for key in _layout_keys(alphas, betas, add, Q, zero, kind)))


def _census_kernel(a: int, b: int, q: int):
    """(tables, add, low) for the census kernels: add sums code arrays
    (bitwise xor over F_2) and low is the rank table's low bits as an
    array."""
    tables = _rank_tables(a, b, q)
    add = np.bitwise_xor if q == 2 else (lambda x, y: tables.add[x, y])
    return tables, add, np.frombuffer(tables.low, dtype=np.bool_)


def _code_blocks(Q: int, m: int, dtype):
    """Every m-tuple of Q column codes, in lexicographic order, as
    (index of the block's first tuple, its m columns). The last columns
    (at least one) are arrays enumerating at most CENSUS_BLOCK tuples
    together; the others are looped over as constants."""
    inner = max([1] + [k for k in range(1, m + 1) if Q ** k <= CENSUS_BLOCK])
    codes = np.arange(Q, dtype=dtype)
    block = [np.tile(np.repeat(codes, Q ** (inner - 1 - i)), Q ** i) for i in range(inner)]
    for i, outer in enumerate(product(range(Q), repeat=m - inner)):
        yield i * Q ** inner, list(outer) + block


def _per_lead(ok: np.ndarray, start: int, run: int):
    """A block's mask over the tuples start.. of a walk whose leading
    columns change every `run` tuples, summed per leading value:
    (slice of the leading indices met, their counts)."""
    sums = ok.reshape(-1, min(ok.size, run)).sum(axis=1)
    return slice(start // run, start // run + sums.size), sums


def _census_exhaustive(a: int, b: int, q: int) -> int:
    """Exact member count over F_q, factored. The free columns are
    A = (alpha_1..alpha_a) and beta_0..beta_a; alpha_0 is the negated sum
    the zero-sum condition forces, and no layout reads it (_layout_keys).
    The K_nu layouts read the betas only through T = sum beta, and for
    fixed beta_1..beta_a the map beta_0 -> T is a bijection; the K_tau_rho
    layouts never read beta_0. So the count is the sum over A of
    N_nu(A) N_tau_rho(A): N_nu(A) counts the T in F_q^b that pass every
    K_nu layout, N_tau_rho(A) the (beta_1..beta_a) that pass every
    K_tau_rho layout. The two walks, A-major over Q^(a+1) and Q^(2a)
    tuples, run in the blocks of _code_blocks."""
    Q = q ** b
    tables, add, low = _census_kernel(a, b, q)
    dtype = tables.add.dtype
    n_nu = np.zeros(Q ** a, dtype=np.int64)
    for start, cols in _code_blocks(Q, a + 1, dtype):
        # T stands in for the sum of the betas: (T, 0, .., 0)
        ok = _rank_mask([0] + cols[:a], cols[a:] + [0] * a, add, Q, low, "K_nu")
        at, sums = _per_lead(ok, start, Q)
        n_nu[at] += sums
    count = 0
    for start, cols in _code_blocks(Q, 2 * a, dtype):
        ok = _rank_mask([0] + cols[:a], [0] + cols[a:], add, Q, low, "K_tau_rho")
        at, sums = _per_lead(ok, start, Q ** a)
        count += int(sums @ n_nu[at])
    return count


def _census_sampled(a: int, b: int, q: int, n: int, rng) -> int:
    """Members among n uniform b x 2(a+1) matrices, drawn entry by entry in
    row-major order as random_rank_matrix draws them, in blocks of at most
    CENSUS_BLOCK entries read by randrange_block. Each block is coded
    column by column as in _census_exhaustive; the zero sum is tested
    through the add table and the rank conditions by _rank_mask. Above
    CENSUS_TABLE_MAX each matrix of the block is tested alone."""
    width = 2 * (a + 1)
    fits = _table_fits(a, b, q)
    if fits:
        tables, add, low = _census_kernel(a, b, q)
        weights = q ** np.arange(b - 1, -1, -1)
    hits, block = 0, max(1, CENSUS_BLOCK // (b * width))
    for start in range(0, n, block):
        m = min(block, n - start)
        draws = randrange_block(rng, q, m * b * width).reshape(m, b, width)
        if not fits:
            hits += sum(membership_M_ab(RankConditionMatrix(tuple(map(tuple, rows)), q))
                        for rows in draws.tolist())
            continue
        cols = list(np.einsum("mbw,b->wm", draws, weights).astype(tables.add.dtype))
        ok = (reduce(add, cols) == 0) & _rank_mask(cols[:a + 1], cols[a + 1:], add, q ** b, low)
        hits += int(np.count_nonzero(ok))
    return hits


def clopper_pearson_upper(hits: int, n: int) -> float:
    """One-sided Clopper-Pearson upper bound, at CENSUS_CONFIDENCE, on a
    binomial proportion from `hits` successes in `n` trials: the p with
    P(X <= hits; n, p) = 1 - CENSUS_CONFIDENCE, by bisection on [hits/n, 1]
    (1.0 when hits == n)."""
    lo, hi = hits / n, 1.0
    while lo < (p := (lo + hi) / 2) < hi:
        # P(X <= hits; n, p) summed from i = hits down: for p >= hits/n the
        # terms fall, so stop once they no longer change the sum
        cdf, lp, lq = 0.0, log(p), log1p(-p)
        for i in range(hits, -1, -1):
            term = exp(lgamma(n + 1) - lgamma(i + 1) - lgamma(n - i + 1) + i * lp + (n - i) * lq)
            cdf += term
            if term <= cdf * 1e-17:
                break
        lo, hi = (p, hi) if cdf > 1 - CENSUS_CONFIDENCE else (lo, p)
    return hi


def rank_condition_census(a: int, b: int, q: int, mode: str = "exhaustive",
                      sample_size: int = 100_000, seed: int = 0,
                      budget: int = 2 ** 28) -> dict:
    """Member count of the rank-condition variety versus the codimension
    bound q^(dim - (a+b-1) + 1).

    Exhaustive mode counts every matrix (_census_exhaustive, one kernel for
    every q), factored as the sum over (alpha_1..alpha_a) of the K_nu count
    times the K_tau_rho count, each read from the a-column rank table: it
    walks q^(b(a+1)) + q^(2ab) column tuples, not q^(b(2a+1)). Sample mode,
    the fallback when that walk exceeds `budget` tuples, draws uniform
    matrices and tests them with the same coded columns and rank table
    (_census_sampled): `count` extrapolates the hits, and the verdict
    compares the bound with `count_upper`, their one-sided Clopper-Pearson
    upper bound at `confidence`, scaled the same way.
    """
    if not (2 <= a <= b):
        raise ValueError("need 2 <= a <= b")
    _require_prime(q)
    if sample_size < 1:
        raise ValueError(f"census sample size must be at least 1, got {sample_size}")
    if budget < 1:
        raise ValueError(f"census budget must be at least 1, got {budget}")
    dim = 2 * b * (a + 1)
    total = q ** dim
    codim_target = a + b - 1
    bound = q ** (dim - codim_target + 1)
    forced = mode == "exhaustive" and q ** (b * (a + 1)) + q ** (2 * a * b) > budget
    if forced:
        mode = "sample"

    upper = {}
    if mode == "exhaustive":
        count = _census_exhaustive(a, b, q)
    elif mode == "sample":
        hits = _census_sampled(a, b, q, sample_size, child_rng(seed, "census", f"{a},{b},{q}"))
        count = round(hits * total / sample_size)
        upper = {"count_upper": ceil(clopper_pearson_upper(hits, sample_size) * total),
                 "confidence": CENSUS_CONFIDENCE}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    verdict = "pass" if upper.get("count_upper", count) <= bound else "fail"
    return {
        "op": "census",
        "a": a,
        "b": b,
        "q": q,
        "ambient_dim": dim,
        "count": count,
        **upper,
        "exact": mode == "exhaustive",
        "mode": mode,
        "forced_sample": forced,
        "implied_codim": dim - log(count, q) if count > 0 else None,
        "codim_target": codim_target,
        "bound": bound,
        "verdict": verdict,
        "ok": verdict == "pass",
    }


# ----- base locus scan -----


def _incidence_points(data: FamilyData, q: int, vanished: Sequence[int] = ()) -> list:
    """(z, directions) for each point z of X(F_q) with every retained
    coordinate nonzero and every listed vanished coordinate zero; the
    directions solve dF_1..dF_c = 0 at z (and xi_v = 0 for each vanished v)
    modulo the Euler direction. The points and their first c gradient rows
    are the holder's Jacobian walk's (_walk) on the support, in walk order;
    the walk is only read. Kept on the holder per q and vanished set."""

    def walk():
        N, c = data.family.shape.N, data.family.shape.c
        # directions live on the vanishing locus: xi_v = 0
        pinned = [[int(j == v) for j in range(N + 1)] for v in vanished]
        # rows[:c] is a new list: the walk's rows stay as smoothness read them
        return [(list(pt), tangent_directions(pt, rows[:c] + pinned, q))
                for pt, rows in _walk(data, q)
                if all((x == 0) == (k in vanished) for k, x in enumerate(pt))]

    return data.derived(("incidence", q, tuple(vanished)), walk)


def base_locus_scan(fam: SectionFamily | FamilyData, forms: Sequence, q: int,
                    vanished: Sequence[int] = ()) -> dict:
    """Common zeros mod q of the given forms over the coordinates-nonvanishing
    part of X, paired with tangent directions.

    The pairs are those of _incidence_points(fam, q, vanished), and each
    form is evaluated there from its divided matrix, never expanded.
    Returns the vanishing pairs, per-point fiber counts, and any points
    where the tangent solve has wrong dimension. A vanished coordinate
    outside 0..N, or more vanished coordinates than N - c, raises
    ValueError.
    """
    data = FamilyData.of(fam)
    shape = data.family.shape
    vanished = tuple(sorted(set(vanished)))
    if any(not 0 <= v <= shape.N for v in vanished):
        raise ValueError(f"vanished {list(vanished)} has coordinates outside 0..{shape.N}")
    if len(vanished) > shape.N - shape.c:
        raise ValueError(f"{len(vanished)} vanished coordinates exceed N - c = {shape.N - shape.c}")
    expected = shape.N - shape.c - len(vanished)
    expected_count = (q ** expected - 1) // (q - 1)
    pairs = []
    fiber_counts: Dict[Tuple[int, ...], int] = {}
    singular_tangent = []
    points_used = 0
    directions_used = 0
    for z, dirs in _incidence_points(data, q, vanished):
        points_used += 1
        if len(dirs) != expected_count:
            singular_tangent.append({"z": z, "directions": len(dirs)})
        count = 0
        for xi in dirs:
            directions_used += 1
            if all(f.evaluate_at(z, list(xi), q) == 0 for f in forms):
                pairs.append({"z": z, "xi": list(xi)})
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


def characterization_crosscheck(fam: SectionFamily | FamilyData, q: int,
                                sample: Optional[int] = None, seed: int = 0) -> dict:
    """Agreement between 'all forms vanish' and rank-condition membership.

    Pairs (z, [xi]) run over the all-coordinates-nonzero points of P^N and
    all tangent directions modulo Euler: every pair by default, or `sample`
    of them drawn by index. Membership implies the incidence equations (z
    on X, xi tangent), so off-incidence pairs agree trivially and are
    counted in bulk. The incidence pairs of _incidence_points that are
    taken are visited in index order: the numeric 2c+r x 2N+2 matrix of
    the holder's bundle is tested for membership, and its standard_forms
    are evaluated. Disagreements are witnesses.
    """
    data = FamilyData.of(fam)
    fam = data.family
    N = fam.shape.N
    if fam.mode != "mcm":
        raise ValueError("crosscheck is defined for mcm families")
    if fam.shape.n != 1:
        raise ValueError("crosscheck expects n = 1 families")
    if sample is not None and sample < 1:
        raise ValueError(f"crosscheck sample must be at least 1, got {sample}")
    # pair index zi * len(dirs) + di: z = (1, t_1..t_N) has the base-(q-1)
    # digits t_k - 1, and xi = (0,) + the di-th point of P^(N-1)
    dirs = {pt: di for di, pt in enumerate(proj_points(N - 1, q))}
    total = (q - 1) ** N * len(dirs)
    take = total if sample is None else min(sample, total)
    chosen = (set(child_rng(seed, "crosscheck", 0).sample(range(total), take))
              if take < total else None)
    visits = []
    for z, tangent in _incidence_points(data, q):
        zi = reduce(lambda acc, t: acc * (q - 1) + t - 1, z[1:], 0)
        for xi in tangent:
            idx = zi * len(dirs) + dirs[xi[1:]]
            if chosen is None or idx in chosen:
                visits.append((idx, z, list(xi)))
    visits.sort()

    entries = []
    if visits:
        forms = data.forms
        # value rows are dz-free and differential rows linear in dz
        entries = EvalPlan([e for row in data.matrices.entries for e in row],
                           q).at_points([z + xi for _, z, xi in visits]).tolist()
    vanish_and_member = 0
    vanish_not_member = 0
    member_not_vanish = 0
    disagreements = []
    for (_, z, xi), flat in zip(visits, entries):
        Mnum = chunks(flat, 2 * N + 2)
        member = membership_M_ab(RankConditionMatrix(tuple(map(tuple, Mnum)), q))
        vanish = all(f.evaluate_at(z, xi, q) == 0 for f in forms)
        vanish_and_member += vanish and member
        vanish_not_member += vanish and not member
        member_not_vanish += member and not vanish
        if vanish != member and len(disagreements) < 10:
            disagreements.append({"z": z, "xi": xi, "vanish": vanish,
                                  "member": member})
    agree = take - vanish_not_member - member_not_vanish
    return {
        "op": "crosscheck",
        "q": q,
        "samples": take,
        "total_pairs": total,
        "incidence_pairs": len(visits),
        "agree": agree,
        "rate": agree / take,
        "vanish_and_member": vanish_and_member,
        "vanish_not_member": vanish_not_member,
        "member_not_vanish": member_not_vanish,
        "disagreements": disagreements,
        "ok": member_not_vanish == 0,
    }
