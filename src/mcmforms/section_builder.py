"""Section families, their structured matrices, and divided determinant forms.

Two family modes:

  general_fermat   F_i = sum_j A_i^j z_j^{lambda_j}, with coefficient degrees
                   eps_i^j = d_i - lambda_j (plus the O(a_i) twist a_i).
  mcm              F_i = sum_j A_i^j z_j^d
                        + sum over levels l and tuples j_0<...<j_l and
                          distinguished positions k of
                          M_i^{j_0..j_l;j_k} * prod_{m != k} z_{j_m}^{mu_{l,k}}
                                            * z_{j_k}^{d - l*mu_{l,k}}
                   with all coefficients homogeneous of degree a_i + eps_i.

section_terms lists the terms of each section once: build_sections draws
their coefficients, and the matrices and their hidden restrictions sort the
same terms into columns. From a family we build the (c+r+c) x (N+1) matrix
(value rows, then the total differentials of the first c rows), or for mcm
the (2c+r) x (2N+2) matrix with column groups A_0..A_N, B_0..B_N (B_k
collects the top-level terms with distinguished coordinate k).
Each step of the construction is one function, and callers compose them:
build_matrices builds the matrix, restricted to the vanishing locus of the
coordinates it is given; build_selected combines its columns into K_nu or
K_tau_rho; column_divisors verifies the declared divisors, and
extract_forms takes signed divided determinants with twist bookkeeping,
each of the bundle it is given. FamilyData holds what a family's checks
derive from it (the full bundle, its selections, standard_forms, and the
items other modules derive through FamilyData.derived), each computed on
first read and kept as long as the holder is.

column_layout states the K_nu / K_tau_rho layouts once; build_selected
applies them to polynomials, finite_geometry to vectors mod p and to coded
census columns. Positions 0..top index the retained coordinates, top is
the top moving level, and each output column is divided by a power of the
coordinate of its A column:

  K_nu(nu)             A_j (j != nu)                    d - delta_top
                       A_nu + sum_j B_j                 mu[top, 0]
  K_tau_rho(tau, rho)  A_k + B_k (k <= tau)             d - top * mu[top, k]
                       A_j (tau < j <= top, j != rho)   d - delta_top
                       A_rho + sum_{j > tau} B_j        mu[top, tau + 1]

Value rows carry the full power, differential rows one less. The divisor
is declared per column, never read off the summed columns: at
(tau, rho) = (top - 1, top) the last column is A_top + B_top, yet it
takes mu[top, top]. finite_geometry.membership_M_ab_alt restates the rank
conditions by hand, as the deliberately independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, fields
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .exact_algebra import (
    DivisibilityError,
    EvalPlan,
    Field,
    MultiPoly,
    QQ,
    det_mod_p,
    divide_exact,
    from_literal,
    kill_coordinates,
    times_monomial,
    to_literal,
    total_differential,
    z_power,
)
from .schedule import (
    ExponentSchedule,
    ProblemShape,
    build_schedule,
    fermat_heart,
    fermat_heart_prime,
    fermat_hidden_heart_prime,
    schedule_from_dict,
    schedule_to_dict,
    TwistLedger,
    twist_ledger,
)
from .util import child_rng, chunks

FAMILY_SCHEMA_VERSION = 1


class DivisibilityClaimFailed(Exception):
    """A declared column divisor does not divide some matrix entry."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(message)
        self.row = row
        self.col = col


class DegreeClaimFailed(ValueError):
    """A degree claimed for a form is not the one found: `quantity` names
    the degree, `expected` is the claimed value and `observed` the value
    the row degrees and divisors, or a divided entry, give. `entry` is the
    (row, column) of the bundle entry that breaks the claim, when the
    structural check on the divided entries found it."""

    def __init__(self, quantity: str, expected, observed,
                 entry: Optional[Tuple[int, int]] = None):
        where = "" if entry is None else f" at entry {entry}"
        super().__init__(f"{quantity}: expected {expected}, observed {observed}{where}")
        self.quantity = quantity
        self.expected = expected
        self.observed = observed
        self.entry = entry


@dataclass(frozen=True)
class SectionFamily:
    """Sections F_1..F_{c+r} with their coefficient data.

    coefficients keys: "A:i:j" for the pure terms, "M:i:j0,..,jl:jk" for the
    moving terms (i is 1-based, coordinates 0-based, jk the distinguished
    coordinate inside the tuple). degrees holds the L-degrees d_i (general
    mode) and is derived as eps_i + d in mcm mode.

    A family is frozen, its coefficients a read-only copy of the mapping it
    is given: a changed family is a new one (dataclasses.replace), which
    no bundle built from the old one is taken for.
    """

    shape: ProblemShape
    mode: str
    field: Field
    twists: Tuple[int, ...]
    coefficients: Mapping[str, MultiPoly]
    sections: Tuple[MultiPoly, ...]
    lambdas: Optional[Tuple[int, ...]] = None
    degrees: Optional[Tuple[int, ...]] = None
    schedule: Optional[ExponentSchedule] = None
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", MappingProxyType(dict(self.coefficients)))

    def __reduce__(self):
        # a mappingproxy does not pickle: copies and pickles rebuild the
        # family from a plain dict of its coefficients
        return SectionFamily, tuple(dict(self.coefficients) if f.name == "coefficients"
                                    else getattr(self, f.name) for f in fields(self))

    def section_l_degrees(self) -> Tuple[int, ...]:
        """The L-degree of each section (the O(1)-degree minus the a_i twist)."""
        if self.mode == "general_fermat":
            return tuple(self.degrees)
        d = self.schedule.d
        return tuple(e + d for e in self.schedule.eps)

    def section_degrees(self) -> Tuple[int, ...]:
        """The claimed z-degree of each section: its L-degree plus its twist."""
        return tuple(l + a for l, a in zip(self.section_l_degrees(), self.twists))


@dataclass
class FormalMatrixBundle:
    """A matrix of polynomials with enough metadata to take divided minors.

    layout "sec4": columns indexed by retained coordinates, declared
    divisor exponent lambda_j per column. layout "mcm": 2m+2 grouped columns
    tagged A_<coord> / B_<coord> over m+1 retained coordinates. layout
    "selected": m+1 columns produced by a K_nu / K_tau_rho combination, with
    declared divisor exponents per column. column_coords names the
    coordinate each column's divisor is a power of.
    """

    layout: str
    family: SectionFamily
    entries: List[List[MultiPoly]]
    column_tags: Tuple[str, ...]
    column_coords: Tuple[int, ...]
    retained: Tuple[int, ...]
    vanished: Tuple[int, ...] = ()
    selected_kind: Optional[str] = None
    selected_params: Tuple[int, ...] = ()
    divisor_exponents: Optional[Tuple[int, ...]] = None

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def value_rows(self) -> int:
        return self.family.shape.c + self.family.shape.r

    def eta(self) -> int:
        return len(self.vanished)


class DividedMatrix:
    """The divided rows of one extraction, shared by the forms taken from
    them: compiled once per modulus, and evaluated once per point however
    many of its forms are evaluated there."""

    def __init__(self, rows: List[List[MultiPoly]]):
        self.rows = rows
        self._plans: Dict[int, EvalPlan] = {}
        self._last: Optional[tuple] = None

    def values_at(self, z_vals: Sequence[int], dz_vals: Sequence[int],
                  q: int) -> List[List[int]]:
        """The entries' values mod q at (z, dz), row by row."""
        point = (q, tuple(z_vals), tuple(dz_vals))
        if self._last is None or self._last[0] != point:
            plan = self._plans.get(q)
            if plan is None:
                plan = self._plans[q] = EvalPlan([e for row in self.rows for e in row], q)
            self._last = (point, chunks(plan(z_vals, dz_vals), len(self.rows[0])))
        return self._last[1]


@dataclass
class FormBundle:
    """One signed, divided determinant with its twist metadata, never
    expanded: the form is sign * det of rows matrix_rows of `matrix`, its
    degrees held by the structural check of extract_forms. omit_exponent
    is the declared divisor exponent of the omitted column (1 for
    undivided kinds).
    """

    kind: str
    selection: Tuple[int, ...]
    vanished: Tuple[int, ...]
    omit: int
    omit_coord: Optional[int]
    omit_exponent: int
    twist: int
    dz_degree: int
    z_degree: int
    matrix: Optional[DividedMatrix] = dc_field(default=None, repr=False, compare=False)
    matrix_rows: Tuple[int, ...] = dc_field(default=(), compare=False)
    sign: int = 1

    def evaluate_at(self, z_vals: Sequence[int], dz_vals: Sequence[int], q: int) -> int:
        """The form's value mod q at (z, dz), taken from the divided matrix,
        since the determinant commutes with pointwise evaluation."""
        values = self.matrix.values_at(z_vals, dz_vals, q)
        return (self.sign * det_mod_p([values[t] for t in self.matrix_rows], q)) % q


# ----- random coefficients -----


def random_homogeneous(N: int, degree: int, field: Field, rng) -> MultiPoly:
    """Dense random homogeneous polynomial of exact degree; never zero."""
    if degree == 0:
        return MultiPoly.const(N, field.rand_nonzero(rng), field)
    while True:
        terms = {}
        for combo in combinations_with_replacement(range(N + 1), degree):
            exp = [0] * (2 * (N + 1))
            for idx in combo:
                exp[idx] += 1
            c = field.rand_elt(rng)
            if c != 0:
                terms[tuple(exp)] = c
        if terms:
            return MultiPoly(N, field, terms)


# ----- family construction -----


def mcm_tuple_space(shape: ProblemShape, coords: Sequence[int]) -> List[Tuple[int, Tuple[int, ...], int]]:
    """All (level, tuple, distinguished coordinate) triples over the given
    coordinates; levels run c+r+1 .. len(coords)-1."""
    cr = shape.c + shape.r
    out = []
    top = len(coords) - 1
    for level in range(cr + 1, top + 1):
        for tup in combinations(sorted(coords), level + 1):
            for jk in tup:
                out.append((level, tup, jk))
    return out


def section_terms(shape: ProblemShape, mode: str, i: int,
                  lambdas: Optional[Sequence[int]] = None,
                  schedule: Optional[ExponentSchedule] = None
                  ) -> List[Tuple[str, Tuple[int, ...], Tuple[int, ...], int]]:
    """The terms of section i (1-based) in coefficient draw order, as
    (coefficient key, monomial exponents, coordinates of the monomial,
    distinguished coordinate jk).

    First A:i:j with z_j^lambda_j (general_fermat) or z_j^d (mcm); then, for
    mcm, every M:i:j0,..,jl:jk in mcm_tuple_space order, whose monomial is
    z_m^mu[l, k] for each m in the tuple except z_jk^(d - l * mu[l, k]), k
    the position of jk. The family's sections, matrices and hidden
    restrictions are all built from this list.
    """
    N = shape.N
    if mode == "general_fermat":
        return [(f"A:{i}:{j}", z_power(N, j, lam), (j,), j) for j, lam in enumerate(lambdas)]
    d = schedule.d
    terms = [(f"A:{i}:{j}", z_power(N, j, d), (j,), j) for j in range(N + 1)]
    for level, tup, jk in mcm_tuple_space(shape, range(N + 1)):
        m_exp = schedule.mu[(level, tup.index(jk))]
        if d - level * m_exp < 1:
            raise ValueError("schedule residual exponent not positive")
        mono = [0] * (2 * (N + 1))
        for m in tup:
            mono[m] = m_exp
        mono[jk] = d - level * m_exp
        terms.append((f"M:{i}:{','.join(map(str, tup))}:{jk}", tuple(mono), tup, jk))
    return terms


def build_sections(
    shape: ProblemShape,
    mode: str,
    field: Field = QQ,
    twists: Optional[Sequence[int]] = None,
    lambdas: Optional[Sequence[int]] = None,
    degrees: Optional[Sequence[int]] = None,
    schedule: Optional[ExponentSchedule] = None,
    seed: int = 0,
    explicit: Optional[Dict[str, str]] = None,
) -> SectionFamily:
    """Assemble a section family with homogeneity checked per section.

    general_fermat needs lambdas (length N+1, all >= 1) and degrees d_i with
    d_i >= lambda_j everywhere; mcm needs a valid schedule whose shape
    matches. Every coefficient of section i has degree a_i + (L-degree of
    F_i) - (degree of its monomial). Coefficients are drawn at random from
    the seed, or, when `explicit` is given, parsed from its polynomial
    literals keyed like SectionFamily.coefficients; a key that names no
    term raises ValueError.
    """
    cr = shape.c + shape.r
    if twists is None:
        twists = (0,) * cr
    twists = tuple(int(a) for a in twists)
    if len(twists) != cr:
        raise ValueError(f"need {cr} twists")

    def make(key: str, degree: int, rng) -> MultiPoly:
        if explicit is None:
            return random_homogeneous(shape.N, degree, field, rng)
        if key not in explicit:
            raise ValueError(f"missing explicit coefficient {key}")
        poly = from_literal(explicit[key], shape.N, field)
        if not poly.is_zero():
            if poly.dz_degree() != 0:
                raise ValueError(f"coefficient {key} must be dz-free")
            if poly.z_degree() != degree:
                raise ValueError(
                    f"degree bookkeeping mismatch at {key}: got {poly.z_degree()}, need {degree}"
                )
        return poly

    if mode == "general_fermat":
        if lambdas is None or degrees is None:
            raise ValueError("general_fermat needs lambdas and degrees")
        lambdas = tuple(int(x) for x in lambdas)
        degrees = tuple(int(x) for x in degrees)
        if len(lambdas) != shape.N + 1 or any(l < 1 for l in lambdas):
            raise ValueError("need N+1 lambdas, all >= 1")
        if len(degrees) != cr:
            raise ValueError(f"need {cr} section degrees")
        for i in range(1, cr + 1):
            for j, lam in enumerate(lambdas):
                if degrees[i - 1] - lam < 0:
                    raise ValueError(f"degree bookkeeping mismatch: d_{i} = {degrees[i - 1]} < lambda_{j} = {lam}")
        schedule = None
        l_degrees = degrees
    elif mode == "mcm":
        if schedule is None:
            raise ValueError("mcm needs an exponent schedule")
        if schedule.shape != shape:
            raise ValueError("schedule shape mismatch")
        lambdas = degrees = None
        l_degrees = tuple(e + schedule.d for e in schedule.eps)
    else:
        raise ValueError(f"unknown mode: {mode}")

    coeffs: Dict[str, MultiPoly] = {}
    sections = []
    for i in range(1, cr + 1):
        rng = child_rng(seed, "build_sections", i)
        expected = twists[i - 1] + l_degrees[i - 1]
        F = MultiPoly.zero(shape.N, field)
        for key, mono, _, _ in section_terms(shape, mode, i, lambdas, schedule):
            coeffs[key] = make(key, expected - sum(mono), rng)
            F = F + times_monomial(coeffs[key], mono)
        if not F.is_zero() and F.z_degree() != expected:
            raise ValueError(f"section {i} degree {F.z_degree()} != {expected}")
        sections.append(F)
    unread = sorted(set(explicit or ()) - set(coeffs))
    if unread:
        raise ValueError(f"explicit coefficients the family does not read: {', '.join(unread)}")
    # negativity reading of the twist data: heart must exceed every a_i
    if mode == "mcm" and schedule.heart <= max(twists, default=0):
        raise ValueError("schedule heart must exceed every twist a_i")
    return SectionFamily(
        shape=shape, mode=mode, field=field, twists=twists, coefficients=coeffs,
        sections=tuple(sections), lambdas=lambdas, degrees=degrees, schedule=schedule,
        seed=seed,
    )


# ----- matrices -----


def build_matrices(fam: SectionFamily, vanished: Sequence[int] = ()) -> FormalMatrixBundle:
    """The structured matrix of the family over the coordinates not in
    `vanished` (the full matrix when none is), sorted from section_terms.
    Its rows sum to the sections and its differential rows are the
    differentials of its value rows by construction, both with z_v = 0,
    dz_v = 0 substituted; identity_verifier.verify_gluing checks both.

    A term survives iff its monomial avoids every vanished coordinate, with
    z_v = 0 substituted in its coefficient. It goes to the column of its
    distinguished coordinate jk: col_jk (layout "sec4", divisor exponent
    lambda_jk), or for mcm (layout "mcm") B_jk when its coordinates are all
    the retained ones (the top level of the restricted model) and A_jk
    otherwise. Grouping the surviving terms, rather than restricting the
    full groups, moves the surviving top-level terms of a restriction to
    its B columns. Differential rows are the total differentials of the
    first c value rows.

    No form is defined from depth n on (an mcm model has no moving level
    left there), so eta = len(vanished) >= n raises ValueError, and so do
    a vanished index outside 0..N and, for a hidden general-Fermat model,
    an exponent lambda_j < 2.
    """
    shape = fam.shape
    vanished = tuple(sorted(set(vanished)))
    if len(vanished) >= shape.n:
        raise ValueError(f"no hidden forms at depth {len(vanished)} >= n = {shape.n}")
    if any(not (0 <= v <= shape.N) for v in vanished):
        raise ValueError("vanished index out of range")
    mcm = fam.mode == "mcm"
    if vanished and not mcm and any(l < 2 for l in fam.lambdas):
        raise ValueError("hidden forms require all lambda_j >= 2")
    retained = tuple(j for j in range(shape.N + 1) if j not in vanished)
    cr = shape.c + shape.r
    width = len(retained)
    rows: List[List[MultiPoly]] = []
    for i in range(1, cr + 1):
        row = [MultiPoly.zero(shape.N, fam.field) for _ in range(2 * width if mcm else width)]
        for key, mono, coords, jk in section_terms(shape, fam.mode, i, fam.lambdas, fam.schedule):
            if any(v in coords for v in vanished):
                continue
            coeff = fam.coefficients[key]
            if vanished:
                coeff = kill_coordinates(coeff, vanished)
            col = retained.index(jk) + (width if mcm and coords == retained else 0)
            row[col] = row[col] + times_monomial(coeff, mono)
        rows.append(row)
    for q in range(shape.c):
        rows.append([total_differential(e) for e in rows[q]])
    if mcm:
        return FormalMatrixBundle(
            layout="mcm", family=fam, entries=rows,
            column_tags=tuple([f"A_{j}" for j in retained] + [f"B_{k}" for k in retained]),
            column_coords=retained + retained, retained=retained, vanished=vanished,
        )
    return FormalMatrixBundle(
        layout="sec4", family=fam, entries=rows,
        column_tags=tuple(f"col_{j}" for j in retained), column_coords=retained,
        retained=retained, vanished=vanished,
        divisor_exponents=tuple(fam.lambdas[j] for j in retained),
    )


# ----- column layouts -----


class LayoutColumn(NamedTuple):
    """One output column of a K_nu / K_tau_rho selection: A_a plus the
    B_j for j in b (positions in the retained coordinate list), divided by
    the power of the coordinate at position a that `rule` declares:
    "plain" d - delta_top, "paired" d - top * mu[top, k], "tail" mu[top, k].
    """

    a: int
    b: Tuple[int, ...]
    rule: str
    k: int = 0


@lru_cache(maxsize=None)
def column_layout(kind: str, params: Tuple[int, ...], top: int) -> Tuple[LayoutColumn, ...]:
    """The output columns of ("K_nu", (nu,)) or ("K_tau_rho", (tau, rho))
    on a model whose top moving level is `top`, in display order (the
    table in the module docstring)."""
    if kind == "K_nu":
        (nu,) = params
        if not (0 <= nu <= top):
            raise ValueError(f"nu out of range 0..{top}")
        cols = [LayoutColumn(j, (), "plain") for j in range(top + 1) if j != nu]
        cols.append(LayoutColumn(nu, tuple(range(top + 1)), "tail", 0))
    elif kind == "K_tau_rho":
        tau, rho = params
        if not (0 <= tau <= top - 1 and tau + 1 <= rho <= top):
            raise ValueError(f"need 0 <= tau < rho <= {top}")
        cols = [LayoutColumn(k, (k,), "paired", k) for k in range(tau + 1)]
        cols += [LayoutColumn(j, (), "plain") for j in range(tau + 1, top + 1) if j != rho]
        cols.append(LayoutColumn(rho, tuple(range(tau + 1, top + 1)), "tail", tau + 1))
    else:
        raise ValueError(f"unknown selection kind: {kind}")
    return tuple(cols)


@lru_cache(maxsize=None)
def selection_layouts(top: int) -> Tuple[Tuple[str, Tuple[int, ...], Tuple[LayoutColumn, ...]], ...]:
    """(kind, params, layout) for every K_nu, then every K_tau_rho."""
    params = [("K_nu", (nu,)) for nu in range(top + 1)]
    params += [("K_tau_rho", (tau, rho))
               for tau in range(top) for rho in range(tau + 1, top + 1)]
    return tuple((kind, p, column_layout(kind, p, top)) for kind, p in params)


def divisor_exponent(col: LayoutColumn, sched: ExponentSchedule, top: int) -> int:
    """The declared divisor exponent of a layout column."""
    if col.rule == "plain":
        return sched.d - sched.delta[top]
    if col.rule == "paired":
        return sched.d - top * sched.mu[(top, col.k)]
    if col.rule == "tail":
        return sched.mu[(top, col.k)]
    raise ValueError(f"unknown divisor rule: {col.rule}")


def _combine_columns(layout: Sequence[LayoutColumn], A: Sequence, B: Sequence,
                    add: Callable, memo: Optional[dict] = None) -> list:
    """Apply a layout to the A- and B-columns of one matrix, over any
    element type that `add` sums (polynomial columns, vectors mod p, coded
    census columns). memo caches the B-sums; share it between the layouts
    applied to the same matrix."""
    if memo is None:
        memo = {}
    out = []
    for col in layout:
        if not col.b:
            out.append(A[col.a])
            continue
        s = memo.get(col.b)
        if s is None:
            s = B[col.b[0]]
            for j in col.b[1:]:
                s = add(s, B[j])
            memo[col.b] = s
        out.append(add(A[col.a], s))
    return out


def _column_tag(kind: str, col: LayoutColumn, retained: Sequence[int]) -> str:
    coord = retained[col.a]
    if col.rule == "plain":
        return f"A_{coord}"
    if col.rule == "paired":
        return f"A_{coord}+B_{coord}"
    return f"A_{coord}+sumB" if kind == "K_nu" else f"A_{coord}+sumB_gt_tau"


def build_selected(K: FormalMatrixBundle, which: Tuple) -> FormalMatrixBundle:
    """Combine the A/B column groups of an mcm bundle as column_layout
    states for ("K_nu", nu) or ("K_tau_rho", tau, rho); positions refer to
    the retained coordinate list, and the combined columns are displayed
    last. A restricted bundle keeps its vanished coordinates."""
    kind = which[0]
    fam = K.family
    if K.layout != "mcm":
        raise ValueError("column combinations need an mcm bundle")
    params = tuple(which[1:])
    top = len(K.retained) - 1
    layout = column_layout(kind, params, top)
    columns = [[row[j] for row in K.entries] for j in range(K.ncols)]
    combined = _combine_columns(layout, columns[: top + 1], columns[top + 1:],
                                lambda x, y: [u + v for u, v in zip(x, y)])
    return FormalMatrixBundle(
        layout="selected", family=fam, entries=[list(row) for row in zip(*combined)],
        column_tags=tuple(_column_tag(kind, col, K.retained) for col in layout),
        column_coords=tuple(K.retained[col.a] for col in layout),
        retained=K.retained, vanished=K.vanished, selected_kind=kind,
        selected_params=params,
        divisor_exponents=tuple(divisor_exponent(col, fam.schedule, top) for col in layout),
    )


# ----- divisors -----


def column_divisors(K: FormalMatrixBundle) -> List[Dict[str, object]]:
    """Declared divisor of each column of a selected or explicit-exponent
    bundle, verified.

    Declared exponents are the induced lambda-template values: value rows
    must be divisible by z^e, differential rows by z^(e-1) (their structure
    z^(e-1) * (z dA + e A dz) spends one power on the differential, exactly
    as in the explicit-exponent matrices). Verification failures raise
    DivisibilityClaimFailed with the entry coordinates.
    """
    if K.divisor_exponents is None:
        raise ValueError("column divisors are declared for selected and explicit-exponent bundles only")
    out = []
    cr = K.value_rows()
    for col in range(K.ncols):
        e = K.divisor_exponents[col]
        coord = K.column_coords[col]
        for row in range(len(K.entries)):
            need = e if row < cr else e - 1
            entry = K.entries[row][col]
            if entry.is_zero():
                continue
            if min(exp[coord] for exp in entry.terms) < need:
                raise DivisibilityClaimFailed(
                    f"entry ({row},{col}) not divisible by z{coord}^{need}", row=row, col=col
                )
        out.append({"col": col, "tag": K.column_tags[col], "coordinate": coord, "exponent": e})
    return out


# ----- form extraction -----


def _check_selection(shape: ProblemShape, eta: int, selection: Sequence[int]) -> Tuple[int, ...]:
    """The selection as a tuple, once it names n - eta distinct
    differential rows in 1..c in increasing order; raises ValueError
    otherwise. Forms and the gluing check take their rows from it."""
    n_eff = shape.n - eta
    selection = tuple(selection)
    if len(selection) != n_eff or any(not (1 <= j <= shape.c) for j in selection) \
            or len(set(selection)) != n_eff:
        raise ValueError(f"selection must pick {n_eff} distinct differential rows in 1..{shape.c}")
    if sorted(selection) != list(selection):
        raise ValueError("selection must be increasing")
    return selection


def extract_forms(
    K: FormalMatrixBundle,
    selections: Sequence[Sequence[int]],
    omit: int,
    kind: Optional[str] = None,
) -> List[FormBundle]:
    """One signed divided determinant per selection, left unexpanded.

    Rows: all c+r value rows plus the differential rows j_1 < ... < j_{n-eta}
    named by a selection (indices in 1..c). Columns: all but position
    `omit`; each remaining column is divided by z_coord^(e-1) for its
    declared exponent e (e = lambda template; e = 1 for the undivided kind
    "psi"); a selected bundle's layout names its kind and refuses another.
    The form is (-1)^omit * det of the divided matrix, bihomogeneous of
    dz-degree n - eta. The twist is sum of the row L-degrees minus sum over
    all columns of (e - 1), cross-checked against the ledger entry for mcm
    selections.

    The rows are divided once for all selections, into one DividedMatrix
    that the forms share and evaluate at points; no determinant is
    expanded. A structural check asks each nonzero
    divided entry (i, j) to be bihomogeneous of bidegree r_i + c_j: r_i is
    (deg F, 0) on the value row of F and (deg F - 1, 1) on its differential
    row, c_j is (1 - e, 0). Every term of the determinant then has the
    bidegree summed over its rows and columns, which is the claimed
    dz-degree and z-degree. A failing claim raises DegreeClaimFailed, in
    the order bihomogeneous, dz-degree, twist, z-degree.
    """
    fam = K.family
    shape = fam.shape
    eta = K.eta()
    n_eff = shape.n - eta
    selections = [_check_selection(shape, eta, sel) for sel in selections]
    ncols = K.ncols
    if not (0 <= omit < ncols):
        raise ValueError("omitted column out of range")

    if K.layout == "sec4":
        if kind is None:
            kind = "omega"
        if kind not in ("psi", "omega"):
            raise ValueError(f"kind {kind!r} invalid for explicit-exponent bundles")
        divisor_exps = K.divisor_exponents if kind == "omega" else (1,) * ncols
    elif K.layout == "selected":
        if kind is not None:
            raise ValueError(f"kind {kind!r} invalid for a selected bundle, whose layout names it")
        kind = "phi_nu" if K.selected_kind == "K_nu" else "psi_tau_rho"
        divisor_exps = K.divisor_exponents
    else:
        raise ValueError("extract_forms needs a sec4 or selected bundle")
    if eta:
        kind = "hidden_" + kind

    cr = shape.c + shape.r
    diff_rows = sorted({j for sel in selections for j in sel})
    row_ids = list(range(cr)) + [cr + j - 1 for j in diff_rows]
    cols = [col for col in range(ncols) if col != omit]
    divided = [[_divided_entry(K, rid, col, divisor_exps[col]) for col in cols] for rid in row_ids]
    degree = fam.section_degrees()
    row_bidegrees = [(degree[rid], 0) if rid < cr else (degree[rid - cr] - 1, 1) for rid in row_ids]
    col_shifts = [1 - divisor_exps[col] for col in cols]
    faults = _structural_faults(divided, row_bidegrees, col_shifts, row_ids, cols)
    for quantity in ("bihomogeneous", "dz-degree"):
        if quantity in faults:
            raise faults[quantity]

    matrix = DividedMatrix(divided)
    sign = -1 if omit % 2 else 1
    ledger = twist_ledger(fam.schedule) if K.layout == "selected" and selections else None
    forms = []
    for selection in selections:
        twist = _twist_for(K, kind, selection, ledger)
        _check_twist(fam, twist, selection, divisor_exps)
        if "z-degree" in faults:
            raise faults["z-degree"]
        rows = tuple(range(cr)) + tuple(cr + diff_rows.index(j) for j in selection)
        forms.append(FormBundle(
            kind=kind,
            selection=selection,
            vanished=K.vanished,
            omit=omit,
            omit_coord=K.column_coords[omit],
            omit_exponent=divisor_exps[omit],
            twist=twist,
            dz_degree=n_eff,
            z_degree=sum(row_bidegrees[t][0] for t in rows) + sum(col_shifts),
            matrix=matrix,
            matrix_rows=rows,
            sign=sign,
        ))
    return forms


class FamilyData:
    """One family's derived data, each item computed on first read and
    kept for as long as the holder is: the full build_matrices bundle
    (matrices), each K_nu / K_tau_rho selection of it (selected),
    standard_forms (forms), and any item another module derives through
    derived. The verifiers and scans take a SectionFamily or a FamilyData
    as `fam` (FamilyData.of), and every item is derived from the family
    itself, so a check never reads data of another family."""

    def __init__(self, fam: SectionFamily):
        self.family = fam
        self._items: dict = {}

    @classmethod
    def of(cls, fam: SectionFamily | FamilyData) -> FamilyData:
        """fam itself when it is a holder, else a new holder of fam."""
        return fam if isinstance(fam, FamilyData) else cls(fam)

    def derived(self, key, build: Callable):
        """build(), called the first time `key` is read and kept."""
        if key not in self._items:
            self._items[key] = build()
        return self._items[key]

    @property
    def matrices(self) -> FormalMatrixBundle:
        return self.derived("matrices", lambda: build_matrices(self.family))

    def selected(self, which: Sequence) -> FormalMatrixBundle:
        which = (which[0],) + tuple(which[1:])
        return self.derived(("selected", which), lambda: build_selected(self.matrices, which))

    @property
    def forms(self) -> List[FormBundle]:
        return self.derived("forms", lambda: standard_forms(self))


def standard_forms(fam: SectionFamily | FamilyData) -> List[FormBundle]:
    """The default form inventory for scans: every selected-bundle kind with
    every admissible differential-row choice (mcm), or the psi/omega pair
    (explicit exponents), all extracted at omit=0. The forms of
    one layout share one divided matrix and stay unexpanded."""
    data = FamilyData.of(fam)
    K, shape = data.matrices, data.family.shape
    if data.family.mode == "mcm":
        selections = [(j,) for j in range(1, shape.c + 1)] if shape.n == 1 else \
            [tuple(range(1, shape.n + 1))]
        return [form for kind, params, _ in selection_layouts(shape.N)
                for form in extract_forms(data.selected((kind,) + params), selections,
                                          omit=0)]
    sel = tuple(range(1, shape.n + 1))
    return [extract_forms(K, [sel], omit=0, kind=kind)[0]
            for kind in ("psi", "omega")]


def _divided_entry(K: FormalMatrixBundle, rid: int, col: int, e: int) -> MultiPoly:
    """Entry (rid, col) of K divided by the power z_coord^(e-1) of its column."""
    entry = K.entries[rid][col]
    if e <= 1:
        return entry
    coord = K.column_coords[col]
    try:
        return divide_exact(entry, z_power(K.family.shape.N, coord, e - 1))
    except DivisibilityError as err:
        raise DivisibilityClaimFailed(
            f"column {col} not divisible by z{coord}^{e - 1}", row=rid, col=col
        ) from err


def _structural_faults(divided, row_bidegrees, col_shifts, row_ids, cols
                       ) -> Dict[str, DegreeClaimFailed]:
    """For each degree claim, the first nonzero divided entry that breaks
    it: not bihomogeneous, or of dz- or z-degree other than row_bidegrees[i]
    plus (col_shifts[j], 0). Entries are named by their row and column in
    the bundle."""
    faults: Dict[str, DegreeClaimFailed] = {}
    for (want_z, want_dz), rid, row in zip(row_bidegrees, row_ids, divided):
        for shift, col, entry in zip(col_shifts, cols, row):
            if entry.is_zero():
                continue
            try:
                z, dz = entry.bidegree()
            except ValueError:
                faults.setdefault("bihomogeneous", DegreeClaimFailed(
                    "bihomogeneous", True, False, entry=(rid, col)))
                continue
            if dz != want_dz:
                faults.setdefault("dz-degree", DegreeClaimFailed(
                    "dz-degree", want_dz, dz, entry=(rid, col)))
            if z != want_z + shift:
                faults.setdefault("z-degree", DegreeClaimFailed(
                    "z-degree", want_z + shift, z, entry=(rid, col)))
    return faults


def _twist_for(K: FormalMatrixBundle, kind: str, selection, ledger: Optional[TwistLedger]) -> int:
    fam = K.family
    base_kind = kind.removeprefix("hidden_")
    if base_kind == "psi":
        return fermat_heart(fam.degrees, selection)
    if base_kind == "omega":
        if K.vanished:
            return fermat_hidden_heart_prime(fam.degrees, fam.lambdas, selection, K.vanished)
        return fermat_heart_prime(fam.degrees, fam.lambdas, selection)
    eta = K.eta()
    if base_kind == "phi_nu":
        return ledger.lookup(eta, "K_nu", None, selection).value
    if base_kind == "psi_tau_rho":
        tau = K.selected_params[0]
        return ledger.lookup(eta, "K_tau_rho", tau, selection).value
    raise ValueError(kind)


def _check_twist(fam: SectionFamily, twist: int, selection, divisor_exps) -> None:
    """Exact twist bookkeeping: the L-twist equals sum of row L-degrees
    minus sum over all columns of (e-1). A mismatch raises
    DegreeClaimFailed with `expected` the claimed twist (the ledger's, for
    mcm forms) and `observed` the bookkeeping value."""
    ldeg = fam.section_l_degrees()
    rows_l = sum(ldeg) + sum(ldeg[j - 1] for j in selection)
    observed = rows_l - sum(e - 1 for e in divisor_exps)
    if twist != observed:
        raise DegreeClaimFailed("twist", twist, observed)


# ----- serialization -----


def save_family(fam: SectionFamily, path: str) -> None:
    data = {
        "schema_version": FAMILY_SCHEMA_VERSION,
        "shape": {"N": fam.shape.N, "c": fam.shape.c, "r": fam.shape.r},
        "mode": fam.mode,
        "field_p": fam.field.p,
        "twists": list(fam.twists),
        "seed": fam.seed,
        "coefficients": {k: to_literal(v) for k, v in sorted(fam.coefficients.items())},
    }
    if fam.mode == "general_fermat":
        data["lambdas"] = list(fam.lambdas)
        data["degrees"] = list(fam.degrees)
    else:
        data["schedule"] = schedule_to_dict(fam.schedule)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_family(path: str) -> SectionFamily:
    """The family save_family wrote to path. A wrong schema version, a
    missing entry, a malformed one and a coefficient key the family does
    not read raise ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if data.get("schema_version") != FAMILY_SCHEMA_VERSION:
            raise ValueError(f"unsupported family schema version: {data.get('schema_version')}")
        kwargs = dict(shape=ProblemShape(**data["shape"]), mode=data["mode"],
                      field=Field(data["field_p"]), twists=list(data["twists"]),
                      explicit=dict(data["coefficients"]), seed=data.get("seed"))
        if data["mode"] == "general_fermat":
            kwargs.update(lambdas=data["lambdas"], degrees=data["degrees"])
        else:
            sched = schedule_from_dict(data["schedule"])
            if sched != build_schedule(sched.shape, sched.heart, sched.eps, sched.slack):
                raise ValueError("family schedule does not match its recomputation "
                                 "from shape, heart, eps and slack")
            kwargs.update(schedule=sched)
    except KeyError as exc:
        raise ValueError(f"family file has no {exc} entry") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed family file: {exc}") from exc
    return build_sections(**kwargs)
