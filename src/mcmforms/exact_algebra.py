"""Exact sparse arithmetic for bigraded polynomials in z_0..z_N, dz_0..dz_N.

Representation: a polynomial is a dict mapping an exponent tuple of length
2*(N+1) to a nonzero coefficient. Slots 0..N hold the z-exponents, slots
N+1..2N+1 hold the dz-exponents. The zero polynomial is the empty dict and
counts as bihomogeneous of every bidegree. Coefficients live in Q (exact
fractions, p == 0) or in F_p for a prime p < 2**31.

Products run one loop over pairs of terms, adding exponent tuples: the
program multiplies only small polynomials, such as a coordinate by part of
one matrix entry. Over Q the loop multiplies integer numerators over each
operand's common denominator and divides each result coefficient once, so
no Fraction is normalised per pair. Nothing here expands a determinant:
forms are evaluated at points from their divided matrix, and the exact
identity checks compare matrix entries, not determinants
(identity_verifier).

Evaluation mod m runs in EvalPlan, the one modular evaluation loop: a
sequence of polynomials is compiled once, its coefficients reduced mod m
(Fractions through modular inverses), its distinct monomials numbered
and, per exponent slot, the monomials' distinct exponents stored with an
index array into them. EvalPlan.at_points evaluates a block of points
(z | dz) in one numpy int64 pass: per slot, one power table over the
slot's distinct coordinate values is gathered into the monomial values;
each term then multiplies its coefficient by its monomial's value, and
each polynomial sums its terms. A call at one point is the one-row case,
and the scans over F_q make one call for all their points. m is below
2**31, so every residue is below 2**31 and every product of two residues
below 2**62; reducing mod m after each multiply keeps int64 exact, and a
modulus of 2**31 or more is refused.

The canonical term order is graded lexicographic on the concatenated
exponent vector, largest first; the literal printer emits terms in that
order and the parser accepts the printed form back byte-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .util import _echelon_mod_p

Exponent = Tuple[int, ...]

# Most (point, term) entries in one block of EvalPlan.at_points, so that an
# int64 temporary of a block stays within 64 KB. On the default pipeline,
# larger blocks raised the peak RSS (by about 0.7 MB at 1 << 16) and smaller
# ones slowed the scans (points_on_X took about 1.6 times as long at 1 << 12).
EVAL_BLOCK = 1 << 13
# every int64 product EvalPlan forms stays below this
INT64_LIMIT = 1 << 63


class DivisibilityError(ValueError):
    """Raised when an exact division request fails; carries the offending term."""

    def __init__(self, message: str, term: Optional[Exponent] = None):
        super().__init__(message)
        self.term = term


class ParseError(ValueError):
    """Raised on malformed polynomial literals; names the offending token."""

    def __init__(self, message: str, token: str = ""):
        super().__init__(message)
        self.token = token


@dataclass(frozen=True)
class Field:
    """Coefficient field: Q when p == 0, else F_p for a prime p < 2**31."""

    p: int = 0

    def __post_init__(self):
        if self.p:
            if not (2 <= self.p < 2**31):
                raise ValueError(f"field characteristic out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"field characteristic must be prime: {self.p}")

    def coerce(self, x):
        if self.p:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError("denominator vanishes in F_p")
                return (x.numerator * pow(x.denominator, self.p - 2, self.p)) % self.p
            return int(x) % self.p
        return x if isinstance(x, Fraction) else Fraction(x)

    def rand_elt(self, rng):
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-10, 11))

    def rand_nonzero(self, rng):
        while True:
            x = self.rand_elt(rng)
            if x != 0:
                return x

    def __str__(self):
        return "Q" if self.p == 0 else f"F_{self.p}"

    @staticmethod
    def from_spec(spec: str) -> "Field":
        """The field named by a config or command-line spec: a prime p, or
        Q / QQ / 0 for the rationals."""
        return Field(0) if spec in ("Q", "QQ", "0") else Field(int(spec))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2**31
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Field(0)


def _over_common_denominator(terms: Dict[Exponent, Fraction]) -> Tuple[Dict[Exponent, int], int]:
    """(integer numerators, d) with terms == {e: n / d}, d the lcm of the
    coefficients' denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


class MultiPoly:
    """Sparse exact polynomial in z_0..z_N, dz_0..dz_N over Q or F_p."""

    __slots__ = ("N", "field", "terms")

    def __init__(self, N: int, field: Field, terms: Optional[Dict[Exponent, object]] = None):
        if N < 0:
            raise ValueError("N must be >= 0")
        self.N = N
        self.field = field
        clean: Dict[Exponent, object] = {}
        if terms:
            width = 2 * (N + 1)
            for exp, c in terms.items():
                if len(exp) != width:
                    raise ValueError(f"exponent width {len(exp)} != {width}")
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent")
                c = field.coerce(c)
                if c != 0:
                    clean[exp] = c
        self.terms = clean

    # ----- constructors -----

    @classmethod
    def _of(cls, N: int, field: Field, terms: Dict[Exponent, object]) -> "MultiPoly":
        """The polynomial with these terms, taken as they are: the trusted
        constructor for results of this module's arithmetic, whose terms
        already have the width 2(N+1), no negative exponent and nonzero
        coefficients of `field`. Outside input goes through __init__."""
        poly = object.__new__(cls)
        poly.N, poly.field, poly.terms = N, field, terms
        return poly

    @staticmethod
    def zero(N: int, field: Field = QQ) -> "MultiPoly":
        return MultiPoly(N, field)

    @staticmethod
    def const(N: int, c, field: Field = QQ) -> "MultiPoly":
        exp = (0,) * (2 * (N + 1))
        return MultiPoly(N, field, {exp: c})

    @staticmethod
    def z(N: int, j: int, field: Field = QQ, power: int = 1) -> "MultiPoly":
        if not (0 <= j <= N):
            raise ValueError(f"z index {j} out of range 0..{N}")
        return MultiPoly(N, field, {z_power(N, j, power): 1})

    @staticmethod
    def monomial(N: int, field: Field, coeff, z_exps: Sequence[int], dz_exps: Sequence[int] = ()) -> "MultiPoly":
        zs = list(z_exps) + [0] * (N + 1 - len(z_exps))
        ds = list(dz_exps) + [0] * (N + 1 - len(dz_exps))
        return MultiPoly(N, field, {tuple(zs + ds): coeff})

    # ----- ring structure -----

    def _check_compat(self, other: "MultiPoly"):
        if self.N != other.N or self.field != other.field:
            raise ValueError("mixed ambient dimension or coefficient field")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        out = dict(self.terms)
        p = self.field.p
        for exp, c in other.terms.items():
            prev = out.get(exp)
            if prev is None:
                out[exp] = c
                continue
            s = (prev + c) % p if p else prev + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return MultiPoly._of(self.N, self.field, out)

    def __neg__(self) -> "MultiPoly":
        p = self.field.p
        return MultiPoly._of(self.N, self.field, {exp: -c % p for exp, c in self.terms.items()}
                             if p else {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compat(other)
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        p = self.field.p
        if p:
            ta, tb = a.terms, b.terms
        else:
            # over Q the pairs multiply integer numerators over each
            # operand's common denominator, and each sum is divided once
            (ta, da), (tb, db) = _over_common_denominator(a.terms), _over_common_denominator(b.terms)
            den = da * db
        out: Dict[Exponent, int] = {}
        get, items = out.get, tb.items()
        for ea, ca in ta.items():
            for eb, cb in items:
                key = tuple(map(add, ea, eb))
                out[key] = get(key, 0) + ca * cb
        return MultiPoly._of(self.N, self.field, {k: r for k, c in out.items() if (r := c % p)}
                             if p else {k: Fraction(c, den) for k, c in out.items() if c})

    def scale(self, c) -> "MultiPoly":
        fld = self.field
        c = fld.coerce(c)
        if c == 0:
            return MultiPoly.zero(self.N, fld)
        p = fld.p
        return MultiPoly._of(self.N, fld, {exp: (v * c) % p for exp, v in self.terms.items()}
                             if p else {exp: v * c for exp, v in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.N, 1, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.N == other.N and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.N, self.field, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    # ----- grading -----

    @staticmethod
    def _common(values: set, what: str):
        """The one grading in `values`, the set of every term's; None for
        zero."""
        if len(values) > 1:
            raise ValueError(f"not {what} {sorted(values)}")
        return values.pop() if values else None

    def z_degree(self) -> Optional[int]:
        """Common z-degree when z-homogeneous; None for the zero polynomial."""
        n1 = self.N + 1
        return self._common({sum(exp[:n1]) for exp in self.terms}, "z-homogeneous: degrees")

    def dz_degree(self) -> Optional[int]:
        n1 = self.N + 1
        return self._common({sum(exp[n1:]) for exp in self.terms}, "dz-homogeneous: degrees")

    def bidegree(self) -> Optional[Tuple[int, int]]:
        """(z-degree, dz-degree) when bihomogeneous; None for zero."""
        n1 = self.N + 1
        return self._common({(sum(exp[:n1]), sum(exp[n1:])) for exp in self.terms},
                            "bihomogeneous: bidegrees")

    # ----- evaluation -----

    def evaluate(self, z_vals: Sequence, dz_vals: Sequence):
        """Exact evaluation in the coefficient field; over F_p through
        EvalPlan, the one modular evaluation loop. A z or dz without
        exactly N + 1 coordinates raises ValueError, as EvalPlan does."""
        fld = self.field
        if fld.p:
            return self.evaluate_mod([fld.coerce(v) for v in z_vals],
                                     [fld.coerce(v) for v in dz_vals], fld.p)
        n1 = self.N + 1
        if len(z_vals) != n1 or len(dz_vals) != n1:
            raise ValueError(f"z and dz need {n1} coordinates each, "
                             f"got {len(z_vals)} and {len(dz_vals)}")
        zv = [fld.coerce(v) for v in z_vals]
        dv = [fld.coerce(v) for v in dz_vals]
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for k in range(n1):
                if exp[k]:
                    val *= zv[k] ** exp[k]
                if exp[n1 + k]:
                    val *= dv[k] ** exp[n1 + k]
            total += val
        return total

    def evaluate_mod(self, z_vals: Sequence[int], dz_vals: Sequence[int], modulus: int) -> int:
        """Evaluation mod a prime; Q coefficients are reduced via modular
        inverses, F_p coefficients only make sense mod p itself. Compiles
        an EvalPlan for one call: to evaluate at many points, build the
        plan once and call its at_points on all of them."""
        return EvalPlan([self], modulus)(z_vals, dz_vals)[0]

    # ----- literals -----

    def __repr__(self):
        return f"MultiPoly({to_literal(self)!r}, N={self.N}, field={self.field})"


def canonical_terms(p: MultiPoly) -> List[Tuple[Exponent, object]]:
    """Terms sorted graded-lexicographically on the exponent vector, largest first."""
    return sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def to_literal(p: MultiPoly) -> str:
    """Canonical literal: terms like 'coeff * z0^a ... dz0^b ...' joined by ' + '."""
    if p.is_zero():
        return "0"
    n1 = p.N + 1
    parts = []
    for exp, c in canonical_terms(p):
        factors = []
        for k in range(n1):
            if exp[k]:
                factors.append(f"z{k}^{exp[k]}")
        for k in range(n1):
            if exp[n1 + k]:
                factors.append(f"dz{k}^{exp[n1 + k]}")
        if factors:
            parts.append(f"{_coeff_str(c)} * " + " ".join(factors))
        else:
            parts.append(_coeff_str(c))
    return " + ".join(parts)


_FACTOR_RE = re.compile(r"^(d?z)(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def from_literal(s: str, N: int, field: Field = QQ) -> MultiPoly:
    """Parse a polynomial literal; inverse of to_literal on canonical output.

    Accepts a coefficient, '*' separators, and factors z<k>[^e] / dz<k>[^e];
    the caret and exponent may be omitted for exponent 1, and the leading
    coefficient may be omitted for coefficient 1.
    """
    text = s.strip()
    if text == "":
        raise ParseError("empty literal", token=s)
    if text == "0":
        return MultiPoly.zero(N, field)
    terms: Dict[Exponent, object] = {}
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if not term:
            raise ParseError("empty term between '+' separators", token=raw_term)
        tokens = [t for t in re.split(r"[\s*]+", term) if t]
        coeff: object = 1
        start = 0
        if _COEFF_RE.match(tokens[0]):
            tok = tokens[0]
            if "/" in tok:
                num, den = tok.split("/")
                if int(den) == 0:
                    raise ParseError(f"zero denominator in {tok!r}", token=tok)
                coeff = Fraction(int(num), int(den))
            else:
                coeff = int(tok)
            start = 1
        elif tokens[0].startswith("-"):
            coeff = -1
            tokens[0] = tokens[0][1:]
            if not tokens[0]:
                raise ParseError("dangling minus sign", token=term)
        exp = [0] * (2 * (N + 1))
        for tok in tokens[start:]:
            m = _FACTOR_RE.match(tok)
            if not m:
                raise ParseError(f"unrecognized token {tok!r}", token=tok)
            kind, idx_s, pow_s = m.groups()
            idx = int(idx_s)
            if idx > N:
                raise ParseError(f"variable index {idx} exceeds N={N}", token=tok)
            e = int(pow_s) if pow_s is not None else 1
            slot = idx if kind == "z" else N + 1 + idx
            exp[slot] += e
        key = tuple(exp)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return MultiPoly(N, field, terms)


# ----- calculus and substitutions -----


def _add_term(out: Dict[Exponent, object], key: Exponent, c, p: int) -> None:
    """Adds the nonzero coefficient c at key into out, over F_p (p > 0) or
    Q (p == 0), dropping the term when the sum vanishes."""
    prev = out.get(key)
    if prev is None:
        out[key] = c
        return
    s = (prev + c) % p if p else prev + c
    if s:
        out[key] = s
    else:
        del out[key]


def deriv(p: MultiPoly, j: int) -> MultiPoly:
    """Partial derivative with respect to z_j."""
    if not (0 <= j <= p.N):
        raise ValueError(f"z index {j} out of range")
    q = p.field.p
    out: Dict[Exponent, object] = {}
    # lowering exponent j is injective on the terms it keeps: no two merge
    for exp, c in p.terms.items():
        e = exp[j]
        if e:
            coeff = c * e % q if q else c * e
            if coeff:
                out[exp[:j] + (e - 1,) + exp[j + 1:]] = coeff
    return MultiPoly._of(p.N, p.field, out)


def total_differential(p: MultiPoly) -> MultiPoly:
    """d(p) = sum_k (partial p / partial z_k) * dz_k."""
    q = p.field.p
    n1 = p.N + 1
    out: Dict[Exponent, object] = {}
    for exp, c in p.terms.items():
        for k in range(n1):
            e = exp[k]
            if e == 0:
                continue
            coeff = c * e % q if q else c * e
            if coeff:
                new = list(exp)
                new[k] = e - 1
                new[n1 + k] += 1
                _add_term(out, tuple(new), coeff, q)
    return MultiPoly._of(p.N, p.field, out)


def z_power(N: int, j: int, e: int) -> Exponent:
    """Exponent tuple of the monomial z_j^e (of dz_{j-N-1}^e for j > N)."""
    exp = [0] * (2 * (N + 1))
    exp[j] = e
    return tuple(exp)


def times_monomial(p: MultiPoly, mono: Exponent) -> MultiPoly:
    return MultiPoly._of(p.N, p.field,
                         {tuple(a + b for a, b in zip(exp, mono)): c for exp, c in p.terms.items()})


def divide_exact(p: MultiPoly, mono: Exponent) -> MultiPoly:
    """Divide by a monomial, raising DivisibilityError on any failing term."""
    if len(mono) != 2 * (p.N + 1):
        raise ValueError("divisor exponent width mismatch")
    out: Dict[Exponent, object] = {}
    slots = [(k, e) for k, e in enumerate(mono) if e]
    for exp, c in p.terms.items():
        new = list(exp)
        for k, e in slots:
            new[k] -= e
            if new[k] < 0:
                raise DivisibilityError(
                    f"term with exponents {exp} not divisible by monomial {mono}", term=exp
                )
        out[tuple(new)] = c
    return MultiPoly._of(p.N, p.field, out)


def kill_coordinates(p: MultiPoly, vanished: Iterable[int]) -> MultiPoly:
    """Substitute z_v -> 0 and dz_v -> 0 for every v in vanished.

    Every monomial containing a vanished coordinate (in either grading)
    drops out; nothing else changes.
    """
    vset = sorted(set(vanished))
    if any(not (0 <= v <= p.N) for v in vset):
        raise ValueError("vanished index out of range")
    n1 = p.N + 1
    out: Dict[Exponent, object] = {}
    for exp, c in p.terms.items():
        if any(exp[v] or exp[n1 + v] for v in vset):
            continue
        out[exp] = c
    return MultiPoly._of(p.N, p.field, out)


# ----- modular evaluation -----


class EvalPlan:
    """A sequence of polynomials compiled for evaluation mod m < 2**31.

    Compiling reduces every coefficient mod m once (Fractions through one
    modular inverse per distinct denominator), numbers the distinct
    monomials of all the polynomials, and, for each slot where some
    monomial has a nonzero exponent, stores the slot's distinct exponents
    and an index array into them. at_points evaluates many points at once:
    per slot it builds one power table over the slot's distinct coordinate
    values, with one pow per value and exponent. Each block of points then
    multiplies the table rows of its values into the monomial values; the
    terms take their coefficient times their monomial's value, and each
    polynomial sums its terms. A slot with one distinct value multiplies in
    a single row, so the values stay 1-D until two points differ in a slot,
    and a single point never leaves 1-D. Compiling also fixes where the
    values are reduced: k unreduced factors multiply to at most (m - 1)^k,
    so the values are reduced mod m only before a multiply, or the
    coefficient multiply, that could reach 2**63. For m = 5 and 10 slots a
    monomial is never reduced before its coefficient, and for m near 2**31
    the values are reduced before every multiply but the first. So the
    int64 values never overflow, the terms are reduced, and the running
    sum of fewer than 2**32 residues stays below 2**63. A block holds at
    most EVAL_BLOCK (point, term) entries, and at least one point.
    """

    __slots__ = ("modulus", "_width", "_coeffs", "_monomial", "_slots", "_reduce_last",
                 "_bounds")

    def __init__(self, polys: Sequence[MultiPoly], modulus: int):
        if not 2 <= modulus < 2**31:
            raise ValueError(f"modulus {modulus} outside 2..2**31 - 1: int64 products could overflow")
        for p in polys:
            polys[0]._check_compat(p)
            if p.field.p not in (0, modulus):
                raise ValueError(f"coefficients live in F_{p.field.p}, not F_{modulus}")
        self.modulus = modulus
        self._width = 2 * (polys[0].N + 1) if polys else None
        inverses: Dict[int, int] = {}
        coeffs = []
        for p in polys:
            for c in p.terms.values():
                if isinstance(c, Fraction):
                    inv = inverses.get(c.denominator)
                    if inv is None:
                        den = c.denominator % modulus
                        if den == 0:
                            raise ZeroDivisionError("denominator vanishes mod the test prime")
                        inv = inverses[c.denominator] = pow(den, modulus - 2, modulus)
                    coeffs.append(c.numerator % modulus * inv % modulus)
                else:
                    coeffs.append(c % modulus)
        self._coeffs = np.array(coeffs, dtype=np.int64)
        monomials: Dict[Exponent, int] = {}
        self._monomial = np.array([monomials.setdefault(exp, len(monomials))
                                   for p in polys for exp in p.terms], dtype=np.intp)
        # each slot's factors are residues, at most top; bound is that of the
        # product multiplied in since the last reduction
        top, bound = modulus - 1, 1
        self._slots = []
        for k, column in enumerate(zip(*monomials)):
            exps = sorted(set(column))
            if exps[-1]:
                position = {e: i for i, e in enumerate(exps)}
                index = np.array([position[e] for e in column], dtype=np.intp)
                reduce_first = bound * top >= INT64_LIMIT
                bound = (top if reduce_first else bound) * top
                self._slots.append((k, exps, index, reduce_first))
        self._reduce_last = bound * top >= INT64_LIMIT  # before the coefficients
        self._bounds = np.cumsum([0] + [len(p.terms) for p in polys])

    def __call__(self, z_vals: Sequence[int], dz_vals: Sequence[int]) -> List[int]:
        """The value mod m of each compiled polynomial at (z, dz); a z and
        a dz of different lengths raise ValueError."""
        if len(z_vals) != len(dz_vals):
            raise ValueError(f"z has {len(z_vals)} coordinates but dz has {len(dz_vals)}")
        return self.at_points([list(z_vals) + list(dz_vals)])[0].tolist()

    def at_points(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """The value mod m of each compiled polynomial at each row (z | dz)
        of `points`: an int64 array of shape (rows, polynomials). Once a
        polynomial is compiled, rows whose width is not 2(N+1) raise
        ValueError."""
        m = self.modulus
        try:
            pts = np.asarray(points, dtype=np.int64)
        except OverflowError:
            pts = np.asarray([[x % m for x in row] for row in points], dtype=np.int64)
        if len(pts) and self._width is not None and pts.shape[1:] != (self._width,):
            raise ValueError(f"points (z | dz) need width {self._width}, got shape {pts.shape}")
        out = np.empty((len(pts), len(self._bounds) - 1), dtype=np.int64)
        if not len(pts):
            return out
        # per slot, the powers of its distinct coordinate values, and for
        # each row the index of its value (None when there is one value)
        tables = []
        for k, exps, _, _ in self._slots:
            if len(pts) == 1:
                distinct, where = [int(pts[0, k])], None
            else:
                column = pts[:, k] % m
                # sorted in Python, not by np.unique: numpy's sort kernels
                # add about 0.5 MB of resident code
                distinct = sorted(set(column.tolist()))
                where = np.searchsorted(distinct, column) if len(distinct) > 1 else None
            powers = np.array([pow(x, e, m) for x in distinct for e in exps], dtype=np.int64)
            tables.append((powers if where is None else powers.reshape(len(distinct), -1), where))
        step = max(1, EVAL_BLOCK // max(1, len(self._coeffs)))
        for start in range(0, len(pts), step):
            vals = None  # the monomials' values over the slots so far
            for (_, _, index, reduce_first), (powers, where) in zip(self._slots, tables):
                factor = powers[index] if where is None else \
                    powers[where[start:start + step]][:, index]
                vals = factor if vals is None else (vals % m if reduce_first else vals) * factor
            if vals is not None and self._reduce_last:
                vals = vals % m
            terms = self._coeffs if vals is None else self._coeffs * vals[..., self._monomial] % m
            # each polynomial's sum as a difference of prefix sums that start
            # at 0, so a zero polynomial (an empty run of terms) sums to 0
            sums = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,), dtype=np.int64)
            np.cumsum(terms, axis=-1, out=sums[..., 1:])
            sums = sums[..., self._bounds]
            out[start:start + step] = (sums[..., 1:] - sums[..., :-1]) % m
        return out


# ----- determinants -----


def det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix over F_p. Each echelon row is
    its input row less a combination of the rows found before it, so the
    determinant is that of the echelon rows: 0 when a row is missing, else
    the product of the pivots, negated once for each pair of rows whose
    pivot columns are out of order (sorting the rows by pivot gives a
    triangular matrix). A matrix that is not square is refused."""
    n = len(rows)
    if rows and len(rows[0]) != n:
        raise ValueError(f"determinant of a non-square {n} x {len(rows[0])} matrix")
    echelon = _echelon_mod_p(rows, p)
    if len(echelon) < n:
        return 0
    det, found = 1, []
    for pc, _, r in echelon:
        det = det * r[pc] % p
        for q in found:
            if q > pc:
                det = -det
        found.append(pc)
    return det % p
