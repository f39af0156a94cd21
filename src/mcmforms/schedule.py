"""Exponent schedules for moving-coefficient section families.

The level recurrences produce the exponents mu_{l,k} and delta_l and the
final coefficient degree d. On top of the schedule sit the twist-degree
ledger (the integers heart^nu, heart^{tau,rho} and their hidden variants,
all required to be <= -(N-eta)*heart) and the effective-bound report.

All arithmetic is exact big-integer; mu values overflow 64 bits already for
N >= 6 with several levels, so ProblemShape and build_schedule refuse an
input that is not an int, never convert it. No schedule is read back:
section_builder.load_family recomputes a saved one from its inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import Context, Decimal
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .util import require_ints


@dataclass(frozen=True)
class ProblemShape:
    """Ambient dimension N and the section counts (c with differentials, r without)."""

    N: int
    c: int
    r: int

    def __post_init__(self):
        require_ints("shape N, c and r must be integers", (self.N, self.c, self.r))
        if self.N < 1 or self.c < 1 or self.r < 0:
            raise ValueError(f"invalid shape (N={self.N}, c={self.c}, r={self.r})")
        if 2 * self.c + self.r < self.N:
            raise ValueError(f"need 2c+r >= N, got 2*{self.c}+{self.r} < {self.N}")
        if self.c + self.r >= self.N:
            raise ValueError(f"need c+r < N, got {self.c}+{self.r} >= {self.N}")

    @property
    def n(self) -> int:
        """Symmetric-power degree of the forms: n = N - c - r, with 1 <= n <= c."""
        return self.N - self.c - self.r


@dataclass(frozen=True)
class ExponentSchedule:
    """Output of the level recurrences.

    delta[l] is defined for l = c+r+1 .. N+1 (the top value is the unused
    placeholder N*mu[N,N]); mu[(l,k)] for l = c+r+1 .. N and k = 0..l.
    """

    shape: ProblemShape
    heart: int
    eps: Tuple[int, ...]
    delta: Dict[int, int]
    mu: Dict[Tuple[int, int], int]
    d: int
    slack: int = 0


def build_schedule(
    shape: ProblemShape, heart: int, eps: Optional[Sequence[int]] = None, slack: int = 0
) -> ExponentSchedule:
    """Run the level recurrences with all inequalities taken as equalities.

    delta_{c+r+1} = max eps_i, then for each level l:
      mu_{l,k} = sum_{j<k} l*mu_{l,j} + (l-k)*delta_l + l*delta_{c+r+1}
                 + l + 1 + l*heart          (+ uniform slack, default 0)
      delta_{l+1} = l * mu_{l,l}
    and finally d = (N+1) * mu_{N,N}.
    """
    cr = shape.c + shape.r
    eps = require_ints("schedule eps must be integers", (1,) * cr if eps is None else eps)
    require_ints("schedule heart and slack must be integers", (heart, slack))
    if len(eps) != cr:
        raise ValueError(f"need {cr} epsilon values, got {len(eps)}")
    if any(e < 1 for e in eps):
        raise ValueError("all eps_i must be >= 1")
    if heart < 1:
        raise ValueError("heart must be >= 1")
    if slack < 0:
        raise ValueError("slack must be >= 0")

    first = cr + 1
    delta: Dict[int, int] = {first: max(eps)}
    mu: Dict[Tuple[int, int], int] = {}
    for l in range(first, shape.N + 1):
        for k in range(l + 1):
            val = (l - k) * delta[l] + l * delta[first] + l + 1 + l * heart + slack
            for j in range(k):
                val += l * mu[(l, j)]
            mu[(l, k)] = val
        delta[l + 1] = l * mu[(l, l)]
    d = (shape.N + 1) * mu[(shape.N, shape.N)]
    return ExponentSchedule(shape=shape, heart=heart, eps=eps, delta=delta, mu=mu, d=d, slack=slack)


def validate_schedule(s: ExponentSchedule) -> Dict[str, object]:
    """Check every defining inequality; report lhs, rhs and slack per check."""
    checks: List[Dict[str, object]] = []

    def add(name: str, lhs: int, rhs: int, relation: str):
        ok = lhs >= rhs if relation == ">=" else lhs == rhs
        checks.append({"name": name, "lhs": lhs, "rhs": rhs, "relation": relation,
                       "slack": lhs - rhs, "ok": ok})

    shape = s.shape
    first = shape.c + shape.r + 1
    levels = range(first, shape.N + 1)
    add("delta_base >= max(eps)", s.delta[first], max(s.eps), ">=")
    for l in levels:
        for k in range(l + 1):
            bound = (l - k) * s.delta[l] + l * s.delta[first] + l + 1 + l * s.heart
            bound += sum(l * s.mu[(l, j)] for j in range(k))
            add(f"mu[{l},{k}] >= level bound", s.mu[(l, k)], bound, ">=")
        add(f"delta[{l + 1}] == {l}*mu[{l},{l}]", s.delta[l + 1], l * s.mu[(l, l)], "==")
    add(f"d >= (N+1)*mu[{shape.N},{shape.N}]", s.d, (shape.N + 1) * s.mu[(shape.N, shape.N)], ">=")

    # structural invariants: strict growth along each row and across levels,
    # and positive residual exponents d - l*mu_{l,k} for the monomial shapes
    for l in levels:
        row = [s.mu[(l, k)] for k in range(l + 1)]
        for k in range(l):
            add(f"mu[{l},{k + 1}] > mu[{l},{k}]", row[k + 1], row[k] + 1, ">=")
        add(f"delta[{l + 1}] > mu[{l},{l}]", s.delta[l + 1], row[l] + 1, ">=")
        if l + 1 <= shape.N:
            add(f"mu[{l + 1},0] >= delta[{l + 1}]", s.mu[(l + 1, 0)], s.delta[l + 1], ">=")
        for k in range(l + 1):
            add(f"d - {l}*mu[{l},{k}] >= 1", s.d - l * s.mu[(l, k)], 1, ">=")
    return {"ok": all(ch["ok"] for ch in checks), "checks": checks}


# ----- twist-degree ledger -----


@dataclass(frozen=True)
class LedgerEntry:
    """One twist degree: kind K_nu or K_tau_rho at hidden depth eta.

    The value is independent of nu (resp. of rho), so entries are recorded
    once per (eta, kind, tau, selection). selection lists the differential
    rows j_1 < ... < j_{n-eta} drawn from 1..c.
    """

    eta: int
    kind: str
    tau: Optional[int]
    selection: Tuple[int, ...]
    value: int
    bound: int
    ok: bool
    tight: bool


@dataclass(frozen=True)
class TwistLedger:
    shape: ProblemShape
    heart: int
    eps: Tuple[int, ...]
    entries: Tuple[LedgerEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lookup(self, eta: int, kind: str, tau: Optional[int], selection: Sequence[int]) -> LedgerEntry:
        sel = tuple(selection)
        for e in self.entries:
            if e.eta == eta and e.kind == kind and e.tau == tau and e.selection == sel:
                return e
        raise KeyError((eta, kind, tau, sel))


def twist_ledger(s: ExponentSchedule) -> TwistLedger:
    """All twist degrees heart^nu and heart^{tau,rho} for eta = 0..n-1.

    At hidden depth eta the construction lives on N-eta coordinates; writing
    m = N - eta and using delta_m from the schedule (the bootstrap value
    delta_{c+r+1} when level m-1 does not exist):

      heart^nu        = -mu_{m,0}    + m*delta_m + sum eps + m + 1
      heart^{tau,rho} = -mu_{m,tau+1} + sum_{k<=tau} m*mu_{m,k}
                        + (m-tau-1)*delta_m + sum eps + m + 1

    where sum eps ranges over all eps_1..eps_{c+r} plus the selected
    eps_{j_1}..eps_{j_{n-eta}}. Every entry must be <= -m*heart.
    """
    shape = s.shape
    N, c, n = shape.N, shape.c, shape.n
    entries: List[LedgerEntry] = []
    for eta in range(n):
        m = N - eta
        dlt = s.delta[m]
        bound = -m * s.heart
        for sel in combinations(range(1, c + 1), n - eta):
            eps_sum = sum(s.eps) + sum(s.eps[j - 1] for j in sel)
            base = eps_sum + m + 1
            nu_val = -s.mu[(m, 0)] + m * dlt + base
            entries.append(
                LedgerEntry(eta, "K_nu", None, sel, nu_val, bound, nu_val <= bound, nu_val == bound)
            )
            for tau in range(m):
                val = -s.mu[(m, tau + 1)] + sum(m * s.mu[(m, k)] for k in range(tau + 1))
                val += (m - tau - 1) * dlt + base
                entries.append(
                    LedgerEntry(eta, "K_tau_rho", tau, sel, val, bound, val <= bound, val == bound)
                )
    return TwistLedger(shape=shape, heart=s.heart, eps=s.eps, entries=tuple(entries))


# ----- twist degrees of the explicit-exponent (Fermat-type) families -----


def fermat_heart(degrees: Sequence[int], selection: Sequence[int]) -> int:
    """Twist of the undivided forms: sum of all section degrees d_1..d_{c+r}
    plus the degrees of the selected differential rows."""
    return sum(degrees) + sum(degrees[j - 1] for j in selection)


def fermat_heart_prime(degrees: Sequence[int], lambdas: Sequence[int], selection: Sequence[int]) -> int:
    """Twist after the dividing trick: heart minus sum_k (lambda_k - 1)."""
    return fermat_heart(degrees, selection) - sum(l - 1 for l in lambdas)


def fermat_hidden_heart_prime(
    degrees: Sequence[int],
    lambdas: Sequence[int],
    selection: Sequence[int],
    vanished: Sequence[int],
) -> int:
    """Twist of the hidden forms on {z_v = 0}: the division only spends the
    retained coordinates, so the vanished lambda_v - 1 are not subtracted.

    Requires every lambda_j >= 2 (the hidden construction needs honest
    powers on every coordinate).
    """
    if any(l < 2 for l in lambdas):
        raise ValueError("hidden forms require all lambda_j >= 2")
    vset = set(vanished)
    retained_spend = sum(l - 1 for k, l in enumerate(lambdas) if k not in vset)
    return fermat_heart(degrees, selection) - retained_spend


# ----- effective-bound reporting -----


def nn2_threshold(N: int) -> Dict[str, object]:
    """The reference degree d0 = N^(N^2/2) - 1 and big = N^(N^2): d0
    exactly for even N^2, else via integer square roots of big (both
    rounding variants). effective_bound_report and
    product_coup.effective_bound_NN2 both read it."""
    nsq = N * N
    big = N**nsq
    if nsq % 2 == 0:
        d0 = N ** (nsq // 2) - 1
        return {"parity": "even", "d0": d0, "big": big}
    root = isqrt(big)
    ceil_root = root if root * root == big else root + 1
    return {
        "parity": "odd",
        "d0_floor": root - 1,
        "d0_ceil": ceil_root - 1,
        "big": big,
    }


def _root_less_one(big: int) -> Tuple[object, str]:
    """sqrt(big) - 1 for an integer big > 1, and the precision it carries,
    without converting big to a float: the double nearest sqrt(big), less
    one, while that double is finite, else a 17-digit Decimal. The double
    comes from an integer square root with at least 55 bits whose lowest
    bit is set when inexact, so its one rounding to 53 bits is correct."""
    k = max(0, 55 - big.bit_length() // 2)
    scaled = big << 2 * k
    root = isqrt(scaled)
    try:
        return (root | (root * root != scaled)) / (1 << k) - 1, "double precision"
    except OverflowError:
        return Decimal(big).sqrt(Context(prec=17)) - 1, "17 significant digits"


def effective_bound_report(s: ExponentSchedule) -> Dict[str, object]:
    """Check d < N^(N^2/2) - 1 for the schedule degree d = (N+1)*mu[N,N].

    This is the schedule's inequality; product_coup.effective_bound_NN2
    checks d0*(d0+1) < N^(N^2) for the reference degree d0 itself.

    The comparison is surfaced, never asserted: several shapes exceed the
    reference value and are flagged FAIL without raising. For odd N^2 the
    integer comparison is (d+1)^2 < N^(N^2); epsilon_0 = 3/d0 is exact for
    even N^2 and a decimal with stated precision otherwise.
    """
    N = s.shape.N
    thr = nn2_threshold(N)
    report: Dict[str, object] = {"N": N, "d_schedule": s.d, "parity": thr["parity"]}
    if thr["parity"] == "even":
        d0 = thr["d0"]
        fits = s.d < d0
        report.update(
            {
                "d0": d0,
                "comparison": f"{s.d} {'<' if fits else '>='} {d0}",
                "verdict": "PASS" if fits else "FAIL",
                "flagged": not fits,
                "eps0": str(Fraction(3, d0)),
            }
        )
    else:
        big = thr["big"]
        # d < N^(N^2/2) - 1  <=>  (d+1)^2 < N^(N^2), exactly in integers
        fits = (s.d + 1) * (s.d + 1) < big
        d0, precision = _root_less_one(big)
        report.update(
            {
                "d0_approx": f"{d0:.2f}",
                "d0_floor": thr["d0_floor"],
                "d0_ceil": thr["d0_ceil"],
                "comparison": f"({s.d}+1)^2 {'<' if fits else '>='} {N}^{N * N}",
                "verdict": "PASS" if fits else "FAIL",
                "flagged": not fits,
                "eps0_approx": f"{3 / d0:.6g}",
                "eps0_precision": f"{precision} on N^(N^2/2)",
            }
        )
    return report


def schedule_to_dict(s: ExponentSchedule) -> Dict[str, object]:
    """JSON-friendly encoding with string keys."""
    return {
        "shape": {"N": s.shape.N, "c": s.shape.c, "r": s.shape.r, "n": s.shape.n},
        "heart": s.heart,
        "eps": list(s.eps),
        "slack": s.slack,
        "delta": {str(l): v for l, v in sorted(s.delta.items())},
        "mu": {f"{l},{k}": v for (l, k), v in sorted(s.mu.items())},
        "d": s.d,
    }


def ledger_to_dict(ledger: TwistLedger) -> Dict[str, object]:
    return {
        "shape": {"N": ledger.shape.N, "c": ledger.shape.c, "r": ledger.shape.r},
        "heart": ledger.heart,
        "eps": list(ledger.eps),
        "ok": ledger.ok,
        "entries": [asdict(e) for e in ledger.entries],
    }
