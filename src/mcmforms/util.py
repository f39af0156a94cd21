"""Shared small helpers: seeded RNG streams and F_p linear algebra.

Randomness discipline: every randomized unit of work draws from its own
child stream derived from (master seed, stage id, unit index), so results
are reproducible independently of execution order. Bulk draws read the
same stream in blocks: randrange_block gives exactly the values, and
leaves exactly the state, of the same number of rng.randrange(n) calls,
which is how the sampled census draws its matrices.
"""

from __future__ import annotations

import random
from operator import index
from typing import Iterable, List, Optional, Sequence

import numpy as np


def child_rng(master_seed: int, stage: str, unit) -> random.Random:
    """Return a deterministic RNG stream for one unit of work.

    CPython seeds str deterministically (sha512), so the composite key
    gives stable, order-independent streams.
    """
    return random.Random(f"{master_seed}:{stage}:{unit}")


def randrange_block(rng: random.Random, n: int, count: int) -> np.ndarray:
    """[rng.randrange(n) for _ in range(count)] as an int64 array, leaving
    rng in the state that loop leaves it in; n must lie in [1, 2^32).

    For such n, randrange spends one 32-bit Mersenne Twister word per
    attempt: it keeps the word's top n.bit_length() bits and rejects a
    value >= n. getrandbits(32 w) returns the next w words, least
    significant first, so each call reads the words for all the draws
    still missing and keeps the accepted ones. Every word then becomes a
    draw or a rejection, and none past the last draw is taken. Only a
    plain random.Random is read this way: a subclass may draw otherwise.
    """
    if type(rng) is not random.Random:
        raise TypeError(f"need a random.Random stream, got {type(rng).__name__}")
    n, count = index(n), index(count)
    if not 1 <= n < 2 ** 32:
        raise ValueError(f"block draws need 1 <= n < 2**32, got {n}")
    if count < 0:
        raise ValueError(f"draw count must be >= 0, got {count}")
    shift = 32 - n.bit_length()
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        w = count - filled
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), dtype="<u4") >> shift
        kept = words[words < n]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    return out


def chunks(flat: Sequence, width: int) -> List[Sequence]:
    """flat cut into consecutive rows of `width` entries, e.g. the values of
    a row-major flattened matrix back into its rows."""
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _echelon_mod_p(rows: Iterable[Sequence[int]], p: int, ncols: Optional[int] = None):
    """Forward Gaussian elimination over F_p, the one row reduction behind
    rank_mod_p, kernel_basis_mod_p and exact_algebra.det_mod_p.

    Returns (m, pivots, sign): m is the reduced matrix, whose first
    len(pivots) rows carry unnormalized pivots in the columns `pivots` with
    zeros below them; sign is (-1)^(row swaps). Only the first ncols
    columns (default: all) are searched for pivots.
    """
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    sign = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        for pivot in range(row, nrows):
            if m[pivot][col]:
                break
        else:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        prow = m[row]
        inv = pow(prow[col], p - 2, p)
        for i in range(row + 1, nrows):
            f = m[i][col]
            if f:
                f = (f * inv) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        pivots.append(col)
    return m, pivots, sign


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of a matrix over F_p: its pivot count after elimination."""
    return len(_echelon_mod_p(rows, p)[1])


def kernel_basis_mod_p(rows: Iterable[Sequence[int]], p: int, ncols: int) -> List[List[int]]:
    """Basis of the right kernel {x : M x = 0} over F_p: one vector per free
    column (set to 1, the other free columns to 0), back-substituted."""
    m, pivots, _ = _echelon_mod_p(rows, p, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r in reversed(range(len(pivots))):
            pc = pivots[r]
            s = sum(m[r][j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc] = (-s * pow(m[r][pc], p - 2, p)) % p
        basis.append(vec)
    return basis
