"""Shared small helpers: seeded RNG streams and F_p linear algebra.

Randomness discipline: every randomized unit of work draws from its own
child stream derived from (master seed, stage id, unit index), so results
are reproducible independently of execution order. Bulk draws read the
same stream in blocks: randrange_block gives exactly the values, and
leaves exactly the state, of the same number of rng.randrange(n) calls,
which is how the sampled census draws its matrices.

F_p linear algebra has one row reduction, _echelon_mod_p: each row is
reduced mod p and by multiples of the echelon basis rows found before it,
and joins the basis as (pivot column, pivot inverse, row) if anything is
left. Rank counts the basis, the determinant multiplies its pivots and
the kernel back-substitutes through it sorted by pivot. A malformed matrix
is refused with a ValueError naming its shape: ragged rows everywhere, a
determinant of a matrix that is not square, and a kernel of rows whose
width is not the stated number of columns.
"""

from __future__ import annotations

import random
from operator import index
from typing import List, Optional, Sequence, Tuple

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


def _echelon_mod_p(rows: Sequence[Sequence[int]],
                   p: int) -> List[Tuple[int, Optional[int], List[int]]]:
    """Row echelon basis over F_p by row insertion, the one row reduction
    behind rank_mod_p, kernel_basis_mod_p and exact_algebra.det_mod_p.

    Each row is reduced against the basis rows found so far, in the order
    they were found, and joins the basis if an entry is left; its first
    nonzero column is its pivot. A row is reduced mod p once: by its first
    subtraction, or on its own when it needs none. A basis row is zero in
    the pivot columns of the rows found before it, so the pivots are distinct
    and the rows sorted by pivot form an echelon matrix. Returns one
    (pivot column, pivot inverse, row) per basis row, in input order. The
    last input row's inverse is not taken, since no row is reduced against
    it, and reads None. Rows of different lengths raise ValueError.
    """
    basis: List[Tuple[int, Optional[int], List[int]]] = []
    if not rows:
        return basis
    width, last = len(rows[0]), len(rows) - 1
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged {len(rows)}-row matrix: row {i} has {len(row)} entries, "
                             f"row 0 has {width}")
        r = row
        for pc, inv, prow in basis:
            f = r[pc] % p
            if f:
                f = f * inv % p
                r = [(x - f * y) % p for x, y in zip(r, prow)]
        if r is row:  # no subtraction, so not yet reduced mod p
            r = [x % p for x in row]
        if any(r):
            pc = 0
            while not r[pc]:
                pc += 1
            basis.append((pc, pow(r[pc], p - 2, p) if i < last else None, r))
    return basis


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a matrix over F_p: the size of its echelon basis."""
    return len(_echelon_mod_p(rows, p))


def kernel_basis_mod_p(rows: Sequence[Sequence[int]], p: int, ncols: int) -> List[List[int]]:
    """Basis of the right kernel {x : M x = 0} over F_p: one vector per free
    column (set to 1, the other free columns to 0), back-substituted through
    the echelon rows in pivot order, each pivot inverted once. Rows whose
    width is not ncols raise ValueError."""
    if rows and len(rows[0]) != ncols:
        raise ValueError(f"kernel in {ncols} columns of a {len(rows)} x {len(rows[0])} matrix")
    echelon = [(pc, pow(r[pc], p - 2, p) if inv is None else inv, r)
               for pc, inv, r in sorted(_echelon_mod_p(rows, p))]  # the pivots are distinct
    pivots = {pc for pc, _, _ in echelon}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for pc, inv, r in reversed(echelon):
            s = sum(r[j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc] = (-s * inv) % p
        basis.append(vec)
    return basis
