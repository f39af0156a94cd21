"""The shared F_p row reduction, read three ways: rank, determinant and
kernel basis must tell one consistent story on every matrix shape."""

import random

import pytest

from mcmforms.exact_algebra import det_mod_p
from mcmforms.util import kernel_basis_mod_p, rank_mod_p

PRIMES = (2, 5, 101)


def random_matrix(rng, nrows, ncols, p):
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


def singular_matrix(rng, n, p):
    """Square, with the last row a combination of the others."""
    m = random_matrix(rng, n - 1, n, p)
    coeffs = [rng.randrange(p) for _ in range(n - 1)]
    m.append([sum(c * row[j] for c, row in zip(coeffs, m)) % p for j in range(n)])
    return m


def cases(p):
    rng = random.Random(f"row-reduction:{p}")
    out = []
    for n in (1, 2, 3, 5):
        out += [("random", random_matrix(rng, n, n, p)) for _ in range(12)]
        if n > 1:
            out += [("singular", singular_matrix(rng, n, p)) for _ in range(6)]
    out += [("wide", random_matrix(rng, 2, 5, p)) for _ in range(8)]
    out += [("tall", random_matrix(rng, 6, 3, p)) for _ in range(8)]
    out += [("zero", [[0] * 4 for _ in range(3)]), ("negative", [[-1, -p - 2], [3 * p, -7]])]
    return out


def check_kernel(m, p, ncols):
    rank = rank_mod_p(m, p)
    basis = kernel_basis_mod_p(m, p, ncols)
    assert len(basis) == ncols - rank  # nullity
    for v in basis:
        assert len(v) == ncols
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in m)
    # the basis vectors are independent: each has a 1 where the others have 0
    assert rank_mod_p(basis, p) == len(basis)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_det_and_kernel_agree(p):
    for label, m in cases(p):
        nrows, ncols = len(m), len(m[0])
        rank = rank_mod_p(m, p)
        assert 0 <= rank <= min(nrows, ncols), label
        assert rank == rank_mod_p([list(col) for col in zip(*m)], p), label
        if nrows == ncols:
            assert (rank == nrows) == (det_mod_p(m, p) != 0), label
        if label == "singular":
            assert det_mod_p(m, p) == 0
        check_kernel(m, p, ncols)


@pytest.mark.parametrize("p", PRIMES)
def test_empty_matrix(p):
    assert rank_mod_p([], p) == 0
    assert det_mod_p([], p) == 1
    assert kernel_basis_mod_p([], p, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_det_sign_follows_row_swaps():
    assert det_mod_p([[0, 1], [1, 0]], 101) == 100
    assert det_mod_p([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 5) == 4
    assert det_mod_p([[2, 3], [4, 6]], 101) == 0


def test_kernel_basis_is_reduced_on_the_free_columns():
    # x0 + x1 + x2 = 0 over F_5: free columns 1 and 2
    assert kernel_basis_mod_p([[1, 1, 1]], 5, 3) == [[4, 1, 0], [4, 0, 1]]
    # pivots in columns 0 and 2, free columns 1 and 3
    m = [[1, 2, 0, 1], [2, 4, 1, 0]]
    assert kernel_basis_mod_p(m, 5, 4) == [[3, 1, 0, 0], [4, 0, 2, 1]]
