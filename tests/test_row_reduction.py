"""The shared F_p row reduction, read three ways: rank, determinant and
kernel basis must tell one consistent story on every matrix shape, agree
with brute force on every small matrix, and refuse a malformed one."""

import random
from itertools import permutations, product

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


def test_ragged_rows_are_refused():
    # the second row is not cut to the first one's width
    with pytest.raises(ValueError, match=r"ragged 2-row matrix: row 1 has 2 entries, row 0 has 1"):
        rank_mod_p([[0], [0, 1]], 5)
    with pytest.raises(ValueError, match="ragged"):
        det_mod_p([[1, 2], [3]], 5)
    with pytest.raises(ValueError, match="ragged"):
        kernel_basis_mod_p([[1, 2], [3]], 5, 2)


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]])
def test_determinant_of_a_non_square_matrix_is_refused(m):
    # a wide matrix has no determinant either, though each row has a pivot
    shape = f"{len(m)} x {len(m[0])}"
    with pytest.raises(ValueError, match=f"non-square {shape} matrix"):
        det_mod_p(m, 7)


def test_kernel_of_rows_of_another_width_is_refused():
    # no entry is dropped and no column is added
    with pytest.raises(ValueError, match="kernel in 2 columns of a 1 x 3 matrix"):
        kernel_basis_mod_p([[1, 2, 3]], 5, 2)
    with pytest.raises(ValueError, match="kernel in 4 columns of a 1 x 3 matrix"):
        kernel_basis_mod_p([[1, 2, 3]], 5, 4)


def span(vectors, p, ncols):
    """Every combination of the vectors over F_p, as a set of tuples."""
    return {tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % p for j in range(ncols))
            for coeffs in product(range(p), repeat=len(vectors))}


def leibniz(m, p):
    """The determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total % p


@pytest.mark.parametrize("p, shapes", [(2, [(2, 2), (2, 3), (3, 2), (3, 3)]),
                                       (3, [(2, 2), (2, 3)])])
def test_every_small_matrix_agrees_with_brute_force(p, shapes):
    # a judge that shares nothing with the row reduction: rank from the
    # size of the enumerated row space, det by the Leibniz sum, and the
    # kernel against the enumerated solution set
    for nrows, ncols in shapes:
        vectors = list(product(range(p), repeat=ncols))
        for entries in product(range(p), repeat=nrows * ncols):
            m = [list(entries[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
            rank = rank_mod_p(m, p)
            assert p ** rank == len(span(m, p, ncols)), m
            if nrows == ncols:
                assert det_mod_p(m, p) == leibniz(m, p), m
            solutions = {x for x in vectors
                         if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in m)}
            basis = kernel_basis_mod_p(m, p, ncols)
            assert len(basis) == ncols - rank, m
            assert span(basis, p, ncols) == solutions, m
