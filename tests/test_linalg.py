"""Exact linear algebra: RREF, kernels, maximal minors."""

import random

import pytest

from varcodes.gf import GF
from varcodes.linalg import Matrix, det, maximal_minors, rank, rank_and_kernel, rref


def test_rref_identity():
    F = GF(2)
    M = Matrix.identity(F, 3)
    R, pivots = rref(M)
    assert R.rows == M.rows
    assert pivots == [0, 1, 2]


def test_rref_zero():
    F = GF(3)
    M = Matrix.zeros(F, 2, 3)
    R, pivots = rref(M)
    assert R.rows == M.rows
    assert pivots == []


def test_rref_gf2_hand_elimination():
    # [[1,1],[1,0]]: r2 += r1 gives [[1,1],[0,1]], then r1 += r2.
    F = GF(2)
    R, pivots = rref(Matrix(F, [[1, 1], [1, 0]]))
    assert R.rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def _random_matrix(F, nrows, ncols, rng):
    return Matrix(F, [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)])


def _mul_vec(M, v):
    F = M.field
    out = []
    for row in M.rows:
        acc = 0
        for a, b in zip(row, v):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_idempotent_and_kernel(q):
    F = GF.from_order(q)
    rng = random.Random(q)
    for _ in range(40):
        M = _random_matrix(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        R, pivots = rref(M)
        R2, pivots2 = rref(R)
        assert R2.rows == R.rows and pivots2 == pivots
        r, ker = rank_and_kernel(M)
        assert r == len(pivots)
        assert r + ker.nrows == M.ncols
        for v in ker.rows:
            assert _mul_vec(M, v) == [0] * M.nrows


def test_rank_and_kernel_identity_and_zero():
    F = GF(2)
    r, ker = rank_and_kernel(Matrix.identity(F, 4))
    assert r == 4 and ker.nrows == 0
    r, ker = rank_and_kernel(Matrix.zeros(F, 2, 3))
    assert r == 0 and ker.nrows == 3
    assert ker.rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_maximal_minors_identity():
    F = GF(2)
    assert maximal_minors(Matrix.identity(F, 2)) == [1]


def test_maximal_minors_standard_plane():
    # Rows e0, e1 in 4 columns: only the {0,1} minor survives; direct
    # determinant expansion of each 2x2 block gives (1,0,0,0,0,0).
    F = GF(2)
    M = Matrix(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert maximal_minors(M) == [1, 0, 0, 0, 0, 0]


def test_maximal_minors_rank_deficient():
    F = GF(3)
    M = Matrix(F, [[1, 2, 0], [2, 1, 0]])  # second row = 2 * first
    assert maximal_minors(M) == [0, 0, 0]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_minors_scale_by_det_of_left_factor(q):
    F = GF.from_order(q)
    rng = random.Random(100 + q)
    for _ in range(25):
        M = _random_matrix(F, 2, 4, rng)
        while True:
            A = _random_matrix(F, 2, 2, rng)
            dA = det(A)
            if dA != 0:
                break
        AM = Matrix(
            F,
            [
                [
                    F.add(F.mul(A.rows[i][0], M.rows[0][j]), F.mul(A.rows[i][1], M.rows[1][j]))
                    for j in range(4)
                ]
                for i in range(2)
            ],
        )
        assert maximal_minors(AM) == [F.mul(dA, m) for m in maximal_minors(M)]


def test_det_hand_values():
    F = GF(5)
    assert det(Matrix(F, [[2]])) == 2
    assert det(Matrix(F, [[1, 2], [3, 4]])) == (4 - 6) % 5
    assert det(Matrix(F, [[0, 1], [1, 0]])) == (-1) % 5


def test_flag_segre_evaluation_matrix_rank():
    # Linear forms in the 9 Segre coordinates of the point-hyperplane flags
    # of P^2 over GF(2): 21 columns, rank 8 (the trace relation kills one).
    from varcodes.varieties import flag_points

    F = GF(2)
    flags = flag_points(3, F)
    M = Matrix(F, [[p[i] for p in flags.points] for i in range(9)])
    assert M.ncols == 21
    assert rank(M) == 8
