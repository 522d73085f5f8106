"""Exact linear algebra: RREF, kernels, maximal minors, against scalar references."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from varcodes.gf import GF
from varcodes.linalg import Matrix, det, maximal_minors, rank, rank_and_kernel, rref


def test_rref_identity():
    F = GF(2)
    M = Matrix(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    R, pivots = rref(M)
    assert np.array_equal(R.rows, M.rows)
    assert pivots == [0, 1, 2]


def test_rref_zero():
    F = GF(3)
    M = Matrix(F, [[0, 0, 0], [0, 0, 0]])
    R, pivots = rref(M)
    assert np.array_equal(R.rows, M.rows)
    assert pivots == []


def test_rref_gf2_hand_elimination():
    # [[1,1],[1,0]]: r2 += r1 gives [[1,1],[0,1]], then r1 += r2.
    F = GF(2)
    R, pivots = rref(Matrix(F, [[1, 1], [1, 0]]))
    assert R.rows.tolist() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def _random_matrix(F, nrows, ncols, rng):
    return Matrix(F, [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)])


def _mul_vec(M, v):
    F = M.field
    out = []
    for row in M.rows.tolist():
        acc = 0
        for a, b in zip(row, v):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 729])
def test_rref_idempotent_and_kernel(q):
    F = GF.from_order(q)
    rng = random.Random(q)
    for _ in range(40):
        M = _random_matrix(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        R, pivots = rref(M)
        R2, pivots2 = rref(R)
        assert np.array_equal(R2.rows, R.rows) and pivots2 == pivots
        r, ker = rank_and_kernel(M)
        assert r == len(pivots)
        assert r + ker.nrows == M.ncols
        assert ker.rows.dtype == F.array_ops().dtype
        for v in ker.rows.tolist():
            assert _mul_vec(M, v) == [0] * M.nrows


def test_rank_and_kernel_identity_and_zero():
    F = GF(2)
    r, ker = rank_and_kernel(Matrix(F, np.eye(4, dtype=np.uint8)))
    assert r == 4 and ker.nrows == 0
    r, ker = rank_and_kernel(Matrix(F, [[0, 0, 0], [0, 0, 0]]))
    assert r == 0 and ker.nrows == 3
    assert ker.rows.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _minors(M):
    return maximal_minors(M.field, M.rows[None])[0].tolist()


def test_maximal_minors_identity():
    F = GF(2)
    assert _minors(Matrix(F, [[1, 0], [0, 1]])) == [1]


def test_maximal_minors_standard_plane():
    # Rows e0, e1 in 4 columns: only the {0,1} minor survives; direct
    # determinant expansion of each 2x2 block gives (1,0,0,0,0,0).
    F = GF(2)
    M = Matrix(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert _minors(M) == [1, 0, 0, 0, 0, 0]


def test_maximal_minors_rank_deficient():
    F = GF(3)
    M = Matrix(F, [[1, 2, 0], [2, 1, 0]])  # second row = 2 * first
    assert _minors(M) == [0, 0, 0]


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
        assert _minors(AM) == [F.mul(dA, m) for m in _minors(M)]


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


def _scalar_rref(F, rows):
    # Reference: row-by-row Gauss-Jordan elimination on lists, through the
    # scalar GF operations (the elimination rref used before it ran on arrays).
    R = [row[:] for row in rows]
    nrows, ncols = len(R), len(R[0]) if R else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if R[i][col] != 0), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = F.inv(R[r][col])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][col] != 0:
                c = R[i][col]
                R[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return R, pivots


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 27, 729])
def test_rref_matches_scalar_elimination(q):
    F = GF.from_order(q)
    rng = random.Random(700 + q)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(0, 9)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        for i in rng.sample(range(nrows), rng.randrange(nrows + 1) // 2):
            rows[i] = [0] * ncols  # zero rows
        for j in rng.sample(range(ncols), rng.randrange(ncols + 1) // 2):
            for row in rows:
                row[j] = 0  # zero columns
        if nrows > 1 and rng.random() < 0.5:
            rows[-1] = rows[0][:]  # a repeated row
        R, pivots = rref(Matrix(F, rows))
        assert R.rows.dtype == F.array_ops().dtype
        assert (R.rows.tolist(), pivots) == _scalar_rref(F, rows)


def _leibniz_det(F, A):
    # Sum over permutations with the table-free product _mul_raw; signs and
    # sums digit by digit mod p.  Shares no code with GF.array_ops.
    def add(a, b, sign=1):
        return F._from_digits([x + sign * y for x, y in zip(F._digits(a), F._digits(b))])

    total = 0
    for perm in permutations(range(len(A))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(A)), 2))
        term = 1
        for i, c in enumerate(perm):
            term = F._mul_raw(term, A[i][c])
        total = add(total, term, -1 if inversions % 2 else 1)
    return total


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_batched_minors_match_leibniz(l, q):
    F = GF.from_order(q)
    rng = random.Random(10 * l + q)
    m = l + 2
    stack = []
    for t in range(12):
        A = [[rng.randrange(q) for _ in range(m)] for _ in range(l)]
        if t % 3 == 1 and l > 1:
            c = rng.randrange(1, q)
            A[-1] = [F.mul(c, x) for x in A[0]]  # rank-deficient: proportional rows
        elif t % 3 == 2:
            A[rng.randrange(l)] = [0] * m  # rank-deficient: a zero row
        stack.append(A)
    got = maximal_minors(F, np.array(stack, F.array_ops().dtype))
    assert got.shape == (len(stack), len(list(combinations(range(m), l))))
    expected = [
        [_leibniz_det(F, [[row[c] for c in S] for row in A]) for S in combinations(range(m), l)]
        for A in stack
    ]
    assert got.tolist() == expected
