"""Dense exact linear algebra over GF(q).

A Matrix holds canonical element indices in one 2-D numpy array of the
field's array dtype, from artifact load or evaluation through rref and
rank_and_kernel to the enumeration engine.  The bulk routines run on it
through GF.array_ops: rref eliminates one pivot at a time with a broadcast
update of every other row, and maximal_minors computes the Pluecker
coordinates of a whole stack of l x m matrices at once.  det stays a scalar
elimination for single small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch
from .gf import GF


@dataclass(eq=False)
class Matrix:
    """A matrix over a field, as a 2-D index array in field.array_ops().dtype.

    rows may be given as such an array, which is kept as it is, or as nested
    lists of element indices, which are checked for ragged rows and
    converted once.  Entries are not range-checked here;
    LinearCode.from_dict checks them at the boundary.
    """

    field: GF
    rows: np.ndarray

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            return
        if len({len(r) for r in self.rows}) > 1:
            raise DimensionMismatch("ragged rows")
        ncols = len(self.rows[0]) if self.rows else 0
        self.rows = np.array(self.rows, self.field.array_ops().dtype).reshape(len(self.rows), ncols)

    @property
    def nrows(self) -> int:
        return self.rows.shape[0]

    @property
    def ncols(self) -> int:
        return self.rows.shape[1]


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns; row space is preserved."""
    R = M.rows.copy()
    return Matrix(M.field, R), _eliminate(M.field, R)


def _eliminate(F: GF, R: np.ndarray) -> list[int]:
    """Bring the index array R to reduced row echelon form in place; its pivot columns."""
    ops = F.array_ops()
    pivots: list[int] = []
    col = 0
    for r in range(len(R)):
        remaining = R[r:, col:].any(axis=0).nonzero()[0]
        if not remaining.size:
            break
        col += int(remaining[0])
        i = r + int(R[r:, col].nonzero()[0][0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        if R[r, col] != 1:
            R[r, col:] = ops.mul(R[r, col:], F.inv(int(R[r, col])))
        others = R[:, col].nonzero()[0]
        others = others[others != r]
        if others.size:
            scaled = ops.mul(R[others, col, None], R[r, col:])
            R[others, col:] = ops.add(R[others, col:], ops.neg(scaled))
        pivots.append(col)
        col += 1
    return pivots


def pivot_patterns(r: int, k: int):
    """(pivots, free) for every RREF pattern of an r x k matrix of rank r.

    free lists the (row, column) entries the pattern leaves free, row by row.
    """
    for pivots in combinations(range(k), r):
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, k) if c not in pivots]
        yield pivots, free


def rank(M: Matrix) -> int:
    """Rank of M.  With more than 2k columns for k rows, the rows that are
    not zero on the leading 2k columns are eliminated there first, next to
    an identity that records their row operations T.  When that window is
    short of rank k, the rows it leaves zero go on, as T times the columns
    after it, with the rows that were zero on it, to one elimination of
    those columns alone, so no column is eliminated twice."""
    F, rows = M.field, M.rows
    k = len(rows)
    if rows.shape[1] <= 2 * k:
        return len(_eliminate(F, rows.copy()))
    live = rows[:, : 2 * k].any(axis=1)
    R = np.hstack([rows[live, : 2 * k], np.eye(live.sum(), dtype=rows.dtype)])
    done = sum(p < 2 * k for p in _eliminate(F, R))
    if done == k:
        return k
    ops, T, rest = F.array_ops(), R[done:, 2 * k :], rows[live, 2 * k :]
    carried = np.zeros((len(T), rest.shape[1]), rows.dtype)
    for i in np.flatnonzero(T.any(axis=0)):  # carried = T rest
        carried = ops.add(carried, ops.mul(T[:, i, None], rest[i]))
    return done + len(_eliminate(F, np.vstack([rows[~live, 2 * k :], carried])))


def rank_and_kernel(M: Matrix) -> tuple[int, Matrix]:
    """Rank plus a basis (rows) of the right kernel {v : Mv = 0}.

    Basis vectors are indexed by the non-pivot columns in ascending order,
    each with a 1 in its free coordinate, so the result is canonical.
    """
    R, pivots = rref(M)
    free = [j for j in range(M.ncols) if j not in pivots]
    basis = np.zeros((len(free), M.ncols), R.rows.dtype)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = M.field.array_ops().neg(R.rows[: len(pivots), free]).T
    return len(pivots), Matrix(M.field, basis)


def det(M: Matrix) -> int:
    """Determinant of a square matrix by elimination with sign tracking."""
    F = M.field
    n = M.nrows
    if n != M.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    A = M.rows.tolist()
    d = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if A[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            A[col], A[pivot_row] = A[pivot_row], A[col]
            d = F.neg(d)
        d = F.mul(d, A[col][col])
        inv = F.inv(A[col][col])
        for i in range(col + 1, n):
            if A[i][col] != 0:
                c = F.mul(inv, A[i][col])
                A[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(A[i], A[col])]
    return d


def maximal_minors(F: GF, stack: np.ndarray) -> np.ndarray:
    """All C(m, l) maximal minors of each matrix in an (N, l, m) index stack.

    Column subsets come in lex order, so for row vectors spanning a subspace
    row t is its homogeneous coordinate vector in P^(C(m,l) - 1).  Laplace
    expansion along rows, bottom row first: the minors on the last j rows
    come from those on the last j - 1, so each smaller minor is computed once.
    """
    N, l, m = stack.shape
    if l > m:
        raise DimensionMismatch(f"need nrows <= ncols, got {l} x {m}")
    ops = F.array_ops()
    minors = np.ones((N, 1), ops.dtype)
    index = {(): 0}
    for j in range(1, l + 1):
        row = stack[:, l - j]
        subsets = list(combinations(range(m), j))
        acc = np.zeros((N, len(subsets)), ops.dtype)
        for t in range(j):
            # Expansion term t: entry (top row, S[t]) times the minor on S - S[t].
            cols = [S[t] for S in subsets]
            rest = [index[S[:t] + S[t + 1 :]] for S in subsets]
            term = ops.mul(row[:, cols], minors[:, rest])
            acc = ops.add(acc, term if t % 2 == 0 else ops.neg(term))
        minors = acc
        index = {S: i for i, S in enumerate(subsets)}
    return minors
