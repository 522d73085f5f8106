"""Dense exact linear algebra over GF(q).

Matrices hold canonical element indices in row-major lists; all algorithms
are plain Gaussian elimination, which is ample at the scales this package
works at (tens of rows, at most a few thousand columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DimensionMismatch
from .gf import GF


@dataclass
class Matrix:
    field: GF
    rows: list[list[int]]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        q = self.field.q
        for row in self.rows:
            for x in row:
                if not 0 <= x < q:
                    raise DimensionMismatch(f"{x} is not a GF({q}) element index")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, field: GF, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: GF, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[0] * ncols for _ in range(nrows)])


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns; row space is preserved."""
    F = M.field
    R = [row[:] for row in M.rows]
    nrows, ncols = len(R), M.ncols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if R[i][col] != 0), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = F.inv(R[r][col])
        if inv != 1:
            R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][col] != 0:
                c = R[i][col]
                R[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return Matrix(F, R), pivots


def pivot_patterns(r: int, k: int):
    """(pivots, free) for every RREF pattern of an r x k matrix of rank r.

    free lists the (row, column) entries the pattern leaves free, row by row.
    """
    for pivots in combinations(range(k), r):
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, k) if c not in pivots]
        yield pivots, free


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def rank_and_kernel(M: Matrix) -> tuple[int, Matrix]:
    """Rank plus a basis (rows) of the right kernel {v : Mv = 0}.

    Basis vectors are indexed by the non-pivot columns in ascending order,
    each with a 1 in its free coordinate, so the result is canonical.
    """
    F = M.field
    R, pivots = rref(M)
    ncols = M.ncols
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.rows[i][j])
        basis.append(v)
    return len(pivots), Matrix(F, basis)


def det(M: Matrix) -> int:
    """Determinant of a square matrix by elimination with sign tracking."""
    F = M.field
    n = M.nrows
    if n != M.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    A = [row[:] for row in M.rows]
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


def maximal_minors(M: Matrix) -> list[int]:
    """All C(ncols, nrows) maximal minors, column subsets in lex order.

    For an l x m matrix of row vectors spanning a subspace this is its
    homogeneous coordinate vector in P^(C(m,l) - 1).
    """
    F = M.field
    l, m = M.nrows, M.ncols
    if l > m:
        raise DimensionMismatch(f"need nrows <= ncols, got {l} x {m}")
    out = []
    for cols in combinations(range(m), l):
        sub = Matrix(F, [[row[c] for c in cols] for row in M.rows])
        out.append(det(sub))
    return out
