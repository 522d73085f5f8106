"""Evaluation codes and exact parameter measurement.

The brute-force engine enumerates one representative per scalar class of
nonzero messages (first nonzero coordinate 1); weights are scalar-invariant
so this is exact and q-1 times cheaper.  Arithmetic over GF(p^e) is pushed
through one real matrix product per block: each generator entry expands to
the e x e multiplication matrix of that element over GF(p), messages expand
to their polynomial-basis digits, and the digit sums stay far below 2^53 so
float64 BLAS products are exact.

Enumeration work is split into blocks of message indices; blocks can be
processed by worker threads and merged with min / histogram-sum, which is
associative, so results are identical to the sequential scan.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .bounds import gaussian_binomial
from .errors import (
    BudgetExceeded,
    EmptyPointSet,
    InputError,
    InvalidParams,
    UnexpectedDistance,
    invariant,
)
from .families import build_point_set, check_descriptor, require_fields
from .gf import GF
from .linalg import Matrix, rref
from .projgeom import Form, enumerate_monomials, monomial_name
from .varieties import PointSet, VarietyDescriptor, delpezzo_points

DEFAULT_BUDGET = 2**31
ARTIFACT_FORMAT_VERSION = 1
_ARTIFACT_KINDS = {
    "format_version": "int",
    "field": "dict",
    "n": "int",
    "k": "int",
    "kernel_dim": "int",
    "generator": "list[list[int]]",
    "point_labels": "list[str]",
    "basis_labels": "list[str]",
    "provenance": "dict",
}
_FIELD_KINDS = {"p": "int", "e": "int", "q": "int", "modulus": "list[int]"}


@dataclass
class WeightEnumerator:
    """Histogram A_w of codeword Hamming weights; sums to q^k."""

    counts: dict[int, int]

    def support(self) -> list[int]:
        return sorted(w for w, c in self.counts.items() if c and w > 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def min_weight(self) -> int:
        return min(w for w, c in self.counts.items() if c and w > 0)

    def to_dict(self) -> dict:
        return {str(w): self.counts[w] for w in sorted(self.counts) if self.counts[w]}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightEnumerator":
        return cls({int(w): int(c) for w, c in d.items()})


@dataclass
class LinearCode:
    """Linear [n, k] code given by a full-rank generator matrix in RREF."""

    field: GF
    generator: Matrix
    point_labels: list[str]
    basis_labels: list[str]
    provenance: dict
    kernel_dim: int = 0
    _d: int | None = dc_field(default=None, repr=False)
    _wdist: WeightEnumerator | None = dc_field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.generator.ncols

    @property
    def k(self) -> int:
        return self.generator.nrows

    def params(self) -> str:
        d = f",{self._d}" if self._d is not None else ""
        return f"[{self.n},{self.k}{d}]_{self.field.q}"

    def has_zero_column(self) -> bool:
        return any(
            all(row[j] == 0 for row in self.generator.rows) for j in range(self.n)
        )

    def to_dict(self) -> dict:
        return {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "kernel_dim": self.kernel_dim,
            "generator": [row[:] for row in self.generator.rows],
            "point_labels": self.point_labels,
            "basis_labels": self.basis_labels,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        require_fields("artifact", d, _ARTIFACT_KINDS, {"kernel_dim", "provenance"})
        if d["format_version"] != ARTIFACT_FORMAT_VERSION:
            raise InvalidParams(f"unsupported artifact format version {d['format_version']!r}")
        require_fields("artifact field", d["field"], _FIELD_KINDS, {"q", "modulus"})
        fld = GF.from_dict(d["field"])
        gen = Matrix(fld, [row[:] for row in d["generator"]])
        if (gen.nrows, gen.ncols, len(d["point_labels"])) != (d["k"], d["n"], d["n"]):
            raise InvalidParams(
                f"artifact says k={d['k']}, n={d['n']}, but has a {gen.nrows} x "
                f"{gen.ncols} generator and {len(d['point_labels'])} point labels"
            )
        _, pivots = rref(gen)
        if not 0 < len(pivots) == gen.nrows:
            raise InvalidParams("artifact generator is not full rank")
        return cls(
            fld,
            gen,
            list(d["point_labels"]),
            list(d["basis_labels"]),
            dict(d.get("provenance", {})),
            d.get("kernel_dim", 0),
        )

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.generator.rows) + "\n"


# -- construction -----------------------------------------------------------------


def build_evaluation_code(
    points: PointSet,
    basis: list[Form] | None = None,
    h: int | None = None,
    basis_labels: list[str] | None = None,
    provenance: dict | None = None,
) -> LinearCode:
    """Code of the evaluation map basis -> (f(P1), ..., f(Pn)).

    Either an explicit basis of forms or a degree h (whole monomial basis)
    must be given.  The generator is the row basis of the RREF of the raw
    evaluation matrix; the kernel dimension (forms vanishing on all of S)
    is recorded.
    """
    if len(points) == 0:
        raise EmptyPointSet("no evaluation points")
    fld = points.field
    if basis is None:
        if h is None:
            raise InvalidParams("need a basis or a degree h")
        monos = enumerate_monomials(points.ambient, h)
        basis = [Form.monomial(fld, e) for e in monos]
        basis_labels = [monomial_name(e) for e in monos]
    if basis_labels is None:
        basis_labels = [str(f) for f in basis]
    raw = Matrix(fld, [[f.evaluate(p) for p in points.points] for f in basis])
    reduced, pivots = rref(raw)
    k = len(pivots)
    if k == 0:
        raise InvalidParams("every basis form vanishes on the whole point set")
    gen = Matrix(fld, reduced.rows[:k])
    return LinearCode(
        fld,
        gen,
        list(points.labels),
        basis_labels,
        provenance or {},
        kernel_dim=len(basis) - k,
    )


def code_from_descriptor(
    desc: VarietyDescriptor, h: int, fld: GF
) -> LinearCode:
    """Build the degree-h evaluation code of a variety descriptor."""
    fam = check_descriptor(desc, h, fld.q)
    prov = {"descriptor": desc.to_dict(), "h": h, "q": fld.q}
    if fam.blow_up is not None:
        # The columns already hold the values of the cubics through the base
        # points, so the code evaluates the coordinate functions.
        points, cubics, _ = delpezzo_points(fam.blow_up(desc.params), fld)
        coords = [Form.monomial(fld, e) for e in enumerate_monomials(points.ambient, 1)]
        labels = [str(f) for f in cubics]
        return build_evaluation_code(points, coords, basis_labels=labels, provenance=prov)
    points = build_point_set(desc, fld)
    basis, labels = fam.basis(desc.params, fld) if fam.basis else (None, None)
    return build_evaluation_code(points, basis, h, labels, prov)


# -- the enumeration engine ---------------------------------------------------------


class _Expanded:
    """Generator matrix expanded over the prime field for block matmuls."""

    def __init__(self, code: LinearCode):
        fld = code.field
        k, n, e = code.k, code.n, fld.e
        self.p, self.e, self.n, self.k, self.q = fld.p, e, n, k, fld.q
        ghat = np.zeros((k * e, n * e), dtype=np.float64)
        mulmats: dict[int, list[list[int]]] = {}
        for j, row in enumerate(code.generator.rows):
            for i, c in enumerate(row):
                if c == 0:
                    continue
                M = mulmats.get(c)
                if M is None:
                    M = mulmats[c] = fld.mul_matrix(c)
                for s in range(e):
                    for t in range(e):
                        ghat[j * e + s, i * e + t] = M[t][s]
        self.ghat = ghat
        self.vec_table = np.asarray(fld.vec_table, dtype=np.float64)
        self.block = max(1024, min(65536, 4_000_000 // max(n * e, 1)))

    def nonzero_pattern(self, msgs: np.ndarray) -> np.ndarray:
        """(B, k) element-index messages -> (B, n) bool nonzero-coordinate mask."""
        B = msgs.shape[0]
        mv = self.vec_table[msgs].reshape(B, self.k * self.e)
        z = (mv @ self.ghat).astype(np.int64) % self.p
        return z.reshape(B, self.n, self.e).any(axis=2)


def _digits_block(start: int, count: int, ndigits: int, q: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.zeros((count, max(ndigits, 1)), dtype=np.int64)
    rem = idx
    for pos in range(ndigits - 1, -1, -1):
        out[:, pos] = rem % q
        rem = rem // q
    return out[:, :ndigits] if ndigits else out[:, :0]


def _class_tasks(k: int, q: int, block: int):
    """(pivot, start, count) chunks covering all scalar classes of messages."""
    for t in range(k):
        total = q ** (k - 1 - t)
        start = 0
        while start < total:
            cnt = min(block, total - start)
            yield t, start, cnt
            start += cnt


def _class_messages(k: int, q: int, t: int, start: int, cnt: int) -> np.ndarray:
    msgs = np.zeros((cnt, k), dtype=np.int64)
    msgs[:, t] = 1
    ndigits = k - 1 - t
    if ndigits:
        msgs[:, t + 1 :] = _digits_block(start, cnt, ndigits, q)
    return msgs


def _run_tasks(tasks, worker, workers: int):
    if workers <= 1:
        return [worker(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def estimate_min_distance_cost(n: int, k: int, q: int) -> int:
    return n * ((q**k - 1) // (q - 1))


def min_distance(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """Exact minimum distance by scalar-class enumeration."""
    if code._d is not None:
        return code._d
    est = estimate_min_distance_cost(code.n, code.k, code.field.q)
    if est > budget:
        raise BudgetExceeded(est, budget, "minimum distance enumeration")
    ex = _Expanded(code)
    q, k = code.field.q, code.k

    def worker(task):
        t, start, cnt = task
        weights = ex.nonzero_pattern(_class_messages(k, q, t, start, cnt)).sum(axis=1)
        return int(weights.min())

    partial = _run_tasks(list(_class_tasks(k, q, ex.block)), worker, workers)
    code._d = min(partial)
    return code._d


def weight_distribution(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator over all q^k codewords."""
    if code._wdist is not None:
        return code._wdist
    q, k, n = code.field.q, code.k, code.n
    est = n * q**k
    if est > budget:
        raise BudgetExceeded(est, budget, "weight distribution enumeration")
    ex = _Expanded(code)

    def worker(task):
        t, start, cnt = task
        weights = ex.nonzero_pattern(_class_messages(k, q, t, start, cnt)).sum(axis=1)
        return np.bincount(weights, minlength=n + 1)

    partial = _run_tasks(list(_class_tasks(k, q, ex.block)), worker, workers)
    hist = np.sum(partial, axis=0) * (q - 1)
    hist[0] += 1
    invariant(int(hist.sum()) == q**k, "weight enumerator normalization failed")
    counts = {w: int(c) for w, c in enumerate(hist) if c}
    code._wdist = WeightEnumerator(counts)
    if code._d is None and len(counts) > 1:
        code._d = min(w for w in counts if w > 0)
    return code._wdist


def ghw(
    code: LinearCode, r: int, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """r-th generalized Hamming weight: minimal support of an r-dim subcode.

    Enumerates r-dimensional message subspaces via RREF pivot patterns.
    """
    k, q, n = code.k, code.field.q, code.n
    if not 1 <= r <= k:
        raise InvalidParams(f"need 1 <= r <= k = {k}, got {r}")
    est = gaussian_binomial(k, r, q) * n
    if est > budget:
        raise BudgetExceeded(est, budget, "subspace enumeration")
    ex = _Expanded(code)
    tasks = []
    for pivots in combinations(range(k), r):
        free = [
            (i, c)
            for i in range(r)
            for c in range(k)
            if c > pivots[i] and c not in pivots
        ]
        total = q ** len(free)
        block = max(1, ex.block // r)
        start = 0
        while start < total:
            cnt = min(block, total - start)
            tasks.append((pivots, tuple(free), start, cnt))
            start += cnt

    def worker(task):
        pivots, free, start, cnt = task
        digits = _digits_block(start, cnt, len(free), q)
        batch = np.zeros((cnt, r, k), dtype=np.int64)
        for i, pc in enumerate(pivots):
            batch[:, i, pc] = 1
        for col, (i, c) in enumerate(free):
            batch[:, i, c] = digits[:, col]
        nz = ex.nonzero_pattern(batch.reshape(cnt * r, k)).reshape(cnt, r, n)
        supports = nz.any(axis=1).sum(axis=1)
        return int(supports.min())

    partial = _run_tasks(tasks, worker, workers)
    return min(partial)


def eckardt_detect(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff a degree-6 blow-up code has the depressed minimum distance.

    d = q^2 + 4q means the configuration has an Eckardt point (three
    concurrent lines in a plane section); d = q^2 + 4q + 1 is the generic
    case.  Anything else signals a construction bug.
    """
    desc = code.provenance.get("descriptor", {})
    if desc.get("family") != "del_pezzo" or desc.get("l") != 6:
        raise InputError("Eckardt detection applies to l = 6 blow-up codes only")
    q = code.field.q
    d = min_distance(code, budget)
    if d == q * q + 4 * q:
        return True
    if d == q * q + 4 * q + 1:
        return False
    raise UnexpectedDistance(
        f"d = {d} is outside {{q^2+4q, q^2+4q+1}} = {{{q*q+4*q}, {q*q+4*q+1}}}"
    )
